//! StegCover — the cover-file scheme of Anderson, Needham and Shamir
//! (scheme 1 in their paper, `StegCover` in the StegFS evaluation).
//!
//! The volume is initialised with a fixed number of large random *cover
//! files*.  A hidden file is embedded as the exclusive-or of a subset of
//! covers selected from the password; to store a file, one cover of the
//! subset (the *home* cover) is rewritten so that the subset XORs to the file
//! content.  Consequently **every read or write touches the whole subset** —
//! 16 cover files with the authors' recommended parameters — which is the
//! source of the order-of-magnitude I/O penalty measured in §5.3 of the
//! StegFS paper.
//!
//! Simplifications relative to the original construction: the subset
//! consists of a fixed set of *mask covers* (never used as homes) plus one
//! home cover chosen by keyed probing, and a MAC embedded in the plaintext
//! confirms reconstruction.  This keeps multiple
//! hidden files independent without the linear-algebra machinery of the
//! original scheme while preserving its I/O and space behaviour, which is
//! what the benchmarks measure.

use crate::{BaselineError, BaselineResult};
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::hmac::hmac_sha256;
use stegfs_crypto::prng::{HashChainPrng, XorShiftRng};

/// Number of cover files combined per hidden file (the authors' recommended
/// value, used throughout the paper's evaluation).
pub const DEFAULT_SUBSET_SIZE: usize = 16;

const MAC_LEN: usize = 32;
const LEN_FIELD: usize = 8;

/// The cover-file steganographic store.
pub struct StegCover<D: BlockDevice> {
    dev: D,
    cover_blocks: u64,
    cover_count: u64,
    subset_size: usize,
    /// Home covers already claimed during this session (occupancy is not
    /// recorded on disk — there is nowhere deniable to record it).
    claimed_homes: Vec<bool>,
}

impl<D: BlockDevice> StegCover<D> {
    /// Initialise a volume: fill every cover with random data.
    ///
    /// `cover_size_bytes` must be a multiple of the device block size and
    /// large enough for the biggest file to be stored (the paper uses 2 MB
    /// covers for files of at most 2 MB).
    pub fn format(dev: D, cover_size_bytes: u64, subset_size: usize) -> BaselineResult<Self> {
        let bs = dev.block_size() as u64;
        if cover_size_bytes == 0 || !cover_size_bytes.is_multiple_of(bs) {
            return Err(BaselineError::Invalid(format!(
                "cover size {cover_size_bytes} is not a multiple of the block size {bs}"
            )));
        }
        if subset_size < 2 {
            return Err(BaselineError::Invalid(
                "subset size must be at least 2 (one mask cover and one home)".into(),
            ));
        }
        let cover_blocks = cover_size_bytes / bs;
        let cover_count = dev.total_blocks() / cover_blocks;
        if cover_count <= subset_size as u64 {
            return Err(BaselineError::Invalid(format!(
                "volume only holds {cover_count} covers; need more than the subset size {subset_size}"
            )));
        }

        // Fill every cover with pseudorandom data (fast non-cryptographic
        // fill; see XorShiftRng's documentation).
        let mut rng = XorShiftRng::new(0x5354_4547_434f_5645);
        let mut buf = vec![0u8; bs as usize];
        for block in 0..cover_count * cover_blocks {
            rng.fill(&mut buf);
            dev.write_block(block, &buf)?;
        }

        Ok(StegCover {
            dev,
            cover_blocks,
            cover_count,
            subset_size,
            claimed_homes: vec![false; cover_count as usize],
        })
    }

    /// Number of cover files in the volume.
    pub fn cover_count(&self) -> u64 {
        self.cover_count
    }

    /// Number of covers usable as homes (total minus the mask covers).
    pub fn capacity(&self) -> u64 {
        self.cover_count - (self.subset_size as u64 - 1)
    }

    /// Maximum payload per hidden file.
    pub fn max_file_size(&self) -> u64 {
        self.cover_blocks * self.dev.block_size() as u64 - (MAC_LEN + LEN_FIELD) as u64
    }

    /// Access the underlying device (to read its clock in experiments).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Upper bound on home-cover probes: like the StegFS locator, the search
    /// only ever needs to skip past homes claimed by other files, so twice
    /// the number of home covers is a safe, cheap bound.
    fn max_probes(&self) -> usize {
        (self.capacity() as usize * 2).max(32)
    }

    fn mask_cover_ids(&self) -> std::ops::Range<u64> {
        0..(self.subset_size as u64 - 1)
    }

    fn home_cover_ids(&self) -> std::ops::Range<u64> {
        (self.subset_size as u64 - 1)..self.cover_count
    }

    fn read_cover(&mut self, cover: u64) -> BaselineResult<Vec<u8>> {
        let bs = self.dev.block_size();
        let mut out = vec![0u8; (self.cover_blocks as usize) * bs];
        for i in 0..self.cover_blocks {
            let offset = (i as usize) * bs;
            self.dev
                .read_block(cover * self.cover_blocks + i, &mut out[offset..offset + bs])?;
        }
        Ok(out)
    }

    fn write_cover(&mut self, cover: u64, data: &[u8]) -> BaselineResult<()> {
        let bs = self.dev.block_size();
        debug_assert_eq!(data.len(), self.cover_blocks as usize * bs);
        for i in 0..self.cover_blocks {
            let offset = (i as usize) * bs;
            self.dev
                .write_block(cover * self.cover_blocks + i, &data[offset..offset + bs])?;
        }
        Ok(())
    }

    /// XOR of all mask covers (the part of the subset shared by every file).
    fn read_mask(&mut self) -> BaselineResult<Vec<u8>> {
        let mut mask = vec![0u8; self.cover_blocks as usize * self.dev.block_size()];
        for cover in self.mask_cover_ids() {
            let data = self.read_cover(cover)?;
            for (m, d) in mask.iter_mut().zip(&data) {
                *m ^= d;
            }
        }
        Ok(mask)
    }

    fn home_candidates(&self, name: &str, password: &str) -> HashChainPrng {
        let mut seed = Vec::new();
        seed.extend_from_slice(b"stegcover-home");
        seed.extend_from_slice(name.as_bytes());
        seed.push(0);
        seed.extend_from_slice(password.as_bytes());
        HashChainPrng::new(&seed)
    }

    fn mac(&self, name: &str, password: &str, data: &[u8]) -> [u8; MAC_LEN] {
        let mut msg = Vec::with_capacity(name.len() + 1 + data.len());
        msg.extend_from_slice(name.as_bytes());
        msg.push(0);
        msg.extend_from_slice(data);
        hmac_sha256(password.as_bytes(), &msg)
    }

    /// Store `data` under `(name, password)`.  Returns the index of the home
    /// cover that now holds the (masked) file, which block-granular callers
    /// (the experiment harness) pass back to [`read_block_of`](Self::read_block_of)
    /// and [`write_block_of`](Self::write_block_of).
    pub fn store(&mut self, name: &str, password: &str, data: &[u8]) -> BaselineResult<u64> {
        if data.len() as u64 > self.max_file_size() {
            return Err(BaselineError::TooLarge {
                requested: data.len() as u64,
                maximum: self.max_file_size(),
            });
        }
        // Plaintext cover image: [len][mac][data][zero pad].
        let cover_bytes = self.cover_blocks as usize * self.dev.block_size();
        let mut plain = vec![0u8; cover_bytes];
        plain[..LEN_FIELD].copy_from_slice(&(data.len() as u64).to_be_bytes());
        plain[LEN_FIELD..LEN_FIELD + MAC_LEN].copy_from_slice(&self.mac(name, password, data));
        plain[LEN_FIELD + MAC_LEN..LEN_FIELD + MAC_LEN + data.len()].copy_from_slice(data);

        // Reading the rest of the subset is what makes StegCover expensive.
        let mask = self.read_mask()?;
        for (p, m) in plain.iter_mut().zip(&mask) {
            *p ^= m;
        }

        // Choose a home cover by keyed probing over unclaimed homes.
        let mut candidates = self.home_candidates(name, password);
        let home_range = self.home_cover_ids();
        let span = home_range.end - home_range.start;
        for _ in 0..self.max_probes() {
            let candidate = home_range.start + candidates.next_below(span);
            if !self.claimed_homes[candidate as usize] {
                self.claimed_homes[candidate as usize] = true;
                self.write_cover(candidate, &plain)?;
                return Ok(candidate);
            }
        }
        Err(BaselineError::NoSpace)
    }

    /// Read one block's worth of a stored file: touches the corresponding
    /// block of every mask cover plus the home cover (the per-access cost the
    /// paper measures).  Returns the reconstructed plaintext block.
    pub fn read_block_of(&mut self, home: u64, block_in_cover: u64) -> BaselineResult<Vec<u8>> {
        if block_in_cover >= self.cover_blocks {
            return Err(BaselineError::Invalid(format!(
                "block {block_in_cover} beyond cover size"
            )));
        }
        let bs = self.dev.block_size();
        let mut acc = vec![0u8; bs];
        let mut buf = vec![0u8; bs];
        for cover in self.mask_cover_ids() {
            self.dev
                .read_block(cover * self.cover_blocks + block_in_cover, &mut buf)?;
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= b;
            }
        }
        self.dev
            .read_block(home * self.cover_blocks + block_in_cover, &mut buf)?;
        for (a, b) in acc.iter_mut().zip(&buf) {
            *a ^= b;
        }
        Ok(acc)
    }

    /// Overwrite one block's worth of a stored file in place: reads the mask
    /// blocks and rewrites the home block so the subset XOR reflects the new
    /// plaintext.
    pub fn write_block_of(
        &mut self,
        home: u64,
        block_in_cover: u64,
        plaintext: &[u8],
    ) -> BaselineResult<()> {
        let bs = self.dev.block_size();
        if block_in_cover >= self.cover_blocks {
            return Err(BaselineError::Invalid(format!(
                "block {block_in_cover} beyond cover size"
            )));
        }
        if plaintext.len() != bs {
            return Err(BaselineError::Invalid(format!(
                "plaintext block must be exactly {bs} bytes"
            )));
        }
        let mut acc = plaintext.to_vec();
        let mut buf = vec![0u8; bs];
        for cover in self.mask_cover_ids() {
            self.dev
                .read_block(cover * self.cover_blocks + block_in_cover, &mut buf)?;
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= b;
            }
        }
        self.dev
            .write_block(home * self.cover_blocks + block_in_cover, &acc)?;
        Ok(())
    }

    /// Retrieve the file stored under `(name, password)`.
    pub fn load(&mut self, name: &str, password: &str) -> BaselineResult<Vec<u8>> {
        let mask = self.read_mask()?;
        let mut candidates = self.home_candidates(name, password);
        let home_range = self.home_cover_ids();
        let span = home_range.end - home_range.start;
        for _ in 0..self.max_probes() {
            let candidate = home_range.start + candidates.next_below(span);
            let cover = self.read_cover(candidate)?;
            let mut plain: Vec<u8> = cover.iter().zip(&mask).map(|(c, m)| c ^ m).collect();
            let len = u64::from_be_bytes(plain[..LEN_FIELD].try_into().unwrap()) as usize;
            if len > plain.len() - LEN_FIELD - MAC_LEN {
                continue;
            }
            let mac_stored: [u8; MAC_LEN] =
                plain[LEN_FIELD..LEN_FIELD + MAC_LEN].try_into().unwrap();
            let data = plain.split_off(LEN_FIELD + MAC_LEN);
            let data = &data[..len];
            if stegfs_crypto::ct::ct_eq(&mac_stored, &self.mac(name, password, data)) {
                return Ok(data.to_vec());
            }
        }
        Err(BaselineError::NotFound(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{MemBlockDevice, ObservedDevice};

    fn store_16mb() -> StegCover<ObservedDevice<MemBlockDevice>> {
        // 16 MB volume of 1 KB blocks with 512 KB covers -> 32 covers.
        let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 16 * 1024));
        StegCover::format(dev, 512 * 1024, DEFAULT_SUBSET_SIZE).unwrap()
    }

    #[test]
    fn format_geometry() {
        let cover = store_16mb();
        assert_eq!(cover.cover_count(), 32);
        assert_eq!(cover.capacity(), 32 - 15);
        assert!(cover.max_file_size() > 500 * 1024);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut cover = store_16mb();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 255) as u8).collect();
        cover.store("report", "pw", &data).unwrap();
        assert_eq!(cover.load("report", "pw").unwrap(), data);
    }

    #[test]
    fn wrong_password_or_name_not_found() {
        let mut cover = store_16mb();
        cover.store("report", "pw", b"secret").unwrap();
        assert!(matches!(
            cover.load("report", "other"),
            Err(BaselineError::NotFound(_))
        ));
        assert!(matches!(
            cover.load("other", "pw"),
            Err(BaselineError::NotFound(_))
        ));
    }

    #[test]
    fn multiple_files_coexist() {
        let mut cover = store_16mb();
        for i in 0..10 {
            cover
                .store(
                    &format!("file-{i}"),
                    "pw",
                    format!("contents {i}").as_bytes(),
                )
                .unwrap();
        }
        for i in 0..10 {
            assert_eq!(
                cover.load(&format!("file-{i}"), "pw").unwrap(),
                format!("contents {i}").as_bytes()
            );
        }
    }

    #[test]
    fn every_operation_touches_the_whole_subset() {
        let mut cover = store_16mb();
        let stats = cover.device_mut().stats().clone();
        stats.reset();
        let cover_blocks = 512; // 512 KB covers of 1 KB blocks

        cover.store("f", "pw", &vec![1u8; 4096]).unwrap();
        let s = stats.summary();
        // Store: read 15 mask covers, write 1 home cover.
        assert_eq!(s.blocks_read, 15 * cover_blocks);
        assert_eq!(s.blocks_written, cover_blocks);

        stats.reset();
        cover.load("f", "pw").unwrap();
        let s = stats.summary();
        // Load: read 15 mask covers + at least the home cover.
        assert!(s.blocks_read >= 16 * cover_blocks);
        assert_eq!(s.blocks_written, 0);
    }

    #[test]
    fn capacity_exhaustion_reported() {
        // Tiny volume: 4 covers total with subset size 3 -> 2 homes.
        let dev = MemBlockDevice::new(1024, 256);
        let mut cover = StegCover::format(dev, 64 * 1024, 3).unwrap();
        assert_eq!(cover.capacity(), 2);
        cover.store("a", "pw", b"1").unwrap();
        cover.store("b", "pw", b"2").unwrap();
        assert!(matches!(
            cover.store("c", "pw", b"3"),
            Err(BaselineError::NoSpace)
        ));
    }

    #[test]
    fn oversized_file_rejected() {
        let mut cover = store_16mb();
        let too_big = vec![0u8; cover.max_file_size() as usize + 1];
        assert!(matches!(
            cover.store("big", "pw", &too_big),
            Err(BaselineError::TooLarge { .. })
        ));
    }

    #[test]
    fn invalid_configurations_rejected() {
        let dev = MemBlockDevice::new(1024, 256);
        assert!(StegCover::format(dev, 1000, 16).is_err()); // not a block multiple
        let dev = MemBlockDevice::new(1024, 256);
        assert!(StegCover::format(dev, 64 * 1024, 1).is_err()); // subset too small
        let dev = MemBlockDevice::new(1024, 256);
        assert!(StegCover::format(dev, 128 * 1024, 16).is_err()); // fewer covers than subset
    }
}
