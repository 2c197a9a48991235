//! StegRand — the random-placement scheme of Anderson, Needham and Shamir
//! (scheme 2, implemented for Linux by McDonald and Kuhn's 1999 StegFS).
//!
//! File blocks are written to absolute disk addresses generated by a keyed
//! pseudorandom process.  Because no bitmap or directory records the
//! allocations (that would betray the files), **different files can map to
//! the same addresses and silently overwrite one another**.  The defence is
//! replication: each block is written to `r` pseudorandom addresses and a
//! read succeeds while at least one replica survives.
//!
//! Two artefacts live here:
//!
//! * [`StegRand`] — a working store over a [`BlockDevice`], used by the
//!   timing experiments (its read path hunts through replicas, its write path
//!   writes all of them — the behaviour behind Figure 7's `StegRand` curves).
//! * [`StegRandSpaceModel`] — a fast allocation-only model used to regenerate
//!   Figure 6 (effective space utilization vs. replication factor), where
//!   simulating the actual data movement would be pointless.

use crate::{BaselineError, BaselineResult};
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::hmac::hmac_sha256;
use stegfs_crypto::prng::{HashChainPrng, XorShiftRng};

/// Per-block tag length (identifies which file/block/replica a physical block
/// currently holds).
const TAG_LEN: usize = 16;
/// Per-block payload length field.
const LEN_FIELD: usize = 2;

/// The replicated random-placement store.
pub struct StegRand<D: BlockDevice> {
    dev: D,
    replication: usize,
}

impl<D: BlockDevice> StegRand<D> {
    /// Initialise a volume: fill it with random data so that written blocks
    /// are indistinguishable from never-written ones.
    pub fn format(dev: D, replication: usize) -> BaselineResult<Self> {
        if replication == 0 {
            return Err(BaselineError::Invalid(
                "replication factor must be at least 1".into(),
            ));
        }
        let mut rng = XorShiftRng::new(0x5354_4547_5241_4e44);
        let mut buf = vec![0u8; dev.block_size()];
        for block in 0..dev.total_blocks() {
            rng.fill(&mut buf);
            dev.write_block(block, &buf)?;
        }
        Ok(StegRand { dev, replication })
    }

    /// Open an already-formatted volume (formatting is only random fill, so
    /// this simply wraps the device).
    pub fn open(dev: D, replication: usize) -> BaselineResult<Self> {
        if replication == 0 {
            return Err(BaselineError::Invalid(
                "replication factor must be at least 1".into(),
            ));
        }
        Ok(StegRand { dev, replication })
    }

    /// The replication factor in use.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Payload bytes carried per device block.
    pub fn payload_per_block(&self) -> usize {
        self.dev.block_size() - TAG_LEN - LEN_FIELD
    }

    /// Access the underlying device (to read its clock in experiments).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    fn tag(&self, name: &str, password: &str, logical: u64) -> [u8; TAG_LEN] {
        let mut msg = Vec::with_capacity(name.len() + 9);
        msg.extend_from_slice(name.as_bytes());
        msg.push(0);
        msg.extend_from_slice(&logical.to_be_bytes());
        let full = hmac_sha256(password.as_bytes(), &msg);
        full[..TAG_LEN].try_into().unwrap()
    }

    /// The pseudorandom addresses of replica `replica` of logical block
    /// `logical`.
    fn address(&self, name: &str, password: &str, logical: u64, replica: usize) -> u64 {
        let mut seed = Vec::new();
        seed.extend_from_slice(b"stegrand-addr");
        seed.extend_from_slice(name.as_bytes());
        seed.push(0);
        seed.extend_from_slice(password.as_bytes());
        seed.extend_from_slice(&logical.to_be_bytes());
        seed.extend_from_slice(&(replica as u64).to_be_bytes());
        let mut prng = HashChainPrng::new(&seed);
        prng.next_below(self.dev.total_blocks())
    }

    /// Write one logical block (all of its replicas).  `chunk` must be at most
    /// [`payload_per_block`](Self::payload_per_block) bytes.
    pub fn write_logical_block(
        &mut self,
        name: &str,
        password: &str,
        logical: u64,
        chunk: &[u8],
    ) -> BaselineResult<()> {
        let payload = self.payload_per_block();
        let bs = self.dev.block_size();
        if chunk.len() > payload {
            return Err(BaselineError::TooLarge {
                requested: chunk.len() as u64,
                maximum: payload as u64,
            });
        }
        let mut block = vec![0u8; bs];
        block[..TAG_LEN].copy_from_slice(&self.tag(name, password, logical));
        block[TAG_LEN..TAG_LEN + LEN_FIELD].copy_from_slice(&(chunk.len() as u16).to_be_bytes());
        block[TAG_LEN + LEN_FIELD..TAG_LEN + LEN_FIELD + chunk.len()].copy_from_slice(chunk);
        for replica in 0..self.replication {
            let addr = self.address(name, password, logical, replica);
            self.dev.write_block(addr, &block)?;
        }
        Ok(())
    }

    /// Read one logical block, hunting through replicas until an intact copy
    /// is found.
    pub fn read_logical_block(
        &mut self,
        name: &str,
        password: &str,
        logical: u64,
    ) -> BaselineResult<Option<Vec<u8>>> {
        let payload = self.payload_per_block();
        let tag = self.tag(name, password, logical);
        for replica in 0..self.replication {
            let addr = self.address(name, password, logical, replica);
            let block = self.dev.read_block_vec(addr)?;
            if stegfs_crypto::ct::ct_eq(&block[..TAG_LEN], &tag) {
                let len =
                    u16::from_be_bytes(block[TAG_LEN..TAG_LEN + LEN_FIELD].try_into().unwrap())
                        as usize;
                if len <= payload {
                    return Ok(Some(
                        block[TAG_LEN + LEN_FIELD..TAG_LEN + LEN_FIELD + len].to_vec(),
                    ));
                }
            }
        }
        Ok(None)
    }

    /// Store `data` under `(name, password)`, writing every block to
    /// `replication` pseudorandom addresses.
    pub fn store(&mut self, name: &str, password: &str, data: &[u8]) -> BaselineResult<()> {
        let payload = self.payload_per_block();
        let nblocks = data.len().div_ceil(payload).max(1);
        for logical in 0..nblocks {
            let start = logical * payload;
            let end = ((logical + 1) * payload).min(data.len());
            let chunk = data[start.min(data.len())..end].to_vec();
            self.write_logical_block(name, password, logical as u64, &chunk)?;
        }
        Ok(())
    }

    /// Retrieve the file stored under `(name, password)`.  `expected_len`
    /// bounds the read (the scheme stores no directory, so the caller — like
    /// the original implementation's user — must know the length or accept
    /// the padded size).
    pub fn load(
        &mut self,
        name: &str,
        password: &str,
        expected_len: usize,
    ) -> BaselineResult<Vec<u8>> {
        let payload = self.payload_per_block();
        let nblocks = expected_len.div_ceil(payload).max(1);
        let mut out = Vec::with_capacity(expected_len);
        let mut found_any = false;
        for logical in 0..nblocks {
            match self.read_logical_block(name, password, logical as u64)? {
                Some(chunk) => {
                    found_any = true;
                    out.extend_from_slice(&chunk);
                }
                None if !found_any => {
                    return Err(BaselineError::NotFound(name.to_string()));
                }
                None => {
                    return Err(BaselineError::DataLoss {
                        name: name.to_string(),
                        lost_block: logical as u64,
                    });
                }
            }
        }
        out.truncate(expected_len);
        Ok(out)
    }
}

/// Allocation-only model of StegRand used by the Figure 6 experiment.
///
/// It tracks which physical block currently holds which `(file, logical,
/// replica)` write and detects the moment a file loses the last replica of
/// any of its blocks.  No data moves, so gigabyte volumes and replication
/// factors up to 64 stay cheap to simulate.
pub struct StegRandSpaceModel {
    total_blocks: u64,
    replication: usize,
    /// Owner of each physical block: (file id + 1, logical block) — 0 means
    /// "never written by a tracked file".
    owner: Vec<(u32, u32)>,
    /// survivors[file][logical] = number of replicas still intact.
    survivors: Vec<Vec<u32>>,
    rng: XorShiftRng,
}

/// Outcome of loading files until the first loss.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceModelOutcome {
    /// Number of files fully loaded without any loss.
    pub files_loaded: usize,
    /// Total unique bytes of those files.
    pub bytes_loaded: u64,
    /// Effective space utilization: unique bytes / volume capacity.
    pub utilization: f64,
}

impl StegRandSpaceModel {
    /// Create a model of a volume with `total_blocks` blocks of `block_size`
    /// bytes (the capacity is used only to report utilization).
    pub fn new(total_blocks: u64, replication: usize, seed: u64) -> Self {
        assert!(replication >= 1);
        StegRandSpaceModel {
            total_blocks,
            replication,
            owner: vec![(0, 0); total_blocks as usize],
            survivors: Vec::new(),
            rng: XorShiftRng::new(seed),
        }
    }

    /// Write one file of `blocks` logical blocks.  Returns `true` if every
    /// previously loaded file (and this one) still has at least one replica
    /// of every block, `false` at the first loss.
    pub fn load_file(&mut self, blocks: u32) -> bool {
        let file_id = self.survivors.len() as u32 + 1;
        self.survivors
            .push(vec![self.replication as u32; blocks as usize]);
        for logical in 0..blocks {
            for _replica in 0..self.replication {
                let addr = self.rng.next_below(self.total_blocks) as usize;
                let (prev_file, prev_logical) = self.owner[addr];
                if prev_file != 0 {
                    let count =
                        &mut self.survivors[(prev_file - 1) as usize][prev_logical as usize];
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        // A block of some file (possibly this one) just lost
                        // its last replica.
                        return false;
                    }
                }
                self.owner[addr] = (file_id, logical);
            }
        }
        true
    }

    /// Load files of `file_blocks()` blocks until the first loss, and report
    /// the effective utilization (the §5.2 procedure).
    pub fn run_until_loss(
        &mut self,
        block_size: u64,
        mut file_blocks: impl FnMut(&mut XorShiftRng) -> u32,
    ) -> SpaceModelOutcome {
        let capacity = self.total_blocks * block_size;
        let mut files_loaded = 0usize;
        let mut bytes_loaded = 0u64;
        loop {
            let blocks = file_blocks(&mut self.rng).max(1);
            if !self.load_file(blocks) {
                break;
            }
            files_loaded += 1;
            bytes_loaded += blocks as u64 * block_size;
            if bytes_loaded >= capacity {
                // Degenerate safeguard (cannot happen with replication >= 1
                // on non-trivial volumes).
                break;
            }
        }
        SpaceModelOutcome {
            files_loaded,
            bytes_loaded,
            utilization: bytes_loaded as f64 / capacity as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{MemBlockDevice, ObservedDevice};

    fn small_store(replication: usize) -> StegRand<MemBlockDevice> {
        StegRand::format(MemBlockDevice::new(1024, 8192), replication).unwrap()
    }

    #[test]
    fn store_load_roundtrip() {
        let mut s = small_store(4);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        s.store("notes", "pw", &data).unwrap();
        assert_eq!(s.load("notes", "pw", data.len()).unwrap(), data);
    }

    #[test]
    fn wrong_password_not_found() {
        let mut s = small_store(4);
        s.store("notes", "pw", b"secret").unwrap();
        assert!(matches!(
            s.load("notes", "wrong", 6),
            Err(BaselineError::NotFound(_))
        ));
    }

    #[test]
    fn empty_file_roundtrip() {
        let mut s = small_store(2);
        s.store("empty", "pw", b"").unwrap();
        assert_eq!(s.load("empty", "pw", 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn writes_issue_replication_times_the_ios() {
        let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
        let stats = dev.stats().clone();
        let mut s = StegRand::format(dev, 4).unwrap();
        stats.reset();
        // ~10 payload blocks of data.
        let payload = s.payload_per_block();
        s.store("f", "pw", &vec![1u8; payload * 10]).unwrap();
        assert_eq!(stats.summary().blocks_written, 40, "10 blocks x 4 replicas");
    }

    #[test]
    fn survives_partial_overwrite_fails_on_total_overwrite() {
        let mut s = small_store(3);
        let payload = s.payload_per_block();
        let data = vec![7u8; payload * 4];
        s.store("victim", "pw", &data).unwrap();

        // Clobber replicas 0 and 1 of logical block 2: still recoverable.
        let junk = vec![0u8; 1024];
        for replica in 0..2 {
            let addr = s.address("victim", "pw", 2, replica);
            s.device_mut().write_block(addr, &junk).unwrap();
        }
        assert_eq!(s.load("victim", "pw", data.len()).unwrap(), data);

        // Clobber the last replica too: data loss, reported as such.
        let addr = s.address("victim", "pw", 2, 2);
        s.device_mut().write_block(addr, &junk).unwrap();
        assert!(matches!(
            s.load("victim", "pw", data.len()),
            Err(BaselineError::DataLoss { lost_block: 2, .. })
        ));
    }

    #[test]
    fn colliding_files_can_corrupt_each_other() {
        // With replication 1 on a small volume, loading many files quickly
        // overwrites someone's only copy — the core weakness of the scheme.
        let mut s = StegRand::format(MemBlockDevice::new(1024, 512), 1).unwrap();
        let payload = s.payload_per_block();
        let per_file = payload * 16;
        let mut lost_any = false;
        for i in 0..24 {
            s.store(&format!("f{i}"), "pw", &vec![i as u8; per_file])
                .unwrap();
        }
        for i in 0..24 {
            match s.load(&format!("f{i}"), "pw", per_file) {
                Ok(data) => assert_eq!(data, vec![i as u8; per_file]),
                Err(BaselineError::DataLoss { .. }) | Err(BaselineError::NotFound(_)) => {
                    lost_any = true
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(lost_any, "overwriting must eventually destroy some file");
    }

    #[test]
    fn zero_replication_rejected() {
        assert!(StegRand::format(MemBlockDevice::new(1024, 64), 0).is_err());
        assert!(StegRand::open(MemBlockDevice::new(1024, 64), 0).is_err());
    }

    // ---- space model ----

    #[test]
    fn space_model_moderate_replication_beats_no_replication() {
        let run = |replication: usize| {
            let mut model = StegRandSpaceModel::new(65_536, replication, 7);
            model
                .run_until_loss(1024, |rng| rng.next_in_range(1024, 2048) as u32)
                .utilization
        };
        let r1 = run(1);
        let r8 = run(8);
        assert!(r8 > r1, "replication 8 ({r8:.4}) should beat 1 ({r1:.4})");
    }

    #[test]
    fn space_model_excessive_replication_hurts() {
        // Average a few seeds on a 1 GB volume so the comparison reflects the
        // trend rather than one lucky placement.
        let run = |replication: usize| -> f64 {
            let total: f64 = (0..3)
                .map(|seed| {
                    let mut model = StegRandSpaceModel::new(1 << 20, replication, 11 + seed);
                    model
                        .run_until_loss(1024, |rng| rng.next_in_range(1024, 2048) as u32)
                        .utilization
                })
                .sum();
            total / 3.0
        };
        let r8 = run(8);
        let r64 = run(64);
        assert!(
            r64 < r8,
            "replication 64 ({r64:.4}) should fall below 8 ({r8:.4})"
        );
    }

    #[test]
    fn space_model_utilization_stays_low() {
        // The headline result of §5.2: even at the sweet spot, utilization is
        // a few percent.
        for replication in [2usize, 8, 16] {
            let mut model = StegRandSpaceModel::new(262_144, replication, 3);
            let outcome = model.run_until_loss(1024, |rng| rng.next_in_range(1024, 2048) as u32);
            assert!(
                outcome.utilization < 0.25,
                "replication {replication}: utilization {:.3} is implausibly high",
                outcome.utilization
            );
            assert!(outcome.files_loaded >= 1);
            assert!(
                outcome.bytes_loaded > 0,
                "a loaded file must contribute bytes"
            );
        }
    }

    #[test]
    fn space_model_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = StegRandSpaceModel::new(32_768, 4, seed);
            m.run_until_loss(1024, |rng| rng.next_in_range(512, 1024) as u32)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
