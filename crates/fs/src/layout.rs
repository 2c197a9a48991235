//! On-disk layout: the superblock and the derived region geometry.
//!
//! ```text
//! block 0            : superblock
//! blocks 1..B        : block bitmap (1 bit per block)
//! blocks B..I        : inode table ("central directory")
//! blocks I..J        : write-ahead journal (optional; zero-length when the
//!                      volume is formatted without durability)
//! blocks J..total    : data region (plain file data, directories, and —
//!                      invisible to this layer — hidden StegFS objects)
//! ```
//!
//! All integers are stored big-endian.  The superblock must fit in one block,
//! which it comfortably does for every block size the paper considers
//! (512 bytes to 64 KB).
//!
//! Version 2 added the journal region and the journal salt.  The salt seeds
//! the journal's slot-encryption key; it is volume-public by design (see
//! `stegfs_journal::record::JournalKeys` for why that does not weaken the
//! hiding property).
//!
//! Version 3 moved no block and no field: it replaced the SHA-256 checks of
//! coded shares, replicated chain nodes and journal slots and payloads with
//! a keyed AES check of the same length (`stegfs_crypto::check`).  Only
//! bytes inside ciphertext changed, but a v2 volume's checks would all fail,
//! and the share checks are keyed per object, so converting one would take
//! every user's key.  A v2 volume is refused at mount like any other
//! version.
//!
//! Version 4 moved no block and no field either: the CTR nonce of every
//! hidden-object block and journal slot is the block number itself
//! (`stegfs_crypto::modes::block_nonce`) instead of a SHA-256 of the block
//! key and the number.  Every hidden and journal ciphertext byte changed,
//! and hidden blocks are keyed per object, so a v3 volume is refused at
//! mount too.

use crate::error::{FsError, FsResult};

/// Magic number identifying a formatted volume ("STEGFSPL" in ASCII).
pub const MAGIC: u64 = 0x5354_4547_4653_504c;

/// On-disk format version understood by this implementation.
pub const VERSION: u32 = 4;

/// Size in bytes of a serialised inode.
pub const INODE_SIZE: usize = 128;

/// Geometry and configuration of a formatted volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total number of blocks in the volume.
    pub total_blocks: u64,
    /// First block of the bitmap region (always 1).
    pub bitmap_start: u64,
    /// Number of bitmap blocks.
    pub bitmap_blocks: u64,
    /// First block of the inode table.
    pub inode_table_start: u64,
    /// Number of inode-table blocks.
    pub inode_table_blocks: u64,
    /// Number of inodes in the table.
    pub inode_count: u64,
    /// First block of the write-ahead journal region (equals
    /// [`data_start`](Self::data_start) when the volume has no journal).
    pub journal_start: u64,
    /// Number of journal blocks (0 = no journal).
    pub journal_blocks: u64,
    /// Salt seeding the journal's slot-encryption key.
    pub journal_salt: u64,
    /// First block of the data region.
    pub data_start: u64,
    /// Inode number of the root directory.
    pub root_inode: u64,
}

impl Superblock {
    /// Compute the layout for a volume of `total_blocks` blocks of
    /// `block_size` bytes with room for `inode_count` inodes and a
    /// `journal_blocks`-block write-ahead journal (0 for none).
    ///
    /// Returns an error if the metadata would not leave any data blocks.
    pub fn compute(
        block_size: u32,
        total_blocks: u64,
        inode_count: u64,
        journal_blocks: u64,
    ) -> FsResult<Self> {
        if block_size < 128 || !block_size.is_power_of_two() {
            return Err(FsError::Corrupt(format!(
                "unsupported block size {block_size}"
            )));
        }
        if total_blocks < 8 {
            return Err(FsError::Corrupt("volume too small".into()));
        }
        if journal_blocks != 0 && journal_blocks < 8 {
            return Err(FsError::Corrupt(format!(
                "a journal of {journal_blocks} blocks is too small (minimum 8)"
            )));
        }
        let bits_per_block = block_size as u64 * 8;
        let bitmap_blocks = total_blocks.div_ceil(bits_per_block);
        let inodes_per_block = block_size as u64 / INODE_SIZE as u64;
        let inode_count = inode_count.max(16);
        let inode_table_blocks = inode_count.div_ceil(inodes_per_block);
        let journal_start = 1 + bitmap_blocks + inode_table_blocks;
        let data_start = journal_start + journal_blocks;
        if data_start + 1 >= total_blocks {
            return Err(FsError::Corrupt(
                "volume too small to hold metadata and data".into(),
            ));
        }
        Ok(Superblock {
            block_size,
            total_blocks,
            bitmap_start: 1,
            bitmap_blocks,
            inode_table_start: 1 + bitmap_blocks,
            inode_table_blocks,
            inode_count,
            journal_start,
            journal_blocks,
            journal_salt: 0,
            data_start,
            root_inode: 0,
        })
    }

    /// Number of inodes that fit in one block.
    pub fn inodes_per_block(&self) -> u64 {
        self.block_size as u64 / INODE_SIZE as u64
    }

    /// Number of blocks in the data region.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }

    /// True if `block` lies inside the data region.
    pub fn in_data_region(&self, block: u64) -> bool {
        block >= self.data_start && block < self.total_blocks
    }

    /// Serialise into a block-sized buffer.
    pub fn serialize(&self, block_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; block_size];
        let mut off = 0usize;
        let put_u64 = |buf: &mut [u8], off: &mut usize, v: u64| {
            buf[*off..*off + 8].copy_from_slice(&v.to_be_bytes());
            *off += 8;
        };
        put_u64(&mut buf, &mut off, MAGIC);
        buf[off..off + 4].copy_from_slice(&VERSION.to_be_bytes());
        off += 4;
        buf[off..off + 4].copy_from_slice(&self.block_size.to_be_bytes());
        off += 4;
        put_u64(&mut buf, &mut off, self.total_blocks);
        put_u64(&mut buf, &mut off, self.bitmap_start);
        put_u64(&mut buf, &mut off, self.bitmap_blocks);
        put_u64(&mut buf, &mut off, self.inode_table_start);
        put_u64(&mut buf, &mut off, self.inode_table_blocks);
        put_u64(&mut buf, &mut off, self.inode_count);
        put_u64(&mut buf, &mut off, self.data_start);
        put_u64(&mut buf, &mut off, self.root_inode);
        put_u64(&mut buf, &mut off, self.journal_start);
        put_u64(&mut buf, &mut off, self.journal_blocks);
        put_u64(&mut buf, &mut off, self.journal_salt);
        buf
    }

    /// Parse a superblock from block 0 of a volume.
    pub fn deserialize(buf: &[u8]) -> FsResult<Self> {
        if buf.len() < 108 {
            return Err(FsError::Corrupt("superblock buffer too small".into()));
        }
        let get_u64 = |off: usize| u64::from_be_bytes(buf[off..off + 8].try_into().unwrap());
        let magic = get_u64(0);
        if magic != MAGIC {
            return Err(FsError::Corrupt(format!(
                "bad magic 0x{magic:016x}, volume is not a StegFS plain file system"
            )));
        }
        let version = u32::from_be_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(FsError::Corrupt(format!(
                "unsupported on-disk version {version}"
            )));
        }
        let block_size = u32::from_be_bytes(buf[12..16].try_into().unwrap());
        let sb = Superblock {
            block_size,
            total_blocks: get_u64(16),
            bitmap_start: get_u64(24),
            bitmap_blocks: get_u64(32),
            inode_table_start: get_u64(40),
            inode_table_blocks: get_u64(48),
            inode_count: get_u64(56),
            data_start: get_u64(64),
            root_inode: get_u64(72),
            journal_start: get_u64(80),
            journal_blocks: get_u64(88),
            journal_salt: get_u64(96),
        };
        if sb.data_start >= sb.total_blocks {
            return Err(FsError::Corrupt("data region outside volume".into()));
        }
        let journal_end = sb
            .journal_start
            .checked_add(sb.journal_blocks)
            .ok_or_else(|| FsError::Corrupt("journal region overflows".into()))?;
        if journal_end > sb.data_start {
            return Err(FsError::Corrupt("journal region overlaps data".into()));
        }
        Ok(sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_layout_1gb_1kb() {
        // The paper's default: 1 GB volume with 1 KB blocks.
        let total = 1024 * 1024; // blocks
        let sb = Superblock::compute(1024, total, total / 16, 0).unwrap();
        // Bitmap: 1M blocks / 8192 bits per block = 128 blocks.
        assert_eq!(sb.bitmap_blocks, 128);
        assert_eq!(sb.inodes_per_block(), 8);
        assert_eq!(sb.inode_table_start, 129);
        assert_eq!(sb.data_start, 129 + sb.inode_table_blocks);
        assert!(sb.data_blocks() > total * 9 / 10, "metadata under 10%");
    }

    #[test]
    fn compute_layout_various_block_sizes() {
        // All block sizes the paper sweeps in Figure 9.
        for bs in [512u32, 1024, 2048, 4096, 8192, 16384, 32768, 65536] {
            let total_blocks = (64 * 1024 * 1024) / bs as u64; // 64 MB volume
            let sb = Superblock::compute(bs, total_blocks, 256, 0).unwrap();
            assert!(sb.data_start < sb.total_blocks);
            assert!(sb.in_data_region(sb.data_start));
            assert!(!sb.in_data_region(0));
            assert!(!sb.in_data_region(sb.total_blocks));
        }
    }

    #[test]
    fn journal_region_sits_between_itable_and_data() {
        let mut sb = Superblock::compute(1024, 8192, 256, 128).unwrap();
        sb.journal_salt = 0xdead_beef;
        assert_eq!(
            sb.journal_start,
            sb.inode_table_start + sb.inode_table_blocks
        );
        assert_eq!(sb.data_start, sb.journal_start + 128);
        assert!(!sb.in_data_region(sb.journal_start));
        assert!(!sb.in_data_region(sb.data_start - 1));
        let parsed = Superblock::deserialize(&sb.serialize(1024)).unwrap();
        assert_eq!(parsed, sb);
        // Journals below the minimum are rejected; 0 means none.
        assert!(Superblock::compute(1024, 8192, 256, 4).is_err());
        let none = Superblock::compute(1024, 8192, 256, 0).unwrap();
        assert_eq!(none.journal_start, none.data_start);
        assert_eq!(none.journal_blocks, 0);
    }

    #[test]
    fn serialization_roundtrip() {
        let sb = Superblock::compute(1024, 65536, 4096, 0).unwrap();
        let buf = sb.serialize(1024);
        assert_eq!(buf.len(), 1024);
        let parsed = Superblock::deserialize(&buf).unwrap();
        assert_eq!(parsed, sb);
    }

    #[test]
    fn deserialize_rejects_bad_magic() {
        let sb = Superblock::compute(1024, 65536, 4096, 0).unwrap();
        let mut buf = sb.serialize(1024);
        buf[0] ^= 0xff;
        let err = Superblock::deserialize(&buf).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn deserialize_rejects_bad_version() {
        let sb = Superblock::compute(1024, 65536, 4096, 0).unwrap();
        let mut buf = sb.serialize(1024);
        buf[11] = 99;
        assert!(Superblock::deserialize(&buf).is_err());
    }

    #[test]
    fn deserialize_rejects_truncated() {
        assert!(Superblock::deserialize(&[0u8; 10]).is_err());
    }

    #[test]
    fn rejects_unsupported_geometry() {
        assert!(Superblock::compute(100, 1024, 64, 0).is_err()); // not a power of two
        assert!(Superblock::compute(1024, 4, 64, 0).is_err()); // too small
        assert!(Superblock::compute(1024, 10, 1_000_000, 0).is_err()); // metadata larger than volume
    }

    #[test]
    fn inode_size_divides_block_sizes() {
        // The fixed 128-byte inode must pack an integer number of times into
        // every supported block size.
        for bs in [512u32, 1024, 2048, 4096, 8192, 16384, 32768, 65536] {
            assert_eq!(bs as usize % INODE_SIZE, 0);
        }
    }
}
