//! The hidden-object header (Figure 2 of the paper).
//!
//! Each hidden file or directory is reached through a single *header block*
//! containing:
//!
//! * a **signature** that uniquely identifies the object (derived by one-way
//!   hashing from the physical name and access key, so the key cannot be
//!   recovered from it),
//! * a link to the **inode chain** that indexes all data blocks of the
//!   object,
//! * the **free-block pool**: a list of blocks held by the file but not yet
//!   carrying data, which defeats attackers who difference bitmap snapshots,
//! * the object's durability [`Policy`]: how many coded shares store each
//!   group of logical blocks ([`Policy::Plain`], tag 0, is the (1, 1)
//!   code: the data blocks are the logical blocks themselves), and
//! * the blocks holding the header's copies, and the chain head's extra
//!   copies with the check of its plaintext.
//!
//! The header is always encrypted before it reaches the device, so none of
//! these fields are visible to an observer.
//!
//! The serialised header occupies the beginning of one block and is padded
//! with zeros to the block size before encryption.  It fits the smallest
//! block size the paper considers (512 bytes).
//!
//! # The checks in the header and the chain (format v3)
//!
//! A coded object's header records the check of its head chain node
//! (`chain_csum`), each replicated chain node the check of its successor
//! (`next_csum`), and each coded chain entry the check of its share.  All
//! are the 8-byte keyed share check of [`crate::coding`]: the keyed AES
//! check of `stegfs_crypto::check` under a subkey of the object's master
//! key, in the eight bytes format v2 gave a SHA-256 prefix.
//!
//! The key matters because every one of these blocks is AES-CTR
//! ciphertext, which anyone can modify predictably: XORing δ into the
//! ciphertext XORs δ into the plaintext.  Against a check that is linear
//! over XOR, such as a CRC, the modifier could pick a δ the check does not
//! see and have a damaged node or share accepted.  Without the access key
//! the keyed check of the modified plaintext is unpredictable, so the
//! modification reads as damage, and the replicas and spare shares take
//! over.
//!
//! The checks add nothing an inspector can see.  They sit inside
//! object-key ciphertext at their v2 lengths and offsets, so the header and
//! chain blocks of v2 and v3 are the same uniform bytes to anyone without
//! the key, and a single-copy plain object's blocks carry no check at all.

use crate::coding::Policy;
use crate::crypt::SIGNATURE_LEN;
use crate::error::{StegError, StegResult};

/// Maximum number of entries in the in-header free-block pool.
/// `FB_max` (Table 1) must not exceed this.
pub const FREE_POOL_CAPACITY: usize = 16;

/// Sentinel for "no block".
pub const NO_BLOCK: u64 = u64::MAX;

/// Maximum metadata replica count (header copies / chain-node copies) any
/// policy may request.  Bounds the fixed on-disk replica tables.
pub const MAX_META_COPIES: usize = 8;

/// Serialised length of the pre-survivability header fields.
pub const BASE_HEADER_LEN: usize =
    SIGNATURE_LEN + 1 + 1 + 8 + 8 + 8 + 2 + FREE_POOL_CAPACITY * 8 + 2;

/// Serialised header length in bytes (excluding padding to the block size).
/// After the base fields come the metadata-survivability extension: the
/// header-replica table (count + [`MAX_META_COPIES`] slots; never empty,
/// since it lists the primary too), the extra chain-head replica table
/// (count + `MAX_META_COPIES - 1` slots), and the chain-head checksum.
pub const HEADER_LEN: usize =
    BASE_HEADER_LEN + 1 + MAX_META_COPIES * 8 + 1 + (MAX_META_COPIES - 1) * 8 + 8;

/// Whether a hidden object is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A regular hidden file.
    File,
    /// A hidden directory (its contents are a serialised
    /// [`crate::keys::UakDirectory`]-style listing of child objects).
    Directory,
}

impl ObjectKind {
    /// The single-character type code used by the paper's `steg_create`
    /// (`'f'` for files, `'d'` for directories).
    pub fn type_char(self) -> char {
        match self {
            ObjectKind::File => 'f',
            ObjectKind::Directory => 'd',
        }
    }

    /// Parse the paper's type code.
    pub fn from_type_char(c: char) -> StegResult<Self> {
        match c {
            'f' => Ok(ObjectKind::File),
            'd' => Ok(ObjectKind::Directory),
            other => Err(StegError::InvalidParameter(format!(
                "unknown object type '{other}' (expected 'f' or 'd')"
            ))),
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            ObjectKind::File => 1,
            ObjectKind::Directory => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(ObjectKind::File),
            2 => Some(ObjectKind::Directory),
            _ => None,
        }
    }
}

/// In-memory form of a hidden object's header block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiddenHeader {
    /// Signature identifying the object (compared against the value derived
    /// from the supplied name and key during lookup).
    pub signature: [u8; SIGNATURE_LEN],
    /// File or directory.
    pub kind: ObjectKind,
    /// Object size in bytes.
    pub size: u64,
    /// Number of data blocks currently assigned.
    pub data_block_count: u64,
    /// First block of the inode chain ([`NO_BLOCK`] when the object has no
    /// data blocks).
    pub inode_chain: u64,
    /// The internal pool of free blocks held by this object.
    pub free_pool: Vec<u64>,
    /// Durability policy: how [`data_block_count`](Self::data_block_count)
    /// physical blocks encode the object's logical bytes.
    pub policy: Policy,
    /// Every block carrying a copy of this header (the primary included),
    /// in locator candidate order.  A header that lists none does not
    /// parse.
    pub header_replicas: Vec<u64>,
    /// Extra replicas of the chain head beyond
    /// [`inode_chain`](Self::inode_chain).  Empty when the policy keeps a
    /// single metadata copy (or the object has no chain).
    pub chain_replicas: Vec<u64>,
    /// Checksum of the chain-head plaintext, used to validate a replica
    /// before trusting it.  Zero with one metadata copy and on chainless
    /// objects.
    pub chain_csum: u64,
}

impl HiddenHeader {
    /// A fresh header for an empty object.
    pub fn new(signature: [u8; SIGNATURE_LEN], kind: ObjectKind) -> Self {
        Self::with_policy(signature, kind, Policy::Plain)
    }

    /// A fresh header for an empty object with an explicit durability
    /// policy.
    pub fn with_policy(signature: [u8; SIGNATURE_LEN], kind: ObjectKind, policy: Policy) -> Self {
        HiddenHeader {
            signature,
            kind,
            size: 0,
            data_block_count: 0,
            inode_chain: NO_BLOCK,
            free_pool: Vec::new(),
            policy,
            header_replicas: Vec::new(),
            chain_replicas: Vec::new(),
            chain_csum: 0,
        }
    }

    /// Serialise into a buffer of exactly `block_size` bytes (zero padded).
    ///
    /// # Panics
    /// Panics if the free pool exceeds [`FREE_POOL_CAPACITY`] or the block
    /// size is too small for the header (both are internal invariants).
    pub fn serialize(&self, block_size: usize) -> Vec<u8> {
        assert!(
            self.free_pool.len() <= FREE_POOL_CAPACITY,
            "free pool overflows header capacity"
        );
        assert!(block_size >= HEADER_LEN, "block too small for header");
        let mut buf = vec![0u8; block_size];
        let mut off = 0;
        buf[off..off + SIGNATURE_LEN].copy_from_slice(&self.signature);
        off += SIGNATURE_LEN;
        let (policy_tag, policy_m, policy_n) = self.policy.to_header_bytes();
        buf[off] = self.kind.to_byte();
        off += 1;
        buf[off] = policy_tag; // 0 == Plain, the former reserved-flags byte
        off += 1;
        buf[off..off + 8].copy_from_slice(&self.size.to_be_bytes());
        off += 8;
        buf[off..off + 8].copy_from_slice(&self.data_block_count.to_be_bytes());
        off += 8;
        buf[off..off + 8].copy_from_slice(&self.inode_chain.to_be_bytes());
        off += 8;
        buf[off..off + 2].copy_from_slice(&(self.free_pool.len() as u16).to_be_bytes());
        off += 2;
        for i in 0..FREE_POOL_CAPACITY {
            let v = self.free_pool.get(i).copied().unwrap_or(NO_BLOCK);
            buf[off..off + 8].copy_from_slice(&v.to_be_bytes());
            off += 8;
        }
        buf[off] = policy_m;
        buf[off + 1] = policy_n;
        off += 2;
        debug_assert_eq!(off, BASE_HEADER_LEN);
        // Metadata-survivability extension.  Unused slots serialise as
        // zero.
        assert!(
            self.header_replicas.len() <= MAX_META_COPIES,
            "header replica table overflows capacity"
        );
        assert!(
            self.chain_replicas.len() < MAX_META_COPIES,
            "chain replica table overflows capacity"
        );
        buf[off] = self.header_replicas.len() as u8;
        off += 1;
        for i in 0..MAX_META_COPIES {
            let v = self.header_replicas.get(i).copied().unwrap_or(0);
            buf[off..off + 8].copy_from_slice(&v.to_be_bytes());
            off += 8;
        }
        buf[off] = self.chain_replicas.len() as u8;
        off += 1;
        for i in 0..MAX_META_COPIES - 1 {
            let v = self.chain_replicas.get(i).copied().unwrap_or(0);
            buf[off..off + 8].copy_from_slice(&v.to_be_bytes());
            off += 8;
        }
        buf[off..off + 8].copy_from_slice(&self.chain_csum.to_be_bytes());
        off += 8;
        debug_assert_eq!(off, HEADER_LEN);
        buf
    }

    /// Attempt to parse a decrypted block as a header whose signature equals
    /// `expected_signature`.  Returns `None` when the signature does not
    /// match or the structure is implausible — which is the common case while
    /// the locator walks candidate blocks that belong to other objects,
    /// abandoned blocks or random fill.
    pub fn parse_if_match(
        buf: &[u8],
        expected_signature: &[u8; SIGNATURE_LEN],
        total_blocks: u64,
    ) -> Option<Self> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        if !stegfs_crypto::ct::ct_eq(&buf[..SIGNATURE_LEN], expected_signature) {
            return None;
        }
        let mut off = SIGNATURE_LEN;
        let kind = ObjectKind::from_byte(buf[off])?;
        let policy_tag = buf[off + 1];
        off += 2;
        let get_u64 = |o: usize| u64::from_be_bytes(buf[o..o + 8].try_into().unwrap());
        let size = get_u64(off);
        off += 8;
        let data_block_count = get_u64(off);
        off += 8;
        let inode_chain = get_u64(off);
        off += 8;
        let pool_len = u16::from_be_bytes(buf[off..off + 2].try_into().unwrap()) as usize;
        off += 2;
        if pool_len > FREE_POOL_CAPACITY {
            return None;
        }
        let mut free_pool = Vec::with_capacity(pool_len);
        for i in 0..pool_len {
            let v = get_u64(off + i * 8);
            if v >= total_blocks {
                return None;
            }
            free_pool.push(v);
        }
        if inode_chain != NO_BLOCK && inode_chain >= total_blocks {
            return None;
        }
        let policy_mn_off = SIGNATURE_LEN + 2 + 8 + 8 + 8 + 2 + FREE_POOL_CAPACITY * 8;
        let policy =
            Policy::from_header_bytes(policy_tag, buf[policy_mn_off], buf[policy_mn_off + 1])?;
        // The physical block count must be a whole number of n-share
        // groups; anything else is as implausible as a bad pointer.
        let (_, n) = policy.shares();
        if data_block_count % n as u64 != 0 {
            return None;
        }
        // Metadata-survivability extension.  Every header lists the blocks
        // holding its copies, the primary among them.
        let ext = BASE_HEADER_LEN;
        let hr_len = buf[ext] as usize;
        if hr_len == 0 || hr_len > MAX_META_COPIES {
            return None;
        }
        let mut header_replicas = Vec::with_capacity(hr_len);
        for i in 0..hr_len {
            let v = get_u64(ext + 1 + i * 8);
            if v >= total_blocks {
                return None;
            }
            header_replicas.push(v);
        }
        let cr_off = ext + 1 + MAX_META_COPIES * 8;
        let cr_len = buf[cr_off] as usize;
        if cr_len >= MAX_META_COPIES {
            return None;
        }
        let mut chain_replicas = Vec::with_capacity(cr_len);
        for i in 0..cr_len {
            let v = get_u64(cr_off + 1 + i * 8);
            if v >= total_blocks {
                return None;
            }
            chain_replicas.push(v);
        }
        let chain_csum = get_u64(cr_off + 1 + (MAX_META_COPIES - 1) * 8);
        Some(HiddenHeader {
            signature: *expected_signature,
            kind,
            size,
            data_block_count,
            inode_chain,
            free_pool,
            policy,
            header_replicas,
            chain_replicas,
            chain_csum,
        })
    }
}

/// One block of the inode chain of a hidden object.
///
/// ```text
/// plain:      [next: u64][count: u16][pointer...]
/// coded:      [next: u64][count: u16][(pointer, checksum)...]
/// replicated: [next: u64][next extra × (copies-1)][next csum: u64]
///             [count: u16][entries...]
/// ```
///
/// The chain stores the object's data-block numbers in logical order — for
/// coded objects, share-block numbers in group-major order, each paired
/// with the 8-byte keyed check of its share plaintext so a damaged share is
/// detected before it poisons a reconstruction.  When the object's policy
/// keeps `copies > 1` metadata copies, every chain node is written to
/// `copies` blocks with identical plaintext, and the link to the next node
/// widens to all of its replicas plus a checksum so a damaged replica is
/// recognised and skipped.  A single-copy chain keeps the paper's byte
/// layout.  Like every other hidden block the chain is encrypted before
/// hitting the device, so the checksums (and the coded/plain distinction
/// itself) are invisible to an observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeChainBlock {
    /// Next block in the chain, or [`NO_BLOCK`].
    pub next: u64,
    /// Replicas of the next chain node beyond `next`.  Always exactly
    /// `copies - 1` long in the replicated layout ([`NO_BLOCK`]-filled at
    /// the tail), empty in the single-copy layouts.
    pub next_replicas: Vec<u64>,
    /// Checksum of the next node's plaintext in the replicated layout
    /// (0 at the tail and in the single-copy layouts).
    pub next_csum: u64,
    /// Data-block pointers stored in this chain block.
    pub pointers: Vec<u64>,
    /// Per-share checksums, parallel to `pointers`.  Empty for plain
    /// objects (their chain keeps the pre-policy byte layout).
    pub csums: Vec<u64>,
}

impl InodeChainBlock {
    /// A chain node with single-copy link fields, ready for the
    /// single-copy layouts.
    pub fn with_link(next: u64, pointers: Vec<u64>, csums: Vec<u64>) -> Self {
        InodeChainBlock {
            next,
            next_replicas: Vec::new(),
            next_csum: 0,
            pointers,
            csums,
        }
    }

    /// Bytes consumed by the link fields preceding the entry count.
    fn link_len(copies: usize) -> usize {
        if copies > 1 {
            8 + (copies - 1) * 8 + 8
        } else {
            8
        }
    }

    /// Number of pointers that fit into one chain block of `block_size`:
    /// 8 bytes per entry plain, 16 (pointer + checksum) coded.  When the
    /// policy keeps `copies > 1` metadata copies, replication widens the
    /// link prefix, shrinking the entry region.
    pub fn capacity(block_size: usize, coded: bool, copies: usize) -> usize {
        (block_size - Self::link_len(copies) - 2) / if coded { 16 } else { 8 }
    }

    /// Serialise into exactly `block_size` bytes, in the plain or coded
    /// layout, for a policy keeping `copies` metadata copies.
    /// `copies == 1` produces the single-copy layout.
    pub fn serialize(&self, block_size: usize, coded: bool, copies: usize) -> Vec<u8> {
        assert!(self.pointers.len() <= Self::capacity(block_size, coded, copies));
        if coded {
            assert_eq!(self.pointers.len(), self.csums.len());
        } else {
            assert!(self.csums.is_empty(), "plain chain carries no checksums");
        }
        assert_eq!(
            self.next_replicas.len(),
            copies.saturating_sub(1),
            "next-replica table must match the copy count"
        );
        let mut buf = vec![0u8; block_size];
        buf[0..8].copy_from_slice(&self.next.to_be_bytes());
        let mut off = 8;
        if copies > 1 {
            for &r in &self.next_replicas {
                buf[off..off + 8].copy_from_slice(&r.to_be_bytes());
                off += 8;
            }
            buf[off..off + 8].copy_from_slice(&self.next_csum.to_be_bytes());
            off += 8;
        }
        buf[off..off + 2].copy_from_slice(&(self.pointers.len() as u16).to_be_bytes());
        off += 2;
        let entry = if coded { 16 } else { 8 };
        for (i, &p) in self.pointers.iter().enumerate() {
            let e = off + i * entry;
            buf[e..e + 8].copy_from_slice(&p.to_be_bytes());
            if coded {
                buf[e + 8..e + 16].copy_from_slice(&self.csums[i].to_be_bytes());
            }
        }
        buf
    }

    /// Parse a decrypted chain block in the plain or coded layout, written
    /// for a policy keeping `copies` metadata copies.
    pub fn deserialize(
        buf: &[u8],
        total_blocks: u64,
        coded: bool,
        copies: usize,
    ) -> StegResult<Self> {
        let link = Self::link_len(copies);
        if buf.len() < link + 2 {
            return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                "inode chain block too short".into(),
            )));
        }
        let get_u64 = |o: usize| u64::from_be_bytes(buf[o..o + 8].try_into().unwrap());
        let next = get_u64(0);
        let mut next_replicas = Vec::new();
        let mut next_csum = 0;
        if copies > 1 {
            for i in 0..copies - 1 {
                let r = get_u64(8 + i * 8);
                if r != NO_BLOCK && r >= total_blocks {
                    return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                        "inode chain next replica outside volume".into(),
                    )));
                }
                next_replicas.push(r);
            }
            next_csum = get_u64(link - 8);
        }
        let count = u16::from_be_bytes(buf[link..link + 2].try_into().unwrap()) as usize;
        if count > Self::capacity(buf.len(), coded, copies) {
            return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                "inode chain count exceeds capacity".into(),
            )));
        }
        let entry = if coded { 16 } else { 8 };
        let mut pointers = Vec::with_capacity(count);
        let mut csums = Vec::with_capacity(if coded { count } else { 0 });
        for i in 0..count {
            let off = link + 2 + i * entry;
            let p = get_u64(off);
            if p >= total_blocks {
                return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(format!(
                    "inode chain pointer {p} outside volume"
                ))));
            }
            pointers.push(p);
            if coded {
                csums.push(get_u64(off + 8));
            }
        }
        if next != NO_BLOCK && next >= total_blocks {
            return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                "inode chain next pointer outside volume".into(),
            )));
        }
        Ok(InodeChainBlock {
            next,
            next_replicas,
            next_csum,
            pointers,
            csums,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(byte: u8) -> [u8; SIGNATURE_LEN] {
        [byte; SIGNATURE_LEN]
    }

    /// A fresh header whose one copy sits at block 1.
    fn header(byte: u8, kind: ObjectKind, policy: Policy) -> HiddenHeader {
        let mut h = HiddenHeader::with_policy(sig(byte), kind, policy);
        h.header_replicas = vec![1];
        h
    }

    #[test]
    fn header_fits_smallest_block_size() {
        const { assert!(HEADER_LEN <= 512) }
    }

    #[test]
    fn header_roundtrip() {
        let mut h = header(0xab, ObjectKind::File, Policy::Plain);
        h.size = 123_456;
        h.data_block_count = 121;
        h.inode_chain = 999;
        h.free_pool = vec![5, 6, 7];
        let buf = h.serialize(1024);
        assert_eq!(buf.len(), 1024);
        let parsed = HiddenHeader::parse_if_match(&buf, &sig(0xab), 100_000).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_empty_object_roundtrip() {
        let h = header(1, ObjectKind::Directory, Policy::Plain);
        let buf = h.serialize(512);
        let parsed = HiddenHeader::parse_if_match(&buf, &sig(1), 1000).unwrap();
        assert_eq!(parsed.kind, ObjectKind::Directory);
        assert_eq!(parsed.inode_chain, NO_BLOCK);
        assert!(parsed.free_pool.is_empty());
    }

    #[test]
    fn wrong_signature_rejected() {
        let h = header(2, ObjectKind::File, Policy::Plain);
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(3), 1000).is_none());
    }

    #[test]
    fn random_garbage_rejected() {
        // A block of pseudo-random bytes should never parse: the signature
        // check alone rejects it.
        let garbage: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        assert!(HiddenHeader::parse_if_match(&garbage, &sig(7), 1 << 20).is_none());
    }

    #[test]
    fn implausible_fields_rejected_even_with_matching_signature() {
        // Signature matches but pool pointers are outside the volume: reject.
        let mut h = header(9, ObjectKind::File, Policy::Plain);
        h.free_pool = vec![5_000];
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(9), 1_000).is_none());

        let mut h = header(9, ObjectKind::File, Policy::Plain);
        h.inode_chain = 10_000;
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(9), 1_000).is_none());
    }

    #[test]
    fn truncated_buffer_rejected() {
        let h = header(4, ObjectKind::File, Policy::Plain);
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf[..50], &sig(4), 1000).is_none());
    }

    #[test]
    #[should_panic(expected = "free pool overflows")]
    fn oversized_pool_panics_on_serialize() {
        let mut h = HiddenHeader::new(sig(5), ObjectKind::File);
        h.free_pool = vec![1; FREE_POOL_CAPACITY + 1];
        h.serialize(1024);
    }

    #[test]
    fn object_kind_type_chars() {
        assert_eq!(ObjectKind::File.type_char(), 'f');
        assert_eq!(ObjectKind::Directory.type_char(), 'd');
        assert_eq!(ObjectKind::from_type_char('f').unwrap(), ObjectKind::File);
        assert_eq!(
            ObjectKind::from_type_char('d').unwrap(),
            ObjectKind::Directory
        );
        assert!(ObjectKind::from_type_char('x').is_err());
    }

    #[test]
    fn inode_chain_roundtrip() {
        let cap = InodeChainBlock::capacity(1024, false, 1);
        assert_eq!(cap, (1024 - 10) / 8);
        let block = InodeChainBlock::with_link(77, (100..100 + cap as u64).collect(), vec![]);
        let buf = block.serialize(1024, false, 1);
        assert_eq!(
            InodeChainBlock::deserialize(&buf, 10_000, false, 1).unwrap(),
            block
        );
    }

    #[test]
    fn inode_chain_rejects_corruption() {
        let block = InodeChainBlock::with_link(NO_BLOCK, vec![5, 6], vec![]);
        let mut buf = block.serialize(512, false, 1);
        // Corrupt the count to something impossible.
        buf[8] = 0xff;
        buf[9] = 0xff;
        assert!(InodeChainBlock::deserialize(&buf, 10_000, false, 1).is_err());
        // Pointer outside the volume.
        let bad = InodeChainBlock::with_link(NO_BLOCK, vec![5_000], vec![]);
        let buf = bad.serialize(512, false, 1);
        assert!(InodeChainBlock::deserialize(&buf, 1_000, false, 1).is_err());
        // Next pointer outside the volume.
        let bad = InodeChainBlock::with_link(5_000, vec![], vec![]);
        let buf = bad.serialize(512, false, 1);
        assert!(InodeChainBlock::deserialize(&buf, 1_000, false, 1).is_err());
        assert!(InodeChainBlock::deserialize(&[0u8; 4], 1_000, false, 1).is_err());
    }

    #[test]
    fn header_policy_roundtrip() {
        for policy in [
            Policy::Replicate(3),
            Policy::Disperse { m: 2, n: 4 },
            Policy::Disperse { m: 3, n: 5 },
        ] {
            let mut h = header(0x21, ObjectKind::File, policy);
            let (_, n) = policy.shares();
            h.size = 4096;
            h.data_block_count = 4 * n as u64;
            let buf = h.serialize(1024);
            let parsed = HiddenHeader::parse_if_match(&buf, &sig(0x21), 100_000).unwrap();
            assert_eq!(parsed.policy, policy);
            assert_eq!(parsed, h);
        }
    }

    #[test]
    fn a_header_without_a_replica_table_does_not_parse() {
        // Every header lists the blocks holding its copies, the primary
        // among them; one that lists none is as implausible as a bad
        // pointer, whatever its policy.
        for policy in [Policy::Plain, Policy::Disperse { m: 2, n: 3 }] {
            let mut h = header(0x33, ObjectKind::File, policy);
            h.size = 99;
            let buf = h.serialize(512);
            assert!(HiddenHeader::parse_if_match(&buf, &sig(0x33), 1_000).is_some());
            h.header_replicas.clear();
            let buf = h.serialize(512);
            assert!(HiddenHeader::parse_if_match(&buf, &sig(0x33), 1_000).is_none());
        }
    }

    #[test]
    fn implausible_policy_rejected() {
        // Matching signature but a coded block count that is not a whole
        // number of share groups: reject, like any other implausible field.
        let mut h = header(0x44, ObjectKind::File, Policy::Disperse { m: 2, n: 4 });
        h.data_block_count = 7; // not a multiple of n = 4
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(0x44), 1_000).is_none());
        // Unknown policy tag.
        let h = header(0x45, ObjectKind::File, Policy::Plain);
        let mut buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(0x45), 1_000).is_some());
        buf[SIGNATURE_LEN + 1] = 9;
        assert!(HiddenHeader::parse_if_match(&buf, &sig(0x45), 1_000).is_none());
    }

    #[test]
    fn coded_chain_roundtrip_and_capacity() {
        let cap = InodeChainBlock::capacity(1024, true, 1);
        assert_eq!(cap, (1024 - 10) / 16);
        let block = InodeChainBlock::with_link(
            42,
            (200..200 + cap as u64).collect(),
            (900..900 + cap as u64).collect(),
        );
        let buf = block.serialize(1024, true, 1);
        assert_eq!(
            InodeChainBlock::deserialize(&buf, 10_000, true, 1).unwrap(),
            block
        );
        // Misreading the coded layout as plain interleaves checksums into
        // the pointer stream, which the pointer plausibility check catches.
        assert!(InodeChainBlock::deserialize(&buf, 250, false, 1).is_err());
    }

    #[test]
    fn header_replica_tables_roundtrip() {
        let mut h = header(0x51, ObjectKind::File, Policy::Disperse { m: 2, n: 4 });
        h.size = 1000;
        h.data_block_count = 8;
        h.inode_chain = 77;
        h.header_replicas = vec![301, 302, 303];
        h.chain_replicas = vec![78, 79];
        h.chain_csum = 0xdead_beef_0bad_f00d;
        let buf = h.serialize(512);
        let parsed = HiddenHeader::parse_if_match(&buf, &sig(0x51), 100_000).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn replica_pointers_outside_volume_rejected() {
        let mut h = header(0x52, ObjectKind::File, Policy::Plain);
        h.header_replicas = vec![5_000];
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(0x52), 1_000).is_none());

        let mut h = header(0x52, ObjectKind::File, Policy::Plain);
        h.header_replicas = vec![10];
        h.chain_replicas = vec![5_000];
        let buf = h.serialize(512);
        assert!(HiddenHeader::parse_if_match(&buf, &sig(0x52), 1_000).is_none());
    }

    #[test]
    fn replicated_chain_roundtrip_and_capacity() {
        let copies = 3;
        let cap = InodeChainBlock::capacity(1024, true, copies);
        assert_eq!(cap, (1024 - 8 - 2 * 8 - 8 - 2) / 16);
        // The replicated layout must cost capacity, not share it.
        assert!(cap < InodeChainBlock::capacity(1024, true, 1));
        let block = InodeChainBlock {
            next: 42,
            next_replicas: vec![43, 44],
            next_csum: 0x0123_4567_89ab_cdef,
            pointers: (200..200 + cap as u64).collect(),
            csums: (900..900 + cap as u64).collect(),
        };
        let buf = block.serialize(1024, true, copies);
        assert_eq!(
            InodeChainBlock::deserialize(&buf, 10_000, true, copies).unwrap(),
            block
        );
        // A tail node carries NO_BLOCK replicas and a zero checksum.
        let tail = InodeChainBlock {
            next: NO_BLOCK,
            next_replicas: vec![NO_BLOCK, NO_BLOCK],
            next_csum: 0,
            pointers: vec![9],
            csums: vec![1],
        };
        let buf = tail.serialize(512, true, copies);
        assert_eq!(
            InodeChainBlock::deserialize(&buf, 10_000, true, copies).unwrap(),
            tail
        );
        // Replica pointer outside the volume is corruption.
        let bad = InodeChainBlock {
            next: 5,
            next_replicas: vec![5_000, 6],
            next_csum: 1,
            pointers: vec![],
            csums: vec![],
        };
        let buf = bad.serialize(512, true, copies);
        assert!(InodeChainBlock::deserialize(&buf, 1_000, true, copies).is_err());
    }

    #[test]
    fn chain_capacity_matches_paper_workloads() {
        // A 2 MB file at 512-byte blocks needs 4096 pointers; with 62 per
        // chain block that is 67 chain blocks — perfectly feasible.
        let cap = InodeChainBlock::capacity(512, false, 1);
        assert!(cap >= 60);
        let chain_blocks_needed = 4096usize.div_ceil(cap);
        assert!(chain_blocks_needed < 100);
    }
}
