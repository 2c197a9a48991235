//! Per-object durability policies: how a hidden object's logical bytes map
//! onto the physical blocks that store them.
//!
//! The paper's random-placement scheme survives *deletion pressure* (free
//! blocks being handed to plain files) but not *damage*: every hidden block
//! is unique, so one overwritten or bit-rotted extent kills the object.  The
//! Mnemosyne line of work (Hand & Roscoe, cited in §2 of the paper) names
//! the fix: disperse each object into `n` cipher-shares such that **any `m`
//! of them** reconstruct it — Rabin's Information Dispersal Algorithm,
//! implemented in [`stegfs_crypto::ida::Ida`] and run by the core write path.
//!
//! A [`Policy`] travels in the (encrypted, signature-checked) object header,
//! so every object picks its own durability/space trade-off:
//!
//! * [`Policy::Plain`] — one physical block per logical block, no
//!   redundancy.  The original layout and the wire-compatible default: its
//!   header tag is the byte that was previously reserved-as-zero.
//! * [`Policy::Replicate`] — `r` full copies of every logical block (the
//!   `m = 1` special case of IDA; expansion `r`).
//! * [`Policy::Disperse`] — `n` shares per group of `m` logical blocks, any
//!   `m` reconstruct (expansion `n / m` — Mnemosyne's space advantage over
//!   replication).
//!
//! **What it costs.**  One `GroupCodec` is built per operation and runs
//! the plane kernels of [`stegfs_crypto::ida`]: a group's `m`-byte tuples
//! are de-interleaved into `m` planes on the stack, and every share is `m`
//! contiguous multiply-accumulate passes over them — two `vpshufb` per 32
//! bytes where the CPU has AVX2, one table load and XOR per byte elsewhere
//! ([`stegfs_crypto::gf256`]); decoding is the same `m` passes per plane
//! and one interleave, straight between the batched block buffers and the
//! caller's buffer — nothing is allocated or solved per byte tuple, the
//! planes are wiped before the call returns, and the decode matrix is
//! inverted once per distinct subset of surviving shares.
//! An in-place patch decodes only the partially covered edge groups (see
//! `ObjectIo::encode_patch`); groups it covers completely are re-encoded
//! from the new bytes without reading a share, and a resize re-encodes
//! only the group it cuts.  With `m = 1` nothing runs the IDA: a share is
//! a copy of its block.  Shares are encoded straight into the mutation's
//! write plan (`WritePlan` in `hidden.rs`), beside the chain nodes and
//! header replicas it rewrites; the plan is encrypted in one call and
//! leaves in one batch, so redundancy adds blocks to that batch, not
//! device submissions.  What remains on top of a plain object is the keyed
//! check of every share read or written (one AES pass per 16 bytes, two
//! shares in flight on the VAES kernel — see `ShareCheck`), AES-CTR over
//! `n / m` times the bytes, and — under replicated metadata — the check
//! cascade from each patched chain node back to the header.
//!
//! **Why the share check is keyed.**  Shares are AES-CTR ciphertext, and
//! CTR is malleable: anyone with the raw device can XOR a chosen δ into a
//! share's plaintext by XORing δ into its ciphertext, without any key.  An
//! unkeyed check that is linear over XOR — a CRC, an XOR fold of the
//! share's 16-byte blocks — accepts every δ in its kernel, and such a δ is
//! easy to choose (the same δ at two block offsets cancels in a fold), so a
//! modified share would pass as good and poison its group's
//! reconstruction.  The check here is a PRF under a subkey that only the
//! holder of the access key derives, so the check of a modified share is
//! unpredictable to whoever modified it: the damage is caught, the group
//! decodes from its other shares, and the scavenger rewrites the share.
//!
//! **Deniability is unchanged.**  Shares are AES-CTR'd per block with the
//! object key exactly like plain hidden blocks, so on the raw device a
//! share extent is the same uniformly-random ciphertext as any other hidden
//! block, abandoned block, or random fill; the policy itself, the share
//! checks and the group structure all live inside ciphertext that only
//! the access key reveals.  The checks have the length the SHA-256 checks
//! of format v2 had, so no block and no field moved: v2 and v3 differ only
//! in plaintext inside object-key ciphertext.  Wrong key still reads as
//! never-existed.

use crate::crypt::ObjectKeys;
use crate::error::{StegError, StegResult};
use stegfs_crypto::check::{KeyedCheck, TAG_LEN};
use stegfs_crypto::ida::{Decoder, Ida};

/// Durability policy of one hidden object, carried in its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// One physical block per logical block; no redundancy (the original
    /// StegFS layout, and the on-disk default).
    #[default]
    Plain,
    /// `r` full copies of every logical block (expansion `r`).
    Replicate(u8),
    /// `n` shares per group of `m` logical blocks; any `m` shares
    /// reconstruct the group (expansion `n / m`).
    Disperse {
        /// Shares required for reconstruction.
        m: u8,
        /// Shares stored.
        n: u8,
    },
}

impl Policy {
    /// `(m, n)`: shares required / shares stored per group.  `Plain` is the
    /// degenerate `(1, 1)` code; `Replicate(r)` is `(1, r)`.
    pub fn shares(&self) -> (usize, usize) {
        match *self {
            Policy::Plain => (1, 1),
            Policy::Replicate(r) => (1, r as usize),
            Policy::Disperse { m, n } => (m as usize, n as usize),
        }
    }

    /// True for every policy whose inode-chain entries pair each share with
    /// its keyed check: the coded chain layout, which is an on-disk fact.
    /// `Plain`, the (1, 1) code, keeps the paper's layout, whose entries
    /// carry none.
    pub fn is_coded(&self) -> bool {
        !matches!(self, Policy::Plain)
    }

    /// Storage expansion factor `n / m`.
    pub fn expansion(&self) -> f64 {
        let (m, n) = self.shares();
        n as f64 / m as f64
    }

    /// Extra share losses the object survives per group (`n - m`).
    pub fn tolerated_losses(&self) -> usize {
        let (m, n) = self.shares();
        n - m
    }

    /// Copies kept of each *metadata* block (header, chain node):
    /// `n - m + 1`, so metadata survives the same per-group loss budget as
    /// the data it indexes, capped at
    /// [`MAX_META_COPIES`](crate::header::MAX_META_COPIES).  `Plain` keeps
    /// a single copy.
    pub fn meta_copies(&self) -> usize {
        let (m, n) = self.shares();
        (n - m + 1).min(crate::header::MAX_META_COPIES)
    }

    /// Reject degenerate parameters (`Replicate(0)`, `m = 0`, `m > n`).
    pub fn validate(&self) -> StegResult<()> {
        let (m, n) = self.shares();
        if m == 0 || n == 0 || m > n || n > 255 {
            return Err(StegError::InvalidParameter(format!(
                "durability policy requires 0 < m <= n <= 255, got m={m}, n={n}"
            )));
        }
        Ok(())
    }

    /// Header encoding: `(tag, m, n)`.  Tag 0 is `Plain` and occupies the
    /// byte that older headers wrote as reserved-zero, so pre-policy volumes
    /// parse unchanged.
    pub(crate) fn to_header_bytes(self) -> (u8, u8, u8) {
        match self {
            Policy::Plain => (0, 0, 0),
            Policy::Replicate(r) => (1, 1, r),
            Policy::Disperse { m, n } => (2, m, n),
        }
    }

    /// Inverse of [`to_header_bytes`](Self::to_header_bytes).  Returns
    /// `None` for unknown tags or implausible `(m, n)` — callers treat that
    /// the same as a signature mismatch.
    pub(crate) fn from_header_bytes(tag: u8, m: u8, n: u8) -> Option<Policy> {
        match tag {
            0 => Some(Policy::Plain),
            1 if m == 1 && n >= 1 => Some(Policy::Replicate(n)),
            2 if m >= 1 && n >= m => Some(Policy::Disperse { m, n }),
            _ => None,
        }
    }
}

/// The keyed share check of one object, expanded for one operation.
///
/// Every share and every replicated chain node carries an 8-byte check of
/// its plaintext: the first eight bytes of the keyed AES check
/// ([`stegfs_crypto::check`]) under a subkey of the object's master key,
/// with tweak zero.  It detects damaged shares before they poison a
/// reconstruction, and a modification made through the CTR ciphertext
/// without the key (see the module docs); an adversary never sees it.
///
/// `ObjectKeys` keeps only the 32-byte subkey, so the key cache stays small;
/// the AES schedule and offset table are built here, once per operation that
/// checks anything.
pub(crate) struct ShareCheck(KeyedCheck);

impl ShareCheck {
    /// The check of `keys`' object over `block_size`-byte shares.
    pub(crate) fn new(keys: &ObjectKeys, block_size: usize) -> Self {
        ShareCheck(KeyedCheck::new(keys.share_check_key(), block_size))
    }

    /// The check of one share or chain node.
    pub(crate) fn one(&self, share: &[u8]) -> u64 {
        checksum_of(&self.0.tag(&SHARE_TWEAK, share))
    }

    /// [`one`](Self::one) of every `block_size`-byte share of `shares`, in
    /// order, from one batched call: two shares in flight where the CPU has
    /// VAES.
    pub(crate) fn many(&self, shares: &[u8], block_size: usize) -> Vec<u64> {
        self.0
            .tags(shares.chunks_exact(block_size).map(|s| (s, SHARE_TWEAK)))
            .iter()
            .map(checksum_of)
            .collect()
    }
}

/// Shares and chain nodes have the check key to themselves: tweak zero.
const SHARE_TWEAK: [u8; TAG_LEN] = [0; TAG_LEN];

fn checksum_of(tag: &[u8; TAG_LEN]) -> u64 {
    u64::from_be_bytes(*tag.first_chunk().expect("8-byte prefix"))
}

/// The `(m, n)` codec of one operation over `block_size`-byte shares.
///
/// Built once per read, write or repair: it owns the encode matrix's
/// multipliers, and remembers the decode matrix of the share subset it last
/// reconstructed from — every undamaged group of an object decodes from the
/// same (primary) subset, so the matrix is inverted once per operation, not
/// once per group.  With `m = 1` the IDA's one row is `[1]`: every share is
/// a copy of the group's one block, so no byte goes through the IDA, and
/// with one share per group ([`Policy::Plain`], the (1, 1) code) the share
/// is the plaintext itself.
pub(crate) struct GroupCodec {
    /// The dispersal of an `m > 1` code; `None` when `m = 1`.
    ida: Option<Ida>,
    m: usize,
    n: usize,
    block_size: usize,
    decoder: Option<Decoder>,
}

impl GroupCodec {
    /// The codec of a (header-validated) policy's `(m, n)`.
    pub(crate) fn new(m: usize, n: usize, block_size: usize) -> Self {
        GroupCodec {
            ida: (m > 1).then(|| Ida::new(m, n).expect("validated policy")),
            m,
            n,
            block_size,
            decoder: None,
        }
    }

    /// Split one group's (up to) `m * block_size` plaintext bytes into its
    /// `n` shares of exactly `block_size` bytes each, back to back in
    /// `shares`; a short group is zero padded.  Deterministic: re-splitting
    /// the same plaintext reproduces the original shares byte for byte,
    /// which is what lets the scavenger rewrite a damaged share without
    /// touching the others.
    pub(crate) fn split_group(&self, group: &[u8], shares: &mut [u8]) {
        debug_assert_eq!(shares.len(), self.n * self.block_size);
        match &self.ida {
            Some(ida) => ida.split_into(group, shares),
            None => {
                for share in shares.chunks_exact_mut(self.block_size) {
                    share[..group.len()].copy_from_slice(group);
                    share[group.len()..].fill(0);
                }
            }
        }
    }

    /// Reconstruct one group's `m * block_size` plaintext bytes into `out`
    /// from at least `m` checksum-verified shares, borrowed as `(1-based
    /// share index, share bytes)`.
    pub(crate) fn reconstruct_group(
        &mut self,
        good: &[(u8, &[u8])],
        out: &mut [u8],
    ) -> StegResult<()> {
        let m = self.m;
        if good.len() < m {
            return Err(damage(format!(
                "share group has {} live shares, {m} required",
                good.len()
            )));
        }
        debug_assert_eq!(out.len(), m * self.block_size);
        let Some(ida) = &self.ida else {
            out.copy_from_slice(good[0].1);
            return Ok(());
        };
        let good = &good[..m];
        let indices = || good.iter().map(|(index, _)| *index);
        let cached = self.decoder.as_ref();
        if !cached.is_some_and(|d| d.indices().iter().copied().eq(indices())) {
            let decoder = ida.decoder(&indices().collect::<Vec<u8>>());
            self.decoder = Some(decoder.map_err(|e| damage(e.to_string()))?);
        }
        let shares: Vec<&[u8]> = good.iter().map(|(_, share)| *share).collect();
        self.decoder
            .as_ref()
            .expect("installed above")
            .reconstruct_into(&shares, out)
            .map_err(|e| damage(e.to_string()))
    }

    /// Encode `data` into `out`, the concatenated share stream of its
    /// groups: `groups * n` blocks of `block_size` bytes, group-major (group
    /// 0's shares 1..=n, then group 1's, ...), written in place — `out` is
    /// a slice of the caller's write plan.  Returns one checksum per share
    /// block under `check` (none without one).  The last group is zero
    /// padded.
    pub(crate) fn encode_groups(
        &self,
        data: &[u8],
        check: Option<&ShareCheck>,
        out: &mut [u8],
    ) -> Vec<u64> {
        let (m, n, bs) = (self.m, self.n, self.block_size);
        debug_assert_eq!(out.len(), data.len().div_ceil(m * bs) * n * bs);
        for (group, shares) in data.chunks(m * bs).zip(out.chunks_exact_mut(n * bs)) {
            self.split_group(group, shares);
        }
        check.map_or_else(Vec::new, |check| check.many(out, bs))
    }
}

/// The error family for unrecoverable damage: a clean failure, carrying no
/// partial plaintext.
pub(crate) fn damage(msg: String) -> StegError {
    StegError::Fs(stegfs_fs::FsError::Corrupt(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`GroupCodec::encode_groups`] of `data` into a buffer of its own.
    fn encode(codec: &GroupCodec, data: &[u8], check: &ShareCheck) -> (Vec<u8>, Vec<u64>) {
        let groups = data.len().div_ceil(codec.m * codec.block_size);
        let mut stream = vec![0u8; groups * codec.n * codec.block_size];
        let csums = codec.encode_groups(data, Some(check), &mut stream);
        (stream, csums)
    }

    #[test]
    fn policy_share_counts_and_expansion() {
        assert_eq!(Policy::Plain.shares(), (1, 1));
        assert_eq!(Policy::Replicate(3).shares(), (1, 3));
        assert_eq!(Policy::Disperse { m: 3, n: 5 }.shares(), (3, 5));
        assert!(!Policy::Plain.is_coded());
        assert!(Policy::Replicate(2).is_coded());
        assert_eq!(Policy::Replicate(3).expansion(), 3.0);
        assert_eq!(Policy::Disperse { m: 2, n: 4 }.tolerated_losses(), 2);
    }

    #[test]
    fn policy_validation() {
        assert!(Policy::Plain.validate().is_ok());
        assert!(Policy::Replicate(1).validate().is_ok());
        assert!(Policy::Disperse { m: 3, n: 3 }.validate().is_ok());
        assert!(Policy::Replicate(0).validate().is_err());
        assert!(Policy::Disperse { m: 0, n: 2 }.validate().is_err());
        assert!(Policy::Disperse { m: 4, n: 2 }.validate().is_err());
    }

    #[test]
    fn header_bytes_roundtrip() {
        for policy in [
            Policy::Plain,
            Policy::Replicate(2),
            Policy::Replicate(255),
            Policy::Disperse { m: 2, n: 4 },
            Policy::Disperse { m: 4, n: 4 },
        ] {
            let (tag, m, n) = policy.to_header_bytes();
            assert_eq!(Policy::from_header_bytes(tag, m, n), Some(policy));
        }
        // Unknown tags and implausible parameters are rejected.
        assert_eq!(Policy::from_header_bytes(3, 2, 4), None);
        assert_eq!(Policy::from_header_bytes(1, 2, 4), None);
        assert_eq!(Policy::from_header_bytes(2, 5, 4), None);
        assert_eq!(Policy::from_header_bytes(2, 0, 4), None);
    }

    #[test]
    fn encode_reconstruct_roundtrip() {
        let bs = 64;
        let (m, n) = (3, 5);
        let data: Vec<u8> = (0..bs * 7 + 13).map(|i| (i * 37 % 251) as u8).collect();
        let mut codec = GroupCodec::new(m, n, bs);
        let check = ShareCheck::new(&ObjectKeys::derive("roundtrip", b"fak"), bs);
        let (stream, csums) = encode(&codec, &data, &check);
        let groups = data.len().div_ceil(m * bs);
        assert_eq!(stream.len(), groups * n * bs);
        assert_eq!(csums.len(), groups * n);
        let mut decoded = vec![0u8; groups * m * bs];
        for (g, out) in decoded.chunks_exact_mut(m * bs).enumerate() {
            // Any m of the n shares reconstruct — alternate between the last
            // m and the first m, so the remembered decode matrix is replaced
            // whenever the subset changes.
            let first = if g % 2 == 0 { n - m } else { 0 };
            let good: Vec<(u8, &[u8])> = (first..first + m)
                .map(|j| {
                    let block = &stream[(g * n + j) * bs..(g * n + j + 1) * bs];
                    assert_eq!(csums[g * n + j], check.one(block));
                    ((j + 1) as u8, block)
                })
                .collect();
            codec.reconstruct_group(&good, out).unwrap();
        }
        decoded.truncate(data.len());
        assert_eq!(decoded, data);
    }

    #[test]
    fn batched_checksums_match_the_one_share_form() {
        let bs = 1024;
        let check = ShareCheck::new(&ObjectKeys::derive("batch", b"fak"), bs);
        let shares: Vec<u8> = (0..35 * bs).map(|i| (i * 31 % 253) as u8).collect();
        let one_by_one: Vec<u64> = shares.chunks_exact(bs).map(|s| check.one(s)).collect();
        assert_eq!(check.many(&shares, bs), one_by_one);
    }

    #[test]
    fn share_checks_are_keyed_per_object() {
        let bs = 1024;
        let share = vec![0x3cu8; bs];
        let a = ShareCheck::new(&ObjectKeys::derive("a", b"fak"), bs);
        let b = ShareCheck::new(&ObjectKeys::derive("b", b"fak"), bs);
        assert_ne!(a.one(&share), b.one(&share));
        // Pinned: the check bytes of every coded v3 object hang off the
        // subkey derivation and the construction not moving.
        assert_eq!(a.one(&share), 0x9692_1b54_f4b3_31d9);
    }

    /// Share checks run in batches (two shares side by side on the VAES
    /// kernel), so a damaged share at batch lanes 0, 15 and 16 — first of a
    /// pair, second of a pair, first of the pair after — must each be
    /// pinned on its own group.  A full read of a 2-of-3
    /// object checks primary share `k` (group `k / 2`, share `k % 2`) at
    /// lane `k`.  The object must read back byte-identical
    /// through the victim's fallback share, and only the victim's group may
    /// fall back: the damaged read fetches exactly one block more than a
    /// clean one.
    #[test]
    fn a_damaged_share_is_pinned_on_its_group_at_every_batch_lane() {
        use crate::header::ObjectKind;
        use crate::hidden::{ObjectIo, RepairOutcome};
        use crate::params::StegParams;
        use crate::readcache::ReadCache;
        use std::sync::atomic::Ordering;
        use stegfs_blockdev::{MemBlockDevice, ObservedDevice};
        use stegfs_crypto::prng::DeterministicRng;
        use stegfs_fs::{FormatOptions, PlainFs};

        let policy = Policy::Disperse { m: 2, n: 3 };
        let groups = 24;
        for lane in [0usize, 15, 16] {
            let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
            let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
            let bs = fs.block_size();
            let keys = ObjectKeys::derive("lanes", b"coded key");
            let params = StegParams::for_tests();
            let mut rng = DeterministicRng::new(b"coding-tests");
            let io = ObjectIo::new(&fs, &params, ReadCache::disabled(), &keys);
            let mut txn = fs.begin_txn();
            let mut obj = io
                .create(&mut txn, "lanes", ObjectKind::File, policy)
                .unwrap();
            let data: Vec<u8> = (0..groups * 2 * bs).map(|i| (i * 7 % 251) as u8).collect();
            io.write(&mut txn, &mut obj, &data, &mut rng).unwrap();
            txn.commit().unwrap();

            let blocks_read = || fs.device().stats().blocks_read.load(Ordering::Relaxed);
            let before = blocks_read();
            assert_eq!(io.read(&obj).unwrap(), data);
            let clean = blocks_read() - before;
            let (group, share) = (lane / 2, lane % 2);
            let neighbours = [group.saturating_sub(1), group, group + 1];
            let read_group = |g: usize| {
                let at = g * 2 * bs;
                let before = blocks_read();
                let got = io.read_range(&obj, at as u64, 2 * bs, 0).unwrap();
                assert_eq!(got, &data[at..at + 2 * bs]);
                blocks_read() - before
            };
            let clean_groups = neighbours.map(&read_group);

            let victim = io.share_extents(&obj).unwrap()[group][share];
            let mut txn = fs.begin_txn();
            txn.write_raw_block(victim, &vec![lane as u8 ^ 0x5a; bs])
                .unwrap();
            txn.commit().unwrap();

            let before = blocks_read();
            assert_eq!(io.read(&obj).unwrap(), data, "lane {lane}");
            assert_eq!(
                blocks_read() - before,
                clean + 1,
                "lane {lane}: only group {group} falls back"
            );
            for (g, clean) in neighbours.into_iter().zip(clean_groups) {
                assert_eq!(
                    read_group(g),
                    clean + u64::from(g == group),
                    "lane {lane}, group {g}: only the victim's group falls back"
                );
            }
            assert_eq!(
                io.repair(&obj).unwrap(),
                RepairOutcome::Repaired { shares_rebuilt: 1 },
                "lane {lane}"
            );
            assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 256) as u8).collect();
        let check = ShareCheck::new(&ObjectKeys::derive("determinism", b"fak"), 128);
        let a = encode(&GroupCodec::new(2, 4, 128), &data, &check);
        let b = encode(&GroupCodec::new(2, 4, 128), &data, &check);
        assert_eq!(a, b);
    }

    #[test]
    fn too_few_shares_fail_closed() {
        let bs = 32;
        let data = vec![0xabu8; bs * 2];
        let mut codec = GroupCodec::new(2, 3, bs);
        let check = ShareCheck::new(&ObjectKeys::derive("closed", b"fak"), bs);
        let (stream, _) = encode(&codec, &data, &check);
        let mut out = vec![0u8; 2 * bs];
        let err = codec
            .reconstruct_group(&[(1u8, &stream[..bs])], &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("live shares"));
        assert!(out.iter().all(|&b| b == 0), "no partial plaintext");
    }

    /// The `m = 1` codec copies instead of running the IDA; that is sound
    /// because the IDA's one row for `m = 1` is `[1]`, so its every share
    /// is the block itself.
    #[test]
    fn with_one_share_required_the_ida_copies_the_block() {
        let bs = 64;
        let data: Vec<u8> = (0..bs * 3 - 5).map(|i| (i * 29 % 251) as u8).collect();
        let check = ShareCheck::new(&ObjectKeys::derive("m1", b"fak"), bs);
        for n in 1..=4 {
            let ida = Ida::new(1, n).unwrap();
            let mut dispersed = vec![0u8; 3 * n * bs];
            for (group, shares) in data.chunks(bs).zip(dispersed.chunks_exact_mut(n * bs)) {
                ida.split_into(group, shares);
            }
            let (copied, csums) = encode(&GroupCodec::new(1, n, bs), &data, &check);
            assert_eq!(&copied[..], &dispersed[..], "(1, {n})");
            assert_eq!(csums, check.many(&dispersed, bs));
            for (i, share) in dispersed.chunks_exact(bs).enumerate() {
                let block = &data[i / n * bs..((i / n + 1) * bs).min(data.len())];
                assert_eq!(&share[..block.len()], block, "(1, {n}) share {i}");
            }
        }
    }

    #[test]
    fn replication_shares_are_full_copies() {
        let bs = 16;
        let data = vec![7u8; bs];
        let check = ShareCheck::new(&ObjectKeys::derive("copies", b"fak"), bs);
        let (stream, _) = encode(&GroupCodec::new(1, 3, bs), &data, &check);
        assert_eq!(stream.len(), 3 * bs);
        for j in 0..3 {
            assert_eq!(&stream[j * bs..(j + 1) * bs], &data[..]);
        }
    }
}
