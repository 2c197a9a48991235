//! On-disk slot format of the steganographic journal.
//!
//! The journal region is an array of *slots*, one device block each.  Every
//! slot — anchor, intent, commit, payload — is exactly one block and is
//! stored encrypted under the volume journal key, so a keyless inspector sees
//! only uniform high-entropy bytes, indistinguishable from the pseudorandom
//! fill the rest of the volume carries.  Records carry **no plain/hidden
//! tag** anywhere: an update to a hidden object's ciphertext blocks and an
//! update to plain metadata serialize to structurally identical records
//! (target block numbers plus block images), which is what keeps the journal
//! from becoming a side channel that attributes activity to hidden files.
//!
//! A transaction occupies a consecutive run of ring slots:
//!
//! ```text
//! intent(0..k0) payload*k0  intent(k0..k1) payload*(k1-k0) ... commit
//! ```
//!
//! * **intent** slots list target block numbers and a checksum of each
//!   payload image (several intents chain when the target list outgrows one
//!   slot);
//! * **payload** slots are raw target-block images with no header at all —
//!   their position and expected sequence number are derived from the intent
//!   in front of them, and their integrity from the intent's checksums;
//! * the **commit** slot terminates the run; a transaction replays only when
//!   every intent, every payload checksum and the commit validate.
//!
//! Sequence numbers are encrypted inside each structured slot (and bound
//! into every payload checksum), so replay can distinguish a current record
//! from a stale same-position record of an earlier ring generation without
//! exposing a plaintext counter on disk.
//!
//! # The checks (format v3)
//!
//! A structured slot's first [`CHECK_LEN`] bytes check the rest of its
//! plaintext, bound to the slot's absolute block number; an intent entry's
//! check covers one payload image, bound to the payload's sequence number.
//! Both are the keyed AES check of [`stegfs_crypto::check`] (one AES pass
//! per 16 bytes) under a subkey of the journal key, with a tweak carrying a
//! domain byte and the bound number.  Format v2 spent them on SHA-256; v3
//! keeps their length and position, so no slot layout moved.
//!
//! **What the key buys.**  Slots are AES-CTR ciphertext, and CTR is
//! malleable: XORing δ into a slot's ciphertext XORs δ into its plaintext.
//! An unkeyed check that is linear over XOR (a CRC, an XOR fold) would
//! accept every δ in its kernel, so bit flips chosen that way would replay
//! as a valid record.  Under a keyed PRF they fail the check like a torn
//! write.  The journal key is volume-public, though (see [`JournalKeys`]),
//! so against someone who derives it the check stops torn writes and random
//! damage, not forgery.
//!
//! **Deniability.**  The checks live inside journal-key ciphertext at their
//! v2 lengths, so a keyless inspector sees the same uniform slots as
//! before.  An inspector who derives the journal key learns nothing from
//! them either: a payload's check is a public function of the payload image
//! that sits beside it in the same ring, and the payload is object-key
//! ciphertext for a hidden update, just as it was under v2.

use stegfs_crypto::check::{tweak, KeyedCheck, TAG_LEN};
use stegfs_crypto::kdf::{derive_key, derive_subkey};
use stegfs_crypto::modes::{block_nonce, CtrCipher};

/// Magic bytes identifying a structured journal slot (after decryption).
pub const SLOT_MAGIC: [u8; 4] = *b"SJRN";

/// Number of anchor slots at the start of the journal region (ping-pong
/// pair: a torn anchor write can destroy at most one of them).
pub const ANCHOR_SLOTS: u64 = 2;

/// Bytes of the keyed integrity check in each structured slot and each
/// intent payload-checksum entry: a whole tag.
pub const CHECK_LEN: usize = TAG_LEN;

/// Byte offset where kind-specific content starts inside a structured slot.
pub const SLOT_BODY: usize = CHECK_LEN + 4 + 1 + 3 + 8 + 8; // check, magic, kind, pad, seq, txid

/// Bytes per intent entry: target block number plus payload image check.
pub const INTENT_ENTRY: usize = 8 + CHECK_LEN;

/// Fixed intent header past [`SLOT_BODY`]: total targets, first index,
/// entries in this slot.
pub const INTENT_FIXED: usize = 4 + 4 + 4;

/// The kind byte of a structured slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Declares (part of) a transaction's target list and payload checksums.
    Intent,
    /// Terminates a transaction; its presence (with every intent and payload
    /// validating) is what makes the transaction durable.
    Commit,
    /// Journal anchor: the durable tail sequence number.
    Anchor,
}

impl SlotKind {
    fn to_byte(self) -> u8 {
        match self {
            SlotKind::Intent => 1,
            SlotKind::Commit => 2,
            SlotKind::Anchor => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(SlotKind::Intent),
            2 => Some(SlotKind::Commit),
            3 => Some(SlotKind::Anchor),
            _ => None,
        }
    }
}

/// The derived key material of the journal region.
///
/// The key derives from a salt stored in the plain superblock, so it is
/// *volume-public*: anyone holding the raw device can derive it, exactly as
/// they can parse the bitmap.  What the encryption buys is uniformity: the
/// journal region never exhibits structure a snapshot read without the key
/// could diff.  It hides nothing from whoever derives the key.  Every intent
/// still in the ring, checkpointed or not, opens under it and lists its
/// transaction's target blocks.  Hidden-object payloads enter the journal as
/// object-key ciphertext, so the ring never holds hidden plaintext, but a
/// target list that names allocated blocks no plain object owns says which
/// of them were written recently.  No cover traffic masks this: the
/// dummy-file refresh has no production caller, so no dummy records churn.
/// The keyless block-owner map (`stegfs_core::blockmap`) decodes the ring
/// with this key and shows exactly that.
///
/// Like `ObjectKeys`, the key set holds only the **expanded** AES-CTR
/// schedule, and beside it the expanded check key: key expansion runs once
/// per mount in [`JournalKeys::derive`], not once per slot, the raw keys are
/// zeroed as soon as they are expanded, and the round keys and the check's
/// offsets are zeroed on drop.
pub struct JournalKeys {
    cipher: CtrCipher,
    check: KeyedCheck,
}

impl JournalKeys {
    /// Derive the journal key set from the volume's journal salt, for slots
    /// of `block_size` bytes.
    pub fn derive(salt: u64, block_size: usize) -> Self {
        let master = derive_key(&salt.to_be_bytes(), b"stegfs/journal", b"journal-region");
        let mut enc_key = derive_subkey(&master, b"journal-slot-encryption");
        let cipher = CtrCipher::new(&enc_key);
        stegfs_crypto::ct::zeroize(&mut enc_key);
        let mut check_key = derive_subkey(&master, b"journal-check");
        let check = KeyedCheck::new(&check_key, block_size);
        stegfs_crypto::ct::zeroize(&mut check_key);
        JournalKeys { cipher, check }
    }

    /// Encrypt or decrypt (CTR is an involution) a slot in place, with its
    /// absolute device block number as the CTR nonce
    /// ([`block_nonce`]: counter `j` is `abs_block ‖ j`).
    ///
    /// Slot reuse across ring generations reuses the slot's keystream, as
    /// rewriting a hidden-object block does: any nonce that is a fixed
    /// function of (key, block) repeats on exactly those rewrites.  The
    /// resulting multi-snapshot distinguishability is an accepted modelling
    /// assumption (a single seized image reveals nothing).  Distinct slots
    /// never share a counter block.
    pub fn apply(&self, abs_block: u64, data: &mut [u8]) {
        self.cipher.apply(&block_nonce(abs_block), data);
    }

    /// [`apply`](Self::apply) over a run of slots: `data` is
    /// `abs_blocks.len()` equal slots back to back, ciphered in one call.
    pub fn apply_many(&self, abs_blocks: &[u64], data: &mut [u8]) {
        self.cipher.apply_blocks(abs_blocks, data);
    }

    /// Integrity check of a payload image at sequence `seq`.  An intent's
    /// payloads go through [`payload_checks`](Self::payload_checks), which
    /// checks them side by side with the same result.
    pub fn payload_check(&self, image: &[u8], seq: u64) -> [u8; CHECK_LEN] {
        self.check.tag(&tweak(PAYLOAD_DOMAIN, seq), image)
    }

    /// [`payload_check`](Self::payload_check) of every image, the `i`-th at
    /// sequence `first_seq + i`, from one batched call.
    pub fn payload_checks<'a>(
        &self,
        first_seq: u64,
        images: impl Iterator<Item = &'a [u8]>,
    ) -> Vec<[u8; CHECK_LEN]> {
        self.check.tags(
            images
                .zip(first_seq..)
                .map(|(image, seq)| (image, tweak(PAYLOAD_DOMAIN, seq))),
        )
    }

    /// Integrity check of a structured slot's plaintext past the check
    /// field, bound to its absolute block number.
    fn slot_check(&self, abs_block: u64, body: &[u8]) -> [u8; CHECK_LEN] {
        self.check.tag(&tweak(SLOT_DOMAIN, abs_block), body)
    }
}

/// Tweak domains of the journal's checks: payload images, structured slots.
const PAYLOAD_DOMAIN: u8 = 1;
const SLOT_DOMAIN: u8 = 2;

/// A decoded structured slot.
#[derive(Debug, Clone)]
pub struct Slot {
    /// What the slot is.
    pub kind: SlotKind,
    /// Monotonic journal sequence number of the slot.
    pub seq: u64,
    /// First sequence number of the owning transaction (doubles as its id);
    /// for anchors, unused (zero).
    pub txid: u64,
    /// Kind-specific content.
    pub body: SlotBody,
}

/// Kind-specific decoded content of a [`Slot`].
#[derive(Debug, Clone)]
pub enum SlotBody {
    /// An intent slot's slice of the transaction's target list.
    Intent {
        /// Total number of target blocks in the transaction.
        n_targets: u32,
        /// Index (into the transaction's target list) of this slot's first
        /// entry.
        first_index: u32,
        /// `(target block, payload image check)` entries carried here.
        entries: Vec<(u64, [u8; CHECK_LEN])>,
    },
    /// A commit slot.
    Commit {
        /// Total number of target blocks, cross-checked against the intents.
        n_targets: u32,
        /// Total slots the transaction occupies (intents + payloads + 1).
        total_slots: u32,
    },
    /// An anchor slot.
    Anchor {
        /// Oldest sequence number that may still need replay; everything
        /// before it has been checkpointed and its slots may be reused.
        tail_seq: u64,
    },
}

/// Number of intent entries one slot of `block_size` bytes can carry.
pub fn intent_capacity(block_size: usize) -> usize {
    block_size.saturating_sub(SLOT_BODY + INTENT_FIXED) / INTENT_ENTRY
}

/// Total ring slots a transaction of `n_targets` target blocks occupies
/// (intents + payloads + commit).
pub fn slots_for(n_targets: usize, block_size: usize) -> u64 {
    let cap = intent_capacity(block_size).max(1);
    let intents = n_targets.div_ceil(cap).max(1);
    (n_targets + intents + 1) as u64
}

fn encode_common(buf: &mut [u8], kind: SlotKind, seq: u64, txid: u64) {
    buf[CHECK_LEN..CHECK_LEN + 4].copy_from_slice(&SLOT_MAGIC);
    buf[CHECK_LEN + 4] = kind.to_byte();
    buf[CHECK_LEN + 8..CHECK_LEN + 16].copy_from_slice(&seq.to_be_bytes());
    buf[CHECK_LEN + 16..CHECK_LEN + 24].copy_from_slice(&txid.to_be_bytes());
}

/// Serialize and encrypt a structured slot for absolute block `abs_block`
/// into `buf`, one block long, in place: [`encode_slot`], then the slot's
/// keystream.
pub fn seal_slot(keys: &JournalKeys, abs_block: u64, slot: &Slot, buf: &mut [u8]) {
    encode_slot(keys, abs_block, slot, buf);
    keys.apply(abs_block, buf);
}

/// Serialize a structured slot for absolute block `abs_block` into `buf`,
/// one block long, check included but not yet encrypted.  A run of slots
/// encoded side by side is encrypted with one [`JournalKeys::apply_many`],
/// to the bytes [`seal_slot`] gives each.
pub fn encode_slot(keys: &JournalKeys, abs_block: u64, slot: &Slot, buf: &mut [u8]) {
    buf.fill(0);
    encode_common(buf, slot.kind, slot.seq, slot.txid);
    let mut off = SLOT_BODY;
    match &slot.body {
        SlotBody::Intent {
            n_targets,
            first_index,
            entries,
        } => {
            buf[off..off + 4].copy_from_slice(&n_targets.to_be_bytes());
            buf[off + 4..off + 8].copy_from_slice(&first_index.to_be_bytes());
            buf[off + 8..off + 12].copy_from_slice(&(entries.len() as u32).to_be_bytes());
            off += INTENT_FIXED;
            for (target, check) in entries {
                buf[off..off + 8].copy_from_slice(&target.to_be_bytes());
                buf[off + 8..off + 8 + CHECK_LEN].copy_from_slice(check);
                off += INTENT_ENTRY;
            }
        }
        SlotBody::Commit {
            n_targets,
            total_slots,
        } => {
            buf[off..off + 4].copy_from_slice(&n_targets.to_be_bytes());
            buf[off + 4..off + 8].copy_from_slice(&total_slots.to_be_bytes());
        }
        SlotBody::Anchor { tail_seq } => {
            buf[off..off + 8].copy_from_slice(&tail_seq.to_be_bytes());
        }
    }
    let check = keys.slot_check(abs_block, &buf[CHECK_LEN..]);
    buf[..CHECK_LEN].copy_from_slice(&check);
}

/// Decrypt and decode the slot read from absolute block `abs_block`.
/// Returns `None` for anything that does not validate — random fill, torn
/// writes, payload slots — which replay treats as "not a record".
pub fn open_slot(keys: &JournalKeys, abs_block: u64, raw: &[u8]) -> Option<Slot> {
    if raw.len() < SLOT_BODY + INTENT_FIXED {
        return None;
    }
    let mut buf = raw.to_vec();
    keys.apply(abs_block, &mut buf);
    if buf[..CHECK_LEN] != keys.slot_check(abs_block, &buf[CHECK_LEN..]) {
        return None;
    }
    if buf[CHECK_LEN..CHECK_LEN + 4] != SLOT_MAGIC {
        return None;
    }
    let kind = SlotKind::from_byte(buf[CHECK_LEN + 4])?;
    let be64 = |b: &[u8]| u64::from_be_bytes(b.try_into().unwrap());
    let be32 = |b: &[u8]| u32::from_be_bytes(b.try_into().unwrap());
    let seq = be64(&buf[CHECK_LEN + 8..CHECK_LEN + 16]);
    let txid = be64(&buf[CHECK_LEN + 16..CHECK_LEN + 24]);
    let off = SLOT_BODY;
    let body = match kind {
        SlotKind::Intent => {
            let n_targets = be32(&buf[off..off + 4]);
            let first_index = be32(&buf[off + 4..off + 8]);
            let n_here = be32(&buf[off + 8..off + 12]) as usize;
            if n_here > intent_capacity(raw.len()) {
                return None;
            }
            let mut entries = Vec::with_capacity(n_here);
            let mut p = off + INTENT_FIXED;
            for _ in 0..n_here {
                let target = be64(&buf[p..p + 8]);
                let mut check = [0u8; CHECK_LEN];
                check.copy_from_slice(&buf[p + 8..p + 8 + CHECK_LEN]);
                entries.push((target, check));
                p += INTENT_ENTRY;
            }
            SlotBody::Intent {
                n_targets,
                first_index,
                entries,
            }
        }
        SlotKind::Commit => SlotBody::Commit {
            n_targets: be32(&buf[off..off + 4]),
            total_slots: be32(&buf[off + 4..off + 8]),
        },
        SlotKind::Anchor => SlotBody::Anchor {
            tail_seq: be64(&buf[off..off + 8]),
        },
    };
    Some(Slot {
        kind,
        seq,
        txid,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(keys: &JournalKeys, abs_block: u64, slot: &Slot, block_size: usize) -> Vec<u8> {
        let mut buf = vec![0xeeu8; block_size];
        seal_slot(keys, abs_block, slot, &mut buf);
        buf
    }

    #[test]
    fn slot_roundtrip_all_kinds() {
        let keys = JournalKeys::derive(0xfeed, 1024);
        for slot in [
            Slot {
                kind: SlotKind::Intent,
                seq: 7,
                txid: 7,
                body: SlotBody::Intent {
                    n_targets: 5,
                    first_index: 2,
                    entries: vec![(99, [1; CHECK_LEN]), (1234, [2; CHECK_LEN])],
                },
            },
            Slot {
                kind: SlotKind::Commit,
                seq: 12,
                txid: 7,
                body: SlotBody::Commit {
                    n_targets: 5,
                    total_slots: 7,
                },
            },
            Slot {
                kind: SlotKind::Anchor,
                seq: 40,
                txid: 0,
                body: SlotBody::Anchor { tail_seq: 33 },
            },
        ] {
            let sealed = sealed(&keys, 500, &slot, 1024);
            let opened = open_slot(&keys, 500, &sealed).expect("valid slot");
            assert_eq!(opened.kind, slot.kind);
            assert_eq!(opened.seq, slot.seq);
            assert_eq!(opened.txid, slot.txid);
            match (&opened.body, &slot.body) {
                (
                    SlotBody::Intent {
                        n_targets: a,
                        first_index: b,
                        entries: c,
                    },
                    SlotBody::Intent {
                        n_targets: x,
                        first_index: y,
                        entries: z,
                    },
                ) => {
                    assert_eq!((a, b, c), (x, y, z));
                }
                (
                    SlotBody::Commit {
                        n_targets: a,
                        total_slots: b,
                    },
                    SlotBody::Commit {
                        n_targets: x,
                        total_slots: y,
                    },
                ) => assert_eq!((a, b), (x, y)),
                (SlotBody::Anchor { tail_seq: a }, SlotBody::Anchor { tail_seq: x }) => {
                    assert_eq!(a, x)
                }
                other => panic!("kind mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn a_run_encoded_then_encrypted_once_is_sealed_slot_by_slot() {
        let keys = JournalKeys::derive(0xfeed, 1024);
        let intent = Slot {
            kind: SlotKind::Intent,
            seq: 7,
            txid: 7,
            body: SlotBody::Intent {
                n_targets: 1,
                first_index: 0,
                entries: vec![(99, [1; CHECK_LEN])],
            },
        };
        let commit = Slot {
            kind: SlotKind::Commit,
            seq: 9,
            txid: 7,
            body: SlotBody::Commit {
                n_targets: 1,
                total_slots: 3,
            },
        };
        let payload: Vec<u8> = (0..1024).map(|i| (i % 253) as u8).collect();
        let abs = [300u64, 301, 302];
        let mut run = vec![0xeeu8; 3 * 1024];
        let (intent_buf, rest) = run.split_at_mut(1024);
        let (payload_buf, commit_buf) = rest.split_at_mut(1024);
        encode_slot(&keys, abs[0], &intent, intent_buf);
        payload_buf.copy_from_slice(&payload);
        encode_slot(&keys, abs[2], &commit, commit_buf);
        keys.apply_many(&abs, &mut run);

        let mut sealed_payload = payload;
        keys.apply(abs[1], &mut sealed_payload);
        let want = [
            sealed(&keys, abs[0], &intent, 1024),
            sealed_payload,
            sealed(&keys, abs[2], &commit, 1024),
        ]
        .concat();
        assert_eq!(run, want);
    }

    #[test]
    fn wrong_position_or_torn_bytes_rejected() {
        let keys = JournalKeys::derive(1, 512);
        let slot = Slot {
            kind: SlotKind::Commit,
            seq: 3,
            txid: 1,
            body: SlotBody::Commit {
                n_targets: 1,
                total_slots: 3,
            },
        };
        let sealed = sealed(&keys, 10, &slot, 512);
        // Reading from the wrong position fails (nonce and check are bound
        // to the block number).
        assert!(open_slot(&keys, 11, &sealed).is_none());
        // A torn write fails.
        let mut torn = sealed.clone();
        torn[300] ^= 0x40;
        assert!(open_slot(&keys, 10, &torn).is_none());
        // Random fill fails.
        assert!(open_slot(&keys, 10, &[0xa5u8; 512]).is_none());
        // The wrong key fails.
        assert!(open_slot(&JournalKeys::derive(2, 512), 10, &sealed).is_none());
    }

    #[test]
    fn the_same_delta_at_two_offsets_is_caught() {
        // CTR lets anyone XOR a chosen δ into the plaintext through the
        // ciphertext; δ at two 16-byte offsets cancels in any XOR fold of
        // the slot's blocks, so only a keyed check catches it.
        let keys = JournalKeys::derive(3, 1024);
        let slot = Slot {
            kind: SlotKind::Commit,
            seq: 5,
            txid: 4,
            body: SlotBody::Commit {
                n_targets: 1,
                total_slots: 3,
            },
        };
        let mut sealed = sealed(&keys, 77, &slot, 1024);
        for at in [SLOT_BODY + 16, SLOT_BODY + 48] {
            for (b, d) in sealed[at..at + 16].iter_mut().zip(0x01u8..) {
                *b ^= d;
            }
        }
        assert!(open_slot(&keys, 77, &sealed).is_none());

        let image = vec![0x5au8; 1024];
        let mut moved = image.clone();
        for at in [0, 512] {
            moved[at] ^= 0x80;
        }
        assert_ne!(keys.payload_check(&moved, 9), keys.payload_check(&image, 9));
    }

    #[test]
    fn checks_match_the_recorded_values() {
        // Pinned: every v3 journal's slot and payload checks hang off the
        // check-key derivation, the domains and the construction.
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let keys = JournalKeys::derive(0x5eed, 1024);
        let image: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            hex(&keys.payload_check(&image, 42)),
            "24052d56ad7ec1536d117b13d522786b"
        );
        assert_eq!(
            hex(&keys.slot_check(600, &image[CHECK_LEN..])),
            "604ec1ae2b2cc8def39df034672e2898"
        );
    }

    #[test]
    fn sealed_slots_look_uniform() {
        // An all-zero commit slot must not leave recognizable structure.
        let keys = JournalKeys::derive(7, 4096);
        let slot = Slot {
            kind: SlotKind::Commit,
            seq: 1,
            txid: 1,
            body: SlotBody::Commit {
                n_targets: 0,
                total_slots: 1,
            },
        };
        let sealed = sealed(&keys, 42, &slot, 4096);
        let zeros = sealed.iter().filter(|&&b| b == 0).count();
        assert!(zeros < 64, "{zeros} zero bytes is too structured");
    }

    #[test]
    fn payload_checks_bind_seq_and_content() {
        let keys = JournalKeys::derive(9, 1024);
        let image = vec![0x5au8; 1024];
        let check = keys.payload_check(&image, 77);
        assert_eq!(keys.payload_check(&image, 77), check);
        assert_ne!(keys.payload_check(&image, 78), check);
        assert_ne!(keys.payload_check(&[0x5bu8; 1024], 77), check);
        let mut sealed = image.clone();
        keys.apply(100, &mut sealed);
        assert_ne!(sealed, image);
        keys.apply(100, &mut sealed);
        assert_eq!(sealed, image);
    }

    #[test]
    fn batched_checks_and_ciphers_match_the_single_slot_forms() {
        let keys = JournalKeys::derive(9, 1024);
        let images: Vec<u8> = (0..17 * 1024).map(|i| (i % 251) as u8).collect();
        let single: Vec<_> = images
            .chunks_exact(1024)
            .zip(40..)
            .map(|(image, seq)| keys.payload_check(image, seq))
            .collect();
        assert_eq!(keys.payload_checks(40, images.chunks_exact(1024)), single);

        let slots: Vec<u64> = (0..17).map(|i| 900 + (i * 7) % 17).collect();
        let mut want = images.clone();
        for (&abs, slot) in slots.iter().zip(want.chunks_exact_mut(1024)) {
            keys.apply(abs, slot);
        }
        let mut got = images.clone();
        keys.apply_many(&slots, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn one_key_expansion_per_mount_not_per_slot() {
        use stegfs_crypto::aes::Aes;
        let keys = JournalKeys::derive(0xabcd, 1024);
        let image = vec![0x3cu8; 1024];
        let mut run = image.repeat(256);
        // The counter is process-global and other tests expand keys
        // concurrently; noise only ever adds, so the quietest of several
        // windows is the journal's own count.  Per-slot expansion would make
        // every window read at least 512.  Five windows all caught noise
        // about one run in thirty.
        let min_delta = (0..20u64)
            .map(|round| {
                let slots: Vec<u64> = (0..256u64).map(|slot| round * 1000 + slot).collect();
                let before = Aes::key_expansions();
                keys.apply_many(&slots, &mut run);
                keys.apply_many(&slots, &mut run);
                let delta = Aes::key_expansions() - before;
                assert!(run.chunks_exact(1024).all(|slot| slot == image));
                delta
            })
            .min()
            .expect("twenty rounds");
        assert_eq!(
            min_delta, 0,
            "sealing and opening 256 slots re-expanded the journal key"
        );
    }

    #[test]
    fn capacity_and_slot_budget() {
        assert!(intent_capacity(128) >= 2);
        assert_eq!(slots_for(0, 1024), 2); // one (empty) intent + commit
        let cap = intent_capacity(1024);
        assert_eq!(slots_for(cap, 1024), cap as u64 + 2);
        assert_eq!(slots_for(cap + 1, 1024), cap as u64 + 1 + 2 + 1);
    }
}
