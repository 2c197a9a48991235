//! Key derivation and block encryption for hidden objects.
//!
//! Every block of a hidden object — header, inode-chain blocks and data
//! blocks — is encrypted under keys derived from the object's File Access Key
//! (FAK), so that on disk it is indistinguishable from the pseudorandom fill
//! written at format time and from abandoned blocks.
//!
//! Key schedule (all derivations are HMAC-SHA256 based, see
//! [`stegfs_crypto::kdf`]):
//!
//! ```text
//! master     = KDF(FAK, context = "stegfs/object", salt = physical name)
//! enc_key    = HMAC(master, "block-encryption")
//! sig        = HMAC(master, "signature")            // stored in the header
//! check_key  = HMAC(master, "share-check")          // keys the share checks
//! locator    = SHA-256(physical name ‖ 0 ‖ master)  // seeds the block locator
//! counter j  = physical block number ‖ j             // of each block, 8 + 8 bytes
//! ```
//!
//! Using the physical block number as the CTR nonce
//! ([`stegfs_crypto::modes::block_nonce`]) lets any block be decrypted in
//! isolation (the paper decrypts blocks "on-the-fly during retrieval") without
//! storing per-block nonces anywhere they could betray the file.  Under one
//! object key, distinct blocks get disjoint counter ranges; rewriting a
//! block repeats its keystream, the multi-snapshot exposure the reproduction
//! accepts for every deterministic per-block nonce (a single seized image
//! reveals nothing).  Only `enc_key`'s expanded schedule is kept: the nonce
//! needs no key, so the raw bytes are zeroed as soon as it is expanded.
//!
//! # What a derivation costs, and who pays it
//!
//! `KDF` is 1 000 PBKDF2-HMAC-SHA256 iterations — about 0.6 ms of pure
//! hashing (two compressions per iteration on HMAC midstates) — against the
//! few microseconds everything else here takes.  The paper's `steg_connect`
//! resolves an object's `(physical name, FAK)` once per session, and so does
//! the reproduction (a VFS session's connect or first open): [`ObjectKeys::derive`] has exactly one production
//! caller, the miss path of the session-scoped key cache
//! ([`crate::readcache::ReadCache::keys_for`], reached through
//! `StegFs::keys_for`).  Every other layer holds the resulting
//! `Arc<ObjectKeys>`.  A key set is zeroed when its last holder drops it.
//! (With the SHA-NI compression function a cold derivation is ≈ 0.15 ms.)
//!
//! # What a block costs
//!
//! [`ObjectKeys::encrypt_block`] is AES-CTR over the block and nothing else,
//! and `stegfs-crypto` picks the round functions at run time from what the
//! CPU reports.  The I/O paths move runs of blocks, and
//! [`ObjectKeys::encrypt_blocks`] ciphers a whole run in one call
//! (`CtrCipher::apply_blocks`): where the CPU has VAES, a 512-bit kernel
//! with two disk blocks in flight, otherwise the eight-lane AES-NI loop
//! block by block.  Measured on the reference host, per 16-byte cipher
//! block, and per 1 KiB disk block (64 of them):
//!
//! | path                                  | AES-CTR        | 1 KiB block |
//! |---------------------------------------|----------------|-------------|
//! | AES-NI, block by block                | 4 ns/block     | ≈ 0.25 µs   |
//! | VAES, a 64-block run                  | 1.2 ns/block   | ≈ 0.08 µs   |
//! | T-tables (portable)                   | 81–94 ns/block | ≈ 5.6 µs    |
//!
//! so a cold 64 KiB hidden read spends ≈ 5 µs in here on the VAES path
//! (≈ 16 µs on AES-NI) against ≈ 360 µs on the portable one, and the rest of a cold read (device
//! submissions, extent walk, cache inserts) is what the higher rungs of the
//! layer ladder now measure.  Every byte written is the same on both paths:
//! the choice changes how fast a block is produced, never its content, so a
//! volume moves freely between hosts.
//!
//! The two paths also differ in what they leak to a co-resident observer.
//! The T-table rounds index 4 KiB of lookup tables with bytes of the secret
//! cipher state, so which cache lines they touch depends on key and data —
//! the classic AES cache-timing channel.  The hardware rounds read no
//! secret-indexed memory at all.  (Key expansion uses the S-box on every
//! host; it runs once per key, not per block.)  StegFS's threat model is the
//! seized disk, not the shared cache, but the portable path should not be
//! mistaken for a constant-time cipher.

use stegfs_crypto::ct::zeroize;
use stegfs_crypto::kdf::{derive_key, derive_subkey};
use stegfs_crypto::modes::{block_nonce, CtrCipher};
use stegfs_crypto::sha256::DIGEST_LEN;

/// Length in bytes of a hidden-object signature.
pub const SIGNATURE_LEN: usize = 32;

/// The derived key material of one hidden object.
///
/// The block key is held only as its **expanded CTR key schedule**: AES key
/// expansion runs once in [`ObjectKeys::derive`], and
/// [`encrypt_block`](Self::encrypt_block) / [`decrypt_block`](Self::decrypt_block)
/// reuse the cached [`CtrCipher`] for every block.  Before this, each block
/// operation rebuilt the schedule from `enc_key`, so warm hidden reads paid
/// one key expansion *per block*; now they pay one per object (asserted by
/// the `one_key_expansion_per_object_not_per_block` test below).
///
/// The key of the share checks is kept as its 32 raw bytes and expanded at
/// most once per `ObjectIo` (`coding::ShareCheck`): the session key cache holds
/// one `ObjectKeys` per open object, and an expanded check key inline here
/// would grow each by over a kilobyte.
///
/// All key bytes (and the cipher's round keys) are zeroed on drop.
pub struct ObjectKeys {
    master: [u8; DIGEST_LEN],
    check_key: [u8; DIGEST_LEN],
    signature: [u8; SIGNATURE_LEN],
    cipher: CtrCipher,
}

impl Drop for ObjectKeys {
    fn drop(&mut self) {
        zeroize(&mut self.master);
        zeroize(&mut self.check_key);
        zeroize(&mut self.signature);
    }
}

impl ObjectKeys {
    /// Derive the key set for the object with the given physical name and
    /// file access key.  This is the expensive step (see the module docs);
    /// inside a mounted volume go through `StegFs::keys_for` instead.
    pub fn derive(physical_name: &str, fak: &[u8]) -> Self {
        let master = derive_key(fak, b"stegfs/object", physical_name.as_bytes());
        let mut enc_key = derive_subkey(&master, b"block-encryption");
        let cipher = CtrCipher::new(&enc_key);
        zeroize(&mut enc_key);
        let signature = derive_subkey(&master, b"signature");
        let check_key = derive_subkey(&master, b"share-check");
        ObjectKeys {
            master,
            check_key,
            signature,
            cipher,
        }
    }

    /// The signature stored in (and compared against) the object's header.
    pub fn signature(&self) -> &[u8; SIGNATURE_LEN] {
        &self.signature
    }

    /// The key of the object's share and chain-node checks.
    pub(crate) fn share_check_key(&self) -> &[u8; DIGEST_LEN] {
        &self.check_key
    }

    /// Seed material for the keyed block locator.
    pub fn locator_seed(&self) -> &[u8; DIGEST_LEN] {
        &self.master
    }

    /// Encrypt a block in place for storage at physical block `block_no`,
    /// reusing the key schedule expanded at derivation time.
    pub fn encrypt_block(&self, block_no: u64, data: &mut [u8]) {
        self.cipher.apply(&block_nonce(block_no), data);
    }

    /// Decrypt a block in place that was read from physical block `block_no`.
    /// (CTR mode: same operation as encryption.)
    pub fn decrypt_block(&self, block_no: u64, data: &mut [u8]) {
        self.encrypt_block(block_no, data);
    }

    /// [`encrypt_block`](Self::encrypt_block) over a run: `data` is
    /// `block_nos.len()` equal blocks back to back, bound for those physical
    /// blocks, ciphered in one call.
    pub fn encrypt_blocks(&self, block_nos: &[u64], data: &mut [u8]) {
        self.cipher.apply_blocks(block_nos, data);
    }

    /// [`decrypt_block`](Self::decrypt_block) over a run read from
    /// `block_nos` (CTR mode: the same operation as
    /// [`encrypt_blocks`](Self::encrypt_blocks)).
    pub fn decrypt_blocks(&self, block_nos: &[u64], data: &mut [u8]) {
        self.encrypt_blocks(block_nos, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_name_and_key_sensitive() {
        let a = ObjectKeys::derive("u1:/budget", b"fak-1");
        let a2 = ObjectKeys::derive("u1:/budget", b"fak-1");
        let b = ObjectKeys::derive("u1:/budget", b"fak-2");
        let c = ObjectKeys::derive("u2:/budget", b"fak-1");
        assert_eq!(a.signature(), a2.signature());
        assert_eq!(a.locator_seed(), a2.locator_seed());
        assert_ne!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert_ne!(a.locator_seed(), b.locator_seed());
    }

    #[test]
    fn derivation_matches_the_recorded_golden_values() {
        // Recorded from the commit before the midstate KDF: every signature
        // and locator seed on existing volumes depends on these not moving.
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let k = ObjectKeys::derive("u1:/budget", b"fak");
        assert_eq!(
            hex(k.signature()),
            "1f472ffb42cdf37dd6da22f630f05caeb5e36c91963ca43e3f6644c22356ec96"
        );
        assert_eq!(
            hex(k.locator_seed()),
            "dc5b56d30d1eb6a7042fa537c8b8c7d8e10a34299b18dbef45b86af9401a63bd"
        );
    }

    #[test]
    fn signature_differs_from_locator_seed_and_enc_key() {
        let k = ObjectKeys::derive("obj", b"fak");
        assert_ne!(k.signature(), k.locator_seed());
        let enc_key = derive_subkey(k.locator_seed(), b"block-encryption");
        assert_ne!(&enc_key, k.signature());
    }

    #[test]
    fn block_encryption_roundtrip_and_position_binding() {
        let k = ObjectKeys::derive("obj", b"fak");
        let original = vec![7u8; 1024];

        let mut at_5 = original.clone();
        k.encrypt_block(5, &mut at_5);
        assert_ne!(at_5, original);

        let mut at_6 = original.clone();
        k.encrypt_block(6, &mut at_6);
        assert_ne!(at_6, at_5, "same plaintext at different blocks must differ");

        k.decrypt_block(5, &mut at_5);
        assert_eq!(at_5, original);
    }

    #[test]
    fn run_encryption_matches_block_by_block() {
        let k = ObjectKeys::derive("obj", b"fak");
        let blocks: Vec<u64> = (0..21).map(|i| 3 + i * i).collect();
        let plain: Vec<u8> = (0..blocks.len() * 256).map(|i| (i % 253) as u8).collect();
        let mut want = plain.clone();
        for (&b, chunk) in blocks.iter().zip(want.chunks_exact_mut(256)) {
            k.encrypt_block(b, chunk);
        }
        let mut got = plain.clone();
        k.encrypt_blocks(&blocks, &mut got);
        assert_eq!(got, want);
        k.decrypt_blocks(&blocks, &mut got);
        assert_eq!(got, plain);
    }

    #[test]
    fn one_key_expansion_per_object_not_per_block() {
        // Micro-bench guard for the cached cipher schedule: deriving the key
        // set expands the AES key a bounded number of times (the CTR cipher,
        // plus whatever the KDF uses internally), and encrypting many blocks
        // afterwards expands it ZERO more times.  Other tests run in
        // parallel, so assert on deltas around operations that this thread
        // fully controls.
        let keys = ObjectKeys::derive("u1:/expansion-counter", b"fak");
        let mut block = vec![0xa5u8; 4096];
        // Warm up any lazily initialised state, then measure.
        keys.encrypt_block(0, &mut block);
        // The counter is process-global and other tests derive keys
        // concurrently, so any single window can pick up noise.  Noise only
        // ever *adds*, so take the minimum delta over several windows: with
        // per-block expansion every window would read >= 256; without it the
        // quietest window reads (near) zero.
        let min_delta = (0..5)
            .map(|round| {
                let before = stegfs_crypto::aes::Aes::key_expansions();
                for i in 1..=256u64 {
                    keys.encrypt_block(round * 1000 + i, &mut block);
                }
                stegfs_crypto::aes::Aes::key_expansions() - before
            })
            .min()
            .expect("five rounds");
        assert!(
            min_delta < 256,
            "block encryption re-expanded the key per block \
             ({min_delta} expansions for 256 blocks in the quietest window)"
        );
    }

    #[test]
    fn wrong_key_produces_garbage() {
        let k1 = ObjectKeys::derive("obj", b"fak-1");
        let k2 = ObjectKeys::derive("obj", b"fak-2");
        let mut data = b"top secret contents of the hidden file".to_vec();
        let original = data.clone();
        k1.encrypt_block(9, &mut data);
        k2.decrypt_block(9, &mut data);
        assert_ne!(data, original);
    }

    #[test]
    fn ciphertext_has_no_obvious_plaintext_bytes() {
        let k = ObjectKeys::derive("obj", b"fak");
        let mut data = vec![0u8; 4096];
        k.encrypt_block(0, &mut data);
        // An all-zero plaintext must not remain mostly zero.
        let zeros = data.iter().filter(|&&b| b == 0).count();
        assert!(zeros < 64, "only {zeros} zero bytes expected by chance");
    }
}
