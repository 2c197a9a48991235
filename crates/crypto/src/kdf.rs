//! Key derivation from pass-phrases.
//!
//! The paper treats "access keys" (UAKs and FAKs) abstractly; in the Linux
//! implementation they are strings supplied by the user.  This module turns an
//! arbitrary-length pass-phrase plus a context label into fixed-length AES key
//! material using an iterated HMAC construction (PBKDF2-style with a single
//! block, which is all that is needed for a 32-byte output).
//!
//! The pass-phrase keys one [`HmacSha256`] whose midstates every iteration
//! reuses, so an iteration is exactly two SHA-256 compressions on the fixed
//! 32-byte message — the arithmetic (and every output bit) of RFC 8018
//! PBKDF2, at half the cost of re-keying HMAC per iteration.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default iteration count.  Kept modest because the experiments create
/// thousands of hidden files; the construction is the interesting part, not
/// the work factor.
pub const DEFAULT_ITERATIONS: u32 = 1_000;

/// Process-wide count of pass-phrase derivations (see [`derivations`]).
static DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// Number of [`derive_key_with_iterations`] calls made by this process so
/// far.  A derivation is the expensive, once-per-key part of opening a
/// hidden object; layers above are expected to derive once per session and
/// reuse the result.  Like `Aes::key_expansions`, this counter lets tests
/// assert that discipline on deltas.
pub fn derivations() -> u64 {
    DERIVATIONS.load(Ordering::Relaxed)
}

/// Derive a 32-byte key from `passphrase`, bound to `context` (for example
/// `"stegfs/fak"` or `"stegfs/uak-directory"`) and `salt`.
pub fn derive_key(passphrase: &[u8], context: &[u8], salt: &[u8]) -> [u8; DIGEST_LEN] {
    derive_key_with_iterations(passphrase, context, salt, DEFAULT_ITERATIONS)
}

/// Derive a 32-byte key with an explicit iteration count.
pub fn derive_key_with_iterations(
    passphrase: &[u8],
    context: &[u8],
    salt: &[u8],
    iterations: u32,
) -> [u8; DIGEST_LEN] {
    assert!(iterations > 0, "iteration count must be positive");
    DERIVATIONS.fetch_add(1, Ordering::Relaxed);
    pbkdf2(HmacSha256::new(passphrase), context, salt, iterations)
}

/// PBKDF2-HMAC-SHA256 with a single output block (block index 1), with the
/// context label folded into the salt: U1 = PRF(context ‖ 0 ‖ salt ‖ 1).
/// `keyed` is the PRF already keyed by the pass-phrase.
fn pbkdf2(keyed: HmacSha256, context: &[u8], salt: &[u8], iterations: u32) -> [u8; DIGEST_LEN] {
    let mut first = keyed.clone();
    first.update(context);
    first.update(&[0u8]);
    first.update(salt);
    first.update(&1u32.to_be_bytes());

    let mut u = first.finalize();
    let mut output = u;
    for _ in 1..iterations {
        u = keyed.mac_digest(&u);
        for i in 0..DIGEST_LEN {
            output[i] ^= u[i];
        }
    }
    output
}

/// Derive a sub-key from an existing 32-byte key and a purpose label, e.g.
/// separating the encryption key of a hidden file from its signature key.
pub fn derive_subkey(master: &[u8; DIGEST_LEN], purpose: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(master, purpose)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256_oracle;
    use proptest::prelude::*;

    /// PBKDF2 written directly against the four-compression HMAC oracle: the
    /// pre-midstate loop, kept as the reference.
    fn derive_oracle(passphrase: &[u8], context: &[u8], salt: &[u8], iterations: u32) -> [u8; 32] {
        let salted = [context, &[0u8], salt, &1u32.to_be_bytes()].concat();
        let mut u = hmac_sha256_oracle(passphrase, &salted);
        let mut output = u;
        for _ in 1..iterations {
            u = hmac_sha256_oracle(passphrase, &u);
            for i in 0..DIGEST_LEN {
                output[i] ^= u[i];
            }
        }
        output
    }

    #[test]
    fn pbkdf2_hmac_sha256_known_answer() {
        // The published PBKDF2-HMAC-SHA256 vector P = "pass\0word",
        // S = "sa\0lt", c = 4096, dkLen = 16; the context/salt split puts
        // the NUL exactly where this module's separator goes.
        let hex =
            |out: [u8; 32]| -> String { out[..16].iter().map(|b| format!("{b:02x}")).collect() };
        let out = derive_key_with_iterations(b"pass\0word", b"sa", b"lt", 4096);
        assert_eq!(hex(out), "89b69d0516f829893c696226650a8687");
        // And over the scalar SHA-256, whatever this host's default is.
        let out = pbkdf2(HmacSha256::portable(b"pass\0word"), b"sa", b"lt", 4096);
        assert_eq!(hex(out), "89b69d0516f829893c696226650a8687");
    }

    #[test]
    fn object_key_schedule_matches_the_recorded_golden_values_on_both_back_ends() {
        // The hidden-object key schedule of `stegfs-core` (`crypt.rs`:
        // master = KDF(FAK, "stegfs/object", physical name), signature =
        // HMAC(master, "signature"), locator seed = master) with the golden
        // values that file pins, spelled out here so that both compression
        // functions are held to them: every signature and locator seed on
        // existing volumes depends on these not moving.
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let context = b"stegfs/object";
        let hw_master = derive_key(b"fak", context, b"u1:/budget");
        let hw_signature = derive_subkey(&hw_master, b"signature");
        let master = pbkdf2(
            HmacSha256::portable(b"fak"),
            context,
            b"u1:/budget",
            DEFAULT_ITERATIONS,
        );
        let mut mac = HmacSha256::portable(&master);
        mac.update(b"signature");
        let signature = mac.finalize();
        for (master, signature) in [(hw_master, hw_signature), (master, signature)] {
            assert_eq!(
                hex(&signature),
                "1f472ffb42cdf37dd6da22f630f05caeb5e36c91963ca43e3f6644c22356ec96"
            );
            assert_eq!(
                hex(&master),
                "dc5b56d30d1eb6a7042fa537c8b8c7d8e10a34299b18dbef45b86af9401a63bd"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn midstate_pbkdf2_matches_oracle(
            passphrase in proptest::collection::vec(any::<u8>(), 0..200),
            context in proptest::collection::vec(any::<u8>(), 0..40),
            salt in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            for iterations in [1u32, 2, 3, 1000] {
                prop_assert_eq!(
                    derive_key_with_iterations(&passphrase, &context, &salt, iterations),
                    derive_oracle(&passphrase, &context, &salt, iterations)
                );
            }
        }
    }

    #[test]
    fn derivation_counter_counts_calls() {
        // Other tests derive concurrently, so assert a lower bound only.
        let before = derivations();
        derive_key(b"p", b"c", b"s");
        derive_key_with_iterations(b"p", b"c", b"s", 2);
        assert!(derivations() - before >= 2);
    }

    #[test]
    fn deterministic() {
        let a = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        let b = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        assert_eq!(a, b);
    }

    #[test]
    fn passphrase_context_salt_all_matter() {
        let base = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        assert_ne!(base, derive_key(b"hunter3", b"stegfs/fak", b"salt"));
        assert_ne!(base, derive_key(b"hunter2", b"stegfs/uak", b"salt"));
        assert_ne!(base, derive_key(b"hunter2", b"stegfs/fak", b"pepper"));
    }

    #[test]
    fn iterations_change_output() {
        let a = derive_key_with_iterations(b"p", b"c", b"s", 1);
        let b = derive_key_with_iterations(b"p", b"c", b"s", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn pbkdf2_single_iteration_matches_hmac_definition() {
        // With one iteration the output is exactly HMAC(pass, context||0||salt||be32(1)).
        let out = derive_key_with_iterations(b"pw", b"ctx", b"salt", 1);
        let mut msg = Vec::new();
        msg.extend_from_slice(b"ctx");
        msg.push(0);
        msg.extend_from_slice(b"salt");
        msg.extend_from_slice(&1u32.to_be_bytes());
        assert_eq!(out, crate::hmac::hmac_sha256(b"pw", &msg));
    }

    #[test]
    fn subkeys_are_domain_separated() {
        let master = derive_key(b"pw", b"ctx", b"salt");
        let enc = derive_subkey(&master, b"encrypt");
        let sig = derive_subkey(&master, b"signature");
        assert_ne!(enc, sig);
        assert_ne!(enc, master);
    }

    #[test]
    #[should_panic(expected = "iteration count must be positive")]
    fn zero_iterations_rejected() {
        derive_key_with_iterations(b"p", b"c", b"s", 0);
    }
}
