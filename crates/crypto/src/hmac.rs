//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! StegFS uses HMAC in two supporting roles: authenticating backup images so
//! that a corrupted restore is detected rather than silently applied, and as
//! the pseudorandom function inside the key-derivation routine in [`crate::kdf`].
//!
//! [`HmacSha256`] keeps the two SHA-256 *midstates* — the hash states after
//! absorbing `key ^ ipad` and `key ^ opad`.  Keying costs two compressions
//! once; the keyed instance then MACs a short message in two more (one
//! inner, one outer) instead of four, which is what lets PBKDF2's thousand
//! iterations under one pass-phrase run at half the cost.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hmac = HmacSha256::new(key);
    hmac.update(message);
    hmac.finalize()
}

/// Incremental HMAC-SHA256.  `Clone` copies the keyed midstates, so one
/// keyed instance can authenticate many messages; the states are wiped on
/// drop (they are as secret as the key).
#[derive(Clone)]
pub struct HmacSha256 {
    /// State after absorbing `key ^ ipad`, plus any message bytes so far.
    inner: Sha256,
    /// State after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacSha256 {
    /// Start a new MAC computation keyed by `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::new())
    }

    /// [`HmacSha256::new`] over the scalar SHA-256 whatever the CPU offers:
    /// the oracle side of the hardware-equivalence tests.
    #[cfg(test)]
    pub(crate) fn portable(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::portable())
    }

    /// Key a MAC whose three hash computations all start from `fresh`.
    fn keyed(key: &[u8], fresh: Sha256) -> Self {
        let mut pad = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut hashed_key = fresh.clone();
            hashed_key.update(key);
            pad[..DIGEST_LEN].copy_from_slice(&hashed_key.finalize());
        } else {
            pad[..key.len()].copy_from_slice(key);
        }

        // `pad` holds the zero-extended key; turn it into ipad, then opad.
        pad.iter_mut().for_each(|b| *b ^= 0x36);
        let mut inner = fresh.clone();
        inner.update(&pad);
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let mut outer = fresh;
        outer.update(&pad);
        crate::ct::zeroize(&mut pad);
        HmacSha256 { inner, outer }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, message: &[u8]) {
        self.inner.update(message);
    }

    /// Tag of the digest-sized message `msg` under this key, leaving the
    /// keyed instance untouched: exactly two compressions with no state
    /// copies — the PBKDF2 inner loop.
    ///
    /// # Panics
    /// Panics if message bytes were already absorbed with [`Self::update`].
    pub fn mac_digest(&self, msg: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        self.outer
            .digest_with_tail(&self.inner.digest_with_tail(msg))
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // `take` leaves fresh unkeyed states behind for `drop` to wipe.
        let inner_digest = std::mem::take(&mut self.inner).finalize();
        let mut outer = std::mem::take(&mut self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

impl Drop for HmacSha256 {
    fn drop(&mut self) {
        self.inner.wipe();
        self.outer.wipe();
    }
}

/// The textbook four-compression HMAC, rebuilt from the key on every call
/// with no midstate reuse: the oracle the midstate code is tested against
/// (here and in [`crate::kdf`]).
#[cfg(test)]
pub(crate) fn hmac_sha256_oracle(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..DIGEST_LEN].copy_from_slice(&crate::sha256::sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let ipad = key_block.map(|b| b ^ 0x36);
    let opad = key_block.map(|b| b ^ 0x5c);
    let inner = crate::sha256::sha256_concat(&[&ipad, message]);
    crate::sha256::sha256_concat(&[&opad, &inner])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known-answer check over both SHA-256 compression functions: the one
    /// this host's [`HmacSha256::new`] picks, and the scalar one.
    fn known_answer(key: &[u8], msg: &[u8], tag: &str) {
        assert_eq!(hex(&hmac_sha256(key, msg)), tag);
        let mut scalar = HmacSha256::portable(key);
        scalar.update(msg);
        assert_eq!(hex(&scalar.finalize()), tag);
    }

    // Test vectors from RFC 4231.
    #[test]
    fn rfc4231_case_1() {
        known_answer(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        known_answer(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        known_answer(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        known_answer(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        known_answer(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"backup-auth-key";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 251) as u8).collect();
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &msg));
    }

    #[test]
    fn keyed_instance_macs_many_messages() {
        let key = b"one key, many messages";
        let keyed = HmacSha256::new(key);
        for msg in [&b""[..], b"a", &[0x5a; 64], &[0xa5; 200]] {
            let mut mac = keyed.clone();
            mac.update(msg);
            assert_eq!(mac.finalize(), hmac_sha256_oracle(key, msg));
        }
        for fill in [0u8, 0x5a, 0xff] {
            let msg = [fill; DIGEST_LEN];
            assert_eq!(keyed.mac_digest(&msg), hmac_sha256_oracle(key, &msg));
        }
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn mac_digest_rejects_a_partially_fed_instance() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"already absorbing");
        mac.mac_digest(&[0u8; DIGEST_LEN]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Midstate HMAC equals the four-compression oracle for keys on both
        /// sides of the 64-byte hash-the-key boundary and messages on both
        /// sides of the block boundaries.
        #[test]
        fn midstate_matches_four_compression_oracle(
            key in proptest::collection::vec(any::<u8>(), 0..200),
            msg in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            prop_assert_eq!(hmac_sha256(&key, &msg), hmac_sha256_oracle(&key, &msg));
            let digest = hmac_sha256_oracle(&msg, &key);
            prop_assert_eq!(
                HmacSha256::new(&key).mac_digest(&digest),
                hmac_sha256_oracle(&key, &digest)
            );
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k1", b"msh"));
    }
}
