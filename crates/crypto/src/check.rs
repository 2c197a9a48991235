//! A keyed integrity check over whole 16-byte blocks: one AES pass per
//! block, every block independent, PMAC-shaped (Black & Rogaway,
//! EUROCRYPT 2002).
//!
//! For a message `M` of `n` 16-byte blocks under key `K`:
//!
//! ```text
//! L    = AES_K(0¹²⁸)
//! Δ_i  = L · x^(i+1)                      in GF(2¹²⁸), reduction 0x87
//! Σ    = ⊕_i AES_K(M_i ⊕ Δ_i)
//! tag  = AES_K(Σ ⊕ L ⊕ T)                 T: a 16-byte tweak
//! ```
//!
//! Field elements are big-endian, as in CMAC: doubling shifts the block
//! left by one bit and XORs `0x87` into its last byte when the top bit
//! fell out.  The tweak `T` binds context the message itself does not
//! carry (a journal sequence number, a slot's block number) and separates
//! the uses of one key; [`tweak`] builds it from a domain byte and a
//! 64-bit value.  Callers keep a prefix of the tag (8 or 16 bytes).
//!
//! # Why it is keyed
//!
//! Every message this check covers lives inside AES-CTR ciphertext, and CTR
//! is malleable: anyone can XOR a chosen δ into the plaintext by XORing it
//! into the ciphertext.  An unkeyed check that is linear over XOR — a CRC,
//! an XOR fold — lets that δ through whenever the check of δ vanishes, and
//! the attacker can choose such a δ without any key (the same δ at two
//! block offsets cancels in a fold).  `Σ` enciphers every block under a
//! secret offset before folding, so without `K` the tag of a modified
//! message is unpredictable: the check is a PRF in the key.
//!
//! # What it costs
//!
//! The `n` block encryptions are independent, so every back end keeps many
//! in flight.  With VAES, `Vaes::check_sums` (`crate::hw`) runs
//! two messages side by side at four `zmm` registers of four blocks each,
//! eight `vaesenc` chains per round key, and sends the blocks past a
//! message's whole 256-byte groups through the eight-lane AES-NI loop
//! (`AesNi::check_sum`), which is also the whole path on hosts with
//! AES-NI and no VAES.  Elsewhere the T-table rounds encrypt one block at a
//! time.  The offsets `Δ_i` depend only on the key and the block index, so
//! [`KeyedCheck::new`] computes them once, up to the longest message the
//! caller will check, and every back end reads them from that table.  All
//! three give the same tags; the T-tables are the oracle in the tests.

use crate::aes::{Aes, BLOCK_LEN};
use crate::ct::zeroize;

/// Length in bytes of a full tag.
pub const TAG_LEN: usize = BLOCK_LEN;

/// The tweak `T` for `domain` and `value`: the domain byte first, the value
/// big-endian in the last eight bytes, zeros between.
pub fn tweak(domain: u8, value: u64) -> [u8; TAG_LEN] {
    let mut t = [0u8; TAG_LEN];
    t[0] = domain;
    t[8..].copy_from_slice(&value.to_be_bytes());
    t
}

/// `x · v` in GF(2¹²⁸), `v` big-endian.
fn double(v: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let v = u128::from_be_bytes(*v);
    ((v << 1) ^ ((v >> 127) * 0x87)).to_be_bytes()
}

fn xor_into(acc: &mut [u8; BLOCK_LEN], v: &[u8; BLOCK_LEN]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a ^= b;
    }
}

/// An expanded check key: the AES schedule, `L` and the offset table for
/// messages of up to a fixed length.  Every copy of `L` and the offsets is
/// zeroed on drop, and so is the schedule.
pub struct KeyedCheck {
    aes: Aes,
    l: [u8; BLOCK_LEN],
    /// `Δ_i = L · x^(i+1)` for every block index of the longest message.
    offsets: Vec<[u8; BLOCK_LEN]>,
}

impl Drop for KeyedCheck {
    fn drop(&mut self) {
        zeroize(&mut self.l);
        zeroize(self.offsets.as_flattened_mut());
    }
}

impl KeyedCheck {
    /// Expand `key` (16, 24 or 32 bytes) for messages of at most `max_len`
    /// bytes.
    pub fn new(key: &[u8], max_len: usize) -> Self {
        Self::from_aes(Aes::new(key), max_len)
    }

    fn from_aes(aes: Aes, max_len: usize) -> Self {
        let mut l = [0u8; BLOCK_LEN];
        aes.encrypt_block(&mut l);
        let mut offsets = Vec::with_capacity(max_len.div_ceil(BLOCK_LEN));
        let mut delta = l;
        for _ in 0..max_len.div_ceil(BLOCK_LEN) {
            delta = double(&delta);
            offsets.push(delta);
        }
        zeroize(&mut delta);
        KeyedCheck { aes, l, offsets }
    }

    /// The tag of `msg` under `tweak`.
    ///
    /// # Panics
    /// Panics unless `msg` is whole 16-byte blocks, at most `max_len` bytes.
    pub fn tag(&self, tweak: &[u8; TAG_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
        let mut sum = [[0u8; BLOCK_LEN]];
        self.sums(&[msg], &mut sum);
        self.finish(sum[0], tweak)
    }

    /// [`tag`](Self::tag) of every `(message, tweak)`, in order, from one
    /// call of the back end: where the CPU has VAES, two messages in flight.
    ///
    /// # Panics
    /// Panics unless every message is whole 16-byte blocks, at most
    /// `max_len` bytes.
    pub fn tags<'a>(
        &self,
        msgs: impl IntoIterator<Item = (&'a [u8], [u8; TAG_LEN])>,
    ) -> Vec<[u8; TAG_LEN]> {
        let (msgs, tweaks): (Vec<&[u8]>, Vec<[u8; TAG_LEN]>) = msgs.into_iter().unzip();
        let mut sums = vec![[0u8; BLOCK_LEN]; msgs.len()];
        self.sums(&msgs, &mut sums);
        sums.iter()
            .zip(&tweaks)
            .map(|(sum, tweak)| self.finish(*sum, tweak))
            .collect()
    }

    /// `Σ` of every message into `sums`, on the fastest back end this key
    /// has.
    fn sums(&self, msgs: &[&[u8]], sums: &mut [[u8; BLOCK_LEN]]) {
        for msg in msgs {
            assert!(
                msg.len().is_multiple_of(BLOCK_LEN) && msg.len() / BLOCK_LEN <= self.offsets.len(),
                "a checked message is whole blocks, no longer than the check was built for"
            );
        }
        if let Some((vaes, enc)) = self.aes.vaes_encryptor() {
            return vaes.check_sums(enc, &self.offsets, msgs, sums);
        }
        for (sum, msg) in sums.iter_mut().zip(msgs) {
            *sum = match self.aes.hw_encryptor() {
                Some((hw, enc)) => hw.check_sum(enc, &self.offsets, msg),
                None => self.sum_portable(msg),
            };
        }
    }

    /// `Σ` one block at a time: the T-table path, and the oracle.
    fn sum_portable(&self, msg: &[u8]) -> [u8; BLOCK_LEN] {
        let mut sum = [0u8; BLOCK_LEN];
        for (block, delta) in msg.as_chunks::<BLOCK_LEN>().0.iter().zip(&self.offsets) {
            let mut x = *block;
            xor_into(&mut x, delta);
            self.aes.encrypt_block(&mut x);
            xor_into(&mut sum, &x);
        }
        sum
    }

    fn finish(&self, mut sum: [u8; BLOCK_LEN], tweak: &[u8; TAG_LEN]) -> [u8; TAG_LEN] {
        xor_into(&mut sum, &self.l);
        xor_into(&mut sum, tweak);
        self.aes.encrypt_block(&mut sum);
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The same key on (the VAES kernel, the AES-NI loop), each where the
    /// CPU has it, and the T-tables last: the oracle.
    fn back_ends(key: &[u8], max_len: usize) -> [KeyedCheck; 3] {
        [Aes::new(key), Aes::aes_ni(key), Aes::portable(key)]
            .map(|aes| KeyedCheck::from_aes(aes, max_len))
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(salt))
            .collect()
    }

    /// The construction written out block by block on the T-tables, with
    /// the offsets stepped by doubling rather than read from a table.
    fn reference(key: &[u8], tweak: &[u8; 16], msg: &[u8]) -> [u8; 16] {
        let aes = Aes::portable(key);
        let mut l = [0u8; 16];
        aes.encrypt_block(&mut l);
        let (mut delta, mut sum) = (l, [0u8; 16]);
        for block in msg.as_chunks::<16>().0 {
            delta = double(&delta);
            let mut x = *block;
            xor_into(&mut x, &delta);
            aes.encrypt_block(&mut x);
            xor_into(&mut sum, &x);
        }
        xor_into(&mut sum, &l);
        xor_into(&mut sum, tweak);
        aes.encrypt_block(&mut sum);
        sum
    }

    #[test]
    fn doubling_reduces_by_0x87() {
        let mut top = [0u8; 16];
        top[0] = 0x80;
        let mut want = [0u8; 16];
        want[15] = 0x87;
        assert_eq!(double(&top), want);
        let mut one = [0u8; 16];
        one[15] = 1;
        let mut two = [0u8; 16];
        two[15] = 2;
        assert_eq!(double(&one), two);
    }

    #[test]
    fn tags_are_the_construction() {
        let key = [0x3au8; 32];
        let check = KeyedCheck::from_aes(Aes::portable(&key), 4096);
        for len in [0, 16, 1008, 1024, 4096] {
            let msg = pattern(len, 9);
            let t = tweak(2, 0x0123_4567_89ab_cdef);
            assert_eq!(check.tag(&t, &msg), reference(&key, &t, &msg), "len {len}");
        }
    }

    /// Self-generated known answers (there are no published vectors for
    /// this construction), recorded from the T-table body and reproduced,
    /// when recorded, by an independent script over OpenSSL's AES-256: the
    /// check bytes of every v3 volume hang off these not moving.
    #[test]
    fn known_answers() {
        let key: Vec<u8> = (0u8..32).collect();
        let answers = [
            (0usize, tweak(0, 0), "d4e96925c0bfcffb52f8a187ee774aab"),
            (16, tweak(0, 0), "78be518338761c444b0c7f23843fa466"),
            (1008, tweak(2, 300), "8e3a97abc66f4fd9f0383c46d223c362"),
            (1024, tweak(1, 77), "f736fb94a875861b94328e451b1faea9"),
            (4096, tweak(0, 0), "320fb102a1fb5259c68492ca30f16de5"),
        ];
        let [vaes, aes_ni, oracle] = back_ends(&key, 4096);
        for (len, t, want) in answers {
            let msg = pattern(len, 1);
            for (name, check) in [("vaes", &vaes), ("aes-ni", &aes_ni), ("t-tables", &oracle)] {
                assert_eq!(hex(&check.tag(&t, &msg)), want, "{name}, len {len}");
            }
        }
    }

    #[test]
    fn every_back_end_agrees_on_every_shape() {
        // Lengths around the kernel's 256-byte group and the AES-NI loop's
        // 128-byte batch, run counts that leave a lone message, and a run
        // whose lengths differ so that no pair forms.
        let [vaes, aes_ni, oracle] = back_ends(&[0x42u8; 32], 4096 + 16);
        for len in (0..=600)
            .step_by(16)
            .chain([1008, 1024, 1040, 4080, 4096, 4112])
        {
            for count in [1, 2, 3, 5] {
                let msgs: Vec<(Vec<u8>, [u8; 16])> = (0..count)
                    .map(|i| (pattern(len, i as u8), tweak(1, i as u64)))
                    .collect();
                let refs = || msgs.iter().map(|(m, t)| (&m[..], *t));
                let want = oracle.tags(refs());
                assert_eq!(vaes.tags(refs()), want, "vaes, {count} × {len}");
                assert_eq!(aes_ni.tags(refs()), want, "aes-ni, {count} × {len}");
            }
        }
        let ragged: Vec<Vec<u8>> = [1024, 1040, 16, 4096, 256, 1024]
            .iter()
            .map(|&len| pattern(len, 3))
            .collect();
        let refs = || ragged.iter().map(|m| (&m[..], tweak(0, 0)));
        let want = oracle.tags(refs());
        assert_eq!(vaes.tags(refs()), want);
        assert_eq!(aes_ni.tags(refs()), want);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn a_ragged_message_is_refused() {
        KeyedCheck::new(&[1u8; 32], 64).tag(&tweak(0, 0), &[0u8; 17]);
    }

    #[test]
    #[should_panic(expected = "no longer than")]
    fn an_overlong_message_is_refused() {
        KeyedCheck::new(&[1u8; 32], 64).tag(&tweak(0, 0), &[0u8; 80]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Kernel ≡ AES-NI loop ≡ T-tables on runs of one to seven
        /// messages of the lengths the format checks (a 1 008-byte slot
        /// body, 1 KiB and 4 KiB blocks) and one past a whole group.
        #[test]
        fn back_ends_agree(
            key in vec(any::<u8>(), 32),
            key_words in 2usize..=4,
            shape in 0usize..4,
            count in 1usize..=7,
            seed in any::<u8>(),
            value in any::<u64>(),
        ) {
            let len = [1008, 1024, 1040, 4096][shape];
            let [vaes, aes_ni, oracle] = back_ends(&key[..8 * key_words], len);
            let msgs: Vec<Vec<u8>> = (0..count).map(|i| pattern(len, seed ^ i as u8)).collect();
            let refs = || msgs.iter().enumerate().map(|(i, m)| (&m[..], tweak(i as u8, value)));
            let want = oracle.tags(refs());
            prop_assert_eq!(vaes.tags(refs()), want.clone());
            prop_assert_eq!(aes_ni.tags(refs()), want);
        }

        /// A one-bit flip at message block 0, 15 or 63 (first lane, last
        /// lane of the first register group, last block of a 1 KiB
        /// message), a different key, tweak domain or tweak value each
        /// change the tag on every back end.
        #[test]
        fn tags_depend_on_every_input(
            key in vec(any::<u8>(), 32),
            msg in vec(any::<u8>(), 1024),
            lane in 0usize..3,
            bit in 0usize..128,
            value in any::<u64>(),
        ) {
            let other_key: Vec<u8> = key.iter().map(|b| b ^ 1).collect();
            let [others @ .., oracle] = back_ends(&other_key, 1024);
            let t = tweak(1, value);
            for (i, check) in back_ends(&key, 1024).iter().enumerate() {
                let tag = check.tag(&t, &msg);
                prop_assert_eq!(tag, reference(&key, &t, &msg));
                let mut flipped = msg.clone();
                let block = [0, 15, 63][lane];
                flipped[block * 16 + bit / 8] ^= 1 << (bit % 8);
                prop_assert_ne!(check.tag(&t, &flipped), tag);
                prop_assert_ne!(check.tag(&tweak(2, value), &msg), tag);
                prop_assert_ne!(check.tag(&tweak(1, value ^ 1), &msg), tag);
                let other = if i < 2 { &others[i] } else { &oracle };
                prop_assert_ne!(other.tag(&t, &msg), tag);
            }
        }
    }
}
