//! Block cipher modes of operation used by StegFS.
//!
//! Hidden objects are encrypted at disk-block granularity: each disk block of
//! a hidden object is encrypted independently under the object's key, with
//! the block's number as its CTR nonce ([`block_nonce`]).  That keeps random
//! access cheap (the paper decrypts blocks "on-the-fly during retrieval")
//! while still making every hidden block look like the uniform random fill
//! that the formatter writes into free blocks.
//!
//! Two modes are provided:
//!
//! * [`CbcCipher`] — CBC with PKCS#7 padding, used for variable-length
//!   records such as the encrypted UAK directory entries and the sharing
//!   `entryfile` payloads.
//! * [`CtrCipher`] — CTR keystream encryption, used for whole disk blocks
//!   where the ciphertext must have exactly the same length as the plaintext.

use crate::aes::{Aes, BLOCK_LEN};

/// Error returned when a ciphertext cannot be decrypted into a well-formed
/// plaintext (bad length or bad padding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CipherError {
    /// Ciphertext length is not a multiple of the block size.
    BadLength,
    /// PKCS#7 padding was malformed; usually means the wrong key was used.
    BadPadding,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::BadLength => write!(f, "ciphertext length is not a multiple of 16"),
            CipherError::BadPadding => write!(f, "invalid PKCS#7 padding (wrong key?)"),
        }
    }
}

impl std::error::Error for CipherError {}

/// The first counter block of device block `block_no`: the block number
/// big-endian in bytes 0..8, and the 16-byte block index within the disk
/// block, starting at zero, in bytes 8..16.
///
/// Counter block `j` of device block `b` is therefore `b ‖ j`.  Distinct
/// block numbers get disjoint counter ranges (the index never carries into
/// the block number: that would take a disk block of 2⁶⁸ bytes), and a
/// rewrite of one block under one key repeats exactly the keystream any
/// deterministic per-block nonce would repeat.
pub fn block_nonce(block_no: u64) -> [u8; BLOCK_LEN] {
    let mut nonce = [0u8; BLOCK_LEN];
    nonce[..8].copy_from_slice(&block_no.to_be_bytes());
    nonce
}

/// AES-CBC with PKCS#7 padding.
pub struct CbcCipher {
    aes: Aes,
}

impl CbcCipher {
    /// Create a CBC cipher from raw AES key material (16/24/32 bytes).
    pub fn new(key: &[u8]) -> Self {
        CbcCipher { aes: Aes::new(key) }
    }

    /// Wrap an already expanded AES key schedule.
    #[cfg(test)]
    pub(crate) fn from_aes(aes: Aes) -> Self {
        CbcCipher { aes }
    }

    /// Encrypt `plaintext` with the given IV.  The output length is always a
    /// non-zero multiple of 16 bytes (PKCS#7 adds a full block when the input
    /// is already aligned).
    pub fn encrypt(&self, iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
        let padded = pkcs7_pad(plaintext);
        let mut out = Vec::with_capacity(padded.len());
        let mut prev = *iv;
        for chunk in padded.chunks_exact(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            for i in 0..BLOCK_LEN {
                block[i] = chunk[i] ^ prev[i];
            }
            self.aes.encrypt_block(&mut block);
            out.extend_from_slice(&block);
            prev = block;
        }
        out
    }

    /// Decrypt and strip PKCS#7 padding.
    pub fn decrypt(&self, iv: &[u8; BLOCK_LEN], ciphertext: &[u8]) -> Result<Vec<u8>, CipherError> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
            return Err(CipherError::BadLength);
        }
        if let Some((hw, dec)) = self.aes.hw_decryptor() {
            // Decryption does not chain through the cipher, so the hardware
            // path runs eight blocks at once, in place over a copy.
            let mut out = ciphertext.to_vec();
            hw.cbc_decrypt(dec, iv, out.as_chunks_mut().0);
            pkcs7_unpad(&mut out)?;
            return Ok(out);
        }
        let mut out = Vec::with_capacity(ciphertext.len());
        let mut prev = *iv;
        for chunk in ciphertext.chunks_exact(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(chunk);
            let saved = block;
            self.aes.decrypt_block(&mut block);
            for i in 0..BLOCK_LEN {
                block[i] ^= prev[i];
            }
            out.extend_from_slice(&block);
            prev = saved;
        }
        pkcs7_unpad(&mut out)?;
        Ok(out)
    }
}

/// AES-CTR keystream cipher: length-preserving, random-access friendly.
///
/// `CtrCipher` *is* the expanded key schedule: [`CtrCipher::new`] runs AES
/// key expansion once, and every subsequent [`apply`](CtrCipher::apply) call
/// reuses the cached round keys.  Hot paths that encrypt many blocks under
/// one key (the hidden-object layer's `ObjectKeys`) must therefore build
/// the cipher once per key and hold on to it — constructing a fresh
/// `CtrCipher` per block re-pays the expansion every time.  The discipline
/// is testable via [`Aes::key_expansions`].
#[derive(Clone)]
pub struct CtrCipher {
    aes: Aes,
}

impl CtrCipher {
    /// Create a CTR cipher from raw AES key material (16/24/32 bytes).
    /// This is the one place key expansion happens; reuse the returned
    /// cipher for every block encrypted under this key.
    pub fn new(key: &[u8]) -> Self {
        CtrCipher { aes: Aes::new(key) }
    }

    /// Wrap an already expanded AES key schedule.
    pub fn from_aes(aes: Aes) -> Self {
        CtrCipher { aes }
    }

    /// XOR `data` in place with the keystream generated from `nonce`.
    /// Encryption and decryption are the same operation.
    pub fn apply(&self, nonce: &[u8; BLOCK_LEN], data: &mut [u8]) {
        if let Some((vaes, enc)) = self.aes.vaes_encryptor() {
            return vaes.ctr_run(enc, std::slice::from_ref(nonce), data);
        }
        if let Some((hw, enc)) = self.aes.hw_encryptor() {
            return hw.ctr_apply(enc, nonce, data);
        }
        let mut counter_block = *nonce;
        let mut offset = 0usize;
        while offset < data.len() {
            let mut keystream = counter_block;
            self.aes.encrypt_block(&mut keystream);
            let take = BLOCK_LEN.min(data.len() - offset);
            for i in 0..take {
                data[offset + i] ^= keystream[i];
            }
            offset += take;
            increment_counter(&mut counter_block);
        }
    }

    /// CTR over a run of device blocks: `data` is `block_nos.len()` equal
    /// blocks back to back, and block `i` takes the keystream from
    /// [`block_nonce`]`(block_nos[i])`.  Where the CPU has VAES the whole
    /// run is ciphered in one call of the run kernel, two blocks in flight.
    ///
    /// # Panics
    /// Panics unless `data` splits into one equal block per block number.
    pub fn apply_blocks(&self, block_nos: &[u64], data: &mut [u8]) {
        if block_nos.is_empty() {
            return;
        }
        let block_len = data.len() / block_nos.len();
        assert_eq!(
            data.len(),
            block_nos.len() * block_len,
            "one equal block per block number"
        );
        if let Some((vaes, enc)) = self.aes.vaes_encryptor() {
            let nonces: Vec<_> = block_nos.iter().map(|&b| block_nonce(b)).collect();
            return vaes.ctr_run(enc, &nonces, data);
        }
        for (&b, block) in block_nos.iter().zip(data.chunks_exact_mut(block_len)) {
            self.apply(&block_nonce(b), block);
        }
    }

    /// Convenience wrapper returning a new vector instead of mutating in place.
    pub fn transform(&self, nonce: &[u8; BLOCK_LEN], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(nonce, &mut out);
        out
    }
}

fn increment_counter(block: &mut [u8; BLOCK_LEN]) {
    for byte in block.iter_mut().rev() {
        let (new, overflow) = byte.overflowing_add(1);
        *byte = new;
        if !overflow {
            break;
        }
    }
}

fn pkcs7_pad(data: &[u8]) -> Vec<u8> {
    let pad = BLOCK_LEN - (data.len() % BLOCK_LEN);
    let mut out = Vec::with_capacity(data.len() + pad);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad as u8, pad));
    out
}

fn pkcs7_unpad(data: &mut Vec<u8>) -> Result<(), CipherError> {
    let pad = *data.last().ok_or(CipherError::BadPadding)? as usize;
    if pad == 0 || pad > BLOCK_LEN || pad > data.len() {
        return Err(CipherError::BadPadding);
    }
    if data[data.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CipherError::BadPadding);
    }
    data.truncate(data.len() - pad);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn ctr_matches_sp800_38a_aes256() {
        // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt, first two blocks.
        let key = from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let nonce: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let plaintext =
            from_hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let expected = from_hex("601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5");
        // On the back end `new` picks for this host, and on the T-tables.
        for aes in [Aes::new(&key), Aes::portable(&key)] {
            let ctr = CtrCipher::from_aes(aes);
            assert_eq!(ctr.transform(&nonce, &plaintext), expected);
        }
    }

    #[test]
    fn ctr_roundtrip_unaligned_lengths() {
        let ctr = CtrCipher::new(&[9u8; 32]);
        let nonce = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 100, 1024, 4097] {
            let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let enc = ctr.transform(&nonce, &data);
            assert_eq!(enc.len(), data.len());
            if len > 0 {
                assert_ne!(enc, data, "len {len}");
            }
            assert_eq!(ctr.transform(&nonce, &enc), data);
        }
    }

    #[test]
    fn ctr_counter_wraps_across_byte_boundary() {
        let mut c = [0xffu8; 16];
        increment_counter(&mut c);
        assert_eq!(c, [0u8; 16]);
        let mut c2 = [0u8; 16];
        c2[15] = 0xff;
        increment_counter(&mut c2);
        assert_eq!(c2[15], 0);
        assert_eq!(c2[14], 1);
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let cbc = CbcCipher::new(&[7u8; 32]);
        let iv = [1u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let enc = cbc.encrypt(&iv, &data);
            assert_eq!(enc.len() % 16, 0);
            assert!(enc.len() > data.len(), "padding always adds bytes");
            assert_eq!(cbc.decrypt(&iv, &enc).unwrap(), data);
        }
    }

    #[test]
    fn cbc_wrong_key_fails_or_garbles() {
        let cbc = CbcCipher::new(&[7u8; 32]);
        let wrong = CbcCipher::new(&[8u8; 32]);
        let iv = [0u8; 16];
        let data = b"the hidden budget spreadsheet".to_vec();
        let enc = cbc.encrypt(&iv, &data);
        match wrong.decrypt(&iv, &enc) {
            Err(CipherError::BadPadding) => {}
            Ok(pt) => assert_ne!(pt, data),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn cbc_rejects_truncated_ciphertext() {
        let cbc = CbcCipher::new(&[7u8; 32]);
        let iv = [0u8; 16];
        let enc = cbc.encrypt(&iv, b"hello");
        assert_eq!(cbc.decrypt(&iv, &enc[..15]), Err(CipherError::BadLength));
        assert_eq!(cbc.decrypt(&iv, &[]), Err(CipherError::BadLength));
    }

    /// The oracle of the nonce rule, written out: counter block `j` of
    /// device block `b` is `b ‖ j` (both big-endian), enciphered on the
    /// T-tables and XORed into the data.
    fn b_j_oracle(key: &[u8], block_nos: &[u64], data: &mut [u8]) {
        let aes = Aes::portable(key);
        let block_len = data.len() / block_nos.len();
        for (&b, block) in block_nos.iter().zip(data.chunks_exact_mut(block_len)) {
            for (j, chunk) in (0u64..).zip(block.chunks_mut(BLOCK_LEN)) {
                let mut keystream = [0u8; BLOCK_LEN];
                keystream[..8].copy_from_slice(&b.to_be_bytes());
                keystream[8..].copy_from_slice(&j.to_be_bytes());
                aes.encrypt_block(&mut keystream);
                chunk.iter_mut().zip(keystream).for_each(|(d, k)| *d ^= k);
            }
        }
    }

    #[test]
    fn apply_blocks_matches_its_known_answers() {
        // Keystream blocks 0 and 1 of device blocks 0, 2³² + 1 and
        // u64::MAX under the key 00 01 … 1f, from OpenSSL's
        // `aes-256-ctr` with the IV `b ‖ 0`.
        let key: Vec<u8> = (0..32).collect();
        let block_nos = [0, (1 << 32) + 1, u64::MAX];
        let pinned = [
            "f29000b62a499fd0a9f39a6add2e7780f05d76ae4ab99fe5a6f69b3148c2363d",
            "ff0e7edeab0d37c7e1ae4e1043e97c5dfa101540c72f123305b5b146e78ab9ea",
            "91658d77eba9ef4e2a4d5619c6c186b7d04cf3ddafe859b4a19910a45bbd2858",
        ];
        assert_eq!(
            block_nonce(0x0102_0304_0506_0708)[..8],
            [1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(block_nonce(u64::MAX)[8..], [0u8; 8]);
        for block_len in [32, 1024] {
            // Over zeros, the data after the cipher is the keystream.
            let mut want = vec![0u8; 3 * block_len];
            b_j_oracle(&key, &block_nos, &mut want);
            for (keystream, hex) in want.chunks_exact(block_len).zip(pinned) {
                assert_eq!(
                    keystream[..32],
                    from_hex(hex),
                    "oracle, blocks of {block_len}"
                );
            }
            for (name, ctr) in ["vaes", "aes-ni", "t-tables"]
                .iter()
                .zip(ctr_back_ends(&key))
            {
                let mut got = vec![0u8; 3 * block_len];
                ctr.apply_blocks(&block_nos, &mut got);
                assert_eq!(got, want, "{name}, blocks of {block_len}");
            }
        }
    }

    #[test]
    fn distinct_blocks_have_disjoint_counter_ranges() {
        // AES is a permutation, so two equal keystream blocks would mean
        // one counter block served twice.  Neighbouring block numbers, ones
        // a byte carry apart and the extremes, 4 KiB each: 256 counters per
        // block, none shared.
        let ctr = CtrCipher::new(&[0x3eu8; 32]);
        let block_nos = [
            0,
            1,
            2,
            255,
            256,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut keystream = vec![0u8; block_nos.len() * 4096];
        ctr.apply_blocks(&block_nos, &mut keystream);
        let (counters, _) = keystream.as_chunks::<BLOCK_LEN>();
        let distinct: std::collections::HashSet<_> = counters.iter().collect();
        assert_eq!(distinct.len(), counters.len(), "a counter block was reused");
        // The nonce depends on the block alone, so the key must change the
        // keystream and a repeat must reproduce it.
        let mut again = vec![0u8; 4096];
        ctr.apply_blocks(&[1], &mut again);
        assert_eq!(again, keystream[4096..8192]);
        let mut other = vec![0u8; 4096];
        CtrCipher::new(&[0x3fu8; 32]).apply_blocks(&[1], &mut other);
        assert_ne!(other, again);
    }

    #[test]
    fn pkcs7_full_block_padding() {
        let padded = pkcs7_pad(&[0u8; 16]);
        assert_eq!(padded.len(), 32);
        assert!(padded[16..].iter().all(|&b| b == 16));
    }

    #[test]
    fn ctr_same_nonce_same_keystream_detected() {
        // Documenting the classic CTR pitfall: two messages under the same
        // (key, nonce) XOR to the XOR of plaintexts.  StegFS gives every
        // (object key, block number) pair its own counter range.
        let ctr = CtrCipher::new(&[5u8; 32]);
        let nonce = [0u8; 16];
        let m1 = vec![0xaau8; 32];
        let m2 = vec![0x55u8; 32];
        let c1 = ctr.transform(&nonce, &m1);
        let c2 = ctr.transform(&nonce, &m2);
        let xored: Vec<u8> = c1.iter().zip(&c2).map(|(a, b)| a ^ b).collect();
        let expected: Vec<u8> = m1.iter().zip(&m2).map(|(a, b)| a ^ b).collect();
        assert_eq!(xored, expected);
    }

    // --- hardware ≡ portable ----------------------------------------------
    //
    // `Aes::new` picks the round function this CPU offers (for CTR, the VAES
    // run kernel where there is one); `Aes::aes_ni` stays on the eight-lane
    // AES-NI loop; `Aes::portable` is always the T-tables with the byte-wise
    // counter increment above.  The CTR tests hold all three to the
    // T-tables; on a host without VAES or AES-NI the sides that would use
    // them are the next path down and the tests still hold.

    /// The same key as (VAES run kernel, AES-NI loop), each where the CPU
    /// has it, and the T-tables last: the oracle.
    fn ctr_back_ends(key: &[u8]) -> [CtrCipher; 3] {
        [Aes::new(key), Aes::aes_ni(key), Aes::portable(key)].map(CtrCipher::from_aes)
    }

    fn cbc_pair(key: &[u8]) -> (CbcCipher, CbcCipher) {
        (CbcCipher::new(key), CbcCipher::from_aes(Aes::portable(key)))
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn ctr_back_ends_agree_on_every_batch_and_tail_shape() {
        // 0..=300 covers every residue mod 128 (the eight-block batch) and
        // mod 16 (the block) at least twice; the rest sit around 4 KiB.
        // 0..=600 also covers every residue mod 256 (the run kernel's group
        // of four registers) twice.
        let [vaes, aes_ni, oracle] = ctr_back_ends(&[0x42u8; 32]);
        let nonce = [0x9cu8; 16];
        for len in (0..=600).chain([1000, 4094, 4095, 4096, 4097, 4100]) {
            let data = pattern(len, 7);
            let want = oracle.transform(&nonce, &data);
            assert_eq!(vaes.transform(&nonce, &data), want, "vaes, len {len}");
            assert_eq!(aes_ni.transform(&nonce, &data), want, "aes-ni, len {len}");
        }
    }

    #[test]
    fn ctr_back_ends_carry_the_counter_alike() {
        // Start the counter 0..=20 steps short of a carry out of the low 64
        // bits (…ff f9 and neighbours) and out of all 128 (wrap to zero), so
        // the carry lands on each of the sixteen lanes of the run kernel's
        // four-register group, on each lane of AES-NI's eight-block batch,
        // in its one-block remainder loop, in the partial tail, and just
        // past a block's whole groups (256 + 40 bytes: the kernel's groups
        // do not carry, the tail after them does).
        let [vaes, aes_ni, oracle] = ctr_back_ends(&[0x17u8; 16]);
        for high in [[0x3cu8; 8], [0xffu8; 8]] {
            for short_of_carry in 0..=20u8 {
                let mut nonce = [0xffu8; 16];
                nonce[..8].copy_from_slice(&high);
                nonce[15] = 0xff - short_of_carry;
                for len in [256, 256 + 40, 3 * 256 + 16 * 5 + 3, 128, 16 * 3, 9] {
                    let data = pattern(len, short_of_carry);
                    let want = oracle.transform(&nonce, &data);
                    for (name, hw) in [("vaes", &vaes), ("aes-ni", &aes_ni)] {
                        assert_eq!(
                            hw.transform(&nonce, &data),
                            want,
                            "{name}, nonce {nonce:02x?} len {len}"
                        );
                    }
                }
            }
        }
        // And the oracle's own definition of the wrap: block 1 of an
        // all-ones nonce is the encryption of the zero block.
        let mut zero_block = [0u8; 16];
        Aes::portable(&[0x17u8; 16]).encrypt_block(&mut zero_block);
        let out = oracle.transform(&[0xffu8; 16], &[0u8; 32]);
        assert_eq!(out[16..], zero_block);
    }

    #[test]
    fn ctr_runs_match_block_by_block() {
        // Odd and even runs, whole groups, ragged tails, blocks under one
        // group, and a 64-block run; every block keyed from its own number.
        let block_nos: Vec<u64> = (0..64).map(|i| 1000 + i * 37).collect();
        let [vaes, aes_ni, oracle] = ctr_back_ends(&[0x2au8; 32]);
        for block_len in [16, 48, 256, 1000, 1024, 4096] {
            for blocks in (1..=9).chain([64]) {
                let block_nos = &block_nos[..blocks];
                let data = pattern(blocks * block_len, blocks as u8);
                let mut want = data.clone();
                for (&b, block) in block_nos.iter().zip(want.chunks_exact_mut(block_len)) {
                    oracle.apply(&block_nonce(b), block);
                }
                for (name, hw) in [("vaes", &vaes), ("aes-ni", &aes_ni), ("t-tables", &oracle)] {
                    let mut got = data.clone();
                    hw.apply_blocks(block_nos, &mut got);
                    assert_eq!(got, want, "{name}: {blocks} blocks of {block_len}");
                }
            }
        }
    }

    #[test]
    fn cbc_back_ends_agree_on_every_batch_and_tail_shape() {
        let (hw, oracle) = cbc_pair(&[0x6bu8; 24]);
        let iv = [0xe1u8; 16];
        for len in (0..=300).chain([1999, 2000]) {
            let data = pattern(len, 3);
            let sealed = oracle.encrypt(&iv, &data);
            assert_eq!(hw.encrypt(&iv, &data), sealed, "len {len}");
            assert_eq!(hw.decrypt(&iv, &sealed).unwrap(), data, "len {len}");
            assert_eq!(oracle.decrypt(&iv, &sealed).unwrap(), data, "len {len}");
        }
        // Malformed input fails the same way on both.
        let mut sealed = oracle.encrypt(&iv, &pattern(200, 3));
        *sealed.last_mut().unwrap() ^= 0x55;
        assert_eq!(hw.decrypt(&iv, &sealed), oracle.decrypt(&iv, &sealed));
        assert_eq!(hw.decrypt(&iv, &sealed[..17]), Err(CipherError::BadLength));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ctr_back_ends_agree(
            key in vec(any::<u8>(), 32),
            key_words in 2usize..=4,
            nonce in vec(any::<u8>(), 16),
            data in vec(any::<u8>(), 0..=4100),
        ) {
            let [vaes, aes_ni, oracle] = ctr_back_ends(&key[..8 * key_words]);
            let nonce: [u8; 16] = nonce.try_into().expect("sixteen bytes");
            let sealed = oracle.transform(&nonce, &data);
            for hw in [vaes, aes_ni] {
                prop_assert_eq!(&hw.transform(&nonce, &data), &sealed);
                prop_assert_eq!(&hw.transform(&nonce, &sealed), &data);
            }
        }

        #[test]
        fn cbc_back_ends_agree(
            key in vec(any::<u8>(), 32),
            key_words in 2usize..=4,
            iv in vec(any::<u8>(), 16),
            data in vec(any::<u8>(), 0..=2000),
        ) {
            let (hw, oracle) = cbc_pair(&key[..8 * key_words]);
            let iv: [u8; 16] = iv.try_into().expect("sixteen bytes");
            let sealed = oracle.encrypt(&iv, &data);
            prop_assert_eq!(&hw.encrypt(&iv, &data), &sealed);
            prop_assert_eq!(hw.decrypt(&iv, &sealed), Ok(data.clone()));
            prop_assert_eq!(oracle.decrypt(&iv, &sealed), Ok(data));
        }
    }
}
