//! Hardware round functions and slice kernels: AES-NI, SHA-NI and the AVX2
//! GF(2⁸) multiply behind runtime detection.
//!
//! This is the workspace's only `unsafe` code.  It exists for a measured
//! gain (a 64 KiB CBC decrypt 354 → 13 µs, a 64 KiB SHA-256 272 → 47 µs, a
//! 64 KiB 2-of-3 IDA split 122 → 11 µs on the reference host) that safe Rust
//! has no operation for, and it adds no dependency: the intrinsics are
//! `core::arch::x86_64`.
//!
//! # Safety argument
//!
//! Two kinds of operation here are `unsafe`, and each has one reason to be
//! sound:
//!
//! * **Calling a `#[target_feature]` function.**  Every function that
//!   executes an AES, SHA or AVX2 instruction is gated by
//!   `#[target_feature(enable = ...)]` — for AVX2 that is [`mul_acc`], the
//!   two transposes [`deinterleave`] and [`interleave`], and the
//!   [`load256`] / [`store256`] they use — and the only calls into them
//!   from ungated code are the methods of [`AesNi`], [`ShaNi`] and
//!   [`Avx2`].  Those tokens have a private field and exactly one
//!   constructor each, `detect`, which returns `Some` only after
//!   `is_x86_feature_detected!` has seen every feature the gated functions
//!   enable.  Holding a token is therefore proof that the instructions
//!   exist on this CPU; nothing outside this file can make one.
//! * **Unaligned vector loads and stores.**  All of them go through
//!   [`load`] and [`store`] (`&[u8; 16]` / `&mut [u8; 16]`) or [`load256`]
//!   and [`store256`] (`&[u8; 32]` / `&mut [u8; 32]`): the reference
//!   guarantees that many readable (writable) in-bounds bytes, and
//!   `loadu`/`storeu` have no alignment requirement.  No pointer arithmetic
//!   happens anywhere; buffers are cut into 16- or 32-byte arrays by safe
//!   slice methods first, and a ragged tail is copied through an array on
//!   the stack.
//!
//! Everything else — the counter arithmetic, the batching, the key and state
//! layout, the nibble tables — is safe code, and a bug there is a wrong
//! answer that the equivalence tests against the portable code catch, not
//! undefined behaviour.  The two transposes contain no `unsafe` at all: they
//! are `crate::gf256`'s safe loops, `inline(always)`, instantiated a second
//! time inside a gated wrapper so that the compiler may use 32-byte shuffles
//! for them.  The tests at the bottom run every entry point against the
//! T-table AES, the scalar SHA-256 and the bit-serial GF(2⁸) multiply on any
//! host that has the features.

#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// Independent blocks kept in flight per round-key load.  `aesenc` has a
/// latency of several cycles and a throughput of one or two per cycle, so a
/// lone block leaves the unit mostly idle; eight fills it and still fits
/// the sixteen vector registers next to the round key.
const LANES: usize = 8;

/// Proof that this CPU executes the AES-NI instructions.
#[derive(Clone, Copy)]
pub(crate) struct AesNi(());

/// Proof that this CPU executes the SHA-256 extensions (and the SSSE3 /
/// SSE4.1 shuffles the message schedule uses).
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

/// Proof that this CPU executes the AVX2 instructions.
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a reference to 16 in-bounds readable bytes and the
    // load is the unaligned form.  SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

#[inline(always)]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is a unique reference to 16 in-bounds writable bytes
    // and the store is the unaligned form.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

#[target_feature(enable = "avx2")]
#[inline]
fn load256(bytes: &[u8; 32]) -> __m256i {
    // SAFETY: `bytes` is a reference to 32 in-bounds readable bytes and the
    // load is the unaligned form.
    unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
}

#[target_feature(enable = "avx2")]
#[inline]
fn store256(bytes: &mut [u8; 32], v: __m256i) {
    // SAFETY: `bytes` is a unique reference to 32 in-bounds writable bytes
    // and the store is the unaligned form.
    unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
}

impl AesNi {
    /// The token, if the CPU reports AES-NI.
    pub(crate) fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    /// Encrypt one block under the byte-order schedule `rk`.
    #[inline]
    pub(crate) fn encrypt_block(self, rk: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: `self` exists only if `detect` saw the `aes` feature.
        unsafe { encrypt_block(rk, block) }
    }

    /// Decrypt one block under the equivalent-inverse-cipher schedule `dk`.
    #[inline]
    pub(crate) fn decrypt_block(self, dk: &[[u8; 16]], block: &mut [u8; 16]) {
        // SAFETY: `self` exists only if `detect` saw the `aes` feature.
        unsafe { decrypt_block(dk, block) }
    }

    /// XOR `data` with the CTR keystream that starts at the 128-bit
    /// big-endian counter `nonce`.
    pub(crate) fn ctr_apply(self, rk: &[[u8; 16]], nonce: &[u8; 16], data: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` saw the `aes` feature.
        unsafe { ctr_apply(rk, nonce, data) }
    }

    /// CBC-decrypt whole blocks in place.
    pub(crate) fn cbc_decrypt(self, dk: &[[u8; 16]], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
        // SAFETY: `self` exists only if `detect` saw the `aes` feature.
        unsafe { cbc_decrypt(dk, iv, blocks) }
    }
}

/// Define `$name::<N>`: run `N` independent blocks through all rounds of
/// one direction of the cipher — whitening key, `$round` per middle round
/// key, `$last` for the final one.
macro_rules! cipher_rounds {
    ($(#[$doc:meta])* $name:ident, $round:ident, $last:ident) => {
        $(#[$doc])*
        #[target_feature(enable = "aes")]
        #[inline]
        fn $name<const N: usize>(keys: &[[u8; 16]], mut state: [__m128i; N]) -> [__m128i; N] {
            let [first, middle @ .., last] = keys else {
                unreachable!("an AES schedule has at least eleven round keys")
            };
            let k = load(first);
            for s in &mut state {
                *s = _mm_xor_si128(*s, k);
            }
            for key in middle {
                let k = load(key);
                for s in &mut state {
                    *s = $round(*s, k);
                }
            }
            let k = load(last);
            for s in &mut state {
                *s = $last(*s, k);
            }
            state
        }
    };
}

cipher_rounds!(
    /// Encrypt `N` blocks under the byte-order schedule `keys`.
    encrypt,
    _mm_aesenc_si128,
    _mm_aesenclast_si128
);
cipher_rounds!(
    /// Decrypt `N` blocks.  `keys` is the equivalent inverse cipher's
    /// schedule (FIPS 197 §5.3.5) — last round key first, middle keys
    /// through InvMixColumns — which is exactly the form `aesdec` is
    /// defined over.
    decrypt,
    _mm_aesdec_si128,
    _mm_aesdeclast_si128
);

#[target_feature(enable = "aes")]
fn encrypt_block(rk: &[[u8; 16]], block: &mut [u8; 16]) {
    let [out] = encrypt(rk, [load(block)]);
    store(block, out);
}

#[target_feature(enable = "aes")]
fn decrypt_block(dk: &[[u8; 16]], block: &mut [u8; 16]) {
    let [out] = decrypt(dk, [load(block)]);
    store(block, out);
}

#[target_feature(enable = "aes")]
fn ctr_apply(rk: &[[u8; 16]], nonce: &[u8; 16], data: &mut [u8]) {
    // The counter is the whole block as one big-endian integer, so a
    // wrapping add carries through every byte (and from all-ones to zero)
    // exactly like the portable byte-wise increment.
    let mut counter = u128::from_be_bytes(*nonce);
    let mut next_counter_block = || {
        let block = counter.to_be_bytes();
        counter = counter.wrapping_add(1);
        block
    };

    let bulk_len = data.len() - data.len() % (16 * LANES);
    let (bulk, rest) = data.split_at_mut(bulk_len);
    for batch in bulk.as_chunks_mut::<16>().0.chunks_exact_mut(LANES) {
        let mut keystream = [_mm_setzero_si128(); LANES];
        for k in &mut keystream {
            *k = load(&next_counter_block());
        }
        for (block, k) in batch.iter_mut().zip(encrypt(rk, keystream)) {
            store(block, _mm_xor_si128(load(block), k));
        }
    }
    // Under eight blocks left, the last possibly partial: one at a time.
    for chunk in rest.chunks_mut(16) {
        let mut keystream = next_counter_block();
        encrypt_block(rk, &mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream) {
            *d ^= k;
        }
    }
}

#[target_feature(enable = "aes")]
fn cbc_decrypt(dk: &[[u8; 16]], iv: &[u8; 16], blocks: &mut [[u8; 16]]) {
    // Unlike encryption, CBC decryption has no serial dependency through
    // the cipher: P[i] = D(C[i]) ^ C[i-1], so eight D() run at once.  The
    // ciphertexts are held in registers, which is what lets this run in place.
    let mut prev = load(iv);
    let mut batches = blocks.chunks_exact_mut(LANES);
    for batch in &mut batches {
        let mut cipher = [_mm_setzero_si128(); LANES];
        for (c, block) in cipher.iter_mut().zip(batch.iter()) {
            *c = load(block);
        }
        let plain = decrypt(dk, cipher);
        for ((block, p), c) in batch.iter_mut().zip(plain).zip(cipher) {
            store(block, _mm_xor_si128(p, prev));
            prev = c;
        }
    }
    for block in batches.into_remainder() {
        let c = load(block);
        let [p] = decrypt(dk, [c]);
        store(block, _mm_xor_si128(p, prev));
        prev = c;
    }
}

impl ShaNi {
    /// The token, if the CPU reports the SHA extensions and the two shuffle
    /// generations the compression function uses.
    pub(crate) fn detect() -> Option<Self> {
        (std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Fold the 64-byte blocks of `blocks` into `state`, in order.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `self` exists only if `detect` saw `sha`, `ssse3` and
        // `sse4.1`, the features `compress` enables.
        unsafe { compress(state, blocks) }
    }
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use crate::sha256::K;

    // `sha256rnds2` wants the eight working variables as two vectors,
    // (a, b, e, f) and (c, d, g, h), highest lane first.
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Message words are big-endian: reverse the bytes of each 32-bit lane.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quarters, _) = block.as_chunks::<16>();
        // The four most recent quartets of the message schedule.
        let mut w = [_mm_setzero_si128(); 4];
        for (quartet, bytes) in w.iter_mut().zip(quarters) {
            *quartet = _mm_shuffle_epi8(load(bytes), big_endian);
        }
        for i in 0..16 {
            // Four rounds per step: the first four quartets are the block
            // itself, every later one comes from the previous four.
            let quartet = if i < 4 {
                w[i]
            } else {
                let [w0, w1, w2, w3] = w;
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                    w3,
                );
                w = [w1, w2, w3, next];
                next
            };
            let k = &K[4 * i..4 * i + 4];
            let wk = _mm_add_epi32(
                quartet,
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            // Two rounds on the low two lanes, two on the high two; each
            // call returns the new (a, b, e, f) and the old one becomes
            // (c, d, g, h), so the two names swap roles and swap back.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|w| w as u32);
}

impl Avx2 {
    /// The token, if the CPU reports AVX2.
    pub(crate) fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// `dst[k] ^= c · src[k]` over equally long slices, where `lo` and `hi`
    /// hold `c` times every low and every high nibble.
    pub(crate) fn mul_acc(self, lo: &[u8; 16], hi: &[u8; 16], dst: &mut [u8], src: &[u8]) {
        // SAFETY: `self` exists only if `detect` saw the `avx2` feature.
        unsafe { mul_acc(lo, hi, dst, src) }
    }

    /// [`crate::gf256::deinterleave`] with 32-byte shuffles.
    pub(crate) fn deinterleave(self, data: &[u8], m: usize, planes: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` saw the `avx2` feature.
        unsafe { deinterleave(data, m, planes) }
    }

    /// [`crate::gf256::interleave`] with 32-byte shuffles.
    pub(crate) fn interleave(self, planes: &[u8], m: usize, out: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` saw the `avx2` feature.
        unsafe { interleave(planes, m, out) }
    }
}

#[target_feature(enable = "avx2")]
fn mul_acc(lo: &[u8; 16], hi: &[u8; 16], dst: &mut [u8], src: &[u8]) {
    // `vpshufb` looks sixteen bytes up in a sixteen-entry table, in each
    // 128-bit half on its own: both halves carry the same table.
    let lo = _mm256_broadcastsi128_si256(load(lo));
    let hi = _mm256_broadcastsi128_si256(load(hi));
    let nibble = _mm256_set1_epi8(0x0f);
    let product = |v: __m256i| {
        // There is no byte-wise shift; the mask drops what the 64-bit one
        // carries in from the byte above.
        let high = _mm256_and_si256(_mm256_srli_epi64::<4>(v), nibble);
        _mm256_xor_si256(
            _mm256_shuffle_epi8(lo, _mm256_and_si256(v, nibble)),
            _mm256_shuffle_epi8(hi, high),
        )
    };

    let (dst_blocks, dst_tail) = dst.as_chunks_mut::<32>();
    let (src_blocks, src_tail) = src.as_chunks::<32>();
    for (d, s) in dst_blocks.iter_mut().zip(src_blocks) {
        store256(d, _mm256_xor_si256(load256(d), product(load256(s))));
    }
    // Under 32 bytes left: through a zero-padded block of their own.
    if !src_tail.is_empty() {
        let mut block = [0u8; 32];
        block[..src_tail.len()].copy_from_slice(src_tail);
        let products = product(load256(&block));
        store256(&mut block, products);
        for (d, p) in dst_tail.iter_mut().zip(block) {
            *d ^= p;
        }
    }
}

#[target_feature(enable = "avx2")]
fn deinterleave(data: &[u8], m: usize, planes: &mut [u8]) {
    crate::gf256::deinterleave_body(data, m, planes)
}

#[target_feature(enable = "avx2")]
fn interleave(planes: &[u8], m: usize, out: &mut [u8]) {
    crate::gf256::interleave_body(planes, m, out)
}

/// The tokens' own entry points against the portable code.  The mode loops,
/// the incremental hasher and the slice kernels built on them are compared
/// in `crate::modes`, `crate::sha256` and `crate::gf256`, whose tests run on
/// every target.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{gf_mul, Aes};
    use crate::gf256::{deinterleave_body, interleave_body};
    use crate::sha256::compress_portable;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// AES-NI ≡ T-tables, both directions, all three key sizes.
        #[test]
        fn aesni_blocks_match_the_t_tables(
            key in vec(any::<u8>(), 32),
            key_words in 2usize..=4,
            block in vec(any::<u8>(), 16),
        ) {
            let key = &key[..8 * key_words];
            let aes = Aes::new(key);
            let (Some((hw, enc)), Some((_, dec))) = (aes.hw_encryptor(), aes.hw_decryptor()) else {
                return Ok(()); // no AES-NI on this CPU: nothing to compare
            };
            let oracle = Aes::portable(key);
            let block: [u8; 16] = block.try_into().expect("sixteen bytes");

            let (mut got, mut want) = (block, block);
            hw.encrypt_block(enc, &mut got);
            oracle.encrypt_block(&mut want);
            prop_assert_eq!(got, want);

            let (mut got, mut want) = (block, block);
            hw.decrypt_block(dec, &mut got);
            oracle.decrypt_block(&mut want);
            prop_assert_eq!(got, want);
        }

        /// SHA-NI ≡ scalar rounds from arbitrary chaining states (midstates
        /// are what HMAC and PBKDF2 resume from) over runs of 1..=9 blocks.
        #[test]
        fn shani_compress_matches_the_scalar_rounds(
            state in vec(any::<u32>(), 8),
            blocks in 1usize..=9,
            data in vec(any::<u8>(), 9 * 64),
        ) {
            let Some(hw) = ShaNi::detect() else {
                return Ok(()); // no SHA-NI on this CPU: nothing to compare
            };
            let state: [u32; 8] = state.try_into().expect("eight words");
            let (all, _) = data.as_chunks::<64>();
            let run = &all[..blocks];

            let mut got = state;
            hw.compress(&mut got, run);
            let mut want = state;
            for block in run {
                compress_portable(&mut want, block);
            }
            prop_assert_eq!(got, want);
        }

        /// `vpshufb` products ≡ bit-serial multiply: every byte of slices
        /// that start off a vector boundary and end in a ragged tail.
        #[test]
        fn avx2_mul_acc_matches_the_bit_serial_multiply(
            c in any::<u8>(),
            dst in vec(any::<u8>(), 0..200),
            src in vec(any::<u8>(), 201),
        ) {
            let Some(hw) = Avx2::detect() else {
                return Ok(()); // no AVX2 on this CPU: nothing to compare
            };
            let lo: [u8; 16] = std::array::from_fn(|v| gf_mul(c, v as u8));
            let hi: [u8; 16] = std::array::from_fn(|v| gf_mul(c, (v as u8) << 4));
            let src = &src[1..1 + dst.len()];
            let want: Vec<u8> = dst.iter().zip(src).map(|(d, &s)| d ^ gf_mul(c, s)).collect();
            let mut got = dst;
            hw.mul_acc(&lo, &hi, &mut got, src);
            prop_assert_eq!(got, want);
        }

        /// The transposes compiled for AVX2 ≡ the same source compiled for
        /// the baseline, short last tuple and over-long planes included.
        #[test]
        fn avx2_transposes_match_the_baseline_build(
            m in 1usize..=6,
            data in vec(any::<u8>(), 0..700),
            slack in 0usize..=3,
        ) {
            let Some(hw) = Avx2::detect() else {
                return Ok(()); // no AVX2 on this CPU: nothing to compare
            };
            let len = data.len().div_ceil(m) + slack;
            let (mut planes, mut want) = (vec![0xa5u8; m * len], vec![0xa5u8; m * len]);
            hw.deinterleave(&data, m, &mut planes);
            deinterleave_body(&data, m, &mut want);
            prop_assert_eq!(&planes, &want);

            let (mut back, mut want) = (vec![0xa5u8; data.len()], vec![0xa5u8; data.len()]);
            hw.interleave(&planes, m, &mut back);
            interleave_body(&planes, m, &mut want);
            prop_assert_eq!(&back, &want);
            prop_assert_eq!(back, data);
        }
    }
}
