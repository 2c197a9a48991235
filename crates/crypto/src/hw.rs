//! Hardware round functions and slice kernels: AES-NI, SHA-NI, the AVX2
//! GF(2⁸) multiply, and the VAES AES-CTR run kernel and keyed-check kernel
//! behind runtime detection.
//!
//! This is the workspace's only `unsafe` code.  It exists for a measured
//! gain (a 64 KiB CBC decrypt 354 → 13 µs, a 64 KiB SHA-256 272 → 47 µs, a
//! 64 KiB 2-of-3 IDA split 122 → 11 µs, a 1 KiB AES-256-CTR block
//! 247 → 76 ns, a 1 KiB keyed check ≈ 4.9 µs → 95 ns on the reference host)
//! that safe Rust has no operation for, and it adds no dependency: the
//! intrinsics are `core::arch::x86_64`.
//!
//! # The VAES CTR run kernel
//!
//! The eight-lane AES-NI loop ([`AesNi::ctr_apply`]) ciphers one disk block
//! at a time, eight 16-byte blocks per round key, ≈ 250 ns per 1 KiB block
//! with AES-256.  VAES runs the same rounds on four 16-byte blocks per
//! `zmm` register.  [`Vaes::ctr_run`] takes a whole run — every nonce and
//! the equal disk blocks back to back — and ciphers two disk blocks side by
//! side, four registers each, so eight `vaesenc` chains are in flight per
//! round key.  It broadcasts the round keys into `zmm` registers once per
//! run, and it builds each counter in a register: the nonce byte-swapped into
//! a little-endian 128-bit lane, stepped by a 64-bit add and swapped back
//! per lane.  A lone block (a run of one) takes the same kernel at four
//! registers.  On the reference host a 1 KiB block costs ≈ 85 ns
//! alone and ≈ 76 ns in a run, against the AES-NI loop's ≈ 247 (3.2×).
//!
//! The kernel gives exactly AES-NI's bytes, and hands AES-NI whatever it
//! cannot do exactly: a block whose counters would carry out of the low 64
//! bits (the 64-bit add cannot carry, and the 2¹²⁸ wrap is such a carry;
//! a block nonce's counters start at zero there and never do), the part
//! of a block past its whole 256-byte groups, blocks under one group, and
//! an odd block out of a run, which runs alone at four registers.  Hosts
//! without VAES use the AES-NI loop throughout.
//!
//! # The keyed-check kernel
//!
//! The keyed check (`crate::check`) enciphers every 16-byte block of a
//! message under its own offset and XOR-folds the results, so all of a
//! message's blocks are independent.  [`Vaes::check_sums`] takes every
//! message of a call and runs two of equal length side by side, four `zmm`
//! registers of four blocks each, on the same broadcast round keys and
//! [`encrypt512`] as the CTR kernel: each group's sixteen offsets are
//! loaded once for both messages, and each message folds into one register
//! whose four lanes fold last.  The blocks past a message's whole 256-byte
//! groups go through the eight-lane AES-NI loop ([`AesNi::check_sum`]),
//! and so does a message under one group; an odd message out runs alone at
//! four registers.  On the reference host a 1 KiB message costs ≈ 95 ns in
//! a run and ≈ 195 ns alone in its own call, against ≈ 175 ns on the AES-NI
//! loop, ≈ 4.9 µs on the T-tables, and ≈ 400 ns for the sixteen-lane
//! AVX-512 SHA-256 check it replaced (format v2).
//!
//! # Safety argument
//!
//! Two kinds of operation here are `unsafe`, and each has one reason to be
//! sound:
//!
//! * **Calling a `#[target_feature]` function.**  Every function that
//!   executes an AES, SHA, AVX2 or AVX-512 instruction is gated by
//!   `#[target_feature(enable = ...)]` — for AVX2 that is [`mul_acc`], the
//!   two transposes [`deinterleave`] and [`interleave`], and the
//!   [`load256`] / [`store256`] they use; for VAES (with AVX-512F/BW)
//!   [`ctr_run`], [`ctr_groups`], [`check_sums`], [`check_groups`],
//!   [`encrypt512`] and the [`load512`] / [`store512`] they use — and the
//!   only calls into them from ungated code are the methods of the four
//!   tokens [`AesNi`], [`ShaNi`], [`Avx2`] and [`Vaes`].  Those tokens have
//!   a private field and exactly one constructor each, `detect`, which
//!   returns `Some` only after `is_x86_feature_detected!` has seen every
//!   feature the gated functions enable.  Holding a token is therefore
//!   proof that the instructions exist on this CPU; nothing outside this
//!   file can make one.
//! * **Unaligned vector loads and stores.**  All of them go through
//!   [`load`] and [`store`] (`&[u8; 16]` / `&mut [u8; 16]`), [`load256`]
//!   and [`store256`] (`&[u8; 32]` / `&mut [u8; 32]`), or [`load512`] and
//!   [`store512`] (`&[u8; 64]` / `&mut [u8; 64]`): the reference
//!   guarantees that many readable (writable) in-bounds bytes, and
//!   `loadu`/`storeu` have no alignment requirement.  No pointer
//!   arithmetic happens anywhere; buffers are cut into 16-, 32- or 64-byte
//!   arrays by safe slice methods first, and a ragged tail is copied
//!   through an array on the stack.  The VAES kernel's 64-byte loads and
//!   stores are sound this way: it sees each disk block's whole
//!   256-byte groups as `&mut [[u8; 64]]`, cut by safe `as_chunks_mut` from
//!   the block's first `bulk` bytes, so every access is one whole chunk of
//!   the caller's buffer, and the ragged rest of a block is never touched by
//!   a 64-byte access: it goes to the AES-NI loop.  The check kernel reads
//!   messages and the offset table the same way, as `&[[u8; 64]]` cut by
//!   safe `as_chunks` from each message's whole groups and from the table;
//!   a message's group count bounds every index, and the table is at least
//!   as long as the message (asserted before any load).  No load address
//!   depends on secret data.
//!
//! Everything else — the counter arithmetic, the batching, the key and state
//! layout, the nibble tables — is safe code, and a bug there is a wrong
//! answer that the equivalence tests against the portable code catch, not
//! undefined behaviour.  The two GF(2⁸) transposes contain no `unsafe` at all: they
//! are `crate::gf256`'s safe loops, `inline(always)`, instantiated a second
//! time inside a gated wrapper so that the compiler may use 32-byte shuffles
//! for them.  The tests at the bottom run every entry point against the
//! T-table AES, the scalar SHA-256 and the bit-serial GF(2⁸) multiply on any
//! host that has the features; the VAES kernel is held to the T-tables
//! block by block, with nonces chosen so that the 2⁶⁴ carry and the 2¹²⁸
//! wrap land in either block of a pair.

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

/// Proof that this CPU executes the 512-bit AES rounds (VAES), the
/// AVX-512F/BW adds and byte shuffles the CTR run kernel builds its
/// counters with, and AES-NI, which its exact fallbacks run on.
#[derive(Clone, Copy)]
pub(crate) struct Vaes(());

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

#[target_feature(enable = "avx512f")]
#[inline]
fn load512(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: `bytes` is a reference to 64 in-bounds readable bytes and the
    // load is the unaligned form.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store512(bytes: &mut [u8; 64], v: __m512i) {
    // SAFETY: `bytes` is a unique reference to 64 in-bounds writable bytes
    // and the store is the unaligned form.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), v) }
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

    /// The keyed check's `Σ = ⊕ AES(msg_i ⊕ offsets_i)` over the 16-byte
    /// blocks of `msg` (`crate::check`), eight blocks in flight.
    ///
    /// # Panics
    /// Panics unless `msg` is whole blocks with an offset for each.
    pub(crate) fn check_sum(self, rk: &[[u8; 16]], offsets: &[[u8; 16]], msg: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists only if `detect` saw the `aes` feature.
        unsafe { check_sum(rk, offsets, msg) }
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

#[target_feature(enable = "aes")]
fn check_sum(rk: &[[u8; 16]], offsets: &[[u8; 16]], msg: &[u8]) -> [u8; 16] {
    let (blocks, rest) = msg.as_chunks::<16>();
    assert!(
        rest.is_empty() && blocks.len() <= offsets.len(),
        "whole blocks, an offset for each"
    );
    let mut sum = _mm_setzero_si128();
    let bulk = blocks.len() - blocks.len() % LANES;
    for (batch, deltas) in blocks[..bulk]
        .chunks_exact(LANES)
        .zip(offsets.chunks_exact(LANES))
    {
        let mut state = [_mm_setzero_si128(); LANES];
        for ((s, block), delta) in state.iter_mut().zip(batch).zip(deltas) {
            *s = _mm_xor_si128(load(block), load(delta));
        }
        for e in encrypt(rk, state) {
            sum = _mm_xor_si128(sum, e);
        }
    }
    // Under eight blocks left: one at a time.
    for (block, delta) in blocks[bulk..].iter().zip(&offsets[bulk..]) {
        let [e] = encrypt(rk, [_mm_xor_si128(load(block), load(delta))]);
        sum = _mm_xor_si128(sum, e);
    }
    let mut out = [0u8; 16];
    store(&mut out, sum);
    out
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

/// Bytes of one disk block the VAES kernel ciphers per step: four `zmm`
/// registers of four AES blocks each.
const GROUP: usize = 4 * 64;

impl Vaes {
    /// The token, if the CPU reports VAES, AVX-512F, AVX-512BW and AES-NI.
    pub(crate) fn detect() -> Option<Self> {
        (std::is_x86_feature_detected!("aes")
            && std::is_x86_feature_detected!("vaes")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw"))
        .then_some(Vaes(()))
    }

    /// XOR each of the `ivs.len()` equal blocks of `data` with the CTR
    /// keystream that starts at its IV: block `i` gets exactly the bytes
    /// [`AesNi::ctr_apply`] would give it from `ivs[i]`.
    ///
    /// # Panics
    /// Panics unless `data` splits into one equal block per IV.
    pub(crate) fn ctr_run(self, rk: &[[u8; 16]], ivs: &[[u8; 16]], data: &mut [u8]) {
        // SAFETY: `self` exists only if `detect` saw `aes`, `vaes`,
        // `avx512f` and `avx512bw`, the features `ctr_run` enables.
        unsafe { ctr_run(rk, ivs, data) }
    }

    /// [`AesNi::check_sum`] of every message into `sums`: two messages of
    /// equal length side by side where they pair up, four registers each.
    ///
    /// # Panics
    /// Panics unless there is one sum per message, and every message is
    /// whole blocks with an offset for each.
    pub(crate) fn check_sums(
        self,
        rk: &[[u8; 16]],
        offsets: &[[u8; 16]],
        msgs: &[&[u8]],
        sums: &mut [[u8; 16]],
    ) {
        // SAFETY: `self` exists only if `detect` saw `aes`, `vaes`,
        // `avx512f` and `avx512bw`, the features `check_sums` enables.
        unsafe { check_sums(rk, offsets, msgs, sums) }
    }
}

/// Whether the counters of a block's `bulk` bytes, from `iv` on, carry out
/// of the low 64 bits (which includes the 2¹²⁸ wrap): the kernel's 64-bit
/// lane add would drop that carry.
fn carries(iv: &[u8; 16], bulk: usize) -> bool {
    let low = u64::from_be_bytes(*iv.last_chunk().expect("a counter has 64 low bits"));
    low.checked_add((bulk / 16) as u64 - 1).is_none()
}

/// The counter `steps` AES blocks after `iv`, with the full 128-bit carry.
fn advance(iv: &[u8; 16], steps: usize) -> [u8; 16] {
    u128::from_be_bytes(*iv)
        .wrapping_add(steps as u128)
        .to_be_bytes()
}

#[target_feature(enable = "aes,vaes,avx512f,avx512bw")]
fn ctr_run(rk: &[[u8; 16]], ivs: &[[u8; 16]], data: &mut [u8]) {
    let Some(block_len) = data.len().checked_div(ivs.len()) else {
        return assert!(data.is_empty(), "one equal block per IV");
    };
    assert_eq!(data.len(), ivs.len() * block_len, "one equal block per IV");
    if block_len == 0 {
        return;
    }
    // Each key is broadcast to all four 128-bit lanes once per run.
    let mut round_keys = [_mm512_setzero_si512(); 15];
    for (k, key) in round_keys.iter_mut().zip(rk) {
        *k = _mm512_broadcast_i32x4(load(key));
    }
    let keys = &round_keys[..rk.len()];

    // The whole groups of each block go through the kernel, two blocks side
    // by side; the rest of a block (under 256 bytes) is AES-NI's, from the
    // counter the kernel stopped at.  A block whose groups would carry out of
    // the low 64 counter bits is AES-NI's whole.
    let bulk = block_len - block_len % GROUP;
    let tail = |iv: &[u8; 16], block: &mut [u8]| {
        ctr_apply(rk, &advance(iv, bulk / 16), &mut block[bulk..])
    };
    let mut waiting: Option<(&[u8; 16], &mut [u8])> = None;
    for (iv, block) in ivs.iter().zip(data.chunks_exact_mut(block_len)) {
        if bulk == 0 || carries(iv, bulk) {
            ctr_apply(rk, iv, block);
            continue;
        }
        match waiting.take() {
            None => waiting = Some((iv, block)),
            Some((first_iv, first)) => {
                ctr_groups(
                    keys,
                    [first_iv, iv],
                    [
                        first[..bulk].as_chunks_mut().0,
                        block[..bulk].as_chunks_mut().0,
                    ],
                );
                tail(first_iv, first);
                tail(iv, block);
            }
        }
    }
    // An odd block out runs alone, four registers in flight.
    if let Some((iv, block)) = waiting {
        ctr_groups(keys, [iv], [block[..bulk].as_chunks_mut().0]);
        tail(iv, block);
    }
    // A round key is as good as the key: wipe the broadcast copies.
    round_keys.fill(_mm512_setzero_si512());
    std::hint::black_box(&round_keys);
}

/// Encrypt `B` × 4 registers of four blocks each under the broadcast
/// schedule `keys`: `4B` independent `vaesenc` chains per round key.
#[target_feature(enable = "vaes,avx512f")]
#[inline]
fn encrypt512<const B: usize>(keys: &[__m512i], mut state: [[__m512i; 4]; B]) -> [[__m512i; 4]; B] {
    let [first, middle @ .., last] = keys else {
        unreachable!("an AES schedule has at least eleven round keys")
    };
    for s in state.as_flattened_mut() {
        *s = _mm512_xor_si512(*s, *first);
    }
    for k in middle {
        for s in state.as_flattened_mut() {
            *s = _mm512_aesenc_epi128(*s, *k);
        }
    }
    for s in state.as_flattened_mut() {
        *s = _mm512_aesenclast_epi128(*s, *last);
    }
    state
}

/// CTR over `B` blocks of whole groups at once, block `b` keyed from
/// `ivs[b]`, none of whose counters carry out of the low 64 bits.
#[target_feature(enable = "aes,vaes,avx512f,avx512bw")]
fn ctr_groups<const B: usize>(
    keys: &[__m512i],
    ivs: [&[u8; 16]; B],
    mut blocks: [&mut [[u8; 64]]; B],
) {
    // A counter is held byte-reversed, as a little-endian 128-bit lane, so
    // one 64-bit add steps it; the same per-lane byte swap turns it back
    // into the big-endian block AES encrypts.
    let swap = _mm512_set4_epi32(0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f);
    let lanes = _mm512_set_epi64(0, 3, 0, 2, 0, 1, 0, 0);
    let four = _mm512_set_epi64(0, 4, 0, 4, 0, 4, 0, 4);
    let mut counters = [_mm512_setzero_si512(); B];
    for (c, iv) in counters.iter_mut().zip(ivs) {
        *c = _mm512_add_epi64(
            _mm512_shuffle_epi8(_mm512_broadcast_i32x4(load(iv)), swap),
            lanes,
        );
    }
    let groups = blocks[0].len() / 4;
    for g in 0..groups {
        let mut state = [[_mm512_setzero_si512(); 4]; B];
        for (regs, c) in state.iter_mut().zip(&mut counters) {
            for r in regs {
                *r = _mm512_shuffle_epi8(*c, swap);
                *c = _mm512_add_epi64(*c, four);
            }
        }
        let keystream = encrypt512(keys, state);
        for (block, ks) in blocks.iter_mut().zip(keystream) {
            for (chunk, k) in block[4 * g..4 * g + 4].iter_mut().zip(ks) {
                store512(chunk, _mm512_xor_si512(load512(chunk), k));
            }
        }
    }
}

#[target_feature(enable = "aes,vaes,avx512f,avx512bw")]
fn check_sums(rk: &[[u8; 16]], offsets: &[[u8; 16]], msgs: &[&[u8]], sums: &mut [[u8; 16]]) {
    assert_eq!(msgs.len(), sums.len(), "one sum per message");
    let mut round_keys = [_mm512_setzero_si512(); 15];
    for (k, key) in round_keys.iter_mut().zip(rk) {
        *k = _mm512_broadcast_i32x4(load(key));
    }
    let keys = &round_keys[..rk.len()];

    // The whole groups of each message go through the kernel, two messages
    // side by side when their groups match; the blocks past them (under
    // sixteen) are AES-NI's, from the offset the kernel stopped at.
    let (deltas, _) = offsets.as_flattened().as_chunks::<64>();
    let groups = |msg: &[u8]| msg.len() / GROUP;
    let tail = |msg: &[u8]| {
        let bulk = groups(msg) * GROUP;
        check_sum(rk, &offsets[bulk / 16..], &msg[bulk..])
    };
    let lone = |msg: &[u8], sum: &mut [u8; 16]| {
        let bulk = groups(msg) * GROUP;
        let [s] = check_groups(keys, deltas, [msg[..bulk].as_chunks().0]);
        *sum = xor16(s, tail(msg));
    };
    let mut waiting: Option<(&[u8], &mut [u8; 16])> = None;
    for (&msg, sum) in msgs.iter().zip(sums.iter_mut()) {
        assert!(
            msg.len().is_multiple_of(16) && msg.len() / 16 <= offsets.len(),
            "whole blocks, an offset for each"
        );
        if groups(msg) == 0 {
            *sum = check_sum(rk, offsets, msg);
            continue;
        }
        match waiting.take() {
            None => waiting = Some((msg, sum)),
            Some((first, first_sum)) if groups(first) == groups(msg) => {
                let bulk = groups(msg) * GROUP;
                let [a, b] = check_groups(
                    keys,
                    deltas,
                    [first[..bulk].as_chunks().0, msg[..bulk].as_chunks().0],
                );
                *first_sum = xor16(a, tail(first));
                *sum = xor16(b, tail(msg));
            }
            Some((first, first_sum)) => {
                lone(first, first_sum);
                waiting = Some((msg, sum));
            }
        }
    }
    // An odd message out runs alone, four registers in flight.
    if let Some((msg, sum)) = waiting {
        lone(msg, sum);
    }
    // A round key is as good as the key: wipe the broadcast copies.
    round_keys.fill(_mm512_setzero_si512());
    std::hint::black_box(&round_keys);
}

fn xor16(a: [u8; 16], b: [u8; 16]) -> [u8; 16] {
    std::array::from_fn(|i| a[i] ^ b[i])
}

/// `Σ` over the whole groups of `B` equally long messages at once: each
/// group's sixteen blocks XORed with their offsets (the same for every
/// message), enciphered at `4B` `vaesenc` chains per round key, and folded
/// into one register per message, whose four lanes fold last.
#[target_feature(enable = "aes,vaes,avx512f,avx512bw")]
fn check_groups<const B: usize>(
    keys: &[__m512i],
    deltas: &[[u8; 64]],
    msgs: [&[[u8; 64]]; B],
) -> [[u8; 16]; B] {
    let mut acc = [_mm512_setzero_si512(); B];
    for (g, d) in deltas.chunks_exact(4).take(msgs[0].len() / 4).enumerate() {
        let mut delta = [_mm512_setzero_si512(); 4];
        for (v, d) in delta.iter_mut().zip(d) {
            *v = load512(d);
        }
        let mut state = [[_mm512_setzero_si512(); 4]; B];
        for (regs, msg) in state.iter_mut().zip(&msgs) {
            for ((r, chunk), d) in regs.iter_mut().zip(&msg[4 * g..4 * g + 4]).zip(delta) {
                *r = _mm512_xor_si512(load512(chunk), d);
            }
        }
        for (a, [e0, e1, e2, e3]) in acc.iter_mut().zip(encrypt512(keys, state)) {
            let folded = _mm512_xor_si512(_mm512_xor_si512(e0, e1), _mm512_xor_si512(e2, e3));
            *a = _mm512_xor_si512(*a, folded);
        }
    }
    let mut out = [[0u8; 16]; B];
    for (o, a) in out.iter_mut().zip(acc) {
        let low = _mm_xor_si128(
            _mm512_extracti32x4_epi32::<0>(a),
            _mm512_extracti32x4_epi32::<1>(a),
        );
        let high = _mm_xor_si128(
            _mm512_extracti32x4_epi32::<2>(a),
            _mm512_extracti32x4_epi32::<3>(a),
        );
        store(o, _mm_xor_si128(low, high));
    }
    out
}

/// The tokens' own entry points against the portable code.  The mode loops,
/// the keyed check, the incremental hasher and the slice kernels built on
/// them are compared in `crate::modes`, `crate::check`, `crate::sha256` and
/// `crate::gf256`, whose tests run on every target.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{gf_mul, Aes};
    use crate::gf256::{deinterleave_body, interleave_body};
    use crate::modes::CtrCipher;
    use crate::sha256::compress_portable;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `data` through the run kernel with one IV per block, and through the
    /// T-tables block by block: `(kernel, oracle)`.
    fn run_both(hw: Vaes, key: &[u8], ivs: &[[u8; 16]], data: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let aes = Aes::new(key);
        let (_, enc) = aes.hw_encryptor().expect("VAES implies AES-NI");
        let mut got = data.to_vec();
        hw.ctr_run(enc, ivs, &mut got);
        let oracle = CtrCipher::from_aes(Aes::portable(key));
        let mut want = data.to_vec();
        for (iv, block) in ivs
            .iter()
            .zip(want.chunks_exact_mut(data.len() / ivs.len()))
        {
            oracle.apply(iv, block);
        }
        (got, want)
    }

    /// The 2⁶⁴ carry (high half 3c…) and the 2¹²⁸ wrap (high half ff…)
    /// land in the first, then in the second block of an interleaved pair —
    /// in runs of two and three blocks, so the block beside the carrying one
    /// runs paired or alone — on lanes 0, 1, 15 and 16 of the first group,
    /// in the last group, in the last counter, and in the ragged tail past
    /// the whole groups.
    #[test]
    fn vaes_runs_carry_and_wrap_like_the_t_tables() {
        let Some(hw) = Vaes::detect() else {
            return; // no VAES on this CPU: nothing to compare
        };
        let key = [0x61u8; 32];
        for block_len in [256usize, 1024, 1024 + 40] {
            let counters = block_len.div_ceil(16);
            let data: Vec<u8> = (0..3 * block_len).map(|i| (i * 7 % 251) as u8).collect();
            for high in [[0x3cu8; 8], [0xffu8; 8]] {
                // The carry lands between counter `short` and `short + 1`.
                for short in [0, 1, 15, 16, 47, counters - 2, block_len / 16] {
                    let mut carrying = high.to_vec();
                    carrying.extend_from_slice(&(u64::MAX - short as u64).to_be_bytes());
                    let carrying: [u8; 16] = carrying.try_into().expect("sixteen bytes");
                    for blocks in [2, 3] {
                        for at in 0..2 {
                            let mut ivs = [[0x5au8; 16], [0xa7u8; 16], [0x11u8; 16]];
                            ivs[at] = carrying;
                            let (got, want) =
                                run_both(hw, &key, &ivs[..blocks], &data[..blocks * block_len]);
                            assert!(
                                got == want,
                                "{blocks} blocks of {block_len}, carry after counter {short} of block {at}, high {high:02x?}"
                            );
                        }
                    }
                }
            }
        }
    }

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

        /// The run kernel ≡ T-tables block by block, on runs of 1..=9
        /// blocks with a different IV per block and lengths that are whole
        /// groups, ragged, or under one group.
        #[test]
        fn vaes_runs_match_the_t_tables(
            key in vec(any::<u8>(), 32),
            key_words in 2usize..=4,
            blocks in 1usize..=9,
            shape in 0usize..4,
            ragged in 1usize..=1100,
            ivs in vec(any::<u8>(), 9 * 16),
            seed in any::<u8>(),
        ) {
            let Some(hw) = Vaes::detect() else {
                return Ok(()); // no VAES on this CPU: nothing to compare
            };
            let block_len = [16, 256, 1024, ragged][shape];
            let key = &key[..8 * key_words];
            let ivs = &ivs.as_chunks::<16>().0[..blocks];
            let data: Vec<u8> = (0..blocks * block_len).map(|i| (i as u8).wrapping_mul(seed)).collect();
            let (got, want) = run_both(hw, key, ivs, &data);
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
