//! AES block cipher (FIPS 197), supporting 128-, 192- and 256-bit keys.
//!
//! StegFS encrypts every block of a hidden object (header, inode blocks and
//! data blocks) so that allocated-but-hidden blocks are indistinguishable from
//! the pseudorandom fill written into the volume at format time.  The paper
//! names AES as the block cipher.  Every block in the write path crosses this
//! cipher at least twice (object CTR + journal slot), so its per-block cost
//! bounds hidden-I/O throughput on a CPU-saturated box.
//!
//! Two round functions sit under the one [`Aes`] interface, chosen per key
//! at expansion time from what the CPU reports (never from a parameter,
//! feature or environment variable):
//!
//! * **AES-NI** (`crate::hw`, x86-64 with the `aes` feature): one
//!   instruction per round, and the mode loops in [`crate::modes`] keep eight
//!   independent blocks in flight — **≈ 4 ns/block** in CTR and CBC-decrypt,
//!   ≈ 18 ns/block where the mode chains (CBC-encrypt, a lone block).  Where
//!   the CPU also has VAES, CTR runs on the 512-bit rounds instead, four
//!   blocks per register and two disk blocks side by side — **≈ 1.2
//!   ns/block** — with exact fallbacks to the eight-block loop.
//! * **T-tables** (this file, every other host): SubBytes + ShiftRows +
//!   MixColumns fused into four 1 KiB lookup tables, four table reads per
//!   column per round — the form OpenSSL and the Linux kernel use without
//!   AES-NI — **≈ 81 ns/block** encrypt, 84 decrypt.  It is also the oracle
//!   the hardware path is tested against (the back-end equivalence tests in
//!   `crate::modes` and `crate::hw`).
//!
//! Both are validated against the FIPS 197 and NIST SP 800-38A vectors and
//! produce the same bytes, so disk images do not depend on the host.  One
//! difference is not about speed: the table indices are secret state bytes,
//! which makes the T-table path a cache-timing channel for anyone sharing
//! the CPU's caches; the hardware rounds touch no secret-indexed memory.
//! Key expansion is the FIPS 197 software routine on every host.

use crate::hw::{AesNi, Vaes};

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

#[inline]
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// `a · b` in GF(2⁸) modulo x⁸ + x⁴ + x³ + x + 1, one bit of `b` at a time.
#[inline]
pub(crate) const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

// --- T-tables -------------------------------------------------------------
//
// One encryption round maps input columns (s0, s1, s2, s3) to
//   t_j = TE0[s_j >> 24] ^ TE1[(s_{j+1} >> 16) & 0xff]
//       ^ TE2[(s_{j+2} >> 8) & 0xff] ^ TE3[s_{j+3} & 0xff] ^ rk_j
// where each TEi entry pre-combines SubBytes with that byte's MixColumns
// contribution ([2,1,1,3] rotated per row).  Decryption uses the
// "equivalent inverse cipher" (FIPS 197 §5.3.5): TD tables over INV_SBOX
// with the [0e,09,0d,0b] matrix, and round keys pre-passed through
// InvMixColumns so the round shape matches encryption.

const fn te_entry(x: usize, rot: u32) -> u32 {
    let s = SBOX[x];
    let s2 = xtime(s);
    let s3 = s2 ^ s;
    let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
    w.rotate_right(rot)
}

const fn td_entry(x: usize, rot: u32) -> u32 {
    let s = INV_SBOX[x];
    let w = ((gf_mul(s, 0x0e) as u32) << 24)
        | ((gf_mul(s, 0x09) as u32) << 16)
        | ((gf_mul(s, 0x0d) as u32) << 8)
        | (gf_mul(s, 0x0b) as u32);
    w.rotate_right(rot)
}

const fn build_table(enc: bool, rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = if enc {
            te_entry(i, rot)
        } else {
            td_entry(i, rot)
        };
        i += 1;
    }
    t
}

const TE0: [u32; 256] = build_table(true, 0);
const TE1: [u32; 256] = build_table(true, 8);
const TE2: [u32; 256] = build_table(true, 16);
const TE3: [u32; 256] = build_table(true, 24);
const TD0: [u32; 256] = build_table(false, 0);
const TD1: [u32; 256] = build_table(false, 8);
const TD2: [u32; 256] = build_table(false, 16);
const TD3: [u32; 256] = build_table(false, 24);

/// Key size variants supported by [`Aes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }
}

/// Process-wide count of key schedules built (see [`Aes::key_expansions`]).
static KEY_EXPANSIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Round keys of the longest schedule (AES-256: 14 rounds + the whitening
/// key); shorter schedules leave the tail zero.
const MAX_ROUND_KEYS: usize = 15;

/// A schedule in FIPS 197 byte order, one round key per row: what the AES-NI
/// round instructions load.
type RoundKeyBytes = [[u8; BLOCK_LEN]; MAX_ROUND_KEYS];

/// An expanded AES key ready to encrypt or decrypt 16-byte blocks.
///
/// Holds both schedules inline (no heap, so `Clone` is a copy): the
/// encryption round keys and the equivalent-inverse-cipher keys (round keys
/// passed through InvMixColumns, which is what both the T-table decryption
/// rounds and `aesdec` consume), each as big-endian words for the T-tables
/// and in byte order for the hardware rounds.  Every copy is zeroed on drop:
/// a round key is as good as the key.
#[derive(Clone)]
pub struct Aes {
    enc_keys: [u32; 4 * MAX_ROUND_KEYS],
    dec_keys: [u32; 4 * MAX_ROUND_KEYS],
    enc_bytes: RoundKeyBytes,
    dec_bytes: RoundKeyBytes,
    rounds: usize,
    /// The hardware round function, when this CPU has one.
    hw: Option<AesNi>,
    /// The 512-bit CTR run kernel, when this CPU has one.
    vaes: Option<Vaes>,
}

impl Drop for Aes {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Serialize a word schedule into FIPS 197 byte order.
fn schedule_bytes(words: &[u32; 4 * MAX_ROUND_KEYS]) -> RoundKeyBytes {
    let mut out = [[0u8; BLOCK_LEN]; MAX_ROUND_KEYS];
    for (bytes, word) in out.as_flattened_mut().chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

impl Aes {
    /// Expand `key` (16, 24 or 32 bytes).
    ///
    /// # Panics
    /// Panics if the key length is not one of the three AES key sizes; key
    /// material inside StegFS is always produced by the KDF and has a fixed
    /// length, so a wrong length is a programming error rather than an I/O
    /// error.
    pub fn new(key: &[u8]) -> Self {
        let size = match key.len() {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            other => panic!("invalid AES key length: {other} bytes"),
        };
        Self::with_key_size(key, size)
    }

    /// Number of key expansions performed by this process so far.
    ///
    /// Key expansion is the expensive, once-per-key part of AES; layers above
    /// are expected to build an [`Aes`] (or a cipher wrapping one) once per
    /// object and reuse it across blocks.  This process-wide counter lets
    /// tests assert that discipline: snapshot it, run N block operations, and
    /// require that the count grew by the number of *keys*, not blocks.
    pub fn key_expansions() -> u64 {
        KEY_EXPANSIONS.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Expand a key whose size is stated explicitly.
    pub fn with_key_size(key: &[u8], size: KeySize) -> Self {
        assert_eq!(key.len(), size.key_words() * 4, "key length mismatch");
        KEY_EXPANSIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let nk = size.key_words();
        let rounds = size.rounds();
        let total_words = 4 * (rounds + 1);

        let mut w = [[0u8; 4]; 4 * MAX_ROUND_KEYS];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        let enc_keys = w.map(u32::from_be_bytes);
        crate::ct::zeroize(&mut w);

        // Equivalent inverse cipher: dk[0] = rk[last], middle round keys are
        // InvMixColumns(rk[mirror]), dk[last] = rk[0].
        let mut dec_keys = [0u32; 4 * MAX_ROUND_KEYS];
        for r in 0..=rounds {
            for c in 0..4 {
                let src = enc_keys[(rounds - r) * 4 + c];
                dec_keys[r * 4 + c] = if r == 0 || r == rounds {
                    src
                } else {
                    inv_mix_word(src)
                };
            }
        }

        Aes {
            enc_bytes: schedule_bytes(&enc_keys),
            dec_bytes: schedule_bytes(&dec_keys),
            enc_keys,
            dec_keys,
            rounds,
            hw: AesNi::detect(),
            vaes: Vaes::detect(),
        }
    }

    /// [`Aes::new`] pinned to the T-table rounds whatever the CPU offers:
    /// the oracle side of the hardware-equivalence tests.
    #[cfg(test)]
    pub(crate) fn portable(key: &[u8]) -> Self {
        let mut aes = Self::new(key);
        aes.hw = None;
        aes.vaes = None;
        aes
    }

    /// [`Aes::new`] pinned to the eight-lane AES-NI loop where the CPU has
    /// AES-NI (the T-tables where it does not), so that a VAES host still
    /// tests that loop against the other two back ends.
    #[cfg(test)]
    pub(crate) fn aes_ni(key: &[u8]) -> Self {
        let mut aes = Self::new(key);
        aes.vaes = None;
        aes
    }

    /// The hardware round function and the byte-order encryption schedule
    /// it reads, when this key uses it: the mode loops in [`crate::modes`]
    /// hand whole buffers to it.
    pub(crate) fn hw_encryptor(&self) -> Option<(AesNi, &[[u8; BLOCK_LEN]])> {
        Some((self.hw?, &self.enc_bytes[..=self.rounds]))
    }

    /// The CTR run kernel and the encryption schedule it reads, when this
    /// key uses it.
    pub(crate) fn vaes_encryptor(&self) -> Option<(Vaes, &[[u8; BLOCK_LEN]])> {
        Some((self.vaes?, &self.enc_bytes[..=self.rounds]))
    }

    /// [`Self::hw_encryptor`] for the equivalent-inverse-cipher schedule.
    pub(crate) fn hw_decryptor(&self) -> Option<(AesNi, &[[u8; BLOCK_LEN]])> {
        Some((self.hw?, &self.dec_bytes[..=self.rounds]))
    }

    /// Zero every copy of the round keys.
    fn wipe(&mut self) {
        crate::ct::zeroize(&mut self.enc_keys);
        crate::ct::zeroize(&mut self.dec_keys);
        crate::ct::zeroize(&mut self.enc_bytes);
        crate::ct::zeroize(&mut self.dec_bytes);
    }

    /// Encrypt a single 16-byte block in place.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        if let Some((hw, enc)) = self.hw_encryptor() {
            return hw.encrypt_block(enc, block);
        }
        let rk = &self.enc_keys;
        let (mut s0, mut s1, mut s2, mut s3) = load_state(block);
        s0 ^= rk[0];
        s1 ^= rk[1];
        s2 ^= rk[2];
        s3 ^= rk[3];
        let mut i = 4;
        for _ in 1..self.rounds {
            let t0 = TE0[(s0 >> 24) as usize]
                ^ TE1[((s1 >> 16) & 0xff) as usize]
                ^ TE2[((s2 >> 8) & 0xff) as usize]
                ^ TE3[(s3 & 0xff) as usize]
                ^ rk[i];
            let t1 = TE0[(s1 >> 24) as usize]
                ^ TE1[((s2 >> 16) & 0xff) as usize]
                ^ TE2[((s3 >> 8) & 0xff) as usize]
                ^ TE3[(s0 & 0xff) as usize]
                ^ rk[i + 1];
            let t2 = TE0[(s2 >> 24) as usize]
                ^ TE1[((s3 >> 16) & 0xff) as usize]
                ^ TE2[((s0 >> 8) & 0xff) as usize]
                ^ TE3[(s1 & 0xff) as usize]
                ^ rk[i + 2];
            let t3 = TE0[(s3 >> 24) as usize]
                ^ TE1[((s0 >> 16) & 0xff) as usize]
                ^ TE2[((s1 >> 8) & 0xff) as usize]
                ^ TE3[(s2 & 0xff) as usize]
                ^ rk[i + 3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
            i += 4;
        }
        let t0 = sbox_word(s0, s1, s2, s3) ^ rk[i];
        let t1 = sbox_word(s1, s2, s3, s0) ^ rk[i + 1];
        let t2 = sbox_word(s2, s3, s0, s1) ^ rk[i + 2];
        let t3 = sbox_word(s3, s0, s1, s2) ^ rk[i + 3];
        store_state(block, t0, t1, t2, t3);
    }

    /// Decrypt a single 16-byte block in place.
    #[inline]
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        if let Some((hw, dec)) = self.hw_decryptor() {
            return hw.decrypt_block(dec, block);
        }
        let dk = &self.dec_keys;
        let (mut s0, mut s1, mut s2, mut s3) = load_state(block);
        s0 ^= dk[0];
        s1 ^= dk[1];
        s2 ^= dk[2];
        s3 ^= dk[3];
        let mut i = 4;
        for _ in 1..self.rounds {
            let t0 = TD0[(s0 >> 24) as usize]
                ^ TD1[((s3 >> 16) & 0xff) as usize]
                ^ TD2[((s2 >> 8) & 0xff) as usize]
                ^ TD3[(s1 & 0xff) as usize]
                ^ dk[i];
            let t1 = TD0[(s1 >> 24) as usize]
                ^ TD1[((s0 >> 16) & 0xff) as usize]
                ^ TD2[((s3 >> 8) & 0xff) as usize]
                ^ TD3[(s2 & 0xff) as usize]
                ^ dk[i + 1];
            let t2 = TD0[(s2 >> 24) as usize]
                ^ TD1[((s1 >> 16) & 0xff) as usize]
                ^ TD2[((s0 >> 8) & 0xff) as usize]
                ^ TD3[(s3 & 0xff) as usize]
                ^ dk[i + 2];
            let t3 = TD0[(s3 >> 24) as usize]
                ^ TD1[((s2 >> 16) & 0xff) as usize]
                ^ TD2[((s1 >> 8) & 0xff) as usize]
                ^ TD3[(s0 & 0xff) as usize]
                ^ dk[i + 3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
            i += 4;
        }
        let t0 = inv_sbox_word(s0, s3, s2, s1) ^ dk[i];
        let t1 = inv_sbox_word(s1, s0, s3, s2) ^ dk[i + 1];
        let t2 = inv_sbox_word(s2, s1, s0, s3) ^ dk[i + 2];
        let t3 = inv_sbox_word(s3, s2, s1, s0) ^ dk[i + 3];
        store_state(block, t0, t1, t2, t3);
    }

    /// Number of AES rounds for this key size (10, 12 or 14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

// The state is stored column-major as in FIPS 197: byte (row r, column c) is
// state[c * 4 + r], so column c loads as one big-endian u32 with row 0 in
// the most significant byte.

#[inline]
fn load_state(block: &[u8; BLOCK_LEN]) -> (u32, u32, u32, u32) {
    (
        u32::from_be_bytes([block[0], block[1], block[2], block[3]]),
        u32::from_be_bytes([block[4], block[5], block[6], block[7]]),
        u32::from_be_bytes([block[8], block[9], block[10], block[11]]),
        u32::from_be_bytes([block[12], block[13], block[14], block[15]]),
    )
}

#[inline]
fn store_state(block: &mut [u8; BLOCK_LEN], s0: u32, s1: u32, s2: u32, s3: u32) {
    block[0..4].copy_from_slice(&s0.to_be_bytes());
    block[4..8].copy_from_slice(&s1.to_be_bytes());
    block[8..12].copy_from_slice(&s2.to_be_bytes());
    block[12..16].copy_from_slice(&s3.to_be_bytes());
}

/// Final encryption round for one output column: SubBytes + ShiftRows (row r
/// reads column j+r), no MixColumns.
#[inline]
fn sbox_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(d & 0xff) as usize] as u32)
}

/// Final decryption round for one output column: InvSubBytes + InvShiftRows
/// (row r reads column j-r).
#[inline]
fn inv_sbox_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((INV_SBOX[(a >> 24) as usize] as u32) << 24)
        | ((INV_SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((INV_SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (INV_SBOX[(d & 0xff) as usize] as u32)
}

/// InvMixColumns applied to one round-key word (schedule transform for the
/// equivalent inverse cipher; runs once per key expansion).
fn inv_mix_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        gf_mul(a, 0x0e) ^ gf_mul(b, 0x0b) ^ gf_mul(c, 0x0d) ^ gf_mul(d, 0x09),
        gf_mul(a, 0x09) ^ gf_mul(b, 0x0e) ^ gf_mul(c, 0x0b) ^ gf_mul(d, 0x0d),
        gf_mul(a, 0x0d) ^ gf_mul(b, 0x09) ^ gf_mul(c, 0x0e) ^ gf_mul(d, 0x0b),
        gf_mul(a, 0x0b) ^ gf_mul(b, 0x0d) ^ gf_mul(c, 0x09) ^ gf_mul(d, 0x0e),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; BLOCK_LEN] {
        let v = from_hex(s);
        let mut b = [0u8; BLOCK_LEN];
        b.copy_from_slice(&v);
        b
    }

    /// `key` expanded for every round function this host can run: the one
    /// [`Aes::new`] picks (hardware where the CPU has it) and the T-tables.
    /// On a host without AES-NI the two are the same path.
    fn backends(key: &str) -> [Aes; 2] {
        let key = from_hex(key);
        [Aes::new(&key), Aes::portable(&key)]
    }

    /// Known-answer check on every back end: `plain` encrypts to `cipher`
    /// and `cipher` decrypts to `plain`.
    fn known_answer(key: &str, plain: &str, cipher: &str) {
        for aes in backends(key) {
            let mut state = block(plain);
            aes.encrypt_block(&mut state);
            assert_eq!(state, block(cipher));
            aes.decrypt_block(&mut state);
            assert_eq!(state, block(plain));
        }
    }

    #[test]
    fn fips197_appendix_b_aes128() {
        known_answer(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        known_answer(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        known_answer(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        known_answer(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    #[test]
    fn sp800_38a_ecb_aes256_first_block() {
        known_answer(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "6bc1bee22e409f96e93d7e117393172a",
            "f3eed1bdb5d2a03c064b5a7e3db181f8",
        );
    }

    #[test]
    fn every_copy_of_the_round_keys_is_wiped() {
        // `Drop` is `wipe`; run it by hand so the result can be inspected.
        let mut aes = Aes::new(&[0x5au8; 32]);
        assert!(aes.enc_keys.iter().any(|&w| w != 0));
        assert_eq!(aes.enc_bytes, schedule_bytes(&aes.enc_keys));
        assert_eq!(aes.dec_bytes, schedule_bytes(&aes.dec_keys));
        aes.wipe();
        assert_eq!(aes.enc_keys, [0u32; 60]);
        assert_eq!(aes.dec_keys, [0u32; 60]);
        assert_eq!(aes.enc_bytes, [[0u8; 16]; 15]);
        assert_eq!(aes.dec_bytes, [[0u8; 16]; 15]);
    }

    #[test]
    fn one_counted_expansion_per_key_on_either_back_end() {
        // Process-global counter, concurrent tests: noise only adds, so the
        // quietest window is this thread's own count.
        let min_delta = (0..5)
            .map(|_| {
                let before = Aes::key_expansions();
                let _ = backends("000102030405060708090a0b0c0d0e0f");
                Aes::key_expansions() - before
            })
            .min()
            .expect("five rounds");
        assert_eq!(min_delta, 2);
    }

    #[test]
    fn round_counts() {
        assert_eq!(Aes::new(&[0u8; 16]).rounds(), 10);
        assert_eq!(Aes::new(&[0u8; 24]).rounds(), 12);
        assert_eq!(Aes::new(&[0u8; 32]).rounds(), 14);
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn rejects_bad_key_length() {
        let _ = Aes::new(&[0u8; 20]);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes::new(b"0123456789abcdef0123456789abcdef");
        for i in 0..256u32 {
            let mut b = [0u8; BLOCK_LEN];
            for (j, byte) in b.iter_mut().enumerate() {
                *byte = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
            let original = b;
            aes.encrypt_block(&mut b);
            assert_ne!(b, original, "ciphertext must differ from plaintext");
            aes.decrypt_block(&mut b);
            assert_eq!(b, original);
        }
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Aes::new(&[1u8; 32]);
        let b = Aes::new(&[2u8; 32]);
        let mut x = [7u8; BLOCK_LEN];
        let mut y = [7u8; BLOCK_LEN];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn gf_mul_agrees_with_known_products() {
        // Classic GF(2^8) examples from FIPS 197 section 4.2.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x01, 0xab), 0xab);
        assert_eq!(gf_mul(0x00, 0xab), 0x00);
    }
}
