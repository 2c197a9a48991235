//! SHA-256 (FIPS 180-2).
//!
//! The paper uses SHA-256 for two purposes: deriving the hidden-file
//! signature from `(file name, access key)` and, by recursive hashing of a
//! seed, generating the pseudorandom block numbers that locate a hidden-file
//! header.  The reproduction adds the key derivations (HMAC, PBKDF2), all
//! per-key or per-object work: no per-block job uses the hash.  The
//! compression function has two implementations under the one [`Sha256`]
//! interface: the SHA-NI instructions where the CPU reports them
//! (`crate::hw`, ≈ 1.3 GB/s), and the scalar rounds below everywhere else
//! (≈ 240 MB/s), which are also the oracle the hardware path is tested
//! against.

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in a SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

use crate::hw::ShaNi;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use stegfs_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    /// The hardware compression function, when this CPU has one.
    hw: Option<ShaNi>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
            hw: ShaNi::detect(),
        }
    }

    /// [`Sha256::new`] pinned to the scalar compression function whatever
    /// the CPU offers: the oracle side of the hardware-equivalence tests.
    #[cfg(test)]
    pub(crate) fn portable() -> Self {
        Sha256 {
            hw: None,
            ..Self::new()
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(self.hw, &mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }

        // Every whole block goes to the compression function as one run,
        // straight from the caller's slice; only the ragged end is buffered.
        let (blocks, rest) = input.as_chunks::<BLOCK_LEN>();
        compress(self.hw, &mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finish the computation and return the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; BLOCK_LEN + 8];
        pad[0] = 0x80;
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        self.update(&pad[..pad_len]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffer_len, 0);

        digest_bytes(&self.state)
    }

    /// Digest of everything absorbed so far followed by the 32-byte `tail`,
    /// without consuming (or copying) `self`: the tail, the padding and the
    /// length fit one block, so this is exactly one compression.  This is the
    /// shape of both halves of an HMAC over a digest-sized message.
    ///
    /// # Panics
    /// Panics unless the absorbed input ends on a block boundary.
    pub(crate) fn digest_with_tail(&self, tail: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        assert_eq!(self.buffer_len, 0, "absorbed input must be block-aligned");
        let bit_len = self
            .total_len
            .wrapping_add(DIGEST_LEN as u64)
            .wrapping_mul(8);
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(tail);
        block[DIGEST_LEN] = 0x80;
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = self.state;
        compress(self.hw, &mut state, &[block]);
        digest_bytes(&state)
    }

    /// Zero the chaining state and the buffered input.  A keyed hash state
    /// (HMAC's absorbed pads) is as secret as the key; its owner wipes it on
    /// drop.
    pub(crate) fn wipe(&mut self) {
        crate::ct::zeroize(&mut self.state);
        crate::ct::zeroize(&mut self.buffer);
    }
}

fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function over a run of input blocks, on the
/// hardware rounds when `hw` proves the CPU has them.
fn compress(hw: Option<ShaNi>, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    match hw {
        Some(hw) if !blocks.is_empty() => hw.compress(state, blocks),
        _ => blocks
            .iter()
            .for_each(|block| compress_portable(state, block)),
    }
}

/// The scalar compression function: fold one input block into `state`.
pub(crate) fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round with the working variables passed by name: rotating the
    // names over eight consecutive rounds replaces the textbook
    // `h = g; g = f; ...` shuffle, so no register moves are spent on it.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ ((!$e) & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 over `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte strings, without allocating
/// an intermediate buffer.  Used throughout StegFS to derive signatures and
/// seeds from `(name, key, label)` tuples.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known-answer check on every compression function this host can run:
    /// the one [`Sha256::new`] picks (hardware where the CPU has it) and the
    /// scalar rounds.
    fn known_answer(data: &[u8], digest: &str) {
        assert_eq!(hex(&sha256(data)), digest);
        let mut scalar = Sha256::portable();
        scalar.update(data);
        assert_eq!(hex(&scalar.finalize()), digest);
    }

    #[test]
    fn empty_string() {
        known_answer(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        known_answer(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        known_answer(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        known_answer(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        known_answer(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Split into odd-sized chunks to exercise buffering.
        for chunk_size in [1usize, 3, 7, 13, 63, 64, 65, 100, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn concat_matches_single_buffer() {
        let a = b"hidden";
        let b = b"file";
        let c = b"key material";
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&joined));
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Padding behaviour changes at 55/56/63/64 input bytes; make sure the
        // incremental and one-shot paths agree for all of them.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"stegfs-a"), sha256(b"stegfs-b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// However a message is cut into `update` calls — runs of whole
        /// blocks taken straight from the caller's slice, ragged ends
        /// buffered, a buffered block completed mid-call — the digest is the
        /// one-shot digest, on this host's compression function and on the
        /// scalar one.
        #[test]
        fn digest_is_independent_of_how_updates_split_the_message(
            message in vec(any::<u8>(), 0..=1000),
            cuts in vec(any::<usize>(), 0..8),
        ) {
            let mut oneshot = Sha256::portable();
            oneshot.update(&message);
            let want = oneshot.finalize();
            prop_assert_eq!(sha256(&message), want);

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
            cuts.push(message.len());
            cuts.sort_unstable();
            for mut hasher in [Sha256::new(), Sha256::portable()] {
                let mut at = 0;
                for &cut in &cuts {
                    hasher.update(&message[at..cut]);
                    at = cut;
                }
                prop_assert_eq!(hasher.finalize(), want);
            }
        }
    }
}
