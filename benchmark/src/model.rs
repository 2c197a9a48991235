//! Seeded inputs and the shadow model the verifier checks against.
//!
//! Every file is [`FILE_BYTES`] long, made of [`CHUNKS`] chunks, and the
//! bytes of a chunk are a pure function of (seed, file, chunk, version).
//! The driver therefore never stores file contents: it keeps one version
//! number per chunk and regenerates what any read must return.

/// Size of every benchmark file: the ROADMAP's canonical 64 KiB operation.
pub const FILE_BYTES: usize = 64 * 1024;
/// Size of a partial write.
pub const CHUNK_BYTES: usize = 16 * 1024;
/// Chunks per file.
pub const CHUNKS: usize = FILE_BYTES / CHUNK_BYTES;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields one input sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write into `out` the bytes that chunk `chunk` of file `file` holds at
/// `version`.  `out.len()` is a multiple of 8.
pub fn fill_chunk(seed: u64, file: usize, chunk: usize, version: u32, out: &mut [u8]) {
    let mut state =
        mix(seed ^ mix(((file as u64) << 34) | ((chunk as u64) << 32) | version as u64));
    for word in out.chunks_exact_mut(8) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        word.copy_from_slice(&(state ^ (state >> 29)).to_le_bytes());
    }
}

/// What every file must contain right now.
pub struct Shadow {
    seed: u64,
    versions: Vec<[u32; CHUNKS]>,
    scratch: Vec<u8>,
}

impl Shadow {
    /// `files` files, all at version 0.
    pub fn new(seed: u64, files: usize) -> Self {
        Shadow {
            seed,
            versions: vec![[0; CHUNKS]; files],
            scratch: vec![0; FILE_BYTES],
        }
    }

    /// The current contents of `file`.
    pub fn expected(&mut self, file: usize) -> &[u8] {
        for (chunk, out) in self.scratch.chunks_exact_mut(CHUNK_BYTES).enumerate() {
            fill_chunk(self.seed, file, chunk, self.versions[file][chunk], out);
        }
        &self.scratch
    }

    /// Advance one chunk to its next version and write that version's bytes
    /// into `out` (the payload of the write about to be issued).
    pub fn next_chunk(&mut self, file: usize, chunk: usize, out: &mut [u8]) {
        self.versions[file][chunk] += 1;
        fill_chunk(self.seed, file, chunk, self.versions[file][chunk], out);
    }

    /// Full comparison of a whole-file read.
    pub fn matches(&mut self, file: usize, data: &[u8]) -> bool {
        self.expected(file) == data
    }

    /// Cheap comparison for the microsecond-scale workloads: the length and
    /// the first word of every chunk (which depends on the chunk's version).
    pub fn matches_sampled(&self, file: usize, data: &[u8]) -> bool {
        if data.len() != FILE_BYTES {
            return false;
        }
        let mut word = [0u8; 8];
        (0..CHUNKS).all(|chunk| {
            fill_chunk(
                self.seed,
                file,
                chunk,
                self.versions[file][chunk],
                &mut word,
            );
            data[chunk * CHUNK_BYTES..chunk * CHUNK_BYTES + 8] == word
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let (mut a, mut b, mut c) = (vec![0u8; 64], vec![0u8; 64], vec![0u8; 64]);
        fill_chunk(1, 2, 3, 4, &mut a);
        fill_chunk(1, 2, 3, 4, &mut b);
        fill_chunk(1, 2, 3, 5, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shadow_tracks_chunk_versions() {
        let mut shadow = Shadow::new(9, 2);
        let mut file = shadow.expected(1).to_vec();
        assert!(shadow.matches(1, &file) && shadow.matches_sampled(1, &file));
        let mut payload = vec![0u8; CHUNK_BYTES];
        shadow.next_chunk(1, 2, &mut payload);
        assert!(!shadow.matches(1, &file) && !shadow.matches_sampled(1, &file));
        file[2 * CHUNK_BYTES..3 * CHUNK_BYTES].copy_from_slice(&payload);
        assert!(shadow.matches(1, &file) && shadow.matches_sampled(1, &file));
        file[FILE_BYTES - 1] ^= 1;
        assert!(
            !shadow.matches(1, &file),
            "the full check sees one flipped bit"
        );
    }
}
