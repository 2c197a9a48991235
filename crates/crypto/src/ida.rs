//! Rabin's Information Dispersal Algorithm (IDA) over GF(2⁸): the codec
//! under every replicated and dispersed hidden object (`stegfs_core::coding`).
//!
//! Hand and Roscoe's Mnemosyne (cited in §2 of the StegFS paper) improves the
//! resilience of random placement by encoding each hidden file into `n`
//! cipher-shares such that **any `m` of them** suffice to reconstruct it,
//! instead of keeping `n` identical replicas.  The encoding is Rabin's IDA:
//! the data is chopped into groups of `m` bytes which are interpreted as the
//! coefficients of a degree-`m−1` polynomial; share `j` stores the
//! polynomial's value at evaluation point `x_j`.  Reconstruction from any
//! `m` shares solves the corresponding Vandermonde system.  Storage blow-up
//! is `n / m`, against `r` for `r`-way replication (`m = 1`).
//!
//! Both directions are a matrix product over planes.  The `n × m`
//! Vandermonde encode matrix (one row per share) is fixed by `(m, n)` and
//! built with the codec; the `m × m` decode matrix is its inverse restricted
//! to the shares at hand and built once per share-index subset (a
//! [`Decoder`]).  Every matrix coefficient is held as a [`Multiplier`].  The
//! data is taken a strip at a time: its `m`-byte tuples are de-interleaved
//! into `m` contiguous planes — the layout shares already have — so that
//! each coefficient is one `dst[k] ^= c · src[k]` pass over contiguous bytes
//! (two `vpshufb` per 32 bytes where the CPU has AVX2, one table load per
//! byte elsewhere; see [`crate::gf256`]), and decoded planes are
//! interleaved back.  The planes of a strip live in a fixed block on the
//! stack that is wiped before it is given up: nothing is allocated per call
//! and no plaintext stays behind.

use crate::ct::zeroize;
use crate::gf256::{self, deinterleave, interleave, Multiplier};
use std::ops::Range;

/// Stack bytes the `m` planes of one strip share: small enough to stay in
/// the L1 cache next to the shares it is coded against, and still a whole
/// 32-byte vector per plane at `m = 255`.
const STRIP_BYTES: usize = 8192;

/// Tuples per strip, i.e. bytes per plane: whole 32-byte vectors.
fn strip_tuples(m: usize) -> usize {
    (STRIP_BYTES / m) & !31
}

/// A codec parameter or share set the IDA cannot use: what is wrong, in
/// words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdaError(String);

impl std::fmt::Display for IdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid argument: {}", self.0)
    }
}

impl std::error::Error for IdaError {}

/// An (m, n) information dispersal codec.
#[derive(Clone, PartialEq, Eq)]
pub struct Ida {
    m: usize,
    n: usize,
    /// The Vandermonde matrix, share-major: entry `j * m + i` multiplies by
    /// `(j + 1)^i`.
    encode: Vec<Multiplier>,
}

impl std::fmt::Debug for Ida {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ida")
            .field("m", &self.m)
            .field("n", &self.n)
            .finish()
    }
}

/// One share produced by [`Ida::split`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Evaluation-point index (1-based; 0 is reserved).
    pub index: u8,
    /// Share payload; `ceil(data_len / m)` bytes.
    pub data: Vec<u8>,
}

/// The decode matrix for one subset of share indices (see [`Ida::decoder`]).
pub struct Decoder {
    indices: Vec<u8>,
    /// The inverted Vandermonde submatrix: entry `i * m + k` is the weight
    /// of share `indices[k]` in coefficient position `i`.
    decode: Vec<Multiplier>,
}

/// `[1, x, x², …, x^(m-1)]`: the Vandermonde row of evaluation point `x`.
fn vandermonde_row(x: u8, m: usize) -> Vec<u8> {
    (0..m).map(|i| gf256::pow(x, i as u32)).collect()
}

impl Ida {
    /// Create an (m, n) codec: split into `n` shares, any `m` reconstruct.
    pub fn new(m: usize, n: usize) -> Result<Self, IdaError> {
        if m == 0 || n == 0 || m > n {
            return Err(IdaError(format!("require 0 < m <= n, got m={m}, n={n}")));
        }
        if n > 255 {
            return Err(IdaError(format!(
                "at most 255 shares are supported, got n={n}"
            )));
        }
        let encode = (1..=n as u8)
            .flat_map(|x| vandermonde_row(x, m))
            .map(Multiplier::new)
            .collect();
        Ok(Ida { m, n, encode })
    }

    /// Number of shares required for reconstruction.
    pub fn threshold(&self) -> usize {
        self.m
    }

    /// Number of shares produced.
    pub fn share_count(&self) -> usize {
        self.n
    }

    /// Split `data` into `n` shares.
    pub fn split(&self, data: &[u8]) -> Vec<Share> {
        let share_len = data.len().div_ceil(self.m);
        let mut shares: Vec<Share> = (1..=self.n as u8)
            .map(|index| Share {
                index,
                data: vec![0u8; share_len],
            })
            .collect();
        self.for_each_strip(data, |at, planes| {
            self.encode_strip(planes, shares.iter_mut().map(|s| &mut s.data[at.clone()]));
        });
        shares
    }

    /// Split `data` into `n` equally long shares written back to back into
    /// `out` (share 1 first).  Each share is `out.len() / n` bytes, which
    /// must be at least `ceil(data.len() / m)`; a longer share is the share
    /// of `data` zero padded to `m` times that length.
    ///
    /// # Panics
    /// Panics if `out` does not divide into `n` shares long enough for
    /// `data`.
    pub fn split_into(&self, data: &[u8], out: &mut [u8]) {
        let share_len = out.len() / self.n;
        assert!(
            out.len() == share_len * self.n && share_len * self.m >= data.len(),
            "{} bytes do not split into {} shares of {share_len}",
            data.len(),
            self.n
        );
        if share_len == 0 {
            return;
        }
        out.fill(0);
        self.for_each_strip(data, |at, planes| {
            let shares = out.chunks_exact_mut(share_len);
            self.encode_strip(planes, shares.map(|s| &mut s[at.clone()]));
        });
    }

    /// De-interleave `data` a strip at a time and hand `each` the strip's
    /// `m` planes, back to back, with the range of every share they code.
    /// A last, short tuple reads as zero padded.
    fn for_each_strip(&self, data: &[u8], mut each: impl FnMut(Range<usize>, &[u8])) {
        let tuples = strip_tuples(self.m);
        let mut scratch = [0u8; STRIP_BYTES];
        for (strip, chunk) in data.chunks(self.m * tuples).enumerate() {
            let len = chunk.len().div_ceil(self.m);
            let planes = &mut scratch[..self.m * len];
            deinterleave(chunk, self.m, planes);
            each(strip * tuples..strip * tuples + len, planes);
        }
        zeroize(&mut scratch);
    }

    /// Accumulate one strip into its (zeroed) range of every share, given in
    /// share order: plane `i` adds `(j + 1)^i` times itself to share `j`.
    fn encode_strip<'a>(&self, planes: &[u8], shares: impl Iterator<Item = &'a mut [u8]>) {
        for (share, row) in shares.zip(self.encode.chunks_exact(self.m)) {
            for (weight, plane) in row.iter().zip(planes.chunks_exact(share.len())) {
                weight.mul_acc(share, plane);
            }
        }
    }

    /// The first `m` of `indices`, once they are known to be usable: rejects
    /// fewer than `m`, the reserved index 0 and duplicates.
    fn check_indices<'a>(&self, indices: &'a [u8]) -> Result<&'a [u8], IdaError> {
        if indices.len() < self.m {
            return Err(IdaError(format!(
                "need at least {} shares, got {}",
                self.m,
                indices.len()
            )));
        }
        let indices = &indices[..self.m];
        let mut seen = [false; 256];
        for &index in indices {
            if index == 0 {
                return Err(IdaError("share index 0 is reserved".into()));
            }
            if seen[index as usize] {
                return Err(IdaError(format!("duplicate share index {index}")));
            }
            seen[index as usize] = true;
        }
        Ok(indices)
    }

    /// The decode matrix for the shares numbered `indices` (the first `m` of
    /// them; fewer, a zero or a duplicate is an error): the Vandermonde
    /// submatrix is inverted once, and the [`Decoder`] then serves every
    /// share set with these indices.
    pub fn decoder(&self, indices: &[u8]) -> Result<Decoder, IdaError> {
        self.check_indices(indices).map(Decoder::for_points)
    }

    /// Reconstruct the original data (of known length `data_len`) from any
    /// `m` or more shares.
    pub fn reconstruct(&self, shares: &[Share], data_len: usize) -> Result<Vec<u8>, IdaError> {
        // Everything that can be wrong with the shares is rejected before
        // the first field operation.
        let indices: Vec<u8> = shares.iter().map(|s| s.index).collect();
        let indices = self.check_indices(&indices)?;
        let selected: Vec<&[u8]> = shares[..self.m].iter().map(|s| &s.data[..]).collect();
        check_lengths(indices, &selected, data_len)?;
        let mut out = vec![0u8; data_len];
        Decoder::for_points(indices).reconstruct_into(&selected, &mut out)?;
        Ok(out)
    }
}

/// Every share must hold one byte per `m`-byte tuple of the data.
fn check_lengths(indices: &[u8], shares: &[&[u8]], data_len: usize) -> Result<(), IdaError> {
    let groups = data_len.div_ceil(indices.len());
    for (share, index) in shares.iter().zip(indices) {
        if share.len() < groups {
            return Err(IdaError(format!(
                "share {index} is too short ({} < {groups})",
                share.len()
            )));
        }
    }
    Ok(())
}

impl Decoder {
    /// Invert the Vandermonde matrix of `indices`: distinct non-zero
    /// evaluation points, which is what makes it invertible.
    fn for_points(indices: &[u8]) -> Decoder {
        let m = indices.len();
        let matrix: Vec<Vec<u8>> = indices.iter().map(|&x| vandermonde_row(x, m)).collect();
        let inverse = gf256::invert(&matrix).expect("distinct evaluation points");
        Decoder {
            indices: indices.to_vec(),
            decode: inverse.into_iter().flatten().map(Multiplier::new).collect(),
        }
    }

    /// The share indices this decoder was built for, in the order
    /// [`reconstruct_into`](Self::reconstruct_into) expects their shares.
    pub fn indices(&self) -> &[u8] {
        &self.indices
    }

    /// Reconstruct `out.len()` bytes of data into `out` from `shares`, given
    /// in the order of [`indices`](Self::indices).  Each share must hold at
    /// least `ceil(out.len() / m)` bytes.
    pub fn reconstruct_into(&self, shares: &[&[u8]], out: &mut [u8]) -> Result<(), IdaError> {
        let m = self.indices.len();
        if shares.len() != m {
            return Err(IdaError(format!(
                "decoder takes {m} shares, got {}",
                shares.len()
            )));
        }
        check_lengths(&self.indices, shares, out.len())?;
        // A strip at a time: plane `i` of the data collects
        // `decode[i][k] · shares[k]`, and the planes interleave into `out`.
        let tuples = strip_tuples(m);
        let mut scratch = [0u8; STRIP_BYTES];
        for (strip, chunk) in out.chunks_mut(m * tuples).enumerate() {
            let len = chunk.len().div_ceil(m);
            let at = strip * tuples..strip * tuples + len;
            let planes = &mut scratch[..m * len];
            planes.fill(0);
            for (plane, row) in planes
                .chunks_exact_mut(len)
                .zip(self.decode.chunks_exact(m))
            {
                for (weight, share) in row.iter().zip(shares) {
                    weight.mul_acc(plane, &share[at.clone()]);
                }
            }
            interleave(planes, m, chunk);
        }
        zeroize(&mut scratch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;
    use proptest::prelude::*;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// The per-byte codec the slice kernels replaced, kept as their oracle:
    /// one Horner evaluation per share byte.
    fn split_per_byte(m: usize, n: usize, data: &[u8]) -> Vec<Share> {
        let groups = data.len().div_ceil(m);
        let mut shares: Vec<Share> = (0..n)
            .map(|j| Share {
                index: (j + 1) as u8,
                data: Vec::with_capacity(groups),
            })
            .collect();
        for g in 0..groups {
            // Coefficients of this group's polynomial (zero padded).
            let mut coeffs = vec![0u8; m];
            for (i, c) in coeffs.iter_mut().enumerate() {
                if let Some(&b) = data.get(g * m + i) {
                    *c = b;
                }
            }
            for share in shares.iter_mut() {
                share.data.push(gf256::poly_eval(&coeffs, share.index));
            }
        }
        shares
    }

    /// The oracle's other half: one Gaussian elimination per byte tuple
    /// over the first `m` of `shares` (assumed valid).
    fn reconstruct_per_byte(m: usize, shares: &[Share], data_len: usize) -> Vec<u8> {
        let selected = &shares[..m];
        let matrix: Vec<Vec<u8>> = selected
            .iter()
            .map(|s| vandermonde_row(s.index, m))
            .collect();
        let mut out = Vec::new();
        for g in 0..data_len.div_ceil(m) {
            let rhs: Vec<u8> = selected.iter().map(|s| s.data[g]).collect();
            out.extend(gf256::solve(&matrix, &rhs).expect("distinct evaluation points"));
        }
        out.truncate(data_len);
        out
    }

    /// Every ordered selection of `m` of `0..n`.
    fn ordered_subsets(n: usize, m: usize) -> Vec<Vec<usize>> {
        if m == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for head in ordered_subsets(n, m - 1) {
            for next in (0..n).filter(|j| !head.contains(j)) {
                let mut subset = head.clone();
                subset.push(next);
                all.push(subset);
            }
        }
        all
    }

    #[test]
    fn kernels_match_the_per_byte_oracle_for_every_small_code() {
        for n in 1..=6usize {
            for m in 1..=n {
                let ida = Ida::new(m, n).unwrap();
                let long = [1024 * m, 1024 * m + 3];
                let short = [0, 1, m - 1, m, m + 1];
                for (len, is_long) in short
                    .iter()
                    .map(|&l| (l, false))
                    .chain(long.map(|l| (l, true)))
                {
                    let data = sample_data(len);
                    let shares = ida.split(&data);
                    assert_eq!(
                        shares,
                        split_per_byte(m, n, &data),
                        "split ({m},{n}) len {len}"
                    );

                    let mut flat = vec![0xa5u8; n * len.div_ceil(m)];
                    ida.split_into(&data, &mut flat);
                    let joined: Vec<u8> = shares.iter().flat_map(|s| s.data.clone()).collect();
                    assert_eq!(flat, joined, "split_into ({m},{n}) len {len}");

                    for subset in ordered_subsets(n, m) {
                        let picked: Vec<Share> =
                            subset.iter().map(|&j| shares[j].clone()).collect();
                        let rebuilt = ida.reconstruct(&picked, len).unwrap();
                        assert_eq!(rebuilt, data, "({m},{n}) len {len} shares {subset:?}");
                        // The per-tuple oracle is slow: on the long inputs it
                        // checks each subset in one order only.
                        if !is_long || subset.is_sorted() {
                            assert_eq!(rebuilt, reconstruct_per_byte(m, &picked, len));
                        }
                    }
                }
            }
        }
    }

    /// Share bytes are on-disk format: a field or kernel change that moves
    /// one fails here, by name, before any image pin notices.  The digests
    /// were recorded while the scalar field still multiplied through log/exp
    /// tables, so they also show the bit-serial field gives the same shares.
    /// The buffer is two strips and a ragged third at `m = 2` and `m = 4`,
    /// with a short last tuple.
    #[test]
    fn shares_match_their_known_answers() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..20_001)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect();
        let hex = |d: [u8; 32]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(sha256(&data)),
            "636a3a3cd1f7e472bb7bdc620e9211b3c8670b49cdb06701897edab7ae6dcc82"
        );
        for (m, n, want) in [
            (
                2,
                3,
                "0b95d51fd1ba98b1c9ec0c2589a672c7ead6ceb4189552e07e904fb976e56d39",
            ),
            (
                4,
                6,
                "b17a12dbe6950a2aac93c72b2e670f69f786d803cdd58740708c714be87ecd18",
            ),
        ] {
            let ida = Ida::new(m, n).unwrap();
            assert!(data.len() > 2 * m * strip_tuples(m));
            let shares = ida.split(&data);
            let joined: Vec<u8> = shares.iter().flat_map(|s| s.data.clone()).collect();
            assert_eq!(hex(sha256(&joined)), want, "({m},{n}) shares");
            let mut flat = vec![0u8; joined.len()];
            ida.split_into(&data, &mut flat);
            assert_eq!(flat, joined, "({m},{n}) split_into");
            // The last m shares, highest first, decode back.
            let picks: Vec<u8> = (1..=n as u8).rev().take(m).collect();
            let picked: Vec<&[u8]> = picks
                .iter()
                .map(|&i| &shares[usize::from(i) - 1].data[..])
                .collect();
            let mut out = vec![0u8; data.len()];
            ida.decoder(&picks)
                .unwrap()
                .reconstruct_into(&picked, &mut out)
                .unwrap();
            assert!(out == data, "({m},{n}) round trip");
        }
    }

    #[test]
    fn split_into_pads_long_shares_like_zero_padded_data() {
        let ida = Ida::new(3, 5).unwrap();
        let data = sample_data(100);
        let share_len = 64;
        let mut padded = data.clone();
        padded.resize(3 * share_len, 0);
        let mut out = vec![0xffu8; 5 * share_len];
        ida.split_into(&data, &mut out);
        for (share, expected) in out.chunks_exact(share_len).zip(ida.split(&padded)) {
            assert_eq!(share, &expected.data[..]);
        }
    }

    #[test]
    fn several_strips_and_a_ragged_last_one_match_the_oracle() {
        for (m, n) in [(2usize, 3usize), (3, 5), (5, 7)] {
            let ida = Ida::new(m, n).unwrap();
            let data = sample_data(100_000);
            assert!(data.len() > 2 * STRIP_BYTES);
            assert!(!data.len().is_multiple_of(m * strip_tuples(m)));
            let shares = ida.split(&data);
            assert_eq!(shares, split_per_byte(m, n, &data), "split ({m},{n})");
            let mut flat = vec![0xa5u8; n * data.len().div_ceil(m)];
            ida.split_into(&data, &mut flat);
            let joined: Vec<u8> = shares.iter().flat_map(|s| s.data.clone()).collect();
            assert_eq!(flat, joined, "split_into ({m},{n})");
            let last = &shares[n - m..];
            let rebuilt = ida.reconstruct(last, data.len()).unwrap();
            assert_eq!(rebuilt, data, "({m},{n})");
            assert_eq!(rebuilt, reconstruct_per_byte(m, last, data.len()));
        }
    }

    #[test]
    fn shares_around_one_vector_match_the_oracle() {
        // One byte, a vector less one and a vector plus one per share: the
        // multiply's ragged tail with and without a whole vector before it.
        for share_len in [1usize, 31, 33] {
            for (m, n) in [(2usize, 3usize), (3, 5), (5, 7)] {
                let ida = Ida::new(m, n).unwrap();
                // The last tuple full, and one byte short of it.
                for len in [share_len * m, share_len * m - 1] {
                    let data = sample_data(len);
                    let shares = ida.split(&data);
                    assert!(shares.iter().all(|s| s.data.len() == share_len));
                    assert_eq!(shares, split_per_byte(m, n, &data), "({m},{n}) len {len}");
                    let first = &shares[..m];
                    let rebuilt = ida.reconstruct(first, len).unwrap();
                    assert_eq!(rebuilt, data, "({m},{n}) len {len}");
                    assert_eq!(rebuilt, reconstruct_per_byte(m, first, len));
                }
            }
        }
    }

    #[test]
    fn split_into_pads_long_shares_past_several_strips() {
        // Shares longer than ceil(len / m), the data itself several strips:
        // what the strips never reach must still read as zero padding.
        let ida = Ida::new(2, 3).unwrap();
        let data = sample_data(20_001);
        let share_len = 10_040;
        let mut out = vec![0xffu8; 3 * share_len];
        ida.split_into(&data, &mut out);
        for (share, expected) in out.chunks_exact(share_len).zip(split_per_byte(2, 3, &data)) {
            let (coded, padding) = share.split_at(expected.data.len());
            assert_eq!(coded, &expected.data[..]);
            assert!(padding.iter().all(|&b| b == 0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn kernels_match_the_per_byte_oracle_on_random_codes(
            m in 1usize..=8,
            extra in 0usize..=4,
            data in proptest::collection::vec(any::<u8>(), 0..1500),
            pick_seed in any::<u64>()
        ) {
            let n = m + extra;
            let ida = Ida::new(m, n).unwrap();
            let mut shares = ida.split(&data);
            prop_assert_eq!(&shares, &split_per_byte(m, n, &data));
            // Keep a pseudo-random ordered selection of m shares.
            let mut s = pick_seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                shares.swap(i, (s >> 33) as usize % (i + 1));
            }
            shares.truncate(m);
            let rebuilt = ida.reconstruct(&shares, data.len()).unwrap();
            prop_assert_eq!(&rebuilt, &data);
            prop_assert_eq!(rebuilt, reconstruct_per_byte(m, &shares, data.len()));
        }
    }

    #[test]
    fn bad_share_sets_are_rejected_by_every_entry_point() {
        let ida = Ida::new(3, 5).unwrap();
        let data = sample_data(300);
        let shares = ida.split(&data);
        let with = |edit: &dyn Fn(&mut Vec<Share>)| {
            let mut s = shares.clone();
            edit(&mut s);
            ida.reconstruct(&s, data.len()).unwrap_err().to_string()
        };
        assert!(with(&|s| s.truncate(2)).contains("at least 3"));
        assert!(with(&|s| s[1].index = 0).contains("reserved"));
        assert!(with(&|s| s[2].index = s[0].index).contains("duplicate"));
        assert!(with(&|s| s[1].data.truncate(99)).contains("too short"));
        // A bad index is named even when a share is also short: the whole
        // selection is validated before any of it is decoded.
        assert!(with(&|s| {
            s[0].data.clear();
            s[2].index = 0;
        })
        .contains("reserved"));
        // Shares past the first m are never looked at.
        let mut spare_damaged = shares.clone();
        spare_damaged[4] = Share {
            index: 0,
            data: Vec::new(),
        };
        assert_eq!(ida.reconstruct(&spare_damaged, data.len()).unwrap(), data);

        assert!(ida.decoder(&[1, 2]).is_err());
        assert!(ida.decoder(&[1, 0, 3]).is_err());
        assert!(ida.decoder(&[4, 2, 4]).is_err());
        let decoder = ida.decoder(&[5, 1, 3]).unwrap();
        assert_eq!(decoder.indices(), [5, 1, 3]);
        let picked = [&shares[4].data[..], &shares[0].data, &shares[2].data];
        let mut out = vec![0u8; data.len()];
        assert!(decoder.reconstruct_into(&picked[..2], &mut out).is_err());
        let short = [picked[0], &picked[1][..99], picked[2]];
        assert!(decoder.reconstruct_into(&short, &mut out).is_err());
        assert!(
            out.iter().all(|&b| b == 0),
            "a rejected call decodes nothing"
        );
        decoder.reconstruct_into(&picked, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn split_reconstruct_all_shares() {
        let ida = Ida::new(4, 7).unwrap();
        let data = sample_data(1000);
        let shares = ida.split(&data);
        assert_eq!(shares.len(), 7);
        assert!(shares.iter().all(|s| s.data.len() == 250));
        assert_eq!(ida.reconstruct(&shares, data.len()).unwrap(), data);
    }

    #[test]
    fn any_m_shares_suffice() {
        let ida = Ida::new(3, 6).unwrap();
        let data = sample_data(500);
        let shares = ida.split(&data);
        // Try every combination of exactly m shares.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let subset = vec![shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    assert_eq!(
                        ida.reconstruct(&subset, data.len()).unwrap(),
                        data,
                        "shares {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn fewer_than_m_shares_fail() {
        let ida = Ida::new(3, 5).unwrap();
        let data = sample_data(100);
        let shares = ida.split(&data);
        assert!(ida.reconstruct(&shares[..2], data.len()).is_err());
        assert!(ida.reconstruct(&[], data.len()).is_err());
    }

    #[test]
    fn corrupt_share_changes_output_but_other_subset_recovers() {
        let ida = Ida::new(2, 4).unwrap();
        let data = sample_data(64);
        let mut shares = ida.split(&data);
        shares[0].data[0] ^= 0xff;
        // Using the corrupted share gives wrong data...
        let wrong = ida
            .reconstruct(&[shares[0].clone(), shares[1].clone()], data.len())
            .unwrap();
        assert_ne!(wrong, data);
        // ...but any two intact shares still reconstruct.
        let right = ida
            .reconstruct(&[shares[2].clone(), shares[3].clone()], data.len())
            .unwrap();
        assert_eq!(right, data);
    }

    #[test]
    fn duplicate_share_indices_rejected() {
        let ida = Ida::new(2, 3).unwrap();
        let data = sample_data(10);
        let shares = ida.split(&data);
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(ida.reconstruct(&dup, data.len()).is_err());
    }

    #[test]
    fn empty_and_unaligned_data() {
        let ida = Ida::new(4, 5).unwrap();
        for len in [0usize, 1, 3, 4, 5, 17] {
            let data = sample_data(len);
            let shares = ida.split(&data);
            assert_eq!(ida.reconstruct(&shares, len).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn replication_is_the_m_equals_1_special_case() {
        let ida = Ida::new(1, 3).unwrap();
        let data = sample_data(32);
        let shares = ida.split(&data);
        // With m = 1 every share is a full copy of the data.
        for s in &shares {
            assert_eq!(s.data, data);
        }
    }

    #[test]
    fn expansion_factor() {
        // n shares of ceil(len / m) bytes each: n / m times the data.
        for (m, n, stored) in [(4usize, 8usize, 2000usize), (3, 5, 1670)] {
            let ida = Ida::new(m, n).unwrap();
            assert_eq!((ida.threshold(), ida.share_count()), (m, n));
            let shares = ida.split(&sample_data(1000));
            assert_eq!(shares.iter().map(|s| s.data.len()).sum::<usize>(), stored);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Ida::new(0, 5).is_err());
        assert!(Ida::new(5, 0).is_err());
        assert!(Ida::new(6, 5).is_err());
        assert!(Ida::new(4, 300).is_err());
    }

    #[test]
    fn share_too_short_rejected() {
        let ida = Ida::new(2, 3).unwrap();
        let data = sample_data(100);
        let mut shares = ida.split(&data);
        shares[0].data.truncate(3);
        assert!(ida.reconstruct(&shares, data.len()).is_err());
    }
}
