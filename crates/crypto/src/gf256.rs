//! GF(2⁸), the field of Rabin's Information Dispersal Algorithm
//! ([`crate::ida`]): the scalar field that builds and inverts the coding
//! matrices, and the three slice kernels that apply them.
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x + 1) — the AES polynomial
//! 0x11b — and its one multiply is `aes::gf_mul`, the bit-serial multiply
//! [`crate::aes`] expands its tables with.  Scalars are few: [`pow`] builds the Vandermonde rows,
//! and [`inv`] and [`invert`] the decode matrix, once per codec or share
//! subset.  Coding a buffer is a matrix product over byte tuples; laid out
//! as *planes* (plane `i` holds byte `i` of every `m`-byte tuple) it
//! becomes a handful of contiguous passes `dst[k] ^= c · src[k]`, one per
//! matrix coefficient:
//!
//! * [`Multiplier::mul_acc`] is that pass;
//! * [`deinterleave`] cuts tuples into planes, [`interleave`] is its inverse.
//!
//! Each picks one of two bodies per call from what the CPU reports (never
//! from a parameter, feature or environment variable):
//!
//! * **AVX2** (`crate::hw`, x86-64): multiplication by a constant is linear
//!   over GF(2), so `c · v = lo[v & 15] ^ hi[v >> 4]` with two 16-entry
//!   tables — two `vpshufb` per 32 bytes.  The transposes are the safe loops
//!   of this file compiled a second time with the wider shuffles enabled.
//! * **Portable** (this file, every other host): one load from the
//!   256-entry product row and one XOR per byte, and the same transposes at
//!   the target's baseline.  It is also the oracle the hardware body is
//!   tested against.
//!
//! Both produce the same bytes, so shares do not depend on the host.  As
//! with the T-table AES (see the note in [`crate::aes`]), one difference is
//! not about speed: the portable row lookup indexes memory by the data byte
//! — plaintext when encoding — which is a cache-timing channel for anyone
//! sharing the CPU's caches; on the hardware path neither the multiply nor
//! the transposes index memory by data.

use crate::aes::gf_mul;
use crate::hw::Avx2;

/// Exponentiation `a^e`.
pub fn pow(a: u8, mut e: u32) -> u8 {
    let mut result = 1u8;
    let mut base = a;
    while e > 0 {
        if e & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    result
}

/// Multiplicative inverse: `a^254`, since `a^255 = 1` for every `a ≠ 0`.
///
/// # Panics
/// Panics if `a == 0` (zero has no inverse).
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    pow(a, 254)
}

/// Gauss–Jordan elimination over GF(2⁸), in place: reduce the leading
/// `n × n` part of `m` (`n = m.len()`) to the identity, carrying every
/// further column of each row along.  Returns `None` if that part is
/// singular.
fn eliminate(m: &mut [Vec<u8>]) -> Option<()> {
    let n = m.len();
    for col in 0..n {
        // Find a pivot.
        let pivot = (col..n).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        // Normalise the pivot row.
        let p_inv = inv(m[col][col]);
        for v in m[col].iter_mut() {
            *v = gf_mul(*v, p_inv);
        }
        // Eliminate the column from all other rows.
        let pivot_row = m[col].clone();
        for (row, row_vals) in m.iter_mut().enumerate() {
            if row != col && row_vals[col] != 0 {
                let factor = row_vals[col];
                for (cell, &pv) in row_vals.iter_mut().zip(&pivot_row) {
                    *cell ^= gf_mul(factor, pv);
                }
            }
        }
    }
    Some(())
}

/// Invert the square matrix `M` (row-major) over GF(2⁸).  Returns `None` if
/// `M` is singular.
pub fn invert(matrix: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = matrix.len();
    let mut m: Vec<Vec<u8>> = matrix
        .iter()
        .enumerate()
        .map(|(i, row)| {
            assert_eq!(row.len(), n, "matrix must be square");
            let mut r = row.clone();
            r.extend((0..n).map(|j| u8::from(i == j)));
            r
        })
        .collect();
    eliminate(&mut m)?;
    Some(m.into_iter().map(|mut row| row.split_off(n)).collect())
}

/// Evaluate the polynomial `coeffs[0] + coeffs[1] x + …` at `x` (Horner).
/// One share byte of the per-byte IDA the slice kernels are tested against.
#[cfg(test)]
pub(crate) fn poly_eval(coeffs: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs.iter().rev() {
        acc = gf_mul(acc, x) ^ c;
    }
    acc
}

/// Solve the linear system `M · a = y` over GF(2⁸) by Gaussian elimination,
/// where `M` is given in row-major order.  Returns `None` if `M` is singular.
/// One byte tuple of the per-byte IDA the slice kernels are tested against.
#[cfg(test)]
pub(crate) fn solve(matrix: &[Vec<u8>], rhs: &[u8]) -> Option<Vec<u8>> {
    let n = rhs.len();
    assert_eq!(matrix.len(), n, "matrix must be square");
    let mut m: Vec<Vec<u8>> = matrix
        .iter()
        .zip(rhs)
        .map(|(row, &y)| {
            assert_eq!(row.len(), n, "matrix must be square");
            let mut r = row.clone();
            r.push(y);
            r
        })
        .collect();
    eliminate(&mut m)?;
    Some(m.iter().map(|row| row[n]).collect())
}

/// Multiplication by one field element, ready to run over slices.
///
/// Holds every multiple of the coefficient three ways: the 256-entry product
/// row the portable body reads, and the products of the sixteen low and the
/// sixteen high nibbles the hardware body shuffles through.  The nibble
/// tables are built with the bit-serial multiply and the row from them, so
/// `row[v] == lo[v & 15] ^ hi[v >> 4]` holds by construction — a
/// `Multiplier` cannot describe a map that is not linear.
#[derive(Clone, PartialEq, Eq)]
pub struct Multiplier {
    row: [u8; 256],
    lo: [u8; 16],
    hi: [u8; 16],
}

impl Multiplier {
    /// The multiplier by `c`.
    pub fn new(c: u8) -> Self {
        let lo: [u8; 16] = std::array::from_fn(|v| gf_mul(c, v as u8));
        let hi: [u8; 16] = std::array::from_fn(|v| gf_mul(c, (v as u8) << 4));
        Multiplier {
            row: std::array::from_fn(|v| lo[v & 15] ^ hi[v >> 4]),
            lo,
            hi,
        }
    }

    /// `dst[k] ^= c · src[k]` for every `k`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc over unequal slices");
        match Avx2::detect() {
            Some(hw) => hw.mul_acc(&self.lo, &self.hi, dst, src),
            None => self.mul_acc_portable(dst, src),
        }
    }

    /// [`mul_acc`](Self::mul_acc) through the product row.
    fn mul_acc_portable(&self, dst: &mut [u8], src: &[u8]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= self.row[s as usize];
        }
    }
}

/// `planes` must cut into `m` planes that each hold one byte per `m`-byte
/// tuple of `data_len` bytes.
fn check_planes(data_len: usize, m: usize, planes: &[u8]) {
    assert!(
        m > 0 && planes.len().is_multiple_of(m) && planes.len() >= data_len.next_multiple_of(m),
        "{} bytes are not {m} planes for the tuples of {data_len} bytes",
        planes.len()
    );
}

/// Cut `data` into `m` planes laid back to back in `planes`: byte `g` of
/// plane `i` is `data[g * m + i]`.  Bytes past the end of `data` — the rest
/// of a last, short tuple and whatever the planes hold beyond it — read as
/// zero.
///
/// # Panics
/// Panics if `planes` does not divide into `m` planes of at least
/// `ceil(data.len() / m)` bytes.
pub fn deinterleave(data: &[u8], m: usize, planes: &mut [u8]) {
    check_planes(data.len(), m, planes);
    match Avx2::detect() {
        Some(hw) => hw.deinterleave(data, m, planes),
        None => deinterleave_body(data, m, planes),
    }
}

/// Gather `out` back from `m` planes laid back to back in `planes`:
/// `out[g * m + i]` is byte `g` of plane `i`.  The inverse of
/// [`deinterleave`]; plane bytes past `ceil(out.len() / m)` are not read.
///
/// # Panics
/// Panics if `planes` does not divide into `m` planes of at least
/// `ceil(out.len() / m)` bytes.
pub fn interleave(planes: &[u8], m: usize, out: &mut [u8]) {
    check_planes(out.len(), m, planes);
    match Avx2::detect() {
        Some(hw) => hw.interleave(planes, m, out),
        None => interleave_body(planes, m, out),
    }
}

/// [`deinterleave`] proper.  Safe code, `inline(always)` so that it is
/// compiled once here at the target's baseline and once more inside
/// `crate::hw`'s AVX2-enabled wrapper, where the same loops vectorise with
/// 32-byte shuffles.
#[inline(always)]
pub(crate) fn deinterleave_body(data: &[u8], m: usize, planes: &mut [u8]) {
    if planes.is_empty() {
        return;
    }
    match m {
        1 => deinterleave_fixed::<1>(data, planes),
        2 => deinterleave_fixed::<2>(data, planes),
        3 => deinterleave_fixed::<3>(data, planes),
        4 => deinterleave_fixed::<4>(data, planes),
        _ => {
            let len = planes.len() / m;
            planes.fill(0);
            for (g, tuple) in data.chunks(m).enumerate() {
                for (i, &byte) in tuple.iter().enumerate() {
                    planes[i * len + g] = byte;
                }
            }
        }
    }
}

/// [`interleave`] proper; see [`deinterleave_body`].
#[inline(always)]
pub(crate) fn interleave_body(planes: &[u8], m: usize, out: &mut [u8]) {
    if planes.is_empty() {
        return;
    }
    match m {
        1 => interleave_fixed::<1>(planes, out),
        2 => interleave_fixed::<2>(planes, out),
        3 => interleave_fixed::<3>(planes, out),
        4 => interleave_fixed::<4>(planes, out),
        _ => {
            let len = planes.len() / m;
            for (g, tuple) in out.chunks_mut(m).enumerate() {
                for (i, byte) in tuple.iter_mut().enumerate() {
                    *byte = planes[i * len + g];
                }
            }
        }
    }
}

/// The tuple width as a constant: the inner loop unrolls, and the compiler
/// sees one `M`-way strided access it has a shuffle sequence for.
#[inline(always)]
fn deinterleave_fixed<const M: usize>(data: &[u8], planes: &mut [u8]) {
    let (tuples, tail) = data.as_chunks::<M>();
    let mut cut = planes.chunks_exact_mut(planes.len() / M);
    let planes: [&mut [u8]; M] = std::array::from_fn(|_| cut.next().expect("M planes"));
    // Each plane as the bytes whole tuples fill and the bytes past them.
    let mut planes = planes.map(|plane| plane.split_at_mut(tuples.len()));
    for (g, tuple) in tuples.iter().enumerate() {
        for i in 0..M {
            planes[i].0[g] = tuple[i];
        }
    }
    for (i, (_, past)) in planes.iter_mut().enumerate() {
        past.fill(0);
        if let Some(&byte) = tail.get(i) {
            past[0] = byte;
        }
    }
}

/// See [`deinterleave_fixed`].
#[inline(always)]
fn interleave_fixed<const M: usize>(planes: &[u8], out: &mut [u8]) {
    let (tuples, tail) = out.as_chunks_mut::<M>();
    let mut cut = planes.chunks_exact(planes.len() / M);
    let planes: [&[u8]; M] = std::array::from_fn(|_| cut.next().expect("M planes"));
    let planes = planes.map(|plane| plane.split_at(tuples.len()));
    for (g, tuple) in tuples.iter_mut().enumerate() {
        for i in 0..M {
            tuple[i] = planes[i].0[g];
        }
    }
    for (byte, (_, past)) in tail.iter_mut().zip(planes) {
        *byte = past[0];
    }
}

/// Every entry point — whichever body the CPU selects — against its portable
/// body and against the bit-serial multiply or the index formula.  On a host
/// without AVX2 (and on CI's 32-bit job, where `crate::hw` does not exist)
/// the first two coincide; `crate::hw` tests the token's methods by name.
#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 167 + 13) as u8).collect()
    }

    #[test]
    fn field_axioms_spot_checks() {
        for a in [1u8, 2, 7, 0x53, 0xca, 0xff] {
            assert_eq!(gf_mul(a, inv(a)), 1, "a * a^-1 = 1 for {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity samples.
        for (a, b, c) in [(3u8, 5u8, 7u8), (0x53, 0xca, 0x11), (255, 254, 253)] {
            assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn division_roundtrip() {
        // Every element has the one inverse: (a / b) · b = a, and only
        // inv(b) takes b to 1.
        for b in 1..=255u8 {
            let b_inv = inv(b);
            assert_eq!(
                (1..=255u8)
                    .filter(|&x| gf_mul(x, b) == 1)
                    .collect::<Vec<_>>(),
                [b_inv]
            );
            for a in [1u8, 9, 0x42, 0xee] {
                assert_eq!(gf_mul(gf_mul(a, b_inv), b), a, "{a} / {b}");
            }
        }
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0x02, 0), 1);
        assert_eq!(pow(0x02, 1), 2);
        assert_eq!(pow(0x02, 8), gf_mul(pow(0x02, 4), pow(0x02, 4)));
        // Fermat: a^255 = 1 for a != 0.
        for a in [1u8, 2, 3, 0x53, 0xff] {
            assert_eq!(pow(a, 255), 1);
        }
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn poly_eval_horner() {
        // p(x) = 3 + 2x + x^2 at x = 0, 1 in GF(256).
        let p = [3u8, 2, 1];
        assert_eq!(poly_eval(&p, 0), 3);
        assert_eq!(poly_eval(&p, 1), 3 ^ 2 ^ 1);
        // Constant polynomial.
        assert_eq!(poly_eval(&[7], 0x55), 7);
        assert_eq!(poly_eval(&[], 0x55), 0);
    }

    #[test]
    fn solve_identity_and_vandermonde() {
        // Identity system.
        let m = vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]];
        assert_eq!(solve(&m, &[5, 6, 7]).unwrap(), vec![5, 6, 7]);

        // Vandermonde system: recover coefficients from evaluations.
        let coeffs = [0x12u8, 0x34, 0x56];
        let xs = [1u8, 2, 3];
        let ys: Vec<u8> = xs.iter().map(|&x| poly_eval(&coeffs, x)).collect();
        let matrix: Vec<Vec<u8>> = xs
            .iter()
            .map(|&x| (0..3).map(|i| pow(x, i as u32)).collect())
            .collect();
        assert_eq!(solve(&matrix, &ys).unwrap(), coeffs.to_vec());
    }

    #[test]
    fn invert_times_matrix_is_identity() {
        let xs = [1u8, 4, 9, 200];
        let matrix: Vec<Vec<u8>> = xs
            .iter()
            .map(|&x| (0..4).map(|i| pow(x, i)).collect())
            .collect();
        let inverse = invert(&matrix).unwrap();
        for (i, inv_row) in inverse.iter().enumerate() {
            // Row i of M⁻¹ · M, accumulated one scaled row of M at a time.
            let mut product = [0u8; 4];
            for (&weight, row) in inv_row.iter().zip(&matrix) {
                for (cell, &v) in product.iter_mut().zip(row) {
                    *cell ^= gf_mul(weight, v);
                }
            }
            let identity: Vec<u8> = (0..4).map(|j| u8::from(i == j)).collect();
            assert_eq!(product[..], identity[..], "row {i}");
        }
        assert!(invert(&[vec![1, 2], vec![1, 2]]).is_none());
    }

    #[test]
    fn solve_detects_singular_matrix() {
        let m = vec![vec![1, 2], vec![1, 2]];
        assert!(solve(&m, &[3, 4]).is_none());
        let zero = vec![vec![0, 0], vec![0, 0]];
        assert!(solve(&zero, &[0, 0]).is_none());
    }

    #[test]
    fn product_rows_match_scalar_mul() {
        for c in 0..=255u8 {
            let row = Multiplier::new(c).row;
            for x in 0..=255u8 {
                assert_eq!(row[x as usize], gf_mul(c, x), "{c} * {x}");
            }
        }
    }

    #[test]
    fn mul_acc_matches_the_bit_serial_multiply() {
        let bytes = noise(512);
        for c in 0..=255u8 {
            let mul = Multiplier::new(c);
            let products: [u8; 256] = std::array::from_fn(|v| gf_mul(c, v as u8));
            // Empty, under one vector, whole vectors and ragged tails, with
            // neither slice starting on a vector boundary.
            for len in 0..=200 {
                let src = &bytes[3..3 + len];
                let mut want = bytes[256..].to_vec();
                for (d, &s) in want[1..1 + len].iter_mut().zip(src) {
                    *d ^= products[s as usize];
                }
                let mut got = bytes[256..].to_vec();
                mul.mul_acc(&mut got[1..1 + len], src);
                assert_eq!(got, want, "{c} over {len} bytes");
                let mut got = bytes[256..].to_vec();
                mul.mul_acc_portable(&mut got[1..1 + len], src);
                assert_eq!(got, want, "{c} over {len} bytes, portable");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unequal slices")]
    fn mul_acc_rejects_unequal_slices() {
        Multiplier::new(2).mul_acc(&mut [0u8; 4], &[0u8; 5]);
    }

    #[test]
    fn transposes_match_the_index_formula_and_round_trip() {
        for m in (1..=9).chain([16, 255]) {
            // Short of a tuple, a last short tuple, and enough tuples for
            // the vector loops of every width.
            for data_len in [0, 1, m - 1, m, m + 1, 7 * m + 3, 100 * m + m / 2] {
                // Planes exactly as long as the data needs, and longer.
                for slack in [0, 5] {
                    let data = noise(data_len);
                    let len = data_len.div_ceil(m) + slack;
                    let case = format!("m {m}, {data_len} bytes, planes of {len}");

                    let mut planes = vec![0xa5u8; m * len];
                    deinterleave(&data, m, &mut planes);
                    for (i, plane) in planes.chunks_exact(len.max(1)).enumerate() {
                        for (g, &byte) in plane.iter().enumerate() {
                            let want = data.get(g * m + i).copied().unwrap_or(0);
                            assert_eq!(byte, want, "{case}: plane {i} byte {g}");
                        }
                    }
                    let mut portable = vec![0xa5u8; m * len];
                    deinterleave_body(&data, m, &mut portable);
                    assert_eq!(portable, planes, "{case}: portable");

                    let mut back = vec![0x5au8; data_len];
                    interleave(&planes, m, &mut back);
                    assert_eq!(back, data, "{case}: round trip");
                    back.fill(0x5a);
                    interleave_body(&planes, m, &mut back);
                    assert_eq!(back, data, "{case}: portable round trip");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "planes")]
    fn planes_shorter_than_the_data_are_rejected() {
        deinterleave(&[0u8; 7], 3, &mut [0u8; 6]);
    }
}
