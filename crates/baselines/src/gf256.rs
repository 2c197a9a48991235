//! Arithmetic in GF(2⁸), the field underlying Rabin's Information Dispersal
//! Algorithm (and AES, though the AES implementation in `stegfs-crypto` keeps
//! its own inlined helpers).
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x + 1), i.e. the AES polynomial
//! 0x11b.  Scalar multiplication uses log/antilog tables built at compile
//! time and is what builds and inverts the coding matrices here; the bulk
//! work — a whole slice times one matrix coefficient — is
//! [`stegfs_crypto::gf256::Multiplier`], over the same field.

/// The reduction polynomial (x⁸ + x⁴ + x³ + x + 1).
const POLY: u16 = 0x11b;

/// Generator used to build the log/antilog tables.
const GENERATOR: u8 = 0x03;

struct Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

static TABLES: Tables = build_tables();

const fn build_tables() -> Tables {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        log[x as usize] = i as u8;
        x = mul_slow(x, GENERATOR);
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    Tables { log, exp }
}

/// Bitwise (carry-less, reduced) multiplication — used to build the tables
/// and as an independent cross-check in tests.
pub const fn mul_slow(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut p = 0u16;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    p as u8
}

/// Addition in GF(2⁸) (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication via log/antilog tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    TABLES.exp[TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics if `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    TABLES.exp[255 - TABLES.log[a as usize] as usize]
}

/// Division `a / b`.
///
/// # Panics
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Exponentiation `a^e`.
pub fn pow(a: u8, mut e: u32) -> u8 {
    let mut result = 1u8;
    let mut base = a;
    while e > 0 {
        if e & 1 == 1 {
            result = mul(result, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    result
}

/// Evaluate the polynomial `coeffs[0] + coeffs[1] x + …` at `x` (Horner).
/// One share byte of the per-byte IDA the slice kernels are tested against.
#[cfg(test)]
pub(crate) fn poly_eval(coeffs: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs.iter().rev() {
        acc = add(mul(acc, x), c);
    }
    acc
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
            *v = mul(*v, p_inv);
        }
        // Eliminate the column from all other rows.
        let pivot_row = m[col].clone();
        for (row, row_vals) in m.iter_mut().enumerate() {
            if row != col && row_vals[col] != 0 {
                let factor = row_vals[col];
                for (cell, &pv) in row_vals.iter_mut().zip(&pivot_row) {
                    *cell = add(*cell, mul(factor, pv));
                }
            }
        }
    }
    Some(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mul_matches_slow_mul() {
        // Exhaustive cross-check of the table construction.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn known_products_from_fips197() {
        assert_eq!(mul(0x57, 0x83), 0xc1);
        assert_eq!(mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn field_axioms_spot_checks() {
        for a in [1u8, 2, 7, 0x53, 0xca, 0xff] {
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 = 1 for {a}");
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0, "characteristic 2");
        }
        // Distributivity samples.
        for (a, b, c) in [(3u8, 5u8, 7u8), (0x53, 0xca, 0x11), (255, 254, 253)] {
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn division_roundtrip() {
        for a in [1u8, 9, 0x42, 0xee] {
            for b in [1u8, 3, 0x80, 0xff] {
                assert_eq!(mul(div(a, b), b), a);
            }
        }
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0x02, 0), 1);
        assert_eq!(pow(0x02, 1), 2);
        assert_eq!(pow(0x02, 8), mul(pow(0x02, 4), pow(0x02, 4)));
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
                    *cell = add(*cell, mul(weight, v));
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
}
