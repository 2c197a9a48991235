//! Property-based tests for the coding math the survival subsystem builds
//! on: GF(2^8) must actually be a field, and Rabin's IDA must survive the
//! loss of any `n - m` shares — for *arbitrary* share subsets and codes, not
//! just the first `m` shares the unit tests pick.

use proptest::prelude::*;
use stegfs_crypto::gf256::{self, Multiplier};
use stegfs_crypto::ida::{Ida, Share};

/// `acc + a · b` as the coding kernels compute it: the multiplier by `a`,
/// whose products `gf256`'s unit tests hold to the bit-serial multiply,
/// accumulated over one byte.
fn mul_acc(acc: u8, a: u8, b: u8) -> u8 {
    let mut acc = [acc];
    Multiplier::new(a).mul_acc(&mut acc, &[b]);
    acc[0]
}

fn add(a: u8, b: u8) -> u8 {
    mul_acc(a, 1, b)
}

fn mul(a: u8, b: u8) -> u8 {
    mul_acc(0, a, b)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    // ---------------------------------------------------------------
    // GF(256) field axioms
    // ---------------------------------------------------------------

    #[test]
    fn gf256_addition_group(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        // Commutative, associative, identity 0, every element self-inverse
        // (characteristic 2).
        prop_assert_eq!(add(a, b), add(b, a));
        prop_assert_eq!(add(add(a, b), c), add(a, add(b, c)));
        prop_assert_eq!(add(a, 0), a);
        prop_assert_eq!(add(a, a), 0);
    }

    #[test]
    fn gf256_multiplicative_group(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(mul(a, b), mul(b, a));
        prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        prop_assert_eq!(mul(a, 1), a);
        prop_assert_eq!(mul(a, 0), 0);
        // The square-and-multiply power agrees with repeated products.
        prop_assert_eq!(gf256::pow(a, 3), mul(a, mul(a, a)));
        if a != 0 {
            prop_assert_eq!(mul(a, gf256::inv(a)), 1);
            prop_assert_eq!(mul(mul(a, b), gf256::inv(a)), b);
        }
    }

    #[test]
    fn gf256_distributivity(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }

    // ---------------------------------------------------------------
    // IDA round trip under arbitrary share loss
    // ---------------------------------------------------------------

    #[test]
    fn ida_survives_any_n_minus_m_share_losses(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        m in 1usize..5,
        extra in 0usize..4,
        subset_seed in any::<u64>()
    ) {
        let n = m + extra;
        let ida = Ida::new(m, n).unwrap();
        let shares = ida.split(&data);
        prop_assert_eq!(shares.len(), n);

        // Drop n - m shares chosen by the seed: keep an arbitrary m-subset,
        // in an arbitrary order.
        let mut pool: Vec<Share> = shares;
        let mut rng = subset_seed ^ 0x9e37_79b9_7f4a_7c15;
        while pool.len() > m {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let drop_at = (rng % pool.len() as u64) as usize;
            pool.swap_remove(drop_at);
        }

        let rebuilt = ida.reconstruct(&pool, data.len()).unwrap();
        prop_assert_eq!(&rebuilt, &data);
        // Rebuilt at the shares' whole length, the bytes past the data are
        // the zero padding `split` put into the shares.
        let padded_len = pool[0].data.len() * m;
        let padded = ida.reconstruct(&pool, padded_len).unwrap();
        prop_assert_eq!(&padded[..data.len()], &data[..]);
        prop_assert!(padded[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn ida_split_is_deterministic(
        data in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        // Determinism is what lets the scavenger rebuild a damaged share to
        // the byte-identical ciphertext the volume originally held.
        let ida = Ida::new(2, 4).unwrap();
        let a = ida.split(&data);
        let b = ida.split(&data);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(&x.data, &y.data);
        }
    }

    #[test]
    fn ida_fewer_than_m_shares_reconstruct_nothing(
        data in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        let ida = Ida::new(3, 5).unwrap();
        let shares = ida.split(&data);
        prop_assert!(ida.reconstruct(&shares[..2], data.len()).is_err());
        prop_assert!(ida.reconstruct(&[], data.len()).is_err());
    }
}
