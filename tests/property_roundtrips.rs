//! Property-based tests (proptest) over the core data paths: whatever is
//! written must come back intact, across arbitrary sizes, offsets and keys.

use proptest::prelude::*;
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::{ObjectKind, Parent, StegFs, StegParams};
use stegfs_crypto::ida::Ida;
use stegfs_fs::{AllocPolicy, FormatOptions, PlainFs};

fn quick_steg_params() -> StegParams {
    StegParams {
        random_fill: false,
        dummy_file_count: 0,
        abandoned_pct: 0.5,
        ..StegParams::for_tests()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn plainfs_write_read_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..40_000),
        policy_choice in 0u8..3
    ) {
        let policy = match policy_choice {
            0 => AllocPolicy::FirstFit,
            1 => AllocPolicy::Contiguous,
            _ => AllocPolicy::frag_disk(),
        };
        let fs = PlainFs::format(
            MemBlockDevice::new(1024, 2048),
            FormatOptions { policy, ..FormatOptions::default() },
        ).unwrap();
        fs.write_file("/f", &data).unwrap();
        prop_assert_eq!(fs.read_file("/f").unwrap(), data);
    }

    #[test]
    fn plainfs_range_reads_match_full_reads(
        data in proptest::collection::vec(any::<u8>(), 1..30_000),
        offset_frac in 0.0f64..1.0,
        len in 1usize..5_000
    ) {
        let fs = PlainFs::format(
            MemBlockDevice::new(1024, 2048),
            FormatOptions::default(),
        ).unwrap();
        fs.write_file("/f", &data).unwrap();
        let offset = (offset_frac * data.len() as f64) as u64;
        let got = fs.read_file_range("/f", offset, len).unwrap();
        let expected_end = ((offset as usize) + len).min(data.len());
        let expected = &data[(offset as usize).min(data.len())..expected_end];
        prop_assert_eq!(got, expected.to_vec());
    }

    #[test]
    fn hidden_file_roundtrip_arbitrary_contents(
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
        uak in "[a-zA-Z0-9 ]{4,24}",
        name in "[a-z][a-z0-9-]{0,16}"
    ) {
        let fs = StegFs::format(MemBlockDevice::new(1024, 4096), quick_steg_params()).unwrap();
        fs.steg_create(&name, &uak, ObjectKind::File).unwrap();
        fs.write_hidden_with_key(&name, &uak, &data).unwrap();
        prop_assert_eq!(fs.read_hidden_with_key(&name, &uak).unwrap(), data);
        // A perturbed key cannot find it.
        let wrong = format!("{uak}!");
        prop_assert!(fs.read_hidden_with_key(&name, &wrong).unwrap_err().is_not_found());
    }

    #[test]
    fn hidden_rewrite_never_leaks_blocks(
        sizes in proptest::collection::vec(0usize..50_000, 1..5)
    ) {
        let fs = StegFs::format(MemBlockDevice::new(1024, 4096), quick_steg_params()).unwrap();
        fs.steg_create("rw", "key", ObjectKind::File).unwrap();
        let baseline = fs.space_report().unwrap().free_blocks;
        let mut last = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            last = vec![(i % 251) as u8; size];
            fs.write_hidden_with_key("rw", "key", &last).unwrap();
        }
        prop_assert_eq!(fs.read_hidden_with_key("rw", "key").unwrap(), last.clone());
        // After deleting, every block the object ever held is free again
        // (the pool and all data/chain blocks).
        fs.remove(Parent::Uak("key"), "rw").unwrap();
        let after = fs.space_report().unwrap().free_blocks;
        // The UAK directory itself still holds a handful of blocks.
        prop_assert!(after + 24 >= baseline,
            "free before {} vs after delete {}", baseline, after);
    }

    #[test]
    fn ida_reconstructs_from_any_threshold_subset(
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
        m in 1usize..5,
        extra in 0usize..4,
        pick_seed in any::<u64>()
    ) {
        let n = m + extra;
        let ida = Ida::new(m, n).unwrap();
        let shares = ida.split(&data);
        // Pick a pseudo-random subset of exactly m shares.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = pick_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let subset: Vec<_> = order[..m].iter().map(|&i| shares[i].clone()).collect();
        prop_assert_eq!(ida.reconstruct(&subset, data.len()).unwrap(), data);
    }

    #[test]
    fn crypto_block_cipher_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        block_no in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..4_096)
    ) {
        use stegfs_crypto::modes::{block_nonce, CtrCipher};
        let cipher = CtrCipher::new(&key);
        let nonce = block_nonce(block_no);
        let mut buf = data.clone();
        cipher.apply(&nonce, &mut buf);
        if !data.is_empty() {
            // Overwhelmingly likely to differ for non-trivial data.
            if data.iter().any(|&b| b != 0) || data.len() > 8 {
                prop_assert_ne!(&buf, &data);
            }
        }
        cipher.apply(&nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }
}
