//! End-to-end survivability: randomized media damage against k-of-n coded
//! hidden objects, exercised through the full stack (StegFS facade, coded
//! write path, checksum-verified degraded reads, offline scavenger).
//!
//! The contract under test, for `Disperse{m, n}` objects:
//!
//! * destroying **any** `n - m` share blocks of every group leaves every
//!   object byte-identical — both through a live (degraded) read and after
//!   an offline scavenge repair, which must restore the *raw device* to a
//!   byte-identical image;
//! * destroying more shares in a group yields a clean error — never torn
//!   or partial plaintext — and the scavenger reports the object lost
//!   without writing anything.

use proptest::prelude::*;
use stegfs_blockdev::{BlockDevice, FaultDevice, MemBlockDevice};
use stegfs_core::{ObjectKind, StegFs};
use stegfs_survival::{scavenge, RepairOutcome};
use stegfs_tests::{coded_params, payload};

const OWNER: &str = "the real key";

type CodedVolume = StegFs<FaultDevice<MemBlockDevice>>;

fn coded_volume(m: u8, n: u8, blocks: u64) -> CodedVolume {
    StegFs::format(
        FaultDevice::new(MemBlockDevice::new(1024, blocks)),
        coded_params(m, n),
    )
    .expect("format coded volume")
}

/// Seeded xorshift for picking damage victims.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Destroy `losses` pseudorandomly chosen distinct shares in every group of
/// `name`, mixing zeroing, junk overwrite and bit flips.  Returns the
/// number of blocks destroyed.
fn destroy_shares(fs: &CodedVolume, name: &str, losses: usize, seed: u64) -> usize {
    let dev = fs.plain_fs().device().clone();
    let mut rng = seed ^ 0x5743_2003;
    let mut destroyed = 0;
    for group in fs.hidden_share_extents(name, OWNER).expect("extents") {
        let mut pool = group.clone();
        for _ in 0..losses.min(pool.len()) {
            let pick = (xorshift(&mut rng) % pool.len() as u64) as usize;
            let victim = pool.swap_remove(pick);
            match xorshift(&mut rng) % 3 {
                0 => {
                    dev.zero_block(victim).expect("zero");
                }
                1 => {
                    dev.overwrite_region(victim, 1, xorshift(&mut rng))
                        .expect("junk");
                }
                // Heavy bit rot rather than a single flip, so the share
                // cannot accidentally still checksum-match.
                _ => {
                    dev.flip_bits(victim, 65, xorshift(&mut rng)).expect("flip");
                }
            }
            destroyed += 1;
        }
    }
    fs.purge_read_caches();
    destroyed
}

/// The object's metadata replica groups visible from outside the engine:
/// the header-replica set and the head inode-chain replica set.  Both are
/// replicated `n - m + 1` ways under `Disperse{m, n}`, so they tolerate the
/// same `n - m` losses as a data group.
fn metadata_groups(fs: &CodedVolume, name: &str) -> Vec<Vec<u64>> {
    let entry = fs.lookup_entry(name, OWNER).expect("entry");
    let keys = stegfs_core::crypt::ObjectKeys::derive(&entry.physical_name, &entry.fak);
    let obj = fs.object_io(&keys).open(&entry.physical_name);
    obj.expect("open").metadata_groups()
}

/// Destroy `losses` pseudorandomly chosen replicas in every metadata group
/// of `name` (never more than the group can spare unless `losses` exceeds
/// the group size on purpose).
fn destroy_metadata(fs: &CodedVolume, name: &str, losses: usize, seed: u64) -> usize {
    let dev = fs.plain_fs().device().clone();
    let mut rng = seed ^ 0x6d65_7461;
    let mut destroyed = 0;
    for group in metadata_groups(fs, name) {
        let mut pool = group.clone();
        for _ in 0..losses.min(pool.len()) {
            let pick = (xorshift(&mut rng) % pool.len() as u64) as usize;
            let victim = pool.swap_remove(pick);
            match xorshift(&mut rng) % 3 {
                0 => {
                    dev.zero_block(victim).expect("zero");
                }
                1 => {
                    dev.overwrite_region(victim, 1, xorshift(&mut rng))
                        .expect("junk");
                }
                _ => {
                    dev.flip_bits(victim, 65, xorshift(&mut rng)).expect("flip");
                }
            }
            destroyed += 1;
        }
    }
    fs.purge_read_caches();
    destroyed
}

fn raw_image(fs: &CodedVolume) -> Vec<u8> {
    let dev = fs.plain_fs().device();
    let mut image = Vec::with_capacity((dev.total_blocks() as usize) * dev.block_size());
    for b in 0..dev.total_blocks() {
        image.extend(dev.read_block_vec(b).expect("raw read"));
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_n_minus_m_losses_leave_every_byte_recoverable(
        code_idx in 0usize..3,
        size in 1usize..40_000,
        damage_seed in any::<u64>()
    ) {
        let (m, n) = [(2u8, 4u8), (2, 3), (3, 5)][code_idx];
        let fs = coded_volume(m, n, 8192);
        let data = payload(size as u64 ^ damage_seed, size);
        fs.steg_create("obj", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("obj", OWNER, &data).unwrap();
        let pristine = raw_image(&fs);

        let destroyed = destroy_shares(&fs, "obj", (n - m) as usize, damage_seed);
        prop_assert!(destroyed > 0);

        // A live read survives on checksum-verified fallback shares.
        prop_assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data.clone());

        // The offline scavenger heals the volume back to the byte-identical
        // pristine image: deterministic re-split + block-keyed cipher mean a
        // repaired share re-encrypts to exactly the original ciphertext.
        let report = scavenge(&fs, &[OWNER]).unwrap();
        prop_assert!(report.all_recovered(), "scavenge lost objects: {:?}", report);
        prop_assert_eq!(report.objects_repaired, 1);
        prop_assert_eq!(raw_image(&fs), pristine);

        fs.purge_read_caches();
        prop_assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data);
    }

    #[test]
    fn metadata_damage_within_redundancy_heals_byte_identically(
        code_idx in 0usize..3,
        size in 1usize..30_000,
        damage_seed in any::<u64>()
    ) {
        let (m, n) = [(2u8, 4u8), (2, 3), (3, 5)][code_idx];
        let fs = coded_volume(m, n, 8192);
        let data = payload(size as u64 ^ damage_seed, size);
        fs.steg_create("obj", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("obj", OWNER, &data).unwrap();
        let pristine = raw_image(&fs);

        // Header and chain replicas are n-m+1 deep: losing n-m of each
        // group — on top of n-m data shares per group — leaves exactly one
        // live copy everywhere.
        let tol = (n - m) as usize;
        prop_assert!(destroy_metadata(&fs, "obj", tol, damage_seed) > 0);
        destroy_shares(&fs, "obj", tol, damage_seed);

        // A live read still reconstructs every byte, from the surviving
        // metadata replicas and fallback shares.
        prop_assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data.clone());

        // The scavenger restores the raw device byte-identically: metadata
        // replicas carry identical plaintext and the cipher is keyed per
        // block number, so rewrites reproduce the original ciphertext.
        let report = scavenge(&fs, &[OWNER]).unwrap();
        prop_assert!(report.all_recovered(), "scavenge lost objects: {:?}", report);
        prop_assert_eq!(report.objects_repaired, 1);
        prop_assert_eq!(raw_image(&fs), pristine);

        fs.purge_read_caches();
        prop_assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data);
    }

    #[test]
    fn metadata_damage_beyond_redundancy_fails_closed_and_stays_deniable(
        code_idx in 0usize..3,
        size in 2_000usize..30_000,
        damage_seed in any::<u64>()
    ) {
        let (m, n) = [(2u8, 4u8), (2, 3), (3, 5)][code_idx];
        let fs = coded_volume(m, n, 8192);
        let data = payload(0xfee1 ^ damage_seed, size);
        fs.steg_create("obj", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("obj", OWNER, &data).unwrap();

        // Destroy a whole metadata group — one loss past its redundancy.
        let groups = metadata_groups(&fs, "obj");
        let target = &groups[(damage_seed as usize) % groups.len()];
        let dev = fs.plain_fs().device().clone();
        for &b in target {
            dev.zero_block(b).unwrap();
        }
        fs.purge_read_caches();

        // Fail-closed: a clean error, never torn plaintext.  A destroyed
        // header keeps the absent-object error family, so the failure tells
        // an inspector nothing a missing object would not.
        let err = fs.read_hidden_with_key("obj", OWNER).unwrap_err();
        if target == &groups[0] {
            prop_assert!(err.is_not_found(), "expected NotFound, got: {err}");
        }

        // The scavenger reports it lost and writes nothing at all.
        let before_scavenge = raw_image(&fs);
        let report = scavenge(&fs, &[OWNER]).unwrap();
        prop_assert_eq!(report.objects_lost, 1);
        prop_assert_eq!(raw_image(&fs), before_scavenge);
        prop_assert!(fs.read_hidden_with_key("obj", OWNER).is_err());
    }

    #[test]
    fn beyond_tolerance_fails_closed_with_no_partial_plaintext(
        code_idx in 0usize..3,
        size in 4_000usize..40_000,
        damage_seed in any::<u64>()
    ) {
        let (m, n) = [(2u8, 4u8), (2, 3), (3, 5)][code_idx];
        let fs = coded_volume(m, n, 8192);
        let data = payload(0xbad ^ damage_seed, size);
        fs.steg_create("doomed", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("doomed", OWNER, &data).unwrap();

        // One more loss per group than the code tolerates.
        destroy_shares(&fs, "doomed", (n - m) as usize + 1, damage_seed);

        // Clean failure, deniable family, no bytes returned.
        let err = fs.read_hidden_with_key("doomed", OWNER).unwrap_err();
        prop_assert!(
            err.to_string().contains("live shares"),
            "expected a fail-closed share error, got: {err}"
        );

        // The scavenger reports it lost and writes nothing (the image is
        // unchanged by the scavenge pass itself).
        let before_scavenge = raw_image(&fs);
        let report = scavenge(&fs, &[OWNER]).unwrap();
        prop_assert_eq!(report.objects_lost, 1);
        prop_assert_eq!(report.lost.clone(), vec!["doomed".to_string()]);
        prop_assert_eq!(raw_image(&fs), before_scavenge);

        // Still fail-closed after the scavenge pass.
        prop_assert!(fs.read_hidden_with_key("doomed", OWNER).is_err());
    }
}

#[test]
fn degraded_objects_coexist_with_healthy_ones() {
    // Mixed damage across a small population: the scavenger repairs what it
    // can, reports what it cannot, and healthy objects are untouched.
    let fs = coded_volume(2, 4, 8192);
    for (i, name) in ["healthy", "degraded", "doomed"].iter().enumerate() {
        fs.steg_create(name, OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key(name, OWNER, &payload(i as u64, 12_000))
            .unwrap();
    }
    destroy_shares(&fs, "degraded", 2, 41); // exactly tolerated
    destroy_shares(&fs, "doomed", 3, 42); // beyond tolerance

    let report = scavenge(&fs, &[OWNER]).unwrap();
    assert_eq!(report.objects_scanned, 3);
    assert_eq!(report.objects_intact, 1);
    assert_eq!(report.objects_repaired, 1);
    assert_eq!(report.objects_lost, 1);
    assert_eq!(report.lost, vec!["doomed".to_string()]);

    fs.purge_read_caches();
    assert_eq!(
        fs.read_hidden_with_key("healthy", OWNER).unwrap(),
        payload(0, 12_000)
    );
    assert_eq!(
        fs.read_hidden_with_key("degraded", OWNER).unwrap(),
        payload(1, 12_000)
    );
    assert!(fs.read_hidden_with_key("doomed", OWNER).is_err());
}

#[test]
fn per_object_policy_overrides_the_volume_default() {
    use stegfs_core::Policy;
    // A volume whose default is Plain can still create dispersed objects,
    // and the dispersed object survives damage the plain one cannot.
    let fs = StegFs::format(
        FaultDevice::new(MemBlockDevice::new(1024, 8192)),
        stegfs_tests::full_feature_params(),
    )
    .unwrap();
    fs.steg_create_with_policy(
        "tough",
        OWNER,
        ObjectKind::File,
        Policy::Disperse { m: 2, n: 4 },
    )
    .unwrap();
    fs.write_hidden_with_key("tough", OWNER, &payload(7, 10_000))
        .unwrap();

    destroy_shares(&fs, "tough", 2, 7);
    assert_eq!(
        fs.read_hidden_with_key("tough", OWNER).unwrap(),
        payload(7, 10_000)
    );
    let entry = fs.lookup_entry("tough", OWNER).unwrap();
    assert!(matches!(
        fs.scavenge_entry(&entry).unwrap(),
        RepairOutcome::Repaired { .. }
    ));
}

/// Mnemosyne's claim (§2 of the paper), made about the production policies:
/// for the same tolerance of 2 lost shares per group, `Disperse{4, 6}`
/// stores 1.5 times the data where `Replicate(3)` stores 3 times, and both
/// read back byte-identically with 2 shares of every group destroyed.
#[test]
fn dispersal_needs_less_space_than_replication_for_equal_tolerance() {
    use stegfs_core::Policy;
    let fs = StegFs::format(
        FaultDevice::new(MemBlockDevice::new(1024, 8192)),
        stegfs_tests::full_feature_params(),
    )
    .unwrap();
    let data = payload(7, 30 * 1024);
    let mut share_blocks = Vec::new();
    for (name, policy) in [
        ("replicated", Policy::Replicate(3)),
        ("dispersed", Policy::Disperse { m: 4, n: 6 }),
    ] {
        fs.steg_create_with_policy(name, OWNER, ObjectKind::File, policy)
            .unwrap();
        fs.write_hidden_with_key(name, OWNER, &data).unwrap();
        let groups = fs.hidden_share_extents(name, OWNER).unwrap();
        share_blocks.push(groups.iter().map(Vec::len).sum::<usize>());
        assert_eq!(destroy_shares(&fs, name, 2, 11), 2 * groups.len());
        assert!(
            fs.read_hidden_with_key(name, OWNER).unwrap() == data,
            "{name} with 2 shares of every group destroyed"
        );
    }
    let [replicated, dispersed] = share_blocks[..] else {
        unreachable!()
    };
    assert!(
        dispersed < replicated,
        "Disperse{{4, 6}} holds {dispersed} share blocks, Replicate(3) {replicated}"
    );
}

/// AES-CTR is malleable: XORing δ into a share's ciphertext XORs δ into its
/// plaintext, and needs no key.  The same δ at two 16-byte offsets cancels in
/// any XOR fold of the share's blocks, so an unkeyed linear check would pass
/// the modified share and let it poison its group.  The keyed share check
/// catches it: the degraded read returns the original bytes from the
/// group's other shares, and the scavenger rewrites the share to its
/// pristine ciphertext.
#[test]
fn a_share_modified_through_its_ciphertext_is_caught_and_repaired() {
    let fs = coded_volume(2, 3, 8192);
    let data = payload(0xc7, 9_000);
    fs.steg_create("obj", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("obj", OWNER, &data).unwrap();
    let pristine = raw_image(&fs);

    // A primary share, so the read must notice and fall back.
    let victim = fs.hidden_share_extents("obj", OWNER).unwrap()[1][0];
    let dev = fs.plain_fs().device().clone();
    let mut block = dev.read_block_vec(victim).unwrap();
    let delta: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) | 1);
    for at in [64, 512] {
        for (b, d) in block[at..at + 16].iter_mut().zip(delta) {
            *b ^= d;
        }
    }
    dev.write_block(victim, &block).unwrap();
    fs.purge_read_caches();

    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data);
    let report = scavenge(&fs, &[OWNER]).unwrap();
    assert!(report.all_recovered(), "{report:?}");
    assert_eq!(report.objects_repaired, 1);
    assert_eq!(raw_image(&fs), pristine);
    fs.purge_read_caches();
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), data);
}

/// Repair under concurrency: degraded readers race the keyed scavenger,
/// and a full rewrite racing a scavenge pass must never let the repair
/// resurrect the superseded incarnation.
#[test]
fn concurrent_degraded_reads_and_repairs_never_resurrect_old_data() {
    use std::sync::Arc;
    use std::thread;
    let fs = Arc::new(coded_volume(2, 4, 8192));
    fs.steg_create("hot", OWNER, ObjectKind::File).unwrap();
    let mut current = payload(0, 10_000);
    fs.write_hidden_with_key("hot", OWNER, &current).unwrap();

    for round in 1..=4u64 {
        // Tolerable damage: one share per group plus one replica per
        // metadata group (each tolerates n - m = 2 losses).
        destroy_shares(&fs, "hot", 1, round);
        destroy_metadata(&fs, "hot", 1, round);

        // Concurrent degraded readers race a scavenge pass.
        let mut joins = Vec::new();
        for _ in 0..3 {
            let fs = Arc::clone(&fs);
            let want = current.clone();
            joins.push(thread::spawn(move || {
                assert_eq!(fs.read_hidden_with_key("hot", OWNER).unwrap(), want);
            }));
        }
        {
            let fs = Arc::clone(&fs);
            joins.push(thread::spawn(move || {
                let report = scavenge(&*fs, &[OWNER]).unwrap();
                assert!(report.all_recovered(), "{report:?}");
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        // Rewrite a new incarnation while another pass runs; the repair
        // re-opens fresh under the object lock, so it must converge on the
        // *new* bytes.
        destroy_shares(&fs, "hot", 1, round + 100);
        let healer = {
            let fs = Arc::clone(&fs);
            thread::spawn(move || scavenge(&*fs, &[OWNER]).unwrap())
        };
        current = payload(round, 10_000 + round as usize * 512);
        fs.write_hidden_with_key("hot", OWNER, &current).unwrap();
        let report = healer.join().unwrap();
        assert!(report.all_recovered(), "round {round}: {report:?}");
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("hot", OWNER).unwrap(), current);
    }

    let report = scavenge(&*fs, &[OWNER]).unwrap();
    assert!(report.all_recovered(), "{report:?}");
}
