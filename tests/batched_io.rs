//! Batched block I/O: equivalence and submission-count guarantees.
//!
//! Three families of checks:
//!
//! * a property test that `read_blocks` / `write_blocks` is observably
//!   identical to the block-at-a-time loop on **every** device
//!   implementation (the trait's default, the native in-memory/cache/meter/
//!   fault paths, the shared handle, the timing models);
//! * one pinned digest over the fault injector's seeded outcomes (crashes,
//!   damage, random failure streaks), so no refactor of it moves a seed;
//! * metered assertions that the file-system layers actually *use* the batch
//!   path: a multi-block read or write of a 16-block object reaches the
//!   device as **one** batched submission, for plain files and hidden
//!   objects alike, and every hidden-object mutation on a write-through
//!   volume — shares, chain nodes and header replicas together — is one
//!   write submission, moving the same blocks as when they left apart.

use proptest::prelude::*;
use std::time::Duration;
use stegfs_blockdev::{
    BlockDevice, BufferCache, DiskParameters, FaultDevice, LatencyDevice, MemBlockDevice,
    ObservedDevice, SharedDevice, SimDisk,
};
use stegfs_core::crypt::ObjectKeys;
use stegfs_core::hidden::ObjectIo;
use stegfs_core::readcache::ReadCache;
use stegfs_core::{ObjectKind, Policy, StegParams};
use stegfs_crypto::prng::DeterministicRng;
use stegfs_crypto::sha256::Sha256;
use stegfs_fs::{FormatOptions, PlainFs};

const BS: usize = 256;
const TOTAL: u64 = 64;

/// Write via one batched submission, read back block at a time — then write
/// block at a time, read back via one batched submission.  Both directions
/// must agree bytewise with the loop semantics on `dev`.
fn assert_batch_equals_loop<D: BlockDevice>(dev: &D, blocks: &[u64], seed: u8) {
    let data: Vec<u8> = (0..blocks.len() * BS)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect();

    dev.write_blocks(blocks, &data).unwrap();
    let mut single = vec![0u8; BS];
    for (i, &b) in blocks.iter().enumerate() {
        dev.read_block(b, &mut single).unwrap();
        assert_eq!(single, &data[i * BS..(i + 1) * BS], "block {b} via loop");
    }

    let reversed: Vec<u8> = data.iter().rev().copied().collect();
    for (i, &b) in blocks.iter().enumerate() {
        dev.write_block(b, &reversed[i * BS..(i + 1) * BS]).unwrap();
    }
    let mut batched = vec![0u8; blocks.len() * BS];
    dev.read_blocks(blocks, &mut batched).unwrap();
    assert_eq!(batched, reversed, "batched read disagrees with loop writes");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn batched_io_equals_block_at_a_time_on_every_device(
        raw in proptest::collection::vec(0u64..TOTAL, 1..24),
        seed in any::<u64>(),
    ) {
        // Distinct blocks keep the property crisp (ordering of duplicate
        // writes is covered by `duplicate_blocks_apply_in_order`).
        let mut blocks = raw.clone();
        blocks.sort_unstable();
        blocks.dedup();
        let seed = seed as u8;

        assert_batch_equals_loop(&MemBlockDevice::new(BS, TOTAL), &blocks, seed);
        assert_batch_equals_loop(
            &LatencyDevice::symmetric(MemBlockDevice::new(BS, TOTAL), Duration::from_micros(20)),
            &blocks,
            seed,
        );
        assert_batch_equals_loop(&ObservedDevice::counting(MemBlockDevice::new(BS, TOTAL)), &blocks, seed);
        assert_batch_equals_loop(&BufferCache::new(MemBlockDevice::new(BS, TOTAL), 8), &blocks, seed);
        assert_batch_equals_loop(&SharedDevice::new(MemBlockDevice::new(BS, TOTAL)), &blocks, seed);
        // SimDisk exercises the trait's default (loop) implementation.
        assert_batch_equals_loop(
            &SimDisk::new(MemBlockDevice::new(BS, TOTAL), DiskParameters::ultra_ata_100()),
            &blocks,
            seed,
        );
        // The fault injector is a pass-through for healthy I/O, and its
        // write cache serves what it holds: neither may disturb batch/loop
        // equivalence.
        assert_batch_equals_loop(&FaultDevice::new(MemBlockDevice::new(BS, TOTAL)), &blocks, seed);
        assert_batch_equals_loop(
            &FaultDevice::with_write_cache(MemBlockDevice::new(BS, TOTAL)),
            &blocks,
            seed,
        );
    }

    /// Damage at rest must be indifferent to the submission shape: a volume
    /// populated with one batched write and a volume populated block at a
    /// time receive byte-identical damage from the same seeded call, and the
    /// damaged image reads back identically through both read paths.
    #[test]
    fn corrupting_device_damage_is_identical_across_batch_and_loop(
        raw in proptest::collection::vec(0u64..TOTAL, 2..24),
        damage_count in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut blocks = raw.clone();
        blocks.sort_unstable();
        blocks.dedup();
        let data: Vec<u8> = (0..blocks.len() * BS)
            .map(|i| (i as u8).wrapping_mul(77).wrapping_add(seed as u8))
            .collect();

        let batched_dev = FaultDevice::new(MemBlockDevice::new(BS, TOTAL));
        batched_dev.write_blocks(&blocks, &data).unwrap();
        let loop_dev = FaultDevice::new(MemBlockDevice::new(BS, TOTAL));
        for (i, &b) in blocks.iter().enumerate() {
            loop_dev.write_block(b, &data[i * BS..(i + 1) * BS]).unwrap();
        }

        let ra = batched_dev.corrupt_random_in(&blocks, damage_count, seed).unwrap();
        let rb = loop_dev.corrupt_random_in(&blocks, damage_count, seed).unwrap();
        prop_assert_eq!(ra, rb, "same seed, same damage tally");

        // Batched read of the batch-written volume vs loop read of the
        // loop-written volume: the damaged images must agree bytewise.
        let mut via_batch = vec![0u8; blocks.len() * BS];
        batched_dev.read_blocks(&blocks, &mut via_batch).unwrap();
        let mut via_loop = vec![0u8; blocks.len() * BS];
        for (i, &b) in blocks.iter().enumerate() {
            loop_dev.read_block(b, &mut via_loop[i * BS..(i + 1) * BS]).unwrap();
        }
        prop_assert_eq!(&via_batch, &via_loop, "damaged state diverges between paths");

        // And each device agrees with itself across read paths.
        let mut cross = vec![0u8; blocks.len() * BS];
        for (i, &b) in blocks.iter().enumerate() {
            batched_dev.read_block(b, &mut cross[i * BS..(i + 1) * BS]).unwrap();
        }
        prop_assert_eq!(&cross, &via_batch, "batch-written device read paths diverge");
    }
}

#[test]
fn duplicate_blocks_apply_in_order() {
    // A batch naming one block twice behaves like the loop: last write wins.
    for dev in [
        Box::new(MemBlockDevice::new(BS, TOTAL)) as Box<dyn BlockDevice>,
        Box::new(BufferCache::new(MemBlockDevice::new(BS, TOTAL), 4)),
        Box::new(ObservedDevice::counting(MemBlockDevice::new(BS, TOTAL))),
        Box::new(FaultDevice::with_write_cache(MemBlockDevice::new(
            BS, TOTAL,
        ))),
    ] {
        let mut data = vec![1u8; 2 * BS];
        data[BS..].fill(2);
        dev.write_blocks(&[7, 7], &data).unwrap();
        assert_eq!(dev.read_block_vec(7).unwrap(), vec![2u8; BS]);
        // And a duplicate read batch returns the block twice.
        let mut out = vec![0u8; 2 * BS];
        dev.read_blocks(&[7, 7], &mut out).unwrap();
        assert_eq!(out, vec![2u8; 2 * BS]);
    }
}

#[test]
fn batch_geometry_errors_match_the_loop() {
    let dev = MemBlockDevice::new(BS, TOTAL);
    let mut buf = vec![0u8; 2 * BS];
    // Out-of-range block anywhere in the batch fails the whole submission.
    assert!(dev.read_blocks(&[0, TOTAL], &mut buf).is_err());
    assert!(dev.write_blocks(&[0, TOTAL], &buf).is_err());
    // Mismatched buffer length is rejected up front.
    assert!(dev.read_blocks(&[0], &mut buf).is_err());
    assert!(dev.write_blocks(&[0, 1, 2], &buf).is_err());
}

// ----------------------------------------------------------------------
// Every seeded fault outcome is a function of its seed, pinned.
// ----------------------------------------------------------------------

/// SHA-256 over [`fault_streams`], recorded when crashes, damage and
/// transient flakes were three devices with three xorshift copies.
const FAULT_STREAMS: &str = "d54adfbfb809bfd1cc3d3e5d4eb3cf43b2990ed22210e4fadff7fa55379db363";

/// Hash of: the crash report and surviving image for seeds 0..32 on a fixed
/// pending set (rewrites, a batch, a duplicate); one `corrupt_random_in`
/// report and its image; the outcome vector of a seeded random stream
/// (seed 42, 30 %, streaks of 2) with its injected and submission counts.
fn fault_streams() -> String {
    const PIN_BS: usize = 64;
    let pattern = |block: u64, version: u8| -> Vec<u8> {
        (0..PIN_BS)
            .map(|i| (i as u8).wrapping_mul(13) ^ (block as u8).wrapping_mul(29) ^ version)
            .collect()
    };
    let mut sha = Sha256::new();
    for seed in 0..32u64 {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(PIN_BS, 16));
        for b in 0..4 {
            dev.write_block(b, &pattern(b, 1)).unwrap();
        }
        dev.flush().unwrap();
        dev.write_block(0, &pattern(0, 2)).unwrap();
        let batch: Vec<u64> = (2..10).collect();
        let data: Vec<u8> = batch.iter().flat_map(|&b| pattern(b, 3)).collect();
        dev.write_blocks(&batch, &data).unwrap();
        dev.write_block(3, &pattern(3, 4)).unwrap();
        let r = dev.crash(seed);
        for n in [r.applied, r.dropped, r.torn] {
            sha.update(&(n as u64).to_be_bytes());
        }
        for b in 0..16 {
            sha.update(&dev.read_block_vec(b).unwrap());
        }
    }
    let dev = FaultDevice::new(MemBlockDevice::new(PIN_BS, 32));
    for b in 0..32 {
        dev.write_block(b, &pattern(b, 5)).unwrap();
    }
    let candidates: Vec<u64> = (0..32).collect();
    let r = dev.corrupt_random_in(&candidates, 12, 1234).unwrap();
    for n in [
        r.bits_flipped,
        r.blocks_bitflipped,
        r.blocks_zeroed,
        r.blocks_overwritten,
    ] {
        sha.update(&(n as u64).to_be_bytes());
    }
    for b in 0..32 {
        sha.update(&dev.read_block_vec(b).unwrap());
    }
    let dev = FaultDevice::new(MemBlockDevice::new(PIN_BS, 8));
    dev.random_failures(42, 30, 2);
    for i in 0..200u64 {
        let ok = dev.write_block(i % 8, &[i as u8; PIN_BS]).is_ok();
        sha.update(&[ok as u8]);
    }
    sha.update(&dev.injected().to_be_bytes());
    sha.update(&dev.ops().to_be_bytes());
    sha.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seeded_fault_streams_are_pinned() {
    assert_eq!(fault_streams(), FAULT_STREAMS);
}

// ----------------------------------------------------------------------
// The layers above must *route* multi-block object I/O through one batch.
// ----------------------------------------------------------------------

const OBJECT_BLOCKS: usize = 16;

#[test]
fn plain_16_block_file_io_is_one_batched_submission() {
    let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
    let stats = dev.stats().clone();
    let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
    let data = vec![0xa5u8; OBJECT_BLOCKS * 1024];
    fs.write_file("/f", &data).unwrap();
    let id = fs.resolve_file("/f").unwrap();

    // Whole-file rewrite: 16 data blocks in ONE submission, plus the
    // indirect pointer block and the inode-table block as singles.
    stats.reset();
    fs.write_inode_file(id, &data).unwrap();
    let s = stats.summary();
    assert_eq!(
        s.blocks_written, 18,
        "16 data + 1 pointer + 1 inode block: {s:?}"
    );
    assert_eq!(
        s.writes, 3,
        "the 16-block extent must ride one batched submission: {s:?}"
    );

    // Whole-range read: inode + pointer block as singles, the 16-block
    // extent as ONE submission.
    stats.reset();
    assert_eq!(fs.read_inode_range(id, 0, data.len()).unwrap(), data);
    let s = stats.summary();
    assert_eq!(s.blocks_read, 18, "1 inode + 1 pointer + 16 data: {s:?}");
    assert_eq!(
        s.reads, 3,
        "the 16-block extent must ride one batched submission: {s:?}"
    );
}

#[test]
fn hidden_16_block_object_io_is_one_batched_submission() {
    let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
    let stats = dev.stats().clone();
    let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
    let keys = ObjectKeys::derive("batched", b"fak");
    let params = StegParams::for_tests();
    let mut rng = DeterministicRng::new(b"batched-io");
    let io = ObjectIo::new(&fs, &params, ReadCache::disabled(), &keys);
    let mut txn = fs.begin_txn();
    let mut obj = io
        .create(&mut txn, "batched", ObjectKind::File, Policy::Plain)
        .unwrap();
    let data = vec![0x3cu8; OBJECT_BLOCKS * 1024];
    io.write(&mut txn, &mut obj, &data, &mut rng).unwrap();
    txn.commit().unwrap();

    // Rewrite: 16 data blocks, the chain block and the header in ONE
    // submission, and the old chain read as one single.
    stats.reset();
    let mut txn = fs.begin_txn();
    io.write(&mut txn, &mut obj, &data, &mut rng).unwrap();
    txn.commit().unwrap();
    let s = stats.summary();
    assert_eq!(s.blocks_written, 18, "16 data + 1 chain + 1 header: {s:?}");
    assert_eq!(
        s.writes, 1,
        "the rewrite must ride one batched submission: {s:?}"
    );

    // Read: one single for the chain block, ONE batch for all 16 data
    // blocks.
    stats.reset();
    assert_eq!(io.read(&obj).unwrap(), data);
    let s = stats.summary();
    assert_eq!(s.blocks_read, 17, "1 chain + 16 data: {s:?}");
    assert_eq!(
        s.reads, 2,
        "the 16-block extent must ride one batched submission: {s:?}"
    );
}

/// Write submissions and blocks written by each `ObjectIo` mutation of one
/// object on a write-through volume, in script order: create, whole write,
/// aligned patch, edge patch, a `write_at` that grows the object, a shrink,
/// a repair (of one damaged share, where the entries carry checks) and a
/// delete; and the SHA-256 of the raw image the script leaves.
fn mutation_traffic(policy: Policy) -> (Vec<(&'static str, u64, u64)>, String) {
    let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
    let stats = dev.stats().clone();
    let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
    let keys = ObjectKeys::derive("table", b"fak");
    let params = StegParams::for_tests();
    let mut rng = DeterministicRng::new(b"batched-io");
    let io = ObjectIo::new(&fs, &params, ReadCache::disabled(), &keys);
    let mut rows = Vec::new();
    let row = |name, rows: &mut Vec<_>| {
        let s = stats.summary();
        rows.push((name, s.writes, s.blocks_written));
        stats.reset();
    };
    stats.reset();
    let mut txn = fs.begin_txn();
    let mut obj = io
        .create(&mut txn, "table", ObjectKind::File, policy)
        .unwrap();
    txn.commit().unwrap();
    row("create", &mut rows);
    let mut txn = fs.begin_txn();
    io.write(&mut txn, &mut obj, &[0x3c; 16 * 1024], &mut rng)
        .unwrap();
    txn.commit().unwrap();
    row("write", &mut rows);
    io.write_range(&mut obj, 4096, &[0x5a; 4096]).unwrap();
    row("patch aligned", &mut rows);
    io.write_range(&mut obj, 1000, &[0xa5; 100]).unwrap();
    row("patch edge", &mut rows);
    io.write_at(&mut obj, 16 * 1024 - 100, &[0x77; 3000], &mut rng)
        .unwrap();
    row("grow", &mut rows);
    io.resize(&mut obj, 5000, &mut rng).unwrap();
    row("shrink", &mut rows);
    if policy.is_coded() {
        let victim = io.share_extents(&obj).unwrap()[1][0];
        fs.device().write_block(victim, &[0u8; 1024]).unwrap();
        stats.reset();
    }
    io.repair(&obj).unwrap();
    row("repair", &mut rows);
    let mut txn = fs.begin_txn();
    io.delete(&mut txn, &obj, &mut rng).unwrap();
    txn.commit().unwrap();
    row("delete", &mut rows);
    let mut sha = Sha256::new();
    for b in 0..fs.device().total_blocks() {
        sha.update(&fs.device().read_block_vec(b).unwrap());
    }
    let digest = sha.finalize().iter().map(|b| format!("{b:02x}")).collect();
    (rows, digest)
}

/// Blocks written per row of [`mutation_traffic`], and the image digest,
/// as recorded when each mutation still wrote its shares, chain nodes and
/// header replicas as separate submissions: one plan per mutation moves no
/// block and changes no byte.
const MUTATION_BLOCKS: [(Policy, [u64; 8], &str); 3] = [
    (
        Policy::Plain,
        [1, 18, 4, 2, 6, 3, 0, 1],
        "cc447ec1ddfc4994564c917f86eea16f692a0b94250b0b62ac69a1d691f9452b",
    ),
    (
        Policy::Replicate(2),
        [2, 36, 12, 8, 12, 6, 1, 2],
        "1bdc3a0800f52fdfb4fed51da09d45d5e98d447572d9d9cbded373bc44ab1428",
    ),
    (
        Policy::Disperse { m: 2, n: 3 },
        [2, 28, 10, 7, 13, 7, 1, 2],
        "9dcc74d80904e79e6d2bcc47d84a17bbd2113e8df8ee4b1441c411f33fce78ef",
    ),
];

#[test]
fn every_hidden_mutation_is_one_write_submission() {
    for (policy, blocks, image) in MUTATION_BLOCKS {
        let (traffic, digest) = mutation_traffic(policy);
        let got: Vec<u64> = traffic.iter().map(|&(_, _, b)| b).collect();
        assert_eq!(got, blocks, "{policy:?} blocks written: {traffic:?}");
        assert_eq!(digest, image, "{policy:?} image");
        for (name, writes, written) in traffic {
            // A repair with nothing to rebuild writes nothing.
            let expected = u64::from(written > 0);
            assert_eq!(writes, expected, "{policy:?} {name}: {written} blocks");
        }
    }
}
