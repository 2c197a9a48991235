//! Stress and property tests for the shared block allocator under the
//! shared-reference core API: many threads allocating and freeing hidden
//! objects on one volume must never hand one block to two live objects, and
//! the free bitmap must balance once everything is deleted.

use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use stegfs_blockdev::MemBlockDevice;
use stegfs_core::blockmap::Class;
use stegfs_core::{ObjectKind, Parent, StegFs, StegParams};
use stegfs_tests::{owned_once, payload};

/// Parameters with a *deterministic* free-pool size (`FB_min == FB_max`), so
/// that after any write the pool holds exactly `FB_max` blocks and the
/// end-of-round free count is reproducible across rounds.
fn stress_params() -> StegParams {
    StegParams {
        random_fill: false,
        dummy_file_count: 0,
        abandoned_pct: 0.0,
        free_blocks_min: 4,
        free_blocks_max: 4,
        ..StegParams::for_tests()
    }
}

fn uak_for(thread: usize) -> String {
    format!("stress thread key {thread}")
}

/// One round of parallel object churn: every thread creates, rewrites and
/// deletes hidden objects under its own UAK, all against one shared
/// allocator and bitmap.
/// The names `uak` lists.
fn names(fs: &StegFs<MemBlockDevice>, uak: &str) -> Vec<String> {
    let listing = fs.list(Parent::Uak(uak)).unwrap().entries;
    listing.into_iter().map(|e| e.name).collect()
}

fn churn_round(fs: &Arc<StegFs<MemBlockDevice>>, seeds: &[u64], sizes: &[usize]) {
    let workers: Vec<_> = (0..seeds.len())
        .map(|t| {
            let fs = Arc::clone(fs);
            let seed = seeds[t];
            let size = sizes[t];
            thread::spawn(move || {
                let uak = uak_for(t);
                // Two objects per thread; the first is deleted mid-round so
                // frees interleave with everyone else's allocations.
                fs.steg_create("ephemeral", &uak, ObjectKind::File).unwrap();
                let data: Vec<u8> = (0..size).map(|i| (seed as usize + i) as u8).collect();
                fs.write_hidden_with_key("ephemeral", &uak, &data).unwrap();

                fs.steg_create("durable", &uak, ObjectKind::File).unwrap();
                fs.write_hidden_with_key("durable", &uak, &data).unwrap();

                fs.remove(Parent::Uak(&uak), "ephemeral").unwrap();

                // Rewrite (shrink or grow) to push blocks through the free
                // pool while other threads allocate.
                let second = vec![seed as u8; size / 2 + 1];
                fs.write_hidden_with_key("durable", &uak, &second).unwrap();
                assert_eq!(fs.read_hidden_with_key("durable", &uak).unwrap(), second);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("churn worker panicked");
    }
}

/// Every block a live hidden object reachable from `uaks` owns, each UAK
/// directory included, asserted owned once and allocated.
fn live_hidden_blocks(fs: &StegFs<MemBlockDevice>, uaks: &[String]) -> Vec<u64> {
    let uaks: Vec<&str> = uaks.iter().map(String::as_str).collect();
    let map = owned_once(fs, &uaks);
    map.blocks(|c| matches!(c, Class::Hidden(_))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    #[test]
    fn parallel_alloc_free_never_double_owns_and_bitmap_balances(
        seeds in proptest::collection::vec(any::<u64>(), 6..=6),
        sizes in proptest::collection::vec(2_000usize..24_000, 6..=6),
    ) {
        let fs = Arc::new(
            StegFs::format(MemBlockDevice::new(1024, 16384), stress_params()).unwrap(),
        );
        let uaks: Vec<String> = (0..seeds.len()).map(uak_for).collect();

        churn_round(&fs, &seeds, &sizes);

        // Invariant 1: no block is owned by two live objects, and every
        // owned block is marked allocated in the shared bitmap.
        let owned = live_hidden_blocks(&fs, &uaks);
        prop_assert!(!owned.is_empty());

        // Invariant 2: deleting every object returns its blocks; a second,
        // identical round then lands on exactly the same free count, so no
        // round leaks blocks (UAK directories persist with deterministic
        // free pools because FB_min == FB_max).
        for uak in &uaks {
            for name in names(&fs, uak) {
                fs.remove(Parent::Uak(uak), &name).unwrap();
            }
            prop_assert!(names(&fs, uak).is_empty());
        }
        let free_after_round1 = fs.plain_fs().free_data_blocks();

        churn_round(&fs, &seeds, &sizes);
        for uak in &uaks {
            for name in names(&fs, uak) {
                fs.remove(Parent::Uak(uak), &name).unwrap();
            }
        }
        let free_after_round2 = fs.plain_fs().free_data_blocks();
        prop_assert_eq!(
            free_after_round1,
            free_after_round2,
            "allocator leaked blocks across identical rounds"
        );
    }
}

/// A single object bigger than any one bitmap segment's share of the data
/// region: its keyed probes land in one segment's neighbourhood, so the
/// allocator must refill from (steal out of) other segments as each one
/// drains.  Delete must then return every block, and an identical second
/// pass must land on exactly the same free count — stealing cannot leak.
#[test]
fn cross_segment_claims_fill_and_drain_cleanly() {
    let fs = StegFs::format(MemBlockDevice::new(1024, 16384), stress_params()).unwrap();
    let uak = uak_for(0);
    let data = payload(0x5e6, 8 * 1024 * 1024); // ~8k blocks of a ~16k volume
    fs.steg_create("big", &uak, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("big", &uak, &data).unwrap();
    assert_eq!(fs.read_hidden_with_key("big", &uak).unwrap(), data);

    // The object's blocks must span well past one segment of the data
    // region (the bitmap shards it 8 ways), or nothing was stolen.
    let owned = live_hidden_blocks(&fs, std::slice::from_ref(&uak));
    let (lo, hi) = (owned[0], owned[owned.len() - 1]);
    let span = hi - lo;
    let data_blocks = fs.plain_fs().data_blocks();
    assert!(
        span > data_blocks / 4,
        "an {}-block object only spans {span} of {data_blocks} data blocks",
        owned.len()
    );

    fs.remove(Parent::Uak(&uak), "big").unwrap();
    let free1 = fs.plain_fs().free_data_blocks();
    fs.steg_create("big", &uak, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("big", &uak, &data).unwrap();
    fs.remove(Parent::Uak(&uak), "big").unwrap();
    let free2 = fs.plain_fs().free_data_blocks();
    assert_eq!(free1, free2, "cross-segment churn leaked blocks");
}

/// Layout compatibility: the sharded allocator is a pure in-memory
/// reorganisation of the same on-disk bitmap format, so mounting a
/// previously formatted volume, reading everything and unmounting must not
/// change a single byte of the image.
#[test]
fn mount_read_unmount_round_trips_image_bit_identically() {
    let fs = StegFs::format(MemBlockDevice::new(1024, 8192), stress_params()).unwrap();
    let uak = uak_for(1);
    let data = payload(0xc0de, 40_000);
    fs.steg_create("doc", &uak, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("doc", &uak, &data).unwrap();
    fs.plain_fs()
        .write_file("/visible.txt", b"plain bytes")
        .unwrap();
    let dev = fs.unmount().unwrap();
    let before = dev.snapshot_raw();

    let fs = StegFs::mount(dev, stress_params()).unwrap();
    assert_eq!(fs.read_hidden_with_key("doc", &uak).unwrap(), data);
    assert_eq!(
        fs.plain_fs().read_file("/visible.txt").unwrap(),
        b"plain bytes"
    );
    let dev = fs.unmount().unwrap();
    assert_eq!(
        before,
        dev.snapshot_raw(),
        "mount + read + unmount changed the on-disk image"
    );
}

/// The write-path cache must never change what reaches the disk: an
/// identical single-threaded workload (full rewrites served from the warm
/// chain, in-place range patches, truncate + extend through a handle,
/// directory churn) run with the cache on and off must produce
/// bit-identical images.
#[test]
fn write_path_cache_never_changes_the_disk_image() {
    let run = |cache_blocks: usize| -> Vec<u8> {
        let params = StegParams {
            readpath_cache_blocks: cache_blocks,
            ..stress_params()
        };
        let fs = StegFs::format(MemBlockDevice::new(1024, 8192), params).unwrap();
        let uak = "image determinism key";
        fs.steg_create("a", uak, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("a", uak, &payload(1, 20_000))
            .unwrap();
        // Warm full rewrite: with the cache on, the chain walk is served
        // from RAM; the blocks written must be the same either way.
        fs.write_hidden_with_key("a", uak, &payload(2, 26_000))
            .unwrap();
        let mut h = fs.open_hidden("a", uak).unwrap();
        fs.write_at_handle(&mut h, 512, &payload(3, 2_000)).unwrap();
        fs.truncate_handle(&mut h, 9_000).unwrap();
        fs.write_at_handle(&mut h, 8_000, &payload(4, 4_000))
            .unwrap();
        fs.steg_create("dir", uak, ObjectKind::Directory).unwrap();
        fs.create(
            Parent::Dir(&fs.lookup_entry("dir", uak).unwrap()),
            "child",
            ObjectKind::File,
        )
        .unwrap();
        fs.unmount().unwrap().snapshot_raw()
    };
    assert_eq!(
        run(0),
        run(4096),
        "write-path cache changed the on-disk image"
    );
}

/// Non-property variant pinned to a high thread count: raw allocator
/// contention with reads validating data integrity throughout.
#[test]
fn twelve_threads_of_allocator_churn_stay_consistent() {
    let fs = Arc::new(StegFs::format(MemBlockDevice::new(1024, 16384), stress_params()).unwrap());
    let seeds: Vec<u64> = (0..12).map(|t| 0x9e37 + t as u64).collect();
    let sizes: Vec<usize> = (0..12).map(|t| 3_000 + t * 700).collect();
    churn_round(&fs, &seeds, &sizes);
    let uaks: Vec<String> = (0..12).map(uak_for).collect();
    let owned = live_hidden_blocks(&fs, &uaks);
    assert!(owned.len() > 12, "every durable object owns blocks");
    // The volume survives a remount with every durable object intact.
    let fs = Arc::into_inner(fs).expect("sole owner");
    let dev = fs.unmount().unwrap();
    let fs = StegFs::mount(dev, stress_params()).unwrap();
    for (t, uak) in uaks.iter().enumerate() {
        let expected = vec![seeds[t] as u8; sizes[t] / 2 + 1];
        assert_eq!(fs.read_hidden_with_key("durable", uak).unwrap(), expected);
    }
}
