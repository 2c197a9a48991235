//! Cache-coherence and deniability tests for the read-path cache.
//!
//! The contract under test (see `stegfs_core::readcache`): decrypted state
//! and derived key sets may be cached in RAM only as long as (a) every
//! mutation through the public API invalidates what it staled, (b) sign-off
//! purges and zeroes everything the departing session could use, and (c)
//! nothing about the on-disk image — or about what a wrong key observes —
//! changes: a cached volume and an uncached volume running the same
//! workload are bit-identical on disk.

#![forbid(unsafe_code)]

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use stegfs_blockdev::{BlockDevice, BufferCache, FaultDevice, MemBlockDevice, ObservedDevice};
use stegfs_core::{DirectoryEntry, ObjectKind, Parent, Policy, StegFs, StegParams};
use stegfs_crypto::kdf;
use stegfs_tests::{journaled_params, payload, test_volume};
use stegfs_vfs::{OpenOptions, Vfs};

const OWNER: &str = "readpath cache key";

fn cached_params() -> StegParams {
    StegParams {
        readpath_cache_blocks: 2048,
        ..StegParams::for_tests()
    }
}

fn small_fs() -> StegFs<MemBlockDevice> {
    StegFs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap()
}

// ----------------------------------------------------------------------
// Coherence: every mutation invalidates
// ----------------------------------------------------------------------

#[test]
fn overwrite_truncate_rename_unlink_invalidate_stegfs() {
    let fs = small_fs();
    fs.steg_create("doc", OWNER, ObjectKind::File).unwrap();
    let v1 = payload(1, 20_000);
    fs.write_hidden_with_key("doc", OWNER, &v1).unwrap();

    // Populate the cache (twice, so the second read is a known warm hit).
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), v1);
    let before = fs.cache_stats();
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), v1);
    let after = fs.cache_stats();
    assert!(
        after.block_hits > before.block_hits,
        "second read must hit: {after:?}"
    );

    // Overwrite: the cached extents and plaintext must not survive.
    let v2 = payload(2, 12_345);
    fs.write_hidden_with_key("doc", OWNER, &v2).unwrap();
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), v2);

    // In-place range write through a fresh handle.
    let mut handle = fs.open_hidden("doc", OWNER).unwrap();
    fs.write_at_handle(&mut handle, 100, &[0xaa; 600]).unwrap();
    let mut expect = v2.clone();
    expect[100..700].copy_from_slice(&[0xaa; 600]);
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), expect);

    // Truncate through a handle.
    let mut h = fs.open_hidden("doc", OWNER).unwrap();
    fs.truncate_handle(&mut h, 500).unwrap();
    assert_eq!(
        fs.read_hidden_with_key("doc", OWNER).unwrap(),
        &expect[..500]
    );

    // Extend through a handle (zero fill must show, not stale plaintext).
    fs.truncate_handle(&mut h, 1500).unwrap();
    let grown = fs.read_hidden_with_key("doc", OWNER).unwrap();
    assert_eq!(&grown[..500], &expect[..500]);
    assert!(grown[500..].iter().all(|&b| b == 0));

    // Rename: old name gone, new name reads current content.
    fs.rename(Parent::Uak(OWNER), "doc", "doc2").unwrap();
    assert!(fs
        .read_hidden_with_key("doc", OWNER)
        .unwrap_err()
        .is_not_found());
    assert_eq!(fs.read_hidden_with_key("doc2", OWNER).unwrap(), grown);

    // Unlink: reads must fail afterwards, however warm the cache was.
    assert_eq!(fs.read_hidden_with_key("doc2", OWNER).unwrap(), grown);
    fs.remove(Parent::Uak(OWNER), "doc2").unwrap();
    assert!(fs
        .read_hidden_with_key("doc2", OWNER)
        .unwrap_err()
        .is_not_found());

    // Recreate under the same name: must read the new object's content,
    // never the deleted one's cached plaintext.
    fs.steg_create("doc2", OWNER, ObjectKind::File).unwrap();
    let v3 = payload(3, 4_000);
    fs.write_hidden_with_key("doc2", OWNER, &v3).unwrap();
    assert_eq!(fs.read_hidden_with_key("doc2", OWNER).unwrap(), v3);
}

#[test]
fn stale_core_handle_cannot_poison_the_cache() {
    // A core-level handle snapshots the object's header at open time; a
    // name-based rewrite afterwards leaves it stale (documented, pre-cache
    // behaviour).  What must NOT happen is a read through the stale handle
    // re-installing the old header into the shared cache, so that *fresh*
    // name-based reads — which walk from disk and must see the new content —
    // get served the dead incarnation.
    let fs = small_fs();
    fs.steg_create("doc", OWNER, ObjectKind::File).unwrap();
    let v1 = payload(50, 8_000);
    fs.write_hidden_with_key("doc", OWNER, &v1).unwrap();

    let stale = fs.open_hidden("doc", OWNER).unwrap(); // snapshots v1 header

    let v2 = payload(51, 12_500); // different size and block map
    fs.write_hidden_with_key("doc", OWNER, &v2).unwrap();

    // Reading through the stale handle walks the dead chain; whatever it
    // returns (garbage or an error) is the handle's own problem...
    let _ = fs.read_range_at(&stale, 0, 1024);
    // ...but fresh reads must see v2, not the header the stale walk carried.
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), v2);
    assert_eq!(fs.read_hidden_with_key("doc", OWNER).unwrap(), v2);
    let fresh = fs.open_hidden("doc", OWNER).unwrap();
    assert_eq!(fs.handle_size(&fresh), v2.len() as u64);
}

#[test]
fn vfs_coherence_across_two_sessions() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let a = vfs.signon(OWNER);
    let b = vfs.signon(OWNER);

    let h = vfs
        .open(a, "/hidden/shared", OpenOptions::read_write())
        .unwrap();
    let v1 = payload(10, 30_000);
    vfs.write_at(h, 0, &v1).unwrap();

    // Session B reads (warming the cache), then A overwrites, then B must
    // see the overwrite — the cache may never serve B the stale bytes.
    let hb = vfs
        .open(b, "/hidden/shared", OpenOptions::read_only())
        .unwrap();
    assert_eq!(vfs.read_at(hb, 0, v1.len()).unwrap(), v1);
    assert_eq!(vfs.read_at(hb, 0, v1.len()).unwrap(), v1);

    let v2 = payload(11, 30_000);
    vfs.write_at(h, 0, &v2).unwrap();
    assert_eq!(vfs.read_at(hb, 0, v2.len()).unwrap(), v2);

    // Truncate through A, read through B.
    vfs.truncate(h, 1000).unwrap();
    assert_eq!(vfs.read_at(hb, 0, 30_000).unwrap(), &v2[..1000]);

    vfs.close(h).unwrap();
    vfs.close(hb).unwrap();

    // Unlink through A; B's path lookups must report deniable not-found.
    vfs.unlink(a, "/hidden/shared").unwrap();
    let err = vfs
        .open(b, "/hidden/shared", OpenOptions::read_only())
        .unwrap_err();
    assert!(err.is_not_found());

    vfs.signoff(a).unwrap();
    vfs.signoff(b).unwrap();
}

#[test]
fn hidden_directory_listings_stay_coherent() {
    let fs = small_fs();
    fs.steg_create("vault", OWNER, ObjectKind::Directory)
        .unwrap();
    let vault = fs.lookup_entry("vault", OWNER).unwrap();
    let dir = Parent::Dir(&vault);
    let names = || -> Vec<String> {
        let listing = fs.list(dir).unwrap().entries;
        listing.into_iter().map(|e| e.name).collect()
    };
    fs.create(dir, "a", ObjectKind::File).unwrap();
    // Read the listing twice (cached), then mutate it and re-read.
    assert_eq!(names(), ["a"]);
    assert_eq!(names(), ["a"]);
    fs.create(dir, "b", ObjectKind::File).unwrap();
    assert_eq!(names().len(), 2);
    fs.rename(dir, "a", "a2").unwrap();
    let renamed = names();
    assert!(renamed.contains(&"a2".to_string()) && !renamed.contains(&"a".to_string()));
    fs.remove(dir, "a2").unwrap();
    assert_eq!(names(), ["b"]);
}

// ----------------------------------------------------------------------
// Sign-off purge: no plaintext outlives the session
// ----------------------------------------------------------------------

#[test]
fn dummy_refresh_leaves_the_read_cache_untouched() {
    // No session reads dummies back, so their refresh, like their creation,
    // runs wholly beside the cache: it installs nothing.
    let fs = test_volume(8192);
    fs.purge_read_caches();
    let before = fs.cache_stats().resident_objects;
    assert!(fs.touch_dummy_files().unwrap() > 0);
    assert_eq!(fs.cache_stats().resident_objects, before);
}

#[test]
fn signoff_purges_every_cached_plaintext_byte() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let s = vfs.signon(OWNER);
    for i in 0..3 {
        let path = format!("/hidden/secret-{i}");
        let h = vfs.open(s, &path, OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, &payload(i, 25_000)).unwrap();
        let _ = vfs.read_at(h, 0, 25_000).unwrap();
        let _ = vfs.read_at(h, 0, 25_000).unwrap();
        vfs.close(h).unwrap();
    }
    let stats = vfs.cache_stats();
    assert!(stats.resident_blocks > 0, "reads must populate: {stats:?}");
    assert!(stats.resident_bytes > 0);
    assert!(stats.block_hits > 0);

    vfs.signoff(s).unwrap();
    let stats = vfs.cache_stats();
    assert_eq!(
        stats.resident_blocks, 0,
        "sign-off left plaintext: {stats:?}"
    );
    assert_eq!(stats.resident_bytes, 0);
    assert_eq!(stats.resident_objects, 0);
    assert_eq!(stats.resident_keys, 0, "sign-off left key sets: {stats:?}");
    // Sign-off is a *scoped* purge (this session's entries plus any
    // unscoped stragglers); the volume-wide purge counter is reserved for
    // unmount/disconnect_all.
    assert!(stats.scoped_purges >= 1);
}

#[test]
fn disconnect_all_and_unmount_purge_at_core_level() {
    let fs = small_fs();
    fs.steg_create("s", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("s", OWNER, &payload(9, 10_000))
        .unwrap();
    let _ = fs.read_hidden_with_key("s", OWNER).unwrap();
    assert!(fs.cache_stats().resident_blocks > 0);
    assert!(fs.cache_stats().resident_keys > 0);
    fs.disconnect_all();
    let stats = fs.cache_stats();
    assert_eq!(stats.resident_blocks, 0);
    assert_eq!(stats.resident_objects, 0);
    assert_eq!(stats.resident_keys, 0);
}

#[test]
fn a_patched_warm_object_reads_back_without_the_device() {
    // A journaled write-back stack, as the gate's: a committed patch writes
    // its plaintext over the cached blocks it rewrote, so the re-read is
    // served by the read cache and nothing reaches the device below the
    // buffer cache, even after plain reads have pushed the patch's blocks
    // out of it.
    let params = StegParams {
        readpath_cache_blocks: 1024,
        ..journaled_params(160)
    };
    let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
    let below = Arc::clone(dev.stats());
    let fs = StegFs::format(BufferCache::new_write_back(dev, 64), params).unwrap();
    let plain = payload(40, 96 * 1024);
    fs.plain_fs().write_file("/churn.bin", &plain).unwrap();
    let mut data = payload(41, 64 * 1024);
    fs.steg_create("warm", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("warm", OWNER, &data).unwrap();
    let mut h = fs.open_hidden("warm", OWNER).unwrap();
    assert_eq!(fs.read_range_at(&h, 0, data.len()).unwrap(), data);

    let patch = payload(42, 16 * 1024);
    fs.write_at_handle(&mut h, 8 * 1024, &patch).unwrap();
    data[8 * 1024..24 * 1024].copy_from_slice(&patch);
    assert_eq!(fs.plain_fs().read_file("/churn.bin").unwrap(), plain);
    let reads = below.reads.load(Ordering::Relaxed);
    assert_eq!(fs.read_range_at(&h, 0, data.len()).unwrap(), data);
    assert_eq!(
        below.reads.load(Ordering::Relaxed),
        reads,
        "the re-read went to the device"
    );
    // What the cache served is what the device holds.
    fs.purge_read_caches();
    assert_eq!(fs.read_range_at(&h, 0, data.len()).unwrap(), data);
}

// ----------------------------------------------------------------------
// Crash + remount: the cache never survives a mount
// ----------------------------------------------------------------------

#[test]
fn crash_then_remount_serves_replayed_state_not_cache() {
    type Stack = StegFs<BufferCache<FaultDevice<MemBlockDevice>>>;
    let params = StegParams {
        dummy_file_count: 1,
        dummy_file_size: 4 * 1024,
        readpath_cache_blocks: 1024,
        ..journaled_params(160)
    };
    let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
    let fs: Stack =
        StegFs::format(BufferCache::new_write_back(dev.clone(), 64), params.clone()).unwrap();

    let v1 = payload(21, 18_000);
    fs.steg_create("ledger", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("ledger", OWNER, &v1).unwrap();
    fs.sync().unwrap();
    // Warm the cache thoroughly on the pre-crash mount.
    assert_eq!(fs.read_hidden_with_key("ledger", OWNER).unwrap(), v1);
    assert_eq!(fs.read_hidden_with_key("ledger", OWNER).unwrap(), v1);

    // Start an overwrite and kill the device partway through it.
    let v2 = payload(22, 18_000);
    dev.fail_after_writes(7);
    let _ = fs.write_hidden_with_key("ledger", OWNER, &v2);
    drop(fs);
    dev.crash(0xc0ffee);

    // The remounted volume has a provably empty cache; the journal replay
    // decides between old and new, and the read must match the *disk*,
    // not anything the previous mount had cached.
    let fs: Stack = StegFs::mount(BufferCache::new_write_back(dev.clone(), 64), params).unwrap();
    assert_eq!(fs.cache_stats().resident_blocks, 0);
    let got = fs.read_hidden_with_key("ledger", OWNER).unwrap();
    assert!(
        got == v1 || got == v2,
        "torn read after crash: {} bytes",
        got.len()
    );
    // And the remount is fully writable/readable going forward.
    let v3 = payload(23, 9_000);
    fs.write_hidden_with_key("ledger", OWNER, &v3).unwrap();
    assert_eq!(fs.read_hidden_with_key("ledger", OWNER).unwrap(), v3);
}

// ----------------------------------------------------------------------
// Deniability: the disk never changes because of the cache
// ----------------------------------------------------------------------

/// The same single-threaded workload on two volumes differing only in
/// whether the read cache exists.  Reads are interleaved everywhere so a
/// cache that leaked anything into the write path (or to disk) would
/// diverge the images.
fn run_workload(fs: &StegFs<MemBlockDevice>) {
    fs.plain_fs()
        .write_file("/cover.txt", b"innocuous plain data")
        .unwrap();
    for i in 0..3u64 {
        let name = format!("obj-{i}");
        fs.steg_create(&name, OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key(&name, OWNER, &payload(i, 9_000 + i as usize * 1024))
            .unwrap();
        let _ = fs.read_hidden_with_key(&name, OWNER).unwrap();
        let _ = fs.read_hidden_with_key(&name, OWNER).unwrap();
    }
    fs.write_hidden_with_key("obj-1", OWNER, &payload(40, 3_000))
        .unwrap();
    let _ = fs.read_hidden_with_key("obj-1", OWNER).unwrap();
    let mut h = fs.open_hidden("obj-2", OWNER).unwrap();
    fs.truncate_handle(&mut h, 2_000).unwrap();
    let _ = fs.read_range_at(&h, 0, 2_000).unwrap();
    fs.rename(Parent::Uak(OWNER), "obj-0", "obj-renamed")
        .unwrap();
    let _ = fs.read_hidden_with_key("obj-renamed", OWNER).unwrap();
    fs.remove(Parent::Uak(OWNER), "obj-renamed").unwrap();
    // Re-key and recreate-under-the-same-name: the key cache's own
    // invalidation points.
    fs.revoke_sharing("obj-1", OWNER).unwrap();
    fs.steg_create("obj-0", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("obj-0", OWNER, &payload(41, 5_000))
        .unwrap();
    let _ = fs.read_hidden_with_key("obj-0", OWNER).unwrap();
    let _ = fs.list(Parent::Uak(OWNER)).unwrap();
    fs.touch_dummy_files().unwrap();
    let _ = fs.read_hidden_with_key("obj-1", OWNER).unwrap();
    // In-place patches through a handle, each between two reads, on a
    // plain object (the patch keeps the entry and drops what it rewrote)
    // and a coded one (the patch invalidates).
    let coded = Policy::Disperse { m: 2, n: 3 };
    for (name, policy) in [("patched", Policy::Plain), ("patched-coded", coded)] {
        fs.steg_create_with_policy(name, OWNER, ObjectKind::File, policy)
            .unwrap();
        let mut want = payload(42, 20 * 1024);
        fs.write_hidden_with_key(name, OWNER, &want).unwrap();
        let mut h = fs.open_hidden(name, OWNER).unwrap();
        for (i, at) in [0usize, 3_000, 16 * 1024, 9_999].into_iter().enumerate() {
            assert_eq!(fs.read_range_at(&h, 0, want.len()).unwrap(), want);
            let patch = payload(50 + i as u64, 2_500);
            fs.write_at_handle(&mut h, at as u64, &patch).unwrap();
            want[at..at + patch.len()].copy_from_slice(&patch);
            assert_eq!(
                fs.read_range_at(&h, at as u64, 4_096).unwrap(),
                &want[at..at + 4_096]
            );
        }
        assert_eq!(fs.read_hidden_with_key(name, OWNER).unwrap(), want);
    }
}

#[test]
fn disk_image_bit_identical_with_and_without_cache() {
    let with_cache = StegFs::format(
        MemBlockDevice::new(1024, 8192),
        StegParams {
            readpath_cache_blocks: 2048,
            ..StegParams::for_tests()
        },
    )
    .unwrap();
    let without_cache = StegFs::format(
        MemBlockDevice::new(1024, 8192),
        StegParams {
            readpath_cache_blocks: 0,
            ..StegParams::for_tests()
        },
    )
    .unwrap();

    run_workload(&with_cache);
    run_workload(&without_cache);
    // The cached run must actually have cached something, or this test
    // proves nothing.
    assert!(with_cache.cache_stats().block_hits > 0);
    assert_eq!(without_cache.cache_stats().block_hits, 0);
    assert!(with_cache.cache_stats().key_hits > 0);
    let off = without_cache.cache_stats();
    assert_eq!((off.key_hits, off.resident_keys), (0, 0), "{off:?}");

    let dev_a = with_cache.unmount().unwrap();
    let dev_b = without_cache.unmount().unwrap();
    assert_eq!(dev_a.total_blocks(), dev_b.total_blocks());
    let mut buf_a = vec![0u8; dev_a.block_size()];
    let mut buf_b = vec![0u8; dev_b.block_size()];
    for block in 0..dev_a.total_blocks() {
        dev_a.read_block(block, &mut buf_a).unwrap();
        dev_b.read_block(block, &mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b, "divergence at block {block}");
    }
}

// ----------------------------------------------------------------------
// Derived-key cache: derive once per connect, die with the session
// ----------------------------------------------------------------------

/// Smallest growth of the process-wide derivation counter over several runs
/// of `f`.  Other tests in this binary derive concurrently and noise only
/// ever *adds*, so the quietest window is the honest reading.
fn quietest_derivation_delta(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = kdf::derivations();
            f();
            kdf::derivations() - before
        })
        .min()
        .expect("five windows")
}

fn reopen(vfs: &Vfs<MemBlockDevice>, s: stegfs_vfs::SessionId, path: &str) {
    let h = vfs.open(s, path, OpenOptions::read_only()).unwrap();
    assert!(!vfs.read_at(h, 0, 64).unwrap().is_empty());
    vfs.close(h).unwrap();
}

#[test]
fn reopening_a_connected_file_runs_no_derivation() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let s = vfs.signon(OWNER);
    let h = vfs
        .open(s, "/hidden/doc", OpenOptions::read_write())
        .unwrap();
    vfs.write_at(h, 0, &payload(70, 6_000)).unwrap();
    vfs.close(h).unwrap();
    reopen(&vfs, s, "/hidden/doc");

    let before = vfs.cache_stats();
    let delta = quietest_derivation_delta(|| reopen(&vfs, s, "/hidden/doc"));
    let after = vfs.cache_stats();
    assert_eq!(delta, 0, "an open of a connected file re-derived its keys");
    assert_eq!(after.key_misses, before.key_misses, "{after:?}");
    assert!(after.key_hits > before.key_hits);
    // The cached header served the open too: no locator walk either.
    assert_eq!(after.header_misses, before.header_misses);
}

#[test]
fn signoff_sweeps_the_departing_sessions_keys_only() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let alice = vfs.signon("alice's key");
    let bob = vfs.signon("bob's key");
    for (s, path) in [(alice, "/hidden/a-doc"), (bob, "/hidden/b-doc")] {
        let h = vfs.open(s, path, OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, &payload(71, 3_000)).unwrap();
        vfs.close(h).unwrap();
        reopen(&vfs, s, path);
    }
    let both = vfs.cache_stats().resident_keys;

    vfs.signoff(alice).unwrap();

    let stats = vfs.cache_stats();
    assert!(
        0 < stats.resident_keys && stats.resident_keys < both,
        "Alice's (and unscoped) key sets go, Bob's stay: {both} -> {stats:?}"
    );
    // Bob's keys are still connected: his reopen derives nothing...
    reopen(&vfs, bob, "/hidden/b-doc");
    assert_eq!(vfs.cache_stats().key_misses, stats.key_misses);
    // ...while Alice, signing on again, pays her derivations afresh.
    let alice = vfs.signon("alice's key");
    reopen(&vfs, alice, "/hidden/a-doc");
    assert!(vfs.cache_stats().key_misses > stats.key_misses);

    vfs.signoff(bob).unwrap();
    vfs.signoff(alice).unwrap();
    assert_eq!(vfs.cache_stats().resident_keys, 0);
}

#[test]
fn disabled_cache_retains_no_keys() {
    let vfs = Vfs::format(
        MemBlockDevice::new(1024, 8192),
        StegParams {
            readpath_cache_blocks: 0,
            ..StegParams::for_tests()
        },
    )
    .unwrap();
    let s = vfs.signon(OWNER);
    let h = vfs
        .open(s, "/hidden/doc", OpenOptions::read_write())
        .unwrap();
    vfs.write_at(h, 0, &payload(72, 2_000)).unwrap();
    vfs.close(h).unwrap();
    let before = kdf::derivations();
    reopen(&vfs, s, "/hidden/doc");
    assert!(
        kdf::derivations() > before,
        "nothing cached: a reopen derives"
    );
    let stats = vfs.cache_stats();
    assert_eq!(
        (stats.key_hits, stats.key_misses, stats.resident_keys),
        (0, 0, 0),
        "{stats:?}"
    );
}

#[test]
fn rename_rekey_and_recreate_never_serve_the_old_key_set() {
    let fs = small_fs();
    fs.steg_create("doc", OWNER, ObjectKind::File).unwrap();
    let v1 = payload(73, 7_000);
    fs.write_hidden_with_key("doc", OWNER, &v1).unwrap();
    let original = fs.lookup_entry("doc", OWNER).unwrap();
    let original_keys = fs.keys_for(&original.physical_name, &original.fak);

    // Rename keeps the pair, so the keys are equal — but freshly derived:
    // the namespace mutation dropped the cached set.
    fs.rename(Parent::Uak(OWNER), "doc", "doc2").unwrap();
    let renamed = fs.lookup_entry("doc2", OWNER).unwrap();
    assert_eq!(renamed.fak, original.fak);
    let renamed_keys = fs.keys_for(&renamed.physical_name, &renamed.fak);
    assert!(!Arc::ptr_eq(&original_keys, &renamed_keys));
    assert_eq!(original_keys.signature(), renamed_keys.signature());

    // Re-key: new pair, new keys, same bytes; the old pair is dead in the
    // not-found family however warm its key set was.
    fs.revoke_sharing("doc2", OWNER).unwrap();
    let rekeyed = fs.lookup_entry("doc2", OWNER).unwrap();
    assert_ne!(rekeyed.fak, original.fak);
    assert_ne!(
        fs.keys_for(&rekeyed.physical_name, &rekeyed.fak)
            .signature(),
        original_keys.signature()
    );
    assert_eq!(fs.read_hidden_with_key("doc2", OWNER).unwrap(), v1);
    assert!(fs
        .open_hidden_entry(&renamed)
        .is_err_and(|e| e.is_not_found()));

    // Unlink, then recreate under the same name: a new FAK, so a new key
    // set; neither earlier pair resolves.
    fs.remove(Parent::Uak(OWNER), "doc2").unwrap();
    fs.steg_create("doc2", OWNER, ObjectKind::File).unwrap();
    let v2 = payload(74, 2_500);
    fs.write_hidden_with_key("doc2", OWNER, &v2).unwrap();
    let recreated = fs.lookup_entry("doc2", OWNER).unwrap();
    assert_ne!(recreated.fak, rekeyed.fak);
    assert_eq!(fs.read_hidden_with_key("doc2", OWNER).unwrap(), v2);
    for dead in [&renamed, &rekeyed] {
        assert!(fs.open_hidden_entry(dead).is_err_and(|e| e.is_not_found()));
    }
}

#[test]
fn stale_vfs_handle_stays_not_found_across_unlink_and_recreate() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let s = vfs.signon(OWNER);
    let old = vfs
        .open(s, "/hidden/doc", OpenOptions::read_write())
        .unwrap();
    vfs.write_at(old, 0, &payload(75, 4_000)).unwrap();
    vfs.unlink(s, "/hidden/doc").unwrap();
    assert!(vfs.read_at(old, 0, 16).unwrap_err().is_not_found());

    let new = vfs
        .open(s, "/hidden/doc", OpenOptions::read_write())
        .unwrap();
    let v2 = payload(76, 1_500);
    vfs.write_at(new, 0, &v2).unwrap();
    assert_eq!(vfs.read_at(new, 0, v2.len()).unwrap(), v2);
    assert!(vfs.read_at(old, 0, 16).unwrap_err().is_not_found());
}

#[test]
fn wrong_key_and_never_existed_fail_identically_cold_and_warm() {
    // The same `(physical name, FAK)` lookups against a volume where the
    // object exists under another FAK and one where it never existed.
    let has = small_fs();
    let never = small_fs();
    has.steg_create("doc", OWNER, ObjectKind::File).unwrap();
    has.write_hidden_with_key("doc", OWNER, b"present").unwrap();
    let entry = has.lookup_entry("doc", OWNER).unwrap();
    let wrong = DirectoryEntry {
        fak: [0x5a; 32],
        ..entry.clone()
    };
    let failure = |fs: &StegFs<MemBlockDevice>, e: &DirectoryEntry| {
        let err = fs.open_hidden_entry(e).err().expect("must not open");
        assert!(err.is_not_found());
        err.to_string()
    };

    has.disconnect_all();
    let cold = (failure(&has, &wrong), failure(&never, &wrong));
    assert_eq!(cold.0, cold.1, "wrong key vs never existed, cold");

    // A correct open warms header, extents and keys; the failed lookups
    // above already warmed their own key sets.
    assert_eq!(
        has.read_range_at(&has.open_hidden_entry(&entry).unwrap(), 0, 7)
            .unwrap(),
        b"present"
    );
    let warm = (failure(&has, &wrong), failure(&never, &wrong));
    assert_eq!(warm, cold, "a warm cache changed what a wrong key sees");
    // Both volumes answered the repeat from the key cache alike.
    let (a, b) = (has.cache_stats(), never.cache_stats());
    assert!(a.key_hits > 0 && b.key_hits > 0, "{a:?} {b:?}");
}

#[test]
fn racing_first_opens_of_one_object_share_one_key_set() {
    let fs = Arc::new(small_fs());
    fs.steg_create("raced", OWNER, ObjectKind::File).unwrap();
    let data = payload(77, 5_000);
    fs.write_hidden_with_key("raced", OWNER, &data).unwrap();
    let entry = fs.lookup_entry("raced", OWNER).unwrap();
    fs.disconnect_all();
    let before = fs.cache_stats();

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (fs, barrier, entry) = (Arc::clone(&fs), Arc::clone(&barrier), entry.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let h = fs.open_hidden_entry(&entry).unwrap();
                fs.read_range_at(&h, 0, 5_000).unwrap()
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), data);
    }
    let after = fs.cache_stats();
    let derived = after.key_misses - before.key_misses;
    assert!((1..=THREADS as u64).contains(&derived), "{after:?}");
    assert_eq!(after.resident_keys, 1, "racers converged on one entry");
    // From here on every open shares that one set.
    let a = fs.keys_for(&entry.physical_name, &entry.fak);
    let b = fs.keys_for(&entry.physical_name, &entry.fak);
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(fs.cache_stats().key_misses, after.key_misses);
}

// ----------------------------------------------------------------------
// Streaming readahead
// ----------------------------------------------------------------------

#[test]
fn sequential_streaming_reads_prefetch_into_the_cache() {
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), cached_params()).unwrap();
    let s = vfs.signon(OWNER);
    let h = vfs
        .open(s, "/hidden/stream", OpenOptions::read_write())
        .unwrap();
    let data = payload(31, 32 * 1024); // 32 blocks at 1 KiB
    vfs.write_at(h, 0, &data).unwrap();
    vfs.close(h).unwrap();

    // Fresh handle, 1 KiB streaming chunks over the whole file.
    let h = vfs
        .open(s, "/hidden/stream", OpenOptions::read_only())
        .unwrap();
    let before = vfs.cache_stats();
    let mut got = Vec::new();
    loop {
        let chunk = vfs.read(h, 1024).unwrap();
        if chunk.is_empty() {
            break;
        }
        got.extend_from_slice(&chunk);
    }
    assert_eq!(got, data);
    let after = vfs.cache_stats();
    let misses = after.block_misses - before.block_misses;
    let hits = after.block_hits - before.block_hits;
    // 32 one-block reads: without readahead every one would miss.  With
    // the 8-block window armed from the second read on, only a handful of
    // submissions touch the device.
    assert!(misses <= 8, "readahead did not batch: {misses} misses");
    assert!(hits >= 24, "prefetched blocks were not served: {hits} hits");
    vfs.close(h).unwrap();

    // A positional re-read of the same range is all hits now.
    let h = vfs
        .open(s, "/hidden/stream", OpenOptions::read_only())
        .unwrap();
    let before = vfs.cache_stats();
    assert_eq!(vfs.read_at(h, 0, data.len()).unwrap(), data);
    let after = vfs.cache_stats();
    assert_eq!(after.block_misses, before.block_misses);
    vfs.close(h).unwrap();
    vfs.signoff(s).unwrap();
}

// ----------------------------------------------------------------------
// Observability: the histograms count what the cache counts
// ----------------------------------------------------------------------

#[test]
fn cache_histograms_conserve_block_counts_through_the_vfs() {
    // 64 blocks in 16 shards: the files below evict on nearly every read.
    let params = StegParams {
        readpath_cache_blocks: 64,
        ..StegParams::for_tests()
    };
    let vfs = Vfs::format(MemBlockDevice::new(1024, 8192), params).unwrap();
    let s = vfs.signon(OWNER);
    let mut handles = Vec::new();
    for i in 0..4 {
        let path = format!("/hidden/obs-{i}");
        let h = vfs.open(s, &path, OpenOptions::read_write()).unwrap();
        vfs.write_at(h, 0, &payload(i, 24 * 1024 + 100 * i as usize))
            .unwrap();
        handles.push(h);
    }
    for round in 0..3u64 {
        for (i, &h) in handles.iter().enumerate() {
            let offset = (round * 700 + i as u64 * 1024) % 20_000;
            vfs.read_at(h, 0, 64 * 1024).unwrap();
            vfs.read_at(h, offset, 3000).unwrap();
            vfs.read(h, 2048).unwrap();
        }
    }
    let stats = vfs.cache_stats();
    assert!(stats.block_hits > 0 && stats.block_misses > 0 && stats.evictions > 0);
    let obs = vfs.obs().readcache.summary();
    assert_eq!(obs.hit_ns.count, stats.block_hits);
    assert_eq!(obs.miss_ns.count, stats.block_misses);
    assert_eq!(obs.evict_ns.count, stats.evictions);
    for h in handles {
        vfs.close(h).unwrap();
    }
    vfs.signoff(s).unwrap();
}
