//! Same victims, same submissions, same bytes — as one constant.
//!
//! Every cache in the stack evicts in LRU order (the write-back
//! `BufferCache` puts a written block no read touched first in line once
//! its write-back lands), and which block a
//! cache evicts decides what the device underneath is asked next: a
//! different victim is a different miss later, a different write-back, a
//! different batch.  This test drives a fixed script through `Vfs` on the
//! journaled stack with caches small enough to evict on nearly every
//! operation — a 64-block write-back `BufferCache` and a 256-block hidden
//! read cache — and pins one SHA-256 over the ordered traffic the device
//! below the `BufferCache` saw (kind and block list of every submission),
//! its block, byte and submission totals, and the raw image.  An eviction
//! mechanism that reproduces the constant chose every victim the same way.

use stegfs_blockdev::{BlockDevice, BufferCache, FaultDevice, MemBlockDevice, ObservedDevice};
use stegfs_core::StegParams;
use stegfs_crypto::sha256::{sha256, Sha256};
use stegfs_obs::DeviceSummary;
use stegfs_tests::{hex, journaled_params, payload, tape, Pin};
use stegfs_vfs::{OpenOptions, SessionId, Vfs};

const OWNER: &str = "the real key";
const BS: usize = 1024;
const BUFFER_CACHE_BLOCKS: usize = 64;

/// SHA-256 over traffic digest, device totals and image digest of
/// [`run_script`], recorded when the `BufferCache` began demoting written,
/// never-read blocks once written back and a plain hidden patch began
/// keeping its object's untouched plaintext cached.  Against the previous
/// recording (exact LRU everywhere) only reads moved — 5 659 → 5 660
/// submissions, 6 941 → 6 940 blocks — with writes, flushes and the image
/// unchanged.  Re-recorded for format v3 and again for v4: traffic and
/// device totals are unchanged, and only the image moved (v3: the
/// superblock's version field and the journal ring's slots; v4: the version
/// field, the journal ring's slots and every hidden-object block).
/// Re-recorded when each hidden namespace operation became one
/// transaction: flushes 62 → 51, writes 8 589 → 8 576 submissions and
/// 10 260 → 10 218 blocks, reads 5 660 → 5 655 and 6 940 → 6 935; the
/// image moved only in the journal ring's slots.  Re-recorded when a
/// growing handle write became one transaction: flushes 51 → 41, writes
/// 8 576 → 8 286 submissions and 10 218 → 9 563 blocks, reads unchanged;
/// the image moved only in the journal ring's 160 slots.
const PINNED: &str = "eac72b35c7314d41bd936ea28e8189092de24f8ffa79227a8e57aa3d614abecf";

type Disk = ObservedDevice<FaultDevice<MemBlockDevice>>;
type Stack = Vfs<BufferCache<Disk>>;

fn params() -> StegParams {
    StegParams {
        readpath_cache_blocks: 256,
        ..journaled_params(160)
    }
}

fn cached(disk: Disk) -> BufferCache<Disk> {
    BufferCache::new_write_back(disk, BUFFER_CACHE_BLOCKS)
}

fn put(vfs: &Stack, s: SessionId, path: &str, offset: u64, data: &[u8]) {
    let h = vfs.open(s, path, OpenOptions::read_write()).unwrap();
    vfs.write_at(h, offset, data).unwrap();
    vfs.close(h).unwrap();
}

fn check(vfs: &Stack, s: SessionId, path: &str, want: &[u8]) {
    let h = vfs.open(s, path, OpenOptions::read_only()).unwrap();
    assert_eq!(vfs.read_at(h, 0, want.len() + 1).unwrap(), want, "{path}");
    vfs.close(h).unwrap();
}

/// The fixed script; returns (traffic digest, device totals, raw image).
fn run_script() -> (String, DeviceSummary, Vec<u8>) {
    let (tape, traffic) = tape(MemBlockDevice::new(BS, 8192));
    let disk = ObservedDevice::counting(tape);
    let io = disk.stats().clone();
    let vfs: Stack = Vfs::format(cached(disk), params()).expect("format");
    let s = vfs.signon(OWNER);

    // Create: two plain files and six hidden ones, ~300 hidden blocks in
    // all — more than either cache holds.
    let mut files: Vec<(String, Vec<u8>)> = vec![
        ("/plain/a.bin".into(), payload(1, 48 * BS)),
        ("/plain/b.bin".into(), payload(2, 30 * BS + 500)),
    ];
    for i in 0..6u64 {
        let len = 50 * BS + i as usize * 1000;
        files.push((format!("/hidden/doc-{i}"), payload(10 + i, len)));
    }
    for (path, data) in &files {
        put(&vfs, s, path, 0, data);
    }

    // Overwrite one of each whole, patch one of each in the middle.
    for (idx, seed) in [(0usize, 20u64), (3, 21)] {
        let fresh = payload(seed, files[idx].1.len());
        put(&vfs, s, &files[idx].0, 0, &fresh);
        files[idx].1 = fresh;
    }
    for (idx, seed, at) in [(1usize, 30u64, 3000usize), (4, 31, 5000)] {
        let patch = payload(seed, 9 * BS + 77);
        put(&vfs, s, &files[idx].0, at as u64, &patch);
        files[idx].1[at..at + patch.len()].copy_from_slice(&patch);
    }

    // Re-read everything, forwards then backwards, through caches that
    // cannot hold it; then make it durable through a handle and the volume.
    for (path, data) in files.iter().chain(files.iter().rev()) {
        check(&vfs, s, path, data);
    }
    let h = vfs
        .open(s, "/hidden/doc-5", OpenOptions::read_write())
        .unwrap();
    let tail = payload(40, 2 * BS + 9);
    let at = files[7].1.len() - BS;
    vfs.write_at(h, at as u64, &tail).unwrap();
    vfs.fsync(h).unwrap();
    vfs.close(h).unwrap();
    files[7].1.truncate(at);
    files[7].1.extend_from_slice(&tail);
    vfs.sync().unwrap();
    assert!(
        vfs.cache_stats().evictions > 0,
        "the read cache never evicted"
    );

    // Sign-off purges the session's cached plaintext; the next session
    // reads cold through the same buffer cache.
    vfs.signoff(s).unwrap();
    assert_eq!(vfs.cache_stats().resident_blocks, 0);
    let s = vfs.signon(OWNER);
    for (path, data) in &files[4..] {
        check(&vfs, s, path, data);
    }
    vfs.signoff(s).unwrap();

    let cache = vfs.unmount().expect("unmount");
    assert!(cache.stats().evictions > 500, "{:?}", cache.stats());
    assert_eq!(cache.dirty_blocks(), 0);

    // Remount over a fresh cache: everything is served back.
    let vfs: Stack = Vfs::mount(cached(cache.into_inner()), params()).expect("remount");
    let s = vfs.signon(OWNER);
    for (path, data) in &files {
        check(&vfs, s, path, data);
    }
    vfs.signoff(s).unwrap();
    let tape = vfs.unmount().expect("unmount").into_inner().into_inner();

    // The digest is taken before the image is read through the tape.
    let traffic = traffic.lock().clone().finalize();
    let mut image = Vec::with_capacity(tape.total_blocks() as usize * BS);
    for b in 0..tape.total_blocks() {
        image.extend(tape.read_block_vec(b).expect("raw read"));
    }
    (hex(&traffic), io.summary(), image)
}

#[test]
fn evicting_stack_is_pinned_submission_for_submission() {
    let (traffic, io, image) = run_script();
    let image_digest = hex(&sha256(&image));
    let mut all = Sha256::new();
    all.update(traffic.as_bytes());
    for total in [
        io.blocks_read,
        io.blocks_written,
        io.blocks_read * BS as u64,
        io.blocks_written * BS as u64,
        io.reads,
        io.writes,
    ] {
        all.update(&total.to_be_bytes());
    }
    all.update(image_digest.as_bytes());
    let pin = Pin {
        name: "cache_lru",
        params: params(),
        uaks: &[OWNER],
        dir: env!("CARGO_TARGET_TMPDIR"),
    };
    pin.check(
        &hex(&all.finalize()),
        PINNED,
        &image,
        BS,
        &format!("traffic {traffic}, image {image_digest}, {io:?}"),
    );
}
