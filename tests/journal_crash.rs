//! Randomized crash-point recovery harness for the write-ahead journal.
//!
//! Each case drives a mixed plain/hidden workload against the full journaled
//! stack — `StegFs` over a **write-back** `BufferCache` over a write-cache
//! `FaultDevice` — arms a failure trip wire so the device dies at an
//! arbitrary interior write of an arbitrary operation, then pulls the plug
//! (`FaultDevice::crash` applies, drops, or tears a seeded subset of the
//! unsynced writes, including mid-batch) and remounts.  After replay:
//!
//! * every operation that **returned success** before the crash reads back
//!   exactly (committed data is readable),
//! * the one operation in flight at the crash is either fully present or
//!   fully absent — never torn (the fsync contract: a failed commit may be
//!   durable, never partial),
//! * the allocator owns every live block exactly once (no double-allocated
//!   blocks across plain files, hidden objects and their free pools),
//! * a wrong-key probe remains byte-for-byte indistinguishable from probing
//!   an object that never existed,
//! * and the volume keeps working: new writes, a checkpoint, and a second
//!   remount all succeed.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stegfs_blockdev::{
    BlockDevice, BufferCache, Dir, FaultDevice, MemBlockDevice, Park, ParkAt, Trigger,
};
use stegfs_core::blockmap::BlockMap;
use stegfs_core::crypt::ObjectKeys;
use stegfs_core::{DirectoryEntry, ObjectKind, Parent, StegError, StegFs, StegParams};
use stegfs_journal::SlotUse;
use stegfs_obs::lock::Mutex;
use stegfs_tests::{journaled_params, owned_once, payload};

const OWNER: &str = "crash-harness key";
const CACHE_BLOCKS: usize = 64;

type Stack = StegFs<BufferCache<FaultDevice<MemBlockDevice>>>;

fn params() -> StegParams {
    StegParams {
        // Small dummies keep each case fast while still churning.
        dummy_file_count: 2,
        dummy_file_size: 4 * 1024,
        ..journaled_params(160)
    }
}

fn mount_stack(dev: &FaultDevice<MemBlockDevice>) -> Stack {
    StegFs::mount(
        BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
        params(),
    )
    .expect("remount after crash")
}

/// What the interrupted operation was about to do, so the post-crash check
/// can accept either outcome (complete or absent) but never a torn one.
enum Interrupted {
    None,
    Hidden {
        name: String,
        old: Option<Vec<u8>>,
        new: Option<Vec<u8>>,
    },
    Plain {
        path: String,
        old: Option<Vec<u8>>,
        new: Option<Vec<u8>>,
    },
}

struct Driver {
    fs: Option<Stack>,
    dev: FaultDevice<MemBlockDevice>,
    hidden_model: HashMap<String, Vec<u8>>,
    plain_model: HashMap<String, Vec<u8>>,
    interrupted: Interrupted,
}

impl Driver {
    fn new() -> Self {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            params(),
        )
        .expect("format journaled volume");
        Driver {
            fs: Some(fs),
            dev,
            hidden_model: HashMap::new(),
            plain_model: HashMap::new(),
            interrupted: Interrupted::None,
        }
    }

    /// Run one decoded operation; returns false once the device has died.
    fn step(&mut self, i: usize, word: u64) -> bool {
        let fs = self.fs.as_ref().expect("fs alive");
        let kind = word % 5;
        let size = 512 + (word / 5 % 12_000) as usize;
        let result = match kind {
            // Create-or-rewrite a hidden file.
            0 | 1 => {
                let name = format!("h{}", word / 64 % 3);
                let data = payload(word ^ i as u64, size);
                let old = self.hidden_model.get(&name).cloned();
                if old.is_none() {
                    if let Err(e) = fs.steg_create(&name, OWNER, ObjectKind::File) {
                        self.interrupted = Interrupted::Hidden {
                            name,
                            old: None,
                            new: Some(Vec::new()),
                        };
                        return !is_device_death(&e);
                    }
                }
                match fs.write_hidden_with_key(&name, OWNER, &data) {
                    Ok(()) => {
                        self.hidden_model.insert(name, data);
                        Ok(())
                    }
                    Err(e) => {
                        // A failed create-then-write may leave the empty
                        // created object behind.
                        let fallback = if old.is_none() {
                            Some(Vec::new())
                        } else {
                            old.clone()
                        };
                        self.interrupted = Interrupted::Hidden {
                            name,
                            old: fallback,
                            new: Some(data),
                        };
                        Err(e)
                    }
                }
            }
            // Write a plain file.
            2 => {
                let path = format!("/p{}", word / 64 % 3);
                let data = payload(word ^ 0xbeef, size);
                match fs
                    .plain_fs()
                    .write_file(&path, &data)
                    .map_err(StegError::from)
                {
                    Ok(()) => {
                        self.plain_model.insert(path, data);
                        Ok(())
                    }
                    Err(e) => {
                        self.interrupted = Interrupted::Plain {
                            path: path.clone(),
                            old: self.plain_model.get(&path).cloned(),
                            new: Some(data),
                        };
                        Err(e)
                    }
                }
            }
            // Delete a hidden file (if one exists).
            3 => {
                let name = match self.hidden_model.keys().next() {
                    Some(n) => n.clone(),
                    None => return true,
                };
                match fs.remove(Parent::Uak(OWNER), &name) {
                    Ok(_) => {
                        self.hidden_model.remove(&name);
                        Ok(())
                    }
                    Err(e) => {
                        self.interrupted = Interrupted::Hidden {
                            name: name.clone(),
                            old: self.hidden_model.get(&name).cloned(),
                            new: None,
                        };
                        Err(e)
                    }
                }
            }
            // Dummy maintenance: journaled churn the adversary also sees.
            _ => fs.touch_dummy_files().map(|_| ()),
        };
        match result {
            Ok(()) => true,
            Err(e) => !is_device_death(&e),
        }
    }
}

/// True when the error is the injected device failure (the signal to stop
/// submitting work and crash).
fn is_device_death(e: &stegfs_core::StegError) -> bool {
    e.to_string().contains("injected crash")
}

/// Read a hidden file after remount through a fresh key derivation.
fn read_hidden<D: BlockDevice>(
    fs: &StegFs<D>,
    name: &str,
) -> Result<Vec<u8>, stegfs_core::StegError> {
    fs.read_hidden_with_key(name, OWNER)
}

/// No ghost names: every name the UAK directory lists must open and read.
/// Returns the listed names.
fn assert_listed_names_open<D: BlockDevice>(fs: &StegFs<D>) -> Vec<String> {
    let listed = fs.list(Parent::Uak(OWNER)).unwrap().entries;
    for entry in &listed {
        if let Err(e) = read_hidden(fs, &entry.name) {
            panic!("{} is listed but cannot be read: {e}", entry.name);
        }
    }
    listed.into_iter().map(|e| e.name).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    #[test]
    fn crash_anywhere_recovers_consistently(
        ops in proptest::collection::vec(any::<u64>(), 4..10),
        crash_seed in any::<u64>(),
        trip in any::<u64>(),
    ) {
        let mut driver = Driver::new();

        // Arm the trip wire so the device dies at an arbitrary interior
        // block write of an arbitrary operation.
        let trip_op = (trip % (ops.len() as u64 + 1)) as usize;
        let trip_writes = trip / 13 % 60;
        for (i, &word) in ops.iter().enumerate() {
            if i == trip_op {
                driver.dev.fail_after_writes(trip_writes);
            }
            if !driver.step(i, word) {
                break;
            }
        }

        // Pull the plug: the process dies (no unmount, the write-back cache
        // simply evaporates), the disk keeps a torn subset of unsynced
        // writes.
        drop(driver.fs.take());
        driver.dev.crash(crash_seed);

        // Remount: replay runs inside mount.
        let fs = mount_stack(&driver.dev);

        // Committed hidden data is readable, byte for byte.
        for (name, expected) in &driver.hidden_model {
            match &driver.interrupted {
                Interrupted::Hidden { name: n, .. } if n == name => continue,
                _ => {}
            }
            let got = read_hidden(&fs, name);
            prop_assert_eq!(
                got.as_ref().ok(),
                Some(expected),
                "committed hidden file {} unreadable after crash",
                name
            );
        }
        for (path, expected) in &driver.plain_model {
            match &driver.interrupted {
                Interrupted::Plain { path: p, .. } if p == path => continue,
                _ => {}
            }
            prop_assert_eq!(&fs.plain_fs().read_file(path).unwrap(), expected, "plain file {}", path);
        }

        // The interrupted operation is all-or-nothing, never torn.
        match &driver.interrupted {
            Interrupted::None => {}
            Interrupted::Hidden { name, old, new } => {
                let got = read_hidden(&fs, name).ok();
                let acceptable = got.is_none()
                    || got.as_ref() == old.as_ref()
                    || got.as_ref() == new.as_ref();
                prop_assert!(
                    acceptable,
                    "interrupted hidden op on {} left torn state: {:?} bytes",
                    name,
                    got.map(|g| g.len())
                );
            }
            Interrupted::Plain { path, old, new } => {
                let got = fs.plain_fs().read_file(path).ok();
                let acceptable = got.is_none()
                    || got.as_ref() == old.as_ref()
                    || got.as_ref() == new.as_ref();
                prop_assert!(
                    acceptable,
                    "interrupted plain op on {} left torn state: {:?} bytes",
                    path,
                    got.map(|g| g.len())
                );
            }
        }

        // No interrupted operation — a delete least of all — leaves a name
        // that lists but does not open.
        assert_listed_names_open(&fs);

        // The allocator owns every live block exactly once.
        owned_once(&fs, &[OWNER]);

        // Wrong key and never-existed stay indistinguishable across the
        // crash + replay.
        let wrong = fs.read_hidden_with_key("h0", "guessed key").unwrap_err();
        let absent = fs.read_hidden_with_key("never-created-name", "guessed key").unwrap_err();
        prop_assert!(wrong.is_not_found());
        prop_assert!(absent.is_not_found());
        let w = wrong.to_string().replace("h0", "<name>");
        let a = absent.to_string().replace("never-created-name", "<name>");
        prop_assert_eq!(w, a, "error text distinguishes wrong key from absent");

        // The volume keeps working: a fresh write survives a checkpoint and
        // a second (clean) remount.
        fs.steg_create("post-crash", OWNER, ObjectKind::File).unwrap();
        let fresh = payload(0x0fe_u64 ^ crash_seed, 3000);
        fs.write_hidden_with_key("post-crash", OWNER, &fresh).unwrap();
        fs.sync().unwrap();
        drop(fs);
        driver.dev.crash(crash_seed.wrapping_add(1)); // nothing unsynced left to lose
        let fs = mount_stack(&driver.dev);
        prop_assert_eq!(read_hidden(&fs, "post-crash").unwrap(), fresh);
    }
}

/// The background checkpoint daemon advances the journal tail and anchors
/// concurrently with foreground commits.  A kill with a checkpoint in
/// flight (`stop_checkpoint_daemon(false)` models the dead process, the
/// `FaultDevice` tears the unsynced writes) must replay cleanly: the
/// daemon writes only the same checksummed anchor records a foreground
/// sync writes, so replay cannot tell them apart.
#[test]
fn checkpoint_daemon_in_flight_replays_cleanly() {
    for trip in [2u64, 5, 9, 17, 28, 45] {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let mut fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            params(),
        )
        .unwrap();
        fs.start_checkpoint_daemon();
        assert!(fs.checkpoint_daemon_running());

        // Committed churn with the daemon live: every commit notifies it,
        // so tail/anchor writes race the foreground from the start.
        let mut committed: HashMap<String, Vec<u8>> = HashMap::new();
        for k in 0..4u64 {
            let name = format!("d{k}");
            let data = payload(trip << 8 | k, 6 * 1024);
            fs.steg_create(&name, OWNER, ObjectKind::File).unwrap();
            fs.write_hidden_with_key(&name, OWNER, &data).unwrap();
            committed.insert(name, data);
        }

        // Arm the trip wire and keep rewriting: the device dies at an
        // arbitrary write — foreground payload, commit record or the
        // daemon's checkpoint, whichever lands there.
        dev.fail_after_writes(trip);
        let mut interrupted: Option<(String, Vec<u8>)> = None;
        for k in 0..4u64 {
            let name = format!("d{k}");
            let data = payload(0xda31_u64 ^ (trip << 8 | k), 9 * 1024);
            match fs.write_hidden_with_key(&name, OWNER, &data) {
                Ok(()) => {
                    committed.insert(name, data);
                }
                Err(_) => {
                    interrupted = Some((name, data));
                    break;
                }
            }
        }

        // Kill: no drain, no unmount — the checkpoint may be mid-write.
        fs.stop_checkpoint_daemon(false);
        drop(fs);
        dev.crash(0xc0ff_ee00 ^ trip);

        let fs = mount_stack(&dev);
        for (name, expected) in &committed {
            match &interrupted {
                Some((n, new)) if n == name => {
                    // The in-flight rewrite is all-or-nothing.
                    let got = fs.read_hidden_with_key(name, OWNER).unwrap();
                    assert!(
                        &got == expected || &got == new,
                        "trip {trip}: interrupted rewrite of {name} torn"
                    );
                }
                _ => {
                    assert_eq!(
                        fs.read_hidden_with_key(name, OWNER).unwrap(),
                        *expected,
                        "trip {trip}: committed {name} unreadable after daemon crash"
                    );
                }
            }
        }
        owned_once(&fs, &[OWNER]);

        // The recovered volume still runs a daemon, drains it on unmount
        // and hands back a volume that remounts clean.
        let mut fs = fs;
        fs.start_checkpoint_daemon();
        fs.write_hidden_with_key("d0", OWNER, b"after recovery")
            .unwrap();
        fs.unmount().unwrap(); // drains the daemon
        let fs = mount_stack(&dev);
        assert_eq!(
            fs.read_hidden_with_key("d0", OWNER).unwrap(),
            b"after recovery"
        );
    }
}

/// A focused regression: a torn *hidden-file rewrite* — header, chain and
/// bitmap all in flight — must leave the previous contents fully readable.
#[test]
fn torn_hidden_rewrite_preserves_old_contents() {
    for trip in [1u64, 3, 7, 12, 20, 33] {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            params(),
        )
        .unwrap();
        let old = payload(7, 24 * 1024);
        fs.steg_create("victim", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("victim", OWNER, &old).unwrap();
        fs.sync().unwrap();

        dev.fail_after_writes(trip);
        let _ = fs.write_hidden_with_key("victim", OWNER, &payload(8, 30 * 1024));
        drop(fs);
        dev.crash(0xdead ^ trip);

        let fs = mount_stack(&dev);
        let got = fs.read_hidden_with_key("victim", OWNER).unwrap();
        // All-or-nothing: the rewrite either committed entirely before the
        // device died (possible for late trips) or rolled away entirely.
        if got != old {
            assert_eq!(got, payload(8, 30 * 1024), "trip {trip}: torn rewrite");
        }
        owned_once(&fs, &[OWNER]);
    }
}

/// Crash-consistency for the repair path: an in-place repair — the keyed
/// scavenger rewriting damaged shares and metadata replicas — interrupted
/// at an arbitrary write must replay all-or-nothing.  After
/// remount the object still reads back in full (the damage was within
/// tolerance, and a torn repair must not have made it worse), and an
/// offline scavenge converges the volume to fully intact.
#[test]
fn crash_mid_repair_replays_cleanly_and_converges() {
    use stegfs_core::Policy;
    let coded = || StegParams {
        hidden_policy: Policy::Disperse { m: 2, n: 4 },
        ..params()
    };
    for trip in [1u64, 2, 4, 9, 15] {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            coded(),
        )
        .unwrap();
        let data = payload(0x4e41 ^ trip, 20 * 1024);
        fs.steg_create("heal", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("heal", OWNER, &data).unwrap();
        fs.sync().unwrap();

        // Tolerable damage on data shares *and* metadata replicas, synced
        // down so it survives the crash no matter what.
        let junk = vec![0x99u8; 1024];
        for group in fs.hidden_share_extents("heal", OWNER).unwrap() {
            fs.plain_fs().device().write_block(group[1], &junk).unwrap();
            fs.plain_fs().device().write_block(group[3], &junk).unwrap();
        }
        let entry = fs.lookup_entry("heal", OWNER).unwrap();
        let keys = ObjectKeys::derive(&entry.physical_name, &entry.fak);
        let obj = fs.object_io(&keys).open(&entry.physical_name).unwrap();
        fs.plain_fs()
            .device()
            .write_block(obj.header.header_replicas[1], &junk)
            .unwrap();
        fs.sync().unwrap();
        fs.purge_read_caches();

        // The degraded read is served in full; the repair then dies
        // mid-rewrite.
        assert_eq!(fs.read_hidden_with_key("heal", OWNER).unwrap(), data);
        dev.fail_after_writes(trip);
        let _ = fs.scavenge_entry(&entry);
        drop(fs);
        dev.crash(0x7e41 ^ trip);

        // Replay: the repair either committed entirely or rolled away; the
        // object reads back in full either way.
        let fs = StegFs::mount(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            coded(),
        )
        .expect("remount after mid-repair crash");
        assert_eq!(
            fs.read_hidden_with_key("heal", OWNER).unwrap(),
            data,
            "trip {trip}: torn repair broke the object"
        );
        owned_once(&fs, &[OWNER]);

        // An offline scavenge finishes the job and converges: a second
        // pass finds nothing left to repair.
        let report = stegfs_survival::scavenge(&fs, &[OWNER]).unwrap();
        assert!(report.all_recovered(), "trip {trip}: {report:?}");
        let again = stegfs_survival::scavenge(&fs, &[OWNER]).unwrap();
        assert_eq!(again.objects_intact, again.objects_scanned, "trip {trip}");
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("heal", OWNER).unwrap(), data);
    }
}

/// What the journal's writes and flushes did to its ring: the writes as
/// they reached the write cache of the device under it, the flushes as
/// they returned.
#[derive(Default)]
struct Seen {
    anchors: Range<u64>,
    ring: Range<u64>,
    /// The flush epoch of each anchor write so far; the first
    /// `durable_anchor_writes` of them were covered by a flush that has
    /// returned (one submitted after them: of a later epoch).
    anchor_epochs: Vec<u64>,
    durable_anchor_writes: usize,
    /// Anchor writes so far at each ring block's last write.  A slot is rewritten
    /// only after its run was reclaimed, which needs an anchor written after
    /// the slot and durable before the rewrite; blocks rewritten without
    /// one are listed in `reused`.
    last_write: HashMap<u64, usize>,
    reused: Vec<u64>,
    /// Ring blocks written since the last anchor write.
    behind: u64,
}

impl Seen {
    /// Watch the journal of `blocks` blocks at `start` through `dev`'s
    /// write and flush submissions.
    fn watch(dev: &FaultDevice<MemBlockDevice>, start: u64, blocks: u64) -> Arc<Mutex<Seen>> {
        let seen = Arc::new(Mutex::new(Seen {
            anchors: start..start + 2,
            ring: start + 2..start + blocks,
            ..Seen::default()
        }));
        let log = Arc::clone(&seen);
        dev.record(Trigger::when(|op| op.dir != Dir::Read), move |op| {
            let seen = &mut *log.lock();
            if op.dir == Dir::Flush {
                let covered = seen.anchor_epochs.partition_point(|&w| w <= op.epoch);
                seen.durable_anchor_writes = seen.durable_anchor_writes.max(covered);
            }
            for &b in op.blocks {
                if seen.anchors.contains(&b) {
                    seen.anchor_epochs.push(op.epoch);
                    seen.behind = 0;
                } else if seen.ring.contains(&b) {
                    let stamp = seen.last_write.insert(b, seen.anchor_epochs.len());
                    if stamp.is_some_and(|stamp| seen.durable_anchor_writes <= stamp) {
                        seen.reused.push(b);
                    }
                    seen.behind += 1;
                }
            }
        });
        seen
    }
}

/// Park the next flush that starts after an anchor not yet durable, and
/// wait until it is parked with `blocks` ring blocks written since that
/// anchor; `None`, the park released, if that took longer than `limit`.
fn park_anchor_flush(
    dev: &FaultDevice<MemBlockDevice>,
    seen: &Arc<Mutex<Seen>>,
    blocks: u64,
    limit: Duration,
) -> Option<Park> {
    let ring = Arc::clone(seen);
    let anchor_flush = Trigger::when(move |op| {
        let seen = ring.lock();
        op.dir == Dir::Flush && seen.anchor_epochs.len() > seen.durable_anchor_writes
    });
    let park = dev.park(anchor_flush, ParkAt::Before);
    let deadline = Instant::now() + limit;
    while !(park.is_parked() && seen.lock().behind >= blocks) {
        if Instant::now() >= deadline {
            park.release();
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(park)
}

/// A committer's files: the last committed contents of each, and the
/// writes to it that failed since (a failed write may be durable, never
/// partial).  Plain paths start with `/`, hidden names do not.
#[derive(Default)]
struct Model {
    committed: HashMap<String, Vec<u8>>,
    failed: HashMap<String, Vec<Vec<u8>>>,
}

/// One committer: rewrites its own plain file and hidden file in turn
/// until the device dies.  A full journal ring waits for the transactions
/// in front to settle, so the device's death is the only failure.
fn commit_until_killed<D: BlockDevice>(
    fs: &StegFs<D>,
    t: u64,
    seed: u64,
    mut model: Model,
) -> Model {
    for i in 0u64.. {
        let data = payload(seed << 16 ^ t << 8 ^ i, 512 + (i * 1531 % 6000) as usize);
        let (key, result) = if i % 2 == 0 {
            let path = format!("/a{t}");
            let result = fs
                .plain_fs()
                .write_file(&path, &data)
                .map_err(StegError::from);
            (path, result)
        } else {
            let name = format!("a{t}");
            let result = fs.write_hidden_with_key(&name, OWNER, &data);
            (name, result)
        };
        match result {
            Ok(()) => {
                model.failed.remove(&key);
                model.committed.insert(key, data);
            }
            Err(e) => {
                model.failed.entry(key).or_default().push(data);
                assert!(is_device_death(&e), "committer {t}: {e}");
                return model;
            }
        }
    }
    unreachable!()
}

/// Three committers rewrite 0.5–6.5 KiB plain and hidden files on a
/// 160-block ring with the checkpoint daemon running, on each of four
/// volumes at once, so a ring is full again and again while the transaction
/// at its front is staged but not yet applied.  A stager that finds the
/// ring full waits for that transaction to settle: not one write may fail
/// with `NoSpace`, and every file reads back its last write.
#[test]
fn a_full_ring_waits_for_the_front_transaction() {
    const WRITES: u64 = 300;
    let no_space: u64 = std::thread::scope(|volumes| {
        let volumes: Vec<_> = [5u64, 17, 29, 41]
            .into_iter()
            .map(|seed| volumes.spawn(move || full_ring_volume(seed, WRITES)))
            .collect();
        volumes.into_iter().map(|v| v.join().unwrap()).sum()
    });
    assert_eq!(
        no_space,
        0,
        "{no_space} of {} writes failed with NoSpace",
        4 * 3 * WRITES
    );
}

/// One volume of [`a_full_ring_waits_for_the_front_transaction`]: the
/// number of writes that failed with `NoSpace`.
fn full_ring_volume(seed: u64, writes: u64) -> u64 {
    let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
    let mut fs = StegFs::format(BufferCache::new_write_back(dev, CACHE_BLOCKS), params()).unwrap();
    fs.start_checkpoint_daemon();
    for t in 0..3u64 {
        fs.steg_create(&format!("a{t}"), OWNER, ObjectKind::File)
            .unwrap();
    }
    let fs = &fs;
    let outcomes: Vec<(u64, HashMap<String, Vec<u8>>)> = std::thread::scope(|s| {
        let committers: Vec<_> = (0..3u64)
            .map(|t| {
                s.spawn(move || {
                    let (mut no_space, mut last) = (0u64, HashMap::new());
                    for i in 0..writes {
                        let len = 512 + (i * 1531 % 6000) as usize;
                        let data = payload(seed << 16 ^ t << 8 ^ i, len);
                        let (key, result) = if i % 2 == 0 {
                            let path = format!("/a{t}");
                            let result = fs
                                .plain_fs()
                                .write_file(&path, &data)
                                .map_err(StegError::from);
                            (path, result)
                        } else {
                            let name = format!("a{t}");
                            let result = fs.write_hidden_with_key(&name, OWNER, &data);
                            (name, result)
                        };
                        match result {
                            Ok(()) => drop(last.insert(key, data)),
                            Err(stegfs_core::StegError::NoSpace) => no_space += 1,
                            Err(e) => panic!("seed {seed} committer {t}: {e}"),
                        }
                    }
                    (no_space, last)
                })
            })
            .collect();
        committers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (key, expected) in outcomes.iter().flat_map(|(_, last)| last) {
        let got = if key.starts_with('/') {
            fs.plain_fs().read_file(key).unwrap()
        } else {
            read_hidden(fs, key).unwrap()
        };
        assert!(&got == expected, "seed {seed}: {key} lost its last write");
    }
    outcomes.iter().map(|(no_space, _)| no_space).sum()
}

/// A crash while a checkpoint's anchor flush is in flight, with other
/// committers' transactions staged and written behind it.  The checkpoints
/// are commit steals, so the ring is nearly full and the next slots a
/// stager gets are the front run the checkpoint is retiring.  It holds no
/// log-state lock across that flush, so the stagers run; but the run stays
/// counted until the anchor is durable, so none of them may land in it.
/// After the crash and replay every committed write reads back, a write
/// that failed is old or new, and block ownership is exact.
#[test]
fn a_crash_during_an_anchor_flush_replays_cleanly() {
    for seed in [3u64, 11, 29, 47, 71] {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let fs = StegFs::format(dev.clone(), params()).unwrap();
        let sb = fs.plain_fs().superblock().clone();
        let seen = Seen::watch(&dev, sb.journal_start, sb.journal_blocks);
        let mut models = Vec::new();
        for t in 0..3u64 {
            let (path, name) = (format!("/a{t}"), format!("a{t}"));
            let (plain, hidden) = (payload(seed ^ t, 2000), payload(seed ^ t << 4, 3000));
            fs.plain_fs().write_file(&path, &plain).unwrap();
            fs.steg_create(&name, OWNER, ObjectKind::File).unwrap();
            fs.write_hidden_with_key(&name, OWNER, &hidden).unwrap();
            let committed = HashMap::from([(path, plain), (name, hidden)]);
            models.push(Model {
                committed,
                ..Model::default()
            });
        }
        fs.sync().unwrap();

        let (parked, outcomes) = std::thread::scope(|s| {
            let committers: Vec<_> = models
                .into_iter()
                .enumerate()
                .map(|(t, model)| {
                    let fs = &fs;
                    s.spawn(move || commit_until_killed(fs, t as u64, seed, model))
                })
                .collect();
            // No stager may get in behind a parked flush (all at the gate,
            // or the ring is full); let that one go and park a later one.
            let park =
                (0..50).find_map(|_| park_anchor_flush(&dev, &seen, 4, Duration::from_millis(100)));
            // The kill: trip the wire (a refused write trips it at once), so
            // nothing more reaches the disk and the parked flush fails.
            dev.fail_after_writes(0);
            let _ = dev.write_block(0, &[0; 1024]);
            let parked = park.inspect(Park::release).is_some();
            let outcomes: Vec<_> = committers.into_iter().map(|c| c.join().unwrap()).collect();
            (parked, outcomes)
        });
        drop(fs);
        dev.crash(seed);
        assert!(
            parked,
            "seed {seed}: no anchor flush parked with writes behind it"
        );
        let reused = seen.lock().reused.clone();
        assert!(
            reused.is_empty(),
            "seed {seed}: ring blocks {reused:?} reused before the anchor past them was durable"
        );

        let fs = StegFs::mount(dev.clone(), params()).expect("remount after crash");
        assert_listed_names_open(&fs);
        owned_once(&fs, &[OWNER]);
        for model in outcomes {
            for (key, expected) in &model.committed {
                let got = if key.starts_with('/') {
                    fs.plain_fs().read_file(key).unwrap()
                } else {
                    read_hidden(&fs, key).unwrap()
                };
                let mut failed = model.failed.get(key).into_iter().flatten();
                assert!(
                    &got == expected || failed.any(|new| new == &got),
                    "seed {seed}: committed {key} lost after the crash"
                );
            }
        }
    }
}

/// The fixed state the patch-script cases start from: a journaled volume
/// holding the old bytes of hidden `h` and plain `/p`, synced, as a raw
/// image.
struct PatchScript {
    image: Vec<u8>,
    old_hidden: Vec<u8>,
    new_hidden: Vec<u8>,
    patch: Vec<u8>,
    old_plain: Vec<u8>,
    new_plain: Vec<u8>,
}

/// Blocks of the script volumes: small, since every case copies one.
const SCRIPT_BLOCKS: u64 = 2048;

/// The raw image of `dev`, whose every write a sync made durable.
fn durable_image(dev: &FaultDevice<MemBlockDevice>) -> Vec<u8> {
    assert_eq!(dev.pending_writes(), 0, "the setup is durable");
    (0..dev.total_blocks())
        .flat_map(|b| dev.read_block_vec(b).unwrap())
        .collect()
}

/// A fresh write-cache device holding `image`.
fn device_holding(image: &[u8]) -> FaultDevice<MemBlockDevice> {
    let mem = MemBlockDevice::new(1024, SCRIPT_BLOCKS);
    for (b, block) in image.chunks_exact(1024).enumerate() {
        mem.write_block(b as u64, block).unwrap();
    }
    FaultDevice::with_write_cache(mem)
}

/// Where the patch lands in `h`: sixteen whole blocks in its middle.
const PATCH_AT: usize = 8 * 1024;

impl PatchScript {
    fn new() -> Self {
        let old_hidden = payload(21, 40 * 1024);
        let patch = payload(22, 16 * 1024);
        let mut new_hidden = old_hidden.clone();
        new_hidden[PATCH_AT..PATCH_AT + patch.len()].copy_from_slice(&patch);
        let (old_plain, new_plain) = (payload(23, 6 * 1024), payload(24, 9 * 1024));

        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, SCRIPT_BLOCKS));
        let fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            params(),
        )
        .unwrap();
        fs.steg_create("h", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("h", OWNER, &old_hidden).unwrap();
        fs.plain_fs().write_file("/p", &old_plain).unwrap();
        fs.sync().unwrap();
        drop(fs);
        PatchScript {
            image: durable_image(&dev),
            old_hidden,
            new_hidden,
            patch,
            old_plain,
            new_plain,
        }
    }

    fn device(&self) -> FaultDevice<MemBlockDevice> {
        device_holding(&self.image)
    }

    /// The script: a 16 KiB patch of `h`, a rewrite of `/p`, a sync.
    fn run(&self, fs: &Stack) -> Result<(), stegfs_core::StegError> {
        let mut handle = fs.open_hidden("h", OWNER)?;
        fs.write_at_handle(&mut handle, PATCH_AT as u64, &self.patch)?;
        fs.plain_fs().write_file("/p", &self.new_plain)?;
        fs.sync()
    }

    /// Whether the script finishes, untripped, on a device that dies after
    /// `trip` block writes.
    fn finishes_within(&self, trip: u64) -> bool {
        let dev = self.device();
        let fs = mount_stack(&dev);
        dev.fail_after_writes(trip);
        self.run(&fs).is_ok() && dev.injected() == 0
    }

    /// Both files read back whole, each entirely old or entirely new, and
    /// every block has one owner.
    fn assert_old_or_new(&self, fs: &Stack, at: &str) {
        let hidden = read_hidden(fs, "h").unwrap();
        assert!(
            hidden == self.old_hidden || hidden == self.new_hidden,
            "{at}: hidden file is neither the old nor the new bytes"
        );
        let plain = fs.plain_fs().read_file("/p").unwrap();
        assert!(
            plain == self.old_plain || plain == self.new_plain,
            "{at}: plain file is neither the old nor the new bytes"
        );
        owned_once(fs, &[OWNER]);
    }
}

/// Every crash point of one short script, three crash seeds each: the
/// device dies after the script's first `trip` block writes, for every
/// `trip` short of the count that lets the script finish, then replay runs
/// at remount.  Every slot and payload a replay accepts passed the keyed
/// journal checks, so neither file may come back as a mix of old and new.
#[test]
fn every_write_trip_of_a_patch_and_a_plain_write_replays_old_or_new() {
    let script = PatchScript::new();
    // The script's block writes: the fewest after which it still finishes.
    let (mut lo, mut hi) = (0u64, 1024u64);
    assert!(script.finishes_within(hi));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if script.finishes_within(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let writes = lo;
    assert!(writes > 20, "the script finished after {writes} writes");
    // Two workers, alternate trips: each case mounts twice.
    std::thread::scope(|s| {
        for first in 0..2 {
            let script = &script;
            s.spawn(move || {
                for trip in (first..writes).step_by(2) {
                    for seed in [1u64, 2, 3] {
                        let dev = script.device();
                        let fs = mount_stack(&dev);
                        dev.fail_after_writes(trip);
                        let _ = script.run(&fs);
                        drop(fs);
                        dev.crash(seed ^ trip << 8);
                        let fs = mount_stack(&dev);
                        script.assert_old_or_new(&fs, &format!("trip {trip}, seed {seed}"));
                    }
                }
            });
        }
    });
    // Untripped, the script lands whole.
    let dev = script.device();
    let fs = mount_stack(&dev);
    script.run(&fs).unwrap();
    drop(fs);
    let fs = mount_stack(&dev);
    assert_eq!(read_hidden(&fs, "h").unwrap(), script.new_hidden);
    assert_eq!(fs.plain_fs().read_file("/p").unwrap(), script.new_plain);
}

/// The patch's transaction is durable in the ring and none of its home
/// blocks reached the device.  Replay applies it; with bits flipped in one
/// of its payload slots, the payload's keyed check fails, replay drops the
/// whole transaction, and the old bytes stay.
#[test]
fn a_damaged_payload_slot_drops_its_transaction_at_replay() {
    let script = PatchScript::new();
    for flip in [false, true] {
        let dev = script.device();
        let fs = mount_stack(&dev);
        let sb = fs.plain_fs().superblock().clone();
        let before: Vec<Vec<u8>> = (0..sb.total_blocks)
            .map(|b| dev.read_block_vec(b).unwrap())
            .collect();
        let mut handle = fs.open_hidden("h", OWNER).unwrap();
        fs.write_at_handle(&mut handle, PATCH_AT as u64, &script.patch)
            .unwrap();
        drop(fs);
        assert_eq!(dev.pending_writes(), 0, "the commit flushed the ring");
        let journal = sb.journal_start..sb.journal_start + sb.journal_blocks;
        let changed: Vec<u64> = (0..sb.total_blocks)
            .filter(|&b| dev.read_block_vec(b).unwrap() != before[b as usize])
            .collect();
        assert!(
            changed.iter().all(|b| journal.contains(b)),
            "only ring slots reached the device: {changed:?}"
        );
        // Intent, at least sixteen payloads, commit: the slot after the
        // intent is a payload.
        assert!(changed.len() >= 18, "ring slots written: {changed:?}");
        if flip {
            dev.flip_bits(changed[1], 8, 0x5107).unwrap();
        }
        let fs = mount_stack(&dev);
        let want = if flip {
            &script.old_hidden
        } else {
            &script.new_hidden
        };
        assert!(
            &read_hidden(&fs, "h").unwrap() == want,
            "flip {flip}: replay gave the wrong bytes"
        );
        assert_eq!(fs.plain_fs().read_file("/p").unwrap(), script.old_plain);
        owned_once(&fs, &[OWNER]);
    }
}

/// Every listed name of a namespace script's volume, top level and inside
/// hidden directories (`vault/b.bin`), with the binding it lists and its
/// bytes (`None` for a directory); and the plain files hide and unhide move
/// (`plain /path`, no binding).
type Namespace = BTreeMap<String, (Option<DirectoryEntry>, Option<Vec<u8>>)>;

/// One public namespace operation, and the transactions it commits.
type Row = (&'static str, fn(&Stack) -> Result<(), StegError>, usize);

fn vault(fs: &Stack) -> Result<DirectoryEntry, StegError> {
    fs.lookup_entry("vault", OWNER)
}

/// The rows of the namespace sweep.  Each is one transaction, except hide
/// and unhide: their plain step commits on its own.  The growing handle
/// write changes no name, but its growth and its patch are one commit too:
/// `doc` keeps its old size and bytes or takes the new ones.
const ROWS: [Row; 11] = [
    (
        "steg_create file",
        |fs| fs.steg_create("fresh", OWNER, ObjectKind::File),
        1,
    ),
    (
        "steg_create directory",
        |fs| fs.steg_create("fresh-dir", OWNER, ObjectKind::Directory),
        1,
    ),
    (
        "create in a directory",
        |fs| fs.create(Parent::Dir(&vault(fs)?), "c.bin", ObjectKind::File),
        1,
    ),
    (
        "rename in a directory",
        |fs| {
            fs.rename(Parent::Dir(&vault(fs)?), "b.bin", "renamed.bin")
                .map(drop)
        },
        1,
    ),
    (
        "remove from a directory",
        |fs| fs.remove(Parent::Dir(&vault(fs)?), "sub").map(drop),
        1,
    ),
    (
        "remove at top level",
        |fs| fs.remove(Parent::Uak(OWNER), "doc").map(drop),
        1,
    ),
    (
        "rename at top level",
        |fs| fs.rename(Parent::Uak(OWNER), "doc", "kept").map(drop),
        1,
    ),
    ("revoke_sharing", |fs| fs.revoke_sharing("doc", OWNER), 1),
    (
        "write_at_handle growing",
        |fs| {
            // Straddles the old end (2 048) and the block boundary at it.
            let mut h = fs.open_hidden("doc", OWNER)?;
            fs.write_at_handle(&mut h, 1500, &payload(34, 3000))
        },
        1,
    ),
    (
        "steg_hide",
        |fs| fs.steg_hide("/cover.txt", "hidden-cover", OWNER),
        2,
    ),
    (
        "steg_unhide",
        |fs| fs.steg_unhide("/uncovered.txt", "doc", OWNER),
        2,
    ),
];

/// The namespace `fs` lists.  A listed name that does not open fails the
/// test: that is a ghost.
fn namespace(fs: &Stack) -> Namespace {
    fn walk(fs: &Stack, path: String, entry: DirectoryEntry, seen: &mut Namespace) {
        let data = match entry.kind {
            ObjectKind::File => {
                let h = fs
                    .open_hidden_entry(&entry)
                    .unwrap_or_else(|e| panic!("{path} is listed but does not open: {e}"));
                Some(
                    fs.read_range_at(&h, 0, fs.handle_size(&h) as usize)
                        .unwrap(),
                )
            }
            ObjectKind::Directory => {
                let listing = fs
                    .list(Parent::Dir(&entry))
                    .unwrap_or_else(|e| panic!("{path} is listed but does not read: {e}"));
                for child in listing.entries {
                    walk(fs, format!("{path}/{}", child.name), child, seen);
                }
                None
            }
        };
        seen.insert(path, (Some(entry), data));
    }
    let mut seen = Namespace::new();
    for entry in fs.list(Parent::Uak(OWNER)).unwrap().entries {
        walk(fs, entry.name.clone(), entry, &mut seen);
    }
    for path in ["/cover.txt", "/uncovered.txt"] {
        if fs.plain_fs().exists(path).unwrap() {
            let data = fs.plain_fs().read_file(path).unwrap();
            seen.insert(format!("plain {path}"), (None, Some(data)));
        }
    }
    seen
}

/// The namespace script's parameters: [`params`] with a locator budget the
/// size of the volume, so probing for a name that is gone stays short, and
/// no dummy files, so the block-owner map walks only the script's objects.
fn script_params() -> StegParams {
    StegParams {
        max_locator_probes: SCRIPT_BLOCKS as usize,
        dummy_file_count: 0,
        ..params()
    }
}

fn mount_script(dev: &FaultDevice<MemBlockDevice>) -> Stack {
    let cache = BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS);
    StegFs::mount(cache, script_params()).expect("remount after crash")
}

/// The fixed volume every namespace case starts from, as a raw image: a
/// hidden file `doc`, a hidden directory `vault` holding a file and an
/// empty subdirectory (so a shadow listing), and a plain file; synced.
struct NamespaceScript {
    image: Vec<u8>,
    old: Namespace,
}

impl NamespaceScript {
    fn new() -> Self {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, SCRIPT_BLOCKS));
        let cache = BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS);
        let fs = StegFs::format(cache, script_params()).unwrap();
        fs.steg_create("doc", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("doc", OWNER, &payload(31, 2048))
            .unwrap();
        fs.steg_create("vault", OWNER, ObjectKind::Directory)
            .unwrap();
        let vault = vault(&fs).unwrap();
        fs.create(Parent::Dir(&vault), "b.bin", ObjectKind::File)
            .unwrap();
        let b = fs.list(Parent::Dir(&vault)).unwrap().find("b.bin").cloned();
        let mut h = fs.open_hidden_entry(&b.unwrap()).unwrap();
        fs.write_at_handle(&mut h, 0, &payload(32, 2048)).unwrap();
        fs.create(Parent::Dir(&vault), "sub", ObjectKind::Directory)
            .unwrap();
        fs.plain_fs()
            .write_file("/cover.txt", &payload(33, 2048))
            .unwrap();
        fs.sync().unwrap();
        drop(fs);
        let image = durable_image(&dev);
        let old = namespace(&mount_script(&device_holding(&image)));
        NamespaceScript { image, old }
    }

    /// Mount the image and run `row` on a device that dies after `trip`
    /// block writes (never, for `None`).  Returns the stack, whether the
    /// operation returned success, and the device.
    fn run(&self, row: &Row, trip: Option<u64>) -> (Stack, bool, FaultDevice<MemBlockDevice>) {
        let dev = device_holding(&self.image);
        let fs = mount_script(&dev);
        if let Some(trip) = trip {
            dev.fail_after_writes(trip);
        }
        let completed = row.1(&fs).is_ok();
        (fs, completed, dev)
    }
}

/// One row of the sweep, with what an untripped run of it leaves.
struct Case {
    row: Row,
    new: Namespace,
}

impl Case {
    /// The namespace after a crash and replay is the old one or the new one
    /// (or, for hide and unhide, both copies), and the new one if the
    /// operation had returned success.  Every binding no longer listed is
    /// gone, every block has one owner and none is leaked, and every name
    /// no longer listed can be created again.
    fn check(&self, script: &NamespaceScript, fs: &Stack, completed: bool, at: &str) {
        let got = namespace(fs);
        let mut both = script.old.clone();
        both.extend(self.new.clone());
        let two_commits = self.row.2 == 2;
        assert!(
            got == script.old || got == self.new || (two_commits && got == both),
            "{at}: the namespace is neither old nor new: {:?}",
            got.keys().collect::<Vec<_>>()
        );
        assert!(
            !completed || got == self.new,
            "{at}: a completed operation rolled back"
        );
        let listed = |e: &DirectoryEntry| {
            got.values()
                .filter_map(|(l, _)| l.as_ref())
                .any(|l| l.physical_name == e.physical_name && l.fak == e.fak)
        };
        let known = script.old.values().chain(self.new.values());
        for e in known.filter_map(|(e, _)| e.as_ref()).filter(|e| !listed(e)) {
            let keys = fs.keys_for(&e.physical_name, &e.fak);
            let opened = fs.object_io(&keys).open(&e.physical_name);
            assert!(
                opened.is_err_and(|e| e.is_not_found()),
                "{at}: the unlisted {} survives",
                e.name
            );
        }
        let map = owned_once(fs, &[OWNER]);
        assert_eq!(map.leak(), Some(0), "{at}: blocks leaked");
        let gone = script
            .old
            .iter()
            .chain(&self.new)
            .filter(|(path, _)| !got.contains_key(*path));
        for (path, (entry, _)) in gone {
            let Some(entry) = entry else { continue };
            let created = match path.split_once('/') {
                Some(("vault", child)) => {
                    fs.create(Parent::Dir(&vault(fs).unwrap()), child, entry.kind)
                }
                _ => fs.steg_create(path, OWNER, entry.kind),
            };
            created.unwrap_or_else(|e| panic!("{at}: the unlisted {path} cannot be created: {e}"));
        }
    }
}

/// Every crash point of every public namespace operation, and of a handle
/// write that grows its file: the device dies
/// after the operation's first `trip` block writes, for every `trip` short
/// of the count that lets it finish, then replay runs at remount.  Each
/// operation is one transaction (hide and unhide add a plain commit), so
/// the namespace comes back old or new, never a ghost name or a leaked
/// object.  Among the rows, an interrupted top-level `remove` never wedges its
/// name: a name still listed reads back, one no longer listed can be
/// created again.
#[test]
fn every_write_trip_of_a_namespace_operation_replays_old_or_new() {
    let script = NamespaceScript::new();
    let cases: Vec<Case> = ROWS
        .iter()
        .map(|row| {
            let (fs, completed, dev) = script.run(row, None);
            assert!(completed, "{} failed untripped", row.0);
            drop(fs);
            let new = namespace(&mount_script(&dev));
            assert!(new != script.old, "{} changed nothing", row.0);
            Case { row: *row, new }
        })
        .collect();
    // Two workers, alternate trips, one crash seed per trip out of three:
    // each case mounts twice.  A worker moves to the next row once a trip
    // lets the operation finish; every shorter one crashed it.
    let crashed: Vec<Vec<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|first| {
                let (script, cases) = (&script, &cases);
                s.spawn(move || {
                    let mut crashed = Vec::new();
                    for case in cases {
                        let mut trips = 0;
                        for trip in (first..).step_by(2) {
                            let (fs, completed, dev) = script.run(&case.row, Some(trip));
                            if completed && dev.injected() == 0 {
                                break;
                            }
                            drop(fs);
                            let seed = 1 + trip % 3;
                            dev.crash(seed ^ trip << 8);
                            let at = format!("{}, trip {trip}, seed {seed}", case.row.0);
                            case.check(script, &mount_script(&dev), completed, &at);
                            trips += 1;
                        }
                        crashed.push(trips);
                    }
                    crashed
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (i, row) in ROWS.iter().enumerate() {
        let trips = crashed[0][i] + crashed[1][i];
        assert!(trips > 2, "{} finished after {trips} writes", row.0);
    }
}

/// Transactions a stack committed since its last sync, from the journal's
/// commit slots (nothing checkpoints them meanwhile: no daemon runs).
fn live_commits(fs: &Stack) -> usize {
    let scan = fs.plain_fs().journal_scan().unwrap().expect("journaled");
    let uses = scan.slot_uses();
    uses.iter()
        .filter(|u| **u == SlotUse::Commit { live: true })
        .count()
}

/// Each row of the namespace sweep commits exactly the transactions its
/// table entry names: one, or two for hide and unhide.
#[test]
fn each_namespace_operation_commits_once() {
    let script = NamespaceScript::new();
    for row in &ROWS {
        let fs = mount_script(&device_holding(&script.image));
        assert!(!fs.checkpoint_daemon_running());
        fs.sync().unwrap();
        let before = live_commits(&fs);
        row.1(&fs).unwrap();
        assert_eq!(live_commits(&fs) - before, row.2, "{}", row.0);
    }
}

/// Removing the last child of a hidden directory deletes the directory's
/// shadow listing in the same transaction.  A read fault there fails the
/// whole removal: nothing reaches the device, and after a remount the
/// listing, the child and the shadow are as they were.
#[test]
fn a_failed_shadow_delete_fails_the_removal_and_commits_nothing() {
    use stegfs_blockdev::FaultTarget;
    let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, SCRIPT_BLOCKS));
    let fs = StegFs::format(
        BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
        params(),
    )
    .unwrap();
    fs.steg_create("vault", OWNER, ObjectKind::Directory)
        .unwrap();
    fs.create(Parent::Dir(&vault(&fs).unwrap()), "only", ObjectKind::File)
        .unwrap();
    fs.sync().unwrap();
    let before = BlockMap::keyed(&fs, &[OWNER]).unwrap();
    drop(fs);

    // A buffer cache as large as the volume, warmed with every block the
    // removal reads before it reaches the shadow listing: the listing and
    // the child's header probes.
    let whole = SCRIPT_BLOCKS as usize;
    let fs = StegFs::mount(BufferCache::new_write_back(dev.clone(), whole), params()).unwrap();
    let only = fs
        .list(Parent::Dir(&vault(&fs).unwrap()))
        .unwrap()
        .find("only")
        .cloned()
        .unwrap();
    let keys = fs.keys_for(&only.physical_name, &only.fak);
    fs.object_io(&keys).open(&only.physical_name).unwrap();
    let image = durable_image(&dev);
    dev.fail_only(FaultTarget::Reads);
    dev.script_failures(1);
    let removed = fs.remove(Parent::Dir(&vault(&fs).unwrap()), "only");
    assert!(
        removed.is_err(),
        "the removal survived a failed shadow delete"
    );
    assert_eq!(dev.injected(), 1);
    drop(fs);
    dev.clear_failure();
    assert!(
        durable_image(&dev) == image,
        "the failed removal reached the device"
    );

    let fs = mount_stack(&dev);
    let listing = fs.list(Parent::Dir(&vault(&fs).unwrap())).unwrap();
    assert_eq!(listing.find("only"), Some(&only));
    fs.open_hidden_entry(&only).unwrap();
    let after = owned_once(&fs, &[OWNER]);
    assert_eq!(after.leak(), Some(0));
    assert_eq!(after.tally(), before.tally(), "the shadow listing moved");
}
