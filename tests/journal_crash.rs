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
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stegfs_blockdev::{
    BlockDevice, BlockError, BlockResult, BufferCache, FaultDevice, MemBlockDevice,
};
use stegfs_core::crypt::ObjectKeys;
use stegfs_core::{ObjectKind, StegFs, StegParams};
use stegfs_obs::lock::{Condvar, Mutex, RwLock};
use stegfs_tests::{journaled_params, payload};

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
                match fs.write_plain(&path, &data) {
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
                match fs.delete_hidden(&name, OWNER) {
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
    let listed = fs.list_hidden(OWNER).unwrap();
    for (name, _) in &listed {
        if let Err(e) = read_hidden(fs, name) {
            panic!("{name} is listed but cannot be read: {e}");
        }
    }
    listed.into_iter().map(|(name, _)| name).collect()
}

/// Owned-block accounting: every live object's blocks (data, chain, header,
/// free pool) must be allocated and owned exactly once, disjoint from every
/// plain block and from the metadata + journal regions.
fn assert_no_double_ownership<D: BlockDevice>(fs: &StegFs<D>) {
    let sb = fs.plain_fs().superblock().clone();
    let mut owner_of: HashMap<u64, String> = HashMap::new();
    for b in fs.plain_fs().plain_object_blocks().unwrap() {
        assert!(sb.in_data_region(b), "plain block {b} outside data region");
        owner_of.insert(b, "plain".into());
    }
    let mut claim = |physical: &str, key: &[u8], label: String| {
        let keys = ObjectKeys::derive(physical, key);
        let io = fs.object_io(&keys);
        let obj = match io.open(physical) {
            Ok(obj) => obj,
            // The object (e.g. the UAK directory before any hidden create
            // committed) does not exist — nothing to claim.
            Err(e) if e.is_not_found() => return,
            Err(e) => panic!("{label}: open failed: {e}"),
        };
        for b in io.owned_blocks(&obj).unwrap() {
            assert!(
                fs.plain_fs().is_block_allocated(b),
                "{label}: owned block {b} not marked allocated"
            );
            assert!(
                sb.in_data_region(b),
                "{label}: block {b} outside data region"
            );
            if let Some(other) = owner_of.insert(b, label.clone()) {
                panic!("block {b} owned by both {other} and {label}");
            }
        }
    };
    claim(
        stegfs_core::keys::UAK_DIRECTORY_NAME,
        OWNER.as_bytes(),
        "uak-dir".into(),
    );
    for (name, _) in fs.list_hidden(OWNER).unwrap() {
        let entry = fs.lookup_entry(&name, OWNER).unwrap();
        claim(&entry.physical_name, &entry.fak, format!("hidden/{name}"));
    }
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
            prop_assert_eq!(&fs.read_plain(path).unwrap(), expected, "plain file {}", path);
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
                let got = fs.read_plain(path).ok();
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
        assert_no_double_ownership(&fs);

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
        assert_no_double_ownership(&fs);

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
        assert_no_double_ownership(&fs);
    }
}

/// An interrupted `delete_hidden` never wedges the name.  The delete is two
/// committed transactions — unpublish the name, then destroy the object — so
/// the device is made to die at every write of the sequence in turn; whichever
/// prefix survived, every name the directory still lists reads back, and every
/// name it no longer lists is free to be created again.  (In the opposite
/// order a crash between the two left `budget` listed, unreadable,
/// `AlreadyExists` to `steg_create` and `NotFound` to `delete_hidden`.)
#[test]
fn interrupted_delete_never_leaves_a_ghost_name() {
    let keep = payload(11, 6 * 1024);
    let budget = payload(12, 20 * 1024);
    for trip in 0u64.. {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 2048));
        let fs = StegFs::format(
            BufferCache::new_write_back(dev.clone(), CACHE_BLOCKS),
            params(),
        )
        .unwrap();
        for (name, data) in [("keep", &keep), ("budget", &budget)] {
            fs.steg_create(name, OWNER, ObjectKind::File).unwrap();
            fs.write_hidden_with_key(name, OWNER, data).unwrap();
        }
        fs.sync().unwrap();

        dev.fail_after_writes(trip);
        let completed = fs.delete_hidden("budget", OWNER).is_ok();
        drop(fs);
        dev.crash(0x6e05 ^ trip);

        let fs = mount_stack(&dev);
        let listed = assert_listed_names_open(&fs);
        assert_eq!(read_hidden(&fs, "keep").unwrap(), keep, "trip {trip}");
        if listed.iter().any(|name| name == "budget") {
            assert!(!completed, "trip {trip}: a completed delete rolled back");
            assert_eq!(read_hidden(&fs, "budget").unwrap(), budget, "trip {trip}");
        } else {
            fs.steg_create("budget", OWNER, ObjectKind::File)
                .unwrap_or_else(|e| panic!("trip {trip}: unlisted name not creatable: {e}"));
        }
        assert_no_double_ownership(&fs);
        if completed {
            assert!(trip > 2, "the delete never met the trip wire");
            return;
        }
    }
}

/// Crash-consistency for the self-healing paths: an in-place repair — the
/// online read-repair drain rewriting damaged shares and metadata replicas
/// — interrupted at an arbitrary write must replay all-or-nothing.  After
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
            fs.plain_fs().write_raw_block(group[1], &junk).unwrap();
            fs.plain_fs().write_raw_block(group[3], &junk).unwrap();
        }
        let entry = fs.lookup_entry("heal", OWNER).unwrap();
        let keys = ObjectKeys::derive(&entry.physical_name, &entry.fak);
        let obj = fs.object_io(&keys).open(&entry.physical_name).unwrap();
        fs.plain_fs()
            .write_raw_block(obj.header.header_replicas[1], &junk)
            .unwrap();
        fs.sync().unwrap();
        fs.purge_read_caches();

        // The degraded read queues a self-healing ticket; the drain then
        // dies mid-rewrite.
        assert_eq!(fs.read_hidden_with_key("heal", OWNER).unwrap(), data);
        assert!(fs.pending_repairs() >= 1);
        dev.fail_after_writes(trip);
        let _ = fs.process_repairs(4);
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
        assert_no_double_ownership(&fs);

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

/// What an [`AnchorFlight`] device saw, shared with the test driving it.
#[derive(Default)]
struct Flight {
    seen: Mutex<Seen>,
    cv: Condvar,
    /// Read-held across every call into the device; [`Flight::kill`] takes
    /// it to write, so once it returns nothing more reaches the disk.
    dead: RwLock<bool>,
}

#[derive(Default)]
struct Seen {
    anchors: Range<u64>,
    ring: Range<u64>,
    /// Anchor writes so far; the first `durable_anchor_writes` of them were
    /// covered by a flush that has returned.
    anchor_writes: u64,
    durable_anchor_writes: u64,
    /// `anchor_writes` at each ring block's last write.  A slot is rewritten
    /// only after its run was reclaimed, which needs an anchor written after
    /// the slot and durable before the rewrite; blocks rewritten without
    /// one are listed in `reused`.
    last_write: HashMap<u64, u64>,
    reused: Vec<u64>,
    armed: bool,
    parked: bool,
    released: bool,
    /// Ring blocks written since the last anchor write.
    behind: u64,
}

impl Flight {
    fn watch(&self, journal_start: u64, journal_blocks: u64) {
        let mut seen = self.seen.lock();
        seen.anchors = journal_start..journal_start + 2;
        seen.ring = journal_start + 2..journal_start + journal_blocks;
    }

    /// Park the next flush that starts after an anchor write, and wait
    /// until it is parked with `blocks` ring blocks written since that
    /// anchor; false if that took longer than `limit`.  The flush stays
    /// parked until [`release`](Self::release).
    fn park_anchor_flush(&self, blocks: u64, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        let mut seen = self.seen.lock();
        seen.armed = true;
        while !(seen.parked && seen.behind >= blocks) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            seen = self.cv.wait_timeout(seen, left).0;
        }
        true
    }

    fn kill(&self) {
        *self.dead.write() = true;
    }

    /// Disarm, and let a parked flush go on.
    fn release(&self) {
        let mut seen = self.seen.lock();
        seen.armed = false;
        seen.released = true;
        self.cv.notify_all();
        while seen.parked {
            seen = self.cv.wait(seen);
        }
        seen.released = false;
    }

    fn wrote(&self, blocks: &[u64]) {
        let seen = &mut *self.seen.lock();
        for &b in blocks {
            if seen.anchors.contains(&b) {
                seen.anchor_writes += 1;
                seen.behind = 0;
            } else if seen.ring.contains(&b) {
                let stamp = seen.last_write.insert(b, seen.anchor_writes);
                if stamp.is_some_and(|stamp| seen.durable_anchor_writes <= stamp) {
                    seen.reused.push(b);
                }
                seen.behind += 1;
            }
        }
        self.cv.notify_all();
    }

    /// At a flush's start: park it if armed and an anchor is not yet known
    /// durable.  Returns the anchor writes this flush covers.
    fn flush_starts(&self) -> u64 {
        let mut seen = self.seen.lock();
        let covers = seen.anchor_writes;
        if seen.armed && covers > seen.durable_anchor_writes {
            seen.armed = false;
            seen.parked = true;
            self.cv.notify_all();
            while !seen.released {
                seen = self.cv.wait(seen);
            }
            seen.parked = false;
            self.cv.notify_all();
        }
        covers
    }

    fn flushed(&self, covers: u64) {
        let mut seen = self.seen.lock();
        seen.durable_anchor_writes = seen.durable_anchor_writes.max(covers);
    }
}

/// A write-cache `FaultDevice` that can park a checkpoint's anchor flush,
/// and checks that a ring slot is reused only after an anchor past it is
/// durable.
struct AnchorFlight {
    dev: FaultDevice<MemBlockDevice>,
    flight: Arc<Flight>,
}

impl AnchorFlight {
    fn pass<T>(
        &self,
        op: impl FnOnce(&FaultDevice<MemBlockDevice>) -> BlockResult<T>,
    ) -> BlockResult<T> {
        if *self.flight.dead.read() {
            return Err(BlockError::Io(std::io::Error::other(
                "injected crash: device unreachable",
            )));
        }
        op(&self.dev)
    }
}

impl BlockDevice for AnchorFlight {
    fn block_size(&self) -> usize {
        self.dev.block_size()
    }
    fn total_blocks(&self) -> u64 {
        self.dev.total_blocks()
    }
    fn read_block(&self, block: u64, buf: &mut [u8]) -> BlockResult<()> {
        self.pass(|d| d.read_block(block, buf))
    }
    fn read_blocks(&self, blocks: &[u64], buf: &mut [u8]) -> BlockResult<()> {
        self.pass(|d| d.read_blocks(blocks, buf))
    }
    fn write_block(&self, block: u64, buf: &[u8]) -> BlockResult<()> {
        self.write_blocks(&[block], buf)
    }
    fn write_blocks(&self, blocks: &[u64], buf: &[u8]) -> BlockResult<()> {
        self.pass(|d| d.write_blocks(blocks, buf))?;
        self.flight.wrote(blocks);
        Ok(())
    }
    fn flush(&self) -> BlockResult<()> {
        let covers = self.flight.flush_starts();
        self.pass(|d| d.flush())?;
        self.flight.flushed(covers);
        Ok(())
    }
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
/// until the device dies.  A full journal ring (`NoSpace`) is a clean
/// failure: it backs off and goes on (see ROADMAP, "a full ring fails
/// commits behind an unsettled front transaction").
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
            let result = fs.write_plain(&path, &data);
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
                if is_device_death(&e) {
                    return model;
                }
                assert!(
                    matches!(e, stegfs_core::StegError::NoSpace),
                    "committer {t}: {e}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    unreachable!()
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
        let flight = Arc::new(Flight::default());
        let device = AnchorFlight {
            dev: dev.clone(),
            flight: Arc::clone(&flight),
        };
        let fs = StegFs::format(device, params()).unwrap();
        let sb = fs.plain_fs().superblock().clone();
        flight.watch(sb.journal_start, sb.journal_blocks);
        let mut models = Vec::new();
        for t in 0..3u64 {
            let (path, name) = (format!("/a{t}"), format!("a{t}"));
            let (plain, hidden) = (payload(seed ^ t, 2000), payload(seed ^ t << 4, 3000));
            fs.write_plain(&path, &plain).unwrap();
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
            let parked = (0..50).any(|_| {
                flight.park_anchor_flush(4, Duration::from_millis(100)) || {
                    flight.release();
                    false
                }
            });
            flight.kill();
            dev.crash(seed);
            flight.release();
            let outcomes: Vec<_> = committers.into_iter().map(|c| c.join().unwrap()).collect();
            (parked, outcomes)
        });
        drop(fs);
        assert!(
            parked,
            "seed {seed}: no anchor flush parked with writes behind it"
        );
        let reused = flight.seen.lock().reused.clone();
        assert!(
            reused.is_empty(),
            "seed {seed}: ring blocks {reused:?} reused before the anchor past them was durable"
        );

        let fs = StegFs::mount(dev.clone(), params()).expect("remount after crash");
        assert_listed_names_open(&fs);
        assert_no_double_ownership(&fs);
        for model in outcomes {
            for (key, expected) in &model.committed {
                let got = if key.starts_with('/') {
                    fs.read_plain(key).unwrap()
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
