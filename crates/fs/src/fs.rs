//! The [`PlainFs`] facade: format, mount, and path-based file operations.
//!
//! `PlainFs` is the "native file system" of the reproduction.  Used on its
//! own with the [`AllocPolicy::Contiguous`] or [`AllocPolicy::Fragmented`]
//! policies it is the paper's CleanDisk / FragDisk baseline; used underneath
//! `stegfs-core` it provides the central directory, the bitmap, and raw block
//! access for hidden objects.
//!
//! # Concurrency
//!
//! Every public operation takes `&self`: the file system is sharded into
//! independently locked regions so that threads working on *different* files
//! overlap their block I/O and only contend where they genuinely share state:
//!
//! * **allocator meta lock + sharded bitmap segments** — the allocator
//!   mutex now guards only placement *meta* state (policy, first-fit
//!   cursor, the placement RNG): a hold is a few RNG draws, never a bitmap
//!   scan.  The bitmap itself is split into [`crate::bitmap::BITMAP_SHARDS`]
//!   independently locked segments (per-CPU-free-list style, each with its
//!   own word-scan hint), so writers claiming blocks in different parts of
//!   the volume flip bits fully in parallel.  Neither lock is held across
//!   device I/O of file contents.
//! * **namespace lock** — a reader/writer lock over the directory tree and
//!   the inode-slot table.  Path resolution and listings take it shared;
//!   create / rename / delete take it exclusively.  *Path-based* content
//!   operations (`read_file`, `write_file`, …) keep the shared guard across
//!   their content I/O — that is what pins the path→inode binding against a
//!   delete+create recycling the inode id — so namespace mutations wait for
//!   in-flight path-based transfers.  Inode-handle operations (the VFS hot
//!   path) never touch the namespace lock; they serialise on their stripe
//!   alone.
//! * **inode stripes** — [`STRIPE_COUNT`] mutexes, one per inode-id class,
//!   serialising content reads/writes *per file* (concurrent whole-file
//!   rewrites of one inode must not double-free its old blocks).  Two
//!   different files almost always hash to different stripes and proceed in
//!   parallel.
//! * **the device itself** — [`BlockDevice`] I/O takes `&self` and carries
//!   its own interior locking (the in-memory backend stripes its storage),
//!   so block transfers from different files overlap all the way down.
//!
//! Multi-block content transfers are *batched*: a file's whole extent list
//! goes to the device as one `read_blocks` / `write_blocks` submission under
//! a single hold of its stripe (readv/writev semantics), so a 64 KiB file
//! costs one submission instead of sixteen round-trips, and a latency-charging
//! device serves the batch with one overlapped service time.
//!
//! Lock order: the table in [`stegfs_obs::lock`].  Deletion takes the
//! namespace lock exclusively and then the victim's stripe, so an in-flight
//! content operation (which holds only the stripe) always completes before
//! its blocks are freed.

use crate::alloc::{AllocPolicy, Allocator};
use crate::bitmap::Bitmap;
use crate::dir::{decode_entries, encode_entries, split_parent, split_path, DirEntry};
use crate::error::{FsError, FsResult};
use crate::inode::{FileKind, Inode, InodeId, InodeTable, DIRECT_POINTERS, NO_BLOCK};
use crate::layout::Superblock;
use crate::txn::FsTxn;
use std::collections::BTreeMap;
use std::sync::Arc;
use stegfs_blockdev::{BlockDevice, ObservedDevice};
use stegfs_journal::{Journal, JournalGeometry, RingScan};
use stegfs_obs::lock::{Condvar, Mutex, MutexGuard, RwLock};
use stegfs_obs::{span, Obs, WatchdogStats};

/// Number of per-inode content stripes (see the module docs).
pub const STRIPE_COUNT: usize = 64;

/// Ring occupancy (permille) at or above which a committer checkpoints the
/// journal itself instead of stalling inside reclaim (see
/// [`PlainFs::maybe_steal_checkpoint`]).
pub(crate) const CHECKPOINT_STEAL_PERMILLE: u64 = 900;

/// Checkpoint-daemon wake interval from ring pressure: an idle ring keeps
/// the lazy 50 ms liveness tick, a filling ring tightens toward 5 ms so the
/// tail advances before committers hit reclaim (or the steal threshold).
fn checkpoint_tick(occupancy_permille: u64) -> std::time::Duration {
    match occupancy_permille {
        0..=249 => std::time::Duration::from_millis(50),
        250..=499 => std::time::Duration::from_millis(15),
        _ => std::time::Duration::from_millis(5),
    }
}

/// Options controlling [`PlainFs::format`].
#[derive(Debug, Clone)]
pub struct FormatOptions {
    /// Number of inodes ("central directory" capacity).  Defaults to one
    /// inode per 16 blocks.
    pub inode_count: Option<u64>,
    /// Fill every block of the volume with pseudorandom bytes at format time.
    ///
    /// This is the step that makes StegFS possible: used (encrypted) blocks
    /// become indistinguishable from never-used ones.  It is optional here
    /// because the plain baselines do not need it and it dominates format
    /// time for gigabyte volumes.
    pub fill_random: bool,
    /// Seed for the random fill and for allocation tie-breaking.
    pub seed: u64,
    /// Block allocation policy installed after formatting.
    pub policy: AllocPolicy,
    /// Blocks reserved for the write-ahead journal (0 = no journal, the
    /// pre-durability write-through behaviour).  A journaled volume must
    /// size the region larger than its largest single multi-block update;
    /// see `stegfs_journal` for the slot arithmetic.
    pub journal_blocks: u64,
}

impl Default for FormatOptions {
    fn default() -> Self {
        FormatOptions {
            inode_count: None,
            fill_random: false,
            seed: 0x0057_47f5_2003,
            policy: AllocPolicy::FirstFit,
            journal_blocks: 0,
        }
    }
}

impl FormatOptions {
    /// Options matching the StegFS paper: random fill on, random data-block
    /// placement available.
    pub fn stegfs_defaults() -> Self {
        FormatOptions {
            fill_random: true,
            ..FormatOptions::default()
        }
    }
}

/// Shared state of the background checkpoint daemon (see
/// [`PlainFs::start_checkpoint_daemon`]).
struct DaemonState {
    /// Set after every commit; the daemon clears it and checkpoints.
    dirty: bool,
    /// Ask the daemon to exit.
    stop: bool,
    /// On stop, run one final checkpoint first (clean shutdown) — `false`
    /// simulates a killed process (crash tests).
    drain: bool,
}

/// Handle to the running checkpoint daemon.
struct CheckpointDaemon {
    shared: Arc<(Mutex<DaemonState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A mounted plain file system.
///
/// All operations take `&self`; see the module docs for the locking scheme.
pub struct PlainFs<D: BlockDevice> {
    dev: Arc<ObservedDevice<D>>,
    sb: Superblock,
    inodes: InodeTable,
    /// The sharded block bitmap — interior-locked per segment; see
    /// [`crate::bitmap`].
    bitmap: Bitmap,
    /// Placement meta state only (policy, cursor, RNG); block claims happen
    /// under the bitmap's segment locks.
    alloc: Mutex<Allocator>,
    namespace: RwLock<()>,
    stripes: Vec<Mutex<()>>,
    /// One inode-table *block* packs several inodes, and writing one inode
    /// is a read-modify-write of its whole block — two inodes of the same
    /// table block live on different content stripes, so without this lock
    /// their concurrent updates would overwrite each other.  Striped by
    /// table-block index; innermost of the file-system locks (wraps only
    /// the device transfer).
    itable_stripes: Vec<Mutex<()>>,
    /// The write-ahead journal, when the volume was formatted with one.
    /// Every mutating operation then runs as an [`FsTxn`] and becomes
    /// crash-atomic; see [`crate::txn`] for the protocol.  Behind an `Arc`
    /// so the checkpoint daemon can hold it across threads.
    journal: Option<Arc<Journal>>,
    /// Background checkpoint daemon, when started (see
    /// [`Self::start_checkpoint_daemon`]).
    checkpoint: Mutex<Option<CheckpointDaemon>>,
    /// Stall-watchdog gauges (registry handle after [`Self::attach_obs`];
    /// a detached instance of its own before).
    watchdog: Arc<WatchdogStats>,
}

/// Fast non-cryptographic fill used to write "randomly generated patterns"
/// into every block at format time (§3.1).  Indistinguishability from AES
/// ciphertext is a modelling assumption, not something this fill provides:
/// it only needs to look uniform, not be cryptographically strong.
fn fill_pseudorandom(buf: &mut [u8], mut state: u64) {
    if state == 0 {
        state = 0x9e37_79b9_7f4a_7c15;
    }
    for chunk in buf.chunks_mut(8) {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let value = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&value[..n]);
    }
}

impl<D: BlockDevice> PlainFs<D> {
    // ------------------------------------------------------------------
    // Format / mount
    // ------------------------------------------------------------------

    fn assemble(
        dev: D,
        sb: Superblock,
        bitmap: Bitmap,
        policy: AllocPolicy,
        seed: u64,
        journal: Option<Journal>,
    ) -> Self {
        let seed_bytes = seed.to_be_bytes();
        PlainFs {
            alloc: Mutex::new(Allocator::new(
                policy,
                sb.data_start,
                sb.total_blocks,
                &seed_bytes,
            )),
            bitmap,
            dev: Arc::new(ObservedDevice::counting(dev)),
            inodes: InodeTable::new(sb.clone()),
            sb,
            namespace: RwLock::new(()),
            stripes: (0..STRIPE_COUNT).map(|_| Mutex::new(())).collect(),
            itable_stripes: (0..STRIPE_COUNT).map(|_| Mutex::new(())).collect(),
            journal: journal.map(Arc::new),
            checkpoint: Mutex::new(None),
            watchdog: Arc::default(),
        }
    }

    fn journal_geometry(sb: &Superblock) -> JournalGeometry {
        JournalGeometry {
            start: sb.journal_start,
            blocks: sb.journal_blocks,
            block_size: sb.block_size as usize,
        }
    }

    /// Format `dev` and return the mounted file system.
    pub fn format(dev: D, opts: FormatOptions) -> FsResult<Self> {
        let block_size = dev.block_size() as u32;
        let total_blocks = dev.total_blocks();
        let inode_count = opts
            .inode_count
            .unwrap_or_else(|| (total_blocks / 16).max(64));
        let mut sb =
            Superblock::compute(block_size, total_blocks, inode_count, opts.journal_blocks)?;
        // The journal salt is volume-public (it only buys uniformity, not
        // secrecy — see the journal crate's docs); derive it from the format
        // seed so formatting is deterministic.
        sb.journal_salt = opts.seed.rotate_left(17) ^ 0x6a6f_7572_6e61_6c21;

        // Optionally fill the whole volume with pseudorandom patterns.
        if opts.fill_random {
            let mut buf = vec![0u8; block_size as usize];
            for b in 0..total_blocks {
                fill_pseudorandom(&mut buf, opts.seed ^ b.wrapping_mul(0x9e37_79b9));
                dev.write_block(b, &buf)?;
            }
        }

        // Superblock.
        dev.write_block(0, &sb.serialize(block_size as usize))?;

        // Fresh bitmap with the metadata region marked allocated.
        let bitmap = Bitmap::new(&sb);
        for b in 0..sb.data_start {
            bitmap.allocate(b)?;
        }

        // Zero the bitmap region and the inode table.  Even when the rest of
        // the volume is random fill, these structures must parse (the bitmap
        // blocks untouched by the allocations above would otherwise still
        // hold random bytes on disk and corrupt a later mount).
        let zero = vec![0u8; block_size as usize];
        for b in 0..sb.bitmap_blocks {
            dev.write_block(sb.bitmap_start + b, &zero)?;
        }
        for b in 0..sb.inode_table_blocks {
            dev.write_block(sb.inode_table_start + b, &zero)?;
        }
        // The journal salt derives deterministically from the seed, so a
        // reused device could hold old transactions that still decode under
        // this volume's journal key — and the first mount would replay them
        // over the fresh volume.  The random fill above already scrubbed the
        // region; without it, scrub explicitly.
        if sb.journal_blocks > 0 && !opts.fill_random {
            for b in sb.journal_start..sb.journal_start + sb.journal_blocks {
                dev.write_block(b, &zero)?;
            }
        }

        // An initial anchor pair declares the (empty) journal over the
        // freshly scrubbed ring.
        let journal = if sb.journal_blocks > 0 {
            Some(
                Journal::format(Self::journal_geometry(&sb), sb.journal_salt, &dev)
                    .map_err(FsError::from)?,
            )
        } else {
            None
        };

        let root_inode = sb.root_inode;
        let fs = Self::assemble(dev, sb, bitmap, opts.policy, opts.seed, journal);

        // Root directory: inode 0, initially empty.
        let root = Inode::empty(FileKind::Directory);
        fs.write_inode(root_inode, &root)?;
        fs.sync()?;
        Ok(fs)
    }

    /// Mount an already-formatted volume.
    ///
    /// On a journaled volume this **replays** first: committed transactions
    /// that never fully reached their home locations are redone, torn or
    /// uncommitted ones are discarded — and only then are the bitmap and
    /// directory structures trusted.  Replay needs no user keys (hidden
    /// payloads were journaled as ciphertext), so mounting after a crash
    /// leaks nothing about hidden objects.
    pub fn mount(dev: D, policy: AllocPolicy, seed: u64) -> FsResult<Self> {
        let mut sb_buf = vec![0u8; dev.block_size()];
        dev.read_block(0, &mut sb_buf)?;
        let sb = Superblock::deserialize(&sb_buf)?;
        if sb.block_size as usize != dev.block_size() || sb.total_blocks != dev.total_blocks() {
            return Err(FsError::Corrupt(format!(
                "superblock geometry ({} x {}) does not match device ({} x {})",
                sb.block_size,
                sb.total_blocks,
                dev.block_size(),
                dev.total_blocks()
            )));
        }
        let journal = if sb.journal_blocks > 0 {
            let journal = Journal::open(Self::journal_geometry(&sb), sb.journal_salt)
                .map_err(FsError::from)?;
            journal.replay(&dev).map_err(FsError::from)?;
            Some(journal)
        } else {
            None
        };
        let bitmap = Bitmap::load(&sb, &dev)?;
        Ok(Self::assemble(dev, sb, bitmap, policy, seed, journal))
    }

    /// Flush the bitmap and the device; on a journaled volume this is also
    /// the checkpoint — after `sync` returns, every committed update is in
    /// place on stable storage and a crash replays nothing.
    pub fn sync(&self) -> FsResult<()> {
        self.bitmap.flush(&*self.dev)?;
        match &self.journal {
            Some(journal) => journal.sync(&*self.dev).map_err(FsError::from)?,
            None => self.dev.flush()?,
        }
        Ok(())
    }

    /// Durability barrier without a checkpoint: on a journaled volume,
    /// block until every transaction committed so far is crash-durable
    /// (their journal records are on stable storage; replay redoes any
    /// whose home writes were in flight) **without** advancing the tail,
    /// writing an anchor or flushing the bitmap — one group flush instead
    /// of a full [`Self::sync`].  On an unjournaled volume writes go
    /// straight to their home locations, so the barrier degrades to the
    /// full flush that `sync` would do.
    pub fn flush_barrier(&self) -> FsResult<()> {
        match &self.journal {
            Some(journal) => journal.flush_barrier(&*self.dev).map_err(FsError::from),
            None => {
                self.bitmap.flush(&*self.dev)?;
                Ok(self.dev.flush()?)
            }
        }
    }

    /// True when the volume carries a write-ahead journal (mutating
    /// operations are then crash-atomic transactions).
    pub fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Begin a transaction.  On an unjournaled volume the returned
    /// transaction is a transparent write-through shim, so callers use one
    /// code path for both modes.
    pub fn begin_txn(&self) -> FsTxn<'_, D> {
        FsTxn::new(self, self.journal.is_some())
    }

    // ------------------------------------------------------------------
    // Transaction plumbing (used by crate::txn)
    // ------------------------------------------------------------------

    pub(crate) fn journal_ref(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// `(absolute table block, byte offset)` of inode `id`.
    pub(crate) fn inode_location(&self, id: InodeId) -> FsResult<(u64, usize)> {
        self.inodes.location(id)
    }

    /// Lock the inode-table stripes covering `abs_blocks` (absolute table
    /// block numbers), in ascending stripe order, deduplicated.
    pub(crate) fn lock_itable_stripes(
        &self,
        abs_blocks: impl Iterator<Item = u64>,
    ) -> Vec<MutexGuard<'_, ()>> {
        let mut idx: Vec<usize> = abs_blocks
            .map(|b| ((b - self.sb.inode_table_start) as usize) % STRIPE_COUNT)
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx.into_iter()
            .map(|i| self.itable_stripes[i].lock())
            .collect()
    }

    /// The sharded bitmap (interior-locked; see [`crate::bitmap`]).  The
    /// transaction layer snapshots through
    /// [`Bitmap::lock_blocks`][crate::bitmap::Bitmap::lock_blocks].
    pub(crate) fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// Re-serialise the **current** in-memory state of the given bitmap
    /// blocks (region indices) to the device, under their covering bitmap
    /// segment locks.
    ///
    /// The journal apply path calls this after applying a transaction's
    /// staged images: concurrent commits apply their snapshots of a shared
    /// bitmap block in arbitrary order, so the last word on the device must
    /// come from the live bitmap (always newest truth, serialised by the
    /// segment locks — held *across* the device writes so no later update
    /// can be overwritten by this serialisation going down stale), never
    /// from a possibly-stale snapshot.
    pub(crate) fn rewrite_bitmap_blocks(
        &self,
        indices: &std::collections::BTreeSet<u64>,
    ) -> FsResult<()> {
        let guard = self.bitmap.lock_blocks(indices);
        for &idx in indices {
            let data = guard.serialize_block(idx);
            self.dev.write_block(guard.device_block_of(idx), &data)?;
        }
        Ok(())
    }

    pub(crate) fn read_inode_raw(&self, id: InodeId) -> FsResult<Inode> {
        self.read_inode(id)
    }

    pub(crate) fn write_inode_direct(&self, id: InodeId, inode: &Inode) -> FsResult<()> {
        self.write_inode(id, inode)
    }

    pub(crate) fn allocate_file_blocks_raw(&self, count: u64) -> FsResult<Vec<u64>> {
        let _s = span::span(span::Phase::AllocClaim);
        self.alloc.lock().allocate_file(&self.bitmap, count)
    }

    pub(crate) fn allocate_one_raw(&self) -> FsResult<u64> {
        let _s = span::span(span::Phase::AllocClaim);
        self.alloc_one()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The volume's superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.sb.block_size as usize
    }

    /// Number of free blocks in the data region.
    pub fn free_data_blocks(&self) -> u64 {
        self.bitmap
            .free_in_region(self.sb.data_start, self.sb.total_blocks)
    }

    /// Number of blocks in the data region (free or not).
    pub fn data_blocks(&self) -> u64 {
        self.sb.data_blocks()
    }

    /// True if `block` is currently marked allocated in the bitmap.
    pub fn is_block_allocated(&self, block: u64) -> bool {
        self.bitmap.is_allocated(block)
    }

    /// The journal region as [`Journal::scan`] reads it, through the same
    /// decoder replay uses; `None` on an unjournaled volume.  Reads only.
    pub fn journal_scan(&self) -> FsResult<Option<RingScan>> {
        self.journal
            .as_ref()
            .map(|journal| journal.scan(&*self.dev).map_err(FsError::from))
            .transpose()
    }

    /// Change the data-block allocation policy.
    pub fn set_alloc_policy(&self, policy: AllocPolicy) {
        self.alloc.lock().set_policy(policy);
    }

    /// Mutable access to the underlying device (used by the timing harness;
    /// requires exclusive ownership, which is why this one keeps `&mut` —
    /// and why it is unavailable while the checkpoint daemon holds a device
    /// handle).
    pub fn device_mut(&mut self) -> &mut D {
        Arc::get_mut(&mut self.dev)
            .expect("device_mut requires exclusive ownership (checkpoint daemon running?)")
            .inner_mut()
    }

    /// Shared access to the underlying device.
    pub fn device(&self) -> &D {
        self.dev.inner()
    }

    /// The metrics-instrumented device wrapper itself.  The transaction
    /// layer hands this to the journal so journal I/O is metered like every
    /// other device access.
    pub(crate) fn observed_device(&self) -> &ObservedDevice<D> {
        &self.dev
    }

    /// Commit-path pressure valve: when the ring is nearly full
    /// ([`CHECKPOINT_STEAL_PERMILLE`]), the committer checkpoints the
    /// journal itself instead of waiting for the daemon's next tick and
    /// then stalling inside reclaim — unless a checkpoint is already in
    /// flight, which is already making room: then it goes straight to
    /// staging ([`Journal::try_sync`]).  A checkpoint it runs feeds the
    /// watchdog as a daemon tick would: the occupancy it acted on, and a
    /// heartbeat when it succeeds.  Errors are absorbed exactly as on the
    /// daemon path (the commit that follows surfaces its own).
    pub(crate) fn maybe_steal_checkpoint(&self) {
        let Some(journal) = &self.journal else {
            return;
        };
        let occupancy = journal.occupancy_permille();
        if occupancy < CHECKPOINT_STEAL_PERMILLE {
            return;
        }
        match journal.try_sync(&*self.dev) {
            Ok(false) => {}
            ran => {
                // The steal threshold is past the watchdog's stall line.
                self.watchdog.sample(occupancy, true);
                if ran.is_ok() {
                    self.watchdog.note_steal();
                    self.watchdog.heartbeat();
                }
            }
        }
    }

    /// Wire this file system into a volume-wide observability registry:
    /// the device wrapper, the allocator meta mutex, the bitmap segment
    /// locks (`fs.alloc.<shard>`), the namespace lock, and the journal all
    /// start reporting into `obs`.  Called once during volume assembly,
    /// before the file system is shared (and before the checkpoint daemon
    /// starts — both hand out `Arc` clones this method must still be able
    /// to mutate through).
    pub fn attach_obs(&mut self, obs: &Arc<Obs>) {
        Arc::get_mut(&mut self.dev)
            .expect("attach_obs after the device was shared")
            .set_stats(obs.device.clone());
        self.alloc.set_stats(obs.alloc_lock.clone());
        self.bitmap.set_shard_stats(&obs.alloc_shards);
        self.namespace.set_stats(obs.namespace_lock.clone());
        if let Some(journal) = &mut self.journal {
            Arc::get_mut(journal)
                .expect("attach_obs after the journal was shared")
                .attach_obs(obs);
        }
        self.watchdog = obs.watchdog.clone();
    }

    /// Start the background checkpoint daemon: a thread that advances the
    /// journal tail and anchor (a full [`Journal::sync`]) off the commit
    /// path whenever commits have happened, so foreground writers rarely
    /// pay for ring reclamation or anchor writes themselves.  No-op on an
    /// unjournaled volume or when already running.  Call after
    /// [`Self::attach_obs`]; stop via [`Self::stop_checkpoint_daemon`]
    /// (unmount drains and stops automatically).
    pub fn start_checkpoint_daemon(&mut self)
    where
        D: Send + Sync + 'static,
    {
        let Some(journal) = self.journal.clone() else {
            return;
        };
        let mut slot = self.checkpoint.lock();
        if slot.is_some() {
            return;
        }
        let dev = Arc::clone(&self.dev);
        let watchdog = Arc::clone(&self.watchdog);
        let shared = Arc::new((
            Mutex::new(DaemonState {
                dirty: false,
                stop: false,
                drain: true,
            }),
            Condvar::new(),
        ));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let (state, cv) = &*thread_shared;
            loop {
                // Sample ring pressure before deciding how long to sleep:
                // the wake interval adapts to occupancy so a filling ring
                // gets checkpointed before committers hit reclaim.
                let occupancy = journal.occupancy_permille();
                let stalled = occupancy >= stegfs_obs::STALL_OCCUPANCY_PERMILLE
                    || journal.gate_stall_max_ns() >= stegfs_obs::GATE_STALL_THRESHOLD_NS;
                watchdog.sample(occupancy, stalled);
                let mut guard = state.lock();
                if !guard.dirty && !guard.stop {
                    // Timed wait doubles as a liveness tick: if the file
                    // system was dropped without unmount (crash tests), the
                    // daemon is the journal's last holder and exits.
                    guard = cv.wait_timeout(guard, checkpoint_tick(occupancy)).0;
                }
                let stop = guard.stop;
                let drain = guard.drain;
                let dirty = std::mem::replace(&mut guard.dirty, false);
                drop(guard);
                if stop {
                    if drain && dirty {
                        // Shutdown drain: one final checkpoint so unmount
                        // hands back a volume that replays nothing.
                        if journal.sync(&*dev).is_ok() {
                            watchdog.heartbeat();
                        }
                    }
                    return;
                }
                if dirty {
                    // Checkpoint errors are absorbed: the journal itself is
                    // still correct (commits replay at next mount); the
                    // foreground sees the error on its own explicit sync.
                    if journal.sync(&*dev).is_ok() {
                        watchdog.heartbeat();
                    }
                } else if Arc::strong_count(&journal) == 1 {
                    // Orphaned (fs dropped without unmount): exit without
                    // touching the device again.
                    return;
                }
            }
        });
        *slot = Some(CheckpointDaemon {
            shared,
            handle: Some(handle),
        });
    }

    /// True when the background checkpoint daemon is running.
    pub fn checkpoint_daemon_running(&self) -> bool {
        self.checkpoint.lock().is_some()
    }

    /// Stop the checkpoint daemon.  With `drain`, the daemon runs one final
    /// checkpoint before exiting (clean shutdown); without, it exits
    /// immediately — the crash tests use this to model a killed process
    /// with a checkpoint still in flight.
    pub fn stop_checkpoint_daemon(&self, drain: bool) {
        let daemon = self.checkpoint.lock().take();
        if let Some(mut daemon) = daemon {
            {
                let (state, cv) = &*daemon.shared;
                let mut guard = state.lock();
                guard.stop = true;
                guard.drain = drain;
                cv.notify_one();
            }
            if let Some(handle) = daemon.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// Tell the checkpoint daemon a commit happened (cheap flag + notify;
    /// no-op when the daemon is not running).
    pub(crate) fn notify_checkpoint(&self) {
        if let Some(daemon) = &*self.checkpoint.lock() {
            let (state, cv) = &*daemon.shared;
            state.lock().dirty = true;
            cv.notify_one();
        }
    }

    /// Consume the file system, returning the device (after draining the
    /// checkpoint daemon and a final sync).
    pub fn unmount(self) -> FsResult<D> {
        self.stop_checkpoint_daemon(true);
        self.sync()?;
        let dev = Arc::try_unwrap(self.dev)
            .map_err(|_| FsError::Corrupt("device still shared at unmount".into()))?;
        Ok(dev.into_inner())
    }

    // ------------------------------------------------------------------
    // Raw block interface for the StegFS layer
    // ------------------------------------------------------------------

    /// Allocate one free data-region block chosen uniformly at random and
    /// mark it in the bitmap, without recording it in any inode.  This is the
    /// primitive hidden files are built from.
    ///
    /// The hot path of hidden writes: the placement randomness is drawn
    /// under the (tiny) allocator meta lock, then the claim itself runs
    /// against the bitmap's segment locks — concurrent hidden writers
    /// placing blocks in different segments proceed fully in parallel.
    pub fn allocate_random_block(&self) -> FsResult<u64> {
        let _s = span::span(span::Phase::AllocClaim);
        let draw = self.alloc.lock().draw_probes();
        self.bitmap
            .claim_random(
                &draw.probes,
                draw.origin,
                self.sb.data_start,
                self.sb.total_blocks,
            )
            .ok_or(FsError::NoSpace)
    }

    /// Atomically check-and-allocate a specific data-region block.  Returns
    /// `Ok(false)` when the block is already taken, which is how concurrent hidden-object creators resolve losing the race
    /// for a header slot: they simply probe on.  Touches only the block's
    /// bitmap segment, never the allocator meta lock.
    pub fn try_allocate_specific_block(&self, block: u64) -> FsResult<bool> {
        if !self.sb.in_data_region(block) {
            return Err(FsError::Corrupt(format!(
                "block {block} outside the data region"
            )));
        }
        let _s = span::span(span::Phase::AllocClaim);
        self.bitmap.try_allocate(block)
    }

    /// Release a block that was allocated through the raw interface.
    pub fn free_raw_block(&self, block: u64) -> FsResult<()> {
        if !self.sb.in_data_region(block) {
            return Err(FsError::Corrupt(format!(
                "block {block} outside the data region"
            )));
        }
        self.bitmap.free(block)
    }

    /// Read a raw block (any region).
    pub fn read_raw_block(&self, block: u64) -> FsResult<Vec<u8>> {
        let mut buf = vec![0u8; self.block_size()];
        self.dev.read_block(block, &mut buf)?;
        Ok(buf)
    }

    /// Read a whole extent list in **one batched device submission**,
    /// returning the concatenated block contents in `blocks` order.  This is
    /// the raw primitive the hidden-object layer reads its extents through.
    pub fn read_raw_blocks(&self, blocks: &[u64]) -> FsResult<Vec<u8>> {
        let mut buf = vec![0u8; blocks.len() * self.block_size()];
        self.read_raw_blocks_into(blocks, &mut buf)?;
        Ok(buf)
    }

    /// As [`Self::read_raw_blocks`], but into a caller-supplied buffer of
    /// exactly `blocks.len() * block_size` bytes — the allocation-free
    /// variant the hidden layer's pooled scratch buffers use.
    pub fn read_raw_blocks_into(&self, blocks: &[u64], buf: &mut [u8]) -> FsResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        self.dev.read_blocks(blocks, buf)?;
        Ok(())
    }

    /// Every block referenced by the central directory (inode-table metadata
    /// is not included) — file data blocks, directory data blocks, and
    /// indirect-pointer blocks — with the inode naming it, once per naming.
    /// A block with more than one entry is owned twice, which the
    /// block-owner map reports; the map's length counts distinct blocks.
    pub fn plain_object_blocks(&self) -> FsResult<BTreeMap<u64, Vec<InodeId>>> {
        // The namespace read guard pins the *set* of allocated inodes
        // (create/delete need it exclusively); each inode's stripe then pins
        // its *block map*, so a concurrent content rewrite cannot free a
        // pointer block out from under the walk.  Lock order namespace <
        // stripe matches delete.
        let _ns = self.namespace.read();
        let mut all: BTreeMap<u64, Vec<InodeId>> = BTreeMap::new();
        let inodes = self.scan_allocated_inodes()?;
        for (id, _) in inodes {
            let _stripe = self.stripe(id).lock();
            // Re-read under the stripe: the scanned copy may predate a
            // rewrite that had not yet published its new block map.
            let inode = self.read_inode(id)?;
            if inode.kind == FileKind::Free {
                continue;
            }
            let (data, meta) = self.collect_blocks(&inode)?;
            for b in data.into_iter().chain(meta) {
                all.entry(b).or_default().push(id);
            }
        }
        Ok(all)
    }

    // ------------------------------------------------------------------
    // Device / inode-table plumbing (the device locks internally; callers
    // hold whatever namespace or stripe guard the operation requires)
    // ------------------------------------------------------------------

    fn read_inode(&self, id: InodeId) -> FsResult<Inode> {
        self.inodes.read(&*self.dev, id)
    }

    fn write_inode(&self, id: InodeId, inode: &Inode) -> FsResult<()> {
        let table_block = id / self.sb.inodes_per_block();
        let _tb = self.itable_stripes[(table_block as usize) % STRIPE_COUNT].lock();
        self.inodes.write(&*self.dev, id, inode)
    }

    fn find_free_inode(&self) -> FsResult<Option<InodeId>> {
        self.inodes.find_free(&*self.dev)
    }

    fn scan_allocated_inodes(&self) -> FsResult<Vec<(InodeId, Inode)>> {
        self.inodes.scan_allocated(&*self.dev)
    }

    fn stripe(&self, id: InodeId) -> &Mutex<()> {
        &self.stripes[(id as usize) % STRIPE_COUNT]
    }

    // ------------------------------------------------------------------
    // Path-based operations
    // ------------------------------------------------------------------

    /// Walk `path` from the root.  Caller holds the namespace lock.
    fn resolve(&self, path: &str) -> FsResult<(InodeId, Inode)> {
        let comps = split_path(path)?;
        let mut id = self.sb.root_inode;
        let mut inode = self.read_inode(id)?;
        for comp in comps {
            if inode.kind != FileKind::Directory {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            let entries = self.read_dir_inode(&inode)?;
            match entries.iter().find(|e| e.name == comp) {
                Some(entry) => {
                    id = entry.inode;
                    inode = self.read_inode(id)?;
                }
                None => return Err(FsError::NotFound(path.to_string())),
            }
        }
        Ok((id, inode))
    }

    /// Resolve the parent directory of `path`.  Caller holds the namespace
    /// lock.
    fn resolve_parent(&self, path: &str) -> FsResult<(InodeId, Inode, String)> {
        let (parent_comps, name) = split_parent(path)?;
        let parent_path = if parent_comps.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", parent_comps.join("/"))
        };
        let (pid, pinode) = self.resolve(&parent_path)?;
        if pinode.kind != FileKind::Directory {
            return Err(FsError::NotADirectory(parent_path));
        }
        Ok((pid, pinode, name.to_string()))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> FsResult<bool> {
        let _ns = self.namespace.read();
        match self.resolve(path) {
            Ok(_) => Ok(true),
            Err(e) if e.is_not_found() => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Kind and size of the object at `path`.
    pub fn stat(&self, path: &str) -> FsResult<(FileKind, u64)> {
        let _ns = self.namespace.read();
        let (_, inode) = self.resolve(path)?;
        Ok((inode.kind, inode.size))
    }

    /// List the entries of the directory at `path`.
    pub fn list_dir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let _ns = self.namespace.read();
        let (_, inode) = self.resolve(path)?;
        if inode.kind != FileKind::Directory {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        self.read_dir_inode(&inode)
    }

    /// Create an empty directory at `path`.
    pub fn create_dir(&self, path: &str) -> FsResult<InodeId> {
        self.create_object(path, FileKind::Directory, None)
    }

    /// Create an empty regular file at `path`.
    pub fn create_file(&self, path: &str) -> FsResult<InodeId> {
        self.create_object(path, FileKind::File, None)
    }

    /// Create `path` as an object of `kind`, holding `contents` when given.
    fn create_object(
        &self,
        path: &str,
        kind: FileKind,
        contents: Option<&[u8]>,
    ) -> FsResult<InodeId> {
        let _ns = self.namespace.write();
        let (pid, pinode, name) = self.resolve_parent(path)?;
        let entries = self.read_dir_inode(&pinode)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let id = self.find_free_inode()?.ok_or(FsError::NoSpace)?;
        // One transaction covers the new inode, the parent-directory update
        // and the contents, so a crash can never publish a directory entry
        // whose inode slot is still free (or vice versa — an orphan inode
        // slot is the worst a torn create can leak, and only on unjournaled
        // volumes).
        let mut txn = self.begin_txn();
        txn.set_inode(id, &Inode::empty(kind))?;

        let mut entries = entries;
        entries.push(DirEntry {
            name,
            inode: id,
            kind,
        });
        self.write_dir_inode(&mut txn, pid, &entries)?;
        let _stripe = contents.is_some().then(|| self.stripe(id).lock());
        if let Some(data) = contents {
            self.write_inode_contents(&mut txn, id, data)?;
        }
        txn.commit()?;
        Ok(id)
    }

    /// Resolve the regular file at `path`, then run `f` holding *both* the
    /// namespace read guard and the inode's stripe.  Keeping the namespace
    /// guard across the stripe acquisition pins the path→inode binding:
    /// delete (and create, which can recycle a freed inode id for another
    /// path) needs the namespace lock exclusively, so the operation can
    /// never land on an unrelated file that inherited the id.  Acquiring a
    /// stripe while holding the namespace guard matches delete's order
    /// (`namespace < stripe`), so no cycle arises.
    fn with_file_at_path<R>(
        &self,
        path: &str,
        f: impl FnOnce(InodeId, &Inode) -> FsResult<R>,
    ) -> FsResult<R> {
        let _ns = self.namespace.read();
        let (id, inode) = self.resolve(path)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        let _stripe = self.stripe(id).lock();
        f(id, &inode)
    }

    /// Write `data` as the complete contents of the file at `path`, creating
    /// the file if it does not exist and truncating it if it does.  Either
    /// way it is one transaction.  Loops because a concurrent creator may
    /// win the create race, in which case the fresh `AlreadyExists` simply
    /// means the file is now resolvable.
    pub fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        loop {
            match self.with_file_at_path(path, |id, _| {
                let mut txn = self.begin_txn();
                self.write_inode_contents(&mut txn, id, data)?;
                txn.commit()
            }) {
                Err(e) if e.is_not_found() => {}
                other => return other,
            }
            match self.create_object(path, FileKind::File, Some(data)) {
                Ok(_) => return Ok(()),
                Err(FsError::AlreadyExists(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Read the complete contents of the file at `path`.
    pub fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        self.with_file_at_path(path, |_, inode| self.read_inode_contents(inode))
    }

    /// Read `len` bytes starting at `offset` from the file at `path`.
    /// Reading past the end returns the available prefix.
    pub fn read_file_range(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.with_file_at_path(path, |_, inode| self.read_range_of(inode, offset, len))
    }

    /// Overwrite part of an existing file in place.  The range
    /// `[offset, offset + data.len())` must lie within the file's current
    /// size; in-place updates never move or reallocate blocks, which is what
    /// the block-interleaved multi-user experiments rely on.
    pub fn write_file_range(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.with_file_at_path(path, |_, inode| {
            let mut txn = self.begin_txn();
            self.write_range_of(&mut txn, inode, offset, data)?;
            txn.commit()
        })
    }

    // ------------------------------------------------------------------
    // Inode-handle operations
    //
    // A path re-resolves on every call, so an open file tracked by path
    // silently retargets when something renames or replaces it.  Layers that
    // hold files open across operations (the VFS open-file table) pin the
    // inode id instead: it survives renames and goes cleanly stale (the slot
    // reads as `Free`) on delete.
    // ------------------------------------------------------------------

    /// Resolve the regular file at `path` to its inode id.
    pub fn resolve_file(&self, path: &str) -> FsResult<InodeId> {
        let _ns = self.namespace.read();
        let (id, inode) = self.resolve(path)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        Ok(id)
    }

    fn load_file_inode(&self, id: InodeId) -> FsResult<Inode> {
        let inode = self.read_inode(id)?;
        match inode.kind {
            FileKind::File => Ok(inode),
            FileKind::Directory => Err(FsError::IsADirectory(format!("inode {id}"))),
            // A freed slot means the file was deleted out from under the
            // handle; report the ordinary not-found.
            FileKind::Free => Err(FsError::NotFound(format!("inode {id}"))),
        }
    }

    /// Size in bytes of the regular file behind `id`.
    pub fn inode_file_size(&self, id: InodeId) -> FsResult<u64> {
        Ok(self.load_file_inode(id)?.size)
    }

    /// Read `len` bytes at `offset` from the regular file behind `id`.
    pub fn read_inode_range(&self, id: InodeId, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let _stripe = self.stripe(id).lock();
        let inode = self.load_file_inode(id)?;
        self.read_range_of(&inode, offset, len)
    }

    /// Overwrite part of the regular file behind `id` in place (the range
    /// must lie within the current size).
    pub fn write_inode_range(&self, id: InodeId, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let _stripe = self.stripe(id).lock();
        let inode = self.load_file_inode(id)?;
        let mut txn = self.begin_txn();
        self.write_range_of(&mut txn, &inode, offset, data)?;
        txn.commit()
    }

    /// Replace the whole contents of the regular file behind `id`.
    pub fn write_inode_file(&self, id: InodeId, data: &[u8]) -> FsResult<()> {
        let _stripe = self.stripe(id).lock();
        self.load_file_inode(id)?;
        let mut txn = self.begin_txn();
        self.write_inode_contents(&mut txn, id, data)?;
        txn.commit()
    }

    fn read_range_of(&self, inode: &Inode, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        if len == 0 || offset >= inode.size {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(inode.size);
        let bs = self.block_size() as u64;
        let first_block = (offset / bs) as usize;
        let last_block = ((end - 1) / bs) as usize;
        let blocks = self.collect_blocks(inode)?.0;
        let span = blocks
            .get(first_block..=last_block)
            .ok_or_else(|| FsError::Corrupt("file shorter than its size field".into()))?;
        // The whole extent goes down as one batched submission, and the
        // buffer it fills is the one returned, cut to the range in place.
        let mut raw = self.read_raw_blocks(span)?;
        let from = (offset - first_block as u64 * bs) as usize;
        let to = (end - first_block as u64 * bs) as usize;
        raw.truncate(to);
        raw.drain(..from);
        Ok(raw)
    }

    fn write_range_of(
        &self,
        txn: &mut FsTxn<'_, D>,
        inode: &Inode,
        offset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= inode.size)
            .ok_or(FsError::FileTooLarge {
                requested: offset.saturating_add(data.len() as u64),
                maximum: inode.size,
            })?;
        let bs = self.block_size() as u64;
        let (blocks, _) = self.collect_blocks(inode)?;
        let first = (offset / bs) as usize;
        let last = ((end - 1) / bs) as usize;
        let span = blocks
            .get(first..=last)
            .ok_or_else(|| FsError::Corrupt("file shorter than its size field".into()))?;
        let span_start = first as u64 * bs;
        let bs = bs as usize;

        // Read-modify-write at batch granularity: only a partial head or
        // tail block needs its old contents (see [`crate::rmw`]), and those
        // edge reads share one submission; the patched span then goes down
        // as one submission (or stages into the journal transaction — an
        // in-place patch of live data is exactly the write a crash must not
        // tear).
        let plan = crate::rmw::plan(span, offset, end, span_start, bs);
        let edge_data = txn.read_raw_blocks(&plan.edges)?;
        let mut buf = vec![0u8; span.len() * bs];
        plan.seed_edges(&edge_data, &mut buf, bs);
        let from = (offset - span_start) as usize;
        buf[from..from + data.len()].copy_from_slice(data);
        txn.write_raw_blocks(span, &buf)
    }

    /// Rename (or move) the object at `from` to `to`, both within the plain
    /// namespace.  The destination must not already exist; a directory cannot
    /// be moved into its own subtree.  Only directory entries change — the
    /// inode and all data blocks stay where they are.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let _ns = self.namespace.write();
        let (id, inode) = self.resolve(from)?;
        if id == self.sb.root_inode {
            return Err(FsError::InvalidPath("cannot rename the root".into()));
        }
        match self.resolve(to) {
            Ok(_) => return Err(FsError::AlreadyExists(to.to_string())),
            Err(e) if e.is_not_found() => {}
            Err(e) => return Err(e),
        }
        let from_prefix = format!("{}/", from.trim_end_matches('/'));
        if inode.kind == FileKind::Directory && to.starts_with(&from_prefix) {
            return Err(FsError::InvalidPath(format!(
                "cannot move {from} into its own subtree"
            )));
        }
        let (new_pid, _, new_name) = self.resolve_parent(to)?;
        let (old_pid, old_pinode, old_name) = self.resolve_parent(from)?;

        if old_pid == new_pid {
            let mut entries = self.read_dir_inode(&old_pinode)?;
            let entry = entries
                .iter_mut()
                .find(|e| e.name == old_name)
                .ok_or_else(|| FsError::NotFound(from.to_string()))?;
            entry.name = new_name;
            let mut txn = self.begin_txn();
            self.write_dir_inode(&mut txn, old_pid, &entries)?;
            return txn.commit();
        }

        // Both directory updates share one transaction, so on a journaled
        // volume a crash can never leave the object linked twice or not at
        // all.  Unjournaled, link into the new parent first: a failure (e.g.
        // NoSpace while growing the directory) then leaves the object
        // reachable at its old path.
        let mut txn = self.begin_txn();
        let new_pinode = self.read_inode(new_pid)?;
        let mut new_entries = self.read_dir_inode(&new_pinode)?;
        new_entries.push(DirEntry {
            name: new_name,
            inode: id,
            kind: inode.kind,
        });
        self.write_dir_inode(&mut txn, new_pid, &new_entries)?;

        let mut old_entries = self.read_dir_inode(&old_pinode)?;
        old_entries.retain(|e| e.name != old_name);
        self.write_dir_inode(&mut txn, old_pid, &old_entries)?;
        txn.commit()
    }

    /// Delete the file or (empty) directory at `path`.
    pub fn delete(&self, path: &str) -> FsResult<()> {
        let _ns = self.namespace.write();
        let (id, inode) = self.resolve(path)?;
        if id == self.sb.root_inode {
            return Err(FsError::InvalidPath("cannot delete the root".into()));
        }
        if inode.kind == FileKind::Directory && !self.read_dir_inode(&inode)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty(path.to_string()));
        }
        // Take the victim's stripe so an in-flight content operation on this
        // inode finishes before its blocks are freed (namespace writers may
        // take stripes; content ops never take the namespace lock, so the
        // order is acyclic).
        let _stripe = self.stripe(id).lock();
        // One transaction: the frees, the inode clear and the parent update
        // commit together (on a journaled volume the frees defer to commit,
        // so a crash mid-delete leaves the object whole).
        let mut txn = self.begin_txn();
        let (data, meta) = self.collect_blocks(&inode)?;
        for b in data.into_iter().chain(meta) {
            txn.free_block(b)?;
        }
        // Clear the inode and the parent entry.
        txn.set_inode(id, &Inode::empty(FileKind::Free))?;
        let (pid, pinode, name) = self.resolve_parent(path)?;
        let mut entries = self.read_dir_inode(&pinode)?;
        entries.retain(|e| e.name != name);
        self.write_dir_inode(&mut txn, pid, &entries)?;
        txn.commit()
    }

    /// Total bytes stored in plain files (not directories), used by the
    /// space-utilization experiments.
    pub fn total_plain_file_bytes(&self) -> FsResult<u64> {
        let _ns = self.namespace.read();
        let inodes = self.scan_allocated_inodes()?;
        Ok(inodes
            .iter()
            .filter(|(_, i)| i.kind == FileKind::File)
            .map(|(_, i)| i.size)
            .sum())
    }

    // ------------------------------------------------------------------
    // Inode-level plumbing
    // ------------------------------------------------------------------

    fn read_dir_inode(&self, inode: &Inode) -> FsResult<Vec<DirEntry>> {
        let raw = self.read_inode_contents(inode)?;
        decode_entries(&raw)
    }

    fn write_dir_inode(
        &self,
        txn: &mut FsTxn<'_, D>,
        id: InodeId,
        entries: &[DirEntry],
    ) -> FsResult<()> {
        self.write_inode_contents(txn, id, &encode_entries(entries))
    }

    /// Read a file's full contents: one chain walk for the block map, then
    /// one batched submission for every data block.
    fn read_inode_contents(&self, inode: &Inode) -> FsResult<Vec<u8>> {
        let (blocks, _) = self.collect_blocks(inode)?;
        let mut out = self.read_raw_blocks(&blocks)?;
        out.truncate(inode.size as usize);
        Ok(out)
    }

    /// Replace a file's contents: free old blocks, allocate new ones with the
    /// current policy, write the data, and rebuild the block map — all within
    /// the caller's transaction.
    ///
    /// Callers serialise per inode: path and handle writers hold the inode's
    /// stripe; directory writers hold the namespace lock exclusively.
    fn write_inode_contents(
        &self,
        txn: &mut FsTxn<'_, D>,
        id: InodeId,
        data: &[u8],
    ) -> FsResult<()> {
        let bs = self.block_size();
        let max = Inode::max_file_size(bs);
        if data.len() as u64 > max {
            return Err(FsError::FileTooLarge {
                requested: data.len() as u64,
                maximum: max,
            });
        }
        let old = txn.read_inode(id)?;
        if old.kind == FileKind::Free {
            return Err(FsError::NotFound(format!("inode {id}")));
        }
        let kind = old.kind;
        let (old_data, old_meta) = self.collect_blocks(&old)?;
        let count = (data.len() as u64).div_ceil(bs as u64);

        let blocks = if txn.journaled() {
            // Journaled: the old blocks stay allocated until the commit that
            // stops referencing them is durable, so the new blocks claim
            // disjoint space first and the frees defer (a rewrite briefly
            // needs both footprints — the price of never freeing blocks a
            // crash-surviving inode still points at).
            let blocks = txn.allocate_file_blocks(count)?;
            for b in old_data.into_iter().chain(old_meta) {
                txn.free_block(b)?;
            }
            blocks
        } else {
            // Write-through: free the old blocks first, then claim the new
            // set.  The inode's stripe already serialises rewrites of this
            // file, so the only interleaving a concurrent writer can see is
            // claiming a just-freed block — which is fine, it is free.
            // Freeing first keeps the old behaviour that rewriting a large
            // file does not need twice its footprint.
            for b in old_data.into_iter().chain(old_meta) {
                self.bitmap.free(b)?;
            }
            self.alloc.lock().allocate_file(&self.bitmap, count)?
        };
        // All data blocks go down in one batched submission (the zero tail
        // pads the final block).
        let mut padded = vec![0u8; blocks.len() * bs];
        padded[..data.len()].copy_from_slice(data);
        txn.write_raw_blocks(&blocks, &padded)?;

        let mut inode = Inode::empty(kind);
        inode.size = data.len() as u64;
        self.build_block_map(txn, &mut inode, &blocks)?;
        txn.set_inode(id, &inode)?;
        Ok(())
    }

    fn alloc_one(&self) -> FsResult<u64> {
        self.alloc.lock().allocate_one(&self.bitmap)
    }

    /// Build the direct/indirect block map of `inode` for the given data
    /// blocks, allocating pointer blocks as needed.
    fn build_block_map(
        &self,
        txn: &mut FsTxn<'_, D>,
        inode: &mut Inode,
        blocks: &[u64],
    ) -> FsResult<()> {
        let bs = self.block_size();
        let ptrs_per_block = bs / 8;

        for (i, &b) in blocks.iter().take(DIRECT_POINTERS).enumerate() {
            inode.direct[i] = b;
        }
        if blocks.len() <= DIRECT_POINTERS {
            return Ok(());
        }

        let rest = &blocks[DIRECT_POINTERS..];
        let (single, double_rest) = rest.split_at(rest.len().min(ptrs_per_block));

        // Single indirect block.
        let ind_block = txn.allocate_one()?;
        self.write_pointer_block(txn, ind_block, single)?;
        inode.indirect = ind_block;

        if double_rest.is_empty() {
            return Ok(());
        }

        // Double indirect: a block of pointers to pointer blocks.
        let mut level1 = Vec::new();
        for chunk in double_rest.chunks(ptrs_per_block) {
            let leaf = txn.allocate_one()?;
            self.write_pointer_block(txn, leaf, chunk)?;
            level1.push(leaf);
        }
        if level1.len() > ptrs_per_block {
            return Err(FsError::FileTooLarge {
                requested: blocks.len() as u64 * bs as u64,
                maximum: Inode::max_file_size(bs),
            });
        }
        let dbl = txn.allocate_one()?;
        self.write_pointer_block(txn, dbl, &level1)?;
        inode.double_indirect = dbl;
        Ok(())
    }

    fn write_pointer_block(
        &self,
        txn: &mut FsTxn<'_, D>,
        block: u64,
        pointers: &[u64],
    ) -> FsResult<()> {
        let bs = self.block_size();
        let mut buf = vec![0xffu8; bs]; // NO_BLOCK everywhere by default
        for (i, &p) in pointers.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&p.to_be_bytes());
        }
        txn.write_raw_block(block, &buf)
    }

    fn read_pointer_block(&self, block: u64) -> FsResult<Vec<u64>> {
        let buf = self.read_raw_block(block)?;
        Ok(buf
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
            .take_while(|&p| p != NO_BLOCK)
            .collect())
    }

    /// Collect `(data blocks in logical order, metadata pointer blocks)`.
    fn collect_blocks(&self, inode: &Inode) -> FsResult<(Vec<u64>, Vec<u64>)> {
        let bs = self.block_size() as u64;
        let expected = inode.size.div_ceil(bs) as usize;
        let mut data = Vec::with_capacity(expected);
        let mut meta = Vec::new();

        for &b in inode.direct.iter() {
            if b == NO_BLOCK || data.len() >= expected {
                break;
            }
            data.push(b);
        }
        if inode.indirect != NO_BLOCK {
            meta.push(inode.indirect);
            for p in self.read_pointer_block(inode.indirect)? {
                if data.len() >= expected {
                    break;
                }
                data.push(p);
            }
        }
        if inode.double_indirect != NO_BLOCK {
            meta.push(inode.double_indirect);
            let level1 = self.read_pointer_block(inode.double_indirect)?;
            for leaf in level1 {
                meta.push(leaf);
                for p in self.read_pointer_block(leaf)? {
                    if data.len() >= expected {
                        break;
                    }
                    data.push(p);
                }
            }
        }
        Ok((data, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemBlockDevice;

    fn new_fs(blocks: u64) -> PlainFs<MemBlockDevice> {
        PlainFs::format(MemBlockDevice::new(1024, blocks), FormatOptions::default()).unwrap()
    }

    #[test]
    fn format_and_mount_roundtrip() {
        let fs = new_fs(4096);
        let sb = fs.superblock().clone();
        let dev = fs.unmount().unwrap();
        let fs2 = PlainFs::mount(dev, AllocPolicy::FirstFit, 1).unwrap();
        assert_eq!(fs2.superblock(), &sb);
        assert!(fs2.list_dir("/").unwrap().is_empty());
    }

    /// Formats v3 and v4 changed only bytes inside ciphertext (v3 the
    /// checks, v4 the CTR nonce), so a v2 or v3 volume's coded objects and
    /// journal slots would not decrypt or check: each is refused at mount,
    /// with the error every other version gets.
    #[test]
    fn mount_refuses_a_v2_superblock() {
        for version in [2u32, 3] {
            let dev = new_fs(4096).unmount().unwrap();
            let mut sb = dev.read_block_vec(0).unwrap();
            sb[8..12].copy_from_slice(&version.to_be_bytes());
            dev.write_block(0, &sb).unwrap();
            let err = PlainFs::mount(dev, AllocPolicy::FirstFit, 1)
                .err()
                .expect("refused");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported on-disk version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn mount_rejects_unformatted_volume() {
        let dev = MemBlockDevice::new(1024, 256);
        assert!(PlainFs::mount(dev, AllocPolicy::FirstFit, 0).is_err());
    }

    #[test]
    fn small_file_roundtrip() {
        let fs = new_fs(4096);
        fs.write_file("/hello.txt", b"hello, stegfs").unwrap();
        assert_eq!(fs.read_file("/hello.txt").unwrap(), b"hello, stegfs");
        let (kind, size) = fs.stat("/hello.txt").unwrap();
        assert_eq!(kind, FileKind::File);
        assert_eq!(size, 13);
    }

    #[test]
    fn empty_file_roundtrip() {
        let fs = new_fs(4096);
        fs.write_file("/empty", b"").unwrap();
        assert_eq!(fs.read_file("/empty").unwrap(), Vec::<u8>::new());
        assert_eq!(fs.stat("/empty").unwrap().1, 0);
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let fs = new_fs(8192);
        // 300 KB needs 300 blocks > 12 direct + 128 indirect -> double indirect.
        let data: Vec<u8> = (0..300 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big.bin", &data).unwrap();
        assert_eq!(fs.read_file("/big.bin").unwrap(), data);
    }

    #[test]
    fn file_rewrite_truncates_and_reuses_space() {
        let fs = new_fs(4096);
        let big = vec![1u8; 100 * 1024];
        fs.write_file("/f", &big).unwrap();
        let free_after_big = fs.free_data_blocks();
        fs.write_file("/f", b"small now").unwrap();
        assert!(fs.free_data_blocks() > free_after_big);
        assert_eq!(fs.read_file("/f").unwrap(), b"small now");
    }

    #[test]
    fn read_range() {
        let fs = new_fs(4096);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        fs.write_file("/r", &data).unwrap();
        assert_eq!(fs.read_file_range("/r", 0, 10).unwrap(), &data[0..10]);
        assert_eq!(
            fs.read_file_range("/r", 1020, 10).unwrap(),
            &data[1020..1030],
            "range spanning a block boundary"
        );
        assert_eq!(fs.read_file_range("/r", 4990, 100).unwrap(), &data[4990..]);
        // Aligned whole blocks, an unaligned start, an unaligned end: the
        // read's own buffer cut to the range.
        assert_eq!(
            fs.read_file_range("/r", 1024, 2048).unwrap(),
            &data[1024..3072]
        );
        assert_eq!(fs.read_file_range("/r", 0, 4096).unwrap(), &data[..4096]);
        assert_eq!(
            fs.read_file_range("/r", 1030, 2042).unwrap(),
            &data[1030..3072]
        );
        assert_eq!(
            fs.read_file_range("/r", 2048, 1000).unwrap(),
            &data[2048..3048]
        );
        assert!(fs.read_file_range("/r", 10_000, 10).unwrap().is_empty());
        // Zero-length reads are empty, not an underflow (offset 0 included).
        assert!(fs.read_file_range("/r", 0, 0).unwrap().is_empty());
        assert!(fs.read_file_range("/r", 1024, 0).unwrap().is_empty());
    }

    #[test]
    fn directories_nest() {
        let fs = new_fs(4096);
        fs.create_dir("/docs").unwrap();
        fs.create_dir("/docs/2026").unwrap();
        fs.write_file("/docs/2026/notes.txt", b"meeting notes")
            .unwrap();
        assert_eq!(
            fs.read_file("/docs/2026/notes.txt").unwrap(),
            b"meeting notes"
        );
        let listing = fs.list_dir("/docs").unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "2026");
        assert_eq!(listing[0].kind, FileKind::Directory);
        assert_eq!(fs.list_dir("/docs/2026").unwrap()[0].name, "notes.txt");
    }

    #[test]
    fn duplicate_names_rejected() {
        let fs = new_fs(4096);
        fs.create_file("/a").unwrap();
        assert!(matches!(
            fs.create_file("/a"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.create_dir("/a"),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_paths_and_bad_types() {
        let fs = new_fs(4096);
        assert!(matches!(fs.read_file("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(
            fs.create_file("/nodir/file"),
            Err(FsError::NotFound(_))
        ));
        fs.write_file("/plain", b"x").unwrap();
        assert!(matches!(
            fs.create_file("/plain/child"),
            Err(FsError::NotADirectory(_))
        ));
        fs.create_dir("/d").unwrap();
        assert!(matches!(fs.read_file("/d"), Err(FsError::IsADirectory(_))));
        assert!(matches!(
            fs.list_dir("/plain"),
            Err(FsError::NotADirectory(_))
        ));
        assert!(!fs.exists("/ghost").unwrap());
        assert!(fs.exists("/plain").unwrap());
    }

    #[test]
    fn delete_frees_blocks_and_entries() {
        let fs = new_fs(4096);
        let before = fs.free_data_blocks();
        fs.write_file("/victim", &vec![9u8; 50 * 1024]).unwrap();
        assert!(fs.free_data_blocks() < before);
        fs.delete("/victim").unwrap();
        assert_eq!(fs.free_data_blocks(), before);
        assert!(!fs.exists("/victim").unwrap());
    }

    #[test]
    fn delete_nonempty_dir_rejected_then_allowed_when_empty() {
        let fs = new_fs(4096);
        fs.create_dir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert!(matches!(
            fs.delete("/d"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        fs.delete("/d/f").unwrap();
        fs.delete("/d").unwrap();
        assert!(!fs.exists("/d").unwrap());
    }

    #[test]
    fn cannot_delete_root() {
        let fs = new_fs(4096);
        assert!(fs.delete("/").is_err());
    }

    #[test]
    fn no_space_is_reported_cleanly() {
        // Tiny volume: 64 blocks of 1 KB, most of it metadata.
        let fs = new_fs(64);
        fs.create_file("/huge").unwrap();
        let free = fs.free_data_blocks();
        let too_big = vec![0u8; ((free + 10) * 1024) as usize];
        assert!(matches!(
            fs.write_file("/huge", &too_big),
            Err(FsError::NoSpace)
        ));
        // The failed write must not leak blocks permanently.
        assert_eq!(fs.free_data_blocks(), free);
    }

    #[test]
    fn file_too_large_rejected() {
        let fs = new_fs(4096);
        let max = Inode::max_file_size(1024);
        let oversized = vec![0u8; max as usize + 1024];
        assert!(matches!(
            fs.write_file("/way-too-big", &oversized),
            Err(FsError::FileTooLarge { .. })
        ));
    }

    fn new_journaled_fs(blocks: u64) -> PlainFs<stegfs_blockdev::FaultDevice<MemBlockDevice>> {
        let dev = stegfs_blockdev::FaultDevice::with_write_cache(MemBlockDevice::new(1024, blocks));
        PlainFs::format(
            dev,
            FormatOptions {
                journal_blocks: 256,
                ..FormatOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn journaled_volume_roundtrips_all_operations() {
        let fs = new_journaled_fs(4096);
        assert!(fs.journaled());
        let free0 = fs.free_data_blocks();
        fs.create_dir("/d").unwrap();
        fs.write_file("/d/f", &vec![7u8; 30 * 1024]).unwrap();
        fs.write_file("/d/f", &vec![8u8; 10 * 1024]).unwrap();
        fs.write_file_range("/d/f", 1000, &[0xaa; 2000]).unwrap();
        fs.rename("/d/f", "/d/g").unwrap();
        let mut expected = vec![8u8; 10 * 1024];
        expected[1000..3000].copy_from_slice(&[0xaa; 2000]);
        assert_eq!(fs.read_file("/d/g").unwrap(), expected);
        fs.delete("/d/g").unwrap();
        fs.delete("/d").unwrap();
        assert_eq!(fs.free_data_blocks(), free0, "journaled ops leak no blocks");

        // Remount (with replay) and keep working.
        fs.write_file("/still-here", b"after remount").unwrap();
        let dev = fs.unmount().unwrap();
        let fs2 = PlainFs::mount(dev, AllocPolicy::FirstFit, 1).unwrap();
        assert!(fs2.journaled());
        assert_eq!(fs2.read_file("/still-here").unwrap(), b"after remount");
    }

    #[test]
    fn update_larger_than_journal_ring_commits_in_chunks() {
        // Regression: an update whose write set exceeds the journal ring
        // used to fail with NoSpace; it must now commit as a sequence of
        // ring-sized transactions.
        let dev = MemBlockDevice::new(1024, 4096);
        let mut fs = PlainFs::format(
            dev,
            FormatOptions {
                journal_blocks: 16, // tiny ring: ~12 targets per transaction
                ..FormatOptions::default()
            },
        )
        .unwrap();
        assert!(fs.journaled());
        let obs = stegfs_obs::Obs::new();
        fs.attach_obs(&obs);
        // Device submissions, blocks written and flushes of one operation.
        let traffic = |op: &dyn Fn()| {
            let before = obs.snapshot().device;
            op();
            let after = obs.snapshot().device;
            (
                after.writes - before.writes,
                after.blocks_written - before.blocks_written,
                after.flushes - before.flushes,
            )
        };
        let ring_targets = fs.journal_ref().unwrap().max_tx_targets();
        let free0 = fs.free_data_blocks();

        // 100 blocks of payload — an order of magnitude over the ring.
        // Every ring-sized piece is one sealed ring submission, one group
        // flush and one home submission, and a piece that finds the ring
        // full checkpoints first (an anchor write and its flush): the
        // counts are pinned, so a change to how the pieces reach the ring
        // must leave the device traffic alone.
        let payload: Vec<u8> = (0..100 * 1024u32).map(|i| (i % 239) as u8).collect();
        assert!(100 > ring_targets, "fixture must exceed the ring");
        let written = traffic(&|| fs.write_file("/big", &payload).unwrap());
        assert_eq!(written, (27, 235, 25), "traffic of the 100-block write");
        assert_eq!(fs.read_file("/big").unwrap(), payload);

        // Rewrites (freeing the old chain) and deletes chunk too, and the
        // accounting stays exact.
        let smaller: Vec<u8> = (0..40 * 1024u32).map(|i| (i % 31) as u8).collect();
        let rewritten = traffic(&|| fs.write_file("/big", &smaller).unwrap());
        assert_eq!(rewritten, (13, 99, 12), "traffic of the 40-block rewrite");
        assert_eq!(fs.read_file("/big").unwrap(), smaller);
        fs.delete("/big").unwrap();
        assert_eq!(fs.free_data_blocks(), free0, "chunked ops leak no blocks");

        // Replay after a clean unmount finds nothing to redo.
        let dev = fs.unmount().unwrap();
        let fs2 = PlainFs::mount(dev, AllocPolicy::FirstFit, 1).unwrap();
        assert!(fs2.read_file("/big").is_err());
        assert_eq!(fs2.free_data_blocks(), free0);
    }

    #[test]
    fn attached_obs_observes_lock_and_device_activity() {
        let mut fs = new_fs(4096);
        let obs = stegfs_obs::Obs::new();
        fs.attach_obs(&obs);
        fs.write_file("/observed", &vec![3u8; 8 * 1024]).unwrap();
        fs.sync().unwrap();
        let snap = obs.snapshot();
        let alloc = snap.lock("fs.alloc").unwrap();
        assert!(alloc.acquisitions > 0, "allocator lock never counted");
        assert!(snap.device.writes > 0, "device writes never counted");
        assert!(snap.device.write_ns.count > 0);
    }

    /// Without the daemon, the watchdog hears from the steals: the
    /// occupancy each acted on and a heartbeat, not "never checkpointed".
    #[test]
    fn commit_steals_feed_the_watchdog_without_the_daemon() {
        let mut fs = PlainFs::format(
            MemBlockDevice::new(1024, 4096),
            FormatOptions {
                journal_blocks: 64,
                ..FormatOptions::default()
            },
        )
        .unwrap();
        let obs = stegfs_obs::Obs::new();
        fs.attach_obs(&obs);
        assert!(!fs.checkpoint_daemon_running());
        let fresh = obs.watchdog.summary();
        assert_eq!((fresh.checkpoints, fresh.heartbeat_age_ms), (0, 0));
        for i in 0..40 {
            fs.write_file(&format!("/f{}", i % 4), &vec![i as u8; 4 * 1024])
                .unwrap();
        }
        let watchdog = obs.watchdog.summary();
        assert!(watchdog.ring_occupancy_hwm_permille >= CHECKPOINT_STEAL_PERMILLE);
        assert!(watchdog.checkpoint_steals >= 1);
        assert!(watchdog.samples >= watchdog.checkpoint_steals);
        assert!(
            watchdog.checkpoints >= watchdog.checkpoint_steals,
            "never checkpointed"
        );
    }

    /// The meter's counting rule, on the path every volume takes: a
    /// submission that fails below the attached meter moves no counter.
    #[test]
    fn attached_meter_counts_only_successful_submissions() {
        let dev = stegfs_blockdev::FaultDevice::new(MemBlockDevice::new(1024, 4096));
        let mut fs = PlainFs::format(dev.clone(), FormatOptions::default()).unwrap();
        let obs = stegfs_obs::Obs::new();
        fs.attach_obs(&obs);
        fs.write_file("/f", &vec![3u8; 4 * 1024]).unwrap();
        let before = obs.snapshot().device;
        let (ops, injected) = (dev.ops(), dev.injected());
        dev.script_failures(1);
        assert!(fs.read_file("/f").is_err());
        assert_eq!((dev.ops() - ops, dev.injected() - injected), (1, 1));
        let after = obs.snapshot().device;
        assert_eq!(
            (after.reads, after.blocks_read, after.read_ns.count),
            (before.reads, before.blocks_read, before.read_ns.count)
        );
        fs.read_file("/f").unwrap();
        assert!(obs.snapshot().device.blocks_read > before.blocks_read);
    }

    #[test]
    fn journaled_commit_survives_crash_of_home_writes() {
        // A committed write whose in-place images were still pending when
        // the power cut must be redone by replay at mount.
        for seed in 0..8u64 {
            let dev =
                stegfs_blockdev::FaultDevice::with_write_cache(MemBlockDevice::new(1024, 2048));
            let fs = PlainFs::format(
                dev.clone(),
                FormatOptions {
                    journal_blocks: 128,
                    ..FormatOptions::default()
                },
            )
            .unwrap();
            let payload: Vec<u8> = (0..20 * 1024u32).map(|i| (i % 251) as u8).collect();
            fs.write_file("/durable", &payload).unwrap();
            drop(fs); // no unmount: the "process" dies
            dev.crash(seed);
            let fs = PlainFs::mount(dev.clone(), AllocPolicy::FirstFit, 1).unwrap();
            assert_eq!(
                fs.read_file("/durable").unwrap(),
                payload,
                "seed {seed}: committed write lost"
            );
        }
    }

    #[test]
    fn torn_uncommitted_update_vanishes_on_replay() {
        // Stop a rewrite mid-flight with the failure trip wire, crash, and
        // remount: the old contents must be intact.
        for seed in 0..8u64 {
            let dev =
                stegfs_blockdev::FaultDevice::with_write_cache(MemBlockDevice::new(1024, 2048));
            let fs = PlainFs::format(
                dev.clone(),
                FormatOptions {
                    journal_blocks: 128,
                    ..FormatOptions::default()
                },
            )
            .unwrap();
            let old: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 239) as u8).collect();
            fs.write_file("/f", &old).unwrap();
            fs.sync().unwrap();
            // Let a handful of writes through, then cut the cord mid-update.
            dev.fail_after_writes(3 + seed % 9);
            let _ = fs.write_file("/f", &vec![0x5au8; 16 * 1024]);
            drop(fs);
            dev.crash(seed);
            let fs = PlainFs::mount(dev.clone(), AllocPolicy::FirstFit, 1).unwrap();
            assert_eq!(
                fs.read_file("/f").unwrap(),
                old,
                "seed {seed}: torn rewrite corrupted the old contents"
            );
        }
    }

    #[test]
    fn reformat_never_replays_the_previous_volume() {
        // The journal salt derives deterministically from the format seed,
        // so re-formatting a reused device reproduces the old journal keys.
        // Un-checkpointed transactions from the previous life must not
        // decode — and must never replay over the fresh volume at its first
        // mount.
        let dev = stegfs_blockdev::FaultDevice::with_write_cache(MemBlockDevice::new(1024, 2048));
        let opts = || FormatOptions {
            journal_blocks: 64,
            ..FormatOptions::default()
        };
        let fs = PlainFs::format(dev.clone(), opts()).unwrap();
        fs.write_file("/old", &vec![9u8; 8 * 1024]).unwrap();
        drop(fs); // no unmount: the ring still holds the committed records

        let fs = PlainFs::format(dev.clone(), opts()).unwrap();
        drop(fs); // again no unmount: the first mount replays
        let fs = PlainFs::mount(dev.clone(), AllocPolicy::FirstFit, 1).unwrap();
        assert!(
            !fs.exists("/old").unwrap(),
            "re-format resurrected the previous volume's namespace"
        );
        fs.write_file("/new", b"fresh volume works").unwrap();
        assert_eq!(fs.read_file("/new").unwrap(), b"fresh volume works");
    }

    #[test]
    fn crash_during_chunked_rewrite_leaves_volume_consistent() {
        // An oversized rewrite streams through the ring as several pieces.
        // Power loss at any block write may leave a prefix of them applied,
        // but after replay the volume must mount with the unrelated file
        // intact and `/f` wholly old or wholly new: a whole-file rewrite
        // lands in fresh blocks, and the inode and the bitmap change only
        // in the final piece.  No block may be owned twice, and the
        // allocator must keep working.
        use std::sync::atomic::{AtomicU64, Ordering};
        use stegfs_blockdev::{Dir, FaultDevice, Trigger};
        let keep: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 251) as u8).collect();
        let (old, new) = (vec![1u8; 20 * 1024], vec![9u8; 80 * 1024]);
        let opts = FormatOptions {
            journal_blocks: 16,
            ..FormatOptions::default()
        };
        let fs = PlainFs::format(MemBlockDevice::new(1024, 1024), opts).unwrap();
        fs.write_file("/keep", &keep).unwrap();
        fs.write_file("/f", &old).unwrap();
        let image = fs.unmount().unwrap().snapshot_raw();
        let device = || {
            let mem = MemBlockDevice::new(1024, 1024);
            let all: Vec<u64> = (0..mem.total_blocks()).collect();
            mem.write_blocks(&all, &image).unwrap();
            FaultDevice::with_write_cache(mem)
        };
        let mount = |dev: &FaultDevice<MemBlockDevice>| {
            PlainFs::mount(dev.clone(), AllocPolicy::FirstFit, 1).unwrap()
        };

        // The rewrite's block writes, counted in a clean run.
        let dev = device();
        let fs = mount(&dev);
        let written = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&written);
        dev.record(Trigger::when(|op| op.dir == Dir::Write), move |op| {
            count.fetch_add(op.blocks.len() as u64, Ordering::Relaxed);
        });
        fs.write_file("/f", &new).unwrap();
        let writes = written.load(Ordering::Relaxed);
        assert!(writes > 2 * 80, "the rewrite went through the ring");

        let mut found_new = 0;
        for trip in 0..=writes {
            for seed in [trip, trip ^ 0x5eed] {
                let dev = device();
                let fs = mount(&dev);
                dev.fail_after_writes(trip);
                let _ = fs.write_file("/f", &new);
                drop(fs);
                dev.crash(seed);

                let fs = mount(&dev);
                let at = format!("trip {trip}, seed {seed}");
                assert_eq!(fs.read_file("/keep").unwrap(), keep, "{at}: /keep");
                let f = fs.read_file("/f").unwrap();
                assert!(f == old || f == new, "{at}: /f is neither old nor new");
                found_new += usize::from(f == new);
                let owners = fs.plain_object_blocks().unwrap();
                assert!(owners.values().all(|o| o.len() == 1), "{at}: two owners");
                fs.write_file("/after", &[5u8; 12 * 1024]).unwrap();
                assert_eq!(fs.read_file("/after").unwrap(), [5u8; 12 * 1024]);
            }
        }
        let runs = 2 * (writes as usize + 1);
        assert!(
            0 < found_new && found_new < runs,
            "{found_new} of {runs} new"
        );
    }

    #[test]
    fn contiguous_policy_places_file_sequentially() {
        let dev = MemBlockDevice::new(1024, 4096);
        let fs = PlainFs::format(
            dev,
            FormatOptions {
                policy: AllocPolicy::Contiguous,
                ..FormatOptions::default()
            },
        )
        .unwrap();
        fs.write_file("/seq", &vec![3u8; 64 * 1024]).unwrap();
        let (_, inode) = fs.resolve("/seq").unwrap();
        let (blocks, _) = fs.collect_blocks(&inode).unwrap();
        for w in blocks.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn random_fill_format_leaves_working_fs() {
        let dev = MemBlockDevice::new(1024, 512);
        let fs = PlainFs::format(
            dev,
            FormatOptions {
                fill_random: true,
                ..FormatOptions::default()
            },
        )
        .unwrap();
        // The data region is random, not zero.
        let sb = fs.superblock().clone();
        let probe = fs.read_raw_block(sb.data_start + 5).unwrap();
        assert!(probe.iter().any(|&b| b != 0));
        // And the file system still works.
        fs.write_file("/x", b"works").unwrap();
        assert_eq!(fs.read_file("/x").unwrap(), b"works");
    }

    #[test]
    fn raw_block_interface_respects_data_region() {
        let fs = new_fs(4096);
        let b = fs.allocate_random_block().unwrap();
        assert!(fs.superblock().in_data_region(b));
        assert!(fs.is_block_allocated(b));
        fs.device().write_block(b, &vec![0xee; 1024]).unwrap();
        assert_eq!(fs.read_raw_block(b).unwrap(), vec![0xee; 1024]);
        fs.free_raw_block(b).unwrap();
        assert!(!fs.is_block_allocated(b));
        // Metadata blocks cannot be allocated or freed through the raw API.
        assert!(fs.free_raw_block(0).is_err());
        assert!(fs.try_allocate_specific_block(0).is_err());
    }

    #[test]
    fn try_allocate_specific_block_reports_losers() {
        let fs = new_fs(4096);
        let b = fs.superblock().data_start + 17;
        assert!(fs.try_allocate_specific_block(b).unwrap());
        // Second taker loses gracefully instead of reporting corruption.
        assert!(!fs.try_allocate_specific_block(b).unwrap());
        fs.free_raw_block(b).unwrap();
        assert!(fs.try_allocate_specific_block(b).unwrap());
    }

    #[test]
    fn raw_allocations_invisible_to_central_directory() {
        let fs = new_fs(4096);
        fs.write_file("/visible", &vec![1u8; 4096]).unwrap();
        let visible = fs.plain_object_blocks().unwrap();
        let hidden = fs.allocate_random_block().unwrap();
        let after = fs.plain_object_blocks().unwrap();
        assert_eq!(
            visible, after,
            "raw allocation must not appear in the central directory"
        );
        assert!(!after.contains_key(&hidden));
        // But the bitmap knows the block is taken.
        assert!(fs.is_block_allocated(hidden));
    }

    #[test]
    fn total_plain_file_bytes_counts_files_only() {
        let fs = new_fs(4096);
        fs.create_dir("/d").unwrap();
        fs.write_file("/d/a", &vec![0u8; 1000]).unwrap();
        fs.write_file("/b", &vec![0u8; 500]).unwrap();
        assert_eq!(fs.total_plain_file_bytes().unwrap(), 1500);
    }

    #[test]
    fn write_file_range_overwrites_in_place() {
        let fs = new_fs(4096);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        fs.write_file("/f", &data).unwrap();
        let free_before = fs.free_data_blocks();

        fs.write_file_range("/f", 1000, &[0xaa; 100]).unwrap();
        let mut expected = data.clone();
        expected[1000..1100].copy_from_slice(&[0xaa; 100]);
        assert_eq!(fs.read_file("/f").unwrap(), expected);
        // Aligned whole-block overwrite.
        fs.write_file_range("/f", 1024, &[0xbb; 1024]).unwrap();
        expected[1024..2048].copy_from_slice(&[0xbb; 1024]);
        assert_eq!(fs.read_file("/f").unwrap(), expected);
        // No allocation happened.
        assert_eq!(fs.free_data_blocks(), free_before);
        // Beyond-EOF updates are rejected.
        assert!(fs.write_file_range("/f", 4999, &[0u8; 10]).is_err());
        // Empty updates are no-ops.
        fs.write_file_range("/f", 0, &[]).unwrap();
    }

    #[test]
    fn rename_within_and_across_directories() {
        let fs = new_fs(4096);
        fs.write_file("/a.txt", b"contents").unwrap();
        fs.create_dir("/dir").unwrap();

        // Same-directory rename.
        fs.rename("/a.txt", "/b.txt").unwrap();
        assert!(!fs.exists("/a.txt").unwrap());
        assert_eq!(fs.read_file("/b.txt").unwrap(), b"contents");

        // Cross-directory move.
        fs.rename("/b.txt", "/dir/c.txt").unwrap();
        assert!(!fs.exists("/b.txt").unwrap());
        assert_eq!(fs.read_file("/dir/c.txt").unwrap(), b"contents");
        assert_eq!(fs.list_dir("/dir").unwrap().len(), 1);

        // Directories move too, carrying their contents.
        fs.rename("/dir", "/renamed").unwrap();
        assert_eq!(fs.read_file("/renamed/c.txt").unwrap(), b"contents");
    }

    #[test]
    fn inode_handles_survive_rename_and_go_stale_on_delete() {
        let fs = new_fs(4096);
        fs.write_file("/a", b"pinned contents").unwrap();
        let id = fs.resolve_file("/a").unwrap();

        // The inode handle keeps working across a rename...
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.read_inode_range(id, 0, 100).unwrap(), b"pinned contents");
        fs.write_inode_range(id, 0, b"P").unwrap();
        assert_eq!(fs.read_file("/b").unwrap(), b"Pinned contents");
        fs.write_inode_file(id, b"new").unwrap();
        assert_eq!(fs.inode_file_size(id).unwrap(), 3);

        // ...and goes cleanly stale on delete.
        fs.delete("/b").unwrap();
        assert!(fs.read_inode_range(id, 0, 1).unwrap_err().is_not_found());
        assert!(fs.inode_file_size(id).unwrap_err().is_not_found());
        assert!(fs
            .write_inode_range(id, 0, b"x")
            .unwrap_err()
            .is_not_found());
        assert!(fs.write_inode_file(id, b"x").unwrap_err().is_not_found());

        // Directories are not file handles.
        fs.create_dir("/d").unwrap();
        assert!(matches!(
            fs.resolve_file("/d"),
            Err(FsError::IsADirectory(_))
        ));
    }

    #[test]
    fn rename_rejects_conflicts_and_cycles() {
        let fs = new_fs(4096);
        fs.write_file("/a", b"a").unwrap();
        fs.write_file("/b", b"b").unwrap();
        fs.create_dir("/d").unwrap();

        assert!(matches!(
            fs.rename("/a", "/b"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename("/missing", "/x"),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(
            fs.rename("/d", "/d/sub"),
            Err(FsError::InvalidPath(_))
        ));
        assert!(matches!(fs.rename("/", "/x"), Err(FsError::InvalidPath(_))));
        // Nothing was disturbed.
        assert_eq!(fs.read_file("/a").unwrap(), b"a");
        assert_eq!(fs.read_file("/b").unwrap(), b"b");
    }

    #[test]
    fn many_files_survive_remount() {
        let fs = new_fs(16384);
        for i in 0..50 {
            fs.write_file(&format!("/file-{i}"), format!("contents {i}").as_bytes())
                .unwrap();
        }
        let dev = fs.unmount().unwrap();
        let fs = PlainFs::mount(dev, AllocPolicy::FirstFit, 0).unwrap();
        for i in 0..50 {
            assert_eq!(
                fs.read_file(&format!("/file-{i}")).unwrap(),
                format!("contents {i}").as_bytes()
            );
        }
        assert_eq!(fs.list_dir("/").unwrap().len(), 50);
    }

    #[test]
    fn inodes_sharing_a_table_block_update_concurrently() {
        // Several inodes pack into one inode-table block; concurrent content
        // rewrites of *different* files must not lose each other's inode
        // updates through the table block's read-modify-write.
        use std::sync::Arc;
        let fs = Arc::new(new_fs(16384));
        let files = 8usize;
        for i in 0..files {
            fs.write_file(&format!("/tb-{i}"), &[i as u8; 100]).unwrap();
        }
        let workers: Vec<_> = (0..files)
            .map(|i| {
                let fs = Arc::clone(&fs);
                std::thread::spawn(move || {
                    for round in 1..=12usize {
                        let data = vec![i as u8; 512 * round];
                        fs.write_file(&format!("/tb-{i}"), &data).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        for i in 0..files {
            assert_eq!(
                fs.read_file(&format!("/tb-{i}")).unwrap(),
                vec![i as u8; 512 * 12],
                "file {i} lost its final rewrite"
            );
        }
    }

    #[test]
    fn shared_reference_api_works_across_threads() {
        use std::sync::Arc;
        let fs = Arc::new(new_fs(16384));
        let threads = 8usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fs = Arc::clone(&fs);
                std::thread::spawn(move || {
                    for round in 0..8 {
                        let path = format!("/t{t}-{}", round % 2);
                        let data = vec![(t * 31 + round) as u8; 3000 + round * 100];
                        fs.write_file(&path, &data).unwrap();
                        assert_eq!(fs.read_file(&path).unwrap(), data);
                    }
                    fs.delete(&format!("/t{t}-0")).unwrap();
                    fs.delete(&format!("/t{t}-1")).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(fs.list_dir("/").unwrap().is_empty());
    }
}
