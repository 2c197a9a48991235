//! The write-ahead intent journal: transactions, group commit, checkpointing
//! and crash replay.
//!
//! # Protocol
//!
//! A transaction ([`Tx`]) is a redo buffer: the file-system layers stage
//! every block image a multi-block update intends to write, then take it to
//! the ring in four calls, one transaction at a time:
//!
//! 1. [`Journal::reserve`] holds ring room for it, waiting for a full ring
//!    to settle;
//! 2. [`Reservation::stage`] turns the room into its run of ring slots and
//!    sequence numbers, without waiting;
//! 3. [`Journal::persist`] writes the sealed intent / payload / commit
//!    slots to the journal region in one submission and waits for a **group
//!    flush** — one device barrier amortized over every transaction that
//!    reached this point since the previous barrier (this is the
//!    group-commit win the engine benchmarks measure).  That flush is the
//!    commit point; only then
//! 4. [`Journal::apply`] writes the staged images to their home locations
//!    in one batched submission.
//!
//! A crash before step 3 completes leaves at most a torn slot run, which
//! replay discards — the home locations were never touched, so uncommitted
//! updates simply vanish.  A crash after step 3 may tear the home writes
//! arbitrarily; replay redoes them from the journal.  Either way the volume
//! remounts into a state where every committed update is complete and every
//! uncommitted one is absent.
//!
//! # Lock and flush ordering
//!
//! The journal has three internal locks, in the order of the table in
//! [`stegfs_obs::lock`] (with its exceptions):
//!
//! 1. the **checkpoint** mutex — held by the one checkpoint in flight,
//!    across its anchor write and flushes.  [`Journal::sync`] and a stager
//!    that finds the ring full wait for it; the commit path's pressure valve
//!    ([`Journal::try_sync`]) skips instead of queueing a second checkpoint;
//! 2. the **log state** mutex (ring head, live transaction list, sequence
//!    counter) — guards memory only: no device I/O runs under it, and it
//!    never takes the gate;
//! 3. the **commit gate** (a `Mutex` + `Condvar`) — serialises group
//!    flushes; held only around bookkeeping, never across the flush itself.
//!
//! Checkpointing never reuses a ring slot until an anchor recording a tail
//! past it has been flushed, so replay can trust that any slot at or after
//! the durable anchor tail belongs to the current log.  The checkpoint in
//! flight counts its run under the log state, drops it for the anchor write
//! and flush, and retires the run only once the anchor is durable.  Until
//! then `used` still counts the run, so no stager is handed one of its
//! slots; and only the checkpoint in flight pops the front of the live
//! list, so the run it counted is still the front when it retires.
//!
//! # A full ring
//!
//! The ring is reclaimed front first, so a stager that finds it full may
//! have to wait for the front transaction's committer to apply it.  The
//! wait holds no journal lock, and it ends in [`JournalError::Full`] only
//! when the ring can never settle: the transaction is larger than the ring,
//! or the front transaction's apply failed (it stays live for replay).  A
//! caller that must stage while holding a lock a committer needs to settle
//! — the file system's bitmap segment locks — takes a [`Reservation`]
//! before that lock and stages into it without waiting.

use crate::record::{
    encode_slot, intent_capacity, open_slot, seal_slot, slots_for, JournalKeys, Slot, SlotBody,
    SlotKind, ANCHOR_SLOTS,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stegfs_blockdev::{BlockDevice, BlockError};
use stegfs_obs::lock::{Condvar, Mutex, MutexGuard};
use stegfs_obs::{blocking, span, GateStats, Obs};

/// Result alias for journal operations.
pub type JournalResult<T> = Result<T, JournalError>;

/// Errors reported by the journal.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying device failed.
    Device(BlockError),
    /// A transaction needs more ring slots than the journal has (or than are
    /// currently reclaimable).  The journal must be sized larger than the
    /// largest single multi-block update it will carry.
    Full {
        /// Slots the transaction needs.
        needed: u64,
        /// Ring slots the journal has in total.
        capacity: u64,
    },
    /// The journal region described by the superblock is unusable.
    Geometry(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Device(e) => write!(f, "journal device error: {e}"),
            JournalError::Full { needed, capacity } => write!(
                f,
                "transaction needs {needed} journal slots but the ring holds {capacity}"
            ),
            JournalError::Geometry(msg) => write!(f, "bad journal geometry: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<BlockError> for JournalError {
    fn from(e: BlockError) -> Self {
        JournalError::Device(e)
    }
}

/// Placement of the journal region on the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalGeometry {
    /// First block of the journal region.
    pub start: u64,
    /// Total blocks in the region (anchors + ring).
    pub blocks: u64,
    /// Device block size in bytes.
    pub block_size: usize,
}

impl JournalGeometry {
    fn ring_slots(&self) -> u64 {
        self.blocks.saturating_sub(ANCHOR_SLOTS)
    }

    fn ring_block(&self, slot: u64) -> u64 {
        self.start + ANCHOR_SLOTS + (slot % self.ring_slots())
    }
}

/// A redo buffer: the staged block images of one multi-block update, held
/// as the parallel arrays [`BlockDevice::write_blocks`] takes — the target
/// blocks in staging order and their images back to back.  Replay hands a
/// committed transaction back in the same shape.
///
/// Writes deduplicate by block (last wins), so an update that touches the
/// same block twice journals and applies one image.
#[derive(Default)]
pub struct Tx {
    targets: Vec<u64>,
    images: Vec<u8>,
    index: HashMap<u64, usize>,
}

impl Tx {
    /// Create an empty transaction.
    pub fn new() -> Self {
        Tx::default()
    }

    /// A transaction of the distinct blocks `targets` and their `images`.
    fn from_parts(targets: Vec<u64>, images: Vec<u8>) -> Self {
        let index = targets.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        Tx {
            targets,
            images,
            index,
        }
    }

    /// Stage `data` as the new image of `block`.
    ///
    /// # Panics
    /// Panics if `data` is not as long as the images staged before it: the
    /// images of one transaction are blocks of one device.
    pub fn write(&mut self, block: u64, data: &[u8]) {
        let bs = data.len();
        assert_eq!(
            self.images.len(),
            self.targets.len() * bs,
            "staged images of unequal length"
        );
        match self.index.get(&block) {
            Some(&i) => self.images[i * bs..(i + 1) * bs].copy_from_slice(data),
            None => {
                self.index.insert(block, self.targets.len());
                self.targets.push(block);
                self.images.extend_from_slice(data);
            }
        }
    }

    /// The staged image of `block`, if any (read-your-writes overlay).
    pub fn read(&self, block: u64) -> Option<&[u8]> {
        let bs = self.block_size();
        self.index
            .get(&block)
            .map(|&i| &self.images[i * bs..(i + 1) * bs])
    }

    /// Number of distinct blocks staged.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Split off the writes staged from position `at` on into a
    /// transaction of their own; both keep staging order.  This is how an
    /// update larger than the ring is cut into ring-sized pieces.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Tx {
        let bs = self.block_size();
        let tail = Tx::from_parts(self.targets.split_off(at), self.images.split_off(at * bs));
        for block in &tail.targets {
            self.index.remove(block);
        }
        tail
    }

    /// Move the writes of the blocks `pick` selects into a transaction of
    /// their own; both keep staging order.  When `pick` selects none,
    /// nothing is copied.
    pub fn extract(&mut self, mut pick: impl FnMut(u64) -> bool) -> Tx {
        if !self.targets.iter().any(|&block| pick(block)) {
            return Tx::new();
        }
        let bs = self.block_size();
        let (mut kept, mut taken) = (Tx::new(), Tx::new());
        for (i, &block) in self.targets.iter().enumerate() {
            let into = if pick(block) { &mut taken } else { &mut kept };
            into.write(block, &self.images[i * bs..(i + 1) * bs]);
        }
        *self = kept;
        taken
    }

    /// Stage every write of `other` after this transaction's own.
    pub fn append(&mut self, other: Tx) {
        let bs = other.block_size();
        for (i, &block) in other.targets.iter().enumerate() {
            self.write(block, &other.images[i * bs..(i + 1) * bs]);
        }
    }

    /// Length of each staged image; 0 for an empty transaction.
    fn block_size(&self) -> usize {
        self.images
            .len()
            .checked_div(self.targets.len())
            .unwrap_or(0)
    }
}

/// A transaction whose slot run and sequence numbers are allocated but not
/// yet written; produced by [`Reservation::stage`], made durable by
/// [`Journal::persist`] and written home by [`Journal::apply`].
pub struct StagedTx {
    tx: Tx,
    first_seq: u64,
    first_slot: u64,
    nslots: u64,
}

/// Ring room held for a transaction that is not staged yet, from
/// [`Journal::reserve`]: counted in the ring's occupancy until
/// [`Reservation::stage`] turns what the transaction needs into its slot
/// run and gives back the rest.  Dropped unused, it gives back all of it.
pub struct Reservation<'a> {
    journal: &'a Journal,
    slots: u64,
}

impl Reservation<'_> {
    /// Allocate `tx`'s slot run and sequence numbers in the room held,
    /// without waiting, and give back the slots it does not need.  No
    /// transaction data touches the device yet.  Returns `None` for an
    /// empty transaction.
    ///
    /// Callers that snapshot shared state into the transaction (the bitmap)
    /// stage while still holding the lock guarding that state, so snapshot
    /// order and replay (sequence) order agree; the expensive half
    /// ([`Journal::persist`] and [`Journal::apply`]) then runs outside that
    /// lock.
    ///
    /// # Panics
    /// Panics if `tx` has more targets than the room was reserved for.
    pub fn stage(mut self, tx: Tx) -> Option<StagedTx> {
        if tx.is_empty() {
            return None;
        }
        let _s = span::span(span::Phase::JournalStage);
        let journal = self.journal;
        let nslots = slots_for(tx.len(), journal.geo.block_size);
        assert!(
            nslots <= self.slots,
            "a transaction outgrew its reservation"
        );
        let state = &mut *journal.state.lock();
        // The room held becomes the run's slots; the surplus goes back.
        journal.give_back(state, std::mem::take(&mut self.slots));
        let staged = Journal::stage_locked(state, &journal.geo, tx, nslots);
        journal.publish_occupancy(state);
        Some(staged)
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.slots > 0 {
            let state = &mut *self.journal.state.lock();
            self.journal.give_back(state, self.slots);
            self.journal.publish_occupancy(state);
        }
    }
}

/// One committed-but-not-yet-reclaimable transaction in the ring.
struct LiveTx {
    first_seq: u64,
    slots: u64,
    /// Flush epoch after which the home-location writes are durable and the
    /// slots may be reclaimed; `u64::MAX` until the apply step finishes.
    reclaimable_at: u64,
    /// The apply step failed: the transaction stays committed for replay
    /// and its slots are never reclaimed on this mount.
    failed: bool,
}

struct LogState {
    next_seq: u64,
    /// Ring slot index where the next allocation starts.
    head: u64,
    /// Ring slots between the durable anchor tail and the head.
    used: u64,
    /// Tail recorded by the last durable anchor.
    durable_tail_seq: u64,
    live: VecDeque<LiveTx>,
    /// Stagers waiting on `settled`.  A wake-up is a system call, so the
    /// commit path signals only when someone waits.
    settle_waiters: u64,
}

struct GateState {
    /// Successful flushes.
    completed: u64,
    flushing: bool,
    /// Flushes started, successful or not; the running one is number
    /// `started`.
    started: u64,
    /// Start number of the newest successful flush: every caller that
    /// arrived before it started is covered.
    covered: u64,
    /// Callers that arrived since the last flush started, plus those a
    /// failed flush left uncovered (metrics only).  The next flush to start
    /// covers exactly these, so it takes them as its batch and, if it
    /// succeeds, records that count.
    unstarted: u64,
}

/// Group-commit gate: one flush serves every committer that arrived before
/// it started.
struct CommitGate {
    state: Mutex<GateState>,
    cv: Condvar,
    completed: AtomicU64,
    /// Group-commit metrics (flush count, batch sizes, caller stalls);
    /// detached/disabled until the volume attaches its registry.
    stats: Arc<GateStats>,
}

impl CommitGate {
    fn new() -> Self {
        CommitGate {
            state: Mutex::new(GateState {
                completed: 0,
                flushing: false,
                started: 0,
                covered: 0,
                unstarted: 0,
            }),
            cv: Condvar::new(),
            completed: AtomicU64::new(0),
            stats: Arc::default(),
        }
    }

    fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// `(completed, flushing)` snapshot, for computing when a just-finished
    /// apply becomes durable.
    fn epoch(&self) -> (u64, bool) {
        let g = self.state.lock();
        (g.completed, g.flushing)
    }

    /// Block until a device flush that *started after this call* has
    /// completed.  Whoever finds the gate idle becomes the leader and
    /// flushes once for every waiter.
    ///
    /// The whole visit is a [`blocking`] section, so a thread pool that
    /// installed a hook (the engine) can run other work in the caller's slot
    /// meanwhile.
    fn flush_covering<D: BlockDevice>(&self, dev: &D) -> JournalResult<()> {
        // Covers the whole gate visit: leading the flush or stalling behind
        // someone else's both attribute to `gate_flush` (the nested device
        // flush shows up as `device_io` self-time).
        let _s = span::span(span::Phase::GateFlush);
        let _blocked = blocking::section();
        let start = Instant::now();
        let mut g = self.state.lock();
        g.unstarted += 1;
        let need = g.started + 1;
        let outcome = loop {
            if g.covered >= need {
                break Ok(());
            }
            if !g.flushing {
                g.flushing = true;
                g.started += 1;
                let number = g.started;
                let batch = std::mem::take(&mut g.unstarted);
                drop(g);
                let result = dev.flush();
                g = self.state.lock();
                g.flushing = false;
                if result.is_ok() {
                    g.covered = number;
                    g.completed += 1;
                    self.completed.store(g.completed, Ordering::Release);
                    self.stats.flushes.fetch_add(1, Ordering::Relaxed);
                    self.stats.batch.record(batch);
                } else {
                    // The leader leaves with the error; the rest of its
                    // batch waits for the next flush to start.
                    g.unstarted += batch - 1;
                }
                self.cv.notify_all();
                if let Err(e) = result {
                    break Err(JournalError::from(e));
                }
            } else {
                g = self.cv.wait(g);
            }
        };
        drop(g);
        self.stats
            .stall_ns
            .record(start.elapsed().as_nanos() as u64);
        outcome
    }
}

/// What [`Journal::replay`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Committed transactions redone.
    pub committed: usize,
    /// Incomplete or torn transactions discarded.
    pub discarded: usize,
    /// Home-location blocks rewritten from the journal.
    pub blocks_recovered: usize,
}

/// What one block of the journal region holds, as
/// [`RingScan::slot_uses`] tells it.  A slot is *live* when its transaction
/// starts at or past the durable anchor's tail, so replay would consider
/// it, and *checkpointed* when it starts below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotUse {
    /// One of the two anchor blocks.
    Anchor,
    /// An intent slot.
    Intent {
        /// Its transaction is at or past the durable tail.
        live: bool,
    },
    /// A payload slot: one of the blocks an intent's entries name behind it.
    Payload {
        /// Its transaction is at or past the durable tail.
        live: bool,
    },
    /// A commit slot.
    Commit {
        /// Its transaction is at or past the durable tail.
        live: bool,
    },
    /// Opens as nothing and no intent names it: fill, a torn slot, or a
    /// payload whose intent was overwritten.
    Unused,
}

/// The journal region as [`Journal::scan`] read it: the durable tail, every
/// ring slot opened under the volume-public key, and every live
/// transaction walked.
pub struct RingScan {
    /// Durable tail sequence: a transaction starting below it is
    /// checkpointed.
    tail_seq: u64,
    /// Ring slot `s`, opened; `None` where nothing opens (payloads, fill,
    /// torn slots).
    slots: Vec<Option<Slot>>,
    /// Live transactions whose every slot validates, with their first
    /// sequence numbers.
    committed: Vec<(u64, Tx)>,
    /// Live transactions found torn or incomplete.
    discarded: usize,
    /// The highest sequence number any anchor or slot carries.
    max_seq: u64,
}

impl RingScan {
    /// What each block of the region holds: the two anchors, then ring
    /// slots `0, 1, …`.  Each intent names the `k` slots behind it as its
    /// payloads; where two intents name one slot (a stale generation under
    /// a newer one), the higher sequence number owns it.
    pub fn slot_uses(&self) -> Vec<SlotUse> {
        let ring = self.slots.len();
        let live = |txid: u64| txid >= self.tail_seq;
        let mut payload_of: Vec<Option<(u64, u64)>> = vec![None; ring];
        for (s, slot) in self.slots.iter().enumerate() {
            let Some(Slot {
                seq,
                txid,
                body: SlotBody::Intent { entries, .. },
                ..
            }) = slot
            else {
                continue;
            };
            for k in 1..=entries.len() {
                let at = (s + k) % ring;
                if self.slots[at].is_none() && payload_of[at].is_none_or(|(q, _)| q < *seq) {
                    payload_of[at] = Some((*seq, *txid));
                }
            }
        }
        let mut uses = vec![SlotUse::Anchor; ANCHOR_SLOTS as usize];
        uses.extend(self.slots.iter().zip(payload_of).map(|(slot, payload)| {
            match (slot, payload) {
                (Some(s), _) if s.kind == SlotKind::Intent => {
                    SlotUse::Intent { live: live(s.txid) }
                }
                (Some(s), _) if s.kind == SlotKind::Commit => {
                    SlotUse::Commit { live: live(s.txid) }
                }
                (None, Some((_, txid))) => SlotUse::Payload { live: live(txid) },
                _ => SlotUse::Unused,
            }
        }));
        uses
    }
}

/// The write-ahead journal over a reserved device region.
///
/// All methods take `&self`; see the module docs for the internal lock order
/// and the commit protocol.
pub struct Journal {
    geo: JournalGeometry,
    keys: JournalKeys,
    /// Held by the one checkpoint in flight; taken before `state`.
    flight: Mutex<()>,
    state: Mutex<LogState>,
    /// Signalled under `state` whenever the ring may have settled (a
    /// transaction applied, failed or was abandoned, a reservation came
    /// back, a checkpoint retired its run) and a stager waits for it.
    settled: Condvar,
    gate: CommitGate,
    /// Lock-free mirror of `LogState::used`, republished whenever the
    /// staging/reclaim paths change it, so the checkpoint daemon and
    /// commit-steal check read ring pressure without touching the state
    /// lock.
    used_slots: AtomicU64,
}

impl Journal {
    /// Open a journal over an already-formatted region.  Call
    /// [`replay`](Self::replay) before trusting any other on-device state.
    pub fn open(geo: JournalGeometry, salt: u64) -> JournalResult<Self> {
        if geo.ring_slots() < 4 {
            return Err(JournalError::Geometry(format!(
                "journal region of {} blocks leaves fewer than 4 ring slots",
                geo.blocks
            )));
        }
        if geo.block_size < 128 {
            return Err(JournalError::Geometry(format!(
                "block size {} too small for journal slots",
                geo.block_size
            )));
        }
        Ok(Journal {
            keys: JournalKeys::derive(salt, geo.block_size),
            flight: Mutex::new(()),
            state: Mutex::new(LogState {
                next_seq: 1,
                head: 0,
                used: 0,
                durable_tail_seq: 1,
                live: VecDeque::new(),
                settle_waiters: 0,
            }),
            settled: Condvar::new(),
            gate: CommitGate::new(),
            geo,
            used_slots: AtomicU64::new(0),
        })
    }

    /// Format the journal region: write **both** anchor slots declaring an
    /// empty log, so no stale anchor from a previous life of the device can
    /// outrank them at the first replay.  The caller is responsible for the
    /// ring slots themselves no longer decoding under this journal's key
    /// (`PlainFs::format` overwrites the region — random fill or zeros —
    /// precisely because the salt derives deterministically from the format
    /// seed, so re-formatting a reused device could otherwise leave old
    /// transactions replayable).
    pub fn format<D: BlockDevice>(geo: JournalGeometry, salt: u64, dev: &D) -> JournalResult<Self> {
        let journal = Self::open(geo, salt)?;
        journal.write_anchor(dev, 0, 1)?;
        journal.write_anchor(dev, 1, 1)?;
        dev.flush()?;
        Ok(journal)
    }

    /// The region geometry.
    pub fn geometry(&self) -> &JournalGeometry {
        &self.geo
    }

    /// Wire this journal into a volume-wide observability registry: the
    /// log-state mutex reports as `journal.state` and the commit gate's
    /// group-commit metrics (flush count, batch sizes, caller stalls) land
    /// in the registry's [`GateStats`].  Called once during volume assembly,
    /// before the journal is shared.
    pub fn attach_obs(&mut self, obs: &Arc<Obs>) {
        self.state.set_stats(obs.journal_state.clone());
        self.gate.stats = obs.gate.clone();
    }

    /// Current ring occupancy `(used slots, capacity)` from the lock-free
    /// gauge — safe to poll from the checkpoint daemon or a commit path
    /// without taking the log-state lock.
    pub fn occupancy(&self) -> (u64, u64) {
        (
            self.used_slots.load(Ordering::Relaxed),
            self.geo.ring_slots(),
        )
    }

    /// Ring occupancy in permille (0–1000) of capacity.
    pub fn occupancy_permille(&self) -> u64 {
        let (used, capacity) = self.occupancy();
        used.saturating_mul(1000).checked_div(capacity).unwrap_or(0)
    }

    /// Worst commit-gate stall seen so far (ns; 0 when obs is disabled).
    /// The stall watchdog compares this against its threshold to flag a
    /// wedged flush path; summarizing the histogram is cheap enough for a
    /// poll every few milliseconds.
    pub fn gate_stall_max_ns(&self) -> u64 {
        self.gate.stats.stall_ns.summary().max
    }

    /// Republish the occupancy gauge from a held log state.
    fn publish_occupancy(&self, state: &LogState) {
        self.used_slots.store(state.used, Ordering::Relaxed);
    }

    /// Largest number of target blocks a single transaction can carry.
    pub fn max_tx_targets(&self) -> u64 {
        let ring = self.geo.ring_slots();
        let mut t = ring.saturating_sub(2);
        while t > 0 && slots_for(t as usize, self.geo.block_size) > ring {
            t -= 1;
        }
        t
    }

    fn write_anchor<D: BlockDevice>(&self, dev: &D, seq: u64, tail_seq: u64) -> JournalResult<()> {
        let abs = self.geo.start + (seq % ANCHOR_SLOTS);
        let slot = Slot {
            kind: SlotKind::Anchor,
            seq,
            txid: 0,
            body: SlotBody::Anchor { tail_seq },
        };
        let mut sealed = vec![0u8; self.geo.block_size];
        seal_slot(&self.keys, abs, &slot, &mut sealed);
        dev.write_block(abs, &sealed)?;
        Ok(())
    }

    /// The one checkpoint routine: advance the durable tail over the
    /// reclaimable front run of the ring.  The caller holds `_flight`, so
    /// this is the only checkpoint in flight (see the module docs).
    ///
    /// 1. Under `state`, count the run and reserve the anchor's sequence
    ///    number.
    /// 2. With `state` dropped, write the anchor and wait for a flush
    ///    covering it.
    /// 3. Under `state` again, retire the run: drain it, set the durable
    ///    tail, shrink `used`.
    ///
    /// A failed anchor write or flush leaves the run live and counted, for
    /// the next checkpoint (or a remount) to account for.  With nothing
    /// reclaimable it writes no anchor, unless `sync` and the tail moved
    /// anyway.  Returns whether it wrote one.
    fn checkpoint<D: BlockDevice>(
        &self,
        dev: &D,
        _flight: &MutexGuard<'_, ()>,
        sync: bool,
    ) -> JournalResult<bool> {
        let (eligible, freed, tail, anchor_seq) = {
            let state = &mut *self.state.lock();
            let completed = self.gate.completed();
            let (mut eligible, mut freed) = (0usize, 0u64);
            for t in state.live.iter() {
                if t.reclaimable_at > completed {
                    break;
                }
                freed += t.slots;
                eligible += 1;
            }
            let tail = state
                .live
                .get(eligible)
                .map_or(state.next_seq, |t| t.first_seq);
            if freed == 0 && (!sync || tail == state.durable_tail_seq) {
                return Ok(false);
            }
            state.next_seq += 1;
            (eligible, freed, tail, state.next_seq - 1)
        };
        self.write_anchor(dev, anchor_seq, tail)?;
        // The anchor must be durable before any reclaimed slot is
        // overwritten, or replay could mistake a half-overwritten old
        // transaction for the current log.
        self.gate.flush_covering(dev)?;
        let state = &mut *self.state.lock();
        state.live.drain(..eligible);
        state.durable_tail_seq = tail;
        state.used -= freed;
        self.publish_occupancy(state);
        self.wake_settled(state);
        Ok(true)
    }

    /// Return `slots` of reserved room to the ring; the caller republishes
    /// the occupancy.
    fn give_back(&self, state: &mut LogState, slots: u64) {
        state.used -= slots;
        self.wake_settled(state);
    }

    /// Wake the stagers waiting for the ring to settle, if there are any.
    fn wake_settled(&self, state: &LogState) {
        if state.settle_waiters > 0 {
            self.settled.notify_all();
        }
    }

    /// Wait for the ring to settle.
    fn wait_settled<'a>(&self, mut state: MutexGuard<'a, LogState>) {
        state.settle_waiters += 1;
        let mut state = self.settled.wait(state);
        state.settle_waiters -= 1;
    }

    /// Lock the log state with room in the ring for `needed` more slots.  A
    /// full ring waits for the checkpoint in flight and re-checks; still
    /// full, it checkpoints itself.  When nothing is reclaimable it looks at
    /// the front transaction: applied, it flushes once (its home writes
    /// must be durable before its slots are reused) and checkpoints again;
    /// still between its stage and its apply — or, with nothing live, room
    /// reserved but not yet staged — it waits for that to settle.  Only a
    /// ring that can never settle, its front transaction's apply failed,
    /// ends in [`JournalError::Full`], and so does a transaction larger than
    /// the ring, at once.
    ///
    /// The wait holds no journal lock, and its callers hold no lock a
    /// committer needs to settle: the file system reserves the room for a
    /// transaction ([`Self::reserve`]) before it takes the bitmap locks that
    /// transaction's committer re-takes after its apply.
    fn lock_with_room<D: BlockDevice>(
        &self,
        dev: &D,
        needed: u64,
    ) -> JournalResult<MutexGuard<'_, LogState>> {
        let ring = self.geo.ring_slots();
        let full = || JournalError::Full {
            needed,
            capacity: ring,
        };
        if needed > ring {
            return Err(full());
        }
        loop {
            let state = self.state.lock();
            if state.used + needed <= ring {
                return Ok(state);
            }
            drop(state);
            // Full: wait for the checkpoint in flight, then re-check.
            let flight = self.flight.lock();
            if self.state.lock().used + needed <= ring {
                continue;
            }
            if self.checkpoint(dev, &flight, false)? {
                continue;
            }
            let state = self.state.lock();
            match state.live.front() {
                Some(front) if front.failed => return Err(full()),
                Some(front) if front.reclaimable_at != u64::MAX => {
                    drop(state);
                    self.gate.flush_covering(dev)?;
                }
                // Between its stage and its apply; or, with nothing live, the
                // ring is full of room reserved but not yet staged.
                _ => {
                    drop(flight);
                    self.wait_settled(state);
                }
            }
        }
    }

    /// Hold ring room for a transaction of up to `n_targets` target blocks,
    /// to be staged later with [`Reservation::stage`].  A full ring waits
    /// for the checkpoint in flight, re-checks, and checkpoints itself only
    /// if it is still full; past that it waits for the front transaction to
    /// settle (see `lock_with_room`).  A caller that must stage while
    /// holding locks takes its reservation before them: the wait then never
    /// runs under a lock an in-flight committer needs.  No target, no room
    /// held.  A transaction larger than the ring gets
    /// [`JournalError::Full`] at once.
    pub fn reserve<D: BlockDevice>(
        &self,
        dev: &D,
        n_targets: usize,
    ) -> JournalResult<Reservation<'_>> {
        let slots = match n_targets {
            0 => 0,
            n => slots_for(n, self.geo.block_size),
        };
        if slots > 0 {
            let state = &mut *self.lock_with_room(dev, slots)?;
            state.used += slots;
            self.publish_occupancy(state);
        }
        Ok(Reservation {
            journal: self,
            slots,
        })
    }

    /// Allocate one transaction's slot run from a reserved log state.
    fn stage_locked(state: &mut LogState, geo: &JournalGeometry, tx: Tx, nslots: u64) -> StagedTx {
        let first_seq = state.next_seq;
        let first_slot = state.head;
        state.next_seq += nslots;
        state.head = (state.head + nslots) % geo.ring_slots();
        state.used += nslots;
        state.live.push_back(LiveTx {
            first_seq,
            slots: nslots,
            reclaimable_at: u64::MAX,
            failed: false,
        });
        StagedTx {
            tx,
            first_seq,
            first_slot,
            nslots,
        }
    }

    /// Make a staged transaction durable: seal and write its slot run, then
    /// wait for the group flush — the commit point.
    ///
    /// On an error the transaction did **not** (reliably) commit: its slots
    /// are marked reclaimable and callers should treat the operation as
    /// failed and roll back their own state.  (After a *flush* error the
    /// slots might still have reached the platter whole, so a crash before
    /// the slots are reclaimed can legitimately resurrect the transaction —
    /// the fsync contract.  A volume that sees persist errors should be
    /// remounted.)
    pub fn persist<D: BlockDevice>(&self, dev: &D, staged: &StagedTx) -> JournalResult<()> {
        // On any failure before the flush returns, the slots stay allocated
        // but hold garbage (or a never-committed run); mark them
        // immediately reclaimable so the ring is not wedged.
        let abandon = |err: JournalError| -> JournalError {
            let state = &mut *self.state.lock();
            if let Some(t) = state
                .live
                .iter_mut()
                .find(|t| t.first_seq == staged.first_seq)
            {
                t.reclaimable_at = 0;
            }
            self.wake_settled(state);
            err
        };
        let (blocks, images) = self.seal_run(staged);
        dev.write_blocks(&blocks, &images)
            .map_err(|e| abandon(e.into()))?;
        // The group flush is the commit point.
        self.gate.flush_covering(dev).map_err(abandon)
    }

    /// Seal a staged transaction's slot run — interleaved intents and
    /// payloads, then the commit record — into its ring blocks and their
    /// sealed images.  Every slot is encoded in place, and then the whole
    /// run is encrypted with one cipher call; an intent's payload checks
    /// come from one batched check call.
    fn seal_run(&self, staged: &StagedTx) -> (Vec<u64>, Vec<u8>) {
        let StagedTx {
            tx,
            first_seq,
            first_slot,
            nslots,
        } = staged;
        let (first_seq, nslots) = (*first_seq, *nslots);
        let bs = self.geo.block_size;
        let n_targets = tx.len();
        let cap = intent_capacity(bs).max(1);
        let mut blocks = Vec::with_capacity(nslots as usize);
        let mut images = Vec::with_capacity(nslots as usize * bs);
        let mut seq = first_seq;
        let mut slot = *first_slot;
        let mut idx = 0usize;
        while idx < n_targets {
            let chunk_end = (idx + cap).min(n_targets);
            let here = (chunk_end - idx) as u64;
            let payloads = &tx.images[idx * bs..chunk_end * bs];
            // Payload seqs follow the intent's seq immediately.
            let checks = self.keys.payload_checks(seq + 1, payloads.chunks_exact(bs));
            let entries = tx.targets[idx..chunk_end]
                .iter()
                .copied()
                .zip(checks)
                .collect();
            let intent = Slot {
                kind: SlotKind::Intent,
                seq,
                txid: first_seq,
                body: SlotBody::Intent {
                    n_targets: n_targets as u32,
                    first_index: idx as u32,
                    entries,
                },
            };
            let abs = self.geo.ring_block(slot);
            blocks.push(abs);
            encode_slot(&self.keys, abs, &intent, grow(&mut images, bs));
            blocks.extend((slot + 1..slot + 1 + here).map(|s| self.geo.ring_block(s)));
            images.extend_from_slice(payloads);
            seq += 1 + here;
            slot += 1 + here;
            idx = chunk_end;
        }
        let commit_slot = Slot {
            kind: SlotKind::Commit,
            seq,
            txid: first_seq,
            body: SlotBody::Commit {
                n_targets: n_targets as u32,
                total_slots: nslots as u32,
            },
        };
        let abs = self.geo.ring_block(slot);
        blocks.push(abs);
        encode_slot(&self.keys, abs, &commit_slot, grow(&mut images, bs));
        self.keys.apply_many(&blocks, &mut images);
        (blocks, images)
    }

    /// Apply a persisted (committed) transaction's staged images to their
    /// home locations in one batched submission, run `post_apply` (the
    /// caller's chance to re-assert shared home blocks — the bitmap — in a
    /// newest-state-wins way under its own lock), and only then make the
    /// transaction's slots reclaimable.
    ///
    /// A failure anywhere leaves the transaction committed but
    /// un-checkpointed: its slots are never reclaimed, so the next replay
    /// redoes it.
    pub fn apply<D: BlockDevice, F: FnOnce() -> JournalResult<()>>(
        &self,
        dev: &D,
        staged: StagedTx,
        post_apply: F,
    ) -> JournalResult<()> {
        let _s = span::span(span::Phase::JournalApply);
        let applied = dev
            .write_blocks(&staged.tx.targets, &staged.tx.images)
            .map_err(JournalError::from)
            .and_then(|()| post_apply());

        // The home writes become durable at the next flush that starts
        // after this point.  A failed apply is never reclaimed: mark it, so
        // a stager waiting on a full ring stops waiting for it.
        let (completed, flushing) = self.gate.epoch();
        let durable_at = completed + 1 + u64::from(flushing);
        let state = &mut *self.state.lock();
        if let Some(t) = state
            .live
            .iter_mut()
            .find(|t| t.first_seq == staged.first_seq)
        {
            match applied {
                Ok(()) => t.reclaimable_at = durable_at,
                Err(_) => t.failed = true,
            }
        }
        self.wake_settled(state);
        applied
    }

    /// Durability barrier without a checkpoint: block until a device flush
    /// that started after this call has completed, making every transaction
    /// committed so far crash-durable (replay will redo any whose home
    /// writes were still in flight).  Unlike [`Self::sync`] it advances no
    /// tail and writes no anchor, so an `fsync`-grade caller pays one group
    /// flush instead of checkpointing the whole ring.
    pub fn flush_barrier<D: BlockDevice>(&self, dev: &D) -> JournalResult<()> {
        self.gate.flush_covering(dev)
    }

    /// Checkpoint: flush the device (making every applied transaction's home
    /// writes durable), advance the tail over all of them, and persist the
    /// anchor.  Waits for a checkpoint in flight, then runs its own.  After
    /// `sync` returns, a crash replays nothing.
    pub fn sync<D: BlockDevice>(&self, dev: &D) -> JournalResult<()> {
        self.sync_in_flight(dev, &self.flight.lock())
    }

    /// [`sync`](Self::sync) unless a checkpoint is already in flight, which
    /// is already making room: then return `Ok(false)` at once rather than
    /// queue a second one behind it.  `Ok(true)`: this caller ran it.
    pub fn try_sync<D: BlockDevice>(&self, dev: &D) -> JournalResult<bool> {
        match self.flight.try_lock() {
            Some(flight) => self.sync_in_flight(dev, &flight).map(|()| true),
            None => Ok(false),
        }
    }

    fn sync_in_flight<D: BlockDevice>(
        &self,
        dev: &D,
        flight: &MutexGuard<'_, ()>,
    ) -> JournalResult<()> {
        self.gate.flush_covering(dev)?;
        self.checkpoint(dev, flight, true).map(drop)
    }

    /// Read and decode the journal region without writing anything: pick
    /// the durable anchor, read the whole ring, open every slot under the
    /// volume-public key and walk every live transaction.  This is the
    /// read-only half of [`replay`](Self::replay), which redoes from it;
    /// whoever else needs to know what the ring holds reads this.
    pub fn scan<D: BlockDevice>(&self, dev: &D) -> JournalResult<RingScan> {
        let bs = self.geo.block_size;
        let ring = self.geo.ring_slots();

        // Durable anchor: the newest valid one of the pair.
        let mut tail_seq = 0u64;
        let mut anchor_seq = 0u64;
        for i in 0..ANCHOR_SLOTS {
            let raw = dev.read_block_vec(self.geo.start + i)?;
            if let Some(Slot {
                kind: SlotKind::Anchor,
                seq,
                body: SlotBody::Anchor { tail_seq: t },
                ..
            }) = open_slot(&self.keys, self.geo.start + i, &raw)
            {
                if seq >= anchor_seq {
                    anchor_seq = seq;
                    tail_seq = t;
                }
            }
        }

        // Read the whole ring (in bounded batches) into one image, slot `s`
        // at `s * bs`, and classify each slot.
        let mut raws = vec![0u8; ring as usize * bs];
        const BATCH: u64 = 256;
        let mut at = 0u64;
        while at < ring {
            let n = BATCH.min(ring - at);
            let blocks: Vec<u64> = (at..at + n).map(|s| self.geo.ring_block(s)).collect();
            dev.read_blocks(&blocks, &mut raws[at as usize * bs..(at + n) as usize * bs])?;
            at += n;
        }
        let decoded: Vec<Option<Slot>> = raws
            .chunks_exact(bs)
            .enumerate()
            .map(|(s, raw)| open_slot(&self.keys, self.geo.ring_block(s as u64), raw))
            .collect();

        // Walk every intent that opens a live transaction (first_index == 0).
        let mut committed: Vec<(u64, Tx)> = Vec::new();
        let mut discarded = 0usize;
        let mut max_seq = anchor_seq.max(tail_seq);
        for slot in decoded.iter().flatten() {
            max_seq = max_seq.max(slot.seq);
        }
        for start in 0..ring as usize {
            let Some(Slot {
                kind: SlotKind::Intent,
                seq: first_seq,
                txid,
                body:
                    SlotBody::Intent {
                        n_targets,
                        first_index: 0,
                        ..
                    },
            }) = decoded[start].clone()
            else {
                continue;
            };
            if first_seq < tail_seq || txid != first_seq {
                continue;
            }
            match self.walk_tx(&decoded, &raws, start as u64, first_seq, n_targets) {
                Some(tx) => committed.push((first_seq, tx)),
                None => discarded += 1,
            }
        }
        Ok(RingScan {
            tail_seq,
            slots: decoded,
            committed,
            discarded,
            max_seq,
        })
    }

    /// Scan the journal region, redo every committed transaction, and reset
    /// the log.  Must run at mount, before any other structure is read.
    ///
    /// Replay needs **no user keys**: hidden-object payloads were staged as
    /// object-key ciphertext, so redoing them restores exactly the bytes the
    /// crashed commit meant to write, and wrong-key lookups after replay
    /// remain indistinguishable from never-existed objects.
    pub fn replay<D: BlockDevice>(&self, dev: &D) -> JournalResult<ReplayReport> {
        let RingScan {
            mut committed,
            discarded,
            max_seq,
            ..
        } = self.scan(dev)?;

        // Redo in sequence order; later transactions win on shared blocks.
        committed.sort_by_key(|(seq, _)| *seq);
        let mut recovered = 0usize;
        for (_, tx) in &committed {
            recovered += tx.len();
            dev.write_blocks(&tx.targets, &tx.images)?;
        }
        if !committed.is_empty() {
            dev.flush()?;
        }

        // Reset the log past everything we saw, so stale slots can never be
        // replayed twice against post-mount writes.
        let reset_seq = max_seq + 2;
        {
            let state = &mut *self.state.lock();
            state.next_seq = reset_seq + 1;
            state.head = 0;
            state.used = 0;
            state.durable_tail_seq = reset_seq + 1;
            state.live.clear();
        }
        self.write_anchor(dev, reset_seq, reset_seq + 1)?;
        dev.flush()?;
        Ok(ReplayReport {
            committed: committed.len(),
            discarded,
            blocks_recovered: recovered,
        })
    }

    /// Validate one transaction's slot run starting at ring slot `start`.
    /// Returns the transaction if every intent, payload and the commit slot
    /// check out; `None` for anything torn or incomplete.
    /// Each intent's payloads are decrypted and checked as one run: one
    /// cipher call, one batched check call.
    fn walk_tx(
        &self,
        decoded: &[Option<Slot>],
        raws: &[u8],
        start: u64,
        first_seq: u64,
        n_targets: u32,
    ) -> Option<Tx> {
        let ring = self.geo.ring_slots();
        let total = slots_for(n_targets as usize, self.geo.block_size);
        if total > ring {
            return None;
        }
        let bs = self.geo.block_size;
        let mut targets = Vec::with_capacity(n_targets as usize);
        let mut images = Vec::with_capacity(n_targets as usize * bs);
        let mut cursor = start;
        let mut seq = first_seq;
        let mut idx = 0u32;
        loop {
            // Expect an intent at `cursor` with `first_index == idx`.
            let intent = decoded[(cursor % ring) as usize].as_ref()?;
            let (slot_targets, slot_first) = match (&intent.kind, &intent.body) {
                (
                    SlotKind::Intent,
                    SlotBody::Intent {
                        n_targets: nt,
                        first_index,
                        entries,
                    },
                ) if *nt == n_targets && intent.seq == seq && intent.txid == first_seq => {
                    (entries.clone(), *first_index)
                }
                _ => return None,
            };
            if slot_first != idx {
                return None;
            }
            cursor += 1;
            seq += 1;
            let here = slot_targets.len() as u64;
            let payloads = cursor..cursor + here;
            let from = images.len();
            for slot in payloads.clone() {
                let at = (slot % ring) as usize * bs;
                images.extend_from_slice(&raws[at..at + bs]);
            }
            let abs: Vec<u64> = payloads.map(|slot| self.geo.ring_block(slot)).collect();
            self.keys.apply_many(&abs, &mut images[from..]);
            let checks = self
                .keys
                .payload_checks(seq, images[from..].chunks_exact(bs));
            if !slot_targets.iter().map(|(_, check)| check).eq(&checks) {
                return None;
            }
            targets.extend(slot_targets.iter().map(|(target, _)| *target));
            cursor += here;
            seq += here;
            idx += here as u32;
            if idx >= n_targets {
                break;
            }
            if slot_targets.is_empty() {
                return None; // an empty non-final intent cannot make progress
            }
        }
        // The commit slot terminates the run.
        let commit = decoded[(cursor % ring) as usize].as_ref()?;
        match (&commit.kind, &commit.body) {
            (
                SlotKind::Commit,
                SlotBody::Commit {
                    n_targets: nt,
                    total_slots,
                },
            ) if *nt == n_targets
                && commit.seq == seq
                && commit.txid == first_seq
                && u64::from(*total_slots) == total =>
            {
                Some(Tx::from_parts(targets, images))
            }
            _ => None,
        }
    }
}

/// Extend `buf` by one zeroed block of `block_size` bytes and return it.
fn grow(buf: &mut Vec<u8>, block_size: usize) -> &mut [u8] {
    let at = buf.len();
    buf.resize(at + block_size, 0);
    &mut buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stegfs_blockdev::{Dir, FaultDevice, LatencyDevice, MemBlockDevice, Park, ParkAt, Trigger};

    const BS: usize = 512;

    fn fixture(journal_blocks: u64, total: u64) -> (MemBlockDevice, Journal) {
        let dev = MemBlockDevice::new(BS, total);
        let geo = JournalGeometry {
            start: 1,
            blocks: journal_blocks,
            block_size: BS,
        };
        let journal = Journal::format(geo, 0xabcd, &dev).unwrap();
        (dev, journal)
    }

    fn reopen(journal: &Journal) -> Journal {
        Journal::open(journal.geometry().clone(), 0xabcd).unwrap()
    }

    /// Reserve ring room for `tx` and stage it there.
    fn stage<D: BlockDevice>(
        journal: &Journal,
        dev: &D,
        tx: Tx,
    ) -> JournalResult<Option<StagedTx>> {
        Ok(journal.reserve(dev, tx.len())?.stage(tx))
    }

    /// Persist a staged transaction (the commit point), then apply it.
    fn complete<D: BlockDevice>(journal: &Journal, dev: &D, staged: StagedTx) -> JournalResult<()> {
        journal.persist(dev, &staged)?;
        journal.apply(dev, staged, || Ok(()))
    }

    /// Commit `tx` through the four calls every transaction takes:
    /// reserve, stage, persist, apply.
    fn commit<D: BlockDevice>(journal: &Journal, dev: &D, tx: Tx) -> JournalResult<()> {
        match stage(journal, dev, tx)? {
            Some(staged) => complete(journal, dev, staged),
            None => Ok(()),
        }
    }

    #[test]
    fn commit_applies_and_replay_is_idempotent() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(100, &[0xaa; BS]);
        tx.write(101, &[0xbb; BS]);
        tx.write(100, &[0xac; BS]); // last write wins
        commit(&journal, &dev, tx).unwrap();
        assert_eq!(dev.read_block_vec(100).unwrap(), vec![0xac; BS]);
        assert_eq!(dev.read_block_vec(101).unwrap(), vec![0xbb; BS]);

        // Replay on a fresh journal object redoes (harmlessly) or skips.
        let report = reopen(&journal).replay(&dev).unwrap();
        assert!(report.committed <= 1);
        assert_eq!(dev.read_block_vec(100).unwrap(), vec![0xac; BS]);
    }

    #[test]
    fn unapplied_committed_tx_is_replayed() {
        let (dev, journal) = fixture(32, 128);
        // Simulate "slots durable, home writes lost": commit normally, then
        // clobber the home locations as a crash that tore the apply would.
        let mut tx = Tx::new();
        tx.write(100, &[0x11; BS]);
        tx.write(110, &[0x22; BS]);
        commit(&journal, &dev, tx).unwrap();
        dev.write_block(100, &vec![0u8; BS]).unwrap();
        dev.write_block(110, &vec![0u8; BS]).unwrap();

        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(report.blocks_recovered, 2);
        assert_eq!(dev.read_block_vec(100).unwrap(), vec![0x11; BS]);
        assert_eq!(dev.read_block_vec(110).unwrap(), vec![0x22; BS]);
    }

    #[test]
    fn torn_slot_discards_the_whole_tx() {
        let (dev, journal) = fixture(32, 128);
        let before = dev.read_block_vec(100).unwrap();
        let mut tx = Tx::new();
        tx.write(100, &[0x77; BS]);
        commit(&journal, &dev, tx).unwrap();
        // Tear the payload slot (ring slot 1 = start + ANCHOR_SLOTS + 1) and
        // restore the home block, as if neither survived the crash.
        let payload_block = 1 + ANCHOR_SLOTS + 1;
        let mut torn = dev.read_block_vec(payload_block).unwrap();
        torn[40] ^= 0xff;
        dev.write_block(payload_block, &torn).unwrap();
        dev.write_block(100, &before).unwrap();

        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(report.discarded, 1);
        assert_eq!(dev.read_block_vec(100).unwrap(), before);
    }

    #[test]
    fn sync_checkpoints_so_replay_finds_nothing() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(120, &[9; BS]);
        commit(&journal, &dev, tx).unwrap();
        journal.sync(&dev).unwrap();
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report, ReplayReport::default());
        assert_eq!(dev.read_block_vec(120).unwrap(), vec![9; BS]);
    }

    #[test]
    fn scan_tells_slot_uses_and_writes_nothing() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(100, &[0x11; BS]);
        tx.write(110, &[0x22; BS]);
        commit(&journal, &dev, tx).unwrap();
        let uses = |live| {
            let mut want = vec![SlotUse::Anchor; 2];
            want.push(SlotUse::Intent { live });
            want.extend([SlotUse::Payload { live }; 2]);
            want.push(SlotUse::Commit { live });
            want.resize(32, SlotUse::Unused);
            want
        };

        // Committed, not checkpointed: the transaction is live.
        let before = dev.snapshot_raw();
        let scan = reopen(&journal).scan(&dev).unwrap();
        assert_eq!(dev.snapshot_raw(), before, "a scan wrote");
        assert_eq!(scan.slot_uses(), uses(true));
        assert_eq!(scan.committed.len(), 1);

        // The checkpoint moves the tail past it; its slots stay readable.
        journal.sync(&dev).unwrap();
        let scan = reopen(&journal).scan(&dev).unwrap();
        assert_eq!(scan.slot_uses(), uses(false));
        assert!(scan.committed.is_empty());
    }

    #[test]
    fn flush_barrier_is_durable_but_not_a_checkpoint() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(120, &[9; BS]);
        commit(&journal, &dev, tx).unwrap();
        journal.flush_barrier(&dev).unwrap();

        // The barrier advanced no tail and wrote no anchor: the committed
        // transaction is still live in the ring, so a crash that tears the
        // home write is repaired by replay (that is what makes the barrier
        // a durability point).
        dev.write_block(120, &vec![0u8; BS]).unwrap();
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(dev.read_block_vec(120).unwrap(), vec![9; BS]);
        // (Contrast with `sync_checkpoints_so_replay_finds_nothing`: after a
        // full sync the same replay finds an empty log.)
    }

    #[test]
    fn ring_wraps_and_reclaims() {
        // Ring of 14 slots; each 2-target tx takes 4 slots.  20 commits force
        // many wraps and anchor-gated reclaims.
        let (dev, journal) = fixture(ANCHOR_SLOTS + 14, 256);
        for i in 0..20u64 {
            let mut tx = Tx::new();
            tx.write(100 + (i % 8), &[i as u8; BS]);
            tx.write(120 + (i % 8), &[i as u8 ^ 0xff; BS]);
            commit(&journal, &dev, tx).unwrap();
        }
        for i in 12..20u64 {
            assert_eq!(
                dev.read_block_vec(100 + (i % 8)).unwrap(),
                vec![i as u8; BS]
            );
        }
        let report = reopen(&journal).replay(&dev).unwrap();
        // Everything still in the ring replays idempotently.
        for i in 12..20u64 {
            assert_eq!(
                dev.read_block_vec(100 + (i % 8)).unwrap(),
                vec![i as u8; BS]
            );
        }
        assert!(report.discarded <= 20);
    }

    #[test]
    fn oversized_tx_rejected() {
        let (dev, journal) = fixture(ANCHOR_SLOTS + 6, 256);
        let mut tx = Tx::new();
        for b in 0..8u64 {
            tx.write(100 + b, &[1; BS]);
        }
        match commit(&journal, &dev, tx) {
            Err(JournalError::Full { .. }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn multi_intent_tx_roundtrips() {
        // More targets than one intent slot carries at BS=512.
        let cap = intent_capacity(BS);
        let n = cap + 3;
        let (dev, journal) = fixture(ANCHOR_SLOTS + slots_for(n, BS) + 2, 512);
        let mut tx = Tx::new();
        for i in 0..n as u64 {
            tx.write(200 + i, &[(i % 251) as u8; BS]);
        }
        commit(&journal, &dev, tx).unwrap();
        // Clobber the home writes and replay.
        for i in 0..n as u64 {
            dev.write_block(200 + i, &vec![0u8; BS]).unwrap();
        }
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 1);
        for i in 0..n as u64 {
            assert_eq!(
                dev.read_block_vec(200 + i).unwrap(),
                vec![(i % 251) as u8; BS]
            );
        }
    }

    #[test]
    fn staged_transactions_replay_independently() {
        let (dev, journal) = fixture(64, 256);
        // Three transactions staged before any is persisted: consecutive
        // slot runs, each with its own intent and commit record.
        let staged: Vec<StagedTx> = (0..3u64)
            .map(|i| {
                let mut tx = Tx::new();
                tx.write(100 + i * 4, &[i as u8 + 1; BS]);
                tx.write(101 + i * 4, &[i as u8 + 0x11; BS]);
                stage(&journal, &dev, tx).unwrap().unwrap()
            })
            .collect();
        for s in &staged {
            journal.persist(&dev, s).unwrap();
        }
        // Crash before the apply: home blocks never written, but all three
        // transactions are durable and must replay — each as its own
        // transaction.
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 3);
        assert_eq!(report.blocks_recovered, 6);
        for i in 0..3u64 {
            assert_eq!(
                dev.read_block_vec(100 + i * 4).unwrap(),
                vec![i as u8 + 1; BS]
            );
            assert_eq!(
                dev.read_block_vec(101 + i * 4).unwrap(),
                vec![i as u8 + 0x11; BS]
            );
        }
    }

    /// Payload checks are hashed sixteen to a pass, so payload 16 of a
    /// 17-target transaction is the first lane of the second pass.  Torn
    /// there, it must sink its own transaction and no other.
    #[test]
    fn a_torn_payload_in_the_second_hash_pass_discards_only_its_tx() {
        let (dev, journal) = fixture(64, 512);
        let targets = |first: u64, n: u64| first..first + n;
        assert!(17 <= intent_capacity(BS), "one intent, one run");
        let staged: Vec<StagedTx> = [(100, 2), (200, 17), (300, 2)]
            .into_iter()
            .map(|(first, n)| {
                let mut tx = Tx::new();
                for b in targets(first, n) {
                    tx.write(b, &[b as u8; BS]);
                }
                let staged = stage(&journal, &dev, tx).unwrap().unwrap();
                journal.persist(&dev, &staged).unwrap();
                staged
            })
            .collect();
        // Crash before the apply, with payload 16 of the middle
        // transaction torn: it sits past the intent, at slot 1 + 16 of its run.
        let torn_at = journal.geo.ring_block(staged[1].first_slot + 1 + 16);
        let mut torn = dev.read_block_vec(torn_at).unwrap();
        torn[7] ^= 0x01;
        dev.write_block(torn_at, &torn).unwrap();

        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report.committed, 2);
        assert_eq!(report.discarded, 1);
        assert_eq!(report.blocks_recovered, 4);
        for b in targets(100, 2).chain(targets(300, 2)) {
            assert_eq!(dev.read_block_vec(b).unwrap(), vec![b as u8; BS]);
        }
        for b in targets(200, 17) {
            assert_eq!(dev.read_block_vec(b).unwrap(), vec![0u8; BS], "block {b}");
        }
    }

    #[test]
    fn a_reservation_is_counted_until_staged_or_dropped() {
        let (dev, journal) = fixture(ANCHOR_SLOTS + 8, 256);
        let held = journal.reserve(&dev, 2).unwrap();
        assert_eq!(journal.occupancy().0, slots_for(2, BS));
        // A one-target transaction gives back the surplus as it stages.
        let staged = held.stage(one_block_tx(100, 1)).unwrap();
        assert_eq!(journal.occupancy().0, slots_for(1, BS));
        drop(journal.reserve(&dev, 3).unwrap());
        assert_eq!(journal.occupancy().0, slots_for(1, BS));
        assert!(journal.reserve(&dev, 0).unwrap().stage(Tx::new()).is_none());
        complete(&journal, &dev, staged).unwrap();
        journal.sync(&dev).unwrap();
        assert_eq!(journal.occupancy().0, 0);
    }

    #[test]
    fn a_full_ring_waits_for_its_front_to_settle() {
        // Two staged one-target transactions fill 6 of 8 slots; a third
        // needs 3 and must wait until the front one is applied and reclaimed
        // rather than fail.
        let (dev, journal) = fixture(ANCHOR_SLOTS + 8, 256);
        let front = stage(&journal, &dev, one_block_tx(100, 1))
            .unwrap()
            .unwrap();
        let second = stage(&journal, &dev, one_block_tx(101, 2))
            .unwrap()
            .unwrap();
        let third = std::thread::scope(|s| {
            let stager = s.spawn(|| stage(&journal, &dev, one_block_tx(102, 3)));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!stager.is_finished(), "a full ring did not wait");
            complete(&journal, &dev, front).unwrap();
            stager.join().unwrap()
        });
        let third = third.expect("the front settled").unwrap();
        complete(&journal, &dev, second).unwrap();
        complete(&journal, &dev, third).unwrap();
        for (block, byte) in [(100, 1), (101, 2), (102, 3)] {
            assert_eq!(dev.read_block_vec(block).unwrap(), vec![byte; BS]);
        }
    }

    #[test]
    fn a_failed_front_ends_the_wait_in_full() {
        let (dev, journal) = fixture(ANCHOR_SLOTS + 8, 256);
        let front = stage(&journal, &dev, one_block_tx(100, 1))
            .unwrap()
            .unwrap();
        journal.persist(&dev, &front).unwrap();
        let refused = journal.apply(&dev, front, || {
            Err(JournalError::Geometry("post-apply refused".into()))
        });
        assert!(refused.is_err());
        commit(&journal, &dev, one_block_tx(101, 2)).unwrap();
        // The failed front is never reclaimed, so the ring can never settle.
        match commit(&journal, &dev, one_block_tx(102, 3)) {
            Err(JournalError::Full { needed, capacity }) => {
                assert_eq!((needed, capacity), (slots_for(1, BS), 8))
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_commits_group_into_few_flushes() {
        use std::thread;
        let dev = Arc::new(MemBlockDevice::new(BS, 4096));
        let geo = JournalGeometry {
            start: 1,
            blocks: 512,
            block_size: BS,
        };
        let journal = Arc::new(Journal::format(geo, 1, dev.as_ref()).unwrap());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let dev = Arc::clone(&dev);
                let journal = Arc::clone(&journal);
                thread::spawn(move || {
                    for i in 0..16u64 {
                        let mut tx = Tx::new();
                        tx.write(1024 + t * 32 + (i % 32), &[t as u8; BS]);
                        commit(&journal, dev.as_ref(), tx).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(
                dev.read_block_vec(1024 + t * 32).unwrap(),
                vec![t as u8; BS]
            );
        }
    }

    /// A memory device whose flushes can take a while, so concurrent gate
    /// visitors pile up behind them, and fail or park as a test plans.
    type Dev = FaultDevice<LatencyDevice<MemBlockDevice>>;

    /// A formatted journal of `blocks` blocks, its gate metrics enabled,
    /// over a [`Dev`] whose flushes take `delay_ms` and fail when
    /// their 1-based number (the format's flush is number 1) is listed in
    /// `fail`.  Flush number `park` (0: none) first waits for the returned
    /// handle's release.
    fn slow_journal(
        delay_ms: u64,
        fail: Vec<u64>,
        park: u64,
        blocks: u64,
    ) -> (Arc<Dev>, Arc<Journal>, Park) {
        let delay = std::time::Duration::from_millis(delay_ms);
        let mem = MemBlockDevice::new(BS, 2048);
        let dev = Arc::new(FaultDevice::new(
            LatencyDevice::new(mem, Default::default(), Default::default())
                .with_flush_latency(delay),
        ));
        let flush = |n: u64| Trigger::when(move |op| op.dir == Dir::Flush && op.epoch + 1 == n);
        let parked = dev.park(flush(park), ParkAt::Before);
        for n in fail {
            dev.fail(flush(n));
        }
        let geo = JournalGeometry {
            start: 1,
            blocks,
            block_size: BS,
        };
        let journal = Journal::format(geo, 1, dev.as_ref()).unwrap();
        (dev, Arc::new(journal), parked)
    }

    /// The most anchor-slot writes (the fixtures' region starts at block 1)
    /// `dev` sees in one flush epoch from now on.
    fn max_anchors_per_epoch(dev: &Dev) -> Arc<AtomicU64> {
        let max = Arc::new(AtomicU64::new(0));
        let (seen, mut epoch) = (Arc::clone(&max), (0, 0));
        dev.record(Trigger::when(|op| op.dir == Dir::Write), move |op| {
            if op.epoch != epoch.0 {
                epoch = (op.epoch, 0);
            }
            epoch.1 += op
                .blocks
                .iter()
                .filter(|b| (1..1 + ANCHOR_SLOTS).contains(b))
                .count() as u64;
            seen.fetch_max(epoch.1, Ordering::SeqCst);
        });
        max
    }

    fn slow_gate(delay_ms: u64, fail: Vec<u64>) -> (Arc<Dev>, Arc<Journal>) {
        let (dev, journal, _) = slow_journal(delay_ms, fail, 0, 32);
        (dev, journal)
    }

    fn one_block_tx(block: u64, byte: u8) -> Tx {
        let mut tx = Tx::new();
        tx.write(block, &[byte; BS]);
        tx
    }

    /// Run `f` over clones of the fixture on a new thread.
    fn on_a_thread<T: Send + 'static>(
        dev: &Arc<Dev>,
        journal: &Arc<Journal>,
        f: impl FnOnce(&Dev, &Journal) -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let (dev, journal) = (Arc::clone(dev), Arc::clone(journal));
        std::thread::spawn(move || f(&dev, &journal))
    }

    /// 8 threads x 12 barriers through one gate: `(successful visits, all
    /// visits)` and the gate's metrics.
    fn hammer_the_gate(fail: Vec<u64>) -> (u64, u64, stegfs_obs::GateSummary) {
        let (dev, journal) = slow_gate(1, fail);
        let ok: u64 = (0..8)
            .map(|_| {
                let (dev, journal) = (Arc::clone(&dev), Arc::clone(&journal));
                std::thread::spawn(move || {
                    (0..12)
                        .filter(|_| journal.flush_barrier(dev.as_ref()).is_ok())
                        .count() as u64
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum();
        (ok, 8 * 12, journal.gate.stats.summary())
    }

    #[test]
    fn a_caller_is_released_by_the_first_good_flush_that_started_after_it() {
        // Flush 2 (the gate's first) fails while a second caller waits on
        // it; that caller leads flush 3 and must leave when it succeeds.
        let (dev, journal, park) = slow_journal(50, vec![2], 2, 32);
        let leader = on_a_thread(&dev, &journal, |dev, journal| journal.flush_barrier(dev));
        park.wait();
        let waiter = on_a_thread(&dev, &journal, |dev, journal| journal.flush_barrier(dev));
        while journal.gate.state.lock().unstarted == 0 {
            std::thread::yield_now();
        }
        park.release();
        assert!(leader.join().unwrap().is_err());
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(dev.flushes(), 3, "no extra flush");
        let gate = journal.gate.stats.summary();
        assert_eq!((gate.flushes, gate.batch.total), (1, 1));
    }

    #[test]
    fn the_batch_histogram_counts_every_covered_caller_once() {
        let (ok, visits, gate) = hammer_the_gate(Vec::new());
        assert_eq!(ok, visits);
        assert_eq!(
            gate.batch.total, visits,
            "callers covered, summed over flushes"
        );
        assert_eq!(gate.stall_ns.count, visits);
        assert_eq!(gate.batch.count, gate.flushes, "one batch per flush");
        assert!(gate.flushes < visits, "callers shared flushes");
    }

    #[test]
    fn a_failed_flush_hands_its_batch_to_the_next() {
        let (ok, visits, gate) = hammer_the_gate(vec![2, 5, 6]);
        assert_eq!(
            ok,
            visits - 3,
            "only the three failed leaders see the error"
        );
        assert_eq!(gate.batch.total, ok);
        assert_eq!(gate.stall_ns.count, visits);
        assert_eq!(gate.batch.count, gate.flushes);
    }

    #[test]
    fn a_stage_does_not_wait_for_an_anchor_flush() {
        // Flush 2 commits the transaction, sync's flush 3 makes it
        // reclaimable, and flush 4, the anchor's, parks.
        let (dev, journal, park) = slow_journal(0, Vec::new(), 4, 32);
        commit(&journal, dev.as_ref(), one_block_tx(100, 1)).unwrap();
        let sync = on_a_thread(&dev, &journal, |dev, journal| journal.sync(dev));
        park.wait();
        // The run stays counted while its anchor is in flight.
        assert_eq!(journal.occupancy().0, 3);
        let (send, staged) = std::sync::mpsc::channel();
        on_a_thread(&dev, &journal, move |dev, journal| {
            send.send(stage(journal, dev, one_block_tx(101, 2)))
                .unwrap()
        });
        let staged = staged.recv_timeout(std::time::Duration::from_secs(5));
        park.release();
        let staged = staged
            .expect("a stage waited for the anchor flush")
            .unwrap()
            .unwrap();
        sync.join().unwrap().unwrap();
        assert_eq!(journal.occupancy().0, 3, "the run retired after its anchor");
        complete(&journal, dev.as_ref(), staged).unwrap();
        journal.sync(dev.as_ref()).unwrap();
        assert_eq!(journal.occupancy().0, 0);
        let report = reopen(&journal).replay(dev.as_ref()).unwrap();
        assert_eq!(report, ReplayReport::default());
        assert_eq!(dev.read_block_vec(101).unwrap(), vec![2; BS]);
    }

    #[test]
    fn concurrent_steals_run_one_checkpoint() {
        // A ring of 256 slots: 8 committers of 3-slot transactions can all
        // stage past the 900 permille steal line without filling it.
        let (dev, journal, _) = slow_journal(1, Vec::new(), 0, ANCHOR_SLOTS + 256);
        // The format writes both anchors in one epoch on purpose.
        let max_epoch_anchors = max_anchors_per_epoch(&dev);
        let (ran, skipped) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (dev, journal, ran, skipped) = (&dev, &journal, &ran, &skipped);
                s.spawn(move || {
                    for i in 0..64u64 {
                        if journal.occupancy_permille() >= 900 {
                            match journal.try_sync(dev.as_ref()).unwrap() {
                                true => ran.fetch_add(1, Ordering::Relaxed),
                                false => skipped.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        let block = 1024 + t * 64 + i;
                        commit(journal, dev.as_ref(), one_block_tx(block, t as u8)).unwrap();
                    }
                });
            }
        });
        let (ran, skipped) = (ran.into_inner(), skipped.into_inner());
        assert!(ran > 0, "the ring never reached the steal line");
        assert!(skipped > 0, "no committer found a checkpoint in flight");
        assert_eq!(
            max_epoch_anchors.load(Ordering::SeqCst),
            1,
            "two anchors in one flush epoch"
        );
        for t in 0..8u64 {
            assert_eq!(
                dev.read_block_vec(1024 + t * 64 + 63).unwrap(),
                vec![t as u8; BS]
            );
        }
    }

    #[test]
    fn a_failed_anchor_leaves_the_run_live() {
        // As above the anchor's flush is number 4; it parks, then fails.
        let (dev, journal, park) = slow_journal(0, vec![4], 4, 32);
        commit(&journal, dev.as_ref(), one_block_tx(100, 1)).unwrap();
        let tail = journal.state.lock().durable_tail_seq;
        let sync = on_a_thread(&dev, &journal, |dev, journal| journal.sync(dev));
        park.wait();
        // A committer stages in the window and waits at the gate behind
        // the parked flush; it commits with the next one.
        let committer = on_a_thread(&dev, &journal, |dev, journal| {
            commit(journal, dev, one_block_tx(101, 2))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while journal.occupancy().0 < 6 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let staged_in_window = journal.occupancy().0 == 6;
        park.release();
        assert!(staged_in_window, "a stage waited for the anchor flush");
        assert!(sync.join().unwrap().is_err());
        committer.join().unwrap().unwrap();
        {
            let state = journal.state.lock();
            assert_eq!(
                (state.used, state.live.len(), state.durable_tail_seq),
                (6, 2, tail),
                "a failed anchor drained its run"
            );
        }
        assert_eq!(journal.occupancy().0, 6);
        // The next checkpoint retires both runs.
        journal.sync(dev.as_ref()).unwrap();
        assert_eq!(journal.occupancy().0, 0);
        assert!(journal.state.lock().live.is_empty());
        let report = reopen(&journal).replay(dev.as_ref()).unwrap();
        assert_eq!(report, ReplayReport::default());
        assert_eq!(dev.read_block_vec(100).unwrap(), vec![1; BS]);
        assert_eq!(dev.read_block_vec(101).unwrap(), vec![2; BS]);
    }
}
