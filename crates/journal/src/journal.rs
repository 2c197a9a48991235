//! The write-ahead intent journal: transactions, group commit, checkpointing
//! and crash replay.
//!
//! # Protocol
//!
//! A transaction ([`Tx`]) is a redo buffer: the file-system layers stage
//! every block image a multi-block update intends to write, then call
//! [`Journal::commit`], which
//!
//! 1. allocates a run of ring slots and sequence numbers,
//! 2. writes the sealed intent / payload / commit slots to the journal
//!    region,
//! 3. waits for a **group flush** — one device barrier amortized over every
//!    transaction that reached this point since the previous barrier (this is
//!    the group-commit win the engine benchmarks measure), and only then
//! 4. applies the staged images to their home locations in one batched
//!    submission.
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

use crate::record::{
    intent_capacity, open_payload, open_slot, seal_payload, seal_slot, slots_for, JournalKeys,
    Slot, SlotBody, SlotKind, ANCHOR_SLOTS,
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

/// A redo buffer: the staged block images of one multi-block update.
///
/// Writes deduplicate by block (last wins), so an update that touches the
/// same block twice journals and applies one image.
#[derive(Default)]
pub struct Tx {
    writes: Vec<(u64, Vec<u8>)>,
    index: HashMap<u64, usize>,
}

impl Tx {
    /// Create an empty transaction.
    pub fn new() -> Self {
        Tx::default()
    }

    /// Stage `data` as the new image of `block`.
    pub fn write(&mut self, block: u64, data: Vec<u8>) {
        match self.index.get(&block) {
            Some(&i) => self.writes[i].1 = data,
            None => {
                self.index.insert(block, self.writes.len());
                self.writes.push((block, data));
            }
        }
    }

    /// The staged image of `block`, if any (read-your-writes overlay).
    pub fn read(&self, block: u64) -> Option<&[u8]> {
        self.index.get(&block).map(|&i| self.writes[i].1.as_slice())
    }

    /// Number of distinct blocks staged.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Consume the transaction, returning its `(block, image)` pairs in
    /// staging order (deduplicated, last write wins).  Callers that must
    /// split an oversized update into several ring-sized transactions use
    /// this to repartition the write set.
    pub fn into_writes(self) -> Vec<(u64, Vec<u8>)> {
        self.writes
    }
}

/// `(target block, image)` pairs of one transaction.
type TxWrites = Vec<(u64, Vec<u8>)>;

/// A transaction whose slot run and sequence numbers are allocated but not
/// yet written; produced by [`Journal::stage`], consumed by
/// [`Journal::complete`].
pub struct StagedTx {
    tx: Tx,
    first_seq: u64,
    first_slot: u64,
    nslots: u64,
}

/// One committed-but-not-yet-reclaimable transaction in the ring.
struct LiveTx {
    first_seq: u64,
    slots: u64,
    /// Flush epoch after which the home-location writes are durable and the
    /// slots may be reclaimed; `u64::MAX` until the apply step finishes.
    reclaimable_at: u64,
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
            keys: JournalKeys::derive(salt),
            flight: Mutex::new(()),
            state: Mutex::new(LogState {
                next_seq: 1,
                head: 0,
                used: 0,
                durable_tail_seq: 1,
                live: VecDeque::new(),
            }),
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

    /// Ring capacity in slots.
    pub fn capacity_slots(&self) -> u64 {
        self.geo.ring_slots()
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
        let sealed = seal_slot(&self.keys, abs, &slot, self.geo.block_size);
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
        Ok(true)
    }

    /// Lock the log state with room in the ring for `needed` more slots.  A
    /// full ring waits for the checkpoint in flight and re-checks; still
    /// full, it checkpoints itself, flushing once first when nothing was
    /// reclaimable yet (applied transactions wait for a flush to make their
    /// home writes durable).
    fn reserve<D: BlockDevice>(
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
        let mut flight = None;
        let mut flushed_once = false;
        loop {
            let state = self.state.lock();
            if state.used + needed <= ring {
                return Ok(state);
            }
            drop(state);
            // Full: wait for the checkpoint in flight, then re-check.
            let Some(flight) = &flight else {
                flight = Some(self.flight.lock());
                continue;
            };
            if !self.checkpoint(dev, flight, false)? {
                if flushed_once {
                    return Err(full());
                }
                self.gate.flush_covering(dev)?;
                flushed_once = true;
            }
        }
    }

    /// Commit `tx`: journal its intent, group-flush, then apply the staged
    /// images to their home locations.  On return the update is durable.
    /// Equivalent to [`stage`](Self::stage) followed by
    /// [`complete`](Self::complete).
    pub fn commit<D: BlockDevice>(&self, dev: &D, tx: Tx) -> JournalResult<()> {
        match self.stage(dev, tx)? {
            Some(staged) => self.complete(dev, staged),
            None => Ok(()),
        }
    }

    /// First half of a commit: allocate the transaction's slot run and
    /// sequence numbers (reclaiming ring space if needed, see
    /// [`stage_many`](Self::stage_many)).  No transaction data touches the
    /// device yet.
    ///
    /// Callers that snapshot shared state into the transaction (the bitmap)
    /// call `stage` while still holding the lock guarding that state, so
    /// snapshot order and replay (sequence) order agree; the expensive half
    /// ([`complete`](Self::complete)) then runs outside that lock.  Returns
    /// `None` for an empty transaction.
    pub fn stage<D: BlockDevice>(&self, dev: &D, tx: Tx) -> JournalResult<Option<StagedTx>> {
        Ok(self.stage_many(dev, vec![tx])?.pop())
    }

    /// [`stage`](Self::stage) for a whole batch under a **single** log-state
    /// hold: every transaction gets its own slot run and sequence numbers
    /// (consecutive, in `txs` order), so each replays independently, but the
    /// lock acquisition and any ring-space reclaim are paid once for the
    /// batch.  A full ring waits for the checkpoint in flight, re-checks,
    /// and checkpoints itself only if it is still full; the log state is not
    /// held meanwhile.  Empty transactions are skipped.  On [`JournalError::Full`]
    /// nothing was allocated — the batch must fit the ring whole, so callers
    /// split oversized batches (see [`slots_for_targets`](Self::slots_for_targets)).
    pub fn stage_many<D: BlockDevice>(
        &self,
        dev: &D,
        txs: Vec<Tx>,
    ) -> JournalResult<Vec<StagedTx>> {
        let txs: Vec<Tx> = txs.into_iter().filter(|t| !t.is_empty()).collect();
        if txs.is_empty() {
            return Ok(Vec::new());
        }
        let _s = span::span(span::Phase::JournalStage);
        let needed: u64 = txs
            .iter()
            .map(|t| slots_for(t.len(), self.geo.block_size))
            .sum();
        let state = &mut *self.reserve(dev, needed)?;
        let staged = txs
            .into_iter()
            .map(|tx| {
                let nslots = slots_for(tx.len(), self.geo.block_size);
                Self::stage_locked(state, &self.geo, tx, nslots)
            })
            .collect();
        self.publish_occupancy(state);
        Ok(staged)
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
        });
        StagedTx {
            tx,
            first_seq,
            first_slot,
            nslots,
        }
    }

    /// Ring slots a transaction carrying `n` target blocks would occupy.
    /// Callers batching transactions for [`stage_many`](Self::stage_many)
    /// use this to keep a batch within the ring.
    pub fn slots_for_targets(&self, n: usize) -> u64 {
        slots_for(n, self.geo.block_size)
    }

    /// Second half of a commit: [`persist`](Self::persist) (the commit
    /// point) followed by [`apply`](Self::apply).
    ///
    /// An error after the flush step means the transaction may replay on the
    /// next mount even though the caller sees a failure — the usual fsync
    /// contract (a failed commit is *allowed* to be durable, never required).
    pub fn complete<D: BlockDevice>(&self, dev: &D, staged: StagedTx) -> JournalResult<()> {
        self.persist(dev, &staged)?;
        self.apply(dev, staged, || Ok(()))
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
        self.persist_many(dev, std::slice::from_ref(staged))
    }

    /// [`persist`](Self::persist) for a whole batch: seal every staged
    /// transaction's slot run, submit them as **one** device write, and wait
    /// for **one** group flush covering the entire batch — the shared commit
    /// point.  Each transaction keeps its own slot run and commit record, so
    /// replay still treats them independently; only the submission and the
    /// flush are amortized.
    ///
    /// On an error the whole batch is abandoned (every transaction's slots
    /// marked reclaimable) and the caller must treat all of them as failed —
    /// the batch shares one commit point, so there is no per-transaction
    /// partial success.
    pub fn persist_many<D: BlockDevice>(&self, dev: &D, staged: &[StagedTx]) -> JournalResult<()> {
        if staged.is_empty() {
            return Ok(());
        }
        // On any failure before the flush returns, the transactions' slots
        // stay allocated but hold garbage (or never-committed runs); mark
        // them immediately reclaimable so the ring is not wedged.
        let abandon = |err: JournalError| -> JournalError {
            let state = &mut *self.state.lock();
            for s in staged {
                if let Some(t) = state.live.iter_mut().find(|t| t.first_seq == s.first_seq) {
                    t.reclaimable_at = 0;
                }
            }
            err
        };

        let total_slots: u64 = staged.iter().map(|s| s.nslots).sum();
        let mut blocks = Vec::with_capacity(total_slots as usize);
        let mut images = Vec::with_capacity(total_slots as usize * self.geo.block_size);
        for s in staged {
            self.seal_run(s, &mut blocks, &mut images);
        }
        dev.write_blocks(&blocks, &images)
            .map_err(|e| abandon(e.into()))?;

        // The group flush is the commit point (for the whole batch).
        self.gate.flush_covering(dev).map_err(abandon)?;
        Ok(())
    }

    /// Seal one staged transaction's slot run — interleaved intents and
    /// payloads, then the commit record — appending the ring blocks and
    /// sealed images to `blocks` / `images`.
    fn seal_run(&self, staged: &StagedTx, blocks: &mut Vec<u64>, images: &mut Vec<u8>) {
        let StagedTx {
            tx,
            first_seq,
            first_slot,
            nslots,
        } = staged;
        let (first_seq, first_slot, nslots) = (*first_seq, *first_slot, *nslots);
        let bs = self.geo.block_size;
        let n_targets = tx.len();
        let cap = intent_capacity(bs).max(1);
        let mut seq = first_seq;
        let mut slot = first_slot;
        let mut idx = 0usize;
        while idx < n_targets {
            let chunk_end = (idx + cap).min(n_targets);
            let chunk = &tx.writes[idx..chunk_end];
            // Payload seqs follow the intent's seq immediately.
            let mut entries = Vec::with_capacity(chunk.len());
            for (i, (target, image)) in chunk.iter().enumerate() {
                let payload_seq = seq + 1 + i as u64;
                entries.push((*target, self.keys.payload_check(image, payload_seq)));
            }
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
            images.extend_from_slice(&seal_slot(&self.keys, abs, &intent, bs));
            seq += 1;
            slot += 1;
            for (_, image) in chunk {
                let abs = self.geo.ring_block(slot);
                blocks.push(abs);
                images.extend_from_slice(&seal_payload(&self.keys, abs, image));
                seq += 1;
                slot += 1;
            }
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
        images.extend_from_slice(&seal_slot(&self.keys, abs, &commit_slot, bs));
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
        self.apply_many(dev, vec![staged], post_apply)
    }

    /// [`apply`](Self::apply) for a whole batch: one batched home-location
    /// submission covering every transaction's staged images (in batch
    /// order, so a later transaction's image wins on a shared block), one
    /// `post_apply`, then every transaction's slots become reclaimable at
    /// the same flush epoch.  A failure leaves the whole batch committed but
    /// un-checkpointed — replay redoes all of it.
    pub fn apply_many<D: BlockDevice, F: FnOnce() -> JournalResult<()>>(
        &self,
        dev: &D,
        staged: Vec<StagedTx>,
        post_apply: F,
    ) -> JournalResult<()> {
        if staged.is_empty() {
            return Ok(());
        }
        let _s = span::span(span::Phase::JournalApply);
        let bs = self.geo.block_size;
        let n: usize = staged.iter().map(|s| s.tx.len()).sum();
        let mut targets = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * bs);
        for s in &staged {
            for (block, image) in &s.tx.writes {
                targets.push(*block);
                data.extend_from_slice(image);
            }
        }
        dev.write_blocks(&targets, &data)?;
        post_apply()?;

        // The home writes become durable at the next flush that starts
        // after this point.
        let (completed, flushing) = self.gate.epoch();
        let durable_at = completed + 1 + u64::from(flushing);
        let state = &mut *self.state.lock();
        for s in &staged {
            if let Some(t) = state.live.iter_mut().find(|t| t.first_seq == s.first_seq) {
                t.reclaimable_at = durable_at;
            }
        }
        Ok(())
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

    /// Scan the journal region, redo every committed transaction, and reset
    /// the log.  Must run at mount, before any other structure is read.
    ///
    /// Replay needs **no user keys**: hidden-object payloads were staged as
    /// object-key ciphertext, so redoing them restores exactly the bytes the
    /// crashed commit meant to write, and wrong-key lookups after replay
    /// remain indistinguishable from never-existed objects.
    pub fn replay<D: BlockDevice>(&self, dev: &D) -> JournalResult<ReplayReport> {
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

        // Read the whole ring (in bounded batches) and classify each slot.
        let mut raws: Vec<Vec<u8>> = Vec::with_capacity(ring as usize);
        const BATCH: u64 = 256;
        let mut at = 0u64;
        while at < ring {
            let n = BATCH.min(ring - at);
            let blocks: Vec<u64> = (at..at + n).map(|s| self.geo.ring_block(s)).collect();
            let mut buf = vec![0u8; n as usize * bs];
            dev.read_blocks(&blocks, &mut buf)?;
            for i in 0..n as usize {
                raws.push(buf[i * bs..(i + 1) * bs].to_vec());
            }
            at += n;
        }
        let decoded: Vec<Option<Slot>> = raws
            .iter()
            .enumerate()
            .map(|(s, raw)| open_slot(&self.keys, self.geo.ring_block(s as u64), raw))
            .collect();

        // Walk every intent that opens a transaction (first_index == 0).
        let mut committed: Vec<(u64, TxWrites)> = Vec::new();
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
                Some(writes) => committed.push((first_seq, writes)),
                None => discarded += 1,
            }
        }

        // Redo in sequence order; later transactions win on shared blocks.
        committed.sort_by_key(|(seq, _)| *seq);
        let mut recovered = 0usize;
        for (_, writes) in &committed {
            let (targets, data) = flatten_writes(writes, bs);
            recovered += targets.len();
            dev.write_blocks(&targets, &data)?;
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
    /// Returns its `(target, image)` list if every intent, payload and the
    /// commit slot check out; `None` for anything torn or incomplete.
    fn walk_tx(
        &self,
        decoded: &[Option<Slot>],
        raws: &[Vec<u8>],
        start: u64,
        first_seq: u64,
        n_targets: u32,
    ) -> Option<TxWrites> {
        let ring = self.geo.ring_slots();
        let total = slots_for(n_targets as usize, self.geo.block_size);
        if total > ring {
            return None;
        }
        let mut writes = Vec::with_capacity(n_targets as usize);
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
            for (target, check) in &slot_targets {
                let raw = &raws[(cursor % ring) as usize];
                let image = open_payload(&self.keys, self.geo.ring_block(cursor), raw);
                if self.keys.payload_check(&image, seq) != *check {
                    return None;
                }
                writes.push((*target, image));
                cursor += 1;
                seq += 1;
                idx += 1;
            }
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
                Some(writes)
            }
            _ => None,
        }
    }
}

/// Flatten `(block, image)` pairs into the parallel arrays
/// [`BlockDevice::write_blocks`] takes.
fn flatten_writes(writes: &[(u64, Vec<u8>)], block_size: usize) -> (Vec<u64>, Vec<u8>) {
    let mut targets = Vec::with_capacity(writes.len());
    let mut data = Vec::with_capacity(writes.len() * block_size);
    for (block, image) in writes {
        targets.push(*block);
        data.extend_from_slice(image);
    }
    (targets, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stegfs_blockdev::MemBlockDevice;

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

    #[test]
    fn commit_applies_and_replay_is_idempotent() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(100, vec![0xaa; BS]);
        tx.write(101, vec![0xbb; BS]);
        tx.write(100, vec![0xac; BS]); // last write wins
        journal.commit(&dev, tx).unwrap();
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
        tx.write(100, vec![0x11; BS]);
        tx.write(110, vec![0x22; BS]);
        journal.commit(&dev, tx).unwrap();
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
        tx.write(100, vec![0x77; BS]);
        journal.commit(&dev, tx).unwrap();
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
        tx.write(120, vec![9; BS]);
        journal.commit(&dev, tx).unwrap();
        journal.sync(&dev).unwrap();
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report, ReplayReport::default());
        assert_eq!(dev.read_block_vec(120).unwrap(), vec![9; BS]);
    }

    #[test]
    fn flush_barrier_is_durable_but_not_a_checkpoint() {
        let (dev, journal) = fixture(32, 128);
        let mut tx = Tx::new();
        tx.write(120, vec![9; BS]);
        journal.commit(&dev, tx).unwrap();
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
            tx.write(100 + (i % 8), vec![i as u8; BS]);
            tx.write(120 + (i % 8), vec![i as u8 ^ 0xff; BS]);
            journal.commit(&dev, tx).unwrap();
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
            tx.write(100 + b, vec![1; BS]);
        }
        match journal.commit(&dev, tx) {
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
            tx.write(200 + i, vec![(i % 251) as u8; BS]);
        }
        journal.commit(&dev, tx).unwrap();
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
    fn batched_staging_replays_each_tx_independently() {
        let (dev, journal) = fixture(64, 256);
        let txs: Vec<Tx> = (0..3u64)
            .map(|i| {
                let mut tx = Tx::new();
                tx.write(100 + i * 4, vec![i as u8 + 1; BS]);
                tx.write(101 + i * 4, vec![i as u8 + 0x11; BS]);
                tx
            })
            .collect();
        let staged = journal.stage_many(&dev, txs).unwrap();
        assert_eq!(staged.len(), 3);
        journal.persist_many(&dev, &staged).unwrap();
        // Crash before the apply: home blocks never written, but all three
        // transactions share the durable commit point and must replay — each
        // as its own transaction.
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

    #[test]
    fn batched_apply_checkpoints_like_singles() {
        let (dev, journal) = fixture(64, 256);
        let txs: Vec<Tx> = (0..4u64)
            .map(|i| {
                let mut tx = Tx::new();
                tx.write(140 + i, vec![0x40 + i as u8; BS]);
                tx
            })
            .collect();
        let staged = journal.stage_many(&dev, txs).unwrap();
        journal.persist_many(&dev, &staged).unwrap();
        journal.apply_many(&dev, staged, || Ok(())).unwrap();
        for i in 0..4u64 {
            assert_eq!(
                dev.read_block_vec(140 + i).unwrap(),
                vec![0x40 + i as u8; BS]
            );
        }
        // After a full sync the batch is reclaimed exactly like individually
        // committed transactions: replay finds an empty log.
        journal.sync(&dev).unwrap();
        let report = reopen(&journal).replay(&dev).unwrap();
        assert_eq!(report, ReplayReport::default());
    }

    #[test]
    fn batched_stage_rejects_overfull_batch_atomically() {
        let (dev, journal) = fixture(ANCHOR_SLOTS + 8, 256);
        // Each 2-target tx takes 4 slots; four of them need 16 > 8 ring slots.
        let txs: Vec<Tx> = (0..4u64)
            .map(|i| {
                let mut tx = Tx::new();
                tx.write(100 + i * 2, vec![1; BS]);
                tx.write(101 + i * 2, vec![2; BS]);
                tx
            })
            .collect();
        match journal.stage_many(&dev, txs) {
            Err(JournalError::Full { .. }) => {}
            other => panic!("expected Full, got {:?}", other.map(|v| v.len())),
        }
        // Nothing was allocated: a ring-sized single tx still stages fine.
        let mut tx = Tx::new();
        tx.write(100, vec![3; BS]);
        journal.commit(&dev, tx).unwrap();
        assert_eq!(dev.read_block_vec(100).unwrap(), vec![3; BS]);
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
                        tx.write(1024 + t * 32 + (i % 32), vec![t as u8; BS]);
                        journal.commit(dev.as_ref(), tx).unwrap();
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

    /// A memory device whose flushes take `delay`, so concurrent gate
    /// visitors pile up behind them, and fail when their 1-based number
    /// (the format's flush is number 1) is listed in `fail`.  Flush number
    /// `park` (0: none) first waits for [`SlowFlush::release`].  Writes to
    /// the anchor slots (the fixtures' region starts at block 1) are counted
    /// per flush epoch: since the last flush started.
    struct SlowFlush {
        mem: MemBlockDevice,
        delay: std::time::Duration,
        flushes: AtomicU64,
        fail: Vec<u64>,
        park: u64,
        /// `(a flush is parked, the park was released)`.
        parked: Mutex<(bool, bool)>,
        cv: Condvar,
        epoch_anchors: AtomicU64,
        max_epoch_anchors: AtomicU64,
    }

    impl SlowFlush {
        fn wait_parked(&self) {
            let mut g = self.parked.lock();
            while !g.0 {
                g = self.cv.wait(g);
            }
        }

        fn release(&self) {
            self.parked.lock().1 = true;
            self.cv.notify_all();
        }
    }

    impl BlockDevice for SlowFlush {
        fn block_size(&self) -> usize {
            self.mem.block_size()
        }
        fn total_blocks(&self) -> u64 {
            self.mem.total_blocks()
        }
        fn read_block(&self, block: u64, buf: &mut [u8]) -> stegfs_blockdev::BlockResult<()> {
            self.mem.read_block(block, buf)
        }
        fn write_block(&self, block: u64, buf: &[u8]) -> stegfs_blockdev::BlockResult<()> {
            if (1..1 + ANCHOR_SLOTS).contains(&block) {
                let n = self.epoch_anchors.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_epoch_anchors.fetch_max(n, Ordering::SeqCst);
            }
            self.mem.write_block(block, buf)
        }
        fn flush(&self) -> stegfs_blockdev::BlockResult<()> {
            let n = self.flushes.fetch_add(1, Ordering::SeqCst) + 1;
            self.epoch_anchors.store(0, Ordering::SeqCst);
            if n == self.park {
                let mut g = self.parked.lock();
                g.0 = true;
                self.cv.notify_all();
                while !g.1 {
                    g = self.cv.wait(g);
                }
            }
            std::thread::sleep(self.delay);
            if self.fail.contains(&n) {
                return Err(std::io::Error::other("scripted flush failure").into());
            }
            Ok(())
        }
    }

    /// A formatted journal of `blocks` blocks over a [`SlowFlush`], its gate
    /// metrics enabled.
    fn slow_journal(
        delay_ms: u64,
        fail: Vec<u64>,
        park: u64,
        blocks: u64,
    ) -> (Arc<SlowFlush>, Arc<Journal>) {
        let dev = Arc::new(SlowFlush {
            mem: MemBlockDevice::new(BS, 2048),
            delay: std::time::Duration::from_millis(delay_ms),
            flushes: AtomicU64::new(0),
            fail,
            park,
            parked: Mutex::new((false, false)),
            cv: Condvar::new(),
            epoch_anchors: AtomicU64::new(0),
            max_epoch_anchors: AtomicU64::new(0),
        });
        let geo = JournalGeometry {
            start: 1,
            blocks,
            block_size: BS,
        };
        let journal = Journal::format(geo, 1, dev.as_ref()).unwrap();
        // The format writes both anchors in one epoch on purpose.
        dev.max_epoch_anchors.store(0, Ordering::SeqCst);
        (dev, Arc::new(journal))
    }

    fn slow_gate(delay_ms: u64, fail: Vec<u64>) -> (Arc<SlowFlush>, Arc<Journal>) {
        slow_journal(delay_ms, fail, 0, 32)
    }

    fn one_block_tx(block: u64, byte: u8) -> Tx {
        let mut tx = Tx::new();
        tx.write(block, vec![byte; BS]);
        tx
    }

    /// Run `f` over clones of the fixture on a new thread.
    fn on_a_thread<T: Send + 'static>(
        dev: &Arc<SlowFlush>,
        journal: &Arc<Journal>,
        f: impl FnOnce(&SlowFlush, &Journal) -> T + Send + 'static,
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
        let (dev, journal) = slow_gate(50, vec![2]);
        let leader = on_a_thread(&dev, &journal, |dev, journal| journal.flush_barrier(dev));
        while dev.flushes.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let waiter = on_a_thread(&dev, &journal, |dev, journal| journal.flush_barrier(dev));
        assert!(leader.join().unwrap().is_err());
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(dev.flushes.load(Ordering::SeqCst), 3, "no extra flush");
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
        let (dev, journal) = slow_journal(0, Vec::new(), 4, 32);
        journal.commit(dev.as_ref(), one_block_tx(100, 1)).unwrap();
        let sync = on_a_thread(&dev, &journal, |dev, journal| journal.sync(dev));
        dev.wait_parked();
        // The run stays counted while its anchor is in flight.
        assert_eq!(journal.occupancy().0, 3);
        let (send, staged) = std::sync::mpsc::channel();
        on_a_thread(&dev, &journal, move |dev, journal| {
            send.send(journal.stage(dev, one_block_tx(101, 2))).unwrap()
        });
        let staged = staged.recv_timeout(std::time::Duration::from_secs(5));
        dev.release();
        let staged = staged
            .expect("a stage waited for the anchor flush")
            .unwrap()
            .unwrap();
        sync.join().unwrap().unwrap();
        assert_eq!(journal.occupancy().0, 3, "the run retired after its anchor");
        journal.complete(dev.as_ref(), staged).unwrap();
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
        let (dev, journal) = slow_journal(1, Vec::new(), 0, ANCHOR_SLOTS + 256);
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
                        journal
                            .commit(dev.as_ref(), one_block_tx(block, t as u8))
                            .unwrap();
                    }
                });
            }
        });
        let (ran, skipped) = (ran.into_inner(), skipped.into_inner());
        assert!(ran > 0, "the ring never reached the steal line");
        assert!(skipped > 0, "no committer found a checkpoint in flight");
        assert_eq!(
            dev.max_epoch_anchors.load(Ordering::SeqCst),
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
        let (dev, journal) = slow_journal(0, vec![4], 4, 32);
        journal.commit(dev.as_ref(), one_block_tx(100, 1)).unwrap();
        let tail = journal.state.lock().durable_tail_seq;
        let sync = on_a_thread(&dev, &journal, |dev, journal| journal.sync(dev));
        dev.wait_parked();
        // A committer stages in the window and waits at the gate behind
        // the parked flush; it commits with the next one.
        let committer = on_a_thread(&dev, &journal, |dev, journal| {
            journal.commit(dev, one_block_tx(101, 2))
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while journal.occupancy().0 < 6 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let staged_in_window = journal.occupancy().0 == 6;
        dev.release();
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
