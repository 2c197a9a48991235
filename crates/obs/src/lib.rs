//! # stegfs-obs — deniability-safe observability for the StegFS stack
//!
//! A zero-dependency (std only), `&self`-friendly metrics layer threaded
//! through every tier of the filesystem: sharded log-linear latency
//! [`Histogram`]s, a per-layer metrics registry ([`Obs`]), the workspace's
//! one lock module ([`lock`]: `Mutex`, `RwLock` and `Condvar`, anonymous or
//! contention-accounted in a named family, with one poison rule and the
//! stack's lock-order table), and causal per-request phase tracing
//! ([`span`]): a thread-local request context installed at engine
//! admission accumulates a tree of timed phases (`queue_wait`,
//! `uak_shard`, `journal_stage`, `gate_flush`, `device_io`, ...) that
//! feeds the per-op [`AttributionStats`] table, the worst-N
//! [`SlowCapture`] ring, and the chrome://tracing exporter
//! ([`TraceCapture`] + [`chrome_trace_json`]). One more thread-local,
//! [`blocking`], lets the engine's pool hear when a worker parks in the
//! journal's commit gate.
//!
//! # Deniability contract
//!
//! The same bar the read cache meets, applied to instrumentation:
//!
//! - **Metric names and shapes are static and key-independent.** Every
//!   metric name — including every span phase label
//!   ([`span::PHASE_NAMES`]) — is a `&'static str` baked into the binary;
//!   the set of metrics, histogram bucket layout, and JSON keys of a
//!   [`Snapshot`] or attribution table are identical for an empty volume
//!   and one stuffed with hidden objects. An adversary diffing two
//!   snapshots learns aggregate load, never *which* objects exist.
//! - **Values never embed secrets.** Counters, histograms, and captured
//!   span trees carry only counts and durations — no object signatures,
//!   keys, paths, plaintext, or block addresses of hidden objects are
//!   ever recorded.
//! - **Span/request ids are ephemeral counters.** Every request id is
//!   drawn from one process-global monotonic `u64` counter at admission
//!   ([`span::request_begin`]); ids are never derived from key material,
//!   access keys, or object identity, so a captured id relates requests
//!   only by order.
//! - **RAM only.** Nothing here is ever persisted to the volume; the disk
//!   image is bit-identical whether a chrome-trace capture runs or not, and
//!   whether the registry is snapshotted or reset between requests.
//! - **Captured span trees zeroize** on `signoff`/unmount via
//!   [`SlowCapture::zeroize`] and [`TraceCapture::zeroize`] — the worst-N
//!   capture holds whole request trees, so it is scrubbed with the same
//!   discipline as plaintext caches.

#![forbid(unsafe_code)]

pub mod blocking;
mod capture;
mod hist;
pub mod lock;
pub mod span;

pub use capture::{
    chrome_trace_json, CaptureEvent, SlowCapture, SlowEntry, TraceCapture, SLOW_PER_OP,
};
pub use hist::{HistSummary, Histogram, NUM_BUCKETS};
pub use lock::{LockStats, LockSummary};
pub use span::{FinishedRequest, Phase, SpanRecord, PHASE_COUNT, PHASE_NAMES};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Static labels for the engine's request taxonomy, in wire order. The
/// engine maps each request variant to an index into this table.
pub const ENGINE_OPS: [&str; 12] = [
    "open", "close", "read", "read_at", "write", "write_at", "seek", "stat", "readdir", "unlink",
    "fsync", "sync_all",
];

/// Block-device level counters and latency histograms.
#[derive(Default)]
pub struct DeviceStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub flushes: AtomicU64,
    pub blocks_read: AtomicU64,
    pub blocks_written: AtomicU64,
    /// Blocks per read submission.
    pub read_batch: Histogram,
    /// Blocks per write submission.
    pub write_batch: Histogram,
    pub read_ns: Histogram,
    pub write_ns: Histogram,
    pub flush_ns: Histogram,
}

impl DeviceStats {
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.flushes.store(0, Ordering::Relaxed);
        self.blocks_read.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.read_batch.reset();
        self.write_batch.reset();
        self.read_ns.reset();
        self.write_ns.reset();
        self.flush_ns.reset();
    }

    pub fn summary(&self) -> DeviceSummary {
        DeviceSummary {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            read_batch: self.read_batch.summary(),
            write_batch: self.write_batch.summary(),
            read_ns: self.read_ns.summary(),
            write_ns: self.write_ns.summary(),
            flush_ns: self.flush_ns.summary(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceSummary {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    pub read_batch: HistSummary,
    pub write_batch: HistSummary,
    pub read_ns: HistSummary,
    pub write_ns: HistSummary,
    pub flush_ns: HistSummary,
}

impl DeviceSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"reads\": {}, \"writes\": {}, \"flushes\": {}, \"blocks_read\": {}, \"blocks_written\": {}, \"read_batch\": {}, \"write_batch\": {}, \"read_latency\": {}, \"write_latency\": {}, \"flush_latency\": {}}}",
            self.reads,
            self.writes,
            self.flushes,
            self.blocks_read,
            self.blocks_written,
            self.read_batch.to_json(),
            self.write_batch.to_json(),
            self.read_ns.to_json(),
            self.write_ns.to_json(),
            self.flush_ns.to_json()
        )
    }
}

/// Journal group-commit gate metrics: how many transactions each physical
/// flush covers, and how long callers stall waiting for coverage.
#[derive(Default)]
pub struct GateStats {
    /// Physical `dev.flush()` calls issued by gate leaders.
    pub flushes: AtomicU64,
    /// Callers satisfied per physical flush (leader + waiters).
    pub batch: Histogram,
    /// Per-caller time from entering the gate to coverage.
    pub stall_ns: Histogram,
}

impl GateStats {
    pub fn reset(&self) {
        self.flushes.store(0, Ordering::Relaxed);
        self.batch.reset();
        self.stall_ns.reset();
    }

    pub fn summary(&self) -> GateSummary {
        GateSummary {
            flushes: self.flushes.load(Ordering::Relaxed),
            batch: self.batch.summary(),
            stall_ns: self.stall_ns.summary(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GateSummary {
    pub flushes: u64,
    pub batch: HistSummary,
    pub stall_ns: HistSummary,
}

impl GateSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"flushes\": {}, \"batch\": {}, \"stall\": {}}}",
            self.flushes,
            self.batch.to_json(),
            self.stall_ns.to_json()
        )
    }
}

/// Read-cache operation latencies. Hit/miss/evict/zeroize counts are the
/// `count` fields of the respective histograms; derived-key lookups are
/// plain counts (a miss's latency is the `key_derive` phase).
///
/// The three block histograms count blocks, but the cache reads the clock
/// once per batched call, not per block: each call records its per-block
/// mean once for every block it served (`Histogram::record_n`).  Counts
/// therefore equal the cache's block counters exactly, totals equal the
/// timed calls' sum, and a percentile describes calls weighted by their
/// block count, not single blocks.
#[derive(Default)]
pub struct ReadCacheStats {
    /// Block hits: per-block mean of the lookup call that served them.
    pub hit_ns: Histogram,
    /// Block misses: per-block mean of the lookup call that missed them.
    pub miss_ns: Histogram,
    /// Evictions: per-block mean of the insert call that evicted them.
    pub evict_ns: Histogram,
    /// One record per invalidation or purge sweep.
    pub zeroize_ns: Histogram,
    /// Key-set lookups served from the derived-key cache.
    pub key_hits: AtomicU64,
    /// Key-set lookups that ran the pass-phrase derivation.
    pub key_misses: AtomicU64,
}

impl ReadCacheStats {
    pub fn reset(&self) {
        self.hit_ns.reset();
        self.miss_ns.reset();
        self.evict_ns.reset();
        self.zeroize_ns.reset();
        self.key_hits.store(0, Ordering::Relaxed);
        self.key_misses.store(0, Ordering::Relaxed);
    }

    pub fn summary(&self) -> ReadCacheSummary {
        ReadCacheSummary {
            hit_ns: self.hit_ns.summary(),
            miss_ns: self.miss_ns.summary(),
            evict_ns: self.evict_ns.summary(),
            zeroize_ns: self.zeroize_ns.summary(),
            key_hits: self.key_hits.load(Ordering::Relaxed),
            key_misses: self.key_misses.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCacheSummary {
    pub hit_ns: HistSummary,
    pub miss_ns: HistSummary,
    pub evict_ns: HistSummary,
    pub zeroize_ns: HistSummary,
    pub key_hits: u64,
    pub key_misses: u64,
}

impl ReadCacheSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hit\": {}, \"miss\": {}, \"evict\": {}, \"zeroize\": {}, \"key_hits\": {}, \"key_misses\": {}}}",
            self.hit_ns.to_json(),
            self.miss_ns.to_json(),
            self.evict_ns.to_json(),
            self.zeroize_ns.to_json(),
            self.key_hits,
            self.key_misses
        )
    }
}

/// Request-engine metrics: queue depth high-water mark and per-op-type
/// latency (submit → completion) plus overall service time.
#[derive(Default)]
pub struct EngineStats {
    pub queue_depth_hwm: AtomicU64,
    /// Submit-to-completion latency, one histogram per [`ENGINE_OPS`] entry.
    pub latency: [Histogram; ENGINE_OPS.len()],
    /// Execution time only (dequeue → result), all ops merged.
    pub service_ns: Histogram,
}

impl EngineStats {
    /// Raise the queue-depth high-water mark to at least `depth`.
    #[inline]
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one completed request by [`ENGINE_OPS`] index.
    #[inline]
    pub fn record_completion(&self, op: usize, latency_ns: u64, service_ns: u64) {
        if let Some(h) = self.latency.get(op) {
            h.record(latency_ns);
        }
        self.service_ns.record(service_ns);
    }

    pub fn reset(&self) {
        self.queue_depth_hwm.store(0, Ordering::Relaxed);
        for h in &self.latency {
            h.reset();
        }
        self.service_ns.reset();
    }

    pub fn summary(&self) -> EngineSummary {
        EngineSummary {
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            latency: self.latency.iter().map(Histogram::summary).collect(),
            service_ns: self.service_ns.summary(),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct EngineSummary {
    pub queue_depth_hwm: u64,
    pub latency: Vec<HistSummary>,
    pub service_ns: HistSummary,
}

impl EngineSummary {
    pub fn to_json(&self) -> String {
        let mut ops = String::new();
        for (i, name) in ENGINE_OPS.iter().enumerate() {
            if i > 0 {
                ops.push_str(", ");
            }
            let summary = self.latency.get(i).copied().unwrap_or_default();
            ops.push_str(&format!("\"{}\": {}", name, summary.to_json()));
        }
        format!(
            "{{\"queue_depth_hwm\": {}, \"service\": {}, \"latency\": {{{}}}}}",
            self.queue_depth_hwm,
            self.service_ns.to_json(),
            ops
        )
    }
}

/// Per-request-type phase attribution: one self-time histogram per
/// ([`ENGINE_OPS`] op, [`span::Phase`]) pair, fed by the engine from each
/// finished request's span tree. Because spans record *self* time (nested
/// children subtracted), the per-phase totals of one op partition its
/// wall time — phase sums stay consistent with end-to-end percentiles.
pub struct AttributionStats {
    /// Row-major `[op][phase]` histograms of per-request phase self-time.
    hists: Vec<Histogram>,
}

impl Default for AttributionStats {
    fn default() -> Self {
        AttributionStats {
            hists: (0..ENGINE_OPS.len() * PHASE_COUNT)
                .map(|_| Histogram::new())
                .collect(),
        }
    }
}

impl AttributionStats {
    #[inline]
    fn slot(op: usize, phase: Phase) -> usize {
        op * PHASE_COUNT + phase.index()
    }

    /// Record one request's self-time in `phase` for op type `op`.
    #[inline]
    pub fn record(&self, op: usize, phase: Phase, self_ns: u64) {
        if let Some(h) = self.hists.get(Self::slot(op, phase)) {
            h.record(self_ns);
        }
    }

    /// The histogram for one (op, phase) cell.
    pub fn phase(&self, op: usize, phase: Phase) -> Option<&Histogram> {
        self.hists.get(Self::slot(op, phase))
    }

    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }

    /// Fixed-shape summary: every op × phase cell is always present.
    pub fn summary(&self) -> AttributionSummary {
        AttributionSummary {
            ops: ENGINE_OPS
                .iter()
                .enumerate()
                .map(|(op, name)| OpAttribution {
                    op: name,
                    phases: span::ALL_PHASES
                        .iter()
                        .map(|p| (p.name(), self.hists[Self::slot(op, *p)].summary()))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One op's per-phase self-time summaries, in [`span::ALL_PHASES`] order.
#[derive(Debug, Clone)]
pub struct OpAttribution {
    pub op: &'static str,
    pub phases: Vec<(&'static str, HistSummary)>,
}

/// Fixed-shape attribution table: all [`ENGINE_OPS`] × all phases, always.
#[derive(Debug, Clone)]
pub struct AttributionSummary {
    pub ops: Vec<OpAttribution>,
}

impl AttributionSummary {
    /// Summaries for one op by [`ENGINE_OPS`] name.
    pub fn op(&self, name: &str) -> Option<&OpAttribution> {
        self.ops.iter().find(|o| o.op == name)
    }

    /// Fixed-shape JSON: `{"<op>": {"<phase>": {hist}, ...}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {{", op.op));
            for (j, (phase, summary)) in op.phases.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", phase, summary.to_json()));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Digit-normalized [`Self::to_json`] (see [`Snapshot::shape`]).
    pub fn shape(&self) -> String {
        normalize_shape(&self.to_json())
    }
}

/// Journal-ring occupancy at or above this permille counts as a stall
/// sample for the watchdog.
pub const STALL_OCCUPANCY_PERMILLE: u64 = 800;

/// A gate flush stalling a committer longer than this flags a gate stall.
pub const GATE_STALL_THRESHOLD_NS: u64 = 50_000_000;

/// Stall-watchdog gauges: journal-ring occupancy and checkpoint liveness,
/// sampled by the checkpoint daemon's tick and by every checkpoint a
/// committer steals (so a volume without the daemon reads them too). All
/// values are plain load-shaped numbers.
pub struct WatchdogStats {
    epoch: Instant,
    /// Last sampled journal-ring occupancy (used slots / capacity, ‰).
    pub ring_occupancy_permille: AtomicU64,
    pub ring_occupancy_hwm_permille: AtomicU64,
    /// Epoch-ns of the last completed checkpoint; 0 = never.
    heartbeat_ns: AtomicU64,
    /// Checkpoints completed since the volume was attached: 0 tells "never
    /// checkpointed" apart from a heartbeat under a millisecond old.
    /// Like the stamp, it describes state, so [`Self::reset`] keeps it.
    checkpoints: AtomicU64,
    /// Checkpoints a committer ran itself on a nearly-full ring; a
    /// committer that found one already in flight skipped and is not
    /// counted.
    pub checkpoint_steals: AtomicU64,
    pub samples: AtomicU64,
    /// Samples flagged as stalled (occupancy or gate-stall threshold hit).
    pub stall_samples: AtomicU64,
}

impl Default for WatchdogStats {
    fn default() -> Self {
        WatchdogStats {
            epoch: Instant::now(),
            ring_occupancy_permille: AtomicU64::new(0),
            ring_occupancy_hwm_permille: AtomicU64::new(0),
            heartbeat_ns: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_steals: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            stall_samples: AtomicU64::new(0),
        }
    }
}

impl WatchdogStats {
    /// Record one watchdog tick: the current ring occupancy and whether the
    /// caller judged the system stalled.
    pub fn sample(&self, occupancy_permille: u64, stalled: bool) {
        self.ring_occupancy_permille
            .store(occupancy_permille, Ordering::Relaxed);
        self.ring_occupancy_hwm_permille
            .fetch_max(occupancy_permille, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        if stalled {
            self.stall_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stamp a completed checkpoint (daemon liveness heartbeat).
    pub fn heartbeat(&self) {
        self.heartbeat_ns.store(
            self.epoch.elapsed().as_nanos().max(1) as u64,
            Ordering::Relaxed,
        );
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// A committer ran a checkpoint of a nearly-full ring itself.
    pub fn note_steal(&self) {
        self.checkpoint_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Nanoseconds since the last checkpoint heartbeat; 0 when none yet
    /// (tell the two apart by [`WatchdogSummary::checkpoints`]).
    pub fn heartbeat_age_ns(&self) -> u64 {
        let at = self.heartbeat_ns.load(Ordering::Relaxed);
        if at == 0 {
            0
        } else {
            (self.epoch.elapsed().as_nanos() as u64).saturating_sub(at)
        }
    }

    /// Clear window-scoped counters (keeps the occupancy gauge, the
    /// heartbeat stamp and the checkpoint count, which describe current
    /// state, not a window).
    pub fn reset(&self) {
        self.ring_occupancy_hwm_permille.store(0, Ordering::Relaxed);
        self.checkpoint_steals.store(0, Ordering::Relaxed);
        self.samples.store(0, Ordering::Relaxed);
        self.stall_samples.store(0, Ordering::Relaxed);
    }

    pub fn summary(&self) -> WatchdogSummary {
        WatchdogSummary {
            ring_occupancy_permille: self.ring_occupancy_permille.load(Ordering::Relaxed),
            ring_occupancy_hwm_permille: self.ring_occupancy_hwm_permille.load(Ordering::Relaxed),
            heartbeat_age_ms: self.heartbeat_age_ns() / 1_000_000,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_steals: self.checkpoint_steals.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            stall_samples: self.stall_samples.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct WatchdogSummary {
    pub ring_occupancy_permille: u64,
    pub ring_occupancy_hwm_permille: u64,
    pub heartbeat_age_ms: u64,
    /// Checkpoints completed since attach; 0 = never checkpointed.
    pub checkpoints: u64,
    pub checkpoint_steals: u64,
    pub samples: u64,
    pub stall_samples: u64,
}

impl WatchdogSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ring_occupancy_permille\": {}, \"ring_occupancy_hwm_permille\": {}, \"checkpoint_heartbeat_age_ms\": {}, \"checkpoints\": {}, \"checkpoint_steals\": {}, \"samples\": {}, \"stall_samples\": {}}}",
            self.ring_occupancy_permille,
            self.ring_occupancy_hwm_permille,
            self.heartbeat_age_ms,
            self.checkpoints,
            self.checkpoint_steals,
            self.samples,
            self.stall_samples
        )
    }
}

/// The per-volume metrics registry. One [`Obs`] is created per mounted
/// volume and shared (via `Arc`) by every layer: the observed block device,
/// the plain filesystem's allocator and namespace locks, the journal's
/// log-state lock and commit gate, the read cache, the object/UAK shard
/// locks, and the request engine.
pub struct Obs {
    epoch: Instant,
    /// Allocator meta mutex (`fs.alloc`): policy, cursor, placement RNG.
    pub alloc_lock: Arc<LockStats>,
    /// Bitmap segment mutex families (`fs.alloc.<shard>`), one per sharded
    /// bitmap segment — the per-CPU-free-list style locks the write path
    /// actually claims blocks under.
    pub alloc_shards: Vec<Arc<LockStats>>,
    /// Plain-namespace rwlock (`fs.namespace`).
    pub namespace_lock: Arc<LockStats>,
    /// Journal log-state mutex (`journal.state`).
    pub journal_state: Arc<LockStats>,
    /// Hidden-object shard mutex family (`core.object_shards`).
    pub object_shards: Arc<LockStats>,
    /// UAK-directory shard mutex family (`core.uak_shards`).
    pub uak_shards: Arc<LockStats>,
    /// Engine submission-queue mutex (`engine.queue`).
    pub engine_queue: Arc<LockStats>,
    pub device: Arc<DeviceStats>,
    pub gate: Arc<GateStats>,
    pub readcache: Arc<ReadCacheStats>,
    pub engine: Arc<EngineStats>,
    /// Per-op × per-phase self-time attribution from request span trees.
    pub attribution: AttributionStats,
    /// Worst-N slow-request span trees per op type.
    pub slow: SlowCapture,
    /// Bounded whole-tree capture for the chrome-trace exporter.
    pub capture: TraceCapture,
    /// Stall watchdog gauges (journal occupancy, checkpoint liveness).
    pub watchdog: Arc<WatchdogStats>,
}

/// Fixed lock-metric names, in snapshot order.
pub const LOCK_NAMES: [&str; 6] = [
    "fs.alloc",
    "fs.namespace",
    "journal.state",
    "core.object_shards",
    "core.uak_shards",
    "engine.queue",
];

/// Number of sharded bitmap-segment lock families. Fixed so the snapshot
/// shape is static; the fs crate sizes its bitmap segments to match.
pub const ALLOC_SHARDS: usize = 8;

/// Fixed per-shard allocator lock names, appended after [`LOCK_NAMES`] in
/// snapshot order.
pub const ALLOC_SHARD_NAMES: [&str; ALLOC_SHARDS] = [
    "fs.alloc.0",
    "fs.alloc.1",
    "fs.alloc.2",
    "fs.alloc.3",
    "fs.alloc.4",
    "fs.alloc.5",
    "fs.alloc.6",
    "fs.alloc.7",
];

impl Obs {
    pub fn new() -> Arc<Self> {
        Arc::new(Obs {
            epoch: Instant::now(),
            alloc_lock: LockStats::new(),
            alloc_shards: (0..ALLOC_SHARDS).map(|_| LockStats::new()).collect(),
            namespace_lock: LockStats::new(),
            journal_state: LockStats::new(),
            object_shards: LockStats::new(),
            uak_shards: LockStats::new(),
            engine_queue: LockStats::new(),
            device: Arc::default(),
            gate: Arc::default(),
            readcache: Arc::default(),
            engine: Arc::default(),
            attribution: AttributionStats::default(),
            slow: SlowCapture::new(),
            capture: TraceCapture::new(),
            watchdog: Arc::default(),
        })
    }

    /// Nanoseconds since this registry was created (trace timestamps).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Feed one finished request's span tree into the attribution table,
    /// the slow-request capture, and (when active) the chrome-trace capture.
    /// `latency_ns` is the submit → completion latency; `worker` is the
    /// engine worker index (chrome `tid`).
    pub fn complete_request(&self, finished: &FinishedRequest, latency_ns: u64, worker: u32) {
        for s in &finished.spans {
            self.attribution.record(finished.op, s.phase, s.self_ns());
        }
        self.slow.offer(finished, latency_ns);
        if self.capture.is_active() {
            self.capture.append(finished, self.now_ns(), worker);
        }
    }

    /// Zero every counter and histogram and scrub the worst-N capture (an
    /// active chrome-trace capture keeps running). Used to scope a
    /// measurement window to e.g. one sweep pass.
    pub fn reset(&self) {
        self.alloc_lock.reset();
        for shard in &self.alloc_shards {
            shard.reset();
        }
        self.namespace_lock.reset();
        self.journal_state.reset();
        self.object_shards.reset();
        self.uak_shards.reset();
        self.engine_queue.reset();
        self.device.reset();
        self.gate.reset();
        self.readcache.reset();
        self.engine.reset();
        self.attribution.reset();
        self.slow.zeroize();
        self.watchdog.reset();
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            locks: LOCK_NAMES
                .iter()
                .zip([
                    &self.alloc_lock,
                    &self.namespace_lock,
                    &self.journal_state,
                    &self.object_shards,
                    &self.uak_shards,
                    &self.engine_queue,
                ])
                .map(|(name, stats)| (*name, stats.summary()))
                .chain(
                    ALLOC_SHARD_NAMES
                        .iter()
                        .zip(&self.alloc_shards)
                        .map(|(name, stats)| (*name, stats.summary())),
                )
                .collect(),
            device: self.device.summary(),
            gate: self.gate.summary(),
            readcache: self.readcache.summary(),
            engine: self.engine.summary(),
            watchdog: self.watchdog.summary(),
        }
    }
}

/// Point-in-time merged view of an [`Obs`] registry. The field set, lock
/// names, and JSON key structure are fixed at compile time (see the crate
/// deniability contract).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub locks: Vec<(&'static str, LockSummary)>,
    pub device: DeviceSummary,
    pub gate: GateSummary,
    pub readcache: ReadCacheSummary,
    pub engine: EngineSummary,
    pub watchdog: WatchdogSummary,
}

impl Snapshot {
    /// Summary for a named lock family from [`LOCK_NAMES`].
    pub fn lock(&self, name: &str) -> Option<&LockSummary> {
        self.locks.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// The lock JSON object: `{"fs.alloc": {...}, ...}`.
    pub fn locks_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, summary)) in self.locks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", name, summary.to_json()));
        }
        out.push('}');
        out
    }

    /// Full fixed-shape JSON export.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"locks\": {}, \"device\": {}, \"journal_gate\": {}, \"readcache\": {}, \"engine\": {}, \"watchdog\": {}}}",
            self.locks_json(),
            self.device.to_json(),
            self.gate.to_json(),
            self.readcache.to_json(),
            self.engine.to_json(),
            self.watchdog.to_json()
        )
    }

    /// The JSON with every integer value replaced by `N`: two snapshots
    /// have the same shape iff their normalized forms are equal. Metric
    /// keys survive normalization because they are identical on both sides
    /// by construction.
    pub fn shape(&self) -> String {
        normalize_shape(&self.to_json())
    }
}

/// Replace every digit run in `json` with `N` — the shape-comparison
/// normal form used by [`Snapshot::shape`] and [`AttributionSummary::shape`].
pub fn normalize_shape(json: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in json.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape_is_static() {
        let a = Obs::new();
        let b = Obs::new();
        // Wildly different activity...
        let alloc = lock::Mutex::with_stats((), a.alloc_lock.clone());
        for i in 0..500 {
            a.device.read_ns.record(i * 37);
            drop(alloc.lock());
            a.engine.record_completion((i % 12) as usize, i, i / 2);
        }
        b.gate.batch.record(3);
        // ...same shape.
        assert_eq!(a.snapshot().shape(), b.snapshot().shape());
    }

    #[test]
    fn snapshot_json_mentions_required_lock_names() {
        let json = Obs::new().snapshot().to_json();
        for name in LOCK_NAMES.iter().chain(ALLOC_SHARD_NAMES.iter()) {
            assert!(json.contains(name), "missing {name}");
        }
        assert!(json.contains("journal_gate"));
        assert!(json.contains("queue_depth_hwm"));
    }

    #[test]
    fn reset_scopes_measurement_window() {
        let obs = Obs::new();
        obs.device.reads.fetch_add(10, Ordering::Relaxed);
        obs.engine.note_queue_depth(7);
        obs.reset();
        let snap = obs.snapshot();
        assert_eq!(snap.device.reads, 0);
        assert_eq!(snap.engine.queue_depth_hwm, 0);
    }

    fn one_finished(op: usize, wall_ns: u64) -> FinishedRequest {
        span::request_begin(op);
        span::note(Phase::QueueWait, wall_ns / 4);
        {
            let _g = span::span(Phase::JournalStage);
            span::note(Phase::DeviceIo, 5);
        }
        let mut fin = span::request_end().unwrap();
        fin.wall_ns = wall_ns;
        fin
    }

    #[test]
    fn complete_request_feeds_attribution_and_slow_capture() {
        let obs = Obs::new();
        let fin = one_finished(5, 1_000);
        obs.complete_request(&fin, 1_200, 0);
        let attr = obs.attribution.summary();
        let write = attr.op("write_at").unwrap();
        let queue = write
            .phases
            .iter()
            .find(|(n, _)| *n == "queue_wait")
            .unwrap();
        assert_eq!(queue.1.count, 1);
        let stage = write
            .phases
            .iter()
            .find(|(n, _)| *n == "journal_stage")
            .unwrap();
        assert_eq!(stage.1.count, 1);
        assert_eq!(obs.slow.len(), 1);
        // Self-time discipline: the stage cell excludes the nested device io.
        let io_total = fin
            .spans
            .iter()
            .find(|s| s.phase == Phase::DeviceIo)
            .unwrap();
        assert_eq!(io_total.dur_ns, 5);
    }

    #[test]
    fn attribution_shape_is_static_and_full() {
        let a = Obs::new();
        let fin = one_finished(3, 2_000);
        a.complete_request(&fin, 2_000, 1);
        let b = Obs::new();
        assert_eq!(
            a.attribution.summary().shape(),
            b.attribution.summary().shape()
        );
        let json = b.attribution.summary().to_json();
        for op in ENGINE_OPS {
            assert!(json.contains(op));
        }
        for phase in PHASE_NAMES {
            assert!(json.contains(phase));
        }
    }

    #[test]
    fn watchdog_gauges_roll_up_into_snapshot() {
        let obs = Obs::new();
        obs.watchdog.sample(400, false);
        obs.watchdog.sample(850, true);
        obs.watchdog.heartbeat();
        obs.watchdog.note_steal();
        let snap = obs.snapshot();
        assert_eq!(snap.watchdog.ring_occupancy_permille, 850);
        assert_eq!(snap.watchdog.ring_occupancy_hwm_permille, 850);
        assert_eq!(snap.watchdog.samples, 2);
        assert_eq!(snap.watchdog.stall_samples, 1);
        assert_eq!(snap.watchdog.checkpoint_steals, 1);
        assert!(snap.to_json().contains("\"watchdog\""));
    }

    #[test]
    fn watchdog_counts_checkpoints_across_resets() {
        let obs = Obs::new();
        // Never checkpointed: the age reads 0 and so does the count.
        let fresh = obs.snapshot().watchdog;
        assert_eq!((fresh.heartbeat_age_ms, fresh.checkpoints), (0, 0));
        obs.watchdog.heartbeat();
        obs.watchdog.heartbeat();
        assert_eq!(obs.snapshot().watchdog.checkpoints, 2);
        // A window reset keeps it, as it keeps the heartbeat stamp.
        obs.reset();
        assert_eq!(obs.snapshot().watchdog.checkpoints, 2);
        assert!(obs.snapshot().to_json().contains("\"checkpoints\": 2"));
    }
}
