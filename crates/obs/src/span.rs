//! Causal per-request phase spans with implicit context propagation.
//!
//! The engine's workers are blocking threads: one worker carries one
//! request from dispatch to completion. That lets the request context be a
//! thread-local instead of a parameter threaded through every signature in
//! the stack — [`request_begin`] installs a request context on the worker
//! thread at admission, any layer below opens a phase span with [`span`]
//! (a no-op RAII guard when no request is active), and [`request_end`]
//! collects the finished tree.
//!
//! # Self-time accounting
//!
//! Spans nest: a `journal_stage` span encloses the `device_io` spans its
//! ring writes issue. Each span tracks the summed duration of its direct
//! children, and attribution uses **self time** (`dur - children`), so the
//! per-phase self-times of one request partition its wall time without
//! double counting — their sum never exceeds the end-to-end latency.
//!
//! # Deniability contract
//!
//! Phase labels are `&'static str` baked into the binary ([`PHASE_NAMES`]).
//! Request ids come from a process-global monotonic counter
//! ([`request_begin`] is the only allocator) — they are ephemeral `u64`s
//! never derived from key material, object signatures, or paths. Span
//! records carry only the phase index, tree position, and durations.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The fixed phase taxonomy. Adding a phase here (plus [`PHASE_NAMES`])
/// is the only way to introduce a new label — call sites cannot invent
/// dynamic names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Submission-queue wait, admission → dispatch (recorded by the engine
    /// as a closed span; it happens before the context exists).
    QueueWait = 0,
    /// Blocked acquiring a UAK-directory shard lock.
    UakShard = 1,
    /// Blocked acquiring a hidden-object shard lock.
    ObjectShard = 2,
    /// Block allocation (bitmap segment claims included).
    AllocClaim = 3,
    /// Journal ring staging (reclaim + slot encryption + ring write).
    JournalStage = 4,
    /// Group-commit gate: waiting for (or leading) the covering flush.
    GateFlush = 5,
    /// Journal apply: home-location writes after the commit point.
    JournalApply = 6,
    /// Block-device submissions (reads, writes, flushes).
    DeviceIo = 7,
    /// AES block encryption/decryption.
    Crypto = 8,
    /// Read-cache hit service.
    CacheHit = 9,
    /// Read-cache miss service (tagging only; the fill I/O shows up as
    /// nested `device_io`/`crypto` spans).
    CacheMiss = 10,
    /// Pass-phrase key derivation (PBKDF2) on a key-cache miss; a cached
    /// key set records nothing.
    KeyDerive = 11,
}

/// Number of phases in the taxonomy.
pub const PHASE_COUNT: usize = 12;

/// Static phase labels, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "queue_wait",
    "uak_shard",
    "object_shard",
    "alloc_claim",
    "journal_stage",
    "gate_flush",
    "journal_apply",
    "device_io",
    "crypto",
    "cache_hit",
    "cache_miss",
    "key_derive",
];

/// Every phase, in index order (for fixed-shape iteration).
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::QueueWait,
    Phase::UakShard,
    Phase::ObjectShard,
    Phase::AllocClaim,
    Phase::JournalStage,
    Phase::GateFlush,
    Phase::JournalApply,
    Phase::DeviceIo,
    Phase::Crypto,
    Phase::CacheHit,
    Phase::CacheMiss,
    Phase::KeyDerive,
];

impl Phase {
    #[inline]
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self as usize]
    }

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Hard cap on spans per request; further opens are counted as dropped so
/// truncation is visible, never silent. Bounds both the capture-ring entry
/// size and the per-request bookkeeping cost.
pub const MAX_SPANS: usize = 192;

/// `parent` sentinel for root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span in a request's tree. `start_ns` is the offset from
/// request dispatch; `child_ns` is the summed duration of direct children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub phase: Phase,
    /// Index of the parent span in the request's span list, or [`NO_PARENT`].
    pub parent: u32,
    /// Nesting depth at open time (0 = root).
    pub depth: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub child_ns: u64,
}

impl SpanRecord {
    /// Critical-path attribution: time spent in this phase itself, with
    /// nested child spans subtracted out.
    #[inline]
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// A finished request's span tree, handed back by [`request_end`].
#[derive(Debug, Clone)]
pub struct FinishedRequest {
    /// Ephemeral process-global request id (monotonic counter, never
    /// key-derived).
    pub req_id: u64,
    /// [`crate::ENGINE_OPS`] index of the request type.
    pub op: usize,
    /// Dispatch → end wall time in nanoseconds.
    pub wall_ns: u64,
    pub spans: Vec<SpanRecord>,
    /// Spans not recorded because [`MAX_SPANS`] was hit.
    pub dropped: u64,
}

struct RequestCtx {
    req_id: u64,
    op: usize,
    started: Instant,
    spans: Vec<SpanRecord>,
    /// Open span indices, innermost last.
    stack: Vec<u32>,
    dropped: u64,
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CTX: RefCell<Option<RequestCtx>> = const { RefCell::new(None) };
}

/// Install a request context on the current thread. Called by the engine
/// worker at dispatch; any previous context on this thread is discarded.
pub fn request_begin(op: usize) {
    let ctx = RequestCtx {
        req_id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
        op,
        started: Instant::now(),
        spans: Vec::with_capacity(32),
        stack: Vec::with_capacity(8),
        dropped: 0,
    };
    CTX.with(|c| *c.borrow_mut() = Some(ctx));
}

/// Tear down the current thread's request context and return the finished
/// tree, or `None` when no request was active. Spans left open (e.g. by a
/// panicking request) are force-closed at the request end time.
pub fn request_end() -> Option<FinishedRequest> {
    CTX.with(|c| c.borrow_mut().take()).map(|mut ctx| {
        let wall_ns = ctx.started.elapsed().as_nanos() as u64;
        while let Some(idx) = ctx.stack.pop() {
            let span = &mut ctx.spans[idx as usize];
            let dur = wall_ns.saturating_sub(span.start_ns);
            span.dur_ns = dur;
            let parent = span.parent;
            if parent != NO_PARENT {
                ctx.spans[parent as usize].child_ns += dur;
            }
        }
        FinishedRequest {
            req_id: ctx.req_id,
            op: ctx.op,
            wall_ns,
            spans: ctx.spans,
            dropped: ctx.dropped,
        }
    })
}

/// True when a request context is active on this thread.
pub fn is_active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// RAII phase span: opened by [`span`], closed (and attributed) on drop.
/// Inert when no request context is active, so instrumentation points can
/// call unconditionally.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// A guard that records nothing on drop.
    #[inline]
    pub fn inert() -> Self {
        SpanGuard { active: false }
    }
}

/// Open a phase span on the current request, if one is active.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    CTX.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return SpanGuard::inert();
        };
        if ctx.spans.len() >= MAX_SPANS {
            ctx.dropped += 1;
            return SpanGuard::inert();
        }
        let idx = ctx.spans.len() as u32;
        let parent = ctx.stack.last().copied().unwrap_or(NO_PARENT);
        let depth = ctx.stack.len().min(u8::MAX as usize) as u8;
        let start_ns = ctx.started.elapsed().as_nanos() as u64;
        ctx.spans.push(SpanRecord {
            phase,
            parent,
            depth,
            start_ns,
            dur_ns: 0,
            child_ns: 0,
        });
        ctx.stack.push(idx);
        SpanGuard { active: true }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CTX.with(|c| {
            let mut borrow = c.borrow_mut();
            let Some(ctx) = borrow.as_mut() else {
                return;
            };
            let Some(idx) = ctx.stack.pop() else {
                return;
            };
            let now = ctx.started.elapsed().as_nanos() as u64;
            let span = &mut ctx.spans[idx as usize];
            let dur = now.saturating_sub(span.start_ns);
            span.dur_ns = dur;
            let parent = span.parent;
            if parent != NO_PARENT {
                ctx.spans[parent as usize].child_ns += dur;
            }
        });
    }
}

/// Record an already-elapsed phase as a closed span ending now. Used for
/// phases measured out-of-band (the engine's `queue_wait`, the read
/// cache's hit/miss service times).
///
/// Consecutive notes of the same phase under the same parent coalesce
/// into one record: back-to-back cached lookups charge one `cache_hit`
/// span, not one each. The merge path is the hot one — no clock read, no allocation —
/// and attribution totals are unchanged (self-times simply sum).
pub fn note(phase: Phase, dur_ns: u64) {
    CTX.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return;
        };
        let parent = ctx.stack.last().copied().unwrap_or(NO_PARENT);
        if !ctx.spans.is_empty() {
            let last_idx = ctx.spans.len() - 1;
            // Only the current stack top (== parent) can still be open, so
            // excluding it guarantees the merge target is a closed leaf.
            let last = &ctx.spans[last_idx];
            if last_idx as u32 != parent && last.phase == phase && last.parent == parent {
                ctx.spans[last_idx].dur_ns += dur_ns;
                if parent != NO_PARENT {
                    ctx.spans[parent as usize].child_ns += dur_ns;
                }
                return;
            }
        }
        if ctx.spans.len() >= MAX_SPANS {
            ctx.dropped += 1;
            return;
        }
        let depth = ctx.stack.len().min(u8::MAX as usize) as u8;
        let now = ctx.started.elapsed().as_nanos() as u64;
        ctx.spans.push(SpanRecord {
            phase,
            parent,
            depth,
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            child_ns: 0,
        });
        if parent != NO_PARENT {
            ctx.spans[parent as usize].child_ns += dur_ns;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_noops_without_a_request() {
        assert!(!is_active());
        let g = span(Phase::DeviceIo);
        drop(g);
        note(Phase::QueueWait, 100);
        assert!(request_end().is_none());
    }

    #[test]
    fn nesting_attributes_self_time() {
        request_begin(5);
        {
            let _stage = span(Phase::JournalStage);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _io = span(Phase::DeviceIo);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let fin = request_end().expect("ctx active");
        assert_eq!(fin.op, 5);
        assert_eq!(fin.spans.len(), 2);
        let stage = fin.spans[0];
        let io = fin.spans[1];
        assert_eq!(stage.phase, Phase::JournalStage);
        assert_eq!(stage.parent, NO_PARENT);
        assert_eq!(io.phase, Phase::DeviceIo);
        assert_eq!(io.parent, 0);
        assert_eq!(io.depth, 1);
        // Parent self-time excludes the nested device span.
        assert_eq!(stage.child_ns, io.dur_ns);
        assert!(stage.self_ns() < stage.dur_ns);
        // Self times partition wall time.
        let self_sum: u64 = fin.spans.iter().map(SpanRecord::self_ns).sum();
        assert!(self_sum <= fin.wall_ns);
    }

    #[test]
    fn note_attaches_closed_spans() {
        request_begin(2);
        note(Phase::QueueWait, 1_000);
        {
            let _hit = span(Phase::CacheHit);
            note(Phase::Crypto, 10);
        }
        let fin = request_end().unwrap();
        assert_eq!(fin.spans.len(), 3);
        assert_eq!(fin.spans[0].phase, Phase::QueueWait);
        assert_eq!(fin.spans[0].dur_ns, 1_000);
        assert_eq!(fin.spans[0].parent, NO_PARENT);
        assert_eq!(fin.spans[2].phase, Phase::Crypto);
        assert_eq!(fin.spans[2].parent, 1);
        // The noted crypto time is charged to the enclosing span's children.
        assert_eq!(fin.spans[1].child_ns, 10);
    }

    #[test]
    fn request_ids_are_monotonic_counter_values() {
        request_begin(0);
        let a = request_end().unwrap().req_id;
        request_begin(0);
        let b = request_end().unwrap().req_id;
        assert!(b > a);
    }

    #[test]
    fn span_cap_counts_drops() {
        request_begin(0);
        // Alternate phases so runs never coalesce and the cap is reached.
        for i in 0..MAX_SPANS {
            note(
                if i % 2 == 0 {
                    Phase::DeviceIo
                } else {
                    Phase::Crypto
                },
                1,
            );
        }
        // Opens past the cap are counted, never silently discarded (notes
        // past the cap may still coalesce into the last same-phase record).
        for _ in 0..7 {
            let _g = span(Phase::GateFlush);
        }
        let fin = request_end().unwrap();
        assert_eq!(fin.spans.len(), MAX_SPANS);
        assert_eq!(fin.dropped, 7);
    }

    #[test]
    fn same_phase_leaf_notes_coalesce() {
        request_begin(3);
        {
            let _read = span(Phase::CacheMiss);
            for _ in 0..64 {
                note(Phase::CacheHit, 100);
            }
        }
        note(Phase::QueueWait, 5);
        note(Phase::QueueWait, 5);
        let fin = request_end().unwrap();
        // 64 per-block hits merged into one record under the open span,
        // two root queue_wait notes merged into one.
        assert_eq!(fin.spans.len(), 3);
        let hit = fin.spans[1];
        assert_eq!(hit.phase, Phase::CacheHit);
        assert_eq!(hit.dur_ns, 6_400);
        assert_eq!(hit.parent, 0);
        assert_eq!(fin.spans[0].child_ns, 6_400);
        assert_eq!(fin.spans[2].dur_ns, 10);
        // Totals are what per-block records would have summed to.
        assert!(fin.spans[0].self_ns() <= fin.spans[0].dur_ns);
    }

    #[test]
    fn unwound_requests_force_close_open_spans() {
        request_begin(1);
        let g = span(Phase::GateFlush);
        // Simulate a panic unwinding past the guard by leaking it.
        std::mem::forget(g);
        let fin = request_end().unwrap();
        assert_eq!(fin.spans.len(), 1);
        // Force-closed at request end, not left zero-duration forever open.
        assert!(fin.spans[0].dur_ns <= fin.wall_ns);
    }

    #[test]
    fn phase_names_cover_taxonomy() {
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.name(), PHASE_NAMES[i]);
        }
    }
}
