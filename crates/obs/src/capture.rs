//! RAM-only captures of whole span trees: the slow-request ring (worst-N
//! per request type) and the bounded chrome-trace capture buffer.
//!
//! # Deniability contract
//!
//! Same bar as every other metric: entries carry static labels, ephemeral
//! counter-derived request ids, and durations — never key material, paths,
//! plaintext, or hidden block addresses. Capacities and entry shapes are
//! fixed at construction, so what the structures *can* hold is independent
//! of what the workload touched. Both zeroize on `signoff` and unmount via
//! [`SlowCapture::zeroize`] / [`TraceCapture::zeroize`]; nothing is ever
//! persisted to the volume.

use std::hint::black_box;

use crate::lock::Mutex;

use crate::span::{FinishedRequest, SpanRecord};
use crate::ENGINE_OPS;

/// Worst-N span trees kept per request type.
pub const SLOW_PER_OP: usize = 4;

/// One captured slow request: its id, end-to-end latency, and span tree.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    pub req_id: u64,
    /// [`ENGINE_OPS`] index.
    pub op: usize,
    /// Submit → completion latency (includes queue wait).
    pub total_ns: u64,
    pub spans: Vec<SpanRecord>,
}

struct SlowInner {
    /// `per_op[op]` holds at most [`SLOW_PER_OP`] entries, unsorted.
    per_op: Vec<Vec<SlowEntry>>,
    /// Requests ever offered (accepted or not).
    offered: u64,
    zeroed: bool,
}

/// Worst-N slow-request capture, one bucket per [`ENGINE_OPS`] entry.
///
/// Insertion uses `try_lock` so a contended capture never serializes
/// completions; a skipped offer only means a candidate for the worst-N
/// list was missed, shape is unaffected.
pub struct SlowCapture {
    inner: Mutex<SlowInner>,
}

impl Default for SlowCapture {
    fn default() -> Self {
        Self::new()
    }
}

impl SlowCapture {
    pub fn new() -> Self {
        SlowCapture {
            inner: Mutex::new(SlowInner {
                per_op: (0..ENGINE_OPS.len()).map(|_| Vec::new()).collect(),
                offered: 0,
                zeroed: true,
            }),
        }
    }

    /// Offer a finished request; kept only if it beats the current worst-N
    /// for its type.
    pub fn offer(&self, finished: &FinishedRequest, total_ns: u64) {
        if finished.op >= ENGINE_OPS.len() {
            return;
        }
        let Some(mut inner) = self.inner.try_lock() else {
            return;
        };
        inner.offered += 1;
        inner.zeroed = false;
        let bucket = &mut inner.per_op[finished.op];
        if bucket.len() >= SLOW_PER_OP {
            let (min_idx, min_total) = bucket
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.total_ns))
                .min_by_key(|&(_, t)| t)
                .expect("bucket non-empty");
            if total_ns <= min_total {
                return;
            }
            bucket.swap_remove(min_idx);
        }
        bucket.push(SlowEntry {
            req_id: finished.req_id,
            op: finished.op,
            total_ns,
            spans: finished.spans.clone(),
        });
    }

    /// All captured entries, grouped by op, slowest first within each op.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        let inner = self.inner.lock();
        let mut out: Vec<SlowEntry> = Vec::new();
        for bucket in &inner.per_op {
            let mut entries = bucket.clone();
            entries.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
            out.extend(entries);
        }
        out
    }

    /// Requests ever offered since creation or the last zeroize.
    pub fn offered(&self) -> u64 {
        self.inner.lock().offered
    }

    /// Entries currently held across all ops.
    pub fn len(&self) -> usize {
        self.inner.lock().per_op.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scrub every captured span in place, then drop the storage.
    pub fn zeroize(&self) {
        let mut inner = self.inner.lock();
        for bucket in inner.per_op.iter_mut() {
            for entry in bucket.iter_mut() {
                entry.req_id = 0;
                entry.total_ns = 0;
                for span in entry.spans.iter_mut() {
                    *span = SpanRecord {
                        phase: crate::span::Phase::QueueWait,
                        parent: crate::span::NO_PARENT,
                        depth: 0,
                        start_ns: 0,
                        dur_ns: 0,
                        child_ns: 0,
                    };
                }
                black_box(&entry.spans);
                entry.spans.clear();
                entry.spans.shrink_to_fit();
            }
            bucket.clear();
            bucket.shrink_to_fit();
        }
        inner.offered = 0;
        inner.zeroed = true;
    }

    /// True when no captured state remains (deniability tests).
    pub fn is_zeroed(&self) -> bool {
        let inner = self.inner.lock();
        inner.zeroed && inner.per_op.iter().all(Vec::is_empty)
    }
}

/// One chrome-trace event staged for export. `ts_ns` is absolute on the
/// owning registry's epoch clock.
#[derive(Debug, Clone, Copy)]
pub struct CaptureEvent {
    /// Static label: a phase name or an [`ENGINE_OPS`] entry.
    pub name: &'static str,
    /// "request" for the request-level event, "phase" for span events.
    pub cat: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Engine worker index (chrome `tid`).
    pub tid: u32,
    /// Ephemeral request id (chrome `args.req`).
    pub req_id: u64,
}

struct CaptureState {
    events: Vec<CaptureEvent>,
    capacity: usize,
    dropped: u64,
}

/// Bounded whole-tree capture for the chrome://tracing exporter. Inactive
/// (and free) until [`TraceCapture::begin`]; one bench pass activates it,
/// drains with [`TraceCapture::take`], and writes the JSON.
pub struct TraceCapture {
    inner: Mutex<Option<CaptureState>>,
}

impl Default for TraceCapture {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCapture {
    pub fn new() -> Self {
        TraceCapture {
            inner: Mutex::new(None),
        }
    }

    /// Start capturing up to `capacity` events (request + span events).
    pub fn begin(&self, capacity: usize) {
        *self.inner.lock() = Some(CaptureState {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        });
    }

    pub fn is_active(&self) -> bool {
        self.inner.lock().is_some()
    }

    /// Append a finished request's tree. `end_ns` is the absolute (registry
    /// epoch) completion time; span offsets are rebased onto it. `queue_wait`
    /// spans happened before dispatch, so they are back-dated from dispatch.
    pub fn append(&self, finished: &FinishedRequest, end_ns: u64, tid: u32) {
        let mut guard = self.inner.lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        let dispatch_ns = end_ns.saturating_sub(finished.wall_ns);
        let mut push = |ev: CaptureEvent| {
            if state.events.len() < state.capacity {
                state.events.push(ev);
            } else {
                state.dropped += 1;
            }
        };
        push(CaptureEvent {
            name: ENGINE_OPS.get(finished.op).copied().unwrap_or("?"),
            cat: "request",
            ts_ns: dispatch_ns,
            dur_ns: finished.wall_ns,
            tid,
            req_id: finished.req_id,
        });
        for span in &finished.spans {
            let ts_ns = if span.phase == crate::span::Phase::QueueWait {
                dispatch_ns.saturating_sub(span.dur_ns)
            } else {
                dispatch_ns + span.start_ns
            };
            push(CaptureEvent {
                name: span.phase.name(),
                cat: "phase",
                ts_ns,
                dur_ns: span.dur_ns,
                tid,
                req_id: finished.req_id,
            });
        }
    }

    /// Stop capturing and hand back `(events, dropped)`.
    pub fn take(&self) -> (Vec<CaptureEvent>, u64) {
        match self.inner.lock().take() {
            Some(state) => (state.events, state.dropped),
            None => (Vec::new(), 0),
        }
    }

    /// Scrub and discard any in-flight capture.
    pub fn zeroize(&self) {
        let mut guard = self.inner.lock();
        if let Some(state) = guard.as_mut() {
            for ev in state.events.iter_mut() {
                *ev = CaptureEvent {
                    name: "",
                    cat: "",
                    ts_ns: 0,
                    dur_ns: 0,
                    tid: 0,
                    req_id: 0,
                };
            }
            black_box(&state.events);
        }
        *guard = None;
    }

    /// True when no capture is active or buffered.
    pub fn is_zeroed(&self) -> bool {
        self.inner.lock().is_none()
    }
}

/// Render captured events as chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto "JSON Array Format" with a `traceEvents`
/// wrapper). Timestamps and durations are microseconds.
pub fn chrome_trace_json(events: &[CaptureEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"pid\": 1, \"tid\": {}, \"args\": {{\"req\": {}}}}}",
            ev.name,
            ev.cat,
            ev.ts_ns / 1_000,
            ev.ts_ns % 1_000,
            ev.dur_ns / 1_000,
            ev.dur_ns % 1_000,
            ev.tid,
            ev.req_id
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, NO_PARENT};

    fn finished(op: usize, req_id: u64, wall_ns: u64) -> FinishedRequest {
        FinishedRequest {
            req_id,
            op,
            wall_ns,
            spans: vec![SpanRecord {
                phase: Phase::DeviceIo,
                parent: NO_PARENT,
                depth: 0,
                start_ns: 10,
                dur_ns: wall_ns / 2,
                child_ns: 0,
            }],
            dropped: 0,
        }
    }

    #[test]
    fn slow_capture_keeps_worst_n() {
        let slow = SlowCapture::new();
        for i in 0..10u64 {
            slow.offer(&finished(3, i + 1, 1_000 * (i + 1)), 1_000 * (i + 1));
        }
        let snap = slow.snapshot();
        assert_eq!(snap.len(), SLOW_PER_OP);
        // The slowest survive, slowest first.
        assert_eq!(snap[0].total_ns, 10_000);
        assert_eq!(snap[SLOW_PER_OP - 1].total_ns, 7_000);
    }

    #[test]
    fn slow_capture_zeroizes() {
        let slow = SlowCapture::new();
        slow.offer(&finished(5, 9, 500), 500);
        assert!(!slow.is_zeroed());
        slow.zeroize();
        assert!(slow.is_zeroed());
        assert!(slow.snapshot().is_empty());
        // Still usable afterwards.
        slow.offer(&finished(5, 10, 600), 600);
        assert_eq!(slow.len(), 1);
    }

    #[test]
    fn trace_capture_bounds_and_exports() {
        let cap = TraceCapture::new();
        assert!(!cap.is_active());
        cap.begin(3);
        cap.append(&finished(5, 1, 2_000), 10_000, 0);
        cap.append(&finished(3, 2, 1_000), 12_000, 1);
        let (events, dropped) = cap.take();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 1);
        assert!(!cap.is_active());
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"write_at\""));
        assert!(json.contains("\"device_io\""));
    }

    #[test]
    fn queue_wait_events_backdate_before_dispatch() {
        let cap = TraceCapture::new();
        cap.begin(16);
        let fin = FinishedRequest {
            req_id: 7,
            op: 2,
            wall_ns: 1_000,
            spans: vec![SpanRecord {
                phase: Phase::QueueWait,
                parent: NO_PARENT,
                depth: 0,
                start_ns: 0,
                dur_ns: 400,
                child_ns: 0,
            }],
            dropped: 0,
        };
        cap.append(&fin, 5_000, 2);
        let (events, _) = cap.take();
        // dispatch = 4000; queue_wait starts 400ns before it.
        assert_eq!(events[0].ts_ns, 4_000);
        assert_eq!(events[1].ts_ns, 3_600);
    }
}
