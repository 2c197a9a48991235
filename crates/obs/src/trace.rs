//! RAM-only ring buffer of recent coarse operation spans.
//!
//! # Deniability contract
//!
//! Events carry only `&'static str` layer/op labels baked into the binary
//! plus two durations — never object signatures, keys, paths, buffer
//! contents, or block addresses of hidden objects. The buffer lives in RAM
//! only (nothing is ever persisted to the volume) and [`TraceRing::zeroize`]
//! scrubs every slot on `signoff`/unmount, the same bar the read cache
//! meets.
//!
//! Recording uses `try_lock`: if the ring is momentarily contended the event
//! is dropped (and counted) rather than serializing hot paths on the trace
//! lock.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::lock::Mutex;

/// One coarse operation span. Labels are static strings by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which layer emitted the span ("engine", "journal", ...).
    pub layer: &'static str,
    /// Static operation label ("read", "commit", ...).
    pub op: &'static str,
    /// Monotonic timestamp (ns since the registry was created).
    pub t_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

const ZEROED: TraceEvent = TraceEvent {
    layer: "",
    op: "",
    t_ns: 0,
    dur_ns: 0,
};

struct RingInner {
    events: Vec<TraceEvent>,
    next: usize,
    /// Total events ever accepted (wraps the ring when > capacity).
    accepted: u64,
    /// Accepted events that overwrote an older slot (ring wrapped), so
    /// truncation is visible rather than silent.
    overwritten: u64,
}

/// Fixed-capacity ring of recent [`TraceEvent`]s.
pub struct TraceRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceRing {
    /// `capacity == 0` yields a disabled ring (records are no-ops).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                events: Vec::new(),
                next: 0,
                accepted: 0,
                overwritten: 0,
            }),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record a span; drops the event if the ring lock is contended.
    pub fn record(&self, layer: &'static str, op: &'static str, t_ns: u64, dur_ns: u64) {
        if self.capacity == 0 {
            return;
        }
        match self.inner.try_lock() {
            Some(mut inner) => {
                let ev = TraceEvent {
                    layer,
                    op,
                    t_ns,
                    dur_ns,
                };
                if inner.events.len() < self.capacity {
                    inner.events.push(ev);
                } else {
                    let next = inner.next;
                    inner.events[next] = ev;
                    inner.overwritten += 1;
                }
                inner.next = (inner.next + 1) % self.capacity;
                inner.accepted += 1;
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        if inner.events.len() < self.capacity {
            inner.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&inner.events[inner.next..]);
            out.extend_from_slice(&inner.events[..inner.next]);
            out
        }
    }

    /// Events dropped because the ring lock was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events accepted since creation or the last [`Self::zeroize`].
    pub fn accepted(&self) -> u64 {
        self.inner.lock().accepted
    }

    /// Accepted events that overwrote an older slot because the ring
    /// wrapped — the count of spans truncated out of [`Self::snapshot`].
    pub fn overwritten(&self) -> u64 {
        self.inner.lock().overwritten
    }

    /// Scrub every slot in place, then release the storage. `black_box`
    /// keeps the scrub from being optimized away.
    pub fn zeroize(&self) {
        let mut inner = self.inner.lock();
        for slot in inner.events.iter_mut() {
            *slot = ZEROED;
        }
        black_box(&inner.events);
        inner.events.clear();
        inner.events.shrink_to_fit();
        inner.next = 0;
        inner.accepted = 0;
        inner.overwritten = 0;
    }

    /// True when the ring holds no events (used by deniability tests).
    pub fn is_zeroed(&self) -> bool {
        let inner = self.inner.lock();
        inner.events.is_empty() && inner.next == 0 && inner.accepted == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(4);
        for i in 0..3u64 {
            ring.record("engine", "read", i, 10 + i);
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].t_ns, 0);
        assert_eq!(evs[2].dur_ns, 12);
    }

    #[test]
    fn wraps_at_capacity_keeping_newest() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record("fs", "sync", i, 0);
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs.first().unwrap().t_ns, 6);
        assert_eq!(evs.last().unwrap().t_ns, 9);
        // Truncation is counted, not silent: 10 accepted, 6 overwrote.
        assert_eq!(ring.accepted(), 10);
        assert_eq!(ring.overwritten(), 6);
        ring.zeroize();
        assert_eq!(ring.overwritten(), 0);
    }

    #[test]
    fn zeroize_scrubs_everything() {
        let ring = TraceRing::new(8);
        ring.record("journal", "commit", 1, 2);
        assert!(!ring.is_zeroed());
        ring.zeroize();
        assert!(ring.is_zeroed());
        assert!(ring.snapshot().is_empty());
        // Still usable afterwards.
        ring.record("journal", "commit", 3, 4);
        assert_eq!(ring.snapshot().len(), 1);
    }

    #[test]
    fn zero_capacity_ring_is_inert() {
        let ring = TraceRing::new(0);
        ring.record("engine", "write", 1, 1);
        assert!(ring.snapshot().is_empty());
        assert!(ring.is_zeroed());
    }
}
