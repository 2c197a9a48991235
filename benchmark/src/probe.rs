//! The benchmark's own instrumentation: a counting [`BlockDevice`] wrapper
//! and an in-memory span recorder.
//!
//! Everything here lives in the benchmark, outside the program under test:
//! spans are recorded *around* calls into a layer, never inside one.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stegfs_blockdev::{
    BlockDevice, BlockId, BlockResult, BufferCache, CacheMode, LatencyDevice, MemBlockDevice,
};

/// Block size of every benchmark volume (the paper's 1 KB).
pub const BLOCK_SIZE: usize = 1024;
/// `BufferCache` capacity on the cached stacks, in blocks.
pub const BUFFER_CACHE_BLOCKS: usize = 4096;
/// `LatencyDevice` price of one read or write submission.
pub const SUBMISSION_LATENCY: Duration = Duration::from_micros(50);
/// `LatencyDevice` price of one flush barrier.
pub const FLUSH_LATENCY: Duration = Duration::from_micros(500);

/// Totals of what crossed one [`ProbeDevice`].  All `Relaxed`: they are
/// statistics that publish no other data.
#[derive(Default)]
pub struct Counters {
    read_blocks: AtomicU64,
    write_blocks: AtomicU64,
    read_submissions: AtomicU64,
    write_submissions: AtomicU64,
    flushes: AtomicU64,
    nonsequential_blocks: AtomicU64,
    busy_ns: AtomicU64,
    last_block: AtomicU64,
}

/// A point-in-time copy of [`Counters`]; subtract two to get a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnap {
    pub read_blocks: u64,
    pub write_blocks: u64,
    pub read_submissions: u64,
    pub write_submissions: u64,
    pub flushes: u64,
    pub nonsequential_blocks: u64,
    /// Wall time spent inside the wrapped device; only counted while the
    /// tracer is on, so untraced runs pay no clock reads here.
    pub busy_ns: u64,
}

impl CounterSnap {
    pub fn blocks(&self) -> u64 {
        self.read_blocks + self.write_blocks
    }

    pub fn submissions(&self) -> u64 {
        self.read_submissions + self.write_submissions
    }

    pub fn minus(&self, earlier: &CounterSnap) -> CounterSnap {
        CounterSnap {
            read_blocks: self.read_blocks - earlier.read_blocks,
            write_blocks: self.write_blocks - earlier.write_blocks,
            read_submissions: self.read_submissions - earlier.read_submissions,
            write_submissions: self.write_submissions - earlier.write_submissions,
            flushes: self.flushes - earlier.flushes,
            nonsequential_blocks: self.nonsequential_blocks - earlier.nonsequential_blocks,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    pub fn plus(&self, other: &CounterSnap) -> CounterSnap {
        CounterSnap {
            read_blocks: self.read_blocks + other.read_blocks,
            write_blocks: self.write_blocks + other.write_blocks,
            read_submissions: self.read_submissions + other.read_submissions,
            write_submissions: self.write_submissions + other.write_submissions,
            flushes: self.flushes + other.flushes,
            nonsequential_blocks: self.nonsequential_blocks + other.nonsequential_blocks,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }
}

impl Counters {
    pub fn snap(&self) -> CounterSnap {
        CounterSnap {
            read_blocks: self.read_blocks.load(Ordering::Relaxed),
            write_blocks: self.write_blocks.load(Ordering::Relaxed),
            read_submissions: self.read_submissions.load(Ordering::Relaxed),
            write_submissions: self.write_submissions.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            nonsequential_blocks: self.nonsequential_blocks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Count one submission of `blocks`; a block is non-sequential when it
    /// does not follow the block transferred just before it.
    fn note(&self, blocks: &[BlockId], write: bool) {
        let (block_total, submissions) = if write {
            (&self.write_blocks, &self.write_submissions)
        } else {
            (&self.read_blocks, &self.read_submissions)
        };
        block_total.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        submissions.fetch_add(1, Ordering::Relaxed);
        let Some(&last) = blocks.last() else {
            return;
        };
        let mut prev = self.last_block.swap(last, Ordering::Relaxed);
        let mut jumps = 0;
        for &b in blocks {
            if b != prev.wrapping_add(1) {
                jumps += 1;
            }
            prev = b;
        }
        self.nonsequential_blocks
            .fetch_add(jumps, Ordering::Relaxed);
    }
}

/// One recorded interval.  `parent` is the id of the span that caused this
/// one (0 = none); spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// (operation id, innermost open span) of the calling thread.  Engine
    /// workers never set it, so device spans they cause carry op 0.
    static CURRENT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// In-memory span sink, shared by the driver loop and the probe devices.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A fresh operation id (never 0).
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Mark the calling thread as executing a fresh operation: spans it
    /// opens from now on, and device spans they cause, carry its id.
    pub fn begin_op(&self) -> u64 {
        let op = self.new_op();
        CURRENT.with(|c| c.set((op, 0)));
        op
    }

    /// The calling thread is between operations again.
    pub fn end_op(&self) {
        CURRENT.with(|c| c.set((0, 0)));
    }

    /// Run `f` as a span named `name` when tracing is on; just run it
    /// otherwise.
    #[inline]
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        self.timed_span(name, f).0
    }

    /// Record `f` as a span unconditionally; also returns its duration.
    fn timed_span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (op, parent) = CURRENT.with(|c| c.replace((c.get().0, id)));
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        CURRENT.with(|c| c.set((op, parent)));
        self.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (out, (end - start).as_nanos() as u64)
    }

    /// Record an interval measured elsewhere (the engine client measures
    /// submit→recv itself because completions arrive out of order).
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.is_on() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: 0,
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span holder panics").push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

/// A [`BlockDevice`] wrapper that counts what passes through it and, while
/// the tracer is on, records each call as a child span of whatever layer
/// call is open on the calling thread.
pub struct ProbeDevice<D: BlockDevice> {
    inner: D,
    counters: Arc<Counters>,
    tracer: Option<Arc<Tracer>>,
}

impl<D: BlockDevice> ProbeDevice<D> {
    /// `tracer: None` makes a counting-only probe (used above the buffer
    /// cache, where a span per call would double-count device time).
    pub fn new(inner: D, tracer: Option<Arc<Tracer>>) -> Self {
        ProbeDevice {
            inner,
            counters: Arc::new(Counters::default()),
            tracer,
        }
    }

    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    pub fn into_inner(self) -> D {
        self.inner
    }

    #[inline]
    fn timed<R>(&self, name: &'static str, f: impl FnOnce(&D) -> R) -> R {
        match &self.tracer {
            Some(t) if t.is_on() => {
                let (out, ns) = t.timed_span(name, || f(&self.inner));
                self.counters.busy_ns.fetch_add(ns, Ordering::Relaxed);
                out
            }
            _ => f(&self.inner),
        }
    }
}

impl<D: BlockDevice> BlockDevice for ProbeDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.counters.note(&[block], false);
        self.timed("blockdev.read", |d| d.read_block(block, buf))
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.counters.note(&[block], true);
        self.timed("blockdev.write", |d| d.write_block(block, buf))
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.counters.note(blocks, false);
        self.timed("blockdev.read", |d| d.read_blocks(blocks, buf))
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.counters.note(blocks, true);
        self.timed("blockdev.write", |d| d.write_blocks(blocks, buf))
    }

    fn flush(&self) -> BlockResult<()> {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        self.timed("blockdev.flush", |d| d.flush())
    }
}

/// The probed device at the bottom of every stack.  The latency model is
/// always present and priced at zero unless the workload asks for it, so
/// every workload shares one device type.
pub type Disk = ProbeDevice<LatencyDevice<MemBlockDevice>>;

/// The two device stacks the workloads use.
pub enum Dev {
    /// The file system talks to the probed device directly.
    Direct(Disk),
    /// A write-back [`BufferCache`] sits between them, with a counting-only
    /// probe on top so the cache's hit rate can be read from outside.
    Cached(ProbeDevice<BufferCache<Disk>>),
}

/// The counters of one [`Dev`]: `disk` is what reached the device, `top` is
/// what the file system asked for (the same counters on a direct stack).
#[derive(Clone)]
pub struct Probes {
    pub disk: Arc<Counters>,
    pub top: Arc<Counters>,
}

impl Probes {
    /// Whether a buffer cache sits between the two probes.
    pub fn cached(&self) -> bool {
        !Arc::ptr_eq(&self.disk, &self.top)
    }
}

impl Dev {
    pub fn build(
        mem: MemBlockDevice,
        cached: bool,
        latency: bool,
        tracer: &Arc<Tracer>,
    ) -> (Dev, Probes) {
        let model = if latency {
            LatencyDevice::symmetric(mem, SUBMISSION_LATENCY).with_flush_latency(FLUSH_LATENCY)
        } else {
            LatencyDevice::symmetric(mem, Duration::ZERO)
        };
        let disk = ProbeDevice::new(model, Some(Arc::clone(tracer)));
        let disk_counters = disk.counters();
        if cached {
            let cache = BufferCache::with_mode(disk, BUFFER_CACHE_BLOCKS, CacheMode::WriteBack);
            let top = ProbeDevice::new(cache, None);
            let probes = Probes {
                disk: disk_counters,
                top: top.counters(),
            };
            (Dev::Cached(top), probes)
        } else {
            let probes = Probes {
                top: Arc::clone(&disk_counters),
                disk: disk_counters,
            };
            (Dev::Direct(disk), probes)
        }
    }

    /// Strip every wrapper.  The caller has flushed (unmount does).
    pub fn into_mem(self) -> MemBlockDevice {
        let disk = match self {
            Dev::Direct(disk) => disk,
            Dev::Cached(top) => top.into_inner().into_inner(),
        };
        disk.into_inner().into_inner()
    }

    fn inner(&self) -> &dyn BlockDevice {
        match self {
            Dev::Direct(d) => d,
            Dev::Cached(d) => d,
        }
    }
}

impl BlockDevice for Dev {
    fn block_size(&self) -> usize {
        self.inner().block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner().total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.inner().read_block(block, buf)
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.inner().write_block(block, buf)
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.inner().read_blocks(blocks, buf)
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.inner().write_blocks(blocks, buf)
    }

    fn flush(&self) -> BlockResult<()> {
        self.inner().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_blocks_submissions_flushes_and_jumps() {
        let tracer = Tracer::new();
        let (dev, probes) = Dev::build(MemBlockDevice::new(BLOCK_SIZE, 64), false, false, &tracer);
        let buf = vec![7u8; 3 * BLOCK_SIZE];
        dev.write_blocks(&[4, 5, 9], &buf).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE];
        dev.read_block(10, &mut back).unwrap();
        dev.flush().unwrap();
        let s = probes.disk.snap();
        assert_eq!((s.write_blocks, s.write_submissions), (3, 1));
        assert_eq!((s.read_blocks, s.read_submissions), (1, 1));
        assert_eq!(s.flushes, 1);
        // 4 (first ever), 9 (after 5) jump; 5 follows 4 and 10 follows 9.
        assert_eq!(s.nonsequential_blocks, 2);
        assert_eq!(s.busy_ns, 0, "no clock reads while the tracer is off");
    }

    #[test]
    fn cached_stack_separates_requests_from_device_traffic() {
        let tracer = Tracer::new();
        let (dev, probes) = Dev::build(MemBlockDevice::new(BLOCK_SIZE, 64), true, false, &tracer);
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(3, &mut buf).unwrap();
        dev.read_block(3, &mut buf).unwrap();
        assert_eq!(probes.top.snap().read_blocks, 2);
        assert_eq!(probes.disk.snap().read_blocks, 1, "second read hits");
    }

    #[test]
    fn device_spans_nest_under_the_open_layer_span() {
        let tracer = Tracer::new();
        let (dev, _) = Dev::build(MemBlockDevice::new(BLOCK_SIZE, 64), false, false, &tracer);
        tracer.set_on(true);
        let op = tracer.begin_op();
        let mut buf = vec![0u8; BLOCK_SIZE];
        tracer.span("vfs.read_at", || dev.read_block(1, &mut buf).unwrap());
        tracer.end_op();
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        let layer = spans.iter().find(|s| s.name == "vfs.read_at").unwrap();
        let device = spans.iter().find(|s| s.name == "blockdev.read").unwrap();
        assert_eq!(device.parent, layer.id);
        assert_eq!((layer.parent, layer.op, device.op), (0, op, op));
        assert!(layer.start_ns <= device.start_ns && device.end_ns <= layer.end_ns);
    }
}
