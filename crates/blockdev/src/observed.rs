//! [`ObservedDevice`] — the one I/O meter, a wrapper around any device.
//!
//! Submissions, transferred blocks, batch sizes and wall-clock latency
//! histograms land in a shared [`DeviceStats`] from `stegfs-obs`.  The
//! file-system layer owns one of these around its device, attached to the
//! volume's registry, so *all* metadata, journal and data I/O is metered at
//! a single choke point; [`counting`](ObservedDevice::counting) builds a
//! standalone one for tests and baselines that meter elsewhere in a stack.
//!
//! **Counting rule.**  A submission counts once it has succeeded: a failed
//! one (an injected fault, a bad block number, a short buffer) moves no
//! counter and no histogram, so every count is I/O the device did and its
//! bytes are exactly blocks × block size.  An empty batch transfers nothing
//! and counts nothing.  Counters are relaxed atomics; the hot path takes no
//! lock and one clock pair.  With a disabled stats handle (the default until
//! the volume attaches its registry) the wrapper never reads the clock.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use stegfs_obs::{span, DeviceStats};

use crate::device::{BlockDevice, BlockId};
use crate::error::BlockResult;

#[derive(Clone, Copy)]
enum Op {
    Read,
    Write,
    Flush,
}

/// A [`BlockDevice`] that records submissions, batch sizes and latency
/// into a shared [`DeviceStats`].  See the module docs for what counts.
pub struct ObservedDevice<D> {
    inner: D,
    stats: Arc<DeviceStats>,
    enabled: bool,
}

impl<D: BlockDevice> ObservedDevice<D> {
    /// Wrap `inner` with a detached (disabled) stats handle.
    pub fn new(inner: D) -> Self {
        ObservedDevice {
            inner,
            stats: Arc::new(DeviceStats::new(false)),
            enabled: false,
        }
    }

    /// Wrap `inner` with stats of its own, collecting from the first
    /// submission; read them through [`stats`](Self::stats).
    pub fn counting(inner: D) -> Self {
        ObservedDevice {
            inner,
            stats: Arc::new(DeviceStats::new(true)),
            enabled: true,
        }
    }

    /// Attach the registry's device stats (requires exclusive access; done
    /// once while the volume is being assembled).
    pub fn set_stats(&mut self, stats: Arc<DeviceStats>, enabled: bool) {
        self.stats = stats;
        self.enabled = enabled;
    }

    /// The stats this wrapper records into; clone the handle to keep
    /// reading them after the device has moved into a file system.
    pub fn stats(&self) -> &Arc<DeviceStats> {
        &self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap, returning the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Run one submission of `blocks` blocks and, if enabled, record it
    /// when it succeeds.
    #[inline]
    fn meter(
        &self,
        op: Op,
        blocks: usize,
        io: impl FnOnce(&D) -> BlockResult<()>,
    ) -> BlockResult<()> {
        let _io = span::span(span::Phase::DeviceIo);
        if !self.enabled {
            return io(&self.inner);
        }
        let start = Instant::now();
        io(&self.inner)?;
        let ns = start.elapsed().as_nanos() as u64;
        let s = &*self.stats;
        let n = blocks as u64;
        match op {
            Op::Flush => {
                s.flushes.fetch_add(1, Ordering::Relaxed);
                s.flush_ns.record(ns);
            }
            _ if n == 0 => {}
            Op::Read => {
                s.reads.fetch_add(1, Ordering::Relaxed);
                s.blocks_read.fetch_add(n, Ordering::Relaxed);
                s.read_batch.record(n);
                s.read_ns.record(ns);
            }
            Op::Write => {
                s.writes.fetch_add(1, Ordering::Relaxed);
                s.blocks_written.fetch_add(n, Ordering::Relaxed);
                s.write_batch.record(n);
                s.write_ns.record(ns);
            }
        }
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for ObservedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.meter(Op::Read, 1, |d| d.read_block(block, buf))
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.meter(Op::Write, 1, |d| d.write_block(block, buf))
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.meter(Op::Read, blocks.len(), |d| d.read_blocks(blocks, buf))
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.meter(Op::Write, blocks.len(), |d| d.write_blocks(blocks, buf))
    }

    fn flush(&self) -> BlockResult<()> {
        self.meter(Op::Flush, 0, |d| d.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemBlockDevice;
    use crate::fault::FaultDevice;
    use stegfs_obs::Obs;

    #[test]
    fn detached_wrapper_forwards_without_counting() {
        let dev = ObservedDevice::new(MemBlockDevice::new(128, 64));
        dev.write_block(3, &[7; 128]).unwrap();
        assert_eq!(dev.read_block_vec(3).unwrap(), vec![7; 128]);
        assert_eq!(dev.stats().summary().writes, 0);
    }

    #[test]
    fn attached_wrapper_counts_submissions_and_batches() {
        let obs = Obs::new(true);
        let mut dev = ObservedDevice::new(MemBlockDevice::new(128, 64));
        dev.set_stats(obs.device.clone(), true);
        dev.write_blocks(&[1, 2, 3], &[1; 128 * 3]).unwrap();
        dev.read_blocks(&[1, 2, 3], &mut [0; 128 * 3]).unwrap();
        dev.flush().unwrap();
        let s = obs.device.summary();
        assert_eq!((s.writes, s.blocks_written, s.write_batch.max), (1, 3, 3));
        assert_eq!((s.reads, s.blocks_read, s.read_ns.count), (1, 3, 1));
        assert_eq!((s.flushes, s.flush_ns.count), (1, 1));
    }

    /// The counting rule, on the standalone meter: a failed submission,
    /// injected or malformed, moves nothing.
    #[test]
    fn failed_operations_not_counted() {
        let fault = FaultDevice::new(MemBlockDevice::new(256, 4));
        let dev = ObservedDevice::counting(fault.clone());
        assert!(dev.write_block(99, &[1; 256]).is_err());
        assert!(dev.read_block(0, &mut [0; 100]).is_err());
        fault.script_failures(3);
        assert!(dev.write_blocks(&[0, 1], &[1; 512]).is_err());
        assert!(dev.read_block_vec(0).is_err());
        assert!(dev.flush().is_err());
        let s = dev.stats().summary();
        assert_eq!((s.reads, s.writes, s.flushes), (0, 0, 0));
        assert_eq!((s.blocks_read, s.blocks_written), (0, 0));
        assert_eq!((s.read_ns.count, s.write_ns.count), (0, 0));
        assert_eq!((fault.ops(), fault.injected()), (5, 3));
    }

    #[test]
    fn unwraps_to_inner_device() {
        let mut dev = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        assert_eq!((dev.block_size(), dev.total_blocks()), (64, 16));
        dev.write_block(0, &[9; 64]).unwrap();
        dev.flush().unwrap();
        assert_eq!(dev.inner().read_block_vec(0).unwrap(), vec![9; 64]);
        dev.inner_mut();
        assert_eq!(dev.into_inner().snapshot_raw()[..64], [9; 64]);
    }
}
