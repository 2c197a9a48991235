//! Real-time latency injection for concurrency experiments.
//!
//! [`SimDisk`](crate::SimDisk) models disk time on a *virtual* clock, which
//! is right for the single-driver timing experiments but useless for
//! measuring concurrency: virtual time cannot overlap.  [`LatencyDevice`]
//! instead *sleeps* for a fixed service time per submission, so when
//! several threads issue block I/O to independent objects their service
//! times overlap on the wall clock — exactly the effect the paper's
//! Figure 7 measures against a real drive, and the effect the concurrent
//! engine workload quantifies.  The wrapper itself takes no lock, so the
//! device admits as much request concurrency as the caller offers.
//! Stacked under a [`BufferCache`](crate::BufferCache), read misses and a
//! flush's write-back batch sleep with the cache unlocked, while
//! write-through writes and dirty-victim write-backs sleep under the
//! cache's lock (see its module docs).
//!
//! Batched submissions ([`BlockDevice::read_blocks`] /
//! [`BlockDevice::write_blocks`]) overlap the same way *within one caller*:
//! the whole batch is charged a single service time, because queueing n
//! transfers in one submission buys the same parallel service that n
//! concurrent callers would get.

use crate::device::{BlockDevice, BlockId};
use crate::error::BlockResult;
use std::time::Duration;

/// A [`BlockDevice`] wrapper that sleeps a fixed service time per
/// submission.
pub struct LatencyDevice<D: BlockDevice> {
    inner: D,
    read_latency: Duration,
    write_latency: Duration,
    flush_latency: Duration,
}

impl<D: BlockDevice> LatencyDevice<D> {
    /// Wrap `inner`, charging `read_latency` / `write_latency` of wall-clock
    /// sleep per read / write submission — one block or a whole batch.
    /// Flush barriers are free until
    /// [`with_flush_latency`](Self::with_flush_latency) prices them.
    pub fn new(inner: D, read_latency: Duration, write_latency: Duration) -> Self {
        LatencyDevice {
            inner,
            read_latency,
            write_latency,
            flush_latency: Duration::ZERO,
        }
    }

    /// Wrap `inner` with one symmetric per-submission service time.
    pub fn symmetric(inner: D, latency: Duration) -> Self {
        Self::new(inner, latency, latency)
    }

    /// Charge `latency` of wall-clock sleep per flush barrier — the cache
    /// write-back + FUA cost a real disk charges for durability, and the
    /// quantity group commit exists to amortize.
    pub fn with_flush_latency(mut self, latency: Duration) -> Self {
        self.flush_latency = latency;
        self
    }

    /// Unwrap, discarding the latency model.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for LatencyDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        self.inner.read_block(block, buf)
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        self.inner.write_block(block, buf)
    }

    // A batch is one submission: the device already lets *concurrent* callers
    // overlap their service times fully, so a caller that queues n blocks in
    // one submission gets the same overlap — one service-time sleep for the
    // whole batch instead of n sequential sleeps.  This is the wrapper-level
    // analogue of an io_uring-style submission ring over a striped volume.
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        if !blocks.is_empty() && !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        self.inner.read_blocks(blocks, buf)
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        if !blocks.is_empty() && !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        self.inner.write_blocks(blocks, buf)
    }

    fn flush(&self) -> BlockResult<()> {
        if !self.flush_latency.is_zero() {
            std::thread::sleep(self.flush_latency);
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemBlockDevice;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn data_roundtrips_through_the_sleep() {
        let dev = LatencyDevice::symmetric(MemBlockDevice::new(64, 8), Duration::from_micros(50));
        dev.write_block(3, &[0x77; 64]).unwrap();
        assert_eq!(dev.read_block_vec(3).unwrap(), vec![0x77; 64]);
        dev.flush().unwrap();
        assert_eq!(dev.block_size(), 64);
        assert_eq!(dev.total_blocks(), 8);
    }

    #[test]
    fn batch_costs_one_service_time() {
        // 32 blocks at 4 ms each: sequential singles would sleep >= 128 ms;
        // one batched submission must cost roughly one service time.
        let dev = LatencyDevice::symmetric(MemBlockDevice::new(64, 32), Duration::from_millis(4));
        let blocks: Vec<u64> = (0..32).collect();
        let data = vec![0xabu8; 32 * 64];
        let start = Instant::now();
        dev.write_blocks(&blocks, &data).unwrap();
        let mut out = vec![0u8; 32 * 64];
        dev.read_blocks(&blocks, &mut out).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(64),
            "batch did not overlap: {:?}",
            start.elapsed()
        );
        assert_eq!(out, data);
        // Empty batches are free.
        dev.read_blocks(&[], &mut []).unwrap();
        dev.write_blocks(&[], &[]).unwrap();
    }

    #[test]
    fn concurrent_transfers_overlap_their_latency() {
        // 8 threads x 4 blocks x 2 ms: serial would sleep >= 64 ms; the
        // threads must overlap to well under half of that.
        let dev = Arc::new(LatencyDevice::symmetric(
            MemBlockDevice::new(64, 64),
            Duration::from_millis(2),
        ));
        let start = Instant::now();
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let dev = Arc::clone(&dev);
                std::thread::spawn(move || {
                    for i in 0..4u64 {
                        dev.write_block(t * 8 + i, &[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(32),
            "latency did not overlap: {elapsed:?}"
        );
    }
}
