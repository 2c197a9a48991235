//! Bounded retry-with-backoff at the device-facing layer.
//!
//! [`RetryDevice`] sits directly above a possibly-flaky backend and reissues
//! failed submissions so *transient* I/O errors (see [`crate::FaultDevice`])
//! stop surfacing to the file-system layers as object loss.  The policy is
//! deliberately narrow:
//!
//! * only [`BlockError::Io`] is retried — [`BlockError::OutOfRange`] and
//!   [`BlockError::BadBufferLength`] are deterministic caller bugs and fail
//!   immediately;
//! * at most `max_attempts` submissions per operation, with a fixed
//!   per-retry backoff (tests pass zero), then the **last** error is
//!   returned unchanged — fail-fast, and the surfaced error family is
//!   exactly what the backend produced, so fail-closed semantics and the
//!   deniable error surface above are untouched;
//! * block I/O is idempotent (whole blocks, no read-modify-write), so
//!   reissuing a write that may or may not have reached the platter is
//!   always safe.

use crate::device::{BlockDevice, BlockId};
use crate::error::{BlockError, BlockResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Shared<D: BlockDevice> {
    inner: Arc<D>,
    max_attempts: u32,
    backoff: Duration,
    retries: AtomicU64,
    exhausted: AtomicU64,
}

/// A wrapper that reissues transiently-failed submissions a bounded number
/// of times.  See the module docs for the policy.
pub struct RetryDevice<D: BlockDevice> {
    shared: Arc<Shared<D>>,
}

impl<D: BlockDevice> Clone for RetryDevice<D> {
    fn clone(&self) -> Self {
        RetryDevice {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<D: BlockDevice> RetryDevice<D> {
    /// Wrap `inner`, allowing up to `max_attempts` submissions per operation
    /// (minimum 1) with `backoff` slept between consecutive attempts.
    pub fn new(inner: D, max_attempts: u32, backoff: Duration) -> Self {
        RetryDevice {
            shared: Arc::new(Shared {
                inner: Arc::new(inner),
                max_attempts: max_attempts.max(1),
                backoff,
                retries: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
            }),
        }
    }

    /// Number of reissued submissions (attempts beyond the first) so far.
    pub fn retries(&self) -> u64 {
        self.shared.retries.load(Ordering::Relaxed)
    }

    /// Number of operations that failed even after the final attempt.
    pub fn exhausted(&self) -> u64 {
        self.shared.exhausted.load(Ordering::Relaxed)
    }

    /// Run `op` under the retry policy.
    fn with_retry<T>(&self, mut op: impl FnMut(&D) -> BlockResult<T>) -> BlockResult<T> {
        let mut attempt = 1;
        loop {
            match op(&self.shared.inner) {
                Ok(v) => return Ok(v),
                // Geometry and buffer-shape errors are deterministic; a
                // reissue cannot change the outcome.
                Err(e @ (BlockError::OutOfRange { .. } | BlockError::BadBufferLength { .. })) => {
                    return Err(e)
                }
                Err(e) => {
                    if attempt >= self.shared.max_attempts {
                        self.shared.exhausted.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    attempt += 1;
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    if !self.shared.backoff.is_zero() {
                        std::thread::sleep(self.shared.backoff);
                    }
                }
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryDevice<D> {
    fn block_size(&self) -> usize {
        self.shared.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.shared.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.with_retry(|d| d.read_block(block, buf))
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.with_retry(|d| d.write_block(block, buf))
    }

    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.with_retry(|d| d.read_blocks(blocks, buf))
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.with_retry(|d| d.write_blocks(blocks, buf))
    }

    fn flush(&self) -> BlockResult<()> {
        self.with_retry(|d| d.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemBlockDevice;
    use crate::fault::FaultDevice;

    const BS: usize = 64;

    fn stack(
        max_attempts: u32,
    ) -> (
        RetryDevice<FaultDevice<MemBlockDevice>>,
        FaultDevice<MemBlockDevice>,
    ) {
        let flaky = FaultDevice::new(MemBlockDevice::new(BS, 8));
        let handle = flaky.clone();
        (
            RetryDevice::new(flaky, max_attempts, Duration::ZERO),
            handle,
        )
    }

    #[test]
    fn transient_errors_are_absorbed() {
        let (dev, flaky) = stack(3);
        flaky.script_failures(2);
        dev.write_block(1, &[9; BS]).unwrap();
        assert_eq!(dev.retries(), 2);
        assert_eq!(dev.exhausted(), 0);
        flaky.script_failures(1);
        assert_eq!(dev.read_block_vec(1).unwrap(), vec![9; BS]);
        assert_eq!(dev.retries(), 3);
    }

    #[test]
    fn fails_fast_after_the_attempt_budget() {
        let (dev, flaky) = stack(3);
        flaky.script_failures(10);
        let err = dev.write_block(0, &[1; BS]).unwrap_err();
        match err {
            BlockError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::Interrupted),
            other => panic!("expected the backend's Io error, got {other:?}"),
        }
        assert_eq!(dev.retries(), 2, "exactly max_attempts submissions");
        assert_eq!(dev.exhausted(), 1);
        // The streak had 7 failures left; later ops still recover.
        flaky.script_failures(0);
        dev.write_block(0, &[1; BS]).unwrap();
    }

    #[test]
    fn deterministic_errors_are_not_retried() {
        let (dev, flaky) = stack(5);
        assert!(matches!(
            dev.write_block(99, &[0; BS]),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            dev.write_block(0, &[0; 3]),
            Err(BlockError::BadBufferLength { .. })
        ));
        assert_eq!(dev.retries(), 0);
        assert_eq!(flaky.ops(), 2, "each bad op was submitted exactly once");
    }

    #[test]
    fn batched_submissions_retry_whole() {
        let (dev, flaky) = stack(2);
        flaky.script_failures(1);
        let blocks: Vec<u64> = (2..6).collect();
        dev.write_blocks(&blocks, &vec![3u8; 4 * BS]).unwrap();
        let mut buf = vec![0u8; 4 * BS];
        flaky.script_failures(1);
        dev.read_blocks(&blocks, &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; 4 * BS]);
        assert_eq!(dev.retries(), 2);
    }
}
