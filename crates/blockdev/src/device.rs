//! The [`BlockDevice`] trait and the in-memory reference implementation.

use crate::error::{BlockError, BlockResult};
use std::sync::Arc;
use stegfs_obs::lock::Mutex;

/// Identifier of a block within a device (0-based).
pub type BlockId = u64;

/// A fixed-block-size random-access storage volume.
///
/// Every backend in this workspace — the in-memory volume, the file-backed
/// volume, the timing-model wrapper, the metering wrapper and the buffer
/// cache — implements this trait, so the file-system layers above are
/// agnostic to where the bytes actually live.
///
/// All I/O takes `&self`: a device is expected to admit *concurrent* block
/// transfers, providing whatever interior locking it needs (the in-memory
/// volume stripes its storage so disjoint blocks transfer in parallel; the
/// file-backed volume serialises on its file handle).  This is what lets the
/// shared-reference file-system layers above overlap block I/O from many
/// threads instead of funnelling every transfer through one volume lock.
pub trait BlockDevice {
    /// Size of each block in bytes.  Constant for the lifetime of the device.
    fn block_size(&self) -> usize;

    /// Total number of blocks in the device.
    fn total_blocks(&self) -> u64;

    /// Read block `block` into `buf`.
    ///
    /// `buf.len()` must equal [`block_size`](Self::block_size).
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()>;

    /// Write `buf` to block `block`.
    ///
    /// `buf.len()` must equal [`block_size`](Self::block_size).
    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()>;

    /// Read a batch of blocks in **one submission**: `buf` is the
    /// concatenation of the blocks named by `blocks`, in order, so
    /// `buf.len()` must equal `blocks.len() * block_size`.
    ///
    /// The default implementation loops block at a time, so every backend is
    /// automatically batch-capable; backends with a cheaper bulk path
    /// override it ([`MemBlockDevice`] copies under one pass,
    /// [`crate::LatencyDevice`] charges the batch one *overlapped* service
    /// time instead of sleeping per block, [`crate::ObservedDevice`] counts
    /// the whole batch as a single submission).  Batches may name the same
    /// block more than once; writes apply in order, so the last write wins,
    /// exactly as the fallback loop behaves.
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        let bs = self.block_size();
        check_batch(blocks.len(), buf.len(), bs)?;
        for (i, &block) in blocks.iter().enumerate() {
            self.read_block(block, &mut buf[i * bs..(i + 1) * bs])?;
        }
        Ok(())
    }

    /// Write a batch of blocks in **one submission**; the counterpart of
    /// [`read_blocks`](Self::read_blocks), with the same layout contract.
    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        let bs = self.block_size();
        check_batch(blocks.len(), buf.len(), bs)?;
        for (i, &block) in blocks.iter().enumerate() {
            self.write_block(block, &buf[i * bs..(i + 1) * bs])?;
        }
        Ok(())
    }

    /// Flush any buffered state to the backing store.  Defaults to a no-op.
    fn flush(&self) -> BlockResult<()> {
        Ok(())
    }

    /// Capacity of the device in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.total_blocks() * self.block_size() as u64
    }

    /// Convenience: read a block into a freshly allocated vector.
    fn read_block_vec(&self, block: BlockId) -> BlockResult<Vec<u8>> {
        let mut buf = vec![0u8; self.block_size()];
        self.read_block(block, &mut buf)?;
        Ok(buf)
    }
}

pub(crate) fn check_batch(blocks: usize, buf_len: usize, block_size: usize) -> BlockResult<()> {
    let expected = blocks
        .checked_mul(block_size)
        .ok_or(BlockError::BadBufferLength {
            got: buf_len,
            expected: usize::MAX,
        })?;
    if buf_len != expected {
        return Err(BlockError::BadBufferLength {
            got: buf_len,
            expected,
        });
    }
    Ok(())
}

pub(crate) fn check_access(
    block: BlockId,
    total: u64,
    buf_len: usize,
    block_size: usize,
) -> BlockResult<()> {
    if block >= total {
        return Err(BlockError::OutOfRange { block, total });
    }
    if buf_len != block_size {
        return Err(BlockError::BadBufferLength {
            got: buf_len,
            expected: block_size,
        });
    }
    Ok(())
}

/// Number of independently locked storage stripes in a [`MemBlockDevice`].
pub const MEM_STRIPES: usize = 64;

/// An in-memory block device.
///
/// This is the workhorse backend for tests and for the performance
/// experiments (which measure *simulated* disk time, not host I/O time).
/// Storage is striped over [`MEM_STRIPES`] independently locked segments
/// (block `b` lives in stripe `b % MEM_STRIPES`), so concurrent transfers of
/// different blocks proceed in parallel.
pub struct MemBlockDevice {
    block_size: usize,
    stripes: Vec<Mutex<Vec<u8>>>,
    total_blocks: u64,
}

impl MemBlockDevice {
    /// Create a zero-filled volume of `total_blocks` blocks of `block_size`
    /// bytes each.
    ///
    /// # Panics
    /// Panics if `block_size` is 0 or `total_blocks` is 0.
    pub fn new(block_size: usize, total_blocks: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(total_blocks > 0, "device must contain at least one block");
        let bytes = (block_size as u64)
            .checked_mul(total_blocks)
            .expect("device size overflows usize");
        usize::try_from(bytes).expect("device too large for memory");
        let blocks_per_stripe = (total_blocks as usize).div_ceil(MEM_STRIPES);
        MemBlockDevice {
            block_size,
            stripes: (0..MEM_STRIPES)
                .map(|_| Mutex::new(vec![0u8; blocks_per_stripe * block_size]))
                .collect(),
            total_blocks,
        }
    }

    /// Create a volume sized in whole megabytes, a convenience used by the
    /// experiment harness (the paper's default volume is 1 GB).
    pub fn with_capacity_mb(block_size: usize, megabytes: u64) -> Self {
        let total_blocks = megabytes * 1024 * 1024 / block_size as u64;
        Self::new(block_size, total_blocks)
    }

    fn slot(&self, block: BlockId) -> (&Mutex<Vec<u8>>, usize) {
        let stripe = (block as usize) % MEM_STRIPES;
        let index = (block as usize) / MEM_STRIPES;
        (&self.stripes[stripe], index * self.block_size)
    }

    /// Copy of the raw volume bytes in block order (used by tests and by the
    /// backup path, which images raw blocks).
    pub fn snapshot_raw(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.total_blocks as usize * self.block_size];
        for b in 0..self.total_blocks {
            let (stripe, start) = self.slot(b);
            let data = stripe.lock();
            let dst = b as usize * self.block_size;
            out[dst..dst + self.block_size].copy_from_slice(&data[start..start + self.block_size]);
        }
        out
    }
}

impl BlockDevice for MemBlockDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        check_access(block, self.total_blocks, buf.len(), self.block_size)?;
        let (stripe, start) = self.slot(block);
        let data = stripe.lock();
        buf.copy_from_slice(&data[start..start + self.block_size]);
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        check_access(block, self.total_blocks, buf.len(), self.block_size)?;
        let (stripe, start) = self.slot(block);
        let mut data = stripe.lock();
        data[start..start + self.block_size].copy_from_slice(buf);
        Ok(())
    }

    // The native batch paths validate the whole submission up front, then
    // stream the copies in one pass (one stripe acquisition per block, no
    // per-block re-validation or dispatch).
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        check_batch(blocks.len(), buf.len(), self.block_size)?;
        for &block in blocks {
            if block >= self.total_blocks {
                return Err(BlockError::OutOfRange {
                    block,
                    total: self.total_blocks,
                });
            }
        }
        for (i, &block) in blocks.iter().enumerate() {
            let (stripe, start) = self.slot(block);
            let data = stripe.lock();
            buf[i * self.block_size..(i + 1) * self.block_size]
                .copy_from_slice(&data[start..start + self.block_size]);
        }
        Ok(())
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        check_batch(blocks.len(), buf.len(), self.block_size)?;
        for &block in blocks {
            if block >= self.total_blocks {
                return Err(BlockError::OutOfRange {
                    block,
                    total: self.total_blocks,
                });
            }
        }
        for (i, &block) in blocks.iter().enumerate() {
            let (stripe, start) = self.slot(block);
            let mut data = stripe.lock();
            data[start..start + self.block_size]
                .copy_from_slice(&buf[i * self.block_size..(i + 1) * self.block_size]);
        }
        Ok(())
    }
}

/// A cloneable, thread-safe handle to a block device.
///
/// The multi-user experiments interleave requests from several logical users
/// against one volume; `SharedDevice` provides the single point of
/// serialisation.  It also lets the file-system layer and the StegFS layer
/// hold handles to the same underlying volume.
pub struct SharedDevice {
    inner: Arc<Mutex<Box<dyn BlockDevice + Send>>>,
}

impl Clone for SharedDevice {
    fn clone(&self) -> Self {
        SharedDevice {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SharedDevice {
    /// Wrap a device in a shared handle.
    pub fn new<D: BlockDevice + Send + 'static>(device: D) -> Self {
        SharedDevice {
            inner: Arc::new(Mutex::new(Box::new(device))),
        }
    }

    /// Run a closure with exclusive access to the underlying device.
    pub fn with<R>(&self, f: impl FnOnce(&mut (dyn BlockDevice + Send)) -> R) -> R {
        let mut guard = self.inner.lock();
        f(guard.as_mut())
    }

    /// Read one block through a shared (`&self`) handle.
    ///
    /// The `BlockDevice` trait takes `&mut self`; these helpers let code that
    /// only holds a clone of the handle — a reader thread, an adversary
    /// scanning the raw volume — do I/O without declaring the handle `mut`.
    pub fn read_block_shared(&self, block: BlockId) -> BlockResult<Vec<u8>> {
        self.with(|d| d.read_block_vec(block))
    }

    /// Write one block through a shared (`&self`) handle.
    pub fn write_block_shared(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.with(|d| d.write_block(block, buf))
    }

    /// Number of clones of this handle currently alive.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Recover the boxed inner device if this is the last handle; otherwise
    /// return the handle unchanged.
    pub fn try_into_inner(self) -> Result<Box<dyn BlockDevice + Send>, SharedDevice> {
        match Arc::try_unwrap(self.inner) {
            Ok(mutex) => Ok(mutex.into_inner()),
            Err(inner) => Err(SharedDevice { inner }),
        }
    }
}

impl BlockDevice for SharedDevice {
    fn block_size(&self) -> usize {
        self.inner.lock().block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.lock().total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.inner.lock().read_block(block, buf)
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.inner.lock().write_block(block, buf)
    }

    // Forward batches whole, so a wrapped device that counts or overlaps
    // submissions sees one submission, not a loop of singles.
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.inner.lock().read_blocks(blocks, buf)
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.inner.lock().write_blocks(blocks, buf)
    }

    fn flush(&self) -> BlockResult<()> {
        self.inner.lock().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let dev = MemBlockDevice::new(512, 8);
        let pattern: Vec<u8> = (0..512).map(|i| (i % 256) as u8).collect();
        dev.write_block(3, &pattern).unwrap();
        let mut buf = vec![0u8; 512];
        dev.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, pattern);
        // Neighbouring blocks untouched.
        dev.read_block(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        dev.read_block(4, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let dev = MemBlockDevice::new(512, 8);
        let buf = vec![0u8; 512];
        assert_eq!(
            dev.write_block(8, &buf),
            Err(BlockError::OutOfRange { block: 8, total: 8 })
        );
        let mut rbuf = vec![0u8; 512];
        assert_eq!(
            dev.read_block(100, &mut rbuf),
            Err(BlockError::OutOfRange {
                block: 100,
                total: 8
            })
        );
    }

    #[test]
    fn wrong_buffer_length_rejected() {
        let dev = MemBlockDevice::new(512, 8);
        let buf = vec![0u8; 100];
        assert_eq!(
            dev.write_block(0, &buf),
            Err(BlockError::BadBufferLength {
                got: 100,
                expected: 512
            })
        );
    }

    #[test]
    fn capacity_and_geometry() {
        let dev = MemBlockDevice::new(1024, 2048);
        assert_eq!(dev.block_size(), 1024);
        assert_eq!(dev.total_blocks(), 2048);
        assert_eq!(dev.capacity_bytes(), 2 * 1024 * 1024);

        let dev = MemBlockDevice::with_capacity_mb(1024, 1);
        assert_eq!(dev.total_blocks(), 1024);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        MemBlockDevice::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        MemBlockDevice::new(512, 0);
    }

    #[test]
    fn read_block_vec_helper() {
        let dev = MemBlockDevice::new(16, 4);
        dev.write_block(1, &[7u8; 16]).unwrap();
        assert_eq!(dev.read_block_vec(1).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn shared_device_clones_view_same_storage() {
        let a = SharedDevice::new(MemBlockDevice::new(64, 4));
        let b = a.clone();
        a.write_block(2, &[0xaa; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        b.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, vec![0xaa; 64]);
        assert_eq!(b.block_size(), 64);
        assert_eq!(b.total_blocks(), 4);
        b.flush().unwrap();
    }

    #[test]
    fn shared_device_with_closure() {
        let dev = SharedDevice::new(MemBlockDevice::new(32, 2));
        let total = dev.with(|d| d.total_blocks());
        assert_eq!(total, 2);
    }

    #[test]
    fn shared_device_shared_ref_io() {
        let dev = SharedDevice::new(MemBlockDevice::new(64, 4));
        let reader = dev.clone();
        dev.write_block_shared(1, &[0x5a; 64]).unwrap();
        assert_eq!(reader.read_block_shared(1).unwrap(), vec![0x5a; 64]);
        assert_eq!(dev.handle_count(), 2);
    }

    #[test]
    fn shared_device_try_into_inner() {
        let dev = SharedDevice::new(MemBlockDevice::new(64, 4));
        let clone = dev.clone();
        // Two handles alive: recovery fails and returns the handle.
        let dev = match dev.try_into_inner() {
            Err(handle) => handle,
            Ok(_) => panic!("unwrap must fail while a clone is alive"),
        };
        drop(clone);
        // Last handle: recovery succeeds.
        let Ok(inner) = dev.try_into_inner() else {
            panic!("sole handle must unwrap");
        };
        assert_eq!(inner.total_blocks(), 4);
    }
}
