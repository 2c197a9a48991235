//! A block device backed by a regular file on the host file system.
//!
//! Used by the runnable examples so that a StegFS volume survives between
//! invocations, exactly like the disk-partition-backed volumes of the
//! original Linux driver.

use crate::device::{check_access, check_batch, BlockDevice, BlockId};
use crate::error::BlockResult;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use stegfs_obs::lock::Mutex;

/// A volume stored in a single file; block `i` lives at byte offset
/// `i * block_size`.  Transfers serialise on the file handle (the seek and
/// the read/write must be one atomic pair).
pub struct FileBlockDevice {
    file: Mutex<File>,
    block_size: usize,
    total_blocks: u64,
}

impl FileBlockDevice {
    /// Create (or truncate) a volume file of `total_blocks * block_size`
    /// bytes.
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        total_blocks: u64,
    ) -> BlockResult<Self> {
        assert!(block_size > 0 && total_blocks > 0, "empty device");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(block_size as u64 * total_blocks)?;
        Ok(FileBlockDevice {
            file: Mutex::new(file),
            block_size,
            total_blocks,
        })
    }

    /// Open an existing volume file created by [`create`](Self::create).
    /// The block size must be supplied by the caller (StegFS records it in
    /// the superblock, which the file-system layer reads).
    pub fn open<P: AsRef<Path>>(path: P, block_size: usize) -> BlockResult<Self> {
        assert!(block_size > 0, "block size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let total_blocks = len / block_size as u64;
        Ok(FileBlockDevice {
            file: Mutex::new(file),
            block_size,
            total_blocks,
        })
    }
}

impl BlockDevice for FileBlockDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        check_access(block, self.total_blocks, buf.len(), self.block_size)?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(block * self.block_size as u64))?;
        file.read_exact(buf)?;
        Ok(())
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        check_access(block, self.total_blocks, buf.len(), self.block_size)?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(block * self.block_size as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    // Batches transfer under one hold of the file lock (one seek+transfer
    // pair per block, but no per-block lock churn and no interleaving with
    // other submissions).  The whole submission is validated before any
    // byte moves, matching the in-memory backend: an invalid block anywhere
    // in the batch fails it without a torn prefix.
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        check_batch(blocks.len(), buf.len(), self.block_size)?;
        for &block in blocks {
            check_access(block, self.total_blocks, self.block_size, self.block_size)?;
        }
        let mut file = self.file.lock();
        for (i, &block) in blocks.iter().enumerate() {
            file.seek(SeekFrom::Start(block * self.block_size as u64))?;
            file.read_exact(&mut buf[i * self.block_size..(i + 1) * self.block_size])?;
        }
        Ok(())
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        check_batch(blocks.len(), buf.len(), self.block_size)?;
        for &block in blocks {
            check_access(block, self.total_blocks, self.block_size, self.block_size)?;
        }
        let mut file = self.file.lock();
        for (i, &block) in blocks.iter().enumerate() {
            file.seek(SeekFrom::Start(block * self.block_size as u64))?;
            file.write_all(&buf[i * self.block_size..(i + 1) * self.block_size])?;
        }
        Ok(())
    }

    fn flush(&self) -> BlockResult<()> {
        self.file.lock().flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BlockError;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "stegfs-blockdev-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = temp_path("roundtrip");
        {
            let dev = FileBlockDevice::create(&path, 256, 16).unwrap();
            assert_eq!(dev.total_blocks(), 16);
            dev.write_block(5, &[0x5a; 256]).unwrap();
            dev.flush().unwrap();
        }
        {
            let dev = FileBlockDevice::open(&path, 256).unwrap();
            assert_eq!(dev.total_blocks(), 16);
            assert_eq!(dev.block_size(), 256);
            let mut buf = vec![0u8; 256];
            dev.read_block(5, &mut buf).unwrap();
            assert_eq!(buf, vec![0x5a; 256]);
            dev.read_block(6, &mut buf).unwrap();
            assert_eq!(buf, vec![0u8; 256]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_and_bad_buffer() {
        let path = temp_path("bounds");
        let dev = FileBlockDevice::create(&path, 128, 4).unwrap();
        assert_eq!(
            dev.write_block(4, &[0u8; 128]),
            Err(BlockError::OutOfRange { block: 4, total: 4 })
        );
        assert_eq!(
            dev.write_block(0, &[0u8; 64]),
            Err(BlockError::BadBufferLength {
                got: 64,
                expected: 128
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_fails() {
        let path = temp_path("does-not-exist");
        assert!(FileBlockDevice::open(&path, 512).is_err());
    }

    #[test]
    fn capacity_matches_file_length() {
        let path = temp_path("capacity");
        let dev = FileBlockDevice::create(&path, 512, 32).unwrap();
        assert_eq!(dev.capacity_bytes(), 512 * 32);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512 * 32);
        drop(dev);
        std::fs::remove_file(&path).unwrap();
    }
}
