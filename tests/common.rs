//! Shared fixtures for the cross-crate integration tests.

#![forbid(unsafe_code)]

use std::sync::Arc;
use stegfs_blockdev::{BlockDevice, BlockId, BlockResult, MemBlockDevice};
use stegfs_core::{Policy, StegFs, StegParams};
use stegfs_crypto::sha256::Sha256;
use stegfs_obs::lock::Mutex;

/// Parameters small enough for integration tests but with every feature
/// (abandoned blocks, dummy files, random fill) switched on, so the tests
/// exercise the same code paths as a production format.
pub fn full_feature_params() -> StegParams {
    StegParams {
        abandoned_pct: 2.0,
        free_blocks_min: 1,
        free_blocks_max: 6,
        dummy_file_count: 3,
        dummy_file_size: 8 * 1024,
        max_locator_probes: 50_000,
        volume_seed: 0xdead_beef,
        random_fill: true,
        journal_blocks: 0,
        readpath_cache_blocks: 1024,
        hidden_policy: Policy::Plain,
    }
}

/// [`full_feature_params`] with a default coded durability policy, so every
/// hidden object the test creates is dispersed `m`-of-`n`.
pub fn coded_params(m: u8, n: u8) -> StegParams {
    StegParams {
        hidden_policy: Policy::Disperse { m, n },
        ..full_feature_params()
    }
}

/// [`full_feature_params`] plus a write-ahead journal, so the integration
/// tests can exercise the crash-consistent configuration with every
/// camouflage feature switched on.
pub fn journaled_params(journal_blocks: u64) -> StegParams {
    StegParams {
        journal_blocks,
        ..full_feature_params()
    }
}

/// Format a fresh in-memory StegFS volume of `blocks` 1 KB blocks with the
/// full-feature parameters.
pub fn test_volume(blocks: u64) -> StegFs<MemBlockDevice> {
    StegFs::format(MemBlockDevice::new(1024, blocks), full_feature_params())
        .expect("formatting an in-memory test volume")
}

/// Deterministic pseudo-random payload for test files.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = stegfs_crypto::prng::XorShiftRng::new(seed);
    let mut data = vec![0u8; len];
    rng.fill(&mut data);
    data
}

/// A device that hashes what it is asked, in order — kind and block list of
/// every submission — for the tests that pin a stack's ordered traffic.
pub struct Tape {
    /// The backing store.
    pub mem: MemBlockDevice,
    /// Running digest of the traffic seen so far.
    pub traffic: Arc<Mutex<Sha256>>,
}

impl Tape {
    fn record(&self, kind: u8, blocks: &[BlockId]) {
        let mut sha = self.traffic.lock();
        sha.update(&[kind]);
        sha.update(&(blocks.len() as u64).to_be_bytes());
        for b in blocks {
            sha.update(&b.to_be_bytes());
        }
    }
}

impl BlockDevice for Tape {
    fn block_size(&self) -> usize {
        self.mem.block_size()
    }
    fn total_blocks(&self) -> u64 {
        self.mem.total_blocks()
    }
    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        self.record(b'r', &[block]);
        self.mem.read_block(block, buf)
    }
    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        self.record(b'w', &[block]);
        self.mem.write_block(block, buf)
    }
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        self.record(b'R', blocks);
        self.mem.read_blocks(blocks, buf)
    }
    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        self.record(b'W', blocks);
        self.mem.write_blocks(blocks, buf)
    }
    fn flush(&self) -> BlockResult<()> {
        self.record(b'F', &[]);
        self.mem.flush()
    }
}
