//! Shared fixtures for the cross-crate integration tests.

#![forbid(unsafe_code)]

use std::sync::Arc;
use stegfs_blockdev::{BlockDevice, Dir, FaultDevice, MemBlockDevice, Trigger};
use stegfs_core::blockmap::{diff, BlockMap};
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

/// The keyed block-owner map of `fs` under `uaks`, asserted free of
/// ownership violations: no block with two owners, and none owned but free
/// or outside the data region.
pub fn owned_once<D: BlockDevice>(fs: &StegFs<D>, uaks: &[&str]) -> BlockMap {
    let map = BlockMap::keyed(fs, uaks).expect("build the block-owner map");
    if let Some(first) = map.violations().first() {
        panic!("{first} (and {} more)", map.violations().len() - 1);
    }
    map
}

/// Lower-case hex of `bytes`, as the pins print digests.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An image pin: a fixed script whose final raw image a test hashes, with
/// what the block-owner map needs to read that image.
pub struct Pin<'a> {
    /// The pin's name; its last good image is kept as `<name>.img`.
    pub name: &'a str,
    /// The volume parameters the script formats with.
    pub params: StegParams,
    /// Every UAK the script creates objects under.
    pub uaks: &'a [&'a str],
    /// Where the last good image is kept: the test's
    /// `env!("CARGO_TARGET_TMPDIR")`.
    pub dir: &'a str,
}

impl Pin<'_> {
    /// Assert that `digest`, which covers the final `image` of `block_size`
    /// blocks, equals `pinned`.  A pass keeps `image` as the pin's last good
    /// image.  A mismatch panics with `context` and the keyed block-owner
    /// map of `image`: its blocks per class, and, when an earlier run kept a
    /// last good image, the blocks that differ from it per class.  A change
    /// that moves the pin runs it once on its parent and once on itself,
    /// and its re-record pastes the second table.
    pub fn check(
        &self,
        digest: &str,
        pinned: &str,
        image: &[u8],
        block_size: usize,
        context: &str,
    ) {
        let kept = format!("{}/{}.img", self.dir, self.name);
        if digest == pinned {
            std::fs::write(&kept, image).expect("keep the last good image");
            return;
        }
        panic!(
            "{}: digest {digest}, pinned {pinned}; {context}\n{}",
            self.name,
            self.report(image, block_size, &kept)
        );
    }

    /// The block-owner map's tables for `image`, against the image kept at
    /// `kept` when there is one.
    fn report(&self, image: &[u8], block_size: usize, kept: &str) -> String {
        let dev = MemBlockDevice::new(block_size, (image.len() / block_size) as u64);
        let all: Vec<u64> = (0..dev.total_blocks()).collect();
        dev.write_blocks(&all, image).expect("load the image");
        let map = match StegFs::mount(dev, self.params.clone())
            .and_then(|fs| BlockMap::keyed(&fs, self.uaks))
        {
            Ok(map) => map,
            Err(e) => return format!("the final image does not map: {e}"),
        };
        let mut out = format!(
            "final image, blocks per class (leak {:?}, violations {:?}):\n{}",
            map.leak(),
            map.violations(),
            map.tally()
        );
        match std::fs::read(kept) {
            Ok(old) if old.len() == image.len() => out.push_str(&format!(
                "\nblocks that differ from the last good image ({kept}), per class:\n{}",
                diff(&old, image, &map)
            )),
            _ => out.push_str(&format!("\nno last good image at {kept} to diff against")),
        }
        out
    }
}

/// A pass-through [`FaultDevice`] over `mem` that hashes what it is asked,
/// in order — kind and block list of every submission — for the tests that
/// pin a stack's ordered traffic; and the running digest.
pub fn tape(mem: MemBlockDevice) -> (FaultDevice<MemBlockDevice>, Arc<Mutex<Sha256>>) {
    let traffic = Arc::new(Mutex::new(Sha256::new()));
    let sha = Arc::clone(&traffic);
    let dev = FaultDevice::new(mem);
    dev.record(Trigger::when(|_| true), move |op| {
        let kind = match (op.dir, op.batch) {
            (Dir::Read, false) => b'r',
            (Dir::Read, true) => b'R',
            (Dir::Write, false) => b'w',
            (Dir::Write, true) => b'W',
            (Dir::Flush, _) => b'F',
        };
        let mut sha = sha.lock();
        sha.update(&[kind]);
        sha.update(&(op.blocks.len() as u64).to_be_bytes());
        for b in op.blocks {
            sha.update(&b.to_be_bytes());
        }
    });
    (dev, traffic)
}
