//! The journaled write-back stack, pinned bit for bit: `StegFs` with a
//! write-ahead journal over a write-back `BufferCache`, driven through a
//! fixed sequence (format, plain write, hidden create/write/patch, commit,
//! more of each, clean unmount), must leave the raw device — superblock,
//! bitmap, journal ring, plain and hidden blocks — exactly where the commit
//! that recorded the constant below left it.  `tests/coded_rmw.rs` pins the
//! coded hidden path on an unjournaled volume; this pins what it does not
//! reach: the ring's AES-CTR slots, their keyed AES slot and payload checks
//! (format v3), and the anchor the final checkpoint writes.

use stegfs_blockdev::{BlockDevice, BufferCache, MemBlockDevice};
use stegfs_core::{ObjectKind, StegFs};
use stegfs_crypto::sha256::sha256;
use stegfs_tests::{hex, journaled_params, payload, Pin};

const OWNER: &str = "the real key";
const BS: usize = 1024;
const CACHE_BLOCKS: usize = 64;

/// SHA-256 of the raw device after [`drive`].  First recorded at the last
/// commit whose only cipher was the T-table AES and whose only hash was the
/// scalar SHA-256: a hardware back end changes how fast these bytes are
/// produced, never which bytes.  Re-recorded for format v3, whose keyed
/// journal checks changed the superblock's version field and the journal
/// ring's slots, and no other block; and for format v4, whose block nonce
/// changed the version field, the journal ring's slots and every
/// hidden-object block, and no other block.  Re-recorded when each hidden
/// namespace operation became one transaction: fewer commits lay the
/// journal ring's slots out differently, and no other block changed.
/// Re-recorded when a growing handle write became one transaction: 10
/// blocks moved, all in the journal ring (its anchors, one intent, three
/// payloads, one commit and three unused slots).
const GOLDEN_IMAGE_SHA256: &str =
    "c18857fe53e8018ae8aa2bc043997f6206f6ddbb655731440e17d85f4de489b7";

type Stack = StegFs<BufferCache<MemBlockDevice>>;

/// The fixed operation sequence; returns the flushed bare device.
fn drive() -> MemBlockDevice {
    let fs: Stack = StegFs::format(
        BufferCache::new_write_back(MemBlockDevice::new(BS, 8192), CACHE_BLOCKS),
        journaled_params(160),
    )
    .expect("format journaled volume");

    let notes = payload(1, 20_000);
    fs.plain_fs().write_file("/notes.txt", &notes).unwrap();

    fs.steg_create("budget", OWNER, ObjectKind::File).unwrap();
    let mut budget = payload(2, 40 * BS + 123);
    fs.write_hidden_with_key("budget", OWNER, &budget).unwrap();
    let patch = payload(3, 9 * BS + 77);
    let mut handle = fs.open_hidden("budget", OWNER).unwrap();
    fs.write_at_handle(&mut handle, 5000, &patch).unwrap();
    budget[5000..5000 + patch.len()].copy_from_slice(&patch);

    // Commit: checkpoint the ring, then keep going so the final image holds
    // both reclaimed and freshly written slots.
    fs.sync().unwrap();

    let memo = payload(4, 3 * BS + 5);
    fs.plain_fs().write_file("/memo.txt", &memo).unwrap();
    fs.steg_create("ledger", OWNER, ObjectKind::File).unwrap();
    let ledger = payload(5, 11 * BS);
    fs.write_hidden_with_key("ledger", OWNER, &ledger).unwrap();
    // Grown through a handle write that straddles the old end of file.
    let tail = payload(6, 2 * BS + 9);
    let at = budget.len() - BS;
    let mut handle = fs.open_hidden("budget", OWNER).unwrap();
    fs.write_at_handle(&mut handle, at as u64, &tail).unwrap();
    budget.truncate(at);
    budget.extend_from_slice(&tail);

    assert_eq!(fs.plain_fs().read_file("/notes.txt").unwrap(), notes);
    assert_eq!(fs.plain_fs().read_file("/memo.txt").unwrap(), memo);
    assert_eq!(fs.read_hidden_with_key("budget", OWNER).unwrap(), budget);
    assert_eq!(fs.read_hidden_with_key("ledger", OWNER).unwrap(), ledger);

    // Clean unmount: final sync flushes the write-back cache to the device.
    fs.unmount().expect("unmount").into_inner()
}

#[test]
fn golden_journaled_volume_image_is_bit_identical() {
    let dev = drive();
    let mut image = Vec::with_capacity(dev.total_blocks() as usize * BS);
    for b in 0..dev.total_blocks() {
        image.extend(dev.read_block_vec(b).expect("raw read"));
    }
    let pin = Pin {
        name: "golden_journaled",
        params: journaled_params(160),
        uaks: &[OWNER],
        dir: env!("CARGO_TARGET_TMPDIR"),
    };
    pin.check(&hex(&sha256(&image)), GOLDEN_IMAGE_SHA256, &image, BS, "");

    // The flushed device mounts cleanly and serves the same bytes back.
    let fs: Stack = StegFs::mount(
        BufferCache::new_write_back(dev, CACHE_BLOCKS),
        journaled_params(160),
    )
    .expect("remount");
    assert_eq!(
        fs.plain_fs().read_file("/memo.txt").unwrap(),
        payload(4, 3 * BS + 5)
    );
    assert_eq!(
        fs.read_hidden_with_key("ledger", OWNER).unwrap(),
        payload(5, 11 * BS)
    );
}
