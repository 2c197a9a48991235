//! The hidden namespace, pinned submission for submission.
//!
//! The two golden images and `tests/cache_lru.rs` never create a hidden
//! directory, rename, remove, share, rebuild or repair.
//! This test drives exactly those paths through `StegFs` on the journaled
//! write-back stack with every object dispersed 2-of-3 — directory children
//! at two depths, handle writes and truncations, listing upserts and deletes
//! (and the shadow listings behind them), a top-level rename, a share
//! between two UAKs, a dummy refresh, a directory rebuilt from its shadow
//! after every header replica is zeroed, degraded reads on all four read
//! paths and the keyed repairs that heal them — and pins one SHA-256 over
//! the ordered traffic the device below the `BufferCache` saw, its block,
//! byte and submission totals and the raw image.  Block placement and scrub noise hang off the
//! order in which the facade forks its rng, so a refactor that moves one
//! draw, one probe or one cache bypass changes the constant.
//!
//! A top-level `remove`, `steg_unhide` and `revoke_sharing` stay out of the
//! script.  Each is one transaction (unhide adds a plain commit), and the
//! namespace sweep in `tests/journal_crash.rs` crashes each of them at every
//! block write it makes.

use stegfs_blockdev::{BlockDevice, BufferCache, FaultDevice, MemBlockDevice, ObservedDevice};
use stegfs_core::{
    DirectoryEntry, ObjectKind, Parent, Policy, RepairOutcome, StegFs, StegParams, UakDirectory,
};
use stegfs_crypto::rsa::RsaKeyPair;
use stegfs_crypto::sha256::{sha256, Sha256};
use stegfs_obs::DeviceSummary;
use stegfs_tests::{hex, journaled_params, payload, tape, Pin};

const OWNER: &str = "the real key";
const FRIEND: &str = "a colleague's key";
const BS: usize = 1024;
const BUFFER_CACHE_BLOCKS: usize = 64;

/// SHA-256 over traffic digest, device totals and image digest of
/// [`run_script`], recorded when the `BufferCache` began demoting written,
/// never-read blocks once written back.  Against the previous recording
/// only reads moved — 28 989 → 29 006 submissions, 29 210 → 29 229 blocks
/// (written blocks read back after their demoted copies left) — with
/// writes, flushes and the image unchanged.  Re-recorded for format v3 and
/// again for v4: traffic and device totals are unchanged, and only the
/// image moved (v3: the superblock's version field, the journal ring's
/// slots and the coded objects' header and chain-node blocks; v4: the
/// version field, the journal ring's slots and every hidden-object block).
/// Re-recorded when each hidden namespace operation became one transaction
/// and a new directory stopped writing an empty listing: flushes 98 → 56,
/// writes 8 339 → 8 342 submissions and 9 668 → 9 477 blocks, reads
/// 29 006 → 28 986 and 29 229 → 29 206.  The image moved in the ring's
/// slots, the bitmap block and most hidden-object blocks: without the
/// listing writes, later allocations land elsewhere.  Re-recorded when a
/// growing handle write became one transaction: flushes 56 → 51, writes
/// 8 342 → 8 324 submissions and 9 477 → 9 322 blocks, reads 28 986 →
/// 28 984 and 29 206 → 29 198; the image moved only in the journal ring's
/// 160 slots.  Re-recorded when `Plain` became the (1, 1) code of one group
/// path: a coded truncate drops whole groups and a zero-extend or growing
/// handle write appends them instead of re-encoding the object, a coded
/// patch resolves its chain through the read cache, and coded blocks are
/// cached under their primary shares' block numbers.  Flushes stay 51;
/// writes 8 324 → 8 320 submissions and 9 322 → 9 210 blocks, reads
/// 28 984 → 28 810 and 29 198 → 29 026.  The image moved in 302 blocks:
/// the bitmap block, the journal ring's 160 slots, 58 free blocks and 83
/// hidden-object blocks (12 headers, 12 chain nodes, 40 shares, 19 pool).
/// The same script with `hidden_policy: Plain`, stopped before the damage
/// steps, gives the same traffic and image at both commits.
const PINNED: &str = "2f3bb156624c642d7cbf9d8af92f98ce24d7a4c06e85c0bf9f5ec22f35a74b0b";

type Disk = ObservedDevice<FaultDevice<MemBlockDevice>>;
type Stack = StegFs<BufferCache<Disk>>;

fn params() -> StegParams {
    StegParams {
        hidden_policy: Policy::Disperse { m: 2, n: 3 },
        ..journaled_params(160)
    }
}

fn cached(disk: Disk) -> BufferCache<Disk> {
    BufferCache::new_write_back(disk, BUFFER_CACHE_BLOCKS)
}

fn child(fs: &Stack, parent: &DirectoryEntry, name: &str) -> DirectoryEntry {
    fs.list(Parent::Dir(parent))
        .unwrap()
        .find(name)
        .cloned()
        .unwrap_or_else(|| panic!("{name} not listed"))
}

/// Every header replica of the object `entry` names.
fn header_blocks(fs: &Stack, entry: &DirectoryEntry) -> Vec<u64> {
    let keys = fs.keys_for(&entry.physical_name, &entry.fak);
    let obj = fs.object_io(&keys).open(&entry.physical_name);
    obj.expect("open for header blocks")
        .header_blocks()
        .to_vec()
}

/// Damage at rest: zeros written through the `BufferCache`, so cache and
/// disk agree about what the block now holds.
fn zero_block(fs: &Stack, block: u64) {
    fs.plain_fs()
        .device()
        .write_block(block, &[0u8; BS])
        .unwrap();
}

fn names(listing: UakDirectory) -> Vec<String> {
    let mut names: Vec<String> = listing.entries.into_iter().map(|e| e.name).collect();
    names.sort();
    names
}

/// The fixed script; returns (traffic digest, device totals, raw image).
fn run_script() -> (String, DeviceSummary, Vec<u8>) {
    let (tape, traffic) = tape(MemBlockDevice::new(BS, 8192));
    let disk = ObservedDevice::counting(tape);
    let io = disk.stats().clone();
    let fs: Stack = StegFs::format(cached(disk), params()).expect("format");

    // A directory tree two levels deep.
    fs.steg_create("vault", OWNER, ObjectKind::Directory)
        .unwrap();
    let vault = fs.lookup_entry("vault", OWNER).unwrap();
    fs.create(Parent::Dir(&vault), "a.bin", ObjectKind::File)
        .unwrap();
    fs.create(Parent::Dir(&vault), "b.bin", ObjectKind::File)
        .unwrap();
    fs.create(Parent::Dir(&vault), "sub", ObjectKind::Directory)
        .unwrap();
    fs.create(Parent::Dir(&vault), "tmp", ObjectKind::Directory)
        .unwrap();
    let sub = child(&fs, &vault, "sub");
    let tmp = child(&fs, &vault, "tmp");
    fs.create(Parent::Dir(&sub), "deep.bin", ObjectKind::File)
        .unwrap();
    fs.create(Parent::Dir(&sub), "empty", ObjectKind::Directory)
        .unwrap();
    fs.create(Parent::Dir(&tmp), "only.bin", ObjectKind::File)
        .unwrap();

    // Handle writes on children: grow from empty, patch in place, straddle
    // the end, truncate to a non-block boundary, zero-extend.
    let a = child(&fs, &vault, "a.bin");
    let mut a_data = payload(1, 20 * BS + 300);
    let mut h = fs.open_hidden_entry(&a).unwrap();
    fs.write_at_handle(&mut h, 0, &a_data).unwrap();
    let patch = payload(2, 3 * BS + 11);
    fs.write_at_handle(&mut h, 2500, &patch).unwrap();
    a_data[2500..2500 + patch.len()].copy_from_slice(&patch);
    let tail = payload(3, 2 * BS);
    let at = a_data.len() - 700;
    fs.write_at_handle(&mut h, at as u64, &tail).unwrap();
    a_data.truncate(at);
    a_data.extend_from_slice(&tail);
    fs.truncate_handle(&mut h, 9 * BS as u64 + 123).unwrap();
    a_data.truncate(9 * BS + 123);
    fs.truncate_handle(&mut h, 12 * BS as u64).unwrap();
    a_data.resize(12 * BS, 0);
    assert_eq!(fs.read_range_at(&h, 0, a_data.len() + 1).unwrap(), a_data);
    drop(h);

    let deep = child(&fs, &sub, "deep.bin");
    let deep_data = payload(4, 7 * BS + 5);
    let mut h = fs.open_hidden_entry(&deep).unwrap();
    fs.write_at_handle(&mut h, 0, &deep_data).unwrap();
    drop(h);
    let b = child(&fs, &vault, "b.bin");
    let mut h = fs.open_hidden_entry(&b).unwrap();
    fs.write_at_handle(&mut h, 0, &payload(5, 4 * BS)).unwrap();
    fs.truncate_handle(&mut h, 0).unwrap();
    drop(h);

    // Listing rewrites: rename, remove a file, remove an empty directory,
    // empty a directory (its shadow listing goes) and remove it too.
    fs.rename(Parent::Dir(&vault), "b.bin", "c.bin").unwrap();
    assert_eq!(
        fs.remove(Parent::Dir(&vault), "c.bin").unwrap().name,
        "c.bin"
    );
    fs.remove(Parent::Dir(&sub), "empty").unwrap();
    fs.remove(Parent::Dir(&tmp), "only.bin").unwrap();
    fs.remove(Parent::Dir(&vault), "tmp").unwrap();
    assert_eq!(
        names(
            fs.list(Parent::Dir(&fs.lookup_entry("vault", OWNER).unwrap()))
                .unwrap()
        ),
        ["a.bin", "sub"]
    );

    // Top-level rename, then a share between two UAKs.
    fs.steg_create("ledger", OWNER, ObjectKind::File).unwrap();
    let mut books = payload(6, 11 * BS + 40);
    fs.write_hidden_with_key("ledger", OWNER, &books).unwrap();
    fs.rename(Parent::Uak(OWNER), "ledger", "books").unwrap();
    let friend_rsa = RsaKeyPair::generate(512, b"golden namespace recipient");
    let envelope = fs
        .steg_getentry("books", OWNER, &friend_rsa.public)
        .unwrap();
    assert_eq!(
        fs.steg_addentry(&envelope, &friend_rsa.private, FRIEND)
            .unwrap(),
        "books"
    );
    assert_eq!(fs.read_hidden_with_key("books", FRIEND).unwrap(), books);
    let patch = payload(7, 2 * BS + 1);
    let mut shared = fs.open_hidden("books", FRIEND).unwrap();
    fs.write_at_handle(&mut shared, 3000, &patch).unwrap();
    books[3000..3000 + patch.len()].copy_from_slice(&patch);

    assert_eq!(fs.touch_dummy_files().unwrap(), 3);
    fs.sync().unwrap();

    // Lose every header replica of `sub`: past its redundancy, so only the
    // shadow listing can bring the directory back.
    for block in header_blocks(&fs, &sub) {
        zero_block(&fs, block);
    }
    fs.purge_read_caches();
    assert!(fs.list(Parent::Dir(&sub)).is_err());
    let rebuilt = fs.rebuild_dir_from_shadow(&sub).unwrap();
    assert_eq!(rebuilt.children_relinked, 1);
    assert!(rebuilt.children_dropped.is_empty());

    // Damage within tolerance — `n - m` shares of one group of `books`, the
    // primary header replica of `vault` — then a degraded read through each
    // read path, and the keyed repairs that heal both objects.
    let groups = fs.hidden_share_extents("books", OWNER).unwrap();
    zero_block(&fs, groups[1][0]);
    zero_block(&fs, header_blocks(&fs, &vault)[0]);
    fs.purge_read_caches();
    assert_eq!(fs.read_hidden_with_key("books", OWNER).unwrap(), books);
    fs.purge_read_caches();
    assert_eq!(
        fs.read_range_at(
            &fs.open_hidden("books", OWNER).unwrap(),
            2 * BS as u64,
            3 * BS
        )
        .unwrap(),
        &books[2 * BS..5 * BS]
    );
    let h = fs.open_hidden("books", OWNER).unwrap();
    fs.purge_read_caches();
    assert_eq!(fs.read_range_at(&h, 0, books.len()).unwrap(), books);
    drop(h);
    assert_eq!(
        names(
            fs.list(Parent::Dir(&fs.lookup_entry("vault", OWNER).unwrap()))
                .unwrap()
        )
        .len(),
        2
    );
    let books_entry = fs.lookup_entry("books", OWNER).unwrap();
    for entry in [&books_entry, &vault] {
        assert!(matches!(
            fs.scavenge_entry(entry).unwrap(),
            RepairOutcome::Repaired { .. }
        ));
    }

    fs.purge_session_caches(OWNER);
    let cache = fs.unmount().expect("unmount");
    assert_eq!(cache.dirty_blocks(), 0);

    // Remount over a fresh cache: everything is served back, healthy.
    let fs: Stack = StegFs::mount(cached(cache.into_inner()), params()).expect("remount");
    assert_eq!(
        names(fs.list(Parent::Uak(OWNER)).unwrap()),
        ["books", "vault"]
    );
    assert_eq!(names(fs.list(Parent::Uak(FRIEND)).unwrap()), ["books"]);
    assert_eq!(fs.read_hidden_with_key("books", FRIEND).unwrap(), books);
    let vault = fs.lookup_entry("vault", OWNER).unwrap();
    let a = child(&fs, &vault, "a.bin");
    let h = fs.open_hidden_entry(&a).unwrap();
    assert_eq!(fs.read_range_at(&h, 0, a_data.len() + 1).unwrap(), a_data);
    drop(h);
    let sub = child(&fs, &vault, "sub");
    let deep = child(&fs, &sub, "deep.bin");
    let h = fs.open_hidden_entry(&deep).unwrap();
    assert_eq!(
        fs.read_range_at(&h, 0, deep_data.len() + 1).unwrap(),
        deep_data
    );
    drop(h);
    let tape = fs.unmount().expect("unmount").into_inner().into_inner();

    // The digest is taken before the image is read through the tape.
    let traffic = traffic.lock().clone().finalize();
    let mut image = Vec::with_capacity(tape.total_blocks() as usize * BS);
    for b in 0..tape.total_blocks() {
        image.extend(tape.read_block_vec(b).expect("raw read"));
    }
    (hex(&traffic), io.summary(), image)
}

#[test]
fn hidden_namespace_is_pinned_submission_for_submission() {
    let (traffic, io, image) = run_script();
    let image_digest = hex(&sha256(&image));
    let mut all = Sha256::new();
    all.update(traffic.as_bytes());
    for total in [
        io.blocks_read,
        io.blocks_written,
        io.blocks_read * BS as u64,
        io.blocks_written * BS as u64,
        io.reads,
        io.writes,
    ] {
        all.update(&total.to_be_bytes());
    }
    all.update(image_digest.as_bytes());
    let pin = Pin {
        name: "golden_namespace",
        params: params(),
        uaks: &[OWNER, FRIEND],
        dir: env!("CARGO_TARGET_TMPDIR"),
    };
    pin.check(
        &hex(&all.finalize()),
        PINNED,
        &image,
        BS,
        &format!("traffic {traffic}, image {image_digest}, {io:?}"),
    );
}
