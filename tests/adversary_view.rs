//! Tests written from the adversary's point of view: what can an attacker
//! with full knowledge of the implementation and raw access to the device
//! actually learn?
//!
//! These encode the paper's threat model (§1, §3): hidden objects must leave
//! no trace in the central directory, wrong keys must behave exactly like
//! missing objects, and allocated-but-unaccounted blocks must be
//! indistinguishable from abandoned blocks and random fill.

use std::collections::HashSet;
use stegfs_blockdev::{BlockDevice, BufferCache, FaultDevice, MemBlockDevice};
use stegfs_core::blockmap::{BlockMap, Class};
use stegfs_core::{ObjectKind, Parent, StegError, StegFs, StegParams};
use stegfs_fs::Fill;
use stegfs_tests::{full_feature_params, journaled_params, owned_once, payload, test_volume};

const OWNER: &str = "the real key";

/// Shannon entropy (bits per byte) of a buffer.
fn entropy_bits_per_byte(data: &[u8]) -> f64 {
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// What the keyless inspector sees of `fs`.
fn inspect<D: BlockDevice>(fs: &StegFs<D>) -> BlockMap {
    BlockMap::keyless(fs.plain_fs()).unwrap()
}

/// The raw bytes of the first `n` blocks `map` puts in `class`.
fn sample<D: BlockDevice>(fs: &StegFs<D>, map: &BlockMap, class: Class, n: usize) -> Vec<u8> {
    map.blocks(|c| c == class)
        .take(n)
        .flat_map(|b| fs.plain_fs().read_raw_block(b).unwrap())
        .collect()
}

#[test]
fn central_directory_never_mentions_hidden_objects() {
    let fs = test_volume(8192);
    fs.plain_fs()
        .write_file("/innocent.txt", b"cover traffic")
        .unwrap();
    fs.steg_create("the-secret", OWNER, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("the-secret", OWNER, &payload(1, 150 * 1024))
        .unwrap();

    // Nothing in any plain listing refers to the hidden object.
    let listing = fs.plain_fs().list_dir("/").unwrap();
    assert!(listing.iter().all(|e| !e.name.contains("secret")));

    // The blocks of every plain object do not include any block holding the
    // hidden object's data (verified indirectly: freeing the hidden object
    // releases blocks that were never part of the plain set).
    let plain_blocks = |fs| -> Vec<u64> { inspect(fs).blocks(|c| c == Class::Plain).collect() };
    let before = plain_blocks(&fs);
    let before_free = fs.space_report().unwrap().free_blocks;
    fs.remove(Parent::Uak(OWNER), "the-secret").unwrap();
    let after_free = fs.space_report().unwrap().free_blocks;
    assert!(after_free > before_free + 140);
    // Plain set unchanged by the deletion.
    assert_eq!(plain_blocks(&fs), before);
}

#[test]
fn wrong_key_is_indistinguishable_from_absent_object() {
    let fs = test_volume(4096);
    fs.steg_create("exists", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("exists", OWNER, b"present")
        .unwrap();

    let wrong_key = fs
        .read_hidden_with_key("exists", "guessed key")
        .unwrap_err();
    let absent = fs
        .read_hidden_with_key("never-created", "guessed key")
        .unwrap_err();
    // Same variant, same deniable phrasing.
    assert!(wrong_key.is_not_found());
    assert!(absent.is_not_found());
    let w = wrong_key.to_string().replace("exists", "<name>");
    let a = absent.to_string().replace("never-created", "<name>");
    assert_eq!(w, a, "error text must not distinguish the two cases");
}

#[test]
fn hidden_blocks_look_like_random_fill_on_the_raw_device() {
    // Format with random fill, write a highly structured hidden file, then
    // inspect the raw device: every allocated-but-unaccounted block should
    // have the same high entropy as the untouched random fill.
    let fs = test_volume(4096);
    let structured = vec![0u8; 120 * 1024]; // all zeros: worst case plaintext
    fs.steg_create("zeros", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("zeros", OWNER, &structured)
        .unwrap();

    let map = inspect(&fs);
    assert!(
        map.tally().get(Class::Unaccounted) > 120,
        "hidden + dummy + abandoned blocks"
    );

    // Sample entropy of both populations.
    let unaccounted_bytes = sample(&fs, &map, Class::Unaccounted, 64);
    let e_hidden = entropy_bits_per_byte(&unaccounted_bytes);
    let e_free = entropy_bits_per_byte(&sample(&fs, &map, Class::Free, 64));
    assert!(
        e_hidden > 7.5,
        "allocated-but-unaccounted blocks must look random (entropy {e_hidden:.2})"
    );
    assert!(
        (e_hidden - e_free).abs() < 0.3,
        "hidden blocks ({e_hidden:.2} bits/byte) must match free fill ({e_free:.2} bits/byte)"
    );
    // And the all-zero plaintext never appears on the device.
    assert!(unaccounted_bytes.chunks(1024).all(|b| b != [0u8; 1024]));
}

#[test]
fn snapshot_differencing_cannot_separate_real_files_from_dummies() {
    // An attacker who diffs bitmap snapshots sees allocations change between
    // snapshots.  Because dummy files are rewritten too (and real files hold
    // internal free pools), the per-snapshot deltas include dummy activity,
    // so new allocations cannot be attributed to real hidden data.
    let fs = test_volume(8192);
    let free = |fs| -> HashSet<u64> { inspect(fs).blocks(|c| c == Class::Free).collect() };

    let before = free(&fs);
    // Interval 1: only dummy maintenance runs.
    fs.touch_dummy_files().unwrap();
    let after_dummies = free(&fs);
    // Interval 2: a real hidden file is created as well as dummy maintenance.
    fs.steg_create("real", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("real", OWNER, &payload(9, 64 * 1024))
        .unwrap();
    fs.touch_dummy_files().unwrap();
    let after_real = free(&fs);

    let delta = |a: &HashSet<u64>, b: &HashSet<u64>| a.symmetric_difference(b).count();
    let dummy_only_delta = delta(&before, &after_dummies);
    let with_real_delta = delta(&after_dummies, &after_real);
    // Both intervals show allocation churn; the dummy-only interval is not
    // silent, which is exactly what denies the attacker a clean signal.
    assert!(
        dummy_only_delta > 0,
        "dummy maintenance must itself change the bitmap"
    );
    assert!(with_real_delta > 0);
}

#[test]
fn crashed_journaled_volume_reveals_nothing_to_the_inspector() {
    // The strongest position the journal ever puts an adversary in: a
    // journaled volume crashes in the middle of a hidden-file rewrite
    // (header + chain + bitmap in flight), the power-cut tears the unsynced
    // writes, and the inspector images the raw device — including the
    // journal region — before and after replay.
    let params = journaled_params(160);
    let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
    let fs = StegFs::format(BufferCache::new_write_back(dev.clone(), 64), params.clone())
        .expect("format journaled volume");
    fs.plain_fs()
        .write_file("/cover.txt", b"innocent cover traffic")
        .unwrap();
    fs.steg_create("the-secret", OWNER, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("the-secret", OWNER, &vec![0u8; 60 * 1024])
        .unwrap();
    fs.sync().unwrap();

    // Tear a rewrite mid-flight, then crash.
    dev.fail_after_writes(17);
    let _ = fs.write_hidden_with_key("the-secret", OWNER, &vec![0u8; 70 * 1024]);
    drop(fs);
    dev.crash(0x5eed);

    // Remount (replay runs inside mount) and inspect the raw image, journal
    // region included, as an adversary with the full implementation would.
    let fs_probe = StegFs::mount(BufferCache::new_write_back(dev.clone(), 64), params.clone())
        .expect("remount with replay");
    let sb = fs_probe.plain_fs().superblock().clone();

    // The journal region is uniform high entropy — indistinguishable
    // from the random fill around it — and carries no plaintext
    // structure that could tag records as hidden-file activity.
    let mut journal_bytes = Vec::new();
    for b in sb.journal_start..sb.journal_start + sb.journal_blocks {
        journal_bytes.extend(fs_probe.plain_fs().read_raw_block(b).unwrap());
    }
    let e_journal = entropy_bits_per_byte(&journal_bytes);
    assert!(
        e_journal > 7.5,
        "journal region must look like random fill (entropy {e_journal:.2})"
    );
    let zero_block = vec![0u8; 1024];
    for b in sb.journal_start..sb.journal_start + sb.journal_blocks {
        assert_ne!(
            fs_probe.plain_fs().read_raw_block(b).unwrap(),
            zero_block,
            "journal block {b} is structured"
        );
    }

    // Wrong key and never-existed remain indistinguishable after the
    // crash + replay.
    let wrong = fs_probe
        .read_hidden_with_key("the-secret", "guessed key")
        .unwrap_err();
    let absent = fs_probe
        .read_hidden_with_key("never-created", "guessed key")
        .unwrap_err();
    assert!(wrong.is_not_found());
    assert!(absent.is_not_found());
    let w = wrong.to_string().replace("the-secret", "<name>");
    let a = absent.to_string().replace("never-created", "<name>");
    assert_eq!(w, a, "crash + replay must not split the error families");

    // The rightful owner still reads a complete (never torn) file.
    let got = fs_probe.read_hidden_with_key("the-secret", OWNER).unwrap();
    assert!(
        got == vec![0u8; 60 * 1024] || got == vec![0u8; 70 * 1024],
        "owner sees a torn rewrite of {} bytes",
        got.len()
    );

    // Allocated-but-unaccounted blocks (hidden + dummies + abandoned)
    // still match the free fill's entropy, as on a never-crashed volume.
    let map = inspect(&fs_probe);
    let e_hidden = entropy_bits_per_byte(&sample(&fs_probe, &map, Class::Unaccounted, 64));
    let e_free = entropy_bits_per_byte(&sample(&fs_probe, &map, Class::Free, 64));
    assert!(
        (e_hidden - e_free).abs() < 0.3,
        "after a crash, unaccounted blocks ({e_hidden:.2}) must still match free fill ({e_free:.2})"
    );
}

#[test]
fn dispersed_volume_is_statistically_indistinguishable_from_a_plain_one() {
    // Same volume geometry, same seed, same logical content — one volume
    // stores the hidden file Plain, the other dispersed 2-of-4.  The
    // dispersed volume allocates more blocks (that is the price of
    // redundancy, and on its own says nothing: dummies, abandoned blocks
    // and bigger files move that number too), but the *blocks themselves*
    // must be statistically identical: shares are AES-CTR ciphertext placed
    // by independent locator probes, exactly like every other hidden block.
    let plain_fs = StegFs::format(
        MemBlockDevice::new(1024, 8192),
        stegfs_tests::full_feature_params(),
    )
    .unwrap();
    let coded_fs = StegFs::format(
        MemBlockDevice::new(1024, 8192),
        stegfs_tests::coded_params(2, 4),
    )
    .unwrap();
    for fs in [&plain_fs, &coded_fs] {
        fs.steg_create("payload", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("payload", OWNER, &vec![0u8; 80 * 1024])
            .unwrap();
    }

    // The adversary's complete statistical view of the hidden population:
    // how many unaccounted blocks there are, and their entropy.
    let profile = |fs| {
        let map = inspect(fs);
        let bytes = sample(fs, &map, Class::Unaccounted, 96);
        (
            entropy_bits_per_byte(&bytes),
            map.tally().get(Class::Unaccounted),
        )
    };
    let (e_plain, n_plain) = profile(&plain_fs);
    let (e_coded, n_coded) = profile(&coded_fs);
    assert!(n_coded > n_plain, "dispersal stores extra share blocks");
    assert!(
        e_plain > 7.5 && e_coded > 7.5,
        "both populations look like random fill ({e_plain:.2} vs {e_coded:.2})"
    );
    assert!(
        (e_plain - e_coded).abs() < 0.1,
        "share blocks must not be statistically separable from plain hidden \
         blocks ({e_plain:.3} vs {e_coded:.3} bits/byte)"
    );
    // The worst-case plaintext (all zeros, stored 4 ways) never surfaces.
    let map = inspect(&coded_fs);
    for block in map.blocks(|c| matches!(c, Class::Plain | Class::Unaccounted)) {
        assert_ne!(
            coded_fs.plain_fs().read_raw_block(block).unwrap(),
            [0u8; 1024]
        );
    }
}

#[test]
fn wrong_key_on_a_dispersed_volume_still_reads_as_never_existed() {
    let fs = StegFs::format(
        MemBlockDevice::new(1024, 8192),
        stegfs_tests::coded_params(2, 4),
    )
    .unwrap();
    fs.steg_create("coded-secret", OWNER, ObjectKind::File)
        .unwrap();
    fs.write_hidden_with_key("coded-secret", OWNER, &payload(3, 30 * 1024))
        .unwrap();

    let wrong = fs
        .read_hidden_with_key("coded-secret", "guessed key")
        .unwrap_err();
    let absent = fs
        .read_hidden_with_key("never-created", "guessed key")
        .unwrap_err();
    assert!(wrong.is_not_found());
    assert!(absent.is_not_found());
    let w = wrong.to_string().replace("coded-secret", "<name>");
    let a = absent.to_string().replace("never-created", "<name>");
    assert_eq!(
        w, a,
        "a coded object under the wrong key must read as never-existed"
    );
}

#[test]
fn formatting_without_random_fill_would_leak_and_is_therefore_detectable() {
    // Negative control for the entropy test above: on a volume formatted
    // *without* random fill, free blocks are all zeros, so allocated
    // encrypted blocks stand out starkly.  This documents why the paper's
    // format step writes random patterns everywhere.
    // No random fill, and none of the other camouflage either, so the only
    // allocated-but-unaccounted blocks are the encrypted ones of the hidden
    // file itself.
    let params = StegParams {
        random_fill: false,
        abandoned_pct: 0.0,
        dummy_file_count: 0,
        free_blocks_min: 0,
        free_blocks_max: 0,
        ..full_feature_params()
    };
    let fs = StegFs::format(MemBlockDevice::new(1024, 4096), params).unwrap();
    fs.steg_create("obvious", OWNER, ObjectKind::File).unwrap();
    fs.write_hidden_with_key("obvious", OWNER, &vec![0u8; 50 * 1024])
        .unwrap();

    let map = inspect(&fs);
    let e_free = entropy_bits_per_byte(&sample(&fs, &map, Class::Free, 32));
    let e_hidden = entropy_bits_per_byte(&sample(&fs, &map, Class::Unaccounted, 32));
    assert!(e_free < 1.0, "zero-filled free space has near-zero entropy");
    assert!(e_hidden > 7.0, "encrypted blocks are high entropy");
    // The gap is the leak: an adversary can spot hidden data immediately.
    assert!(e_hidden - e_free > 5.0);
}

/// The 28 bytes the hidden sources repeat.  All distinct, so one byte names
/// the only phase of the source a window starting there can be.
const MARKER: &[u8; 28] = b"0123456789abcdefghijklmnopqr";

/// A source of `len` bytes: [`MARKER`] over and over.
fn marker_source(len: usize) -> Vec<u8> {
    MARKER.iter().copied().cycle().take(len).collect()
}

/// Blocks of the raw image `raw` that hold some 32-byte window of a
/// [`marker_source`]: what the inspector who reads the medium with no key
/// (and no initial information) finds of the file.
fn blocks_holding_the_source(raw: &[u8], block_size: usize) -> Vec<usize> {
    let source = marker_source(MARKER.len() + 32);
    let mut phase = [None; 256];
    for (p, &b) in MARKER.iter().enumerate() {
        phase[b as usize] = Some(p);
    }
    raw.chunks_exact(block_size)
        .enumerate()
        .filter(|(_, block)| {
            block
                .windows(32)
                .any(|w| phase[w[0] as usize].is_some_and(|p| w == &source[p..p + 32]))
        })
        .map(|(b, _)| b)
        .collect()
}

/// Hide a 20 KiB plain file on `params` and sync: no block of the raw
/// image holds any 32-byte window of it any more.  The hide scrubs each
/// data block of the source back to its format-time fill before freeing
/// it, in the transaction that creates the hidden object, so each reads
/// byte for byte as a block never written.  On a journaled
/// volume the ring slots that carried the source's own write are
/// encrypted under the journal key, so no window shows there either; that
/// an inspector who derives the journal key could still read them is the
/// ring's half of the problem, left to the journal.
fn hide_leaves_no_copy_of_its_source(params: StegParams) {
    let fill = Fill {
        random: params.random_fill,
        seed: params.volume_seed,
    };
    let fs = StegFs::format(MemBlockDevice::new(1024, 8192), params).unwrap();
    let source = marker_source(20 * 1024);
    fs.plain_fs().write_file("/cover.txt", &source).unwrap();
    fs.sync().unwrap();
    let raw = fs.plain_fs().device().snapshot_raw();
    let held = blocks_holding_the_source(&raw, 1024);
    assert_eq!(
        held.len(),
        20,
        "the probe misses the source before the hide"
    );

    fs.steg_hide("/cover.txt", "cover", OWNER).unwrap();
    fs.sync().unwrap();
    let raw = fs.plain_fs().device().snapshot_raw();
    let found = blocks_holding_the_source(&raw, 1024);
    assert!(
        found.is_empty(),
        "blocks still holding the source: {found:?}"
    );
    let mut never_written = vec![0u8; 1024];
    for b in held {
        fill.image(b as u64, &mut never_written);
        assert!(raw[b * 1024..][..1024] == never_written, "block {b}");
    }
    assert_eq!(fs.read_hidden_with_key("cover", OWNER).unwrap(), source);
    assert!(!fs.plain_fs().exists("/cover.txt").unwrap());
}

#[test]
fn a_hidden_file_leaves_no_plaintext_copy_on_the_raw_device() {
    hide_leaves_no_copy_of_its_source(full_feature_params());
    hide_leaves_no_copy_of_its_source(journaled_params(256));
}

/// A journaled hide of a `kib` KiB source on a 160-block ring, 1 KiB
/// blocks.  Its transaction is cut into ring-sized pieces, and the scrub
/// rides in the final one with the inode-table blocks and the bitmap
/// snapshot: that piece holds 151 scrubbed blocks here, no more.
fn hide_on_a_small_ring(kib: usize) -> (StegFs<MemBlockDevice>, Vec<u8>, Result<(), StegError>) {
    let fs = StegFs::format(MemBlockDevice::new(1024, 8192), journaled_params(160)).unwrap();
    let source = marker_source(kib * 1024);
    fs.plain_fs().write_file("/big.txt", &source).unwrap();
    let hidden = fs.steg_hide("/big.txt", "big", OWNER);
    (fs, source, hidden)
}

/// A source one block over what the final piece can scrub fails the hide
/// `NoSpace` before any piece reaches the ring: the plain file reads back
/// whole, the hidden name does not exist, and no block leaked.
#[test]
fn a_hide_too_large_to_scrub_in_the_final_piece_fails_and_keeps_its_source() {
    let (fs, source, hidden) = hide_on_a_small_ring(152);
    assert!(matches!(hidden, Err(StegError::NoSpace)), "{hidden:?}");
    assert_eq!(fs.plain_fs().read_file("/big.txt").unwrap(), source);
    assert!(fs
        .read_hidden_with_key("big", OWNER)
        .unwrap_err()
        .is_not_found());
    assert_eq!(owned_once(&fs, &[OWNER]).leak(), Some(0));
}

/// A source that just fits is hidden and scrubbed, although the rest of
/// its transaction commits in earlier pieces: every block has one owner,
/// none leaked, and no block holds the source.
#[test]
fn a_hide_just_under_the_final_piece_lands_clean() {
    let (fs, source, hidden) = hide_on_a_small_ring(151);
    hidden.unwrap();
    assert_eq!(fs.read_hidden_with_key("big", OWNER).unwrap(), source);
    assert!(!fs.plain_fs().exists("/big.txt").unwrap());
    assert_eq!(owned_once(&fs, &[OWNER]).leak(), Some(0));
    fs.sync().unwrap();
    let raw = fs.plain_fs().device().snapshot_raw();
    let found = blocks_holding_the_source(&raw, 1024);
    assert!(
        found.is_empty(),
        "blocks still holding the source: {found:?}"
    );
}
