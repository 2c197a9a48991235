//! The coded hidden write path, from outside the engine: the on-disk image a
//! fixed sequence of coded operations produces is pinned to a constant, and
//! in-place patches of coded objects follow the edge-only group plan — a
//! fully covered group is encoded straight from the caller's bytes (no share
//! of it is read), a partially covered one is decoded first and therefore
//! still fails closed when damaged beyond tolerance.

use std::sync::Arc;
use stegfs_blockdev::{BlockDevice, Dir, FaultDevice, MemBlockDevice, ObservedDevice, Trigger};
use stegfs_core::hidden::RepairOutcome;
use stegfs_core::{ObjectKind, Policy, StegFs};
use stegfs_crypto::sha256::sha256;
use stegfs_obs::lock::Mutex;
use stegfs_tests::{full_feature_params, hex, payload, Pin};

const OWNER: &str = "the real key";
const BS: usize = 1024;

const POLICIES: [(&str, Policy); 3] = [
    ("d23", Policy::Disperse { m: 2, n: 3 }),
    ("d35", Policy::Disperse { m: 3, n: 5 }),
    ("r2", Policy::Replicate(2)),
];

type CodedVolume = StegFs<FaultDevice<MemBlockDevice>>;

fn volume() -> CodedVolume {
    StegFs::format(
        FaultDevice::new(MemBlockDevice::new(BS, 8192)),
        full_feature_params(),
    )
    .expect("format")
}

fn raw_image<D: BlockDevice>(fs: &StegFs<D>) -> Vec<u8> {
    let dev = fs.plain_fs().device();
    let mut image = Vec::with_capacity(dev.total_blocks() as usize * dev.block_size());
    for b in 0..dev.total_blocks() {
        image.extend(dev.read_block_vec(b).expect("raw read"));
    }
    image
}

/// The five ways a patch can sit relative to the `m * BS`-byte groups of an
/// object `size` bytes long (`size` is not a group multiple and spans at
/// least six groups): `(offset, len)`.
fn alignment_matrix(group: usize, size: usize) -> [(usize, usize); 5] {
    [
        // Inside one group.
        (group + 100, group / 2),
        // Straddling two groups, covering neither.
        (2 * group - 17, 40),
        // Aligned full cover of two groups.
        (group, 2 * group),
        // Partial head + two full middle groups + partial tail.
        (group - 5, 3 * group + 16),
        // Ending at EOF, inside the (partial) last group.
        (size - group - 3, group + 3),
    ]
}

/// Patch `name` in place and mirror the patch in `model`.
fn patch<D: BlockDevice>(
    fs: &StegFs<D>,
    name: &str,
    model: &mut [u8],
    offset: usize,
    len: usize,
    seed: u64,
) {
    let bytes = payload(seed, len);
    model[offset..offset + len].copy_from_slice(&bytes);
    let mut handle = fs.open_hidden(name, OWNER).expect("open");
    fs.write_at_handle(&mut handle, offset as u64, &bytes)
        .expect("patch");
}

/// Zero `losses` shares (the first ones) of group `g` of `name`.
fn zero_shares(fs: &CodedVolume, name: &str, g: usize, losses: usize) {
    let dev = fs.plain_fs().device().clone();
    let groups = fs.hidden_share_extents(name, OWNER).expect("extents");
    for &b in &groups[g][..losses] {
        dev.zero_block(b).expect("zero");
    }
    fs.purge_read_caches();
}

/// SHA-256 of the raw device after the fixed operation sequence below.
/// First recorded from the commit that still decoded every group it
/// overwrote and ran the per-byte IDA: the slice kernels and the edge-only
/// plan must leave every share, checksum, chain node and header byte where
/// that code put it.  Re-recorded for format v3, whose keyed share checks
/// changed the superblock's version field and the coded objects' header and
/// chain-node blocks, and no other block; and for format v4, whose block
/// nonce changed the version field and every hidden-object block (shares,
/// headers, chain nodes), and no other block.  Re-recorded when `Plain`
/// became the (1, 1) code of one group path: a coded growth appends groups
/// and a truncate drops whole groups, where both re-encoded the object
/// before, so the blocks drawn from there on moved.  The image just before
/// the first growth is unchanged.  Re-recorded when the script began to
/// sync the write-through volume before reading its image: the on-disk
/// bitmap then records the script's allocations, so the block-owner map
/// sees the three coded objects and the UAK directory instead of free
/// blocks.  The bitmap block is the one block that moved.
const GOLDEN_IMAGE_SHA256: &str =
    "fa1628e00e6d6b95cb4b24d695563d36ea0d34e9c2406c94d546a43cc7c7b8f3";

#[test]
fn golden_coded_volume_image_is_bit_identical() {
    let fs = volume();
    for (i, (name, policy)) in POLICIES.iter().enumerate() {
        let seed = 1000 * (i as u64 + 1);
        let (m, n) = policy.shares();
        let group = m * BS;
        fs.steg_create_with_policy(name, OWNER, ObjectKind::File, *policy)
            .unwrap();

        // Written: a size that is neither a block nor a group multiple.
        let mut model = payload(seed, 7 * group + 333 + i);
        fs.write_hidden_with_key(name, OWNER, &model).unwrap();

        // Partially patched, in every alignment.
        for (k, (offset, len)) in alignment_matrix(group, model.len()).into_iter().enumerate() {
            patch(&fs, name, &mut model, offset, len, seed + 1 + k as u64);
        }

        // Resized: grown through a handle write past EOF (leaving a zero
        // gap), shrunk by a truncate, then patched up to the new EOF.
        let mut handle = fs.open_hidden(name, OWNER).unwrap();
        let tail = payload(seed + 10, 2 * group + 9);
        let at = model.len() + 700;
        fs.write_at_handle(&mut handle, at as u64, &tail).unwrap();
        model.resize(at, 0);
        model.extend_from_slice(&tail);
        let cut = 5 * group + 41;
        fs.truncate_handle(&mut handle, cut as u64).unwrap();
        model.truncate(cut);
        let bytes = payload(seed + 11, group + 50);
        fs.write_at_handle(&mut handle, (cut - bytes.len()) as u64, &bytes)
            .unwrap();
        model[cut - bytes.len()..].copy_from_slice(&bytes);

        // Repaired: every group loses as many shares as the code tolerates.
        let groups = fs.hidden_share_extents(name, OWNER).unwrap().len();
        for g in 0..groups {
            zero_shares(&fs, name, g, n - m);
        }
        let entry = fs.lookup_entry(name, OWNER).unwrap();
        assert_eq!(
            fs.scavenge_entry(&entry).unwrap(),
            RepairOutcome::Repaired {
                shares_rebuilt: groups * (n - m)
            }
        );
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key(name, OWNER).unwrap(), model);
    }
    fs.sync().unwrap();
    let image = raw_image(&fs);
    let pin = Pin {
        name: "coded_rmw",
        params: full_feature_params(),
        uaks: &[OWNER],
        dir: env!("CARGO_TARGET_TMPDIR"),
    };
    pin.check(&hex(&sha256(&image)), GOLDEN_IMAGE_SHA256, &image, BS, "");
}

/// Assert that `name` reads back as `model`, warm (through whatever the
/// last operation left in the read cache) and then cold.
fn reads_back<D: BlockDevice>(fs: &StegFs<D>, name: &str, model: &[u8], what: &str) {
    assert_eq!(
        fs.read_hidden_with_key(name, OWNER).unwrap(),
        model,
        "{name} {what}, warm"
    );
    fs.purge_read_caches();
    assert_eq!(
        fs.read_hidden_with_key(name, OWNER).unwrap(),
        model,
        "{name} {what}, cold"
    );
}

#[test]
fn patch_alignment_matrix_matches_a_byte_model() {
    // Every coded policy of the golden, and `Plain`, the (1, 1) code.
    let policies = POLICIES.into_iter().chain([("plain", Policy::Plain)]);
    for (i, (name, policy)) in policies.enumerate() {
        let fs = volume();
        let group = policy.shares().0 * BS;
        fs.steg_create_with_policy(name, OWNER, ObjectKind::File, policy)
            .unwrap();
        let mut model = payload(i as u64, 6 * group + 777);
        fs.write_hidden_with_key(name, OWNER, &model).unwrap();
        for (k, (offset, len)) in alignment_matrix(group, model.len()).into_iter().enumerate() {
            patch(&fs, name, &mut model, offset, len, 50 + k as u64);
            // Warm: through whatever the patch left in the read cache.
            assert_eq!(
                fs.read_hidden_with_key(name, OWNER).unwrap(),
                model,
                "{name} case {k}, warm"
            );
            assert_eq!(
                fs.read_range_at(&fs.open_hidden(name, OWNER).unwrap(), offset as u64, len)
                    .unwrap(),
                model[offset..offset + len],
                "{name} case {k}, warm range"
            );
            // Cold: from the shares and checksums the patch committed.
            fs.purge_read_caches();
            assert_eq!(
                fs.read_hidden_with_key(name, OWNER).unwrap(),
                model,
                "{name} case {k}, cold"
            );
        }

        // The golden's resize sequence: grown through a handle write past
        // EOF (leaving a zero gap), shrunk by a truncate inside a group,
        // then patched up to the new EOF.
        let mut handle = fs.open_hidden(name, OWNER).unwrap();
        let tail = payload(60, 2 * group + 9);
        let at = model.len() + 700;
        fs.write_at_handle(&mut handle, at as u64, &tail).unwrap();
        model.resize(at, 0);
        model.extend_from_slice(&tail);
        reads_back(&fs, name, &model, "grown");
        let cut = 5 * group + 41;
        fs.truncate_handle(&mut handle, cut as u64).unwrap();
        model.truncate(cut);
        reads_back(&fs, name, &model, "truncated");
        let bytes = payload(61, group + 50);
        fs.write_at_handle(&mut handle, (cut - bytes.len()) as u64, &bytes)
            .unwrap();
        model[cut - bytes.len()..].copy_from_slice(&bytes);
        reads_back(&fs, name, &model, "patched to EOF");

        // Every patched share still matches its recorded checksum.
        let entry = fs.lookup_entry(name, OWNER).unwrap();
        assert_eq!(fs.scavenge_entry(&entry).unwrap(), RepairOutcome::Intact);
    }
}

#[test]
fn aligned_full_cover_patch_reads_no_share_blocks() {
    let dev = ObservedDevice::counting(MemBlockDevice::new(BS, 8192));
    let stats = dev.stats().clone();
    let fs = StegFs::format(dev, full_feature_params()).unwrap();
    let policy = Policy::Disperse { m: 2, n: 3 };
    let group = 2 * BS;
    fs.steg_create_with_policy("obj", OWNER, ObjectKind::File, policy)
        .unwrap();
    // Four groups = 12 share entries: one chain node.
    let mut model = payload(9, 4 * group);
    fs.write_hidden_with_key("obj", OWNER, &model).unwrap();
    let mut handle = fs.open_hidden("obj", OWNER).unwrap();

    let reads_of = |fs: &StegFs<_>, handle: &mut _, offset: usize, bytes: &[u8]| {
        fs.purge_read_caches();
        stats.reset();
        fs.write_at_handle(handle, offset as u64, bytes).unwrap();
        stats.summary().blocks_read
    };
    // On a cold cache a patch resolves its chain as a cold read does: the
    // header block, re-read to vouch for the handle's copy, and the one
    // chain node.
    let chain = 2;

    // Groups 1 and 2, fully covered: the chain and nothing else.
    let bytes = payload(10, 2 * group);
    model[group..3 * group].copy_from_slice(&bytes);
    assert_eq!(reads_of(&fs, &mut handle, group, &bytes), chain);

    // One byte short at either end: that edge group's `m` primary shares
    // come up, the covered group's still do not.
    let bytes = payload(11, 2 * group - 1);
    model[group + 1..3 * group].copy_from_slice(&bytes);
    assert_eq!(reads_of(&fs, &mut handle, group + 1, &bytes), chain + 2);
    model[group..3 * group - 1].copy_from_slice(&bytes);
    assert_eq!(reads_of(&fs, &mut handle, group, &bytes), chain + 2);

    // Warm, the chain comes from the read cache: a full cover reads nothing.
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), model);
    stats.reset();
    let bytes = payload(12, group);
    model[2 * group..3 * group].copy_from_slice(&bytes);
    fs.write_at_handle(&mut handle, 2 * group as u64, &bytes)
        .unwrap();
    assert_eq!(stats.summary().blocks_read, 0);

    fs.purge_read_caches();
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), model);
}

/// Growing a coded object past its end appends groups: no share of a
/// group the write leaves alone is rewritten, where a re-encode of the
/// whole object would rewrite every one.
#[test]
fn growing_a_coded_object_writes_no_share_of_a_group_it_leaves_alone() {
    let written = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&written);
    let tape = FaultDevice::new(MemBlockDevice::new(BS, 8192));
    tape.record(Trigger::when(|op| op.dir == Dir::Write), move |op| {
        log.lock().extend_from_slice(op.blocks)
    });
    let dev = ObservedDevice::counting(tape);
    let stats = dev.stats().clone();
    let fs = StegFs::format(dev, full_feature_params()).unwrap();
    let policy = Policy::Disperse { m: 2, n: 3 };
    let (m, n) = policy.shares();
    let group = m * BS;
    fs.steg_create_with_policy("obj", OWNER, ObjectKind::File, policy)
        .unwrap();
    // 64 blocks: 32 groups of 3 shares.
    let mut model = payload(30, 64 * BS);
    fs.write_hidden_with_key("obj", OWNER, &model).unwrap();
    let before = fs.hidden_share_extents("obj", OWNER).unwrap();
    let mut handle = fs.open_hidden("obj", OWNER).unwrap();

    // 500 bytes land in the last group; the rest takes two new ones.
    let at = model.len() - 500;
    let tail = payload(31, 3000);
    written.lock().clear();
    stats.reset();
    fs.write_at_handle(&mut handle, at as u64, &tail).unwrap();
    model.truncate(at);
    model.extend_from_slice(&tail);

    let after = fs.hidden_share_extents("obj", OWNER).unwrap();
    assert_eq!(after.len(), model.len().div_ceil(group));
    assert_eq!(after[..32], before[..], "kept groups keep their shares");
    let written = written.lock().clone();
    for (g, shares) in before[..31].iter().enumerate() {
        for b in shares {
            assert!(!written.contains(b), "group {g}'s share {b} rewritten");
        }
    }
    // The last group's shares and the two new groups', then every copy of
    // the chain's two nodes and of the header, each once: nothing else.
    let copies = policy.meta_copies();
    let blocks = (1 + after.len() - before.len()) * n + 2 * copies + copies;
    assert_eq!(stats.summary().blocks_written, blocks as u64);
    assert_eq!(written.len(), blocks);
    fs.purge_read_caches();
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), model);
}

#[test]
fn full_cover_heals_a_lost_group_but_a_partial_patch_fails_closed() {
    let fs = volume();
    let policy = Policy::Disperse { m: 2, n: 3 };
    let group = 2 * BS;
    fs.steg_create_with_policy("obj", OWNER, ObjectKind::File, policy)
        .unwrap();
    let mut model = payload(21, 4 * group + 100);
    fs.write_hidden_with_key("obj", OWNER, &model).unwrap();

    // Group 1 loses two of its three shares: one more than 2-of-3 tolerates.
    zero_shares(&fs, "obj", 1, 2);
    assert!(fs.read_hidden_with_key("obj", OWNER).is_err());

    // A patch that needs the group's old bytes cannot have them: a clean
    // error in the damage family, and not one block written.
    let before = raw_image(&fs);
    for (offset, len) in [(group + 1, group - 1), (group, group - 1), (group - 10, 20)] {
        let mut handle = fs.open_hidden("obj", OWNER).unwrap();
        let err = fs
            .write_at_handle(&mut handle, offset as u64, &payload(22, len))
            .unwrap_err();
        assert!(err.to_string().contains("live shares"), "got: {err}");
        assert_eq!(raw_image(&fs), before, "failed patch wrote something");
    }

    // A patch that replaces the whole group needs none of them, and leaves
    // the group with three fresh, checksummed shares.
    patch(&fs, "obj", &mut model, group, group, 23);
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), model);
    fs.purge_read_caches();
    assert_eq!(fs.read_hidden_with_key("obj", OWNER).unwrap(), model);
    let entry = fs.lookup_entry("obj", OWNER).unwrap();
    assert_eq!(fs.scavenge_entry(&entry).unwrap(), RepairOutcome::Intact);
}
