//! The keyed offline scavenger: walk, verify, repair.
//!
//! [`scavenge`] is what an administrator with (some of) the volume's User
//! Access Keys runs after suspected media damage — the hidden-object
//! equivalent of `fsck`, except that it can only check what its keys can
//! reach.  For every supplied UAK it enumerates the key's hidden
//! directory, recurses into hidden subdirectories, and hands each object
//! to [`StegFs::scavenge_entry`]: shares are verified against their
//! recorded checksums and damaged ones are rebuilt from the survivors and
//! rewritten in place through an ordinary journaled transaction.
//!
//! Repair is fail-closed per object: a group with fewer than `m` live
//! shares leaves the object untouched and is reported in
//! [`ScavengeReport::lost`] — the scavenger never writes a partial
//! reconstruction, and a later pass with a fuller set of shares (say after
//! imaging a second damaged mirror) can still succeed.
//!
//! Directories get one extra recovery tier: when a directory *object* is
//! lost beyond its redundancy, the pass tries
//! [`StegFs::rebuild_dir_from_shadow`] — re-creating the directory in
//! place from its shadow listing and re-linking every child whose own
//! object still probes — and then recurses into the recovered subtree, so
//! one dead interior node no longer severs its descendants.

use stegfs_blockdev::BlockDevice;
use stegfs_core::hidden::RepairOutcome;
use stegfs_core::{DirectoryEntry, ObjectKind, Parent, StegFs, StegResult};

/// What a [`scavenge`] pass over one volume found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScavengeReport {
    /// Hidden objects reached through the supplied keys (files and
    /// directories, including UAK directory objects themselves are *not*
    /// counted — only registered entries).
    pub objects_scanned: usize,
    /// Objects whose every share verified; nothing written.
    pub objects_intact: usize,
    /// Objects with damage that was fully reversed.
    pub objects_repaired: usize,
    /// Objects that could not be reconstructed (or could not be opened at
    /// all); nothing was written for them.
    pub objects_lost: usize,
    /// Total share blocks rebuilt and rewritten across all repairs.
    pub shares_rewritten: usize,
    /// Lost directory objects re-created in place from their shadow
    /// listings (counted under `objects_repaired`, not `objects_lost`).
    pub subtrees_rebuilt: usize,
    /// Children re-linked into rebuilt directories across all rebuilds.
    pub children_relinked: usize,
    /// Logical names of the lost objects, for the operator.  Children a
    /// rebuild had to drop (their own objects no longer probe) appear here
    /// under their path inside the rebuilt directory.
    pub lost: Vec<String>,
}

impl ScavengeReport {
    /// True when every reached object is readable (intact or repaired).
    pub fn all_recovered(&self) -> bool {
        self.objects_lost == 0
    }
}

/// Last-resort handling for a directory object that is lost beyond its own
/// redundancy: rebuild it in place from the shadow listing.  Success counts
/// as a repair (the subtree is reachable again); failure — no shadow, or the
/// shadow is damaged too — reports the directory lost as before.
fn rebuild_lost_dir<D: BlockDevice>(
    fs: &StegFs<D>,
    entry: &DirectoryEntry,
    path: &str,
    report: &mut ScavengeReport,
) {
    match fs.rebuild_dir_from_shadow(entry) {
        Ok(rebuilt) => {
            report.objects_repaired += 1;
            report.subtrees_rebuilt += 1;
            report.children_relinked += rebuilt.children_relinked;
            for name in rebuilt.children_dropped {
                report.objects_lost += 1;
                report.lost.push(format!("{path}/{name}"));
            }
        }
        Err(_) => {
            report.objects_lost += 1;
            report.lost.push(path.to_string());
        }
    }
}

fn visit<D: BlockDevice>(
    fs: &StegFs<D>,
    entry: &DirectoryEntry,
    path: &str,
    report: &mut ScavengeReport,
) -> StegResult<()> {
    report.objects_scanned += 1;
    match fs.scavenge_entry(entry) {
        Ok(RepairOutcome::Intact) => report.objects_intact += 1,
        Ok(RepairOutcome::Repaired { shares_rebuilt }) => {
            report.objects_repaired += 1;
            report.shares_rewritten += shares_rebuilt;
        }
        Ok(RepairOutcome::Lost { .. }) if entry.kind == ObjectKind::Directory => {
            rebuild_lost_dir(fs, entry, path, report);
        }
        Ok(RepairOutcome::Lost { .. }) => {
            report.objects_lost += 1;
            report.lost.push(path.to_string());
        }
        // An object that cannot even be opened (destroyed header, torn
        // chain) gets the same treatment; the walk continues so one
        // casualty does not hide the rest of the report.
        Err(_) if entry.kind == ObjectKind::Directory => {
            rebuild_lost_dir(fs, entry, path, report);
        }
        Err(_) => {
            report.objects_lost += 1;
            report.lost.push(path.to_string());
        }
    }
    if entry.kind == ObjectKind::Directory {
        // Recurse only if the listing is readable — which, after a shadow
        // rebuild, it is again; a directory that stayed lost has an
        // unreachable subtree, already reported.
        if let Ok(listing) = fs.list(Parent::Dir(entry)) {
            for child in &listing.entries {
                let child_path = format!("{path}/{}", child.name);
                visit(fs, child, &child_path, report)?;
            }
        }
    }
    Ok(())
}

/// Scan every hidden object reachable with `uaks`, verify all shares and
/// repair what the surviving shares allow.  See the module docs for the
/// model; per-object semantics are those of [`StegFs::scavenge_entry`].
///
/// The pass is offline in spirit — run it on a freshly mounted volume with
/// no concurrent sessions — but takes the ordinary shared-reference
/// [`StegFs`], so nothing stops a live volume from self-scrubbing during a
/// quiet period.
pub fn scavenge<D: BlockDevice>(fs: &StegFs<D>, uaks: &[&str]) -> StegResult<ScavengeReport> {
    let mut report = ScavengeReport::default();
    for uak in uaks {
        for entry in fs.list(Parent::Uak(uak))?.entries {
            visit(fs, &entry, &entry.name, &mut report)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::{FaultDevice, MemBlockDevice};
    use stegfs_core::{Policy, StegParams};

    const UAK: &str = "scavenger owner key";

    fn fixture() -> StegFs<FaultDevice<MemBlockDevice>> {
        let dev = FaultDevice::new(MemBlockDevice::new(1024, 8192));
        let mut params = StegParams::for_tests();
        params.hidden_policy = Policy::Disperse { m: 2, n: 4 };
        StegFs::format(dev, params).unwrap()
    }

    #[test]
    fn clean_volume_scans_intact() {
        let fs = fixture();
        fs.steg_create("a", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("a", UAK, &vec![7u8; 5000])
            .unwrap();
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        let d = fs.lookup_entry("d", UAK).unwrap();
        fs.create(Parent::Dir(&d), "b", ObjectKind::File).unwrap();

        let report = scavenge(&fs, &[UAK]).unwrap();
        assert_eq!(report.objects_scanned, 3); // a, d, d/b
        assert_eq!(report.objects_intact, 3);
        assert_eq!(report.objects_repaired, 0);
        assert!(report.all_recovered());
    }

    #[test]
    fn damaged_shares_are_repaired_and_excess_damage_reported_lost() {
        let fs = fixture();
        fs.steg_create("keep", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("keep", UAK, &vec![3u8; 6000])
            .unwrap();
        fs.steg_create("gone", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("gone", UAK, &vec![4u8; 6000])
            .unwrap();

        let dev = fs.plain_fs().device().clone();
        // "keep": destroy exactly n-m = 2 shares of every group.
        for group in fs.hidden_share_extents("keep", UAK).unwrap() {
            dev.zero_block(group[0]).unwrap();
            dev.overwrite_region(group[2], 1, 77).unwrap();
        }
        // "gone": destroy 3 > n-m shares of its first group.
        let groups = fs.hidden_share_extents("gone", UAK).unwrap();
        for &b in &groups[0][..3] {
            dev.zero_block(b).unwrap();
        }
        fs.purge_read_caches();

        let report = scavenge(&fs, &[UAK]).unwrap();
        assert_eq!(report.objects_scanned, 2);
        assert_eq!(report.objects_repaired, 1);
        assert_eq!(report.objects_lost, 1);
        assert_eq!(report.lost, vec!["gone".to_string()]);
        assert!(report.shares_rewritten >= 2);

        // The repaired object reads back in full; the lost one fails
        // closed rather than returning torn plaintext.
        assert_eq!(
            fs.read_hidden_with_key("keep", UAK).unwrap(),
            vec![3u8; 6000]
        );
        assert!(fs.read_hidden_with_key("gone", UAK).is_err());
    }

    #[test]
    fn lost_interior_directory_is_rebuilt_from_its_shadow() {
        let fs = fixture();
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        let d = fs.lookup_entry("d", UAK).unwrap();
        fs.create(Parent::Dir(&d), "b", ObjectKind::File).unwrap();
        fs.create(Parent::Dir(&d), "sub", ObjectKind::Directory)
            .unwrap();
        let listing = fs.list(Parent::Dir(&d)).unwrap();
        let sub = listing.find("sub").cloned().unwrap();
        let b = listing.find("b").cloned().unwrap();
        fs.write_hidden_entry(&b, &vec![9u8; 5000]).unwrap();
        fs.create(Parent::Dir(&sub), "leaf", ObjectKind::File)
            .unwrap();

        // Destroy every header replica of the interior directory "d":
        // damage past its metadata redundancy, so it cannot even be opened.
        let keys = fs.keys_for(&d.physical_name, &d.fak);
        let obj = fs.object_io(&keys).open(&d.physical_name).unwrap();
        let dev = fs.plain_fs().device().clone();
        for &h in &obj.header.header_replicas {
            dev.zero_block(h).unwrap();
        }
        fs.purge_read_caches();
        assert!(fs.list(Parent::Dir(&d)).is_err());

        // The pass rebuilds "d" from its shadow and keeps walking: the
        // whole subtree is scanned through the recovered listing.
        let report = scavenge(&fs, &[UAK]).unwrap();
        assert_eq!(report.objects_scanned, 4); // d, d/b, d/sub, d/sub/leaf
        assert_eq!(report.subtrees_rebuilt, 1);
        assert_eq!(report.children_relinked, 2);
        assert_eq!(report.objects_lost, 0);
        assert!(report.all_recovered());
        assert_eq!(fs.read_hidden_entry(&b).unwrap(), vec![9u8; 5000]);
        assert!(fs.list(Parent::Dir(&sub)).unwrap().find("leaf").is_some());
    }

    #[test]
    fn rebuild_drops_children_that_no_longer_probe() {
        let fs = fixture();
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        let d = fs.lookup_entry("d", UAK).unwrap();
        fs.create(Parent::Dir(&d), "keep", ObjectKind::File)
            .unwrap();
        fs.create(Parent::Dir(&d), "gone", ObjectKind::File)
            .unwrap();
        let listing = fs.list(Parent::Dir(&d)).unwrap();
        let gone = listing.find("gone").cloned().unwrap();
        let keep = listing.find("keep").cloned().unwrap();
        fs.write_hidden_entry(&keep, &vec![5u8; 4000]).unwrap();

        let dev = fs.plain_fs().device().clone();
        for entry in [&d, &gone] {
            let keys = fs.keys_for(&entry.physical_name, &entry.fak);
            let obj = fs.object_io(&keys).open(&entry.physical_name).unwrap();
            for &h in &obj.header.header_replicas {
                dev.zero_block(h).unwrap();
            }
        }
        fs.purge_read_caches();

        let report = scavenge(&fs, &[UAK]).unwrap();
        assert_eq!(report.objects_scanned, 2); // d, then d/keep via the rebuilt listing
        assert_eq!(report.subtrees_rebuilt, 1);
        assert_eq!(report.children_relinked, 1);
        assert_eq!(report.objects_lost, 1);
        assert_eq!(report.lost, vec!["d/gone".to_string()]);
        assert_eq!(fs.read_hidden_entry(&keep).unwrap(), vec![5u8; 4000]);
    }

    #[test]
    fn unknown_keys_see_nothing() {
        let fs = fixture();
        fs.steg_create("a", UAK, ObjectKind::File).unwrap();
        let report = scavenge(&fs, &["some other key"]).unwrap();
        assert_eq!(report.objects_scanned, 0);
        assert!(report.all_recovered());
    }
}
