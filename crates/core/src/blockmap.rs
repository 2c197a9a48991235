//! The block-owner map: one answer to "who owns this block".
//!
//! The paper's security argument (§3) is about an inspector who holds the
//! implementation and the raw device.  To that inspector, allocated blocks
//! that no plain object accounts for must look the same whether they hold
//! hidden data, dummy files or abandoned blocks.  [`BlockMap`] classifies
//! every block of a volume from one of two positions:
//!
//! * [`BlockMap::keyless`] is that inspector, with no initial information
//!   (Kwiatkowska & Świerczewski's position): the superblock, bitmap and
//!   inode table; each journal slot, opened under the volume-public journal
//!   key by the decoder replay uses ([`stegfs_journal::Journal::scan`]);
//!   then plain-owned, *unaccounted* (allocated, no plain owner) or free.
//!   It reuses the plain file system's own parsers and adds none.
//! * [`BlockMap::keyed`] holds a set of UAKs as well and splits the
//!   unaccounted blocks into the header replicas, chain nodes, data (or
//!   share) and free-pool blocks ([`BlockRole`]) of every object those keys
//!   reach — each UAK directory, the objects it lists, hidden
//!   subdirectories and their shadow listings — and of the dummy files.
//!   What no reachable object owns is *leftover*: abandoned blocks, and
//!   anything leaked.  Building it records every ownership
//!   [`Violation`].
//!
//! [`diff`] counts the blocks that differ between two images per class of
//! a map, which is how an image pin's re-record explains what moved.
//!
//! Building either map only reads the device.

use crate::crypt::ObjectKeys;
use crate::error::StegResult;
use crate::header::ObjectKind;
use crate::hidden::BlockRole;
use crate::keys::{UakDirectory, UAK_DIRECTORY_NAME};
use crate::stegfs::{parse_listing, StegFs};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use stegfs_blockdev::BlockDevice;
use stegfs_fs::PlainFs;
use stegfs_journal::SlotUse;

/// What one block of the volume is, to the view that built the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Block 0.
    Superblock,
    /// The allocation bitmap.
    Bitmap,
    /// The inode table.
    InodeTable,
    /// A block of the journal region: an anchor or a ring slot.
    Journal(SlotUse),
    /// A block some plain object (file, directory, pointer block) names.
    Plain,
    /// Allocated in the data region, and no plain object names it.  The
    /// keyed view splits these into [`Class::Hidden`] and
    /// [`Class::Leftover`].
    Unaccounted,
    /// Free in the data region.
    Free,
    /// A block of an object the keys reach, by what it holds there.
    Hidden(BlockRole),
    /// Unaccounted, and no object the keys reach owns it: an abandoned
    /// block, or a leaked one.
    Leftover,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let age = |live: &bool| if *live { "live" } else { "checkpointed" };
        match self {
            Class::Superblock => write!(f, "superblock"),
            Class::Bitmap => write!(f, "bitmap"),
            Class::InodeTable => write!(f, "inode table"),
            Class::Journal(SlotUse::Anchor) => write!(f, "journal anchor"),
            Class::Journal(SlotUse::Intent { live }) => write!(f, "journal intent, {}", age(live)),
            Class::Journal(SlotUse::Payload { live }) => {
                write!(f, "journal payload, {}", age(live))
            }
            Class::Journal(SlotUse::Commit { live }) => write!(f, "journal commit, {}", age(live)),
            Class::Journal(SlotUse::Unused) => write!(f, "journal unused"),
            Class::Plain => write!(f, "plain"),
            Class::Unaccounted => write!(f, "unaccounted"),
            Class::Free => write!(f, "free"),
            Class::Hidden(BlockRole::Header) => write!(f, "hidden header"),
            Class::Hidden(BlockRole::Chain) => write!(f, "hidden chain node"),
            Class::Hidden(BlockRole::Data) => write!(f, "hidden data/share"),
            Class::Hidden(BlockRole::Pool) => write!(f, "hidden free pool"),
            Class::Leftover => write!(f, "leftover"),
        }
    }
}

/// A block whose ownership breaks the volume's accounting: the block, then
/// its owners (`plain` stands for the central directory, `plain inode N`
/// for one of its inodes when two of them name the block).
#[derive(Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two owners claim the block: the first, then the second.
    TwoOwners(u64, String, String),
    /// An owner claims a block the bitmap marks free.
    OwnedButFree(u64, String),
    /// An owner claims a block outside the data region.
    OutsideData(u64, String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TwoOwners(b, first, second) => {
                write!(f, "block {b} is owned by both {first} and {second}")
            }
            Violation::OwnedButFree(b, owner) => {
                write!(f, "block {b} is owned by {owner} but marked free")
            }
            Violation::OutsideData(b, owner) => {
                write!(
                    f,
                    "block {b} is owned by {owner} but lies outside the data region"
                )
            }
        }
    }
}

/// Every block of a volume, classified; see the module docs.
#[derive(Debug)]
pub struct BlockMap {
    block_size: usize,
    classes: Vec<Class>,
    violations: Vec<Violation>,
    leak: Option<i64>,
}

impl BlockMap {
    /// The keyless view of `fs`: what anyone holding the implementation
    /// and the device can compute.
    pub fn keyless<D: BlockDevice>(fs: &PlainFs<D>) -> StegResult<Self> {
        let sb = fs.superblock();
        let mut classes = vec![Class::Free; sb.total_blocks as usize];
        let mut set = |from: u64, n: u64, class: Class| {
            classes[from as usize..(from + n) as usize].fill(class);
        };
        set(0, 1, Class::Superblock);
        set(sb.bitmap_start, sb.bitmap_blocks, Class::Bitmap);
        set(
            sb.inode_table_start,
            sb.inode_table_blocks,
            Class::InodeTable,
        );
        if let Some(scan) = fs.journal_scan()? {
            for (i, slot) in scan.slot_uses().into_iter().enumerate() {
                set(sb.journal_start + i as u64, 1, Class::Journal(slot));
            }
        }
        for b in sb.data_start..sb.total_blocks {
            if fs.is_block_allocated(b) {
                classes[b as usize] = Class::Unaccounted;
            }
        }
        let mut map = BlockMap {
            block_size: fs.block_size(),
            classes,
            violations: Vec::new(),
            leak: None,
        };
        for (b, inodes) in fs.plain_object_blocks()? {
            match map.classes.get(b as usize) {
                Some(Class::Unaccounted) => map.classes[b as usize] = Class::Plain,
                _ => map.refuse(b, "plain"),
            }
            let label = |id: &u64| format!("plain inode {id}");
            for other in &inodes[1..] {
                let twice = Violation::TwoOwners(b, label(&inodes[0]), label(other));
                map.violations.push(twice);
            }
        }
        Ok(map)
    }

    /// The keyed view of `fs` under `uaks`: the keyless view with every
    /// unaccounted block split into the [`Class::Hidden`] blocks of the
    /// objects these keys and the dummy files reach, and
    /// [`Class::Leftover`].  Supply every UAK the volume holds, or the
    /// objects of the missing ones count as leftover.
    pub fn keyed<D: BlockDevice>(fs: &StegFs<D>, uaks: &[&str]) -> StegResult<Self> {
        let mut claims = Claims {
            fs,
            map: Self::keyless(fs.plain_fs())?,
            owner: HashMap::new(),
            seen: HashSet::new(),
        };
        for (i, uak) in uaks.iter().enumerate() {
            let label = format!("uak {i}");
            let listing = claims.object(&label, UAK_DIRECTORY_NAME, uak.as_bytes(), true)?;
            claims.children(&label, listing)?;
        }
        for i in 0..fs.dummy_count() {
            let (name, fak) = fs.dummy_identity(i);
            claims.object(&format!("dummy {i}"), &name, &fak, false)?;
        }
        let mut map = claims.map;
        let mut leftover = 0i64;
        for class in map.classes.iter_mut().filter(|c| **c == Class::Unaccounted) {
            *class = Class::Leftover;
            leftover += 1;
        }
        let abandoned = i64::try_from(fs.abandoned_count()).unwrap_or(i64::MAX);
        map.leak = Some(leftover - abandoned);
        Ok(map)
    }

    /// The class of `block`.  Panics past the end of the volume.
    pub fn class(&self, block: u64) -> Class {
        self.classes[block as usize]
    }

    /// The blocks of every class `pick` accepts, in ascending order.
    pub fn blocks<'a>(
        &'a self,
        pick: impl Fn(Class) -> bool + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        (0u64..)
            .zip(&self.classes)
            .filter(move |(_, c)| pick(**c))
            .map(|(b, _)| b)
    }

    /// Every ownership violation found while building the map.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Keyed view only: leftover blocks minus the abandoned blocks the
    /// volume config records.  Anything above zero is allocated, reachable
    /// from none of the keys, no dummy and no plain object, and not one of
    /// the blocks abandoned at format time.
    pub fn leak(&self) -> Option<i64> {
        self.leak
    }

    /// Blocks per class over the whole volume.
    pub fn tally(&self) -> Tally {
        self.classes.iter().copied().collect()
    }

    /// Record why `block`, claimed by `owner`, cannot be theirs.
    fn refuse(&mut self, block: u64, owner: &str) {
        let owner = owner.to_string();
        self.violations
            .push(match self.classes.get(block as usize) {
                Some(Class::Free) => Violation::OwnedButFree(block, owner),
                Some(Class::Plain) => Violation::TwoOwners(block, "plain".into(), owner),
                _ => Violation::OutsideData(block, owner),
            });
    }
}

/// The keyed walk: the map being split, who claimed each hidden block, and
/// the objects already walked (a shared object is listed under two UAKs).
struct Claims<'a, D: BlockDevice> {
    fs: &'a StegFs<D>,
    map: BlockMap,
    owner: HashMap<u64, String>,
    seen: HashSet<(String, Vec<u8>)>,
}

impl<D: BlockDevice> Claims<'_, D> {
    /// Claim the blocks of the object `(physical, key)` for `label`, and
    /// return its listing when `listing` asks for one.  An object that does
    /// not open (never created, or an empty directory's dropped shadow)
    /// claims nothing.
    fn object(
        &mut self,
        label: &str,
        physical: &str,
        key: &[u8],
        listing: bool,
    ) -> StegResult<Option<UakDirectory>> {
        if !self.seen.insert((physical.to_string(), key.to_vec())) {
            return Ok(None);
        }
        let keys = ObjectKeys::derive(physical, key);
        let io = self.fs.object_io(&keys);
        let obj = match io.open(physical) {
            Ok(obj) => obj,
            Err(e) if e.is_not_found() => return Ok(None),
            Err(e) => return Err(e),
        };
        for (block, role) in io.owned_blocks(&obj)? {
            match self.map.classes.get(block as usize) {
                Some(Class::Unaccounted) => {
                    self.map.classes[block as usize] = Class::Hidden(role);
                    self.owner.insert(block, label.to_string());
                }
                Some(Class::Hidden(_)) => self.map.violations.push(Violation::TwoOwners(
                    block,
                    self.owner[&block].clone(),
                    label.to_string(),
                )),
                _ => self.map.refuse(block, label),
            }
        }
        match listing {
            true => parse_listing(&io.read(&obj)?).map(Some),
            false => Ok(None),
        }
    }

    /// Claim every object `listing` names under `parent`, with each hidden
    /// subdirectory's shadow listing and children.
    fn children(&mut self, parent: &str, listing: Option<UakDirectory>) -> StegResult<()> {
        for entry in listing.map(|l| l.entries).unwrap_or_default() {
            let label = format!("{parent}/{}", entry.name);
            let is_dir = entry.kind == ObjectKind::Directory;
            let children = self.object(&label, &entry.physical_name, &entry.fak, is_dir)?;
            if is_dir {
                let (shadow, shadow_fak) =
                    StegFs::<D>::shadow_identity(&entry.physical_name, &entry.fak);
                self.object(&format!("{label} (shadow)"), &shadow, &shadow_fak, false)?;
                self.children(&label, children)?;
            }
        }
        Ok(())
    }
}

/// Block counts per [`Class`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally(BTreeMap<Class, u64>);

impl Tally {
    /// The blocks counted under `class`.
    pub fn get(&self, class: Class) -> u64 {
        self.0.get(&class).copied().unwrap_or(0)
    }

    /// The blocks counted under every class `pick` accepts.
    pub fn sum(&self, pick: impl Fn(Class) -> bool) -> u64 {
        self.0
            .iter()
            .filter(|(c, _)| pick(**c))
            .map(|(_, n)| n)
            .sum()
    }

    /// Every block counted.
    pub fn total(&self) -> u64 {
        self.sum(|_| true)
    }
}

impl FromIterator<Class> for Tally {
    fn from_iter<I: IntoIterator<Item = Class>>(classes: I) -> Self {
        let mut tally = Tally::default();
        for class in classes {
            *tally.0.entry(class).or_default() += 1;
        }
        tally
    }
}

impl fmt::Display for Tally {
    /// One `class | blocks` row per class counted, then the total, as a
    /// Markdown table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| class | blocks |\n|---|---|")?;
        for (class, n) in &self.0 {
            writeln!(f, "| {class} | {n} |")?;
        }
        write!(f, "| total | {} |", self.total())
    }
}

/// The blocks that differ between `old` and `new`, two raw images of the
/// same geometry, counted per class of `map`.  Build `map` on `new`: a
/// volume of an older format may not mount under the current code.
pub fn diff(old: &[u8], new: &[u8], map: &BlockMap) -> Tally {
    let bs = map.block_size;
    assert_eq!(old.len(), new.len(), "images of different sizes");
    assert_eq!(new.len(), map.classes.len() * bs, "image and map disagree");
    old.chunks_exact(bs)
        .zip(new.chunks_exact(bs))
        .zip(&map.classes)
        .filter(|((a, b), _)| a != b)
        .map(|(_, class)| *class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::Policy;
    use crate::params::StegParams;
    use crate::Parent;
    use stegfs_blockdev::{MemBlockDevice, ObservedDevice};

    const OWNER: &str = "the map's owner";
    const OTHER: &str = "a second owner";

    /// Every camouflage feature on, a journal and coded objects: the
    /// integration tests' full-feature volume, journaled.
    fn full_feature() -> StegParams {
        StegParams {
            abandoned_pct: 2.0,
            free_blocks_min: 1,
            free_blocks_max: 6,
            dummy_file_count: 3,
            dummy_file_size: 8 * 1024,
            volume_seed: 0xdead_beef,
            random_fill: true,
            journal_blocks: 160,
            hidden_policy: Policy::Disperse { m: 2, n: 3 },
            ..StegParams::for_tests()
        }
    }

    /// Plain files, hidden files under two UAKs and a hidden directory
    /// with a child (so a shadow listing), over a counting device.
    fn populated() -> StegFs<ObservedDevice<MemBlockDevice>> {
        let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
        let fs = StegFs::format(dev, full_feature()).unwrap();
        fs.plain_fs()
            .write_file("/cover.txt", &[3u8; 9000])
            .unwrap();
        for (uak, name, len) in [(OWNER, "a", 20_000), (OTHER, "b", 7_000)] {
            fs.steg_create(name, uak, ObjectKind::File).unwrap();
            fs.write_hidden_with_key(name, uak, &vec![1u8; len])
                .unwrap();
        }
        fs.steg_create("dir", OWNER, ObjectKind::Directory).unwrap();
        fs.create(
            Parent::Dir(&fs.lookup_entry("dir", OWNER).unwrap()),
            "child",
            ObjectKind::File,
        )
        .unwrap();
        let dir = fs.lookup_entry("dir", OWNER).unwrap();
        let child = fs.list(Parent::Dir(&dir)).unwrap();
        let mut h = fs.open_hidden_entry(child.find("child").unwrap()).unwrap();
        fs.write_at_handle(&mut h, 0, &[2u8; 5000]).unwrap();
        fs
    }

    fn set(map: &BlockMap, class: Class) -> HashSet<u64> {
        map.blocks(|c| c == class).collect()
    }

    #[test]
    fn keyed_classes_partition_the_keyless_unaccounted_set() {
        let fs = populated();
        let keyless = BlockMap::keyless(fs.plain_fs()).unwrap();
        let keyed = BlockMap::keyed(&fs, &[OWNER, OTHER]).unwrap();
        assert!(
            keyless.violations().is_empty(),
            "{:?}",
            keyless.violations()
        );
        assert!(keyed.violations().is_empty(), "{:?}", keyed.violations());

        let roles = [
            BlockRole::Header,
            BlockRole::Chain,
            BlockRole::Data,
            BlockRole::Pool,
        ];
        let classes = roles
            .map(Class::Hidden)
            .into_iter()
            .chain([Class::Leftover]);
        let parts: Vec<HashSet<u64>> = classes.map(|c| set(&keyed, c)).collect();
        assert!(parts.iter().all(|p| !p.is_empty()), "an empty class");
        let union: HashSet<u64> = parts.iter().flatten().copied().collect();
        let sizes: usize = parts.iter().map(HashSet::len).sum();
        assert_eq!(sizes, union.len(), "two keyed classes share a block");
        assert_eq!(union, set(&keyless, Class::Unaccounted));
        assert_eq!(set(&keyed, Class::Unaccounted), HashSet::new());

        // Outside the unaccounted set the two views agree block for block.
        for b in 0..fs.plain_fs().superblock().total_blocks {
            if keyless.class(b) != Class::Unaccounted {
                assert_eq!(keyed.class(b), keyless.class(b), "block {b}");
            }
        }
        // Nothing leaked: the leftover blocks are the abandoned ones.
        assert_eq!(keyed.leak(), Some(0));
        assert_eq!(parts[4].len() as u64, fs.abandoned_count());
        assert_eq!(keyless.leak(), None);
    }

    #[test]
    fn building_either_map_writes_nothing() {
        let fs = populated();
        fs.sync().unwrap();
        let stats = fs.plain_fs().device().stats().clone();
        let before = stats.summary();
        BlockMap::keyless(fs.plain_fs()).unwrap();
        BlockMap::keyed(&fs, &[OWNER, OTHER]).unwrap();
        let after = stats.summary();
        assert!(after.reads > before.reads, "the maps read the device");
        assert_eq!(
            (after.writes, after.blocks_written, after.flushes),
            (before.writes, before.blocks_written, before.flushes)
        );
    }

    #[test]
    fn journal_slots_are_live_until_the_checkpoint() {
        let fs = populated();
        let uses = |fs: &StegFs<_>| BlockMap::keyless(fs.plain_fs()).unwrap().tally();
        let live = uses(&fs);
        for slot in [
            SlotUse::Intent { live: true },
            SlotUse::Commit { live: true },
        ] {
            assert!(live.get(Class::Journal(slot)) > 0, "{live}");
        }
        assert_eq!(live.get(Class::Journal(SlotUse::Anchor)), 2);
        fs.sync().unwrap();
        let synced = uses(&fs);
        let is_live = |c: Class| {
            matches!(
                c,
                Class::Journal(
                    SlotUse::Intent { live: true }
                        | SlotUse::Payload { live: true }
                        | SlotUse::Commit { live: true }
                )
            )
        };
        assert_eq!(synced.sum(is_live), 0, "{synced}");
        assert!(synced.get(Class::Journal(SlotUse::Payload { live: false })) > 0);
        assert_eq!(synced.sum(|c| matches!(c, Class::Journal(_))), 160);
    }

    #[test]
    fn a_freed_owned_block_is_owned_but_free_then_owned_twice() {
        let params = StegParams {
            random_fill: false,
            dummy_file_count: 0,
            ..full_feature()
        };
        let fs = StegFs::format(MemBlockDevice::new(1024, 2048), params).unwrap();
        fs.steg_create("a", OWNER, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("a", OWNER, &[1u8; 8000]).unwrap();
        let map = BlockMap::keyed(&fs, &[OWNER]).unwrap();
        let victim = map
            .blocks(|c| c == Class::Hidden(BlockRole::Data))
            .next()
            .unwrap();

        fs.plain_fs().free_raw_block(victim).unwrap();
        let map = BlockMap::keyed(&fs, &[OWNER]).unwrap();
        assert_eq!(map.class(victim), Class::Free);
        let owner = "uak 0/a".to_string();
        assert_eq!(
            map.violations(),
            [Violation::OwnedButFree(victim, owner.clone())]
        );

        // Plain writes fill the volume, so one of them takes the block.
        for n in 0.. {
            let free = fs.plain_fs().free_data_blocks() as usize;
            let fits = (1..=free)
                .rev()
                .step_by(free.div_ceil(16).max(1))
                .find(|&len| {
                    fs.plain_fs()
                        .write_file(&format!("/fill-{n}"), &vec![7; len * 1024])
                        .is_ok()
                });
            if fits.is_none() {
                break;
            }
        }
        let map = BlockMap::keyed(&fs, &[OWNER]).unwrap();
        assert_eq!(map.class(victim), Class::Plain);
        assert_eq!(
            map.violations(),
            [Violation::TwoOwners(victim, "plain".into(), owner)]
        );
    }

    #[test]
    fn a_freed_plain_block_taken_by_another_plain_file_is_owned_twice() {
        let params = StegParams {
            random_fill: false,
            dummy_file_count: 0,
            ..full_feature()
        };
        let fs = StegFs::format(MemBlockDevice::new(1024, 2048), params).unwrap();
        fs.plain_fs().write_file("/a", &[1u8; 8000]).unwrap();
        let a = fs.plain_fs().resolve_file("/a").unwrap();
        let owned = fs.plain_fs().plain_object_blocks().unwrap();
        let victim = *owned.iter().find(|(_, ids)| **ids == [a]).unwrap().0;

        fs.plain_fs().free_raw_block(victim).unwrap();
        let map = BlockMap::keyless(fs.plain_fs()).unwrap();
        assert_eq!(map.class(victim), Class::Free);
        assert_eq!(
            map.violations(),
            [Violation::OwnedButFree(victim, "plain".into())]
        );

        // Plain writes fill the volume, so one of them takes the block.
        for n in 0.. {
            let free = fs.plain_fs().free_data_blocks() as usize;
            let fits = (1..=free)
                .rev()
                .step_by(free.div_ceil(16).max(1))
                .find(|&len| {
                    fs.plain_fs()
                        .write_file(&format!("/fill-{n}"), &vec![7; len * 1024])
                        .is_ok()
                });
            if fits.is_none() {
                break;
            }
        }
        let owners = &fs.plain_fs().plain_object_blocks().unwrap()[&victim];
        assert_eq!(owners.len(), 2, "{owners:?}");
        assert_eq!(owners[0], a);
        let map = BlockMap::keyed(&fs, &[OWNER]).unwrap();
        assert_eq!(map.class(victim), Class::Plain);
        assert_eq!(
            map.violations(),
            [Violation::TwoOwners(
                victim,
                format!("plain inode {a}"),
                format!("plain inode {}", owners[1])
            )]
        );
    }

    #[test]
    fn one_random_allocation_is_a_leak_of_one() {
        let fs = populated();
        let uaks = [OWNER, OTHER];
        assert_eq!(BlockMap::keyed(&fs, &uaks).unwrap().leak(), Some(0));
        let lost = fs.plain_fs().allocate_random_block().unwrap();
        let map = BlockMap::keyed(&fs, &uaks).unwrap();
        assert_eq!(map.leak(), Some(1));
        assert_eq!(map.class(lost), Class::Leftover);
        // Without the second UAK its objects are leftover too.
        let partial = BlockMap::keyed(&fs, &[OWNER]).unwrap();
        assert!(partial.leak().unwrap() > 1);
    }

    #[test]
    fn diff_counts_changed_blocks_by_class() {
        let fs = populated();
        fs.sync().unwrap();
        let image = |fs: &StegFs<ObservedDevice<MemBlockDevice>>| {
            fs.plain_fs().device().inner().snapshot_raw()
        };
        let old = image(&fs);
        fs.write_hidden_with_key("b", OTHER, &[9u8; 7_000]).unwrap();
        fs.sync().unwrap();
        let new = image(&fs);
        let map = BlockMap::keyed(&fs, &[OWNER, OTHER]).unwrap();
        let changed = diff(&old, &new, &map);
        let differ = old
            .chunks_exact(1024)
            .zip(new.chunks_exact(1024))
            .filter(|(a, b)| a != b)
            .count() as u64;
        assert_eq!(changed.total(), differ);
        assert!(
            changed.sum(|c| matches!(c, Class::Hidden(_))) >= 7,
            "{changed}"
        );
        assert!(
            changed.sum(|c| matches!(c, Class::Journal(_))) > 0,
            "{changed}"
        );
        assert_eq!(changed.get(Class::Plain), 0, "{changed}");
        assert_eq!(diff(&new, &new, &map), Tally::default());
    }
}
