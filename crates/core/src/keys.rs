//! User Access Keys, File Access Keys, and per-UAK directories (§3.2).
//!
//! Each hidden file is secured with its own randomly generated **File Access
//! Key (FAK)**, so a single file can be shared without exposing anything
//! else.  To keep track of their files, users hold one or more **User Access
//! Keys (UAK)**; for every UAK StegFS maintains a *directory* of
//! `(name, physical name, FAK)` entries — itself stored as a hidden file
//! encrypted under the UAK.
//!
//! UAKs may be organised into a *linear access hierarchy*: signing on at
//! level *i* reveals the directories of levels `0..=i`, so a user under
//! compulsion can disclose a low level and plausibly deny that higher levels
//! exist.

use crate::error::{StegError, StegResult};
use crate::header::ObjectKind;

/// Length in bytes of a File Access Key.
pub const FAK_LEN: usize = 32;

/// The reserved physical name under which each UAK's directory is stored.
/// Different UAKs produce different locator seeds and signatures, so all UAK
/// directories can share this name without colliding.
pub const UAK_DIRECTORY_NAME: &str = "stegfs:uak-directory";

/// One entry of a UAK directory: everything needed to find and decrypt one
/// hidden object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// The user-visible object name (what `steg_create` was given).
    pub name: String,
    /// The physical name fed to the locator (owner-qualified, so shared
    /// objects keep working for recipients).
    pub physical_name: String,
    /// The object's File Access Key.
    pub fak: [u8; FAK_LEN],
    /// File or directory.
    pub kind: ObjectKind,
}

impl DirectoryEntry {
    /// Serialise one entry (length-prefixed strings, fixed-size FAK).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let name = self.name.as_bytes();
        let phys = self.physical_name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(phys.len() as u16).to_be_bytes());
        out.extend_from_slice(phys);
        out.extend_from_slice(&self.fak);
        out.push(match self.kind {
            ObjectKind::File => 1,
            ObjectKind::Directory => 2,
        });
        out
    }

    /// Parse one entry starting at `data[*off..]`, advancing `off`.
    ///
    /// Fields are read as borrowed slices of `data`; the only allocations
    /// are the two `String`s the entry owns.
    pub fn deserialize(data: &[u8], off: &mut usize) -> StegResult<Self> {
        fn corrupt() -> StegError {
            StegError::Fs(stegfs_fs::FsError::Corrupt("bad directory entry".into()))
        }
        fn take<'a>(data: &'a [u8], off: &mut usize, n: usize) -> StegResult<&'a [u8]> {
            let end = off.checked_add(n).ok_or_else(corrupt)?;
            let field = data.get(*off..end).ok_or_else(corrupt)?;
            *off = end;
            Ok(field)
        }
        fn take_string(data: &[u8], off: &mut usize) -> StegResult<String> {
            let len = take(data, off, 2)?;
            let len = u16::from_be_bytes([len[0], len[1]]) as usize;
            std::str::from_utf8(take(data, off, len)?)
                .map(str::to_owned)
                .map_err(|_| corrupt())
        }
        let name = take_string(data, off)?;
        let physical_name = take_string(data, off)?;
        let fak: [u8; FAK_LEN] = take(data, off, FAK_LEN)?
            .try_into()
            .map_err(|_| corrupt())?;
        let kind = match take(data, off, 1)?[0] {
            1 => ObjectKind::File,
            2 => ObjectKind::Directory,
            _ => return Err(corrupt()),
        };
        Ok(DirectoryEntry {
            name,
            physical_name,
            fak,
            kind,
        })
    }
}

/// The decrypted contents of one UAK's directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UakDirectory {
    /// The entries, in insertion order.
    pub entries: Vec<DirectoryEntry>,
}

impl UakDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        UakDirectory::default()
    }

    /// Look up an entry by user-visible name.
    pub fn find(&self, name: &str) -> Option<&DirectoryEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Add an entry; fails if the name is already present.
    pub fn insert(&mut self, entry: DirectoryEntry) -> StegResult<()> {
        if self.find(&entry.name).is_some() {
            return Err(StegError::AlreadyExists(entry.name));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Remove an entry by name, returning it.
    pub fn remove(&mut self, name: &str) -> Option<DirectoryEntry> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        Some(self.entries.remove(idx))
    }

    /// Serialise the whole directory.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.serialize());
        }
        out
    }

    /// Parse a directory produced by [`serialize`](Self::serialize).
    pub fn deserialize(data: &[u8]) -> StegResult<Self> {
        if data.len() < 4 {
            return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                "UAK directory truncated".into(),
            )));
        }
        let count = u32::from_be_bytes(data[..4].try_into().unwrap()) as usize;
        let mut off = 4usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            entries.push(DirectoryEntry::deserialize(data, &mut off)?);
        }
        Ok(UakDirectory { entries })
    }
}

/// A linear hierarchy of UAKs (§3.2): signing on at level `i` makes the
/// directories of levels `0..=i` visible.
#[derive(Debug, Clone)]
pub struct AccessHierarchy {
    uaks: Vec<String>,
}

impl AccessHierarchy {
    /// Build a hierarchy from UAKs ordered from the least to the most
    /// sensitive level.
    ///
    /// # Panics
    /// Panics if `uaks` is empty.
    pub fn new(uaks: Vec<String>) -> Self {
        assert!(!uaks.is_empty(), "a hierarchy needs at least one UAK");
        AccessHierarchy { uaks }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.uaks.len()
    }

    /// The UAK protecting the given level.
    pub fn uak_at(&self, level: usize) -> StegResult<&str> {
        self.uaks
            .get(level)
            .map(|s| s.as_str())
            .ok_or_else(|| StegError::InvalidParameter(format!("no access level {level}")))
    }

    /// All UAKs visible when signed on at `level` (levels `0..=level`).
    pub fn visible_at(&self, level: usize) -> StegResult<&[String]> {
        if level >= self.uaks.len() {
            return Err(StegError::InvalidParameter(format!(
                "no access level {level}"
            )));
        }
        Ok(&self.uaks[..=level])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, fak_byte: u8) -> DirectoryEntry {
        DirectoryEntry {
            name: name.to_string(),
            physical_name: format!("owner42:{name}"),
            fak: [fak_byte; FAK_LEN],
            kind: ObjectKind::File,
        }
    }

    #[test]
    fn entry_roundtrip() {
        let e = entry("budget-2026", 7);
        let bytes = e.serialize();
        let mut off = 0;
        assert_eq!(DirectoryEntry::deserialize(&bytes, &mut off).unwrap(), e);
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn entry_rejects_truncation() {
        let bytes = entry("x", 1).serialize();
        for cut in [0usize, 1, 5, bytes.len() - 1] {
            let mut off = 0;
            assert!(
                DirectoryEntry::deserialize(&bytes[..cut], &mut off).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn entry_rejects_bad_utf8_and_bad_kind() {
        let good = entry("ab", 1).serialize();
        let mut bad_utf8 = good.clone();
        bad_utf8[2] = 0xff; // first byte of the name
        assert!(DirectoryEntry::deserialize(&bad_utf8, &mut 0).is_err());
        let mut bad_kind = good.clone();
        *bad_kind.last_mut().unwrap() = 3;
        assert!(DirectoryEntry::deserialize(&bad_kind, &mut 0).is_err());
        // A failed parse never reads past the buffer, whatever the offset.
        for start in [good.len() + 1, usize::MAX] {
            let mut off = start;
            assert!(DirectoryEntry::deserialize(&good, &mut off).is_err());
        }
    }

    #[test]
    fn directory_roundtrip() {
        let mut dir = UakDirectory::new();
        dir.insert(entry("a", 1)).unwrap();
        dir.insert(entry("b", 2)).unwrap();
        let mut dir_entry = entry("subdir", 3);
        dir_entry.kind = ObjectKind::Directory;
        dir.insert(dir_entry).unwrap();
        let bytes = dir.serialize();
        assert_eq!(UakDirectory::deserialize(&bytes).unwrap(), dir);
    }

    #[test]
    fn empty_directory_roundtrip() {
        let dir = UakDirectory::new();
        assert_eq!(UakDirectory::deserialize(&dir.serialize()).unwrap(), dir);
    }

    #[test]
    fn directory_rejects_garbage() {
        assert!(UakDirectory::deserialize(&[1, 2]).is_err());
        // Claims 5 entries but holds none.
        assert!(UakDirectory::deserialize(&[0, 0, 0, 5]).is_err());
    }

    #[test]
    fn insert_find_remove() {
        let mut dir = UakDirectory::new();
        dir.insert(entry("a", 1)).unwrap();
        assert!(dir.find("a").is_some());
        assert!(dir.find("b").is_none());
        assert!(matches!(
            dir.insert(entry("a", 9)),
            Err(StegError::AlreadyExists(_))
        ));
        let removed = dir.remove("a").unwrap();
        assert_eq!(removed.fak, [1u8; FAK_LEN]);
        assert!(dir.remove("a").is_none());
        assert!(dir.find("a").is_none());
    }

    #[test]
    fn hierarchy_levels() {
        let h = AccessHierarchy::new(vec![
            "everyday key".into(),
            "sensitive key".into(),
            "deniable key".into(),
        ]);
        assert_eq!(h.levels(), 3);
        assert_eq!(h.uak_at(0).unwrap(), "everyday key");
        assert_eq!(h.uak_at(2).unwrap(), "deniable key");
        assert!(h.uak_at(3).is_err());
        assert_eq!(h.visible_at(0).unwrap().len(), 1);
        assert_eq!(h.visible_at(2).unwrap().len(), 3);
        assert!(h.visible_at(5).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one UAK")]
    fn empty_hierarchy_panics() {
        AccessHierarchy::new(vec![]);
    }
}
