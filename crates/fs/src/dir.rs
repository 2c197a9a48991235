//! Directory entries.
//!
//! A directory is an ordinary file (owned by a `FileKind::Directory` inode)
//! whose contents are a flat sequence of entries.  Each entry is
//!
//! ```text
//! [name_len: u16][kind: u8][inode: u64][name: name_len bytes of UTF-8]
//! ```
//!
//! Hidden StegFS objects never appear in these listings; when a user
//! connects a hidden object (the paper's `steg_connect`, the VFS's
//! `Vfs::connect`) the VFS records a transient entry in the user's
//! *session*, not on disk.

use crate::error::{FsError, FsResult};
use crate::inode::{FileKind, InodeId};

/// Maximum length of a single path component, in bytes.
pub const MAX_NAME_LEN: usize = 255;

/// One entry in a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name (no `/`).
    pub name: String,
    /// Inode the entry points at.
    pub inode: InodeId,
    /// Kind of the target (cached from the inode to avoid an extra read on
    /// listing).
    pub kind: FileKind,
}

/// Serialise a directory's entries into its file contents.
pub fn encode_entries(entries: &[DirEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entries {
        let name = e.name.as_bytes();
        debug_assert!(name.len() <= MAX_NAME_LEN);
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.push(match e.kind {
            FileKind::Free => 0,
            FileKind::File => 1,
            FileKind::Directory => 2,
        });
        out.extend_from_slice(&e.inode.to_be_bytes());
        out.extend_from_slice(name);
    }
    out
}

/// Parse a directory's file contents back into entries.
pub fn decode_entries(data: &[u8]) -> FsResult<Vec<DirEntry>> {
    let mut entries = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        if data.len() - off < 11 {
            return Err(FsError::Corrupt("truncated directory entry header".into()));
        }
        let name_len = u16::from_be_bytes([data[off], data[off + 1]]) as usize;
        let kind = match data[off + 2] {
            1 => FileKind::File,
            2 => FileKind::Directory,
            other => {
                return Err(FsError::Corrupt(format!(
                    "invalid kind {other} in directory entry"
                )))
            }
        };
        let inode = u64::from_be_bytes(data[off + 3..off + 11].try_into().unwrap());
        off += 11;
        if data.len() - off < name_len {
            return Err(FsError::Corrupt("truncated directory entry name".into()));
        }
        let name = String::from_utf8(data[off..off + name_len].to_vec())
            .map_err(|_| FsError::Corrupt("directory entry name is not UTF-8".into()))?;
        off += name_len;
        entries.push(DirEntry { name, inode, kind });
    }
    Ok(entries)
}

/// Validate and split an absolute path into components.
///
/// Accepts `/`, `/a`, `/a/b/c`; rejects relative paths, empty components,
/// embedded NULs and over-long names.
pub fn split_path(path: &str) -> FsResult<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(format!(
            "{path}: paths must be absolute"
        )));
    }
    if path == "/" {
        return Ok(Vec::new());
    }
    let mut components = Vec::new();
    for comp in path[1..].split('/') {
        if comp.is_empty() {
            return Err(FsError::InvalidPath(format!(
                "{path}: empty path component"
            )));
        }
        if comp.len() > MAX_NAME_LEN {
            return Err(FsError::InvalidPath(format!(
                "{path}: component longer than {MAX_NAME_LEN} bytes"
            )));
        }
        if comp.contains('\0') {
            return Err(FsError::InvalidPath(format!("{path}: embedded NUL")));
        }
        if comp == "." || comp == ".." {
            return Err(FsError::InvalidPath(format!(
                "{path}: '.' and '..' components are not supported"
            )));
        }
        components.push(comp);
    }
    Ok(components)
}

/// Split a path into `(parent components, final name)`.
pub fn split_parent(path: &str) -> FsResult<(Vec<&str>, &str)> {
    let mut comps = split_path(path)?;
    match comps.pop() {
        Some(name) => Ok((comps, name)),
        None => Err(FsError::InvalidPath(
            "the root directory has no parent".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DirEntry> {
        vec![
            DirEntry {
                name: "readme.txt".into(),
                inode: 4,
                kind: FileKind::File,
            },
            DirEntry {
                name: "projects".into(),
                inode: 9,
                kind: FileKind::Directory,
            },
            DirEntry {
                name: "ünïcødé name".into(),
                inode: 17,
                kind: FileKind::File,
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let entries = sample();
        let encoded = encode_entries(&entries);
        assert_eq!(decode_entries(&encoded).unwrap(), entries);
    }

    #[test]
    fn empty_directory() {
        assert!(decode_entries(&encode_entries(&[])).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_truncation() {
        let encoded = encode_entries(&sample());
        assert!(decode_entries(&encoded[..encoded.len() - 3]).is_err());
        assert!(decode_entries(&encoded[..5]).is_err());
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut encoded = encode_entries(&sample());
        encoded[2] = 7;
        assert!(decode_entries(&encoded).is_err());
    }

    #[test]
    fn split_path_accepts_absolute() {
        assert_eq!(split_path("/").unwrap(), Vec::<&str>::new());
        assert_eq!(split_path("/a").unwrap(), vec!["a"]);
        assert_eq!(split_path("/a/b/c").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn split_path_rejects_bad_paths() {
        assert!(split_path("relative").is_err());
        assert!(split_path("").is_err());
        assert!(split_path("/a//b").is_err());
        assert!(split_path("/a/").is_err());
        assert!(split_path("/a/../b").is_err());
        assert!(split_path("/a/./b").is_err());
        assert!(split_path(&format!("/{}", "x".repeat(300))).is_err());
        assert!(split_path("/bad\0name").is_err());
    }

    #[test]
    fn split_parent_basic() {
        let (parent, name) = split_parent("/docs/budget.xls").unwrap();
        assert_eq!(parent, vec!["docs"]);
        assert_eq!(name, "budget.xls");
        let (parent, name) = split_parent("/top").unwrap();
        assert!(parent.is_empty());
        assert_eq!(name, "top");
        assert!(split_parent("/").is_err());
    }
}
