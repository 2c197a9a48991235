//! The sharded open-file table.
//!
//! Handle bookkeeping (access modes, targets, the stream offset's home) is
//! hot and tiny, so it gets its own concurrency domain: handles are
//! distributed over `SHARD_COUNT` independently locked maps, and a shard
//! lock is **never** held across a file-system operation.  The stream offset
//! lives behind its own *per-handle* mutex (`OpenFile::offset`): streaming
//! reads and writes consume the shared offset atomically by holding that
//! one-handle lock across their I/O, so a slow streaming handle parks only
//! itself — it no longer stalls the 1-of-16 table shard it happens to hash
//! to.  The kernel analogue is the system open-file table in front of the
//! driver of Figure 5, with the offset in the file description.
//!
//! Each open file carries an `Arc` of its [`crate::vfs`] object entry, so
//! positional I/O resolves straight from handle to per-object lock without
//! ever touching the global object registry.

use crate::error::{VfsError, VfsResult};
use crate::vfs::ObjectEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stegfs_obs::lock::Mutex;

/// Number of independently locked table shards (a power of two).
pub const SHARD_COUNT: usize = 16;

/// An open file handle, as handed to callers.  Plain `Copy` data — cheap to
/// pass between threads; all state lives in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VfsHandle(pub(crate) u64);

impl VfsHandle {
    /// The raw handle number (stable for the lifetime of the open file).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// The state behind a handle's per-handle offset lock: the stream offset
/// itself plus where the previous *streaming read* ended, which is what
/// detects a sequential scan (and arms readahead) without any extra lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamPos {
    /// Current stream offset.
    pub pos: u64,
    /// End offset of the handle's previous streaming read; `u64::MAX`
    /// before the first read and after any write (a fresh scan must prove
    /// itself sequential again before readahead arms).
    pub last_read_end: u64,
}

impl StreamPos {
    /// A fresh position (no streaming history).
    pub fn new(pos: u64) -> Self {
        StreamPos {
            pos,
            last_read_end: u64::MAX,
        }
    }
}

/// Per-handle state.
#[derive(Clone)]
pub(crate) struct OpenFile {
    pub session: u64,
    /// The shared object this handle refers to.  All handles on one object
    /// hold the same entry, whose internal lock serialises their I/O; a
    /// handle whose entry has been marked dead (unlink) is stale.
    pub object: Arc<ObjectEntry>,
    /// The stream position, behind its own per-handle lock.  Streaming ops
    /// hold this lock across their object I/O (that is what makes a shared
    /// POSIX-style offset consume atomically); positional ops never touch
    /// it.  Lock order: the table in [`stegfs_obs::lock`].
    pub offset: Arc<Mutex<StreamPos>>,
    pub read: bool,
    pub write: bool,
    pub append: bool,
}

/// Options controlling [`crate::Vfs::open`], mirroring `std::fs::OpenOptions`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    pub(crate) read: bool,
    pub(crate) write: bool,
    pub(crate) create: bool,
    pub(crate) truncate: bool,
    pub(crate) append: bool,
}

impl OpenOptions {
    /// Start from all-off options.
    pub fn new() -> Self {
        OpenOptions::default()
    }

    /// Read-only preset.
    pub fn read_only() -> Self {
        OpenOptions::new().read(true)
    }

    /// Read+write+create preset, the common writable open.
    pub fn read_write() -> Self {
        OpenOptions::new().read(true).write(true).create(true)
    }

    /// Allow reads through the handle.
    pub fn read(mut self, yes: bool) -> Self {
        self.read = yes;
        self
    }

    /// Allow writes through the handle.
    pub fn write(mut self, yes: bool) -> Self {
        self.write = yes;
        self
    }

    /// Create the file if it does not exist (requires `write`).
    pub fn create(mut self, yes: bool) -> Self {
        self.create = yes;
        self
    }

    /// Truncate the file to zero length on open (requires `write`).
    pub fn truncate(mut self, yes: bool) -> Self {
        self.truncate = yes;
        self
    }

    /// Position every streaming write at the end of file.
    pub fn append(mut self, yes: bool) -> Self {
        self.append = yes;
        self
    }
}

/// The sharded table itself.
pub(crate) struct OpenFileTable {
    shards: Vec<Mutex<HashMap<u64, OpenFile>>>,
    next: AtomicU64,
}

impl OpenFileTable {
    pub fn new() -> Self {
        OpenFileTable {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next: AtomicU64::new(1),
        }
    }

    fn shard(&self, handle: u64) -> &Mutex<HashMap<u64, OpenFile>> {
        &self.shards[(handle as usize) & (SHARD_COUNT - 1)]
    }

    /// Insert a new open file, returning its handle.
    pub fn insert(&self, file: OpenFile) -> VfsHandle {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.shard(id).lock().insert(id, file);
        VfsHandle(id)
    }

    /// Snapshot the state of `handle`.
    pub fn get(&self, handle: VfsHandle) -> VfsResult<OpenFile> {
        self.shard(handle.0)
            .lock()
            .get(&handle.0)
            .cloned()
            .ok_or(VfsError::BadHandle(handle.0))
    }

    /// Remove `handle`, returning its state.
    pub fn remove(&self, handle: VfsHandle) -> VfsResult<OpenFile> {
        self.shard(handle.0)
            .lock()
            .remove(&handle.0)
            .ok_or(VfsError::BadHandle(handle.0))
    }

    /// Remove every handle belonging to `session`, returning their states.
    pub fn remove_session(&self, session: u64) -> Vec<OpenFile> {
        let mut removed = Vec::new();
        for shard in &self.shards {
            let mut map = shard.lock();
            let ids: Vec<u64> = map
                .iter()
                .filter(|(_, f)| f.session == session)
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                if let Some(f) = map.remove(&id) {
                    removed.push(f);
                }
            }
        }
        removed
    }

    /// Number of currently open handles (all sessions).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(session: u64) -> OpenFile {
        OpenFile {
            session,
            object: Arc::new(ObjectEntry::test_plain(7)),
            offset: Arc::new(Mutex::new(StreamPos::new(0))),
            read: true,
            write: false,
            append: false,
        }
    }

    #[test]
    fn insert_get_remove() {
        let t = OpenFileTable::new();
        let h = t.insert(file(1));
        assert_eq!(t.get(h).unwrap().session, 1);
        // The offset cell is shared between snapshots of the same handle.
        t.get(h).unwrap().offset.lock().pos = 42;
        assert_eq!(t.get(h).unwrap().offset.lock().pos, 42);
        assert_eq!(t.len(), 1);
        t.remove(h).unwrap();
        assert!(matches!(t.get(h), Err(VfsError::BadHandle(_))));
        assert!(matches!(t.remove(h), Err(VfsError::BadHandle(_))));
    }

    #[test]
    fn handles_are_unique_across_shards() {
        let t = OpenFileTable::new();
        let handles: Vec<VfsHandle> = (0..100).map(|i| t.insert(file(i % 3))).collect();
        let mut raw: Vec<u64> = handles.iter().map(|h| h.raw()).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 100);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn remove_session_sweeps_only_that_session() {
        let t = OpenFileTable::new();
        for i in 0..30 {
            t.insert(file(i % 2));
        }
        let removed = t.remove_session(0);
        assert_eq!(removed.len(), 15);
        assert_eq!(t.len(), 15);
        assert!(t.remove_session(0).is_empty());
    }

    #[test]
    fn open_options_builder() {
        let o = OpenOptions::read_write().append(true);
        assert!(o.read && o.write && o.create && o.append && !o.truncate);
        let o = OpenOptions::read_only();
        assert!(o.read && !o.write && !o.create);
    }
}
