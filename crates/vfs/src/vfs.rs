//! The [`Vfs`] front-end proper.
//!
//! # Locking architecture
//!
//! The pre-redesign `Vfs` funnelled every operation through one
//! `RwLock<StegFs>` write guard because the core API took `&mut self`.  The
//! core is now fully shared-reference with its own internal sharding, so the
//! VFS keeps only the state the core cannot know about — sessions, the open
//! file table, and the shared-object registry — each behind its own small
//! lock:
//!
//! * **table shards** ([`crate::table`]) — handle bookkeeping only, never
//!   held across I/O.
//! * **per-handle offset lock** — each open file's stream offset sits behind
//!   its own mutex; streaming ops hold it across the object I/O so the
//!   shared offset consumes atomically, while a parked streaming handle
//!   stalls nobody but itself (positional I/O never touches it).
//! * **object registry** — `Mutex<HashMap<ObjectKey, Arc<ObjectEntry>>>`,
//!   touched only by open / close / unlink.  Positional I/O goes straight
//!   from the handle's `Arc` to the object lock without looking anything up.
//! * **per-object lock** — one mutex inside each `ObjectEntry`,
//!   serialising I/O on *that* object (and, for hidden objects, guarding the
//!   shared [`HiddenHandle`] whose cached block map a rewrite refreshes).
//!   Two handles on different objects never contend here.
//! * **session table** — `RwLock<HashMap<u64, Arc<SessionState>>>`; lookups
//!   clone the `Arc` under the shared read guard, so sign-ons do not stall
//!   running I/O and I/O never blocks sign-ons.
//!
//! Lock order: the table in [`stegfs_obs::lock`].  Unlink resolves its path
//! first (registry untouched), pins the victim's entry, then holds only that
//! entry's object lock across the O(file-size) core delete, so in-flight I/O
//! drains first and unrelated opens never stall behind it.  The entry stays
//! registered (alive) until the delete succeeds — a racing open of the same
//! object reuses it and goes stale with everyone else once the entry is
//! marked dead (stale handles report [`VfsError::BadHandle`], which is in
//! the deniable not-found family) and evicted.

use crate::error::{VfsError, VfsResult};
use crate::path::VfsPath;
use crate::table::{OpenFile, OpenFileTable, OpenOptions, StreamPos, VfsHandle};
use std::collections::{BTreeMap, HashMap};
use std::io::SeekFrom;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_core::keys::FAK_LEN;
use stegfs_core::{
    CacheStats, DirectoryEntry, HiddenHandle, ObjectKind, Parent, SpaceReport, StegFs, StegParams,
    StegResult,
};
use stegfs_fs::{FileKind, InodeId};
use stegfs_obs::lock::{Mutex, RwLock};

/// Blocks prefetched past a sequential streaming read.  The prefetch rides
/// the *same* batched device submission as the demand blocks and lands in
/// the core's plaintext cache, so the next chunk of the scan is served from
/// RAM.  Armed only once a handle's streaming reads prove back-to-back
/// (see [`StreamPos`]); positional reads never prefetch.
const READAHEAD_BLOCKS: usize = 8;

/// A signed-on user session, identified by an opaque id.
///
/// A session wraps one User Access Key plus the objects it has connected;
/// `/hidden` resolves against exactly this state, so hidden objects are
/// visible only to the sessions holding their key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw session number.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Kind of a namespace node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular file (plain or hidden).
    File,
    /// A directory (plain, hidden, or one of the fixed namespace roots).
    Directory,
}

/// Result of [`Vfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsStat {
    /// File or directory.
    pub kind: NodeKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
}

/// One entry returned by [`Vfs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsDirEntry {
    /// Component name.
    pub name: String,
    /// File or directory.
    pub kind: NodeKind,
}

/// Key of an entry in the shared-object registry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ObjectKey {
    /// A plain file, pinned by inode id.  Pinning the inode (not the path)
    /// keeps handles on the same file across renames.
    Plain(InodeId),
    /// A hidden object, by physical (locator) name *and* FAK: two live
    /// objects can share a physical name (a re-keyed `x` is renamed
    /// `x#rev2` physically, which a later top-level `x#rev2` gets too).
    Hidden(String, [u8; FAK_LEN]),
}

impl ObjectKey {
    fn hidden(entry: &DirectoryEntry) -> Self {
        ObjectKey::Hidden(entry.physical_name.clone(), entry.fak)
    }
}

/// What the per-object lock protects.
pub(crate) enum TargetState {
    /// Plain files keep their state (the inode) in the file system; the lock
    /// only serialises content read-modify-write cycles.
    Plain { inode: InodeId },
    /// Hidden objects share one core handle so a rewrite through any VFS
    /// handle (which relocates blocks through the free pool) is immediately
    /// visible — never stale — through every other.
    Hidden { handle: Box<HiddenHandle> },
}

/// One live object in the registry.  All VFS handles to the same object hold
/// the same `Arc`; `dead` flips exactly once, when the object is unlinked,
/// after which every handle still holding the entry is stale.
pub(crate) struct ObjectEntry {
    key: ObjectKey,
    refs: AtomicUsize,
    dead: AtomicBool,
    io: Mutex<TargetState>,
}

impl ObjectEntry {
    fn new(key: ObjectKey, state: TargetState) -> Self {
        ObjectEntry {
            key,
            refs: AtomicUsize::new(1),
            dead: AtomicBool::new(false),
            io: Mutex::new(state),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Test-only constructor used by the open-file-table unit tests.
    #[cfg(test)]
    pub(crate) fn test_plain(inode: InodeId) -> Self {
        ObjectEntry::new(ObjectKey::Plain(inode), TargetState::Plain { inode })
    }
}

/// Where a write lands: a fixed position, or end-of-file resolved under the
/// object lock (append handles must read the size and write in one hold, or
/// two appending handles would land on the same offset).
#[derive(Clone, Copy)]
enum WriteOffset {
    At(u64),
    End,
}

struct SessionState {
    uak: String,
    connected: Mutex<Connected>,
}

/// A session's connect table (the paper's `steg_connect` state), RAM only.
///
/// `/hidden/<name>` names the UAK listing's entry whenever the listing
/// holds `<name>`, and a connected object of that name only where it does
/// not: so one path names one object, the one unlink and rename act on.
/// A connected object another session deletes stays connected (its opens
/// fail not-found) until this session disconnects it or signs off.
#[derive(Default)]
struct Connected {
    /// Top-level names this session resolved from its listing, each with
    /// the listing generation read before the walk that found it
    /// ([`StegFs::listing_generation`]), so a repeat open is a table hit
    /// with no listing walk.  A hint holds only while the generation reads
    /// the same: a commit since that unbinds a name in the key's listing —
    /// a rename, unlink or re-key, by any session — moves it, and the name
    /// is walked again.
    listed: BTreeMap<String, (DirectoryEntry, u64)>,
    /// What [`Vfs::connect`] made visible: the object and, for a directory,
    /// its offspring at any depth, each reachable at `/hidden/<its name>`.
    set: BTreeMap<String, DirectoryEntry>,
}

impl Connected {
    /// Drop every entry naming the object `key`: it was unlinked or renamed.
    fn forget(&mut self, key: &ObjectKey) {
        let other = |e: &DirectoryEntry| ObjectKey::hidden(e) != *key;
        self.listed.retain(|_, (e, _)| other(e));
        self.set.retain(|_, e| other(e));
    }
}

/// A concurrent, handle-based virtual file system over a StegFS volume.
///
/// `Vfs` puts the missing kernel half of the paper's Figure 5 in front of
/// [`StegFs`]: a unified path namespace (`/plain/...` shared by everyone,
/// `/hidden/...` per session), an open-file table with positional and
/// streaming I/O, and sign-on sessions.  There is no global volume lock any
/// more: sessions resolve under a shared read guard, every open object has
/// its own lock, and the core underneath shards the allocator, the
/// namespaces and the device — so threads working on different files overlap
/// their block I/O and only allocator and directory mutations contend.  See
/// the module docs for the full lock order.
///
/// Deniability is preserved through the new layer: signing on never validates
/// the key (there is nothing to validate against), a wrong-key session simply
/// sees an empty `/hidden`, and every "no such object / wrong key / stale
/// handle" case reports through the same [`VfsError::is_not_found`] family.
pub struct Vfs<D: BlockDevice> {
    fs: StegFs<D>,
    /// Open shared objects, keyed by inode (plain) or identity (hidden).
    objects: Mutex<HashMap<ObjectKey, Arc<ObjectEntry>>>,
    sessions: RwLock<HashMap<u64, Arc<SessionState>>>,
    table: OpenFileTable,
    next_session: AtomicU64,
}

impl<D: BlockDevice> Vfs<D> {
    // ------------------------------------------------------------------
    // Construction / teardown
    // ------------------------------------------------------------------

    /// Wrap an already mounted [`StegFs`].
    pub fn new(fs: StegFs<D>) -> Self {
        Vfs {
            fs,
            objects: Mutex::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
            table: OpenFileTable::new(),
            next_session: AtomicU64::new(1),
        }
    }

    /// Format `dev` as a fresh StegFS volume and serve it.  No checkpoint
    /// daemon runs: a caller that wants one formats with
    /// [`StegFs::format`], calls [`StegFs::start_checkpoint_daemon`] and
    /// wraps the volume with [`Self::new`]; unmount drains and stops it.
    pub fn format(dev: D, params: StegParams) -> VfsResult<Self> {
        Ok(Vfs::new(StegFs::format(dev, params)?))
    }

    /// Mount an existing StegFS volume and serve it (no checkpoint daemon,
    /// as in [`Self::format`]).
    pub fn mount(dev: D, params: StegParams) -> VfsResult<Self> {
        Ok(Vfs::new(StegFs::mount(dev, params)?))
    }

    /// Tear the front-end down, recovering the [`StegFs`] underneath.
    pub fn into_stegfs(self) -> StegFs<D> {
        self.fs
    }

    /// Flush everything and return the underlying device.
    pub fn unmount(self) -> StegResult<D> {
        self.into_stegfs().unmount()
    }

    /// Flush metadata to the device.  Runs concurrently with ordinary I/O —
    /// no exclusive volume guard is needed any more.
    ///
    /// This is the `PlainFs::sync` path surfaced at the top of the stack: on
    /// a journaled volume it is also the **checkpoint** (dirty cache blocks
    /// flush, the journal tail advances, and a crash afterwards replays
    /// nothing), so callers outside the engine can force durability without
    /// submitting a request.
    pub fn sync(&self) -> VfsResult<()> {
        Ok(self.fs.sync()?)
    }

    /// Flush the state behind an open handle to stable storage.
    ///
    /// On a journaled volume this is a **durability barrier, not a
    /// checkpoint**: it waits for one device flush covering every commit
    /// staged so far (after which replay redoes anything still in flight)
    /// but does not advance the journal tail, write an anchor or flush the
    /// bitmap — so one busy object's `fsync` never pays for checkpointing
    /// the whole ring.  Use [`Self::sync`] for the full checkpoint.  On an
    /// unjournaled volume it is the classic best-effort metadata flush.
    /// Concurrent `fsync`s share one device barrier (group commit), which
    /// is what keeps it cheap under many engine workers.
    pub fn fsync(&self, handle: VfsHandle) -> VfsResult<()> {
        // Validate the handle (stale handles report the deniable not-found
        // family, like every other use).
        self.table.get(handle)?;
        Ok(self.fs.fsync_barrier()?)
    }

    /// Aggregate block accounting of the served volume.
    pub fn space_report(&self) -> VfsResult<SpaceReport> {
        Ok(self.fs.space_report()?)
    }

    /// Number of currently open handles across all sessions.
    pub fn open_handles(&self) -> usize {
        self.table.len()
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Sign a user on with a User Access Key and get a session.
    ///
    /// Deliberately infallible: there is no key registry to check against —
    /// that absence is the hiding property.  A key that matches nothing
    /// yields a session whose `/hidden` is empty, indistinguishable from a
    /// correct key with no hidden objects.
    pub fn signon(&self, uak: &str) -> SessionId {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.write().insert(
            id,
            Arc::new(SessionState {
                uak: uak.to_string(),
                connected: Mutex::new(Connected::default()),
            }),
        );
        SessionId(id)
    }

    /// Sign a session off: every handle it still holds is closed, its
    /// connected-object table is dropped (the paper disconnects all objects
    /// at logoff), and every read-cache entry the session's keys could
    /// reach — decrypted headers, extents and blocks, and the derived key
    /// sets themselves — is **purged and zeroed**: no decrypted byte and no
    /// key schedule may outlive a session that could use it, while entries
    /// other live sessions resolved through their own keys stay warm (see
    /// `stegfs_core::readcache`).  The registry's captured span trees
    /// (worst-N and chrome-trace) are zeroed as well, so no record of the
    /// departing session's activity pattern survives it; [`Self::unmount`]
    /// zeroes them too.
    pub fn signoff(&self, session: SessionId) -> VfsResult<()> {
        let state = self
            .sessions
            .write()
            .remove(&session.0)
            .ok_or(VfsError::BadSession(session.0))?;
        for file in self.table.remove_session(session.0) {
            self.release_ref(&file.object);
        }
        self.fs.purge_session_caches(&state.uak);
        // Session-scoped observability state that could outline hidden
        // activity (captured span trees) dies with the session; the
        // digit-normalized *shape* stays identical.
        self.fs.obs().slow.zeroize();
        self.fs.obs().capture.zeroize();
        Ok(())
    }

    /// Counters of the core's read-path cache (hits, misses, evictions,
    /// resident plaintext), surfaced next to the device `DeviceStats` by the
    /// benches.
    pub fn cache_stats(&self) -> CacheStats {
        self.fs.cache_stats()
    }

    /// The volume's observability registry (histograms, contention
    /// counters, captured span trees).  RAM only; see `stegfs-obs` for the
    /// deniability contract.
    pub fn obs(&self) -> &std::sync::Arc<stegfs_obs::Obs> {
        self.fs.obs()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.read().len()
    }

    /// `steg_connect` through the VFS: resolve `name` under the session's key
    /// and connect it (and, for a directory, its offspring) to the session:
    /// they appear in its `/hidden` listing and open at `/hidden/<name>`
    /// wherever the UAK listing holds no such name.
    pub fn connect(&self, session: SessionId, name: &str) -> VfsResult<()> {
        let state = self.session_state(session)?;
        let entry = self.fs.lookup_entry(name, &state.uak)?;
        let mut gathered = Vec::new();
        self.collect_offspring(&entry, &mut gathered)?;
        let gathered = gathered.into_iter().map(|e| (e.name.clone(), e));
        state.connected.lock().set.extend(gathered);
        Ok(())
    }

    /// Remove `name` from the session's connected set, and drop what the
    /// session remembers of the listing's `name`, so the next use walks
    /// from disk.  Returns true if anything was dropped.
    pub fn disconnect(&self, session: SessionId, name: &str) -> VfsResult<bool> {
        let state = self.session_state(session)?;
        let mut connected = state.connected.lock();
        let listed = connected.listed.remove(name).is_some();
        Ok(connected.set.remove(name).is_some() || listed)
    }

    /// Names of the session's connected objects, sorted.
    pub fn connected_objects(&self, session: SessionId) -> VfsResult<Vec<String>> {
        let state = self.session_state(session)?;
        let connected = state.connected.lock();
        Ok(connected.set.keys().cloned().collect())
    }

    fn session_state(&self, session: SessionId) -> VfsResult<Arc<SessionState>> {
        self.sessions
            .read()
            .get(&session.0)
            .cloned()
            .ok_or(VfsError::BadSession(session.0))
    }

    /// Resolve a hidden component chain and run `f` on the result.  The
    /// first component is [`Self::resolve_top`]'s, each one below it is
    /// walked from its directory's listing.
    fn with_hidden_entry<R>(
        &self,
        state: &SessionState,
        comps: &[String],
        f: impl FnOnce(&DirectoryEntry) -> VfsResult<R>,
    ) -> VfsResult<R> {
        let top = self.resolve_top(state, &comps[0])?;
        self.resolve_below(top, comps).and_then(|e| f(&e))
    }

    /// The entry `/hidden/<name>` names for the session: the listing's
    /// entry of that name, else the connected object of that name.  A name
    /// the session resolved from the listing before is a table hit, with
    /// no walk, while the listing generation it recorded is current.
    fn resolve_top(&self, state: &SessionState, name: &str) -> VfsResult<DirectoryEntry> {
        // Read before the walk: a commit that lands during the walk moves
        // it past what the hint records, so the hint is walked again.
        let gen = self.fs.listing_generation(&state.uak);
        if let Some((entry, seen)) = state.connected.lock().listed.get(name) {
            if *seen == gen {
                return Ok(entry.clone());
            }
        }
        match self.fs.lookup_entry(name, &state.uak) {
            Ok(entry) => {
                let hint = (entry.clone(), gen);
                state.connected.lock().listed.insert(name.to_string(), hint);
                Ok(entry)
            }
            Err(e) if e.is_not_found() => {
                let mut connected = state.connected.lock();
                connected.listed.remove(name);
                connected.set.get(name).cloned().ok_or(e.into())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Resolve the components of `comps` below its first, which resolved to
    /// `entry`, each through the listing of the hidden directory above it —
    /// each listing carries full `(physical name, FAK)` entries, so
    /// offspring need no extra key material, exactly as in the paper's
    /// `steg_connect`.
    fn resolve_below(
        &self,
        mut entry: DirectoryEntry,
        comps: &[String],
    ) -> VfsResult<DirectoryEntry> {
        for comp in &comps[1..] {
            if entry.kind != ObjectKind::Directory {
                return Err(VfsError::NotADirectory(comps.join("/")));
            }
            entry = self
                .fs
                .list(Parent::Dir(&entry))?
                .find(comp)
                .cloned()
                .ok_or_else(|| stegfs_core::StegError::NotFound(comp.clone()))?;
        }
        Ok(entry)
    }

    /// Collect `entry` and, recursively, the offspring of hidden directories
    /// — the connect set of the paper's `steg_connect`.
    fn collect_offspring(
        &self,
        entry: &DirectoryEntry,
        out: &mut Vec<DirectoryEntry>,
    ) -> VfsResult<()> {
        out.push(entry.clone());
        if entry.kind == ObjectKind::Directory {
            for child in &self.fs.list(Parent::Dir(entry))?.entries {
                self.collect_offspring(child, out)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shared-object registry
    // ------------------------------------------------------------------

    /// Pin the registry entry for a plain inode, creating it on first open.
    fn acquire_plain(&self, inode: InodeId) -> Arc<ObjectEntry> {
        let mut map = self.objects.lock();
        let key = ObjectKey::Plain(inode);
        if let Some(e) = map.get(&key) {
            if !e.is_dead() {
                e.refs.fetch_add(1, Ordering::AcqRel);
                return Arc::clone(e);
            }
        }
        let e = Arc::new(ObjectEntry::new(key.clone(), TargetState::Plain { inode }));
        map.insert(key, Arc::clone(&e));
        e
    }

    /// Pin the registry entry for a hidden object, opening it through the
    /// core on first use.  The locator walk is real device I/O, so it runs
    /// *outside* the registry lock; a double-checked insert resolves racing
    /// first-opens (the loser drops its redundant handle and joins the
    /// winner's entry).  An unlink racing a first-open is serialised by the
    /// core object shard and swept by unlink's post-delete registry pass.
    fn acquire_hidden(&self, entry: &DirectoryEntry) -> VfsResult<Arc<ObjectEntry>> {
        let key = ObjectKey::hidden(entry);
        {
            let map = self.objects.lock();
            if let Some(e) = map.get(&key) {
                if !e.is_dead() {
                    e.refs.fetch_add(1, Ordering::AcqRel);
                    return Ok(Arc::clone(e));
                }
            }
        }
        let handle = Box::new(self.fs.open_hidden_entry(entry)?);
        let mut map = self.objects.lock();
        if let Some(e) = map.get(&key) {
            if !e.is_dead() {
                e.refs.fetch_add(1, Ordering::AcqRel);
                return Ok(Arc::clone(e));
            }
        }
        let e = Arc::new(ObjectEntry::new(
            key.clone(),
            TargetState::Hidden { handle },
        ));
        map.insert(key, Arc::clone(&e));
        Ok(e)
    }

    /// Drop one pin; the last pin evicts the entry from the registry (unless
    /// unlink already replaced or removed it — the `Arc` identity check keeps
    /// a stale close from evicting a recreated object of the same name).
    fn release_ref(&self, obj: &Arc<ObjectEntry>) {
        let mut map = self.objects.lock();
        if obj.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(current) = map.get(&obj.key) {
                if Arc::ptr_eq(current, obj) {
                    map.remove(&obj.key);
                }
            }
        }
    }

    /// Remove `obj` from the registry if it is still the registered entry
    /// for its key (unlink's post-delete cleanup; `Arc` identity guards a
    /// recreated object of the same name).
    fn evict_entry(&self, obj: &Arc<ObjectEntry>) {
        let mut map = self.objects.lock();
        if let Some(current) = map.get(&obj.key) {
            if Arc::ptr_eq(current, obj) {
                map.remove(&obj.key);
            }
        }
    }

    /// Apply open-time `truncate` / `append` under the object lock, returning
    /// the handle's initial offset.
    fn setup_handle(&self, obj: &Arc<ObjectEntry>, truncate: bool, append: bool) -> VfsResult<u64> {
        if !truncate && !append {
            return Ok(0);
        }
        let mut io = obj.io.lock();
        // An unlink may have completed while we waited for the lock (it
        // holds this lock across the delete); the object is then gone.
        if obj.is_dead() {
            return Err(VfsError::BadHandle(0));
        }
        match &mut *io {
            TargetState::Plain { inode } => {
                let inode = *inode;
                if truncate {
                    plain_rewrite(&self.fs, inode, 0, None)?;
                }
                if append {
                    Ok(self.fs.plain_fs().inode_file_size(inode)?)
                } else {
                    Ok(0)
                }
            }
            TargetState::Hidden { handle } => {
                if truncate {
                    self.fs.truncate_handle(handle, 0)?;
                }
                if append {
                    Ok(handle.size())
                } else {
                    Ok(0)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    /// Stat a path in the unified namespace.
    pub fn stat(&self, session: SessionId, path: &str) -> VfsResult<VfsStat> {
        let state = self.session_state(session)?;
        match VfsPath::parse(path)? {
            VfsPath::Root | VfsPath::HiddenRoot => Ok(VfsStat {
                kind: NodeKind::Directory,
                size: 0,
            }),
            VfsPath::Plain(p) => {
                let (kind, size) = self.fs.plain_fs().stat(&p)?;
                Ok(VfsStat {
                    kind: plain_kind(kind, &p)?,
                    size,
                })
            }
            VfsPath::Hidden(comps) => {
                self.with_hidden_entry(&state, &comps, |entry| match entry.kind {
                    ObjectKind::Directory => Ok(VfsStat {
                        kind: NodeKind::Directory,
                        size: 0,
                    }),
                    ObjectKind::File => {
                        // Prefer the live cached handle (it reflects
                        // in-flight growth); fall back to a fresh open.
                        let cached = self.objects.lock().get(&ObjectKey::hidden(entry)).cloned();
                        let size = match cached {
                            Some(obj) if !obj.is_dead() => {
                                let io = obj.io.lock();
                                match &*io {
                                    TargetState::Hidden { handle } => handle.size(),
                                    TargetState::Plain { .. } => {
                                        unreachable!("hidden key always maps to a hidden target")
                                    }
                                }
                            }
                            _ => self.fs.open_hidden_entry(entry)?.size(),
                        };
                        Ok(VfsStat {
                            kind: NodeKind::File,
                            size,
                        })
                    }
                })
            }
        }
    }

    /// List a directory in the unified namespace.
    ///
    /// `/` always shows exactly `plain` and `hidden`; what `/hidden` shows
    /// depends entirely on the session's key (its UAK directory plus any
    /// connected objects), so two sessions see two different trees over the
    /// same volume.
    pub fn readdir(&self, session: SessionId, path: &str) -> VfsResult<Vec<VfsDirEntry>> {
        let state = self.session_state(session)?;
        match VfsPath::parse(path)? {
            VfsPath::Root => Ok(vec![
                VfsDirEntry {
                    name: "plain".into(),
                    kind: NodeKind::Directory,
                },
                VfsDirEntry {
                    name: "hidden".into(),
                    kind: NodeKind::Directory,
                },
            ]),
            VfsPath::Plain(p) => {
                let entries = self.fs.plain_fs().list_dir(&p)?;
                Ok(entries
                    .into_iter()
                    .map(|e| VfsDirEntry {
                        name: e.name,
                        kind: match e.kind {
                            FileKind::Directory => NodeKind::Directory,
                            _ => NodeKind::File,
                        },
                    })
                    .collect())
            }
            VfsPath::HiddenRoot => {
                let listing = self.fs.list(Parent::Uak(&state.uak))?.entries;
                // Connected objects (e.g. offspring of a connected directory)
                // are part of the session's view too; where a name is both,
                // the listing's entry is the one the path opens.
                let connected = state.connected.lock();
                let view: BTreeMap<&str, ObjectKind> = connected
                    .set
                    .values()
                    .chain(&listing)
                    .map(|e| (e.name.as_str(), e.kind))
                    .collect();
                Ok(view
                    .into_iter()
                    .map(|(name, kind)| VfsDirEntry {
                        name: name.to_string(),
                        kind: object_kind(kind),
                    })
                    .collect())
            }
            VfsPath::Hidden(comps) => self.with_hidden_entry(&state, &comps, |entry| {
                if entry.kind != ObjectKind::Directory {
                    return Err(VfsError::NotADirectory(path.to_string()));
                }
                Ok(self
                    .fs
                    .list(Parent::Dir(entry))?
                    .entries
                    .iter()
                    .map(|e| VfsDirEntry {
                        name: e.name.clone(),
                        kind: object_kind(e.kind),
                    })
                    .collect())
            }),
        }
    }

    /// Create a directory.
    ///
    /// Hidden directories nest at **arbitrary depth**: the parent chain of
    /// `/hidden/a/b/c` resolves through the per-directory listings (each
    /// listing carries full `(physical name, FAK)` entries), and the new
    /// child is registered in its immediate parent alone.
    pub fn mkdir(&self, session: SessionId, path: &str) -> VfsResult<()> {
        let state = self.session_state(session)?;
        match VfsPath::parse(path)? {
            VfsPath::Root | VfsPath::HiddenRoot => Err(VfsError::from(
                stegfs_core::StegError::AlreadyExists(path.to_string()),
            )),
            VfsPath::Plain(p) => {
                self.fs.plain_fs().create_dir(&p)?;
                Ok(())
            }
            VfsPath::Hidden(comps) => self.with_parent(&state, &comps, |parent, name| {
                Ok(self.fs.create(parent, name, ObjectKind::Directory)?)
            }),
        }
    }

    /// Run `f` on the listing that holds the last component of `comps` (a
    /// path under `/hidden`) and that component's name: the session's UAK
    /// directory at top level, else the hidden directory the leading
    /// components resolve to (through [`Self::with_hidden_entry`], so a
    /// session hint that a listing commit outdated is walked again).
    fn with_parent<R>(
        &self,
        state: &SessionState,
        comps: &[String],
        f: impl FnOnce(Parent<'_>, &str) -> VfsResult<R>,
    ) -> VfsResult<R> {
        match comps.split_last() {
            None => Err(VfsError::InvalidPath("/hidden".into())),
            Some((name, [])) => f(Parent::Uak(&state.uak), name),
            Some((name, dirs)) => {
                self.with_hidden_entry(state, dirs, |dir| f(Parent::Dir(dir), name))
            }
        }
    }

    /// Remove a file or empty directory.
    ///
    /// The deletion itself is O(file size); the registry lock is held only
    /// long enough to pin the victim's entry, *not* across the delete — so
    /// opens and closes of unrelated objects are never stalled behind a
    /// large unlink.  The pinned entry stays in the registry (alive) until
    /// the delete succeeds, so a racing open of the same object reuses it
    /// and simply goes stale (`BadHandle`, in the not-found family) with
    /// everyone else.  Only an open racing the delete on an object *nobody*
    /// had open can slip through the core and briefly hold a handle to freed
    /// blocks; its reads fail or return noise until it is closed.
    pub fn unlink(&self, session: SessionId, path: &str) -> VfsResult<()> {
        let state = self.session_state(session)?;
        match VfsPath::parse(path)? {
            VfsPath::Root | VfsPath::HiddenRoot => Err(VfsError::InvalidPath(path.to_string())),
            VfsPath::Plain(p) => {
                // Resolve before touching the registry — path resolution is
                // I/O and must not stall unrelated opens.  An open racing
                // this unlink may register a fresh entry for the inode while
                // the delete runs; the inode slot is free afterwards and its
                // id can be recycled by the next create, so that entry must
                // die too or its handles would silently retarget.
                let key = self
                    .fs
                    .plain_fs()
                    .resolve_file(&p)
                    .ok()
                    .map(ObjectKey::Plain);
                self.unlink_pinned(key.clone(), || {
                    self.fs.plain_fs().delete(&p)?;
                    Ok(key)
                })
                .map(drop)
            }
            VfsPath::Hidden(comps) => {
                self.with_parent(&state, &comps, |parent, name| {
                    // Resolve the victim first (outside the registry lock:
                    // it may be a listing walk; a top-level name is the
                    // session's hint) so its entry can be pinned before its
                    // blocks are freed.  `remove` takes that entry and,
                    // under the listing's guard, removes nothing if the
                    // name now lists another object.
                    let victim = match parent {
                        Parent::Uak(_) => self.resolve_top(&state, name)?,
                        Parent::Dir(_) => self
                            .fs
                            .list(parent)?
                            .find(name)
                            .cloned()
                            .ok_or_else(|| stegfs_core::StegError::NotFound(name.to_string()))?,
                    };
                    let removed = self.unlink_pinned(Some(ObjectKey::hidden(&victim)), || {
                        Ok(Some(ObjectKey::hidden(&self.fs.remove(parent, &victim)?)))
                    })?;
                    // The object may also be connected, under any name
                    // (a connect pulls a directory's offspring in).
                    if let Some(key) = removed {
                        state.connected.lock().forget(&key);
                    }
                    Ok(())
                })
            }
        }
    }

    /// Unlink's one pin / mark-dead / late-sweep sequence.  The registry
    /// entry under `key` (the victim's, resolved by the caller) is pinned
    /// and its object lock held across `delete`, so in-flight handle I/O
    /// drains before the blocks are freed; the entry dies once the delete
    /// succeeds.  A first-open may have slipped a fresh entry in under the
    /// key `delete` reports while it ran (it won the core object shard
    /// before the blocks were freed); its object is gone now, so that entry
    /// dies too, and a legitimate recreate landing in the same window is
    /// simply forced to reopen.
    fn unlink_pinned(
        &self,
        key: Option<ObjectKey>,
        delete: impl FnOnce() -> VfsResult<Option<ObjectKey>>,
    ) -> VfsResult<Option<ObjectKey>> {
        let cached = key.and_then(|k| self.objects.lock().get(&k).cloned());
        let io = cached.as_ref().map(|c| c.io.lock());
        let deleted = delete()?;
        if let Some(c) = &cached {
            c.mark_dead();
        }
        drop(io);
        if let Some(c) = &cached {
            self.evict_entry(c);
        }
        let late = deleted
            .as_ref()
            .and_then(|k| self.objects.lock().get(k).cloned());
        if let Some(late) = late {
            if !cached.as_ref().is_some_and(|c| Arc::ptr_eq(c, &late)) {
                late.mark_dead();
                self.evict_entry(&late);
            }
        }
        Ok(deleted)
    }

    /// Rename within a namespace (`/plain` to `/plain`, a top-level
    /// `/hidden` name to another, or a child of a hidden directory to a new
    /// name *within the same directory*).  Crossing the plain/hidden
    /// boundary is refused — that conversion is the explicit, deliberate
    /// `steg_hide` / `steg_unhide` — and so is moving a hidden object
    /// between directories (the physical name encodes the parent chain).
    pub fn rename(&self, session: SessionId, from: &str, to: &str) -> VfsResult<()> {
        let state = self.session_state(session)?;
        match (VfsPath::parse(from)?, VfsPath::parse(to)?) {
            (VfsPath::Plain(a), VfsPath::Plain(b)) => {
                self.fs.plain_fs().rename(&a, &b)?;
                Ok(())
            }
            (VfsPath::Hidden(a), VfsPath::Hidden(b)) if a[..a.len() - 1] == b[..b.len() - 1] => {
                let new = b.last().expect("a hidden path has a component");
                self.with_parent(&state, &a, |parent, old| {
                    let renamed = self.fs.rename(parent, old, new)?;
                    state.connected.lock().forget(&ObjectKey::hidden(&renamed));
                    Ok(())
                })
            }
            (VfsPath::Hidden(_), VfsPath::Hidden(_)) => Err(VfsError::Unsupported(format!(
                "hidden renames must stay within one directory: {from} -> {to}"
            ))),
            (VfsPath::Plain(_), VfsPath::Hidden(_)) | (VfsPath::Hidden(_), VfsPath::Plain(_)) => {
                Err(VfsError::CrossNamespace {
                    from: from.to_string(),
                    to: to.to_string(),
                })
            }
            _ => Err(VfsError::InvalidPath(format!("{from} -> {to}"))),
        }
    }

    // ------------------------------------------------------------------
    // Handle operations
    // ------------------------------------------------------------------

    /// Open a file and get a handle.
    pub fn open(&self, session: SessionId, path: &str, opts: OpenOptions) -> VfsResult<VfsHandle> {
        if !opts.read && !opts.write {
            return Err(VfsError::Unsupported(
                "open requires read or write access".into(),
            ));
        }
        if (opts.create || opts.truncate || opts.append) && !opts.write {
            return Err(VfsError::NotWritable);
        }
        let state = self.session_state(session)?;
        match VfsPath::parse(path)? {
            VfsPath::Root | VfsPath::HiddenRoot => Err(VfsError::IsDirectory(path.to_string())),
            VfsPath::Plain(p) if p == "/" => Err(VfsError::IsDirectory(path.to_string())),
            VfsPath::Plain(p) => {
                match self.fs.plain_fs().stat(&p) {
                    Ok((FileKind::Directory, _)) => {
                        return Err(VfsError::IsDirectory(path.to_string()))
                    }
                    Ok(_) => {}
                    Err(e) if e.is_not_found() && opts.create => {
                        // Create-only, never truncate: losing the create race
                        // to a concurrent opener means the file exists now,
                        // possibly already carrying the winner's data.
                        match self.fs.plain_fs().create_file(&p) {
                            Ok(_) => {}
                            Err(stegfs_fs::FsError::AlreadyExists(_)) => {}
                            Err(err) => return Err(err.into()),
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
                // Pin the inode, not the path: the handle must keep following
                // this file across renames and go stale on delete, never
                // silently retarget to whatever later occupies the path.
                let inode = self.fs.plain_fs().resolve_file(&p)?;
                let obj = self.acquire_plain(inode);
                // Re-validate after the pin: an unlink+create racing between
                // the resolve and the registry insert can recycle the inode
                // id for a *different* path.  Once our entry is registered,
                // any later unlink of this inode finds and kills it, so a
                // stable recheck here closes the silent-retarget window.
                match self.fs.plain_fs().resolve_file(&p) {
                    Ok(again) if again == inode => {}
                    _ => {
                        self.release_ref(&obj);
                        return Err(VfsError::from(stegfs_fs::FsError::NotFound(p)));
                    }
                }
                let offset = match self.setup_handle(&obj, opts.truncate, opts.append) {
                    Ok(o) => o,
                    Err(e) => {
                        self.release_ref(&obj);
                        return Err(e);
                    }
                };
                self.finish_open(
                    session,
                    OpenFile {
                        session: session.0,
                        object: obj,
                        offset: Arc::new(Mutex::new(StreamPos::new(offset))),
                        read: opts.read,
                        write: opts.write,
                        append: opts.append,
                    },
                )
            }
            VfsPath::Hidden(comps) => {
                // Resolve and pin the shared object.  Runs under
                // `with_hidden_entry`, so a session hint that a listing
                // commit outdated is walked again.
                let ensure = |entry: &DirectoryEntry| -> VfsResult<Arc<ObjectEntry>> {
                    if entry.kind != ObjectKind::File {
                        return Err(VfsError::IsDirectory(path.to_string()));
                    }
                    self.acquire_hidden(entry)
                };

                let resolved = match self.with_hidden_entry(&state, &comps, ensure) {
                    Ok(v) => Ok(v),
                    Err(e) if e.is_not_found() && opts.create => {
                        // Create at any depth; the parent chain must exist.
                        let create = |parent: Parent<'_>, name: &str| {
                            Ok(self.fs.create(parent, name, ObjectKind::File)?)
                        };
                        match self.with_parent(&state, &comps, create) {
                            Ok(()) => {}
                            // Raced another creator: the object exists now,
                            // which is all we wanted.
                            Err(VfsError::Steg(stegfs_core::StegError::AlreadyExists(_))) => {}
                            Err(err) => return Err(err),
                        }
                        self.with_hidden_entry(&state, &comps, ensure)
                    }
                    Err(e) => Err(e),
                };
                let obj = resolved?;
                let offset = match self.setup_handle(&obj, opts.truncate, opts.append) {
                    Ok(o) => o,
                    Err(e) => {
                        self.release_ref(&obj);
                        return Err(e);
                    }
                };
                self.finish_open(
                    session,
                    OpenFile {
                        session: session.0,
                        object: obj,
                        offset: Arc::new(Mutex::new(StreamPos::new(offset))),
                        read: opts.read,
                        write: opts.write,
                        append: opts.append,
                    },
                )
            }
        }
    }

    /// Insert the open file and re-validate the session.  A signoff racing
    /// the open may have swept the table *before* our insert landed; its
    /// handle would then leak (and pin a shared object's refcount) forever.
    /// Re-checking after the insert closes the window: whichever side runs
    /// last cleans up.
    fn finish_open(&self, session: SessionId, file: OpenFile) -> VfsResult<VfsHandle> {
        let handle = self.table.insert(file);
        if !self.sessions.read().contains_key(&session.0) {
            let _ = self.close(handle);
            return Err(VfsError::BadSession(session.0));
        }
        Ok(handle)
    }

    /// Close a handle.  Idempotence is not offered: closing twice reports the
    /// same stale-handle error as any other use-after-close.
    pub fn close(&self, handle: VfsHandle) -> VfsResult<()> {
        let file = self.table.remove(handle)?;
        self.release_ref(&file.object);
        Ok(())
    }

    /// Positional read: `len` bytes at `offset`, without touching the
    /// handle's stream position.  Reads past end-of-file return the available
    /// prefix (possibly empty).
    pub fn read_at(&self, handle: VfsHandle, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        let file = self.table.get(handle)?;
        if !file.read {
            return Err(VfsError::NotReadable);
        }
        self.object_read(handle, &file, offset, len)
    }

    /// Positional write at `offset`, extending the file as needed, without
    /// touching the handle's stream position.
    pub fn write_at(&self, handle: VfsHandle, offset: u64, data: &[u8]) -> VfsResult<()> {
        let file = self.table.get(handle)?;
        if !file.write {
            return Err(VfsError::NotWritable);
        }
        self.object_write(handle, &file, WriteOffset::At(offset), data)
            .map(|_| ())
    }

    /// Streaming read from the handle's current offset, advancing it.
    /// Atomic per handle: two threads streaming on one handle each consume a
    /// distinct range, as with a shared POSIX file description.  The offset
    /// lives behind its own per-handle lock, held across the object I/O —
    /// so a slow stream parks only this handle, never the table shard other
    /// handles hash to.
    pub fn read(&self, handle: VfsHandle, len: usize) -> VfsResult<Vec<u8>> {
        let file = self.table.get(handle)?;
        if !file.read {
            return Err(VfsError::NotReadable);
        }
        let mut sp = file.offset.lock();
        // Readahead arms once this handle's streaming reads are proven
        // back-to-back: this read starts exactly where the previous one
        // ended.  Seeks and writes break the streak.
        let readahead = if sp.pos == sp.last_read_end {
            READAHEAD_BLOCKS
        } else {
            0
        };
        let out = self.object_read_ahead(handle, &file, sp.pos, len, readahead)?;
        sp.pos += out.len() as u64;
        sp.last_read_end = sp.pos;
        Ok(out)
    }

    /// Streaming write at the handle's current offset (or at end-of-file for
    /// append handles), advancing it.  Atomic per handle, like [`Self::read`];
    /// for append handles the end-of-file lookup and the write happen under
    /// one hold of the object lock, so appends through different handles
    /// never land on the same offset.
    pub fn write(&self, handle: VfsHandle, data: &[u8]) -> VfsResult<()> {
        let file = self.table.get(handle)?;
        if !file.write {
            return Err(VfsError::NotWritable);
        }
        let mut sp = file.offset.lock();
        let at = if file.append {
            WriteOffset::End
        } else {
            WriteOffset::At(sp.pos)
        };
        sp.pos = self.object_write(handle, &file, at, data)?;
        // A write through the handle ends any read streak.
        sp.last_read_end = u64::MAX;
        Ok(())
    }

    /// Reposition the handle's stream offset; returns the new offset.
    /// Seeking past end-of-file is allowed (a later write zero-fills the
    /// gap, as on POSIX).  Takes only the per-handle offset lock — a parked
    /// streaming handle elsewhere in the table never delays a seek here.
    pub fn seek(&self, handle: VfsHandle, pos: SeekFrom) -> VfsResult<u64> {
        let file = self.table.get(handle)?;
        let mut sp = file.offset.lock();
        let base: i128 = match pos {
            SeekFrom::Start(_) => 0,
            SeekFrom::Current(_) => sp.pos as i128,
            SeekFrom::End(_) => self.target_size(handle, &file)? as i128,
        };
        let delta: i128 = match pos {
            SeekFrom::Start(n) => n as i128,
            SeekFrom::Current(n) | SeekFrom::End(n) => n as i128,
        };
        let target = base + delta;
        if !(0..=u64::MAX as i128).contains(&target) {
            return Err(VfsError::Unsupported(format!(
                "seek to negative or overflowing offset {target}"
            )));
        }
        sp.pos = target as u64;
        // Repositioning breaks the sequential streak (a seek back to the
        // streak's end re-arms on the next read anyway).
        if sp.pos != sp.last_read_end {
            sp.last_read_end = u64::MAX;
        }
        Ok(target as u64)
    }

    /// Set the file's length, truncating or zero-extending.
    pub fn truncate(&self, handle: VfsHandle, new_len: u64) -> VfsResult<()> {
        let file = self.table.get(handle)?;
        if !file.write {
            return Err(VfsError::NotWritable);
        }
        let obj = &file.object;
        let mut io = obj.io.lock();
        if obj.is_dead() {
            return Err(VfsError::BadHandle(handle.0));
        }
        match &mut *io {
            TargetState::Plain { inode } => plain_rewrite(&self.fs, *inode, new_len, None),
            TargetState::Hidden { handle: h } => Ok(self.fs.truncate_handle(h, new_len)?),
        }
    }

    /// Current size of the file behind `handle`.
    pub fn handle_size(&self, handle: VfsHandle) -> VfsResult<u64> {
        let file = self.table.get(handle)?;
        self.target_size(handle, &file)
    }

    // ------------------------------------------------------------------
    // Internal I/O plumbing
    // ------------------------------------------------------------------

    fn object_read(
        &self,
        handle: VfsHandle,
        file: &OpenFile,
        offset: u64,
        len: usize,
    ) -> VfsResult<Vec<u8>> {
        self.object_read_ahead(handle, file, offset, len, 0)
    }

    /// [`Self::object_read`] with a readahead hint for hidden objects: the
    /// hinted blocks past the range ride the same batched submission into
    /// the plaintext cache.  Plain files already sit behind the buffer
    /// cache, so the hint only applies to the hidden path.
    fn object_read_ahead(
        &self,
        handle: VfsHandle,
        file: &OpenFile,
        offset: u64,
        len: usize,
        readahead: usize,
    ) -> VfsResult<Vec<u8>> {
        let obj = &file.object;
        let io = obj.io.lock();
        if obj.is_dead() {
            return Err(VfsError::BadHandle(handle.0));
        }
        match &*io {
            TargetState::Plain { inode } => {
                Ok(self.fs.plain_fs().read_inode_range(*inode, offset, len)?)
            }
            TargetState::Hidden { handle: h } => Ok(self
                .fs
                .read_range_at_with_readahead(h, offset, len, readahead)?),
        }
    }

    /// Perform a write under one hold of the object lock, resolving
    /// [`WriteOffset::End`] against the size *inside* that hold (append
    /// atomicity across handles).  Returns the end position of the write,
    /// which streaming callers adopt as the new stream offset.
    fn object_write(
        &self,
        handle: VfsHandle,
        file: &OpenFile,
        at: WriteOffset,
        data: &[u8],
    ) -> VfsResult<u64> {
        let obj = &file.object;
        let mut io = obj.io.lock();
        if obj.is_dead() {
            return Err(VfsError::BadHandle(handle.0));
        }
        match &mut *io {
            TargetState::Plain { inode } => {
                let inode = *inode;
                let size = self.fs.plain_fs().inode_file_size(inode)?;
                let offset = match at {
                    WriteOffset::At(o) => o,
                    WriteOffset::End => size,
                };
                if data.is_empty() {
                    return Ok(offset);
                }
                let end = offset
                    .checked_add(data.len() as u64)
                    .ok_or(stegfs_core::StegError::NoSpace)?;
                if end <= size {
                    // In place: no reallocation, no rewrite.
                    self.fs.plain_fs().write_inode_range(inode, offset, data)?;
                } else {
                    plain_rewrite(&self.fs, inode, end, Some((offset, data)))?;
                }
                Ok(end)
            }
            TargetState::Hidden { handle: h } => {
                let offset = match at {
                    WriteOffset::At(o) => o,
                    WriteOffset::End => h.size(),
                };
                if data.is_empty() {
                    return Ok(offset);
                }
                self.fs.write_at_handle(h, offset, data)?;
                Ok(offset + data.len() as u64)
            }
        }
    }

    fn target_size(&self, handle: VfsHandle, file: &OpenFile) -> VfsResult<u64> {
        let obj = &file.object;
        let io = obj.io.lock();
        if obj.is_dead() {
            return Err(VfsError::BadHandle(handle.0));
        }
        match &*io {
            TargetState::Plain { inode } => Ok(self.fs.plain_fs().inode_file_size(*inode)?),
            TargetState::Hidden { handle: h } => Ok(h.size()),
        }
    }
}

// ----------------------------------------------------------------------
// Free helpers
// ----------------------------------------------------------------------

/// The one read-resize-splice-rewrite implementation for plain files, shared
/// by extending writes and truncate.  Refuses lengths beyond the volume's
/// capacity *before* materialising anything, so a seek to 1 TB followed by a
/// 1-byte write reports `NoSpace` instead of attempting a 1 TB allocation.
/// Callers hold the object lock of the inode, which serialises the
/// read-modify-write.
fn plain_rewrite<D: BlockDevice>(
    fs: &StegFs<D>,
    inode: InodeId,
    new_len: u64,
    patch: Option<(u64, &[u8])>,
) -> VfsResult<()> {
    let sb = fs.plain_fs().superblock();
    let capacity = sb.total_blocks * sb.block_size as u64;
    if new_len > capacity {
        return Err(stegfs_core::StegError::NoSpace.into());
    }
    let size = fs.plain_fs().inode_file_size(inode)?;
    let mut contents = fs.plain_fs().read_inode_range(inode, 0, size as usize)?;
    contents.resize(new_len as usize, 0);
    if let Some((offset, data)) = patch {
        contents[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }
    fs.plain_fs().write_inode_file(inode, &contents)?;
    Ok(())
}

fn plain_kind(kind: FileKind, path: &str) -> VfsResult<NodeKind> {
    match kind {
        FileKind::Directory => Ok(NodeKind::Directory),
        FileKind::File => Ok(NodeKind::File),
        _ => Err(VfsError::InvalidPath(path.to_string())),
    }
}

fn object_kind(kind: ObjectKind) -> NodeKind {
    match kind {
        ObjectKind::Directory => NodeKind::Directory,
        ObjectKind::File => NodeKind::File,
    }
}
