//! The [`StegFs`] facade: the user-facing steganographic file system.
//!
//! `StegFs` combines the plain file system (central directory, bitmap), the
//! hidden-object engine, the UAK/FAK key hierarchy, sharing and backup into
//! the API of Section 4 of the paper.  Plain files live on the underlying
//! [`PlainFs`] ([`StegFs::plain_fs`]); hidden objects are reachable only
//! with the right keys.  Connecting objects to a user's session is the
//! `stegfs-vfs` front-end's job.
//!
//! # One hidden namespace
//!
//! A user's UAK directory and every hidden directory hold the same
//! (name, physical name, FAK) listing, which a connect walks as one tree.
//! So the namespace operations are written once, over a [`Parent`]:
//! [`StegFs::create`], [`StegFs::rename`], [`StegFs::remove`] and
//! [`StegFs::list`].  Only `Parent` and the two listing helpers beside it
//! know how the levels differ: which guard covers the listing, how it
//! loads (a UAK directory not created yet reads as empty) and saves (a
//! hidden directory mirrors its listing into a shadow listing), and how a
//! child's physical name is formed.  The paper's calls (`steg_create`, `steg_hide`,
//! `steg_addentry`, ...) are the top-level cases of the same code.
//!
//! # Concurrency
//!
//! Every hot-path operation takes `&self`; the volume can sit behind a plain
//! `Arc` and serve any number of threads.  Internally the state is split into
//! independently locked shards:
//!
//! * the [`PlainFs`] underneath brings its own sharding (allocator lock,
//!   namespace lock, per-inode stripes, device lock);
//! * **UAK shards** serialise read-modify-write cycles on one User Access
//!   Key's directory, so two users (or two threads of one user) cannot lose
//!   each other's create / remove / rename;
//! * **object shards** serialise operations on one hidden object (keyed by
//!   its physical name), so a rewrite that relocates blocks through the free
//!   pool cannot interleave with another rewrite of the same object; a
//!   hidden directory's shard also guards its listing;
//! * the FAK generator and the RNG have their own tiny locks and are never
//!   held across I/O;
//! * the read cache's locks (shards, scope table, derived-key map) sit below
//!   everything here and are never held across I/O or a key derivation.
//!
//! Each mutating operation is one [`FsTxn`], begun before any of these
//! guards (it holds no lock until it commits) and committed once, inside
//! the guards that cover its publish.  The two conversions between the
//! namespaces, [`StegFs::steg_hide`] and [`StegFs::steg_unhide`], stage
//! their plain half in the same transaction ([`FsTxn::delete`],
//! [`FsTxn::write_file`]), holding the plain namespace under their hidden
//! guards across the one commit.  The format's volume config and
//! [`StegFs::steg_recovery`]'s plain files commit on their own: neither
//! is an operation a crash must leave old or new (a crashed format or
//! recovery is redone from the start), and joining them to the
//! surrounding transactions would move every journaled image pin.
//!
//! Lock order: the table in [`stegfs_obs::lock`].  The derivation a
//! derived-key cache miss pays ([`StegFs::keys_for`]) runs with that lock
//! released, and a listing's keys are fetched *before* its guard is taken,
//! so the guard is held for a cached listing read, not for hashing.
//!
//! The handle-based operations ([`StegFs::read_range_at`],
//! [`StegFs::write_at_handle`], [`StegFs::truncate_handle`]) deliberately
//! take no object shard: a [`HiddenHandle`] caches the object's block map,
//! so the *caller* owns serialisation per handle target.  The `stegfs-vfs`
//! front-end does exactly that with one lock per open object;
//! single-threaded users need nothing.

use crate::backup::{BackupImage, PlainEntry};
use crate::blockmap::{BlockMap, Class};
use crate::coding::Policy;
use crate::crypt::ObjectKeys;
use crate::error::{StegError, StegResult};
use crate::header::ObjectKind;
use crate::hidden::{HiddenObject, ObjectIo, RepairOutcome};
use crate::keys::{DirectoryEntry, UakDirectory, FAK_LEN, UAK_DIRECTORY_NAME};
use crate::params::StegParams;
use crate::readcache::{CacheStats, ReadCache};
use crate::sharing::ShareEnvelope;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::prng::DeterministicRng;
use stegfs_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use stegfs_crypto::sha256::sha256_concat;
use stegfs_fs::{AllocPolicy, FileKind, Fill, FormatOptions, FsTxn, PlainFs};
use stegfs_obs::lock::{Mutex, MutexGuard};
use stegfs_obs::{span, Obs};

/// Path of the plain configuration file holding the (non-secret) volume
/// statistics: abandoned-block count, dummy-file parameters and the dummy
/// seed.  Dummy files are maintained by the file system itself, so — as the
/// paper notes — they are visible to an administrator-level attacker; the
/// untraceable abandoned blocks exist precisely to cover that case.
pub const CONFIG_PATH: &str = "/.stegfs";

const CONFIG_MAGIC: &[u8; 8] = b"STEGCFG1";

/// Number of UAK-directory shard locks.
const UAK_SHARDS: usize = 16;

/// Number of hidden-object shard locks.
const OBJECT_SHARDS: usize = 64;

/// Aggregate block accounting of a mounted volume, used by the
/// space-utilization experiments (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceReport {
    /// Block size in bytes.
    pub block_size: usize,
    /// Total number of blocks in the volume.
    pub total_blocks: u64,
    /// Blocks holding the superblock, bitmap and inode table.
    pub metadata_blocks: u64,
    /// Blocks referenced by the central directory (plain files, directories
    /// and their indirect blocks).
    pub plain_blocks: u64,
    /// Blocks abandoned at format time (count recorded then; the blocks
    /// themselves are untraceable by design).
    pub abandoned_blocks: u64,
    /// Allocated blocks not accounted for by any of the above: hidden
    /// objects, dummy files and their internal free pools.
    pub hidden_blocks: u64,
    /// Free blocks.
    pub free_blocks: u64,
}

impl SpaceReport {
    /// Fraction of the volume still available for new data.
    pub fn free_fraction(&self) -> f64 {
        self.free_blocks as f64 / self.total_blocks as f64
    }
}

#[derive(Default)]
struct VolumeConfig {
    abandoned_count: u64,
    dummy_seed: u64,
    dummy_count: u32,
    dummy_size: u64,
}

impl VolumeConfig {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36);
        out.extend_from_slice(CONFIG_MAGIC);
        out.extend_from_slice(&self.abandoned_count.to_be_bytes());
        out.extend_from_slice(&self.dummy_seed.to_be_bytes());
        out.extend_from_slice(&self.dummy_count.to_be_bytes());
        out.extend_from_slice(&self.dummy_size.to_be_bytes());
        out
    }

    fn deserialize(data: &[u8]) -> Option<Self> {
        if data.len() < 36 || &data[..8] != CONFIG_MAGIC {
            return None;
        }
        Some(VolumeConfig {
            abandoned_count: u64::from_be_bytes(data[8..16].try_into().ok()?),
            dummy_seed: u64::from_be_bytes(data[16..24].try_into().ok()?),
            dummy_count: u32::from_be_bytes(data[24..28].try_into().ok()?),
            dummy_size: u64::from_be_bytes(data[28..36].try_into().ok()?),
        })
    }

    /// The config at [`CONFIG_PATH`], as mount and recovery read it: a
    /// missing file is an empty config, and any other failure fails.
    fn load<D: BlockDevice>(fs: &PlainFs<D>) -> StegResult<Self> {
        match fs.read_file(CONFIG_PATH) {
            Ok(data) => Self::deserialize(&data).ok_or_else(|| {
                let msg = "unreadable StegFS configuration file".into();
                StegError::Fs(stegfs_fs::FsError::Corrupt(msg))
            }),
            Err(e) if e.is_not_found() => Ok(Self::default()),
            Err(e) => Err(e.into()),
        }
    }
}

/// An open hidden file: the result of [`StegFs::open_hidden`], giving
/// repeated positional access without re-running the locator.
pub struct HiddenHandle {
    /// User-visible object name the handle was opened under.
    pub name: String,
    keys: Arc<ObjectKeys>,
    object: HiddenObject,
}

impl HiddenHandle {
    /// Current size in bytes of the object behind this handle.
    pub fn size(&self) -> u64 {
        self.object.size()
    }

    /// File or directory.
    pub fn kind(&self) -> ObjectKind {
        self.object.kind()
    }
}

/// What one [`StegFs::rebuild_dir_from_shadow`] rebuild accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirRebuild {
    /// Children from the shadow listing whose objects still probe and were
    /// re-linked into the rebuilt directory.
    pub children_relinked: usize,
    /// Names of children whose own objects no longer open; they are dropped
    /// from the rebuilt listing rather than left as dangling entries.
    pub children_dropped: Vec<String>,
}

fn shard_index(key: &str, len: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % len
}

fn require_kind(name: &str, actual: ObjectKind, expected: ObjectKind) -> StegResult<()> {
    if actual == expected {
        return Ok(());
    }
    Err(StegError::WrongObjectKind {
        name: name.to_string(),
        expected,
    })
}

/// The one name rule of a listing entry at every level, shared by create
/// and rename: not empty, no `\0`, no `\u{1}` (it separates a directory's
/// physical name from its shadow listing's, [`StegFs::shadow_identity`])
/// and no `/` (it separates the levels of a child's physical name: a
/// top-level `a/b` would be unreachable through `/hidden` paths and share
/// its physical name with child `b` of `a`).
fn check_child_name(name: &str) -> StegResult<()> {
    if name.is_empty() || name.contains(['\0', '\u{1}', '/']) {
        return Err(StegError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// A listing as stored in a directory object: a never-written (empty) object
/// is an empty listing.
pub(crate) fn parse_listing(raw: &[u8]) -> StegResult<UakDirectory> {
    if raw.is_empty() {
        Ok(UakDirectory::new())
    } else {
        UakDirectory::deserialize(raw)
    }
}

/// Where a listing lives: the UAK directory of a user's key, or a hidden
/// directory resolved at any depth.  The namespace operations
/// ([`StegFs::create`], [`StegFs::rename`], [`StegFs::remove`],
/// [`StegFs::list`]) take one and are blind to which; every difference
/// between the levels lives in this type's methods and in the facade's
/// two listing helpers (`lock_listing`: guard and load; `commit_listing`:
/// save).
#[derive(Debug, Clone, Copy)]
pub enum Parent<'a> {
    /// The top level of the namespace of this User Access Key.
    Uak(&'a str),
    /// A hidden directory, as the listing above it names it.
    Dir(&'a DirectoryEntry),
}

/// The child of a [`Parent`] that [`StegFs::remove`] names: whatever the
/// listing holds under a name (a `str`), or exactly the object an entry
/// resolved earlier names (`DirectoryEntry`), which the listing no longer
/// matches once another object took that name.
pub trait Child {
    /// The name the child is listed under.
    fn name(&self) -> &str;
    /// Whether `listed`, the listing's entry under that name, is this child.
    fn is(&self, listed: &DirectoryEntry) -> bool;
}

impl<T: AsRef<str> + ?Sized> Child for T {
    fn name(&self) -> &str {
        self.as_ref()
    }

    fn is(&self, _: &DirectoryEntry) -> bool {
        true
    }
}

impl Child for DirectoryEntry {
    fn name(&self) -> &str {
        &self.name
    }

    fn is(&self, listed: &DirectoryEntry) -> bool {
        listed == self
    }
}

impl Parent<'_> {
    /// The physical name of the child `name`: the owner's tag and the name
    /// at top level, the parent's physical name and the name below it, so
    /// offspring at every level resolve from the listing chain alone.
    fn child_physical_name(&self, name: &str) -> String {
        match self {
            Parent::Uak(uak) => {
                let digest = sha256_concat(&[b"stegfs-owner-tag", uak.as_bytes()]);
                let tag: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
                format!("{tag}:{name}")
            }
            Parent::Dir(dir) => format!("{}/{name}", dir.physical_name),
        }
    }

    /// The object shard the listing's guard holds; a UAK directory's guard
    /// is a UAK shard.
    fn object_shard(&self) -> Option<usize> {
        match self {
            Parent::Uak(_) => None,
            Parent::Dir(dir) => Some(shard_index(&dir.physical_name, OBJECT_SHARDS)),
        }
    }
}

/// A listing loaded under the guard that covers it, with the object that
/// stores it (none for a UAK directory not created yet) and its keys.
struct Listing<'s> {
    entries: UakDirectory,
    object: Option<HiddenObject>,
    keys: Arc<ObjectKeys>,
    _guard: MutexGuard<'s, ()>,
}

/// A mounted StegFS volume.
pub struct StegFs<D: BlockDevice> {
    fs: PlainFs<D>,
    params: StegParams,
    rng: Mutex<DeterministicRng>,
    fak_counter: AtomicU64,
    config: VolumeConfig,
    uak_locks: Vec<Mutex<()>>,
    /// One listing generation per UAK shard, moved by every commit that
    /// unbinds a name in a UAK listing of that shard
    /// ([`Self::listing_generation`]).
    listing_gens: Vec<AtomicU64>,
    object_locks: Vec<Mutex<()>>,
    /// RAM-only read-path cache (headers, extent maps, decrypted blocks).
    /// Every mutating method invalidates the object it touched; sign-off
    /// purges the departing session's scope, unmount purges everything.
    /// See [`crate::readcache`] for the contract.
    read_cache: ReadCache,
    /// Volume-wide observability registry (RAM only, deniability-safe —
    /// see `stegfs-obs`).  Shared with every layer underneath and handed
    /// to the VFS/engine above.
    obs: Arc<Obs>,
}

impl<D: BlockDevice> StegFs<D> {
    // ------------------------------------------------------------------
    // Format / mount / unmount
    // ------------------------------------------------------------------

    fn assemble(mut fs: PlainFs<D>, params: StegParams, config: VolumeConfig) -> Self {
        let obs = Obs::new();
        fs.attach_obs(&obs);
        let mut read_cache = ReadCache::new(params.readpath_cache_blocks);
        read_cache.set_obs(obs.readcache.clone());
        StegFs {
            fs,
            rng: Mutex::new(DeterministicRng::new(&params.volume_seed.to_be_bytes())),
            fak_counter: AtomicU64::new(0),
            config,
            read_cache,
            params,
            uak_locks: (0..UAK_SHARDS)
                .map(|_| Mutex::with_stats((), obs.uak_shards.clone()))
                .collect(),
            listing_gens: (0..UAK_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            object_locks: (0..OBJECT_SHARDS)
                .map(|_| Mutex::with_stats((), obs.object_shards.clone()))
                .collect(),
            obs,
        }
    }

    /// Format `dev` as a StegFS volume: random fill (if enabled), abandoned
    /// blocks, dummy hidden files and the configuration file.  With
    /// [`StegParams::journal_blocks`] set, the volume reserves a write-ahead
    /// journal and every subsequent multi-block update is crash-atomic.
    pub fn format(dev: D, params: StegParams) -> StegResult<Self> {
        params.validate()?;
        if params.journal_blocks > 0 {
            // The journal ring must hold the largest single update this
            // configuration will produce — a dummy-file rewrite — plus its
            // intent/commit overhead, using the journal crate's own slot
            // arithmetic, with headroom for the anchors and a few
            // concurrent committers.
            let bs = dev.block_size();
            let dummy_blocks = params.dummy_file_size.div_ceil(bs.max(1) as u64) as usize;
            let chain_cap = crate::header::InodeChainBlock::capacity(bs, false, 1).max(1);
            // Targets: data blocks + chain blocks + header + a margin of
            // bitmap blocks.
            let targets = dummy_blocks + dummy_blocks.div_ceil(chain_cap) + 1 + 4;
            let needed =
                stegfs_journal::record::slots_for(targets, bs) + stegfs_journal::ANCHOR_SLOTS + 8;
            if params.journal_blocks < needed {
                return Err(StegError::InvalidParameter(format!(
                    "journal of {} blocks cannot hold a {}-byte dummy-file rewrite \
                     (needs at least {} blocks at block size {})",
                    params.journal_blocks, params.dummy_file_size, needed, bs
                )));
            }
        }
        let fs = PlainFs::format(
            dev,
            FormatOptions {
                fill_random: params.random_fill,
                seed: params.volume_seed,
                policy: AllocPolicy::FirstFit,
                inode_count: None,
                journal_blocks: params.journal_blocks,
            },
        )?;

        let config = VolumeConfig {
            abandoned_count: 0,
            dummy_seed: params.volume_seed ^ 0x0064_756d_6d79_u64,
            dummy_count: params.dummy_file_count as u32,
            dummy_size: params.dummy_file_size,
        };
        let mut stegfs = Self::assemble(fs, params, config);

        stegfs.config.abandoned_count = stegfs.create_abandoned_blocks()?;
        stegfs.create_dummy_files()?;
        stegfs.store_config()?;
        stegfs.fs.sync()?;
        Ok(stegfs)
    }

    /// Mount an existing StegFS volume.  `params.volume_seed` only influences
    /// the generation of *new* FAKs during this mount; existing objects are
    /// found through their keys alone.
    pub fn mount(dev: D, params: StegParams) -> StegResult<Self> {
        params.validate()?;
        let fs = PlainFs::mount(dev, AllocPolicy::FirstFit, params.volume_seed)?;
        let config = VolumeConfig::load(&fs)?;
        Ok(Self::assemble(fs, params, config))
    }

    /// Flush all state and return the underlying device.  The registry's
    /// captured span trees (worst-N and chrome-trace) are zeroized like the
    /// read cache, so an [`Arc<Obs>`] kept past unmount holds no request
    /// tree; its counters and histograms stay readable.
    pub fn unmount(self) -> StegResult<D> {
        self.read_cache.purge();
        self.obs.slow.zeroize();
        self.obs.capture.zeroize();
        Ok(self.fs.unmount()?)
    }

    /// Counters of the RAM-only read-path cache, surfaced next to the
    /// device-level `DeviceStats` by the benches.
    pub fn cache_stats(&self) -> CacheStats {
        self.read_cache.stats()
    }

    /// Drop and zero every cached decrypted byte (headers, extent maps and
    /// plaintext blocks), volume-wide, so the next read of anything comes
    /// from the device.  Derived key sets stay connected: they hold no
    /// decrypted byte and die with their session
    /// ([`Self::purge_session_caches`]), at [`Self::disconnect_all`] and at
    /// [`Self::unmount`], which purge those too.
    pub fn purge_read_caches(&self) {
        self.read_cache.purge_decrypted();
    }

    /// Drop and zero the cached decrypted state a departing session could
    /// reach through `uak`: every cache entry — derived key sets included —
    /// resolved through this key, plus any entry whose owning session was
    /// never established, is swept, while entries other live sessions
    /// loaded through their own keys stay warm.  The VFS calls this on
    /// every sign-off.
    pub fn purge_session_caches(&self, uak: &str) {
        self.read_cache.purge_scope(Self::session_scope(uak));
    }

    /// The paper's logoff, for the whole volume: no one is left who may
    /// read cached plaintext, so every read cache — derived key sets
    /// included — is purged and zeroed.
    pub fn disconnect_all(&self) {
        self.read_cache.purge();
    }

    /// The volume's observability registry: RAM-only histograms, counters
    /// and captured span trees.  See `stegfs-obs` for the deniability
    /// contract (static shapes, no key-derived values, nothing persisted).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Flush metadata to the device without unmounting.
    pub fn sync(&self) -> StegResult<()> {
        Ok(self.fs.sync()?)
    }

    /// Durability barrier for `fsync`-grade callers: on a journaled volume
    /// this flushes only the staged journal slots needed to cover every
    /// commit so far (no checkpoint, no reclaim), so one busy object's
    /// `fsync` does not pay for checkpointing the whole ring.  On an
    /// unjournaled volume it degrades to a full [`Self::sync`].
    pub fn fsync_barrier(&self) -> StegResult<()> {
        Ok(self.fs.flush_barrier()?)
    }

    /// Start the background checkpoint daemon: on a journaled volume, a
    /// thread that advances the journal tail and checksummed anchors off
    /// the commit path (see `PlainFs::start_checkpoint_daemon`).  A caller
    /// that wants it starts it after format or mount, before handing the
    /// volume to a front-end; [`Self::unmount`] drains and stops it.  No-op
    /// without a journal or when already running.
    pub fn start_checkpoint_daemon(&mut self)
    where
        D: Send + Sync + 'static,
    {
        self.fs.start_checkpoint_daemon();
    }

    /// True when the background checkpoint daemon is running.
    pub fn checkpoint_daemon_running(&self) -> bool {
        self.fs.checkpoint_daemon_running()
    }

    /// Stop the checkpoint daemon; with `drain` it checkpoints once more
    /// before exiting.  `drain = false` models a killed process (crash
    /// tests).
    pub fn stop_checkpoint_daemon(&self, drain: bool) {
        self.fs.stop_checkpoint_daemon(drain);
    }

    /// The volume parameters.
    pub fn params(&self) -> &StegParams {
        &self.params
    }

    /// Direct access to the plain file-system layer (used by the experiment
    /// harness, the VFS front-end and tests).  The plain layer's own API is
    /// fully shared-reference, so no `&mut` variant is needed any more.
    pub fn plain_fs(&self) -> &PlainFs<D> {
        &self.fs
    }

    /// The I/O context of the object `keys` belongs to, served through the
    /// volume's read cache.
    fn io<'k>(&self, keys: &'k ObjectKeys) -> ObjectIo<'_, 'k, D> {
        ObjectIo::new(&self.fs, &self.params, &self.read_cache, keys)
    }

    /// The same context **bypassing the read cache**: every call walks the
    /// locator and the chain on the device.  The maintenance paths in here
    /// use it where a cached snapshot must not vouch for the device (see
    /// [`crate::hidden`]); the experiments and tests outside this crate use
    /// it to inspect an object's blocks.  Mutating a live object through it
    /// bypasses invalidation and is unsupported (see [`crate::readcache`]).
    pub fn object_io<'k>(&self, keys: &'k ObjectKeys) -> ObjectIo<'_, 'k, D> {
        ObjectIo::new(&self.fs, &self.params, ReadCache::disabled(), keys)
    }

    /// Fork an independent byte generator off the volume RNG.  The fork
    /// happens under the RNG lock; the returned generator is then used
    /// without any lock, so long-running writes do not serialise on shared
    /// randomness.
    fn fork_rng(&self) -> DeterministicRng {
        let mut rng = self.rng.lock();
        DeterministicRng::new(&rng.bytes(32))
    }

    fn uak_guard(&self, uak: &str) -> MutexGuard<'_, ()> {
        // The span covers only the acquisition: `uak_shard` attribution is
        // time *blocked* on the shard, not time holding it (the held work
        // shows up as its own phases).
        let _s = span::span(span::Phase::UakShard);
        self.uak_locks[shard_index(uak, self.uak_locks.len())].lock()
    }

    fn object_guard(&self, physical: &str) -> MutexGuard<'_, ()> {
        self.object_guard_at(shard_index(physical, self.object_locks.len()))
    }

    fn object_guard_at(&self, idx: usize) -> MutexGuard<'_, ()> {
        let _s = span::span(span::Phase::ObjectShard);
        self.object_locks[idx].lock()
    }

    /// Opaque cache-scope id of a session: a keyed digest of the UAK, so the
    /// scope table never holds key material, ORed with 1 so 0 stays the
    /// "unscoped" sentinel.
    fn session_scope(uak: &str) -> u64 {
        let digest = sha256_concat(&[b"stegfs-cache-scope", uak.as_bytes()]);
        u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) | 1
    }

    /// The derived key set of the object `(physical_name, fak)` names.
    ///
    /// The paper's `steg_connect` resolves an object's keys once and keeps
    /// them until logoff; this is that: the first call per mount pays the
    /// pass-phrase derivation (≈ 0.6 ms), later calls share the cached
    /// `Arc` until the owning session signs off, the pair stops naming the
    /// object (unlink, rename, re-key) or the volume unmounts.  Nothing is
    /// learned or remembered about whether the pair names a live object, so
    /// a wrong key costs exactly what a never-created name does.  With
    /// `readpath_cache_blocks: 0` nothing is retained and every call
    /// derives.
    pub fn keys_for(&self, physical_name: &str, fak: &[u8]) -> Arc<ObjectKeys> {
        self.read_cache.keys_for(physical_name, fak)
    }

    /// Drop everything cached for an object whose `(physical name, FAK)`
    /// binding changes or dies in `txn` (unlink, rename, re-key): header,
    /// extents, plaintext and the derived key set.  Now (a failure may tear
    /// an unjournaled object), counted as one invalidation, and swept again
    /// when `txn` commits, which is the same mutation.
    fn forget_object<'s>(
        &'s self,
        txn: &mut FsTxn<'s, D>,
        entry: &DirectoryEntry,
        keys: &ObjectKeys,
    ) {
        let (entry, sig) = (entry.clone(), *keys.signature());
        self.read_cache.invalidate(&sig);
        self.read_cache.drop_keys(&entry.physical_name, &entry.fak);
        txn.on_commit(move || {
            self.read_cache.sweep(&sig);
            self.read_cache.drop_keys(&entry.physical_name, &entry.fak);
        });
    }

    fn store_config(&self) -> StegResult<()> {
        let bytes = self.config.serialize();
        self.fs.write_file(CONFIG_PATH, &bytes)?;
        Ok(())
    }

    /// Blocks abandoned at format time, as the volume config records them.
    pub(crate) fn abandoned_count(&self) -> u64 {
        self.config.abandoned_count
    }

    /// Dummy files the volume config records.
    pub(crate) fn dummy_count(&self) -> u32 {
        self.config.dummy_count
    }

    // ------------------------------------------------------------------
    // Format-time camouflage: abandoned blocks and dummy files
    // ------------------------------------------------------------------

    fn create_abandoned_blocks(&self) -> StegResult<u64> {
        let data_blocks = self.fs.data_blocks();
        let target = (data_blocks as f64 * self.params.abandoned_pct / 100.0).round() as u64;
        let mut created = 0;
        while created < target {
            match self.fs.allocate_random_block() {
                Ok(_) => created += 1,
                Err(stegfs_fs::FsError::NoSpace) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(created)
    }

    pub(crate) fn dummy_identity(&self, index: u32) -> (String, [u8; FAK_LEN]) {
        let name = format!("stegfs:dummy-{index}");
        let fak = sha256_concat(&[
            b"stegfs-dummy-fak",
            &self.config.dummy_seed.to_be_bytes(),
            &index.to_be_bytes(),
        ]);
        (name, fak)
    }

    fn create_dummy_files(&self) -> StegResult<()> {
        for i in 0..self.config.dummy_count {
            let (name, fak) = self.dummy_identity(i);
            let keys = self.keys_for(&name, &fak);
            let io = self.object_io(&keys);
            let mut txn = self.fs.begin_txn();
            let mut obj = io.create(&mut txn, &name, ObjectKind::File, Policy::Plain)?;
            let mut rng = self.fork_rng();
            let content = rng.bytes(self.config.dummy_size.min(usize::MAX as u64) as usize);
            io.write(&mut txn, &mut obj, &content, &mut rng)?;
            txn.commit()?;
        }
        Ok(())
    }

    /// Rewrite every dummy hidden file with fresh content.  The paper's
    /// driver does this periodically so that bitmap changes between snapshots
    /// cannot be attributed to real hidden files.  No session reads dummies
    /// back, so the whole refresh bypasses the read cache.
    pub fn touch_dummy_files(&self) -> StegResult<usize> {
        let mut touched = 0;
        for i in 0..self.config.dummy_count {
            let (name, fak) = self.dummy_identity(i);
            let keys = self.keys_for(&name, &fak);
            let mut txn = self.fs.begin_txn();
            let _obj_lock = self.object_guard(&name);
            let io = self.object_io(&keys);
            let mut obj = match io.open(&name) {
                Ok(o) => o,
                Err(StegError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            let mut rng = self.fork_rng();
            let content = rng.bytes(self.config.dummy_size as usize);
            io.write(&mut txn, &mut obj, &content, &mut rng)?;
            txn.commit()?;
            touched += 1;
        }
        Ok(touched)
    }

    // ------------------------------------------------------------------
    // The hidden namespace: one listing shape at every level
    // ------------------------------------------------------------------

    /// Key set of `uak`'s directory object, scoped to the session: sign-off
    /// sweeps it along with everything the directory walk caches.
    fn uak_keys(&self, uak: &str) -> Arc<ObjectKeys> {
        let keys = self.keys_for(UAK_DIRECTORY_NAME, uak.as_bytes());
        self.read_cache
            .tag_scope(keys.signature(), Self::session_scope(uak));
        keys
    }

    /// Load `parent`'s listing under the guard that covers it: `uak`'s
    /// shard, or the directory's object shard.  The keys are fetched before
    /// the guard, so a first-use derivation never runs under it.  Listings
    /// are the hottest read path of all (every name lookup walks one), so
    /// they go through the read cache like any other object;
    /// [`Self::commit_listing`] invalidates.  A UAK directory not created
    /// yet reads as empty; a hidden directory that does not open fails.
    fn lock_listing(&self, parent: Parent<'_>) -> StegResult<Listing<'_>> {
        let (keys, name, _guard) = match parent {
            Parent::Uak(uak) => (self.uak_keys(uak), UAK_DIRECTORY_NAME, self.uak_guard(uak)),
            Parent::Dir(dir) => {
                require_kind(&dir.name, dir.kind, ObjectKind::Directory)?;
                let keys = self.keys_for(&dir.physical_name, &dir.fak);
                let guard = self.object_guard(&dir.physical_name);
                (keys, dir.physical_name.as_str(), guard)
            }
        };
        let io = self.io(&keys);
        let (entries, object) = match io.open(name) {
            Ok(obj) => (parse_listing(&io.read(&obj)?)?, Some(obj)),
            Err(StegError::NotFound(_)) if matches!(parent, Parent::Uak(_)) => {
                (UakDirectory::new(), None)
            }
            Err(e) => return Err(e),
        };
        Ok(Listing {
            entries,
            object,
            keys,
            _guard,
        })
    }

    /// Stage `listing` in `txn`; the caller commits with the listing's
    /// guard still held.  A UAK directory is created on first use, plain
    /// and with no shadow; a hidden directory's listing is mirrored into
    /// its shadow listing ([`Self::save_shadow_listing`]).  The listing was
    /// just read through the cache, so the rewrite's chain walk is served
    /// from its warm extent map.
    fn save_listing<'s>(
        &'s self,
        txn: &mut FsTxn<'s, D>,
        parent: Parent<'_>,
        listing: &mut Listing<'_>,
    ) -> StegResult<()> {
        let io = self.io(&listing.keys);
        let mut obj = match listing.object.take() {
            Some(obj) => obj,
            None => io.create(
                txn,
                UAK_DIRECTORY_NAME,
                ObjectKind::Directory,
                Policy::Plain,
            )?,
        };
        let bytes = listing.entries.serialize();
        io.write(txn, &mut obj, &bytes, &mut self.fork_rng())?;
        listing.object = Some(obj);
        if let Parent::Dir(dir) = parent {
            self.save_shadow_listing(txn, dir, &listing.entries)?;
        }
        Ok(())
    }

    /// The one shape of a namespace operation: under the guard of
    /// `parent`'s listing, `edit` changes the listing and stages the rest
    /// of the operation in `txn` (begun before any guard); the listing is
    /// saved and `txn` commits under the guard.  What `edit` returns
    /// (guards it took, say) lives through the commit.
    fn update_listing<'s, T>(
        &'s self,
        mut txn: FsTxn<'s, D>,
        parent: Parent<'_>,
        edit: impl FnOnce(&mut FsTxn<'s, D>, &mut UakDirectory) -> StegResult<T>,
    ) -> StegResult<T> {
        let mut listing = self.lock_listing(parent)?;
        let out = edit(&mut txn, &mut listing.entries)?;
        self.save_listing(&mut txn, parent, &mut listing)?;
        txn.commit()?;
        Ok(out)
    }

    fn generate_fak(&self, objname: &str) -> [u8; FAK_LEN] {
        let counter = self.fak_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let noise = self.rng.lock().bytes(32);
        sha256_concat(&[
            b"stegfs-fak",
            &noise,
            &counter.to_be_bytes(),
            objname.as_bytes(),
        ])
    }

    /// The generation of `uak`'s listing.  Every commit that unbinds a
    /// name in a UAK listing — a rename, a remove, a re-key — moves the
    /// generation of the listing's shard once it has landed, so a name
    /// resolved through the listing, with the generation read *before* the
    /// walk, still names what the listing binds to it while the generation
    /// reads the same.  A create binds a name that was free, which no
    /// current resolution holds, so it leaves the generation alone.  A
    /// commit to another key's listing in the same shard moves it too:
    /// that costs a holder of a resolution a needless re-walk, never a
    /// stale answer.
    pub fn listing_generation(&self, uak: &str) -> u64 {
        self.listing_gens[shard_index(uak, UAK_SHARDS)].load(Ordering::Acquire)
    }

    /// Move the listing generation of `parent`, where it is a UAK listing,
    /// after a commit that unbinds a name in it, whatever the commit
    /// returned: a failed commit may still have landed.
    fn unbound(&self, parent: Parent<'_>) {
        if let Parent::Uak(uak) = parent {
            self.listing_gens[shard_index(uak, UAK_SHARDS)].fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The listing of `parent`: a key's top-level hidden objects, or a
    /// hidden directory's children.  A key that never created anything
    /// lists nothing, exactly as a wrong key does.
    pub fn list(&self, parent: Parent<'_>) -> StegResult<UakDirectory> {
        Ok(self.lock_listing(parent)?.entries)
    }

    /// Create an empty hidden file or directory `name` in `parent`, under
    /// the volume's default durability policy
    /// ([`StegParams::hidden_policy`](crate::StegParams)).
    pub fn create(&self, parent: Parent<'_>, name: &str, kind: ObjectKind) -> StegResult<()> {
        self.create_with_policy(parent, name, kind, self.params.hidden_policy)
    }

    /// [`Self::create`] under `policy`, in one transaction.  The object is
    /// built before the listing's guard is taken (no other thread sees its
    /// fresh keys), so creates in one listing serialise on its rewrite
    /// only.
    fn create_with_policy(
        &self,
        parent: Parent<'_>,
        name: &str,
        kind: ObjectKind,
        policy: Policy,
    ) -> StegResult<()> {
        let mut txn = self.fs.begin_txn();
        let entry = self.publish(&mut txn, parent, name, kind, policy, None)?;
        self.update_listing(txn, parent, |_, listing| self.bind(listing, entry))
    }

    /// Build the object `name` of `parent` holding `contents` (none: an
    /// empty file, or a directory with an empty listing) in `txn`, and
    /// return the entry that lists it ([`Self::bind`]).
    fn publish<'s>(
        &'s self,
        txn: &mut FsTxn<'s, D>,
        parent: Parent<'_>,
        name: &str,
        kind: ObjectKind,
        policy: Policy,
        contents: Option<&[u8]>,
    ) -> StegResult<DirectoryEntry> {
        check_child_name(name)?;
        let fak = self.generate_fak(name);
        let physical_name = parent.child_physical_name(name);
        let keys = self.keys_for(&physical_name, &fak);
        let io = self.object_io(&keys);
        let mut obj = io.create(txn, &physical_name, kind, policy)?;
        if let Some(data) = contents {
            io.write(txn, &mut obj, data, &mut self.fork_rng())?;
        }
        let name = name.to_string();
        Ok(DirectoryEntry {
            name,
            physical_name,
            fak,
            kind,
        })
    }

    /// List `entry`, an object [`Self::publish`] built, in `listing`.
    /// Losing the name race fails the operation: its transaction drops,
    /// and with it the never-published object's blocks.
    fn bind(&self, listing: &mut UakDirectory, entry: DirectoryEntry) -> StegResult<()> {
        if listing.find(&entry.name).is_some() {
            self.read_cache.drop_keys(&entry.physical_name, &entry.fak);
            return Err(StegError::AlreadyExists(entry.name));
        }
        listing.insert(entry)
    }

    /// Rename the child `old` of `parent` to `new`.  Only the listing entry
    /// changes: the physical name, FAK and every block of the object stay
    /// put, so open handles and outstanding shares of the
    /// `(physical name, FAK)` pair keep working.  Returns the entry as
    /// renamed, as [`Self::remove`] returns the one it removed.
    pub fn rename(&self, parent: Parent<'_>, old: &str, new: &str) -> StegResult<DirectoryEntry> {
        check_child_name(new)?;
        let renamed = self.update_listing(self.fs.begin_txn(), parent, |txn, listing| {
            if listing.find(new).is_some() {
                return Err(StegError::AlreadyExists(new.to_string()));
            }
            let mut entry = listing
                .remove(old)
                .ok_or_else(|| StegError::NotFound(old.to_string()))?;
            entry.name = new.to_string();
            // The object itself is untouched by a rename, but the
            // conservative contract is that *every* namespace mutation
            // invalidates.
            let keys = self.keys_for(&entry.physical_name, &entry.fak);
            self.forget_object(txn, &entry, &keys);
            listing.insert(entry.clone())?;
            Ok(entry)
        });
        self.unbound(parent);
        renamed
    }

    /// Remove the child `child` of `parent` and destroy its object, in one
    /// transaction, returning the removed entry.  `child` is a name, or the
    /// entry a caller resolved before (the VFS, which pins its registry
    /// entry first): when the listing now holds another object under that
    /// name, the remove fails not-found and destroys nothing, so the caller
    /// needs no second walk of the listing to check what it pinned.  A
    /// hidden directory must be empty.
    ///
    /// The child's object shard is held with the listing's guard, so
    /// in-flight I/O on the child drains before its blocks are freed.
    /// Object shards are taken in ascending index order: when the child's
    /// sorts below a hidden directory's own, the directory's guard is
    /// released, the child's shard taken first and the listing loaded
    /// again, until the child listed is one whose shard is held.  A UAK
    /// directory's guard is no object shard, so its removes never retry.
    pub fn remove<C: Child + ?Sized>(
        &self,
        parent: Parent<'_>,
        child: &C,
    ) -> StegResult<DirectoryEntry> {
        let txn = self.fs.begin_txn();
        let (entry, ()) = self.remove_with(txn, parent, child, |_, _| Ok(()))?;
        Ok(entry)
    }

    /// [`Self::remove`] in `txn`, begun by the caller.  Once the listing's
    /// guard and the child's shard are held, `stage` adds to the
    /// transaction, before the child is destroyed; what it returns (guards
    /// it took, say) lives through the commit.
    fn remove_with<'s, C: Child + ?Sized, T>(
        &'s self,
        mut txn: FsTxn<'s, D>,
        parent: Parent<'_>,
        child: &C,
        stage: impl FnOnce(&mut FsTxn<'s, D>, &DirectoryEntry) -> StegResult<T>,
    ) -> StegResult<(DirectoryEntry, T)> {
        let name = child.name();
        let mut early: Option<(usize, MutexGuard<'_, ()>)> = None;
        let (mut listing, child, _child_guard) = loop {
            let listing = self.lock_listing(parent)?;
            let listed = listing.entries.find(name).filter(|e| child.is(e)).cloned();
            let child = listed.ok_or_else(|| StegError::NotFound(name.to_string()))?;
            let idx = shard_index(&child.physical_name, OBJECT_SHARDS);
            match parent.object_shard() {
                _ if early.as_ref().is_some_and(|(held, _)| *held == idx) => {
                    break (listing, child, early)
                }
                // One mutex covers both objects; it is already held.
                Some(own) if idx == own => break (listing, child, None),
                Some(own) if idx < own => {
                    drop((listing, early.take()));
                    early = Some((idx, self.object_guard_at(idx)));
                }
                _ => break (listing, child, Some((idx, self.object_guard_at(idx)))),
            }
        };
        let out = stage(&mut txn, &child)?;
        self.destroy_entry(&mut txn, &child)?;
        listing.entries.remove(name);
        let committed = self.save_listing(&mut txn, parent, &mut listing);
        let committed = committed.and_then(|()| Ok(txn.commit()?));
        self.unbound(parent);
        committed.map(|()| (child, out))
    }

    /// Destroy the object behind `entry` in `txn` (its shard held across
    /// the commit), together with a directory's shadow listing and
    /// everything cached for the dead binding.  The object is opened on the
    /// device, not from the cache, and a hidden directory that still lists
    /// children is refused: destroying it would orphan their blocks forever.
    fn destroy_entry<'s>(
        &'s self,
        txn: &mut FsTxn<'s, D>,
        entry: &DirectoryEntry,
    ) -> StegResult<()> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let io = self.object_io(&keys);
        let obj = io.open(&entry.physical_name)?;
        let is_dir = entry.kind == ObjectKind::Directory;
        if is_dir && !parse_listing(&io.read(&obj)?)?.entries.is_empty() {
            let name = entry.name.clone();
            return Err(StegError::Fs(stegfs_fs::FsError::DirectoryNotEmpty(name)));
        }
        let result = io.delete(txn, &obj, &mut self.fork_rng());
        self.forget_object(txn, entry, &keys);
        result?;
        if is_dir {
            self.save_shadow_listing(txn, entry, &UakDirectory::new())?;
        }
        Ok(())
    }

    /// Identity (physical name, FAK) of a directory's shadow-listing object.
    /// Derived, never stored: `\u{1}` is rejected in object names, so a
    /// shadow's physical name can never collide with a real child's, and the
    /// FAK is domain-separated from the directory's own.
    pub(crate) fn shadow_identity(physical: &str, fak: &[u8; FAK_LEN]) -> (String, [u8; FAK_LEN]) {
        let shadow_physical = format!("{physical}\u{1}shadow");
        let shadow_fak = sha256_concat(&[b"stegfs-shadow-fak", fak]);
        (shadow_physical, shadow_fak)
    }

    /// Upsert the shadow listing of the hidden directory `parent` in `txn`
    /// (created lazily on the first listing mutation), or remove it when
    /// `children` is empty: an empty listing needs no recovery source.  The
    /// shadow is an ordinary hidden object under the volume policy —
    /// indistinguishable on the raw device and reachable only with the
    /// directory's FAK — from which the scavenger rebuilds a directory whose
    /// own metadata is damaged beyond its redundancy
    /// ([`Self::rebuild_dir_from_shadow`]).  A missing shadow is not an
    /// error; any other failure fails the operation.
    fn save_shadow_listing<'s>(
        &'s self,
        txn: &mut FsTxn<'s, D>,
        parent: &DirectoryEntry,
        children: &UakDirectory,
    ) -> StegResult<()> {
        let (shadow_physical, shadow_fak) =
            Self::shadow_identity(&parent.physical_name, &parent.fak);
        let shadow_keys = self.keys_for(&shadow_physical, &shadow_fak);
        let io = self.object_io(&shadow_keys);
        let shadow = match io.open(&shadow_physical) {
            Ok(obj) => Some(obj),
            Err(e) if e.is_not_found() => None,
            Err(e) => return Err(e),
        };
        if children.entries.is_empty() {
            if let Some(obj) = shadow {
                io.delete(txn, &obj, &mut self.fork_rng())?;
            }
            self.read_cache.drop_keys(&shadow_physical, &shadow_fak);
            return Ok(());
        }
        let policy = self.params.hidden_policy;
        let mut obj = match shadow {
            Some(obj) => obj,
            None => io.create(txn, &shadow_physical, ObjectKind::File, policy)?,
        };
        io.write(txn, &mut obj, &children.serialize(), &mut self.fork_rng())
    }

    /// Rebuild a hidden directory whose header/chain damage exceeds its
    /// redundancy, from the directory's shadow listing.  The directory is
    /// re-created **in place** — same physical name and FAK — so entries
    /// held by parents and sessions keep resolving; children whose own
    /// objects no longer probe are dropped from the rebuilt listing and
    /// reported in [`DirRebuild::children_dropped`].
    ///
    /// Refuses (with `AlreadyExists`) to clobber a directory whose listing is
    /// still readable, and fails without touching the volume when the shadow
    /// itself cannot be read (directories predating shadow listings report
    /// `NotFound` here).  Remnant blocks of the old object that its surviving
    /// header no longer reaches stay allocated — a bounded leak,
    /// indistinguishable from abandoned blocks (§3.4).
    ///
    /// Teardown and re-creation are one transaction.  On a journaled volume
    /// the old object's blocks come free only at its commit, so the new
    /// object is placed beside them: its header lands on a later candidate
    /// of the same keyed sequence.
    pub fn rebuild_dir_from_shadow(&self, entry: &DirectoryEntry) -> StegResult<DirRebuild> {
        require_kind(&entry.name, entry.kind, ObjectKind::Directory)?;
        let mut txn = self.fs.begin_txn();
        let _obj_lock = self.object_guard(&entry.physical_name);
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let io = self.object_io(&keys);
        if let Ok(obj) = io.open(&entry.physical_name) {
            if io.read(&obj).is_ok() {
                return Err(StegError::AlreadyExists(entry.name.clone()));
            }
        }

        // Read the recovery source first: no teardown unless the shadow is
        // actually usable.
        let (shadow_physical, shadow_fak) = Self::shadow_identity(&entry.physical_name, &entry.fak);
        let shadow_keys = self.keys_for(&shadow_physical, &shadow_fak);
        let shadow_io = self.object_io(&shadow_keys);
        let listing = parse_listing(&shadow_io.read(&shadow_io.open(&shadow_physical)?)?)?;

        // Re-link only children whose objects still probe under their keys.
        let mut kept = UakDirectory::new();
        let mut dropped = Vec::new();
        for child in listing.entries {
            let child_keys = self.keys_for(&child.physical_name, &child.fak);
            let probes = self.object_io(&child_keys).open(&child.physical_name);
            if probes.is_ok() {
                kept.insert(child)?;
            } else {
                dropped.push(child.name.clone());
            }
        }

        // Tear down whatever is left of the old object.  When even the
        // header is gone there is nothing to free; when the header opens but
        // the chain does not, scrub the header replicas so the re-creation's
        // probes cannot resurrect it.
        let mut rng = self.fork_rng();
        if let Ok(old) = io.open(&entry.physical_name) {
            if io.delete(&mut txn, &old, &mut rng).is_err() {
                io.destroy_unreadable(&mut txn, &old, &mut rng)?;
            }
        }
        self.read_cache.invalidate(keys.signature());

        let (name, kind) = (&entry.physical_name, ObjectKind::Directory);
        let mut obj = io.create(&mut txn, name, kind, self.params.hidden_policy)?;
        io.write(&mut txn, &mut obj, &kept.serialize(), &mut rng)?;
        txn.commit()?;
        Ok(DirRebuild {
            children_relinked: kept.entries.len(),
            children_dropped: dropped,
        })
    }

    // ------------------------------------------------------------------
    // Hidden-object API (paper §4)
    // ------------------------------------------------------------------

    /// Resolve `objname` under `uak` to its directory entry (the UAK
    /// listing's walk).  Layers above (the VFS front-end) cache the entry
    /// per user session so repeated opens skip the walk.
    pub fn lookup_entry(&self, objname: &str, uak: &str) -> StegResult<DirectoryEntry> {
        let entry = self.list(Parent::Uak(uak))?.find(objname).cloned();
        let entry = entry.ok_or_else(|| StegError::NotFound(objname.to_string()))?;
        // The object is about to be opened through this session's keys:
        // resolve them once (shard already released — a first-use derivation
        // must not convoy other lookups) and scope whatever the read paths
        // cache for the object to this session.
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        self.read_cache
            .tag_scope(keys.signature(), Self::session_scope(uak));
        Ok(entry)
    }

    /// `steg_create`: create an empty hidden file or directory named
    /// `objname`, registered under `uak` ([`Self::create`] at top level).
    pub fn steg_create(&self, objname: &str, uak: &str, kind: ObjectKind) -> StegResult<()> {
        self.create(Parent::Uak(uak), objname, kind)
    }

    /// [`Self::steg_create`] with an explicit per-object durability policy.
    /// Shares are ordinary encrypted hidden blocks placed by independent
    /// locator probes, so a coded object's creation is indistinguishable
    /// from a plain one's on the raw device.
    pub fn steg_create_with_policy(
        &self,
        objname: &str,
        uak: &str,
        kind: ObjectKind,
        policy: Policy,
    ) -> StegResult<()> {
        self.create_with_policy(Parent::Uak(uak), objname, kind, policy)
    }

    /// Verify and, where possible, repair one hidden object in place from
    /// its surviving shares (the scavenger's per-object step; see
    /// [`ObjectIo::repair`] for the byte-identical-rewrite argument).  Plain
    /// objects report [`RepairOutcome::Intact`] untouched; an unrecoverable
    /// object writes nothing.
    ///
    /// This is the volume's only repair path: a degraded read writes
    /// nothing.  The object is re-opened fresh under its object lock, so an
    /// entry taken before a concurrent rewrite repairs the *current*
    /// incarnation and never resurrects superseded shares; an object
    /// deleted since fails in the not-found family.
    pub fn scavenge_entry(&self, entry: &DirectoryEntry) -> StegResult<RepairOutcome> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.object_io(&keys);
        let outcome = io.repair(&io.open(&entry.physical_name)?)?;
        if matches!(outcome, RepairOutcome::Repaired { .. }) {
            // Any cached plaintext decoded from the damaged shares is stale.
            self.read_cache.invalidate(keys.signature());
        }
        Ok(outcome)
    }

    /// The data blocks of `objname` chunked per coding group (`n` share
    /// blocks per group; plain objects report singleton groups).  The
    /// corruption experiments use this map to destroy a chosen number of
    /// shares per group.
    pub fn hidden_share_extents(&self, objname: &str, uak: &str) -> StegResult<Vec<Vec<u64>>> {
        let entry = self.lookup_entry(objname, uak)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.object_io(&keys);
        io.share_extents(&io.open(&entry.physical_name)?)
    }

    /// Write the full contents of the hidden file `objname` (registered under
    /// `uak`).
    pub fn write_hidden_with_key(&self, objname: &str, uak: &str, data: &[u8]) -> StegResult<()> {
        let entry = self.lookup_entry(objname, uak)?;
        self.write_hidden_entry(&entry, data)
    }

    /// Replace the full contents of the hidden file `entry` names (a UAK
    /// listing's entry or a hidden directory's child alike), in one
    /// transaction.
    pub fn write_hidden_entry(&self, entry: &DirectoryEntry, data: &[u8]) -> StegResult<()> {
        require_kind(&entry.name, entry.kind, ObjectKind::File)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let mut txn = self.fs.begin_txn();
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.io(&keys);
        let mut obj = io.open(&entry.physical_name)?;
        let mut rng = self.fork_rng();
        io.write(&mut txn, &mut obj, data, &mut rng)?;
        Ok(txn.commit()?)
    }

    /// Read the full contents of the hidden file `objname` (registered under
    /// `uak`).
    pub fn read_hidden_with_key(&self, objname: &str, uak: &str) -> StegResult<Vec<u8>> {
        let entry = self.lookup_entry(objname, uak)?;
        self.read_hidden_entry(&entry)
    }

    /// Open a hidden file once and keep a handle for repeated positional
    /// access — the analogue of holding an open file descriptor after
    /// `steg_connect` in the kernel driver, so that every `read()` does not
    /// pay the locator walk again.
    pub fn open_hidden(&self, objname: &str, uak: &str) -> StegResult<HiddenHandle> {
        let entry = self.lookup_entry(objname, uak)?;
        self.open_hidden_entry(&entry)
    }

    /// Size in bytes of the object behind `handle`.
    pub fn handle_size(&self, handle: &HiddenHandle) -> u64 {
        handle.object.size()
    }

    /// Read `len` bytes at `offset` through an open handle.
    ///
    /// Handle operations rely on caller-side serialisation per object; see
    /// the module-level concurrency notes.
    pub fn read_range_at(
        &self,
        handle: &HiddenHandle,
        offset: u64,
        len: usize,
    ) -> StegResult<Vec<u8>> {
        self.read_range_at_with_readahead(handle, offset, len, 0)
    }

    /// [`Self::read_range_at`] with streaming readahead: up to
    /// `readahead_blocks` blocks past the requested range ride along in the
    /// same batched device submission and land in the plaintext cache.  The
    /// VFS passes a non-zero hint when a handle is reading sequentially.
    pub fn read_range_at_with_readahead(
        &self,
        handle: &HiddenHandle,
        offset: u64,
        len: usize,
        readahead_blocks: usize,
    ) -> StegResult<Vec<u8>> {
        self.io(&handle.keys)
            .read_range(&handle.object, offset, len, readahead_blocks)
    }

    /// Open a hidden object directly from a (possibly cached) directory
    /// entry, skipping the UAK-directory walk that [`Self::open_hidden`]
    /// performs.
    pub fn open_hidden_entry(&self, entry: &DirectoryEntry) -> StegResult<HiddenHandle> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let object = self.io(&keys).open(&entry.physical_name)?;
        Ok(HiddenHandle {
            name: entry.name.clone(),
            keys,
            object,
        })
    }

    /// Write `data` at `offset` through an open handle, extending the object
    /// (and zero-filling any gap) when the range passes the current end.
    ///
    /// In-bounds updates patch blocks in place ([`ObjectIo::write_range`]);
    /// extending grows the object and patches the range in one transaction
    /// ([`ObjectIo::write_at`]), so a crash leaves the old size and bytes or
    /// the new ones.  Either way the handle's cached header is refreshed
    /// (a coded patch under replicated metadata changes its chain check),
    /// which is why this takes `&mut HiddenHandle`.  Only a growth forks
    /// the volume RNG.
    pub fn write_at_handle(
        &self,
        handle: &mut HiddenHandle,
        offset: u64,
        data: &[u8],
    ) -> StegResult<()> {
        require_kind(&handle.name, handle.object.kind(), ObjectKind::File)?;
        let io = self.io(&handle.keys);
        if data.len() as u64 <= handle.object.size().saturating_sub(offset) {
            return io.write_range(&mut handle.object, offset, data);
        }
        // Grow to the range's end by whole groups (zero-filling any gap)
        // and patch the part that lands in the groups the object has, in
        // one transaction — O(append), not O(file), under every policy.
        io.write_at(&mut handle.object, offset, data, &mut self.fork_rng())
    }

    /// Set the size of the object behind `handle` to `new_len`, truncating or
    /// zero-extending as needed.
    pub fn truncate_handle(&self, handle: &mut HiddenHandle, new_len: u64) -> StegResult<()> {
        require_kind(&handle.name, handle.object.kind(), ObjectKind::File)?;
        if new_len == handle.object.size() {
            return Ok(());
        }
        let mut rng = self.fork_rng();
        self.io(&handle.keys)
            .resize(&mut handle.object, new_len, &mut rng)
    }

    /// Read the full contents of the hidden file `entry` names: a UAK
    /// listing's entry or a hidden directory's child alike.
    pub fn read_hidden_entry(&self, entry: &DirectoryEntry) -> StegResult<Vec<u8>> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.io(&keys);
        io.read(&io.open(&entry.physical_name)?)
    }

    /// `steg_hide`: convert the plain file at `pathname` into the hidden
    /// object `objname`, and delete the plain source, scrubbed: each of
    /// its data blocks gets back its format-time fill, so no block of the
    /// volume holds the file in plaintext any more.
    ///
    /// One transaction, committed once, under `uak`'s shard and then the
    /// plain namespace and the source's stripe, in that order: read the
    /// source, build the object, save the listing, stage the scrubbing
    /// delete.  A crash leaves the plain file or the hidden one, never both
    /// and never neither.  Written through (no journal), the object and its
    /// listing reach the device before the source is touched, so a failed
    /// hide leaves both copies at worst.  On a journaled volume the scrub
    /// rides in the commit's final piece ([`FsTxn`]): a source whose data
    /// blocks do not fit there with the commit's inode-table and bitmap
    /// images fails `NoSpace` and stays as it is.
    pub fn steg_hide(&self, pathname: &str, objname: &str, uak: &str) -> StegResult<()> {
        let (parent, policy) = (Parent::Uak(uak), self.params.hidden_policy);
        let mut txn = self.fs.begin_txn();
        let mut listing = self.lock_listing(parent)?;
        let mut plain = txn.lock_plain();
        let data = txn.read_file(&mut plain, pathname)?;
        let entry = self.publish(
            &mut txn,
            parent,
            objname,
            ObjectKind::File,
            policy,
            Some(&data),
        )?;
        self.bind(&mut listing.entries, entry)?;
        self.save_listing(&mut txn, parent, &mut listing)?;
        let fill = Fill {
            random: self.params.random_fill,
            seed: self.params.volume_seed,
        };
        txn.delete(&mut plain, pathname, Some(fill))?;
        Ok(txn.commit()?)
    }

    /// `steg_unhide`: convert the hidden file `objname` back into a plain
    /// file at `pathname` (created, or truncated and rewritten), and
    /// destroy the hidden object.
    ///
    /// One transaction, committed once: [`Self::remove`], with the plain
    /// write staged under the listing's guard and the object's shard, then
    /// the plain namespace and the file's stripe, before the object is
    /// destroyed.  A crash leaves the hidden file or the plain one, never
    /// both and never neither.  Written through, the plain file reaches the
    /// device before the object is destroyed, so a failed unhide leaves
    /// both copies at worst.
    pub fn steg_unhide(&self, pathname: &str, objname: &str, uak: &str) -> StegResult<()> {
        let txn = self.fs.begin_txn();
        self.remove_with(txn, Parent::Uak(uak), objname, |txn, entry| {
            require_kind(&entry.name, entry.kind, ObjectKind::File)?;
            let keys = self.keys_for(&entry.physical_name, &entry.fak);
            let io = self.io(&keys);
            let data = io.read(&io.open(&entry.physical_name)?)?;
            let mut plain = txn.lock_plain();
            txn.write_file(&mut plain, pathname, &data)?;
            Ok(plain)
        })
        .map(drop)
    }

    // ------------------------------------------------------------------
    // Sharing (steg_getentry / steg_addentry) and revocation
    // ------------------------------------------------------------------

    /// `steg_getentry`: produce an encrypted share envelope for `objname`
    /// that only the holder of `recipient`'s private key can open.
    pub fn steg_getentry(
        &self,
        objname: &str,
        uak: &str,
        recipient: &RsaPublicKey,
    ) -> StegResult<ShareEnvelope> {
        let entry = self.lookup_entry(objname, uak)?;
        let entropy = self.rng.lock().bytes(32);
        ShareEnvelope::seal(&entry, recipient, &entropy)
    }

    /// `steg_addentry`: open a received share envelope with `private_key` and
    /// register the shared object under this user's `uak`.  Returns the
    /// object name that was added.
    pub fn steg_addentry(
        &self,
        envelope: &ShareEnvelope,
        private_key: &RsaPrivateKey,
        uak: &str,
    ) -> StegResult<String> {
        let entry = envelope.open(private_key)?;
        let name = entry.name.clone();
        let parent = Parent::Uak(uak);
        self.update_listing(self.fs.begin_txn(), parent, |_, dir| dir.insert(entry))?;
        Ok(name)
    }

    /// Revoke a previously shared object: re-key it under a fresh FAK (and a
    /// fresh physical name) so that recipients of the old `(name, FAK)` pair
    /// lose access, as described at the end of §3.2.  The replacement keeps
    /// the object's durability policy, and a directory's shadow listing
    /// moves to the new keys with it.  Copy, destroy and re-publish are one
    /// transaction, committed under the UAK shard and the old object's.
    pub fn revoke_sharing(&self, objname: &str, uak: &str) -> StegResult<()> {
        let parent = Parent::Uak(uak);
        let revoked = self.update_listing(self.fs.begin_txn(), parent, |txn, dir| {
            let entry = dir
                .remove(objname)
                .ok_or_else(|| StegError::NotFound(objname.to_string()))?;

            // Read the current contents with the old key.
            let old_keys = self.keys_for(&entry.physical_name, &entry.fak);
            let old_io = self.object_io(&old_keys);
            let obj_lock = self.object_guard(&entry.physical_name);
            let old_obj = old_io.open(&entry.physical_name)?;
            let data = old_io.read(&old_obj)?;

            // Create the replacement under a fresh FAK and physical name.
            let revision = self.fak_counter.fetch_add(1, Ordering::Relaxed) + 1;
            let fak = self.generate_fak(objname);
            let physical_name = parent.child_physical_name(&format!("{objname}#rev{revision}"));
            let new_keys = self.keys_for(&physical_name, &fak);
            let new_io = self.object_io(&new_keys);
            let policy = old_obj.header.policy;
            let mut new_obj = new_io.create(txn, &physical_name, entry.kind, policy)?;
            let mut rng = self.fork_rng();
            new_io.write(txn, &mut new_obj, &data, &mut rng)?;

            // Destroy the old object, invalidating every outstanding copy of
            // the old FAK.
            let result = old_io.delete(txn, &old_obj, &mut rng);
            self.forget_object(txn, &entry, &old_keys);
            result?;
            let (name, kind) = (objname.to_string(), entry.kind);
            let rekeyed = DirectoryEntry {
                name,
                physical_name,
                fak,
                kind,
            };
            if kind == ObjectKind::Directory {
                // A directory's shadow listing is keyed by the directory's
                // identity: it moves to the new keys, and the old one goes.
                self.save_shadow_listing(txn, &rekeyed, &parse_listing(&data)?)?;
                self.save_shadow_listing(txn, &entry, &UakDirectory::new())?;
            }
            dir.insert(rekeyed)?;
            Ok(obj_lock)
        });
        self.unbound(parent);
        revoked.map(drop)
    }

    // ------------------------------------------------------------------
    // Backup and recovery (steg_backup / steg_recovery)
    // ------------------------------------------------------------------

    fn walk_plain_tree(&self, path: &str, out: &mut Vec<PlainEntry>) -> StegResult<()> {
        for entry in self.fs.list_dir(path)? {
            let child_path = if path == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{}/{}", path, entry.name)
            };
            match entry.kind {
                FileKind::Directory => {
                    out.push(PlainEntry {
                        path: child_path.clone(),
                        kind: FileKind::Directory,
                        data: vec![],
                    });
                    self.walk_plain_tree(&child_path, out)?;
                }
                _ => {
                    let data = self.fs.read_file(&child_path)?;
                    out.push(PlainEntry {
                        path: child_path,
                        kind: FileKind::File,
                        data,
                    });
                }
            }
        }
        Ok(())
    }

    /// `steg_backup`: produce an authenticated backup image containing the
    /// raw contents of every allocated-but-unaccounted block plus the
    /// contents of every plain file.
    ///
    /// Backup snapshots the bitmap block by block; run it on a quiescent
    /// volume (no concurrent writers) for a consistent image.
    pub fn steg_backup(&self, admin_key: &[u8]) -> StegResult<Vec<u8>> {
        let sb = self.fs.superblock().clone();
        let map = BlockMap::keyless(&self.fs)?;
        let hidden_blocks = map
            .blocks(|c| c == Class::Unaccounted)
            .map(|block| Ok((block, self.fs.read_raw_block(block)?)))
            .collect::<StegResult<_>>()?;

        let mut plain_entries = Vec::new();
        self.walk_plain_tree("/", &mut plain_entries)?;

        let image = BackupImage {
            block_size: sb.block_size,
            total_blocks: sb.total_blocks,
            hidden_blocks,
            plain_entries,
        };
        Ok(image.to_bytes(admin_key))
    }

    /// `steg_recovery`: rebuild a volume on `dev` from a backup image.
    ///
    /// Imaged (hidden/abandoned/dummy) blocks return to their original
    /// addresses; plain files are recreated through the central directory and
    /// may land anywhere.
    pub fn steg_recovery(
        dev: D,
        image_bytes: &[u8],
        admin_key: &[u8],
        params: StegParams,
    ) -> StegResult<Self> {
        params.validate()?;
        let image = BackupImage::from_bytes(image_bytes, admin_key)?;
        if dev.block_size() != image.block_size as usize || dev.total_blocks() != image.total_blocks
        {
            return Err(StegError::InvalidBackup(format!(
                "device geometry ({} x {}) does not match image ({} x {})",
                dev.block_size(),
                dev.total_blocks(),
                image.block_size,
                image.total_blocks
            )));
        }

        // A fresh plain file system; hidden blocks are then grafted back in.
        // The journal size must match the original format or the grafted
        // block numbers would land in a shifted data region.
        let fs = PlainFs::format(
            dev,
            FormatOptions {
                fill_random: params.random_fill,
                seed: params.volume_seed,
                policy: AllocPolicy::FirstFit,
                inode_count: None,
                journal_blocks: params.journal_blocks,
            },
        )?;

        // One transaction (journaled when the volume is): the bitmap claims
        // and the raw block contents commit together.
        image.graft(&fs)?;

        for entry in &image.plain_entries {
            match entry.kind {
                FileKind::Directory => {
                    fs.create_dir(&entry.path)?;
                }
                _ => {
                    fs.write_file(&entry.path, &entry.data)?;
                }
            }
        }
        fs.sync()?;

        let config = VolumeConfig::load(&fs)?;
        Ok(Self::assemble(fs, params, config))
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Aggregate block accounting for the space-utilization experiments.
    pub fn space_report(&self) -> StegResult<SpaceReport> {
        let sb = self.fs.superblock().clone();
        let plain_blocks = self.fs.plain_object_blocks()?.len() as u64;
        let free_blocks = self.fs.free_data_blocks();
        let allocated_data = sb.data_blocks() - free_blocks;
        let abandoned = self.config.abandoned_count;
        let hidden = allocated_data
            .saturating_sub(plain_blocks)
            .saturating_sub(abandoned);
        Ok(SpaceReport {
            block_size: sb.block_size as usize,
            total_blocks: sb.total_blocks,
            metadata_blocks: sb.data_start,
            plain_blocks,
            abandoned_blocks: abandoned,
            hidden_blocks: hidden,
            free_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemBlockDevice;

    const UAK: &str = "user access key level 1";

    fn small_fs() -> StegFs<MemBlockDevice> {
        StegFs::format(MemBlockDevice::new(1024, 8192), StegParams::for_tests()).unwrap()
    }

    /// `(name, kind)` of every entry `parent` lists.
    fn listed(fs: &StegFs<MemBlockDevice>, parent: Parent<'_>) -> Vec<(String, ObjectKind)> {
        let listing = fs.list(parent).unwrap().entries;
        listing.into_iter().map(|e| (e.name, e.kind)).collect()
    }

    #[test]
    fn format_creates_dummies_and_abandoned_blocks() {
        let fs = small_fs();
        let report = fs.space_report().unwrap();
        assert!(report.abandoned_blocks > 0);
        assert!(report.hidden_blocks > 0, "dummy files occupy hidden blocks");
        assert!(report.free_blocks > 0);
        // The config file is a plain file.
        assert!(fs.plain_fs().exists(CONFIG_PATH).unwrap());
    }

    #[test]
    fn plain_files_work_alongside_hidden_objects() {
        let fs = small_fs();
        fs.plain_fs()
            .write_file("/notes.txt", b"shopping list")
            .unwrap();
        fs.plain_fs().create_dir("/docs").unwrap();
        fs.plain_fs()
            .write_file("/docs/report.txt", b"quarterly report")
            .unwrap();
        assert_eq!(
            fs.plain_fs().read_file("/notes.txt").unwrap(),
            b"shopping list"
        );
        let names: Vec<String> = fs
            .plain_fs()
            .list_dir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"notes.txt".to_string()));
        assert!(names.contains(&"docs".to_string()));
        fs.plain_fs().delete("/notes.txt").unwrap();
        assert!(!fs.plain_fs().exists("/notes.txt").unwrap());
    }

    #[test]
    fn hidden_create_write_read_roundtrip() {
        let fs = small_fs();
        fs.steg_create("budget", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("budget", UAK, b"the real numbers")
            .unwrap();
        assert_eq!(
            fs.read_hidden_with_key("budget", UAK).unwrap(),
            b"the real numbers"
        );
        assert_eq!(
            listed(&fs, Parent::Uak(UAK)),
            vec![("budget".to_string(), ObjectKind::File)]
        );
    }

    #[test]
    fn wrong_uak_sees_nothing() {
        let fs = small_fs();
        fs.steg_create("budget", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("budget", UAK, b"secret").unwrap();
        // A different UAK has an empty directory and cannot find the object.
        assert!(fs
            .list(Parent::Uak("some other key"))
            .unwrap()
            .entries
            .is_empty());
        assert!(fs
            .read_hidden_with_key("budget", "some other key")
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn duplicate_hidden_names_rejected_per_uak() {
        let fs = small_fs();
        fs.steg_create("x", UAK, ObjectKind::File).unwrap();
        assert!(matches!(
            fs.steg_create("x", UAK, ObjectKind::File),
            Err(StegError::AlreadyExists(_))
        ));
        // The same name under a different UAK is fine.
        fs.steg_create("x", "another uak", ObjectKind::File)
            .unwrap();
    }

    #[test]
    fn hidden_objects_invisible_in_plain_listings() {
        let fs = small_fs();
        fs.plain_fs().write_file("/visible.txt", b"plain").unwrap();
        fs.steg_create("invisible", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("invisible", UAK, b"hidden data")
            .unwrap();
        let listing: Vec<String> = fs
            .plain_fs()
            .list_dir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(listing.iter().any(|n| n == "visible.txt"));
        assert!(
            !listing.iter().any(|n| n.contains("invisible")),
            "hidden object leaked into the central directory: {listing:?}"
        );
    }

    #[test]
    fn steg_hide_and_unhide_roundtrip() {
        let fs = small_fs();
        fs.plain_fs()
            .write_file("/diary.txt", b"dear diary")
            .unwrap();
        fs.steg_hide("/diary.txt", "diary", UAK).unwrap();
        assert!(
            !fs.plain_fs().exists("/diary.txt").unwrap(),
            "plain source deleted"
        );
        assert_eq!(
            fs.read_hidden_with_key("diary", UAK).unwrap(),
            b"dear diary"
        );

        fs.steg_unhide("/diary-restored.txt", "diary", UAK).unwrap();
        assert_eq!(
            fs.plain_fs().read_file("/diary-restored.txt").unwrap(),
            b"dear diary"
        );
        assert!(fs
            .read_hidden_with_key("diary", UAK)
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn a_childs_entry_reads_and_writes_its_whole_contents() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        fs.create(Parent::Dir(&vault), "passwords", ObjectKind::File)
            .unwrap();
        let child = fs.list(Parent::Dir(&vault)).unwrap().entries[0].clone();
        fs.write_hidden_entry(&child, b"hunter2").unwrap();
        assert_eq!(fs.read_hidden_entry(&child).unwrap(), b"hunter2");
        fs.write_hidden_entry(&child, b"v2").unwrap();
        assert_eq!(fs.read_hidden_entry(&child).unwrap(), b"v2");
        // A child is no top-level object, and a directory takes no bytes.
        assert!(fs
            .read_hidden_with_key("passwords", UAK)
            .unwrap_err()
            .is_not_found());
        assert!(matches!(
            fs.write_hidden_entry(&vault, b"x"),
            Err(StegError::WrongObjectKind { .. })
        ));
    }

    #[test]
    fn connecting_directory_reveals_children() {
        // A connect (held by the VFS session) walks these listings: the
        // directory's listing names every child with an entry that reads
        // and writes, and a child directory's listing its own offspring.
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        fs.create(Parent::Dir(&vault), "passwords", ObjectKind::File)
            .unwrap();
        fs.create(Parent::Dir(&vault), "keys", ObjectKind::Directory)
            .unwrap();
        let listing = fs.list(Parent::Dir(&vault)).unwrap();
        let mut names: Vec<&str> = listing.entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["keys", "passwords"]);

        let keys = listing.find("keys").cloned().unwrap();
        fs.create(Parent::Dir(&keys), "ssh", ObjectKind::File)
            .unwrap();
        let ssh = fs.list(Parent::Dir(&keys)).unwrap().find("ssh").cloned();
        let ssh = ssh.unwrap();
        fs.write_hidden_entry(&ssh, b"-----BEGIN KEY-----").unwrap();
        assert_eq!(fs.read_hidden_entry(&ssh).unwrap(), b"-----BEGIN KEY-----");

        let passwords = listing.find("passwords").cloned().unwrap();
        fs.write_hidden_entry(&passwords, b"hunter2").unwrap();
        assert_eq!(fs.read_hidden_entry(&passwords).unwrap(), b"hunter2");
        // The top-level listing still holds the directory alone.
        let top = fs.list(Parent::Uak(UAK)).unwrap();
        assert_eq!(top.entries.len(), 1);
        assert!(top.find("vault").is_some());
    }

    #[test]
    fn delete_and_rename_inside_hidden_dir() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        let free_empty = fs.plain_fs().free_data_blocks();
        fs.create(Parent::Dir(&vault), "a", ObjectKind::File)
            .unwrap();
        fs.create(Parent::Dir(&vault), "b", ObjectKind::File)
            .unwrap();
        let a = fs
            .list(Parent::Dir(&vault))
            .unwrap()
            .find("a")
            .cloned()
            .unwrap();
        fs.write_hidden_entry(&a, &vec![7u8; 10 * 1024]).unwrap();

        // Rename keeps the contents and the physical identity.
        fs.rename(Parent::Dir(&vault), "a", "renamed").unwrap();
        let listing = fs.list(Parent::Dir(&vault)).unwrap();
        assert!(listing.find("renamed").is_some() && listing.find("a").is_none());
        let renamed = fs
            .list(Parent::Dir(&vault))
            .unwrap()
            .find("renamed")
            .cloned()
            .unwrap();
        assert_eq!(renamed.physical_name, a.physical_name);
        assert!(matches!(
            fs.rename(Parent::Dir(&vault), "renamed", "b"),
            Err(StegError::AlreadyExists(_))
        ));
        assert!(fs
            .rename(Parent::Dir(&vault), "ghost", "x")
            .unwrap_err()
            .is_not_found());

        // Deleting returns the child's blocks and unpublishes the entry.
        let removed = fs.remove(Parent::Dir(&vault), "renamed").unwrap();
        assert_eq!(removed.physical_name, a.physical_name);
        fs.remove(Parent::Dir(&vault), "b").unwrap();
        assert!(fs.list(Parent::Dir(&vault)).unwrap().entries.is_empty());
        assert_eq!(fs.plain_fs().free_data_blocks(), free_empty);
        assert!(fs
            .remove(Parent::Dir(&vault), "renamed")
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn delete_in_hidden_dir_requires_empty_subdirectory() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        fs.create(Parent::Dir(&vault), "sub", ObjectKind::Directory)
            .unwrap();
        let sub = fs
            .list(Parent::Dir(&vault))
            .unwrap()
            .find("sub")
            .cloned()
            .unwrap();
        // Nest a grandchild through the entry-based API.
        let child_dir_keys = fs.keys_for(&sub.physical_name, &sub.fak);
        let sub_io = fs.object_io(&child_dir_keys);
        let mut sub_obj = sub_io.open(&sub.physical_name).unwrap();
        let mut listing = UakDirectory::new();
        listing
            .insert(DirectoryEntry {
                name: "grandchild".into(),
                physical_name: "gp".into(),
                fak: [0u8; FAK_LEN],
                kind: ObjectKind::File,
            })
            .unwrap();
        let mut rng = stegfs_crypto::prng::DeterministicRng::new(b"t");
        let mut txn = fs.plain_fs().begin_txn();
        sub_io
            .write(&mut txn, &mut sub_obj, &listing.serialize(), &mut rng)
            .unwrap();
        txn.commit().unwrap();

        assert!(matches!(
            fs.remove(Parent::Dir(&vault), "sub"),
            Err(StegError::Fs(stegfs_fs::FsError::DirectoryNotEmpty(_)))
        ));
        // Still listed after the refusal.
        assert_eq!(fs.list(Parent::Dir(&vault)).unwrap().entries.len(), 1);
    }

    #[test]
    fn duplicate_children_rejected() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        fs.create(Parent::Dir(&vault), "a", ObjectKind::File)
            .unwrap();
        assert!(matches!(
            fs.create(Parent::Dir(&vault), "a", ObjectKind::File),
            Err(StegError::AlreadyExists(_))
        ));
        // Creating inside a hidden *file* is a kind error.
        fs.steg_create("not-a-dir", UAK, ObjectKind::File).unwrap();
        assert!(matches!(
            fs.create(
                Parent::Dir(&fs.lookup_entry("not-a-dir", UAK).unwrap()),
                "x",
                ObjectKind::File
            ),
            Err(StegError::WrongObjectKind { .. })
        ));
    }

    #[test]
    fn sharing_between_two_users() {
        let fs = small_fs();
        let owner_uak = "owner key";
        let recipient_uak = "recipient key";
        let recipient_keys = stegfs_crypto::rsa::RsaKeyPair::generate(512, b"recipient rsa");

        fs.steg_create("design-doc", owner_uak, ObjectKind::File)
            .unwrap();
        fs.write_hidden_with_key("design-doc", owner_uak, b"shared contents")
            .unwrap();

        let envelope = fs
            .steg_getentry("design-doc", owner_uak, &recipient_keys.public)
            .unwrap();
        let added = fs
            .steg_addentry(&envelope, &recipient_keys.private, recipient_uak)
            .unwrap();
        assert_eq!(added, "design-doc");

        // The recipient now reads (and can update) the same object.
        assert_eq!(
            fs.read_hidden_with_key("design-doc", recipient_uak)
                .unwrap(),
            b"shared contents"
        );
        fs.write_hidden_with_key("design-doc", recipient_uak, b"recipient edit")
            .unwrap();
        assert_eq!(
            fs.read_hidden_with_key("design-doc", owner_uak).unwrap(),
            b"recipient edit"
        );
    }

    #[test]
    fn revocation_cuts_off_old_fak() {
        let fs = small_fs();
        let owner_uak = "owner key";
        let recipient_uak = "recipient key";
        let recipient_keys = stegfs_crypto::rsa::RsaKeyPair::generate(512, b"recipient rsa 2");

        fs.steg_create("contract", owner_uak, ObjectKind::File)
            .unwrap();
        fs.write_hidden_with_key("contract", owner_uak, b"v1")
            .unwrap();
        let envelope = fs
            .steg_getentry("contract", owner_uak, &recipient_keys.public)
            .unwrap();
        fs.steg_addentry(&envelope, &recipient_keys.private, recipient_uak)
            .unwrap();
        assert_eq!(
            fs.read_hidden_with_key("contract", recipient_uak).unwrap(),
            b"v1"
        );

        fs.revoke_sharing("contract", owner_uak).unwrap();

        // Owner still has access (under the new FAK)...
        assert_eq!(
            fs.read_hidden_with_key("contract", owner_uak).unwrap(),
            b"v1"
        );
        // ...but the recipient's stale entry no longer resolves.
        assert!(fs
            .read_hidden_with_key("contract", recipient_uak)
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn revocation_keeps_the_durability_policy() {
        let fs = small_fs();
        let policy = Policy::Disperse { m: 2, n: 3 };
        fs.steg_create_with_policy("deed", UAK, ObjectKind::File, policy)
            .unwrap();
        let data: Vec<u8> = (0..7 * 1024 + 99u32).map(|i| (i % 241) as u8).collect();
        fs.write_hidden_with_key("deed", UAK, &data).unwrap();
        let old = fs.lookup_entry("deed", UAK).unwrap();

        fs.revoke_sharing("deed", UAK).unwrap();

        // The re-keyed object is still 2-of-3 ...
        let new = fs.lookup_entry("deed", UAK).unwrap();
        let new_keys = fs.keys_for(&new.physical_name, &new.fak);
        let reopened = fs.object_io(&new_keys).open(&new.physical_name).unwrap();
        assert_eq!(reopened.header.policy, policy);
        // ... so it still absorbs `n - m` lost shares in every group ...
        for (g, group) in fs
            .hidden_share_extents("deed", UAK)
            .unwrap()
            .iter()
            .enumerate()
        {
            assert_eq!(group.len(), 3);
            fs.plain_fs()
                .device()
                .write_block(group[g % 3], &[0u8; 1024])
                .unwrap();
        }
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("deed", UAK).unwrap(), data);
        // ... and the old (physical name, FAK) pair opens nothing.
        let old_keys = fs.keys_for(&old.physical_name, &old.fak);
        let stale = fs.object_io(&old_keys).open(&old.physical_name);
        assert!(stale.unwrap_err().is_not_found());
    }

    #[test]
    fn revoking_a_directory_moves_its_shadow_listing() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        for child in ["a", "b"] {
            fs.create(
                Parent::Dir(&fs.lookup_entry("vault", UAK).unwrap()),
                child,
                ObjectKind::File,
            )
            .unwrap();
        }
        let old = fs.lookup_entry("vault", UAK).unwrap();
        let listing = fs.list(Parent::Dir(&old)).unwrap();
        let a = listing.find("a").cloned().unwrap();
        let payload = vec![0x3cu8; 3 * 1024 + 7];
        fs.write_hidden_entry(&a, &payload).unwrap();

        fs.revoke_sharing("vault", UAK).unwrap();

        // No block lost its owner or gained a second one: the old shadow
        // went with the old keys.
        let map = crate::blockmap::BlockMap::keyed(&fs, &[UAK]).unwrap();
        assert!(map.violations().is_empty(), "{:?}", map.violations());
        assert_eq!(map.leak(), Some(0));
        let (shadow, shadow_fak) =
            StegFs::<MemBlockDevice>::shadow_identity(&old.physical_name, &old.fak);
        let stale = fs
            .object_io(&fs.keys_for(&shadow, &shadow_fak))
            .open(&shadow);
        assert!(stale.unwrap_err().is_not_found());
        // The children still list, under the new keys.
        let names = || -> Vec<String> {
            let vault = fs.lookup_entry("vault", UAK).unwrap();
            listed(&fs, Parent::Dir(&vault))
                .into_iter()
                .map(|(name, _)| name)
                .collect()
        };
        assert_eq!(names(), ["a", "b"]);

        // Lose every header replica of the re-keyed directory: the shadow
        // under the new keys brings it back.
        let new = fs.lookup_entry("vault", UAK).unwrap();
        assert_ne!((&new.physical_name, new.fak), (&old.physical_name, old.fak));
        let keys = fs.keys_for(&new.physical_name, &new.fak);
        let obj = fs.object_io(&keys).open(&new.physical_name).unwrap();
        for (i, &h) in obj.header_blocks().to_vec().iter().enumerate() {
            smash_raw(&fs, h, i as u8);
        }
        fs.purge_read_caches();
        assert!(fs.list(Parent::Dir(&new)).is_err());
        let rebuilt = fs.rebuild_dir_from_shadow(&new).unwrap();
        assert_eq!(rebuilt.children_relinked, 2);
        assert_eq!(names(), ["a", "b"]);
        assert_eq!(fs.read_hidden_entry(&a).unwrap(), payload);
    }

    #[test]
    fn survives_unmount_and_remount() {
        let fs = small_fs();
        fs.plain_fs().write_file("/p.txt", b"plain").unwrap();
        fs.steg_create("h", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("h", UAK, b"hidden across remount")
            .unwrap();
        let dev = fs.unmount().unwrap();

        let fs = StegFs::mount(dev, StegParams::for_tests()).unwrap();
        assert_eq!(fs.plain_fs().read_file("/p.txt").unwrap(), b"plain");
        assert_eq!(
            fs.read_hidden_with_key("h", UAK).unwrap(),
            b"hidden across remount"
        );
    }

    #[test]
    fn backup_and_recovery_preserve_hidden_and_plain_data() {
        let fs = small_fs();
        fs.plain_fs()
            .write_file("/plain.txt", b"plain data")
            .unwrap();
        fs.plain_fs().create_dir("/dir").unwrap();
        fs.plain_fs()
            .write_file("/dir/nested.txt", b"nested")
            .unwrap();
        fs.steg_create("secret", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("secret", UAK, b"hidden survives backup")
            .unwrap();

        let image = fs.steg_backup(b"admin key").unwrap();

        // Recover onto a brand-new device.
        let fresh = MemBlockDevice::new(1024, 8192);
        let recovered =
            StegFs::steg_recovery(fresh, &image, b"admin key", StegParams::for_tests()).unwrap();
        assert_eq!(
            recovered.plain_fs().read_file("/plain.txt").unwrap(),
            b"plain data"
        );
        assert_eq!(
            recovered.plain_fs().read_file("/dir/nested.txt").unwrap(),
            b"nested"
        );
        assert_eq!(
            recovered.read_hidden_with_key("secret", UAK).unwrap(),
            b"hidden survives backup"
        );
        // Wrong admin key is rejected outright.
        assert!(StegFs::steg_recovery(
            MemBlockDevice::new(1024, 8192),
            &image,
            b"wrong key",
            StegParams::for_tests()
        )
        .is_err());
    }

    #[test]
    fn backup_rejects_mismatched_geometry() {
        let fs = small_fs();
        let image = fs.steg_backup(b"k").unwrap();
        let smaller = MemBlockDevice::new(1024, 4096);
        assert!(matches!(
            StegFs::steg_recovery(smaller, &image, b"k", StegParams::for_tests()),
            Err(StegError::InvalidBackup(_))
        ));
    }

    #[test]
    fn touch_dummy_files_rewrites_them() {
        let fs = small_fs();
        let touched = fs.touch_dummy_files().unwrap();
        assert_eq!(touched, StegParams::for_tests().dummy_file_count);
        // Space accounting stays sane afterwards.
        let report = fs.space_report().unwrap();
        assert!(report.hidden_blocks > 0);
        assert!(report.free_blocks > 0);
    }

    #[test]
    fn space_report_tracks_hidden_growth() {
        let fs = small_fs();
        let before = fs.space_report().unwrap();
        fs.steg_create("grow", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("grow", UAK, &vec![7u8; 100 * 1024])
            .unwrap();
        let after = fs.space_report().unwrap();
        assert!(after.hidden_blocks >= before.hidden_blocks + 100);
        assert!(after.free_blocks < before.free_blocks);
        assert_eq!(after.abandoned_blocks, before.abandoned_blocks);
        assert!(after.free_fraction() < before.free_fraction());
    }

    #[test]
    fn access_hierarchy_supports_selective_disclosure() {
        use crate::keys::AccessHierarchy;
        let fs = small_fs();
        let hierarchy = AccessHierarchy::new(vec![
            "level-0 everyday".to_string(),
            "level-1 sensitive".to_string(),
        ]);
        fs.steg_create("addresses", hierarchy.uak_at(0).unwrap(), ObjectKind::File)
            .unwrap();
        fs.steg_create(
            "real-budget",
            hierarchy.uak_at(1).unwrap(),
            ObjectKind::File,
        )
        .unwrap();

        // Signing on at level 0 discloses only the innocuous file.
        let visible: Vec<String> = hierarchy
            .visible_at(0)
            .unwrap()
            .iter()
            .flat_map(|uak| listed(&fs, Parent::Uak(uak)))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(visible, vec!["addresses"]);

        // Level 1 sees both.
        let visible: Vec<String> = hierarchy
            .visible_at(1)
            .unwrap()
            .iter()
            .flat_map(|uak| listed(&fs, Parent::Uak(uak)))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(visible.len(), 2);
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = small_fs();
        assert!(matches!(
            fs.steg_create("", UAK, ObjectKind::File),
            Err(StegError::InvalidName(_))
        ));
        assert!(matches!(
            fs.steg_create("bad\0name", UAK, ObjectKind::File),
            Err(StegError::InvalidName(_))
        ));
    }

    #[test]
    fn no_rename_produces_a_name_its_create_refuses() {
        let fs = small_fs();
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        let dir = fs.lookup_entry("d", UAK).unwrap();
        let invalid = |r: &StegResult<()>| matches!(r, Err(StegError::InvalidName(_)));
        // The first six are refused at both levels.
        let names = [
            "",
            "a\0b",
            "a\u{1}b",
            "\u{1}shadow",
            "a/b",
            "/",
            "ok",
            "ok two",
        ];
        for parent in [Parent::Uak(UAK), Parent::Dir(&dir)] {
            fs.create(parent, "kid", ObjectKind::File).unwrap();
            for (i, name) in names.into_iter().enumerate() {
                let created = fs.create(parent, name, ObjectKind::File);
                let refused = invalid(&created);
                assert_eq!(refused, i < 6, "{parent:?}: {name:?}");
                if created.is_ok() {
                    fs.remove(parent, name).unwrap();
                }
                let renamed = fs.rename(parent, "kid", name).map(drop);
                assert_eq!(invalid(&renamed), refused, "{parent:?}: {name:?}");
                if renamed.is_ok() {
                    fs.rename(parent, name, "kid").unwrap();
                }
            }
        }
    }

    /// One step of the namespace parity script, its outcome and the names
    /// listed after it.
    type ParityStep = (
        fn(&StegFs<MemBlockDevice>, Parent<'_>) -> StegResult<()>,
        &'static str,
        &'static [&'static str],
    );

    #[test]
    fn namespace_parity_across_both_levels() {
        use ObjectKind::{Directory, File};
        let steps: [ParityStep; 16] = [
            (|fs, p| fs.create(p, "a", File), "ok", &["a"]),
            (
                |fs, p| fs.create(p, "a", Directory),
                "AlreadyExists",
                &["a"],
            ),
            (|fs, p| fs.create(p, "b", File), "ok", &["a", "b"]),
            (
                |fs, p| fs.rename(p, "a", "b").map(drop),
                "AlreadyExists",
                &["a", "b"],
            ),
            (
                |fs, p| fs.rename(p, "ghost", "x").map(drop),
                "NotFound",
                &["a", "b"],
            ),
            (
                |fs, p| fs.remove(p, "ghost").map(drop),
                "NotFound",
                &["a", "b"],
            ),
            (|fs, p| fs.create(p, "d", Directory), "ok", &["a", "b", "d"]),
            (
                |fs, p| {
                    let d = fs.list(p)?.find("d").cloned().unwrap();
                    fs.create(Parent::Dir(&d), "kid", File)
                },
                "ok",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.remove(p, "d").map(drop),
                "DirectoryNotEmpty",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.create(p, "", File),
                "InvalidName",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.create(p, "a\0", File),
                "InvalidName",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.create(p, "a\u{1}", File),
                "InvalidName",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.create(p, "a/b", File),
                "InvalidName",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.rename(p, "a", "a/b").map(drop),
                "InvalidName",
                &["a", "b", "d"],
            ),
            (
                |fs, p| fs.rename(p, "a", "c").map(drop),
                "ok",
                &["b", "c", "d"],
            ),
            (|fs, p| fs.remove(p, "c").map(drop), "ok", &["b", "d"]),
        ];
        let outcome = |r: StegResult<()>| match r {
            Ok(()) => "ok",
            Err(StegError::AlreadyExists(_)) => "AlreadyExists",
            Err(StegError::NotFound(_)) => "NotFound",
            Err(StegError::InvalidName(_)) => "InvalidName",
            Err(StegError::Fs(stegfs_fs::FsError::DirectoryNotEmpty(_))) => "DirectoryNotEmpty",
            Err(e) => panic!("unexpected error: {e}"),
        };
        let fs = small_fs();
        fs.steg_create("top", "another key", Directory).unwrap();
        let dir = fs.lookup_entry("top", "another key").unwrap();
        for parent in [Parent::Uak(UAK), Parent::Dir(&dir)] {
            for (i, (step, want, names)) in steps.iter().enumerate() {
                let got = outcome(step(&fs, parent));
                assert_eq!(got, *want, "step {i} at {parent:?}");
                let mut now: Vec<String> = listed(&fs, parent).into_iter().map(|e| e.0).collect();
                now.sort();
                assert_eq!(now, *names, "listing after step {i} at {parent:?}");
            }
        }
    }

    #[test]
    fn recovery_refuses_a_config_that_mount_refuses() {
        let fs = small_fs();
        fs.plain_fs()
            .write_file(CONFIG_PATH, b"not a StegFS configuration")
            .unwrap();
        let image = fs.steg_backup(b"k").unwrap();
        let corrupt = |r: StegResult<StegFs<MemBlockDevice>>| {
            matches!(r, Err(StegError::Fs(stegfs_fs::FsError::Corrupt(_))))
        };
        assert!(corrupt(StegFs::mount(
            fs.unmount().unwrap(),
            StegParams::for_tests()
        )));
        let fresh = MemBlockDevice::new(1024, 8192);
        let recovered = StegFs::steg_recovery(fresh, &image, b"k", StegParams::for_tests());
        assert!(corrupt(recovered));
    }

    #[test]
    fn remove_of_an_entry_the_listing_no_longer_holds_destroys_nothing() {
        let fs = small_fs();
        let top = Parent::Uak(UAK);
        fs.steg_create("doc", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("doc", UAK, b"old doc").unwrap();
        let stale = fs.lookup_entry("doc", UAK).unwrap();
        let gen = fs.listing_generation(UAK);
        fs.rename(top, "doc", "moved").unwrap();
        fs.steg_create("doc", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("doc", UAK, b"new").unwrap();
        assert!(fs.listing_generation(UAK) > gen, "listing commits move it");

        // The name lists another object now: not found, nothing removed.
        assert!(fs.remove(top, &stale).unwrap_err().is_not_found());
        assert_eq!(fs.read_hidden_with_key("doc", UAK).unwrap(), b"new");
        assert_eq!(fs.read_hidden_with_key("moved", UAK).unwrap(), b"old doc");

        // The entry the listing holds, and a bare name, remove.
        let current = fs.lookup_entry("doc", UAK).unwrap();
        assert_eq!(fs.remove(top, &current).unwrap(), current);
        assert_eq!(
            fs.remove(top, "moved").unwrap().physical_name,
            stale.physical_name
        );
        assert!(fs.list(top).unwrap().entries.is_empty());
    }

    #[test]
    fn write_to_hidden_directory_as_file_is_rejected() {
        let fs = small_fs();
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        assert!(matches!(
            fs.write_hidden_with_key("d", UAK, b"nope"),
            Err(StegError::WrongObjectKind { .. })
        ));
    }

    #[test]
    fn delete_hidden_removes_object_and_frees_space() {
        let fs = small_fs();
        fs.steg_create("temp", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("temp", UAK, &vec![1u8; 50 * 1024])
            .unwrap();
        let before = fs.space_report().unwrap();
        fs.remove(Parent::Uak(UAK), "temp").unwrap();
        let after = fs.space_report().unwrap();
        assert!(after.free_blocks > before.free_blocks);
        assert!(fs
            .read_hidden_with_key("temp", UAK)
            .unwrap_err()
            .is_not_found());
        assert!(fs.list(Parent::Uak(UAK)).unwrap().entries.is_empty());
    }

    #[test]
    fn write_at_handle_extends_and_patches() {
        let fs = small_fs();
        fs.steg_create("grow", UAK, ObjectKind::File).unwrap();
        let mut h = fs.open_hidden("grow", UAK).unwrap();

        // Writing into an empty object extends it.
        fs.write_at_handle(&mut h, 0, b"hello world").unwrap();
        assert_eq!(h.size(), 11);
        assert_eq!(
            fs.read_hidden_with_key("grow", UAK).unwrap(),
            b"hello world"
        );

        // In-bounds writes patch in place.
        fs.write_at_handle(&mut h, 6, b"stegf").unwrap();
        assert_eq!(
            fs.read_hidden_with_key("grow", UAK).unwrap(),
            b"hello stegf"
        );

        // Writing past the end zero-fills the gap.
        fs.write_at_handle(&mut h, 20, b"tail").unwrap();
        assert_eq!(h.size(), 24);
        let data = fs.read_hidden_with_key("grow", UAK).unwrap();
        assert_eq!(&data[..11], b"hello stegf");
        assert_eq!(&data[11..20], &[0u8; 9]);
        assert_eq!(&data[20..], b"tail");

        // Empty writes never extend.
        fs.write_at_handle(&mut h, 1000, b"").unwrap();
        assert_eq!(h.size(), 24);

        // Past a gap of whole blocks, and straddling the end: the bytes in
        // the blocks the object has and those in grown blocks both land.
        let mut model = data;
        for (at, len, seed) in [(3000usize, 1500usize, 7u8), (4000, 2100, 9)] {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(seed)).collect();
            fs.write_at_handle(&mut h, at as u64, &bytes).unwrap();
            model.resize(at.max(model.len()), 0);
            model.truncate(at);
            model.extend_from_slice(&bytes);
            assert_eq!(h.size(), model.len() as u64);
            assert_eq!(fs.read_hidden_with_key("grow", UAK).unwrap(), model);
        }
    }

    #[test]
    fn truncate_handle_shrinks_and_zero_extends() {
        let fs = small_fs();
        fs.steg_create("t", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("t", UAK, &vec![7u8; 5000])
            .unwrap();
        let mut h = fs.open_hidden("t", UAK).unwrap();

        fs.truncate_handle(&mut h, 100).unwrap();
        assert_eq!(h.size(), 100);
        assert_eq!(fs.read_hidden_with_key("t", UAK).unwrap(), vec![7u8; 100]);

        fs.truncate_handle(&mut h, 300).unwrap();
        let data = fs.read_hidden_with_key("t", UAK).unwrap();
        assert_eq!(&data[..100], &[7u8; 100][..]);
        assert_eq!(&data[100..], &[0u8; 200][..]);

        // Truncating a directory is a kind error.
        fs.steg_create("d", UAK, ObjectKind::Directory).unwrap();
        let mut hd = fs.open_hidden("d", UAK).unwrap();
        assert!(matches!(
            fs.truncate_handle(&mut hd, 0),
            Err(StegError::WrongObjectKind { .. })
        ));
    }

    #[test]
    fn rename_hidden_updates_directory_only() {
        let fs = small_fs();
        fs.steg_create("old-name", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("old-name", UAK, b"payload")
            .unwrap();
        let before = fs.lookup_entry("old-name", UAK).unwrap();

        fs.rename(Parent::Uak(UAK), "old-name", "new-name").unwrap();
        assert!(fs
            .read_hidden_with_key("old-name", UAK)
            .unwrap_err()
            .is_not_found());
        assert_eq!(
            fs.read_hidden_with_key("new-name", UAK).unwrap(),
            b"payload"
        );

        // Physical identity is preserved — only the directory entry changed.
        let after = fs.lookup_entry("new-name", UAK).unwrap();
        assert_eq!(after.physical_name, before.physical_name);
        assert_eq!(after.fak, before.fak);

        // Conflicts and bad names are rejected.
        fs.steg_create("other", UAK, ObjectKind::File).unwrap();
        assert!(matches!(
            fs.rename(Parent::Uak(UAK), "new-name", "other"),
            Err(StegError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename(Parent::Uak(UAK), "new-name", ""),
            Err(StegError::InvalidName(_))
        ));
        assert!(matches!(
            fs.rename(Parent::Uak(UAK), "ghost", "x"),
            Err(StegError::NotFound(_))
        ));
    }

    #[test]
    fn open_hidden_entry_skips_directory_walk() {
        let fs = small_fs();
        fs.steg_create("cached", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("cached", UAK, b"via entry")
            .unwrap();
        let entry = fs.lookup_entry("cached", UAK).unwrap();
        // The entry alone is enough to open and read — no UAK needed.
        let h = fs.open_hidden_entry(&entry).unwrap();
        assert_eq!(h.kind(), ObjectKind::File);
        assert_eq!(fs.read_range_at(&h, 0, 64).unwrap(), b"via entry");
    }

    #[test]
    fn hidden_range_reads_and_writes() {
        let fs = small_fs();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        fs.steg_create("ranged", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("ranged", UAK, &data).unwrap();
        let mut handle = fs.open_hidden("ranged", UAK).unwrap();
        assert_eq!(
            fs.read_range_at(&handle, 2000, 500).unwrap(),
            &data[2000..2500]
        );
        fs.write_at_handle(&mut handle, 2048, &[9u8; 1024]).unwrap();
        let mut expected = data.clone();
        expected[2048..3072].copy_from_slice(&[9u8; 1024]);
        assert_eq!(fs.read_hidden_with_key("ranged", UAK).unwrap(), expected);
    }

    #[test]
    fn range_writes_ending_past_u64_fail_cleanly_at_both_layers() {
        let fs = small_fs();
        let edge = u64::MAX - 1;
        let too_large = |e: &StegError| {
            matches!(
                e,
                StegError::NoSpace | StegError::Fs(stegfs_fs::FsError::FileTooLarge { .. })
            )
        };

        fs.steg_create("h", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("h", UAK, b"hidden bytes").unwrap();
        let mut handle = fs.open_hidden("h", UAK).unwrap();
        let e = fs.write_at_handle(&mut handle, edge, b"xx").unwrap_err();
        assert!(too_large(&e), "{e}");
        let io = fs.object_io(&handle.keys);
        let e = io.write_range(&mut handle.object, edge, b"xx").unwrap_err();
        assert!(too_large(&e), "{e}");
        let mut rng = DeterministicRng::new(b"edge");
        let e = io
            .write_at(&mut handle.object, edge, b"xx", &mut rng)
            .unwrap_err();
        assert!(too_large(&e), "{e}");
        assert_eq!(fs.read_hidden_with_key("h", UAK).unwrap(), b"hidden bytes");

        let plain = fs.plain_fs();
        plain.write_file("/p", b"plain bytes").unwrap();
        let e = StegError::from(plain.write_file_range("/p", edge, b"xx").unwrap_err());
        assert!(too_large(&e), "{e}");
        assert_eq!(plain.read_file("/p").unwrap(), b"plain bytes");
    }

    #[test]
    fn large_hidden_file_roundtrip() {
        let fs = StegFs::format(MemBlockDevice::new(1024, 16384), StegParams::for_tests()).unwrap();
        let data: Vec<u8> = (0..2 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.steg_create("big", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("big", UAK, &data).unwrap();
        assert_eq!(fs.read_hidden_with_key("big", UAK).unwrap(), data);
    }

    #[test]
    fn shared_reference_api_serves_many_threads() {
        use std::sync::Arc;
        let fs = Arc::new(
            StegFs::format(MemBlockDevice::new(1024, 16384), StegParams::for_tests()).unwrap(),
        );
        let threads = 6usize;
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let fs = Arc::clone(&fs);
                std::thread::spawn(move || {
                    // Each thread its own UAK: disjoint hidden namespaces.
                    let uak = format!("thread key {t}");
                    for round in 0..4 {
                        let name = format!("obj-{round}");
                        fs.steg_create(&name, &uak, ObjectKind::File).unwrap();
                        let data = vec![(t * 37 + round) as u8; 4000 + round * 512];
                        fs.write_hidden_with_key(&name, &uak, &data).unwrap();
                        assert_eq!(fs.read_hidden_with_key(&name, &uak).unwrap(), data);
                    }
                    fs.remove(Parent::Uak(&uak), "obj-0").unwrap();
                    assert_eq!(fs.list(Parent::Uak(&uak)).unwrap().entries.len(), 3);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Every namespace still resolves only under its own key.
        for t in 0..threads {
            let uak = format!("thread key {t}");
            assert_eq!(fs.list(Parent::Uak(&uak)).unwrap().entries.len(), 3);
        }
        assert!(fs.list(Parent::Uak("stranger")).unwrap().entries.is_empty());
    }

    // ------------------------------------------------------------------
    // Degraded reads and keyed repair
    // ------------------------------------------------------------------

    fn smash_raw(fs: &StegFs<MemBlockDevice>, block: u64, seed: u8) {
        let junk: Vec<u8> = (0..fs.plain_fs().block_size())
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect();
        fs.plain_fs().device().write_block(block, &junk).unwrap();
    }

    fn raw_bytes(fs: &StegFs<MemBlockDevice>, blocks: &[u64]) -> Vec<u8> {
        let mut buf = vec![0u8; blocks.len() * fs.plain_fs().block_size()];
        fs.plain_fs()
            .read_raw_blocks_into(blocks, &mut buf)
            .unwrap();
        buf
    }

    fn blocks_written(fs: &StegFs<MemBlockDevice>) -> u64 {
        fs.obs().device.blocks_written.load(Ordering::Relaxed)
    }

    #[test]
    fn degraded_read_heals_through_scavenge_entry() {
        let fs = small_fs();
        fs.steg_create_with_policy(
            "cfg.dat",
            UAK,
            ObjectKind::File,
            Policy::Disperse { m: 2, n: 4 },
        )
        .unwrap();
        let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_hidden_with_key("cfg.dat", UAK, &data).unwrap();
        let groups = fs.hidden_share_extents("cfg.dat", UAK).unwrap();
        let victims = [groups[0][1], groups[1][2]];
        let before = raw_bytes(&fs, &victims);
        for (i, &v) in victims.iter().enumerate() {
            smash_raw(&fs, v, i as u8);
        }
        // Degraded reads are served from the survivors and write nothing:
        // a read never causes device traffic an inspector could see.
        let written = blocks_written(&fs);
        for _ in 0..2 {
            fs.purge_read_caches();
            assert_eq!(fs.read_hidden_with_key("cfg.dat", UAK).unwrap(), data);
        }
        assert_eq!(blocks_written(&fs), written, "a degraded read wrote");

        let entry = fs.lookup_entry("cfg.dat", UAK).unwrap();
        assert_eq!(
            fs.scavenge_entry(&entry).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 2 }
        );
        assert_eq!(
            raw_bytes(&fs, &victims),
            before,
            "repair restores the image byte-identically"
        );
        // The volume has converged: a second pass finds nothing to do and
        // a fresh cold read is healthy.
        assert_eq!(fs.scavenge_entry(&entry).unwrap(), RepairOutcome::Intact);
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("cfg.dat", UAK).unwrap(), data);
    }

    #[test]
    fn degraded_metadata_heals_through_scavenge_entry() {
        let fs = small_fs();
        fs.steg_create_with_policy(
            "meta.dat",
            UAK,
            ObjectKind::File,
            Policy::Disperse { m: 2, n: 4 },
        )
        .unwrap();
        let data = vec![0x5au8; 5 * 1024];
        fs.write_hidden_with_key("meta.dat", UAK, &data).unwrap();
        let entry = fs.lookup_entry("meta.dat", UAK).unwrap();
        let keys = fs.keys_for(&entry.physical_name, &entry.fak);
        let obj = fs.object_io(&keys).open(&entry.physical_name).unwrap();
        let victims = [obj.header.header_replicas[0], obj.header.inode_chain];
        let before = raw_bytes(&fs, &victims);
        for (i, &v) in victims.iter().enumerate() {
            smash_raw(&fs, v, 0x80 + i as u8);
        }
        fs.purge_read_caches();
        let written = blocks_written(&fs);
        assert_eq!(
            fs.read_hidden_with_key("meta.dat", UAK).unwrap(),
            data,
            "metadata replicas carry the read"
        );
        assert_eq!(blocks_written(&fs), written, "a degraded read wrote");
        assert!(matches!(
            fs.scavenge_entry(&entry).unwrap(),
            RepairOutcome::Repaired { .. }
        ));
        assert_eq!(
            raw_bytes(&fs, &victims),
            before,
            "header and chain rebuild byte-identically"
        );
    }

    #[test]
    fn repair_never_resurrects_a_superseded_incarnation() {
        let fs = small_fs();
        fs.steg_create_with_policy(
            "race.dat",
            UAK,
            ObjectKind::File,
            Policy::Disperse { m: 2, n: 4 },
        )
        .unwrap();
        let old = vec![0x11u8; 4 * 1024];
        fs.write_hidden_with_key("race.dat", UAK, &old).unwrap();
        let groups = fs.hidden_share_extents("race.dat", UAK).unwrap();
        smash_raw(&fs, groups[0][0], 7);
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("race.dat", UAK).unwrap(), old);
        // The scavenger's entry is taken against incarnation 1.
        let entry = fs.lookup_entry("race.dat", UAK).unwrap();

        // A concurrent writer replaces the object before the repair runs.
        let new = vec![0x22u8; 7 * 1024];
        fs.write_hidden_with_key("race.dat", UAK, &new).unwrap();

        // The repair re-opens fresh: the current incarnation stays current.
        assert!(!matches!(
            fs.scavenge_entry(&entry).unwrap(),
            RepairOutcome::Lost { .. }
        ));
        assert_eq!(fs.read_hidden_with_key("race.dat", UAK).unwrap(), new);

        // An entry whose object was deleted since finds nothing to repair.
        smash_raw(
            &fs,
            fs.hidden_share_extents("race.dat", UAK).unwrap()[0][1],
            9,
        );
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("race.dat", UAK).unwrap(), new);
        fs.remove(Parent::Uak(UAK), "race.dat").unwrap();
        assert!(fs.scavenge_entry(&entry).unwrap_err().is_not_found());
    }

    #[test]
    fn rebuild_lost_directory_from_shadow_listing() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let vault = fs.lookup_entry("vault", UAK).unwrap();
        fs.create(Parent::Dir(&vault), "a", ObjectKind::File)
            .unwrap();
        fs.create(Parent::Dir(&vault), "b", ObjectKind::File)
            .unwrap();
        let a = fs
            .list(Parent::Dir(&vault))
            .unwrap()
            .find("a")
            .cloned()
            .unwrap();
        let payload = vec![0x5au8; 9 * 1024];
        fs.write_hidden_entry(&a, &payload).unwrap();

        // A live directory is never clobbered from its shadow.
        assert!(matches!(
            fs.rebuild_dir_from_shadow(&vault),
            Err(StegError::AlreadyExists(_))
        ));

        // Destroy every header replica of the directory object: damage past
        // the metadata redundancy, so the listing is unreachable by key.
        let keys = fs.keys_for(&vault.physical_name, &vault.fak);
        let obj = fs.object_io(&keys).open(&vault.physical_name).unwrap();
        let headers = obj.header_blocks().to_vec();
        for (i, &h) in headers.iter().enumerate() {
            smash_raw(&fs, h, i as u8);
        }
        fs.purge_read_caches();
        assert!(fs.list(Parent::Dir(&vault)).is_err());

        // The shadow brings back the listing in place; both children still
        // probe, so nothing is dropped and the file's bytes survive.
        let rebuilt = fs.rebuild_dir_from_shadow(&vault).unwrap();
        assert_eq!(rebuilt.children_relinked, 2);
        assert!(rebuilt.children_dropped.is_empty());
        let listing = fs.list(Parent::Dir(&vault)).unwrap();
        assert!(listing.find("a").is_some() && listing.find("b").is_some());
        assert_eq!(fs.read_hidden_entry(&a).unwrap(), payload);

        // Lose the directory again *and* child b's object: the rebuild
        // re-links the survivor and reports the dangling child by name.
        let b = listing.find("b").cloned().unwrap();
        let b_keys = fs.keys_for(&b.physical_name, &b.fak);
        let b_obj = fs.object_io(&b_keys).open(&b.physical_name).unwrap();
        let b_headers = b_obj.header_blocks().to_vec();
        for (i, &h) in b_headers.iter().enumerate() {
            smash_raw(&fs, h, 0x40 + i as u8);
        }
        let obj = fs.object_io(&keys).open(&vault.physical_name).unwrap();
        let headers = obj.header_blocks().to_vec();
        for (i, &h) in headers.iter().enumerate() {
            smash_raw(&fs, h, 0x80 + i as u8);
        }
        fs.purge_read_caches();
        let rebuilt = fs.rebuild_dir_from_shadow(&vault).unwrap();
        assert_eq!(rebuilt.children_relinked, 1);
        assert_eq!(rebuilt.children_dropped, vec!["b".to_string()]);
        let listing = fs.list(Parent::Dir(&vault)).unwrap();
        assert!(listing.find("a").is_some() && listing.find("b").is_none());
        assert_eq!(fs.read_hidden_entry(&a).unwrap(), payload);
    }
}
