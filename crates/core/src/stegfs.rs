//! The [`StegFs`] facade: the user-facing steganographic file system.
//!
//! `StegFs` combines the plain file system (central directory, bitmap), the
//! hidden-object engine, the UAK/FAK key hierarchy, sessions, sharing and
//! backup into the API of Section 4 of the paper.  Plain files behave exactly
//! as on the underlying [`PlainFs`]; hidden objects are reachable only with
//! the right keys.
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
//!   Key's hidden directory, so two users (or two threads of one user)
//!   cannot lose each other's `steg_create` / `delete` / `rename`.  A
//!   create builds the new object *before* taking the shard and holds it
//!   only for the directory rewrite (the publish window), unwinding the
//!   unpublished object if it lost the name race;
//! * **object shards** serialise operations on one hidden object (keyed by
//!   its physical name), so a rewrite that relocates blocks through the free
//!   pool cannot interleave with another rewrite of the same object;
//! * the session table, the FAK generator and the RNG have their own tiny
//!   locks and are never held across I/O;
//! * the read cache's locks (shards, scope table, derived-key map) sit below
//!   everything here and are never held across I/O or a key derivation.
//!
//! Lock order: the table in [`stegfs_obs::lock`].  The derivation a
//! derived-key cache miss pays ([`StegFs::keys_for`]) runs with that lock
//! released, and key sets are fetched *before* a UAK shard is taken wherever
//! the pair is known up front, so the shard is held for a cached directory
//! read, not for hashing.
//!
//! The handle-based operations ([`StegFs::read_range_at`],
//! [`StegFs::write_range_at`], [`StegFs::write_at_handle`],
//! [`StegFs::truncate_handle`]) deliberately take no object shard: a
//! [`HiddenHandle`] caches the object's block map, so the *caller* owns
//! serialisation per handle target.  The `stegfs-vfs` front-end does exactly
//! that with one lock per open object; single-threaded users need nothing.

use crate::backup::{BackupImage, PlainEntry};
use crate::coding::Policy;
use crate::crypt::ObjectKeys;
use crate::error::{StegError, StegResult};
use crate::header::ObjectKind;
use crate::hidden::{HiddenObject, ObjectIo, ReadHealth, RepairOutcome};
use crate::keys::{DirectoryEntry, UakDirectory, FAK_LEN, UAK_DIRECTORY_NAME};
use crate::params::StegParams;
use crate::readcache::{CacheStats, ReadCache};
use crate::session::{ConnectedObject, Session};
use crate::sharing::ShareEnvelope;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::ct::zeroize;
use stegfs_crypto::prng::DeterministicRng;
use stegfs_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use stegfs_crypto::sha256::sha256_concat;
use stegfs_fs::{AllocPolicy, FileKind, FormatOptions, PlainFs};
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
}

/// An open hidden file: the result of [`StegFs::open_hidden`], giving
/// repeated positional access without re-running the locator.
pub struct HiddenHandle {
    /// User-visible object name the handle was opened under.
    pub name: String,
    /// Locator-facing physical name (owner-qualified), kept so a degraded
    /// read through the handle can queue a repair ticket.
    physical_name: String,
    fak: [u8; FAK_LEN],
    keys: Arc<ObjectKeys>,
    object: HiddenObject,
}

impl Drop for HiddenHandle {
    fn drop(&mut self) {
        zeroize(&mut self.fak);
    }
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

/// Most repair tickets queued at once; a degraded read that finds the queue
/// full queues nothing and counts in `obs.repair.refused`.  A constant, not
/// a knob: a ticket is a name and a key, and the queue only has to hold the
/// damaged objects read between two drains.
const REPAIR_QUEUE_CAPACITY: usize = 1024;

/// One queued self-healing ticket: enough to re-derive the object's keys
/// and re-open it *fresh* at repair time — repair always converges the
/// object's **current** incarnation, so a ticket queued against a since-
/// rewritten object can never resurrect superseded shares.
struct RepairTicket {
    physical_name: String,
    fak: [u8; FAK_LEN],
    /// Dedup key in [`RepairQueue::enqueued`], and the read cache's key for
    /// the session the object was resolved through.
    signature: [u8; crate::crypt::SIGNATURE_LEN],
}

impl Drop for RepairTicket {
    fn drop(&mut self) {
        zeroize(&mut self.fak);
    }
}

/// What [`RepairQueue::offer`] did with a degraded object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    Queued,
    /// A ticket for the object is already waiting.
    Duplicate,
    /// The queue holds [`REPAIR_QUEUE_CAPACITY`] tickets.
    Refused,
}

/// RAM-only queue of repair tickets, deduplicated by object signature (a
/// storm of degraded reads against one object queues one ticket) and
/// bounded at [`REPAIR_QUEUE_CAPACITY`].
#[derive(Default)]
struct RepairQueue {
    tickets: std::collections::VecDeque<RepairTicket>,
    enqueued: std::collections::HashSet<[u8; crate::crypt::SIGNATURE_LEN]>,
}

impl RepairQueue {
    /// Queue the ticket `make` builds for the object `signature`, unless one
    /// is already waiting or the queue is full (`make` is not called then).
    fn offer(
        &mut self,
        signature: &[u8; crate::crypt::SIGNATURE_LEN],
        make: impl FnOnce() -> RepairTicket,
    ) -> Offer {
        if self.enqueued.contains(signature) {
            return Offer::Duplicate;
        }
        if self.tickets.len() >= REPAIR_QUEUE_CAPACITY {
            return Offer::Refused;
        }
        self.enqueued.insert(*signature);
        self.tickets.push_back(make());
        Offer::Queued
    }

    fn pop(&mut self) -> Option<RepairTicket> {
        let ticket = self.tickets.pop_front()?;
        self.enqueued.remove(&ticket.signature);
        Some(ticket)
    }

    /// Drop (and zero) every ticket `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(&RepairTicket) -> bool) {
        let RepairQueue { tickets, enqueued } = self;
        tickets.retain(|t| {
            let kept = keep(t);
            if !kept {
                enqueued.remove(&t.signature);
            }
            kept
        });
    }

    fn clear(&mut self) {
        self.retain(|_| false);
    }
}

/// What one [`StegFs::process_repairs`] drain accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairDrain {
    /// Tickets taken off the queue this call.
    pub processed: usize,
    /// Tickets that converged: shares/metadata rewritten, or the object was
    /// found intact / already rewritten / since deleted.
    pub completed: usize,
    /// Tickets whose object is damaged beyond tolerance or whose rewrite
    /// failed with an I/O error.
    pub failed: usize,
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

/// A listing as stored in a directory object: a never-written (empty) object
/// is an empty listing.
fn parse_listing(raw: &[u8]) -> StegResult<UakDirectory> {
    if raw.is_empty() {
        Ok(UakDirectory::new())
    } else {
        UakDirectory::deserialize(raw)
    }
}

/// A mounted StegFS volume.
pub struct StegFs<D: BlockDevice> {
    fs: PlainFs<D>,
    params: StegParams,
    session: Mutex<Session>,
    rng: Mutex<DeterministicRng>,
    fak_counter: AtomicU64,
    config: VolumeConfig,
    uak_locks: Vec<Mutex<()>>,
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
    /// RAM-only self-healing queue (see [`Self::process_repairs`]): degraded
    /// reads enqueue, an explicit drain repairs.  RAM-only for the same
    /// deniability reason as the read cache — a persisted repair backlog
    /// would betray which blocks hold live hidden data.  Its tickets hold
    /// FAKs, so they share the read cache's lifetime: a sign-off drops the
    /// departing session's (and never-tagged) tickets, `disconnect_all` and
    /// unmount drop all of them.  Lock order: repair queue < read cache.
    repair_queue: Mutex<RepairQueue>,
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
            session: Mutex::new(Session::new()),
            fak_counter: AtomicU64::new(0),
            config,
            read_cache,
            params,
            uak_locks: (0..UAK_SHARDS)
                .map(|_| Mutex::with_stats((), obs.uak_shards.clone()))
                .collect(),
            object_locks: (0..OBJECT_SHARDS)
                .map(|_| Mutex::with_stats((), obs.object_shards.clone()))
                .collect(),
            obs,
            repair_queue: Mutex::new(RepairQueue::default()),
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
            let chain_cap = crate::header::InodeChainBlock::capacity(bs).max(1);
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
        let config = match fs.read_file(CONFIG_PATH) {
            Ok(data) => VolumeConfig::deserialize(&data).ok_or_else(|| {
                StegError::Fs(stegfs_fs::FsError::Corrupt(
                    "unreadable StegFS configuration file".into(),
                ))
            })?,
            Err(e) if e.is_not_found() => VolumeConfig {
                abandoned_count: 0,
                dummy_seed: 0,
                dummy_count: 0,
                dummy_size: 0,
            },
            Err(e) => return Err(e.into()),
        };
        Ok(Self::assemble(fs, params, config))
    }

    /// Flush all state and return the underlying device.  The registry's
    /// captured span trees (worst-N and chrome-trace) are zeroized like the
    /// read cache, so an [`Arc<Obs>`] kept past unmount holds no request
    /// tree; its counters and histograms stay readable.
    pub fn unmount(self) -> StegResult<D> {
        self.session.lock().disconnect_all();
        self.repair_queue.lock().clear();
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
    /// loaded through their own keys stay warm.  Queued repair tickets go
    /// by the same rule.  The VFS calls this on every sign-off.
    pub fn purge_session_caches(&self, uak: &str) {
        let scope = Self::session_scope(uak);
        // Tickets first: the purge below forgets whose signatures were whose.
        self.repair_queue
            .lock()
            .retain(|t| self.read_cache.outlives_sign_off(&t.signature, scope));
        self.read_cache.purge_scope(scope);
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
    fn io<'a>(&'a self, keys: &'a ObjectKeys) -> ObjectIo<'a, D> {
        ObjectIo::new(&self.fs, &self.params, &self.read_cache, keys)
    }

    /// The same context **bypassing the read cache**: every call walks the
    /// locator and the chain on the device.  The maintenance paths in here
    /// use it where a cached snapshot must not vouch for the device (see
    /// [`crate::hidden`]); the experiments and tests outside this crate use
    /// it to inspect an object's blocks.  Mutating a live object through it
    /// bypasses invalidation and is unsupported (see [`crate::readcache`]).
    pub fn object_io<'a>(&'a self, keys: &'a ObjectKeys) -> ObjectIo<'a, D> {
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
    /// binding just changed or died (unlink, rename, re-key): header,
    /// extents, plaintext and the derived key set.
    fn forget_object(&self, physical_name: &str, fak: &[u8], keys: &ObjectKeys) {
        self.read_cache.invalidate(keys.signature());
        self.read_cache.drop_keys(physical_name, fak);
    }

    fn store_config(&self) -> StegResult<()> {
        let bytes = self.config.serialize();
        self.fs.write_file(CONFIG_PATH, &bytes)?;
        Ok(())
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

    fn dummy_identity(&self, index: u32) -> (String, [u8; FAK_LEN]) {
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
            let mut obj = io.create(&name, ObjectKind::File, Policy::Plain)?;
            let mut rng = self.fork_rng();
            let content = rng.bytes(self.config.dummy_size.min(usize::MAX as u64) as usize);
            io.write(&mut obj, &content, &mut rng)?;
        }
        Ok(())
    }

    /// Rewrite every dummy hidden file with fresh content.  The paper's
    /// driver does this periodically so that bitmap changes between snapshots
    /// cannot be attributed to real hidden files.
    pub fn touch_dummy_files(&self) -> StegResult<usize> {
        let mut touched = 0;
        for i in 0..self.config.dummy_count {
            let (name, fak) = self.dummy_identity(i);
            let keys = self.keys_for(&name, &fak);
            let _obj_lock = self.object_guard(&name);
            let mut obj = match self.object_io(&keys).open(&name) {
                Ok(o) => o,
                Err(StegError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            let mut rng = self.fork_rng();
            let content = rng.bytes(self.config.dummy_size as usize);
            self.io(&keys).write(&mut obj, &content, &mut rng)?;
            touched += 1;
        }
        Ok(touched)
    }

    // ------------------------------------------------------------------
    // Plain-file operations (pass-through to the central directory)
    // ------------------------------------------------------------------

    /// Write a plain (visible) file.
    pub fn write_plain(&self, path: &str, data: &[u8]) -> StegResult<()> {
        Ok(self.fs.write_file(path, data)?)
    }

    /// Read a plain file.
    pub fn read_plain(&self, path: &str) -> StegResult<Vec<u8>> {
        Ok(self.fs.read_file(path)?)
    }

    /// Create a plain directory.
    pub fn create_plain_dir(&self, path: &str) -> StegResult<()> {
        self.fs.create_dir(path)?;
        Ok(())
    }

    /// Delete a plain file or empty directory.
    pub fn delete_plain(&self, path: &str) -> StegResult<()> {
        Ok(self.fs.delete(path)?)
    }

    /// List a plain directory (hidden objects never appear here).
    pub fn list_plain_dir(&self, path: &str) -> StegResult<Vec<String>> {
        Ok(self
            .fs
            .list_dir(path)?
            .into_iter()
            .map(|e| e.name)
            .collect())
    }

    /// True if a plain object exists at `path`.
    pub fn plain_exists(&self, path: &str) -> StegResult<bool> {
        Ok(self.fs.exists(path)?)
    }

    // ------------------------------------------------------------------
    // UAK directories
    // ------------------------------------------------------------------

    /// Key set of `uak`'s directory object, scoped to the session: sign-off
    /// sweeps it along with everything the directory walk caches.  Callers
    /// fetch it *before* taking the UAK shard, so a first-use derivation
    /// never runs under the shard.
    fn uak_keys(&self, uak: &str) -> Arc<ObjectKeys> {
        let keys = self.keys_for(UAK_DIRECTORY_NAME, uak.as_bytes());
        self.read_cache
            .tag_scope(keys.signature(), Self::session_scope(uak));
        keys
    }

    /// Load the UAK directory stored under `keys` ([`Self::uak_keys`]).
    /// Caller holds the UAK shard lock.
    ///
    /// UAK directories are themselves hidden objects and the hottest read
    /// path of all (every name lookup walks one), so they go through the
    /// read cache like any other object; [`Self::save_uak_directory`]
    /// invalidates.
    fn load_uak_directory(
        &self,
        keys: &ObjectKeys,
    ) -> StegResult<(UakDirectory, Option<HiddenObject>)> {
        let io = self.io(keys);
        match io.open(UAK_DIRECTORY_NAME) {
            Ok(obj) => Ok((parse_listing(&io.read(&obj)?)?, Some(obj))),
            Err(StegError::NotFound(_)) => Ok((UakDirectory::new(), None)),
            Err(e) => Err(e),
        }
    }

    /// Persist the UAK directory stored under `keys`.  Caller holds the UAK
    /// shard lock.
    fn save_uak_directory(
        &self,
        keys: &ObjectKeys,
        dir: &UakDirectory,
        existing: Option<HiddenObject>,
    ) -> StegResult<()> {
        let io = self.io(keys);
        let mut obj = match existing {
            Some(obj) => obj,
            None => io.create(UAK_DIRECTORY_NAME, ObjectKind::Directory, Policy::Plain)?,
        };
        let mut rng = self.fork_rng();
        // The cache-aware write serves the rewrite's chain walk from the
        // cached extent map (the directory was just read through it, so the
        // map is warm), invalidates before touching anything and republishes
        // the new map on success — a failed attempt leaves a safe miss.
        io.write(&mut obj, &dir.serialize(), &mut rng)
    }

    /// The names (and kinds) of all hidden objects registered under `uak`.
    pub fn list_hidden(&self, uak: &str) -> StegResult<Vec<(String, ObjectKind)>> {
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (dir, _) = self.load_uak_directory(&uak_keys)?;
        Ok(dir
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.kind))
            .collect())
    }

    // ------------------------------------------------------------------
    // Hidden-object API (paper §4)
    // ------------------------------------------------------------------

    fn owner_tag(uak: &str) -> String {
        let digest = sha256_concat(&[b"stegfs-owner-tag", uak.as_bytes()]);
        digest[..8].iter().map(|b| format!("{b:02x}")).collect()
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

    fn entry_for(&self, objname: &str, uak: &str) -> StegResult<DirectoryEntry> {
        let uak_keys = self.uak_keys(uak);
        let entry = {
            let _uak_lock = self.uak_guard(uak);
            let (dir, _) = self.load_uak_directory(&uak_keys)?;
            dir.find(objname)
                .cloned()
                .ok_or_else(|| StegError::NotFound(objname.to_string()))?
        };
        // The object is about to be opened through this session's keys:
        // resolve them once (shard already released — a first-use derivation
        // must not convoy other lookups) and scope whatever the read paths
        // cache for the object to this session.
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        self.read_cache
            .tag_scope(keys.signature(), Self::session_scope(uak));
        Ok(entry)
    }

    /// Create the (not yet published) object `physical_name` under its
    /// freshly generated `keys`.  A hidden directory starts out as an empty
    /// child listing.
    fn create_object(
        &self,
        physical_name: &str,
        keys: &ObjectKeys,
        kind: ObjectKind,
        policy: Policy,
    ) -> StegResult<HiddenObject> {
        let io = self.object_io(keys);
        let mut obj = io.create(physical_name, kind, policy)?;
        if kind == ObjectKind::Directory {
            let mut rng = self.fork_rng();
            io.write(&mut obj, &UakDirectory::new().serialize(), &mut rng)?;
        }
        Ok(obj)
    }

    /// `steg_create`: create an empty hidden file or directory named
    /// `objname`, registered under `uak`.  The object gets the volume's
    /// default durability policy
    /// ([`StegParams::hidden_policy`](crate::StegParams)).
    pub fn steg_create(&self, objname: &str, uak: &str, kind: ObjectKind) -> StegResult<()> {
        self.steg_create_with_policy(objname, uak, kind, self.params.hidden_policy)
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
        if objname.is_empty() || objname.contains('\0') || objname.contains('\u{1}') {
            return Err(StegError::InvalidName(objname.to_string()));
        }
        // Build the object *outside* the UAK shard: allocating and writing
        // its blocks is the expensive part of a create, and it touches only
        // freshly generated keys no other thread can observe.  The shard is
        // held just for the directory read-modify-write — the publish
        // window — so concurrent creates under one UAK serialise on a
        // directory rewrite, not on whole-object I/O.
        let fak = self.generate_fak(objname);
        let physical_name = format!("{}:{}", Self::owner_tag(uak), objname);
        let keys = self.keys_for(&physical_name, &fak);
        let obj = self.create_object(&physical_name, &keys, kind, policy)?;
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (mut dir, existing) = self.load_uak_directory(&uak_keys)?;
        if dir.find(objname).is_some() {
            // Lost the publish race (or the name predates us): unwind the
            // never-published object.  Its keys never left this call, so
            // deleting it returns the blocks with no visible trace.
            let mut rng = self.fork_rng();
            let _ = self.object_io(&keys).delete(&obj, &mut rng);
            self.read_cache.drop_keys(&physical_name, &fak);
            return Err(StegError::AlreadyExists(objname.to_string()));
        }
        dir.insert(DirectoryEntry {
            name: objname.to_string(),
            physical_name,
            fak,
            kind,
        })?;
        self.save_uak_directory(&uak_keys, &dir, existing)
    }

    /// Verify and, where possible, repair one hidden object in place from
    /// its surviving shares (the scavenger's per-object step; see
    /// [`ObjectIo::repair`] for the byte-identical-rewrite argument).  Plain
    /// objects report [`RepairOutcome::Intact`] untouched; an unrecoverable
    /// object writes nothing.
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

    /// Run `read` against the cached, health-observing context of the object
    /// `(physical_name, fak)`, and queue a self-healing ticket for it when
    /// the read was served degraded (fallback shares or metadata replicas).
    /// Deduplicated per object; healthy reads pay one flag test.
    fn observed<T>(
        &self,
        physical_name: &str,
        fak: &[u8; FAK_LEN],
        keys: &ObjectKeys,
        read: impl FnOnce(ObjectIo<'_, D>) -> StegResult<T>,
    ) -> StegResult<T> {
        let health = ReadHealth::new();
        let out = read(self.io(keys).observed(&health));
        if health.is_degraded() {
            let signature = keys.signature();
            let offer = self.repair_queue.lock().offer(signature, || RepairTicket {
                physical_name: physical_name.to_string(),
                fak: *fak,
                signature: *signature,
            });
            match offer {
                Offer::Queued => self.obs.repair.queued.fetch_add(1, Ordering::Relaxed),
                Offer::Refused => self.obs.repair.refused.fetch_add(1, Ordering::Relaxed),
                Offer::Duplicate => 0,
            };
        }
        out
    }

    /// The full contents of the object behind `entry` (shard held by the
    /// caller), with degradation observed.
    fn read_observed(&self, entry: &DirectoryEntry, keys: &ObjectKeys) -> StegResult<Vec<u8>> {
        let name = &entry.physical_name;
        self.observed(name, &entry.fak, keys, |io| io.read(&io.open(name)?))
    }

    /// Number of repair tickets waiting to be drained.
    pub fn pending_repairs(&self) -> usize {
        self.repair_queue.lock().tickets.len()
    }

    /// Drain up to `limit` queued read-repair tickets: each object is
    /// re-opened **fresh** and run through [`ObjectIo::repair`], rewriting
    /// damaged shares and metadata replicas byte-identically in place, so
    /// the volume converges back to full redundancy under live traffic.
    ///
    /// Re-opening at drain time (rather than repairing the incarnation the
    /// degraded read saw) is what makes the queue safe against concurrent
    /// writers: a ticket queued before a full rewrite finds the *new*
    /// incarnation intact and never resurrects superseded shares.  An object
    /// deleted since its ticket was queued counts as completed.
    pub fn process_repairs(&self, limit: usize) -> RepairDrain {
        let mut drain = RepairDrain::default();
        for _ in 0..limit {
            let Some(ticket) = self.repair_queue.lock().pop() else {
                break;
            };
            drain.processed += 1;
            let _span = span::span(span::Phase::Repair);
            let keys = self.keys_for(&ticket.physical_name, &ticket.fak);
            let _obj_lock = self.object_guard(&ticket.physical_name);
            let io = self.object_io(&keys);
            let outcome = io
                .open(&ticket.physical_name)
                .and_then(|obj| io.repair(&obj));
            match outcome {
                Ok(RepairOutcome::Repaired { .. }) => {
                    // Cached plaintext may have been decoded from the damaged
                    // shares; drop it with the rewrite.
                    self.read_cache.invalidate(keys.signature());
                    drain.completed += 1;
                    self.obs.repair.completed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(RepairOutcome::Intact) => {
                    drain.completed += 1;
                    self.obs.repair.completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.is_not_found() => {
                    drain.completed += 1;
                    self.obs.repair.completed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(RepairOutcome::Lost { .. }) | Err(_) => {
                    drain.failed += 1;
                    self.obs.repair.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drain
    }

    /// The data blocks of `objname` chunked per coding group (`n` share
    /// blocks per group; plain objects report singleton groups).  The
    /// corruption experiments use this map to destroy a chosen number of
    /// shares per group.
    pub fn hidden_share_extents(&self, objname: &str, uak: &str) -> StegResult<Vec<Vec<u64>>> {
        let entry = self.entry_for(objname, uak)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.object_io(&keys);
        io.share_extents(&io.open(&entry.physical_name)?)
    }

    /// Write the full contents of the hidden file `objname` (registered under
    /// `uak`).
    pub fn write_hidden_with_key(&self, objname: &str, uak: &str, data: &[u8]) -> StegResult<()> {
        let entry = self.entry_for(objname, uak)?;
        self.write_hidden_entry(&entry, data)
    }

    fn write_hidden_entry(&self, entry: &DirectoryEntry, data: &[u8]) -> StegResult<()> {
        require_kind(&entry.name, entry.kind, ObjectKind::File)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.io(&keys);
        let mut obj = io.open(&entry.physical_name)?;
        let mut rng = self.fork_rng();
        io.write(&mut obj, data, &mut rng)
    }

    /// Read the full contents of the hidden file `objname` (registered under
    /// `uak`).
    pub fn read_hidden_with_key(&self, objname: &str, uak: &str) -> StegResult<Vec<u8>> {
        let entry = self.entry_for(objname, uak)?;
        self.read_hidden_entry(&entry)
    }

    /// Read `len` bytes of the hidden file `objname` starting at `offset`.
    pub fn read_hidden_range_with_key(
        &self,
        objname: &str,
        uak: &str,
        offset: u64,
        len: usize,
    ) -> StegResult<Vec<u8>> {
        let entry = self.entry_for(objname, uak)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let name = &entry.physical_name;
        self.observed(name, &entry.fak, &keys, |io| {
            io.read_range(&io.open(name)?, offset, len, 0)
        })
    }

    /// Overwrite part of the hidden file `objname` in place (the range must
    /// already exist).
    pub fn write_hidden_range_with_key(
        &self,
        objname: &str,
        uak: &str,
        offset: u64,
        data: &[u8],
    ) -> StegResult<()> {
        let entry = self.entry_for(objname, uak)?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        let io = self.io(&keys);
        let mut object = io.open(&entry.physical_name)?;
        io.write_range(&mut object, offset, data)
    }

    /// Open a hidden file once and keep a handle for repeated positional
    /// access — the analogue of holding an open file descriptor after
    /// `steg_connect` in the kernel driver, so that every `read()` does not
    /// pay the locator walk again.
    pub fn open_hidden(&self, objname: &str, uak: &str) -> StegResult<HiddenHandle> {
        let entry = self.entry_for(objname, uak)?;
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
        self.observed(&handle.physical_name, &handle.fak, &handle.keys, |io| {
            io.read_range(&handle.object, offset, len, readahead_blocks)
        })
    }

    /// Overwrite bytes at `offset` through an open handle (in place; the
    /// range must lie within the current size).  Takes `&mut` because a
    /// coded patch under replicated metadata refreshes the handle's cached
    /// header (its chain checksum changes with the patched nodes).
    pub fn write_range_at(
        &self,
        handle: &mut HiddenHandle,
        offset: u64,
        data: &[u8],
    ) -> StegResult<()> {
        self.io(&handle.keys)
            .write_range(&mut handle.object, offset, data)
    }

    /// Public form of the UAK-directory lookup: resolve `objname` under
    /// `uak` to its directory entry.  Layers above (the VFS front-end) cache
    /// the entry per user session so repeated opens skip the directory walk.
    pub fn lookup_entry(&self, objname: &str, uak: &str) -> StegResult<DirectoryEntry> {
        self.entry_for(objname, uak)
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
            physical_name: entry.physical_name.clone(),
            fak: entry.fak,
            keys,
            object,
        })
    }

    /// Write `data` at `offset` through an open handle, extending the object
    /// (and zero-filling any gap) when the range passes the current end.
    ///
    /// In-bounds updates patch blocks in place; extending rewrites the object
    /// through the free-pool recycling path, so the handle's cached header is
    /// refreshed — which is why this takes `&mut HiddenHandle` where the
    /// in-place [`Self::write_range_at`] does not.
    pub fn write_at_handle(
        &self,
        handle: &mut HiddenHandle,
        offset: u64,
        data: &[u8],
    ) -> StegResult<()> {
        require_kind(&handle.name, handle.object.kind(), ObjectKind::File)?;
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(StegError::NoSpace)?;
        let io = self.io(&handle.keys);
        if end > handle.object.size() {
            // Grow to `end` at block granularity (zero-filling any gap),
            // then patch the written range in place — O(append), not
            // O(file).
            let mut rng = self.fork_rng();
            io.resize(&mut handle.object, end, &mut rng)?;
        }
        io.write_range(&mut handle.object, offset, data)
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

    /// Rename the hidden object `objname` to `newname` within `uak`'s
    /// directory.  Only the directory entry changes; the physical name, FAK
    /// and every block of the object stay put, so outstanding shares of the
    /// `(physical name, FAK)` pair keep working.
    pub fn rename_hidden(&self, objname: &str, newname: &str, uak: &str) -> StegResult<()> {
        if newname.is_empty() || newname.contains('\0') {
            return Err(StegError::InvalidName(newname.to_string()));
        }
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (mut dir, existing) = self.load_uak_directory(&uak_keys)?;
        if dir.find(newname).is_some() {
            return Err(StegError::AlreadyExists(newname.to_string()));
        }
        let mut entry = dir
            .remove(objname)
            .ok_or_else(|| StegError::NotFound(objname.to_string()))?;
        entry.name = newname.to_string();
        // The object itself is untouched by a rename, but the conservative
        // contract is that *every* namespace mutation invalidates.
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        self.forget_object(&entry.physical_name, &entry.fak, &keys);
        dir.insert(entry)?;
        self.session.lock().disconnect(objname);
        self.save_uak_directory(&uak_keys, &dir, existing)
    }

    fn read_hidden_entry(&self, entry: &DirectoryEntry) -> StegResult<Vec<u8>> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        self.read_observed(entry, &keys)
    }

    /// Delete the hidden object `objname` and remove it from the UAK
    /// directory.  A hidden directory must be empty (deleting a populated
    /// listing would orphan its children's blocks forever).  Returns the
    /// removed entry so callers that track objects by physical name (the
    /// VFS object cache) need not re-walk the directory just to learn it.
    ///
    /// As in [`Self::remove_dir_child`], the name is unpublished *before*
    /// the object is destroyed — two transactions, in the order whose
    /// interruption leaks the object's blocks (allocated, unreferenced)
    /// rather than leaving a name that lists but can be neither read,
    /// re-created nor deleted.
    pub fn delete_hidden(&self, objname: &str, uak: &str) -> StegResult<DirectoryEntry> {
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (mut dir, existing) = self.load_uak_directory(&uak_keys)?;
        let entry = dir
            .remove(objname)
            .ok_or_else(|| StegError::NotFound(objname.to_string()))?;
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        let _obj_lock = self.object_guard(&entry.physical_name);
        // The on-disk UAK directory is only rewritten below, so a refusal
        // here leaves the object fully intact.
        let obj = self.open_for_removal(&entry, &keys)?;
        self.save_uak_directory(&uak_keys, &dir, existing)?;
        self.destroy_entry(&entry, &keys, &obj)?;
        Ok(entry)
    }

    /// `steg_hide`: convert the plain file at `pathname` into the hidden
    /// object `objname`; the plain source is deleted on success.
    pub fn steg_hide(&self, pathname: &str, objname: &str, uak: &str) -> StegResult<()> {
        let data = self.fs.read_file(pathname)?;
        self.steg_create(objname, uak, ObjectKind::File)?;
        self.write_hidden_with_key(objname, uak, &data)?;
        self.fs.delete(pathname)?;
        Ok(())
    }

    /// `steg_unhide`: convert the hidden object `objname` back into a plain
    /// file at `pathname`; the hidden source is deleted on success.
    pub fn steg_unhide(&self, pathname: &str, objname: &str, uak: &str) -> StegResult<()> {
        let data = self.read_hidden_with_key(objname, uak)?;
        self.fs.write_file(pathname, &data)?;
        self.delete_hidden(objname, uak)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sessions (steg_connect / steg_disconnect)
    // ------------------------------------------------------------------

    /// `steg_connect`: make `objname` (and, for directories, its offspring)
    /// visible in the current session, so subsequent reads and writes do not
    /// need the UAK again.
    pub fn steg_connect(&self, objname: &str, uak: &str) -> StegResult<()> {
        let entry = self.entry_for(objname, uak)?;
        self.connect_entry(&entry)
    }

    fn connect_entry(&self, entry: &DirectoryEntry) -> StegResult<()> {
        self.session.lock().connect(ConnectedObject::from(entry));
        if entry.kind == ObjectKind::Directory {
            let children = self.read_directory_listing(entry)?;
            for child in &children.entries {
                self.connect_entry(child)?;
            }
        }
        Ok(())
    }

    /// `steg_disconnect`: remove `objname` from the session.  Returns true if
    /// it was connected.
    pub fn steg_disconnect(&self, objname: &str) -> bool {
        self.session.lock().disconnect(objname)
    }

    /// Disconnect every object (the paper does this automatically at
    /// logoff).  Logoff also means no one is left who may read cached
    /// plaintext, so the read caches and the repair queue are purged and
    /// zeroed.
    pub fn disconnect_all(&self) {
        self.session.lock().disconnect_all();
        self.repair_queue.lock().clear();
        self.read_cache.purge();
    }

    /// Names of all currently connected hidden objects.
    pub fn connected_objects(&self) -> Vec<String> {
        self.session.lock().connected_names()
    }

    /// Read a connected hidden file by name.
    pub fn read_hidden(&self, objname: &str) -> StegResult<Vec<u8>> {
        let entry = self.connected_entry(objname)?;
        self.read_hidden_entry(&entry)
    }

    /// Write a connected hidden file by name.
    pub fn write_hidden(&self, objname: &str, data: &[u8]) -> StegResult<()> {
        let entry = self.connected_entry(objname)?;
        self.write_hidden_entry(&entry, data)
    }

    fn connected_entry(&self, objname: &str) -> StegResult<DirectoryEntry> {
        let session = self.session.lock();
        let c = session
            .get(objname)
            .ok_or_else(|| StegError::NotConnected(objname.to_string()))?;
        Ok(DirectoryEntry {
            name: c.name.clone(),
            physical_name: c.physical_name.clone(),
            fak: c.fak,
            kind: c.kind,
        })
    }

    // ------------------------------------------------------------------
    // Hidden directories
    // ------------------------------------------------------------------

    /// Read the child listing of a hidden directory object.  Takes the
    /// object's shard, so a concurrent listing rewrite cannot tear the read.
    fn read_directory_listing(&self, entry: &DirectoryEntry) -> StegResult<UakDirectory> {
        let _obj_lock = self.object_guard(&entry.physical_name);
        self.read_listing_locked(entry)
    }

    /// As [`Self::read_directory_listing`] but with the object shard already
    /// held by the caller.
    fn read_listing_locked(&self, entry: &DirectoryEntry) -> StegResult<UakDirectory> {
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        parse_listing(&self.read_observed(entry, &keys)?)
    }

    /// Identity (physical name, FAK) of a directory's shadow-listing object.
    /// Derived, never stored: `\u{1}` is rejected in object names, so a
    /// shadow's physical name can never collide with a real child's, and the
    /// FAK is domain-separated from the directory's own.
    fn shadow_identity(physical: &str, fak: &[u8; FAK_LEN]) -> (String, [u8; FAK_LEN]) {
        let shadow_physical = format!("{physical}\u{1}shadow");
        let shadow_fak = sha256_concat(&[b"stegfs-shadow-fak", fak]);
        (shadow_physical, shadow_fak)
    }

    /// Persist `children` as the listing of the hidden directory `parent`
    /// (object shard already held), then mirror it into the directory's
    /// shadow-listing object.  The shadow is an ordinary hidden object under
    /// the volume policy — indistinguishable on the raw device and reachable
    /// only with the directory's FAK — and is what lets the scavenger rebuild
    /// a directory whose own metadata is damaged beyond its redundancy (see
    /// [`Self::rebuild_dir_from_shadow`]).
    fn save_listing_locked(
        &self,
        parent: &DirectoryEntry,
        children: &UakDirectory,
    ) -> StegResult<()> {
        let parent_keys = self.keys_for(&parent.physical_name, &parent.fak);
        let io = self.io(&parent_keys);
        let mut parent_obj = io.open(&parent.physical_name)?;
        let mut rng = self.fork_rng();
        io.write(&mut parent_obj, &children.serialize(), &mut rng)?;
        self.save_shadow_listing(parent, children)
    }

    /// Upsert the shadow-listing companion of the hidden directory `parent`
    /// (created lazily on the first listing mutation).
    fn save_shadow_listing(
        &self,
        parent: &DirectoryEntry,
        children: &UakDirectory,
    ) -> StegResult<()> {
        if children.entries.is_empty() {
            // An empty listing needs no recovery source; dropping the shadow
            // keeps an empty directory's block footprint unchanged.
            self.delete_shadow_listing(&parent.physical_name, &parent.fak);
            return Ok(());
        }
        let (shadow_physical, shadow_fak) =
            Self::shadow_identity(&parent.physical_name, &parent.fak);
        let shadow_keys = self.keys_for(&shadow_physical, &shadow_fak);
        let io = self.object_io(&shadow_keys);
        let mut shadow_obj = match io.open(&shadow_physical) {
            Ok(obj) => obj,
            Err(e) if e.is_not_found() => io.create(
                &shadow_physical,
                ObjectKind::File,
                self.params.hidden_policy,
            )?,
            Err(e) => return Err(e),
        };
        let mut rng = self.fork_rng();
        io.write(&mut shadow_obj, &children.serialize(), &mut rng)
    }

    /// Best-effort removal of a directory's shadow listing when the
    /// directory itself is destroyed.  A missing shadow (directory never had
    /// a listing mutation) is not an error.
    fn delete_shadow_listing(&self, physical: &str, fak: &[u8; FAK_LEN]) {
        let (shadow_physical, shadow_fak) = Self::shadow_identity(physical, fak);
        let shadow_keys = self.keys_for(&shadow_physical, &shadow_fak);
        let io = self.object_io(&shadow_keys);
        if let Ok(shadow_obj) = io.open(&shadow_physical) {
            let mut rng = self.fork_rng();
            let _ = io.delete(&shadow_obj, &mut rng);
        }
        self.read_cache.drop_keys(&shadow_physical, &shadow_fak);
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
    pub fn rebuild_dir_from_shadow(&self, entry: &DirectoryEntry) -> StegResult<DirRebuild> {
        require_kind(&entry.name, entry.kind, ObjectKind::Directory)?;
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
            if self
                .object_io(&child_keys)
                .open(&child.physical_name)
                .is_ok()
            {
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
            if io.delete(&old, &mut rng).is_err() {
                io.destroy_unreadable(&old, &mut rng)?;
            }
        }
        self.read_cache.invalidate(keys.signature());

        let policy = self.params.hidden_policy;
        let mut obj = io.create(&entry.physical_name, ObjectKind::Directory, policy)?;
        io.write(&mut obj, &kept.serialize(), &mut rng)?;
        Ok(DirRebuild {
            children_relinked: kept.entries.len(),
            children_dropped: dropped,
        })
    }

    /// Read the child listing of the hidden directory described by `entry`.
    /// This is the building block the VFS uses to resolve `/hidden/dir/child`
    /// paths from cached entries without re-walking the UAK directory.
    pub fn read_hidden_dir_listing(&self, entry: &DirectoryEntry) -> StegResult<UakDirectory> {
        require_kind(&entry.name, entry.kind, ObjectKind::Directory)?;
        self.read_directory_listing(entry)
    }

    /// Create a new hidden file or directory *inside* the hidden directory
    /// `parent` (registered under `uak`).  The child is registered only in
    /// the parent's listing, not in the UAK directory.
    pub fn create_in_hidden_dir(
        &self,
        parent: &str,
        child_name: &str,
        uak: &str,
        kind: ObjectKind,
    ) -> StegResult<()> {
        let parent_entry = self.entry_for(parent, uak)?;
        self.create_dir_child(&parent_entry, child_name, kind)
    }

    /// Create a new hidden file or directory inside the hidden directory
    /// described by `parent` — an entry resolved at **any** depth (the VFS
    /// walks `/hidden/a/b/c` to the `b` entry and creates `c` here).  The
    /// child's physical name extends the parent's, so offspring at every
    /// level resolve from the listing chain alone, exactly as in the paper's
    /// `steg_connect`.
    pub fn create_dir_child(
        &self,
        parent: &DirectoryEntry,
        child_name: &str,
        kind: ObjectKind,
    ) -> StegResult<()> {
        require_kind(&parent.name, parent.kind, ObjectKind::Directory)?;
        if child_name.is_empty()
            || child_name.contains('\0')
            || child_name.contains('/')
            || child_name.contains('\u{1}')
        {
            return Err(StegError::InvalidName(child_name.to_string()));
        }
        // The parent's shard serialises the listing read-modify-write against
        // concurrent child creation in the same directory.
        let _parent_lock = self.object_guard(&parent.physical_name);
        let mut children = self.read_listing_locked(parent)?;
        if children.find(child_name).is_some() {
            return Err(StegError::AlreadyExists(child_name.to_string()));
        }

        // Create the child object itself.
        let fak = self.generate_fak(child_name);
        let physical_name = format!("{}/{}", parent.physical_name, child_name);
        let child_keys = self.keys_for(&physical_name, &fak);
        self.create_object(&physical_name, &child_keys, kind, self.params.hidden_policy)?;
        children.insert(DirectoryEntry {
            name: child_name.to_string(),
            physical_name,
            fak,
            kind,
        })?;

        // Persist the updated listing into the parent (and its shadow).
        self.save_listing_locked(parent, &children)
    }

    /// List the children of the hidden directory `parent`.
    pub fn list_hidden_dir(
        &self,
        parent: &str,
        uak: &str,
    ) -> StegResult<Vec<(String, ObjectKind)>> {
        let parent_entry = self.entry_for(parent, uak)?;
        require_kind(parent, parent_entry.kind, ObjectKind::Directory)?;
        let children = self.read_directory_listing(&parent_entry)?;
        Ok(children
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.kind))
            .collect())
    }

    /// Open the object behind `entry` — on the device, not from the cache —
    /// ahead of its removal, refusing a hidden directory that still lists
    /// children (destroying a populated listing would orphan their blocks
    /// forever).  Caller holds the object's shard.
    fn open_for_removal(
        &self,
        entry: &DirectoryEntry,
        keys: &ObjectKeys,
    ) -> StegResult<HiddenObject> {
        let io = self.object_io(keys);
        let obj = io.open(&entry.physical_name)?;
        if entry.kind == ObjectKind::Directory
            && !parse_listing(&io.read(&obj)?)?.entries.is_empty()
        {
            return Err(StegError::Fs(stegfs_fs::FsError::DirectoryNotEmpty(
                entry.name.clone(),
            )));
        }
        Ok(obj)
    }

    /// Destroy the already unpublished object behind `entry` (opened as
    /// `obj`, its shard held) together with everything cached for the dead
    /// binding, a directory's shadow listing and the session's connection.
    fn destroy_entry(
        &self,
        entry: &DirectoryEntry,
        keys: &ObjectKeys,
        obj: &HiddenObject,
    ) -> StegResult<()> {
        let mut rng = self.fork_rng();
        let result = self.object_io(keys).delete(obj, &mut rng);
        self.forget_object(&entry.physical_name, &entry.fak, keys);
        result?;
        if entry.kind == ObjectKind::Directory {
            self.delete_shadow_listing(&entry.physical_name, &entry.fak);
        }
        self.session.lock().disconnect(&entry.name);
        Ok(())
    }

    /// Remove (and destroy) the child `child_name` of the hidden directory
    /// described by `parent`, returning the removed child's entry.  A child
    /// directory must be empty.
    ///
    /// This is the one operation that holds **two object shards** — the
    /// parent's (serialising the listing read-modify-write) and the child's
    /// (so in-flight I/O on the child drains before its blocks are freed).
    /// The pair is acquired in ascending shard-index order; when the child's
    /// shard sorts below the parent's, the parent shard is released and the
    /// pair re-acquired in order, revalidating the listing afterwards.
    ///
    /// The child is unpublished from the parent's listing *before* its
    /// blocks are freed, so a racing lookup can never be handed an entry
    /// whose object is already gone; a crash between the two steps leaks the
    /// child's blocks (allocated, unreferenced) rather than corrupting the
    /// directory.
    pub fn remove_dir_child(
        &self,
        parent: &DirectoryEntry,
        child_name: &str,
    ) -> StegResult<DirectoryEntry> {
        require_kind(&parent.name, parent.kind, ObjectKind::Directory)?;
        let pidx = shard_index(&parent.physical_name, self.object_locks.len());
        loop {
            let pguard = self.object_guard_at(pidx);
            let children = self.read_listing_locked(parent)?;
            let child = children
                .find(child_name)
                .cloned()
                .ok_or_else(|| StegError::NotFound(child_name.to_string()))?;
            let cidx = shard_index(&child.physical_name, self.object_locks.len());
            if cidx == pidx {
                // One mutex covers both objects; it is already held.
                return self.remove_child_locked(parent, children, child, pguard, None);
            }
            if cidx > pidx {
                let cguard = self.object_guard_at(cidx);
                return self.remove_child_locked(parent, children, child, pguard, Some(cguard));
            }
            // The child's shard sorts first: release, re-acquire in order,
            // and revalidate the listing (it may have changed meanwhile).
            drop(pguard);
            let cguard = self.object_guard_at(cidx);
            let pguard = self.object_guard_at(pidx);
            let children = self.read_listing_locked(parent)?;
            match children.find(child_name) {
                Some(c) if c.physical_name == child.physical_name && c.fak == child.fak => {
                    let child = c.clone();
                    return self.remove_child_locked(parent, children, child, pguard, Some(cguard));
                }
                // The entry changed (or vanished) while unlocked; retry from
                // the top so the fresh binding is re-resolved.
                _ => continue,
            }
        }
    }

    /// Second half of [`Self::remove_dir_child`]: both shards held.
    fn remove_child_locked(
        &self,
        parent: &DirectoryEntry,
        mut children: UakDirectory,
        child: DirectoryEntry,
        _parent_shard: MutexGuard<'_, ()>,
        _child_shard: Option<MutexGuard<'_, ()>>,
    ) -> StegResult<DirectoryEntry> {
        let child_keys = self.keys_for(&child.physical_name, &child.fak);
        let child_obj = self.open_for_removal(&child, &child_keys)?;

        // Unpublish, then destroy.
        children.remove(&child.name);
        self.save_listing_locked(parent, &children)?;
        self.destroy_entry(&child, &child_keys, &child_obj)?;
        Ok(child)
    }

    /// Rename the child `old` of the hidden directory described by `parent`
    /// to `new`.  Only the listing entry changes — the child's physical name,
    /// FAK and blocks stay put, so open handles and outstanding shares keep
    /// working, exactly as with [`Self::rename_hidden`] at top level.
    pub fn rename_dir_child(
        &self,
        parent: &DirectoryEntry,
        old: &str,
        new: &str,
    ) -> StegResult<()> {
        require_kind(&parent.name, parent.kind, ObjectKind::Directory)?;
        if new.is_empty() || new.contains('\0') || new.contains('\u{1}') {
            return Err(StegError::InvalidName(new.to_string()));
        }
        let _parent_lock = self.object_guard(&parent.physical_name);
        let mut children = self.read_listing_locked(parent)?;
        if children.find(new).is_some() {
            return Err(StegError::AlreadyExists(new.to_string()));
        }
        let mut entry = children
            .remove(old)
            .ok_or_else(|| StegError::NotFound(old.to_string()))?;
        entry.name = new.to_string();
        let keys = self.keys_for(&entry.physical_name, &entry.fak);
        self.forget_object(&entry.physical_name, &entry.fak, &keys);
        children.insert(entry)?;
        self.save_listing_locked(parent, &children)?;
        self.session.lock().disconnect(old);
        Ok(())
    }

    /// Name-based convenience for [`Self::remove_dir_child`]: delete the
    /// child `child` of the top-level hidden directory `parent` (registered
    /// under `uak`).
    pub fn delete_in_hidden_dir(
        &self,
        parent: &str,
        child: &str,
        uak: &str,
    ) -> StegResult<DirectoryEntry> {
        let parent_entry = self.entry_for(parent, uak)?;
        self.remove_dir_child(&parent_entry, child)
    }

    /// Name-based convenience for [`Self::rename_dir_child`].
    pub fn rename_in_hidden_dir(
        &self,
        parent: &str,
        old: &str,
        new: &str,
        uak: &str,
    ) -> StegResult<()> {
        let parent_entry = self.entry_for(parent, uak)?;
        self.rename_dir_child(&parent_entry, old, new)
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
        let entry = self.entry_for(objname, uak)?;
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
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (mut dir, existing) = self.load_uak_directory(&uak_keys)?;
        let name = entry.name.clone();
        dir.insert(entry)?;
        self.save_uak_directory(&uak_keys, &dir, existing)?;
        Ok(name)
    }

    /// Revoke a previously shared object: re-key it under a fresh FAK (and a
    /// fresh physical name) so that recipients of the old `(name, FAK)` pair
    /// lose access, as described at the end of §3.2.  The replacement keeps
    /// the object's durability policy.
    ///
    /// The old object is destroyed before the new binding is published, in
    /// two transactions: an interruption between them leaves the name bound
    /// to an object that is gone (the window [`Self::delete_hidden`] no
    /// longer has).  Closing it needs both steps in one transaction.
    pub fn revoke_sharing(&self, objname: &str, uak: &str) -> StegResult<()> {
        let uak_keys = self.uak_keys(uak);
        let _uak_lock = self.uak_guard(uak);
        let (mut dir, existing) = self.load_uak_directory(&uak_keys)?;
        let entry = dir
            .remove(objname)
            .ok_or_else(|| StegError::NotFound(objname.to_string()))?;

        // Read the current contents with the old key.
        let old_keys = self.keys_for(&entry.physical_name, &entry.fak);
        let old_io = self.object_io(&old_keys);
        let (data, policy) = {
            let _obj_lock = self.object_guard(&entry.physical_name);
            let old_obj = old_io.open(&entry.physical_name)?;
            (old_io.read(&old_obj)?, old_obj.header.policy)
        };

        // Create the replacement under a fresh FAK and physical name.
        let revision = self.fak_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let fak = self.generate_fak(objname);
        let physical_name = format!("{}:{}#rev{}", Self::owner_tag(uak), objname, revision);
        let new_keys = self.keys_for(&physical_name, &fak);
        let new_io = self.object_io(&new_keys);
        let mut new_obj = new_io.create(&physical_name, entry.kind, policy)?;
        let mut rng = self.fork_rng();
        new_io.write(&mut new_obj, &data, &mut rng)?;

        // Destroy the old object, invalidating every outstanding copy of the
        // old FAK.
        {
            let _obj_lock = self.object_guard(&entry.physical_name);
            let old_obj = old_io.open(&entry.physical_name)?;
            let result = old_io.delete(&old_obj, &mut rng);
            self.forget_object(&entry.physical_name, &entry.fak, &old_keys);
            result?;
        }

        dir.insert(DirectoryEntry {
            name: objname.to_string(),
            physical_name,
            fak,
            kind: entry.kind,
        })?;
        self.save_uak_directory(&uak_keys, &dir, existing)
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
        let plain_blocks: std::collections::HashSet<u64> =
            self.fs.plain_object_blocks()?.into_iter().collect();

        let mut hidden_blocks = Vec::new();
        for block in sb.data_start..sb.total_blocks {
            if self.fs.is_block_allocated(block) && !plain_blocks.contains(&block) {
                hidden_blocks.push((block, self.fs.read_raw_block(block)?));
            }
        }

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

        let config = match fs.read_file(CONFIG_PATH) {
            Ok(data) => VolumeConfig::deserialize(&data).unwrap_or(VolumeConfig {
                abandoned_count: 0,
                dummy_seed: 0,
                dummy_count: 0,
                dummy_size: 0,
            }),
            Err(_) => VolumeConfig {
                abandoned_count: 0,
                dummy_seed: 0,
                dummy_count: 0,
                dummy_size: 0,
            },
        };

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

    #[test]
    fn format_creates_dummies_and_abandoned_blocks() {
        let fs = small_fs();
        let report = fs.space_report().unwrap();
        assert!(report.abandoned_blocks > 0);
        assert!(report.hidden_blocks > 0, "dummy files occupy hidden blocks");
        assert!(report.free_blocks > 0);
        // The config file is a plain file.
        assert!(fs.plain_exists(CONFIG_PATH).unwrap());
    }

    #[test]
    fn plain_files_work_alongside_hidden_objects() {
        let fs = small_fs();
        fs.write_plain("/notes.txt", b"shopping list").unwrap();
        fs.create_plain_dir("/docs").unwrap();
        fs.write_plain("/docs/report.txt", b"quarterly report")
            .unwrap();
        assert_eq!(fs.read_plain("/notes.txt").unwrap(), b"shopping list");
        let names = fs.list_plain_dir("/").unwrap();
        assert!(names.contains(&"notes.txt".to_string()));
        assert!(names.contains(&"docs".to_string()));
        fs.delete_plain("/notes.txt").unwrap();
        assert!(!fs.plain_exists("/notes.txt").unwrap());
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
            fs.list_hidden(UAK).unwrap(),
            vec![("budget".to_string(), ObjectKind::File)]
        );
    }

    #[test]
    fn wrong_uak_sees_nothing() {
        let fs = small_fs();
        fs.steg_create("budget", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("budget", UAK, b"secret").unwrap();
        // A different UAK has an empty directory and cannot find the object.
        assert!(fs.list_hidden("some other key").unwrap().is_empty());
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
        fs.write_plain("/visible.txt", b"plain").unwrap();
        fs.steg_create("invisible", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("invisible", UAK, b"hidden data")
            .unwrap();
        let listing = fs.list_plain_dir("/").unwrap();
        assert!(listing.iter().any(|n| n == "visible.txt"));
        assert!(
            !listing.iter().any(|n| n.contains("invisible")),
            "hidden object leaked into the central directory: {listing:?}"
        );
    }

    #[test]
    fn steg_hide_and_unhide_roundtrip() {
        let fs = small_fs();
        fs.write_plain("/diary.txt", b"dear diary").unwrap();
        fs.steg_hide("/diary.txt", "diary", UAK).unwrap();
        assert!(
            !fs.plain_exists("/diary.txt").unwrap(),
            "plain source deleted"
        );
        assert_eq!(
            fs.read_hidden_with_key("diary", UAK).unwrap(),
            b"dear diary"
        );

        fs.steg_unhide("/diary-restored.txt", "diary", UAK).unwrap();
        assert_eq!(fs.read_plain("/diary-restored.txt").unwrap(), b"dear diary");
        assert!(fs
            .read_hidden_with_key("diary", UAK)
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn connect_read_write_disconnect() {
        let fs = small_fs();
        fs.steg_create("plans", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("plans", UAK, b"v1").unwrap();

        fs.steg_connect("plans", UAK).unwrap();
        assert_eq!(fs.connected_objects(), vec!["plans".to_string()]);
        assert_eq!(fs.read_hidden("plans").unwrap(), b"v1");
        fs.write_hidden("plans", b"v2 updated through the session")
            .unwrap();
        assert_eq!(
            fs.read_hidden_with_key("plans", UAK).unwrap(),
            b"v2 updated through the session"
        );

        assert!(fs.steg_disconnect("plans"));
        assert!(!fs.steg_disconnect("plans"));
        assert!(matches!(
            fs.read_hidden("plans"),
            Err(StegError::NotConnected(_))
        ));
    }

    #[test]
    fn connecting_directory_reveals_children() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        fs.create_in_hidden_dir("vault", "passwords", UAK, ObjectKind::File)
            .unwrap();
        fs.create_in_hidden_dir("vault", "keys", UAK, ObjectKind::File)
            .unwrap();
        assert_eq!(fs.list_hidden_dir("vault", UAK).unwrap().len(), 2);

        fs.steg_connect("vault", UAK).unwrap();
        let mut connected = fs.connected_objects();
        connected.sort();
        assert_eq!(connected, vec!["keys", "passwords", "vault"]);
        // Children are readable through the session.
        fs.write_hidden("passwords", b"hunter2").unwrap();
        assert_eq!(fs.read_hidden("passwords").unwrap(), b"hunter2");
    }

    #[test]
    fn delete_and_rename_inside_hidden_dir() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        let free_empty = fs.plain_fs().free_data_blocks();
        fs.create_in_hidden_dir("vault", "a", UAK, ObjectKind::File)
            .unwrap();
        fs.create_in_hidden_dir("vault", "b", UAK, ObjectKind::File)
            .unwrap();
        let parent = fs.lookup_entry("vault", UAK).unwrap();
        let a = fs
            .read_hidden_dir_listing(&parent)
            .unwrap()
            .find("a")
            .cloned()
            .unwrap();
        fs.write_hidden_entry(&a, &vec![7u8; 10 * 1024]).unwrap();

        // Rename keeps the contents and the physical identity.
        fs.rename_in_hidden_dir("vault", "a", "renamed", UAK)
            .unwrap();
        let listing = fs.list_hidden_dir("vault", UAK).unwrap();
        assert!(listing.iter().any(|(n, _)| n == "renamed"));
        assert!(!listing.iter().any(|(n, _)| n == "a"));
        let renamed = fs
            .read_hidden_dir_listing(&parent)
            .unwrap()
            .find("renamed")
            .cloned()
            .unwrap();
        assert_eq!(renamed.physical_name, a.physical_name);
        assert!(matches!(
            fs.rename_in_hidden_dir("vault", "renamed", "b", UAK),
            Err(StegError::AlreadyExists(_))
        ));
        assert!(fs
            .rename_in_hidden_dir("vault", "ghost", "x", UAK)
            .unwrap_err()
            .is_not_found());

        // Deleting returns the child's blocks and unpublishes the entry.
        let removed = fs.delete_in_hidden_dir("vault", "renamed", UAK).unwrap();
        assert_eq!(removed.physical_name, a.physical_name);
        fs.delete_in_hidden_dir("vault", "b", UAK).unwrap();
        assert!(fs.list_hidden_dir("vault", UAK).unwrap().is_empty());
        assert_eq!(fs.plain_fs().free_data_blocks(), free_empty);
        assert!(fs
            .delete_in_hidden_dir("vault", "renamed", UAK)
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn delete_in_hidden_dir_requires_empty_subdirectory() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        fs.create_in_hidden_dir("vault", "sub", UAK, ObjectKind::Directory)
            .unwrap();
        let parent = fs.lookup_entry("vault", UAK).unwrap();
        let sub = fs
            .read_hidden_dir_listing(&parent)
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
        sub_io
            .write(&mut sub_obj, &listing.serialize(), &mut rng)
            .unwrap();

        assert!(matches!(
            fs.delete_in_hidden_dir("vault", "sub", UAK),
            Err(StegError::Fs(stegfs_fs::FsError::DirectoryNotEmpty(_)))
        ));
        // Still listed after the refusal.
        assert_eq!(fs.list_hidden_dir("vault", UAK).unwrap().len(), 1);
    }

    #[test]
    fn duplicate_children_rejected() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        fs.create_in_hidden_dir("vault", "a", UAK, ObjectKind::File)
            .unwrap();
        assert!(matches!(
            fs.create_in_hidden_dir("vault", "a", UAK, ObjectKind::File),
            Err(StegError::AlreadyExists(_))
        ));
        // Creating inside a hidden *file* is a kind error.
        fs.steg_create("not-a-dir", UAK, ObjectKind::File).unwrap();
        assert!(matches!(
            fs.create_in_hidden_dir("not-a-dir", "x", UAK, ObjectKind::File),
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
                .write_raw_block(group[g % 3], &[0u8; 1024])
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
    fn survives_unmount_and_remount() {
        let fs = small_fs();
        fs.write_plain("/p.txt", b"plain").unwrap();
        fs.steg_create("h", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("h", UAK, b"hidden across remount")
            .unwrap();
        let dev = fs.unmount().unwrap();

        let fs = StegFs::mount(dev, StegParams::for_tests()).unwrap();
        assert_eq!(fs.read_plain("/p.txt").unwrap(), b"plain");
        assert_eq!(
            fs.read_hidden_with_key("h", UAK).unwrap(),
            b"hidden across remount"
        );
    }

    #[test]
    fn backup_and_recovery_preserve_hidden_and_plain_data() {
        let fs = small_fs();
        fs.write_plain("/plain.txt", b"plain data").unwrap();
        fs.create_plain_dir("/dir").unwrap();
        fs.write_plain("/dir/nested.txt", b"nested").unwrap();
        fs.steg_create("secret", UAK, ObjectKind::File).unwrap();
        fs.write_hidden_with_key("secret", UAK, b"hidden survives backup")
            .unwrap();

        let image = fs.steg_backup(b"admin key").unwrap();

        // Recover onto a brand-new device.
        let fresh = MemBlockDevice::new(1024, 8192);
        let recovered =
            StegFs::steg_recovery(fresh, &image, b"admin key", StegParams::for_tests()).unwrap();
        assert_eq!(recovered.read_plain("/plain.txt").unwrap(), b"plain data");
        assert_eq!(recovered.read_plain("/dir/nested.txt").unwrap(), b"nested");
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
            .flat_map(|uak| fs.list_hidden(uak).unwrap())
            .map(|(name, _)| name)
            .collect();
        assert_eq!(visible, vec!["addresses"]);

        // Level 1 sees both.
        let visible: Vec<String> = hierarchy
            .visible_at(1)
            .unwrap()
            .iter()
            .flat_map(|uak| fs.list_hidden(uak).unwrap())
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
        fs.delete_hidden("temp", UAK).unwrap();
        let after = fs.space_report().unwrap();
        assert!(after.free_blocks > before.free_blocks);
        assert!(fs
            .read_hidden_with_key("temp", UAK)
            .unwrap_err()
            .is_not_found());
        assert!(fs.list_hidden(UAK).unwrap().is_empty());
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

        fs.rename_hidden("old-name", "new-name", UAK).unwrap();
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
            fs.rename_hidden("new-name", "other", UAK),
            Err(StegError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.rename_hidden("new-name", "", UAK),
            Err(StegError::InvalidName(_))
        ));
        assert!(matches!(
            fs.rename_hidden("ghost", "x", UAK),
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
        assert_eq!(
            fs.read_hidden_range_with_key("ranged", UAK, 2000, 500)
                .unwrap(),
            &data[2000..2500]
        );
        fs.write_hidden_range_with_key("ranged", UAK, 2048, &[9u8; 1024])
            .unwrap();
        let mut expected = data.clone();
        expected[2048..3072].copy_from_slice(&[9u8; 1024]);
        assert_eq!(fs.read_hidden_with_key("ranged", UAK).unwrap(), expected);
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
                    fs.delete_hidden("obj-0", &uak).unwrap();
                    assert_eq!(fs.list_hidden(&uak).unwrap().len(), 3);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Every namespace still resolves only under its own key.
        for t in 0..threads {
            let uak = format!("thread key {t}");
            assert_eq!(fs.list_hidden(&uak).unwrap().len(), 3);
        }
        assert!(fs.list_hidden("stranger").unwrap().is_empty());
    }

    // ------------------------------------------------------------------
    // Read-repair (online self-healing)
    // ------------------------------------------------------------------

    fn smash_raw(fs: &StegFs<MemBlockDevice>, block: u64, seed: u8) {
        let junk: Vec<u8> = (0..fs.plain_fs().block_size())
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect();
        fs.plain_fs().write_raw_block(block, &junk).unwrap();
    }

    fn raw_bytes(fs: &StegFs<MemBlockDevice>, blocks: &[u64]) -> Vec<u8> {
        let mut buf = vec![0u8; blocks.len() * fs.plain_fs().block_size()];
        fs.plain_fs()
            .read_raw_blocks_into(blocks, &mut buf)
            .unwrap();
        buf
    }

    #[test]
    fn degraded_read_queues_and_drains_a_repair() {
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
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("cfg.dat", UAK).unwrap(), data);
        assert_eq!(fs.pending_repairs(), 1, "degraded read queues one ticket");
        // A storm of degraded reads against the same object dedups.
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("cfg.dat", UAK).unwrap(), data);
        assert_eq!(fs.pending_repairs(), 1);

        let drain = fs.process_repairs(8);
        assert_eq!(
            drain,
            RepairDrain {
                processed: 1,
                completed: 1,
                failed: 0
            }
        );
        assert_eq!(fs.pending_repairs(), 0);
        assert_eq!(
            raw_bytes(&fs, &victims),
            before,
            "read-repair restores the image byte-identically"
        );
        let summary = fs.obs().repair.summary();
        assert_eq!(summary.queued, 1, "the queued counter is post-dedup");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.failed, 0);
        // The volume has converged: a fresh cold read is healthy.
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("cfg.dat", UAK).unwrap(), data);
        assert_eq!(fs.pending_repairs(), 0);
    }

    /// Create a 2-of-4 file `name` under `uak`, smash one of its shares and
    /// read it cold: the degraded read queues one repair ticket.
    fn queue_degraded_ticket(fs: &StegFs<MemBlockDevice>, name: &str, uak: &str) {
        let policy = Policy::Disperse { m: 2, n: 4 };
        fs.steg_create_with_policy(name, uak, ObjectKind::File, policy)
            .unwrap();
        let data = vec![0x3cu8; 4 * 1024];
        fs.write_hidden_with_key(name, uak, &data).unwrap();
        let share = fs.hidden_share_extents(name, uak).unwrap()[0][1];
        smash_raw(fs, share, 3);
        fs.purge_read_caches();
        let queued = fs.pending_repairs();
        assert_eq!(fs.read_hidden_with_key(name, uak).unwrap(), data);
        assert_eq!(fs.pending_repairs(), queued + 1, "degraded read queues");
    }

    #[test]
    fn sign_off_drops_the_departing_sessions_repair_tickets() {
        let fs = small_fs();
        let bob = "bob's access key";
        queue_degraded_ticket(&fs, "alice.dat", UAK);
        queue_degraded_ticket(&fs, "bob.dat", bob);
        // A ticket holds a FAK: it dies with the session that could use it,
        // while another live session's ticket stays queued.
        fs.purge_session_caches(UAK);
        assert_eq!(fs.pending_repairs(), 1);
        fs.purge_session_caches(bob);
        assert_eq!(fs.pending_repairs(), 0);
        // Re-reading the still-damaged object queues afresh: the dedup set
        // was swept with the queue.
        fs.purge_read_caches();
        fs.read_hidden_with_key("bob.dat", bob).unwrap();
        assert_eq!(fs.pending_repairs(), 1);
        fs.disconnect_all();
        assert_eq!(fs.pending_repairs(), 0, "disconnect_all clears the queue");
    }

    #[test]
    fn untagged_repair_tickets_die_at_any_sign_off() {
        // With no read cache nothing is ever tagged to a session, so no
        // ticket has a known owner: the next sign-off of anyone sweeps it,
        // as the read cache sweeps its own unscoped entries.
        let params = StegParams {
            readpath_cache_blocks: 0,
            ..StegParams::for_tests()
        };
        let fs = StegFs::format(MemBlockDevice::new(1024, 8192), params).unwrap();
        queue_degraded_ticket(&fs, "orphan.dat", UAK);
        fs.purge_session_caches("somebody else");
        assert_eq!(fs.pending_repairs(), 0);
    }

    #[test]
    fn the_repair_queue_is_bounded() {
        let mut queue = RepairQueue::default();
        let sig = |i: usize| {
            let mut sig = [0u8; crate::crypt::SIGNATURE_LEN];
            sig[..8].copy_from_slice(&(i as u64).to_be_bytes());
            sig
        };
        let ticket = |i: usize| RepairTicket {
            physical_name: format!("object-{i}"),
            fak: [7; FAK_LEN],
            signature: sig(i),
        };
        for i in 0..REPAIR_QUEUE_CAPACITY {
            assert_eq!(queue.offer(&sig(i), || ticket(i)), Offer::Queued);
        }
        let late = REPAIR_QUEUE_CAPACITY;
        assert_eq!(queue.offer(&sig(late), || ticket(late)), Offer::Refused);
        assert_eq!(queue.offer(&sig(3), || unreachable!()), Offer::Duplicate);
        assert_eq!(queue.pop().map(|t| t.signature), Some(sig(0)));
        assert_eq!(queue.offer(&sig(late), || ticket(late)), Offer::Queued);
        assert_eq!(queue.tickets.len(), REPAIR_QUEUE_CAPACITY);
        queue.clear();
        assert!(queue.tickets.is_empty() && queue.enqueued.is_empty());
    }

    #[test]
    fn degraded_metadata_read_queues_and_heals() {
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
        assert_eq!(
            fs.read_hidden_with_key("meta.dat", UAK).unwrap(),
            data,
            "metadata replicas carry the read"
        );
        assert_eq!(fs.pending_repairs(), 1);
        let drain = fs.process_repairs(1);
        assert_eq!(drain.completed, 1);
        assert_eq!(drain.failed, 0);
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
        assert_eq!(
            fs.pending_repairs(),
            1,
            "ticket queued against incarnation 1"
        );

        // A concurrent writer replaces the object before the drain runs.
        let new = vec![0x22u8; 7 * 1024];
        fs.write_hidden_with_key("race.dat", UAK, &new).unwrap();

        let drain = fs.process_repairs(4);
        assert_eq!(drain.processed, 1);
        assert_eq!(drain.failed, 0);
        // The drain re-opened fresh: the current incarnation stays current.
        assert_eq!(fs.read_hidden_with_key("race.dat", UAK).unwrap(), new);

        // A ticket whose object was deleted resolves as completed too.
        smash_raw(
            &fs,
            fs.hidden_share_extents("race.dat", UAK).unwrap()[0][1],
            9,
        );
        fs.purge_read_caches();
        assert_eq!(fs.read_hidden_with_key("race.dat", UAK).unwrap(), new);
        assert_eq!(fs.pending_repairs(), 1);
        fs.delete_hidden("race.dat", UAK).unwrap();
        let drain = fs.process_repairs(4);
        assert_eq!(drain.processed, 1);
        assert_eq!(drain.failed, 0);
    }

    #[test]
    fn rebuild_lost_directory_from_shadow_listing() {
        let fs = small_fs();
        fs.steg_create("vault", UAK, ObjectKind::Directory).unwrap();
        fs.create_in_hidden_dir("vault", "a", UAK, ObjectKind::File)
            .unwrap();
        fs.create_in_hidden_dir("vault", "b", UAK, ObjectKind::File)
            .unwrap();
        let parent = fs.lookup_entry("vault", UAK).unwrap();
        let a = fs
            .read_hidden_dir_listing(&parent)
            .unwrap()
            .find("a")
            .cloned()
            .unwrap();
        let payload = vec![0x5au8; 9 * 1024];
        fs.write_hidden_entry(&a, &payload).unwrap();

        // A live directory is never clobbered from its shadow.
        assert!(matches!(
            fs.rebuild_dir_from_shadow(&parent),
            Err(StegError::AlreadyExists(_))
        ));

        // Destroy every header replica of the directory object: damage past
        // the metadata redundancy, so the listing is unreachable by key.
        let keys = fs.keys_for(&parent.physical_name, &parent.fak);
        let obj = fs.object_io(&keys).open(&parent.physical_name).unwrap();
        let headers = obj.header_blocks().to_vec();
        for (i, &h) in headers.iter().enumerate() {
            smash_raw(&fs, h, i as u8);
        }
        fs.purge_read_caches();
        assert!(fs.read_hidden_dir_listing(&parent).is_err());

        // The shadow brings back the listing in place; both children still
        // probe, so nothing is dropped and the file's bytes survive.
        let rebuilt = fs.rebuild_dir_from_shadow(&parent).unwrap();
        assert_eq!(rebuilt.children_relinked, 2);
        assert!(rebuilt.children_dropped.is_empty());
        let listing = fs.read_hidden_dir_listing(&parent).unwrap();
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
        let obj = fs.object_io(&keys).open(&parent.physical_name).unwrap();
        let headers = obj.header_blocks().to_vec();
        for (i, &h) in headers.iter().enumerate() {
            smash_raw(&fs, h, 0x80 + i as u8);
        }
        fs.purge_read_caches();
        let rebuilt = fs.rebuild_dir_from_shadow(&parent).unwrap();
        assert_eq!(rebuilt.children_relinked, 1);
        assert_eq!(rebuilt.children_dropped, vec!["b".to_string()]);
        let listing = fs.read_hidden_dir_listing(&parent).unwrap();
        assert!(listing.find("a").is_some() && listing.find("b").is_none());
        assert_eq!(fs.read_hidden_entry(&a).unwrap(), payload);
    }
}
