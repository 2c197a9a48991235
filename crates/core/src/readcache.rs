//! Deniability-safe read-path caching for hidden objects.
//!
//! The paper decrypts hidden blocks "on-the-fly during retrieval", and the
//! reproduction used to do so literally: every hidden read re-walked the
//! keyed locator, re-decrypted the header and inode-chain blocks and
//! re-decrypted every data block, so a warm read cost nearly as much as a
//! cold one.  [`ReadCache`] removes the redundant work while keeping the
//! on-disk image — the only thing the adversary ever sees — bit-identical.
//!
//! # The cache contract: what may be cached where, and when it must die
//!
//! Everything in this module is **RAM only**.  Nothing here is ever
//! serialised, journaled, or written to the device; a cached and an uncached
//! run of the same workload produce byte-identical disk images (asserted by
//! `tests/readpath_cache.rs`).
//!
//! Three things are cached, all keyed by material derived from the object's
//! access key (so a cache entry is exactly as secret as the key that created
//! it):
//!
//! * **Derived key sets** — the [`ObjectKeys`] of a `(physical name, FAK)`
//!   pair, keyed by a digest of the pair ([`ReadCache::keys_for`]).  The
//!   paper's `steg_connect` resolves an object's keys once per session, and
//!   so does a VFS session's first open of it; a hit skips the 1 000-iteration PBKDF2 (≈ 0.6 ms) that every other step
//!   of an `open` is small next to.  Bounded at [`KEY_CACHE_ENTRIES`]
//!   entries (under 1 MiB).
//! * **Per-object header + extent maps** — the decrypted
//!   [`HiddenHeader`] and the data/chain block lists of the inode chain,
//!   keyed by the object's 256-bit signature.  A hit skips the
//!   `locate_header` probe walk *and* the chain decryption entirely.
//! * **Decrypted data blocks** — a sharded LRU of plaintext block images,
//!   keyed by `(entry generation, physical block)`.  A hit skips the
//!   device read, the AES-CTR pass and, for a coded object, the decode.
//!   One key rule serves every policy: logical block `g * m + k` is cached
//!   under the block of share `k` of group `g`
//!   ([`ExtentList::block_cache_keys`]), so a `Plain` block, the (1, 1)
//!   code's, under its own number.
//!
//! What orders eviction: the key cache and each of the 16 block shards is
//! an exact-LRU [`LruMap`], the same mechanism as the buffer
//! cache — O(1) per lookup, insert and eviction, whatever the capacity.  A
//! hit ([`ReadCache::get_blocks`], [`ReadCache::keys_for`]) and an
//! insert make an entry the most recent of its map; an over-full map drops
//! its least recent.  Probes are not uses: [`ReadCache::contains_blocks`]
//! (the readahead filter) and a racing derivation adopting the set another
//! thread installed first leave the order alone.
//!
//! # What a hit costs
//!
//! The block calls take a whole span at once, and everything but the copy
//! is paid per *call*, not per block: every block shard the span touches is
//! locked once, before the walk, and sees its blocks in call order (so the
//! LRU order and every [`CacheStats`] field are exactly those of one-block
//! calls), each counter takes one atomic add, and the clock is read twice
//! per call — the hit/miss/evict histograms record the call's per-block
//! mean once per block ([`ReadCacheStats`]).  The lookup appends to an
//! empty buffer in slot order — the cached image for a hit, zeros for a
//! miss — so each output byte is written once: no zero-fill ahead of the
//! copy.  A warm 64 KiB span (64 hits of 1 KiB, 2-CPU Xeon, minimum of 15
//! rounds of 20 000) costs 3.4 µs, of which 2.3 µs are the 64 copies into
//! a fresh buffer and most of the rest the 64 hash lookups; filling a
//! zeroed buffer instead cost 4.9 µs in the same loop.  The same 64 hits as
//! one-block calls cost about 22 µs, because each pays its own shard lock,
//! counter updates, two clock reads, a histogram record and a span note.
//! The buffer a block-aligned read fills is then the one its caller gets
//! (`Scratch::into_vec`), not copied once more.
//!
//! When entries must die:
//!
//! * **Any mutation of the object** — write, resize/truncate, rename,
//!   unlink, re-key (sharing revocation), dummy-file rewrite, and an
//!   in-place range write that failed or found no entry — invalidates its
//!   entry ([`ReadCache::invalidate`]).
//!   Invalidation bumps a global *generation*; a reader that started its
//!   disk walk before the bump cannot install a stale entry afterwards (the
//!   insert is rejected), and plaintext blocks cached under the dead entry
//!   generation become unreachable even if the same physical block is
//!   later recycled into another object.  A key set is a pure function of
//!   `(physical name, FAK)`, so content mutations leave it alone; it is
//!   dropped when that pair stops naming the object — unlink, rename,
//!   re-key ([`ReadCache::drop_keys`]).
//! * **A committed in-place patch**, of any policy, does not kill its
//!   blocks: it *updates* them ([`ReadCache::patched`]).  The patch hands
//!   over the plaintext it encoded, every group it touched; each rewritten
//!   key that is resident is overwritten in place with its new image and
//!   becomes its shard's most recent entry, as an insert would, and a key
//!   that is not resident stays absent (no write-allocate: a patch never
//!   grows the cache).  A patch moves no block, so the entry stays, and so
//!   does its generation: the key space of its blocks, which stay
//!   servable.  The entry takes the extent list the patch left (a coded
//!   patch changes its share checks) and the header, where the patch
//!   published one (under replicated metadata its chain check changes).
//!   What moves is the entry's *insert fence*, part of the [`BlockToken`]
//!   every reader holds: a reader that picked up its token before the
//!   patch installs nothing after it, whether or not its block was
//!   rewritten, so what it fetched before the patch cannot land over the
//!   patch's image.  The patch costs O(blocks patched), not O(blocks in
//!   the object).  On `engine_mixed_io` (15 % hidden patches) the update
//!   took the read cache's block hit rate from 0.90 to 0.98 and the
//!   `BufferCache`'s from 0.76 to 0.89 against dropping the keys: a
//!   dropped key was refetched by the next read and crowded plain blocks
//!   out of the buffer cache.
//! * **Session sign-off** — the VFS purges the departing session's scope
//!   ([`ReadCache::purge_scope`]): every entry tagged with that session's
//!   keys, plus every entry whose owner was never established, is removed
//!   and zeroed, so no decrypted byte — and no key schedule — outlives the
//!   session that could legitimately use it.  Entries other live sessions
//!   resolved through their own keys stay warm.  The volume-wide logoff
//!   (`StegFs::disconnect_all`) and unmount still purge *everything*
//!   ([`ReadCache::purge`]);
//!   [`ReadCache::purge_decrypted`] is the narrower "make every read cold"
//!   hook that leaves key sets connected.  Purged and invalidated
//!   plaintext buffers are zeroed before they are freed ([`zeroize`]); an
//!   evicted, replaced or patched image is overwritten whole, in its own
//!   buffer, by the image that takes its place, so no buffer is ever freed
//!   holding plaintext.  A derived key set zeroes itself when
//!   its last holder (the cache, or an open handle that outlived the cache
//!   entry) lets go.
//! * **Remount** — the cache lives inside the mounted [`crate::StegFs`]
//!   value and is never persisted, so a crash-replay remount starts provably
//!   empty.
//!
//! The cache never makes a *negative* claim: a miss falls through to the
//! normal derive/locator/decrypt path, so wrong-key lookups behave exactly
//! as before (deniable not-found), and nothing about timing distinguishes
//! "no such object" from "not cached".  In particular the key cache is
//! filled *before* anything is known about whether the pair names a live
//! object: a wrong FAK and a never-created name both derive, both miss the
//! locator, and a repeat of either hits the key cache the same way.
//!
//! # Coherence model
//!
//! The cache is coherent for every mutation that goes through
//! [`crate::StegFs`] — which is every mutation the public API can express.
//! Writing to a hidden object through an
//! [`ObjectIo`](crate::hidden::ObjectIo) built directly on the underlying
//! `PlainFs` of a *live, cached* `StegFs` (or handed out by
//! [`StegFs::object_io`](crate::StegFs::object_io)) bypasses invalidation
//! and is unsupported (the same pre-existing rule as bypassing the object
//! shards).

use crate::crypt::{ObjectKeys, SIGNATURE_LEN};
use crate::header::HiddenHeader;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stegfs_blockdev::LruMap;
use stegfs_crypto::ct::zeroize;
use stegfs_crypto::sha256::sha256_concat;
use stegfs_obs::lock::{Mutex, MutexGuard};
use stegfs_obs::{span, ReadCacheStats};

/// Number of independently locked shards for each of the two maps.
const SHARDS: usize = 16;

/// Capacity of the derived-key cache, in entries.  One [`ObjectKeys`] is
/// 1 072 bytes on x86-64: three 32-byte keys (master, check key, signature)
/// and one expanded AES-256 key of 976 bytes (its encryption and decryption
/// schedules, each as words and as bytes; the raw block key is not kept), so
/// a full cache holds about 1.05 MiB of key sets.  A constant, not a knob: it
/// only has to exceed the number of objects one sign-on touches between
/// purges.
pub const KEY_CACHE_ENTRIES: usize = 1024;

/// What a reader holds to use an object's plaintext blocks: the entry
/// generation its blocks are cached under (the same for the whole
/// incarnation), and the entry's insert fence when the reader picked the
/// token up (moved by every in-place patch).  Lookups use the generation;
/// an insert lands only while both still match the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockToken {
    gen: u64,
    fence: u64,
}

impl BlockToken {
    /// A token that never matches a live entry: block lookups and inserts
    /// under it are no-ops.  Used when an insert lost against a concurrent
    /// invalidation.
    pub const DEAD: BlockToken = BlockToken {
        gen: u64::MAX,
        fence: u64::MAX,
    };

    fn is_dead(self) -> bool {
        self.gen == u64::MAX
    }
}

/// Cache key: the object's signature (unique per `(physical name, FAK)`
/// pair, so two UAK directories sharing the reserved physical name can never
/// collide).
pub type ObjectSig = [u8; SIGNATURE_LEN];

/// The cached block map of one hidden object: groups of `m` logical blocks
/// stored as `n` shares, plus the chain blocks that index them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentList {
    /// Share blocks in group-major order: group `g`'s `n` shares at
    /// `g * n .. (g + 1) * n`.  Under `Plain`, the (1, 1) code, these are
    /// the data blocks in logical order.
    pub data_blocks: Vec<u64>,
    /// Inode-chain blocks in walk order.
    pub chain_blocks: Vec<u64>,
    /// Per-share checksums parallel to `data_blocks`; empty where the chain
    /// entries carry none (`Plain`).
    pub share_csums: Vec<u64>,
    /// `(m, n)` of the object's durability policy: `(1, 1)` for `Plain`.
    /// Decides the keys of the plaintext-block cache (see
    /// [`Self::block_cache_keys`]).
    pub coding: (usize, usize),
}

impl ExtentList {
    /// Number of share groups.
    pub(crate) fn groups(&self) -> usize {
        self.data_blocks.len() / self.coding.1
    }

    /// The plaintext-cache keys of logical blocks `logical`: block
    /// `g * m + k` is cached under the block of share `k` of group `g`, so
    /// a (1, 1) object's blocks are cached under their own block numbers.
    /// When every share is a primary one (`m == n`) that is a slice of the
    /// extent list itself.
    pub(crate) fn block_keys(&self, logical: Range<usize>) -> Cow<'_, [u64]> {
        let (m, n) = self.coding;
        if m == n {
            return Cow::Borrowed(&self.data_blocks[logical]);
        }
        Cow::Owned(
            logical
                .map(|i| self.data_blocks[i / m * n + i % m])
                .collect(),
        )
    }

    /// Every key the object may occupy in the plaintext-block cache (the
    /// keys invalidation sweeps): the primary shares of every group.
    pub fn block_cache_keys(&self) -> Cow<'_, [u64]> {
        self.block_keys(0..self.groups() * self.coding.0)
    }
}

/// One cached object: decrypted header, its location, and (once a read has
/// walked the chain) the extent list.  `gen` tags the plaintext blocks this
/// object may have in the block cache; `fence` is the insert fence of
/// [`BlockToken`].
struct CachedObject {
    gen: u64,
    fence: u64,
    /// Session scope this entry belongs to (0 = unscoped; see
    /// [`ReadCache::tag_scope`]).  Scoped purges remove matching *and*
    /// unscoped entries, so an untagged entry can never outlive a sign-off.
    scope: u64,
    header_block: u64,
    header: HiddenHeader,
    extents: Option<Arc<ExtentList>>,
}

impl CachedObject {
    fn token(&self) -> BlockToken {
        BlockToken {
            gen: self.gen,
            fence: self.fence,
        }
    }
}

/// Result of a successful header lookup.
pub struct CachedOpen {
    /// Entry generation (tags this object's plaintext blocks).
    pub gen: u64,
    /// Physical block holding the header.
    pub header_block: u64,
    /// Decrypted header.
    pub header: HiddenHeader,
}

/// One shard of the plaintext-block cache: `(entry generation, block)` to
/// the decrypted image, least recently used first out.
#[derive(Default)]
struct BlockShard {
    map: LruMap<(u64, u64), Vec<u8>>,
    bytes: u64,
}

impl BlockShard {
    /// Make `image` the most recent entry under `key`.  A resident image
    /// under `key` is overwritten in place; a new key on a full shard takes
    /// over the least recent entry's slot and buffer, which the image
    /// overwrites in place too, as `BufferCache::insert` reuses its
    /// victim's.  Returns the evictions (0 or 1).
    fn install(&mut self, key: (u64, u64), image: &[u8], per_shard: usize) -> u64 {
        if self.update(key, image) {
            return 0;
        }
        let BlockShard { map, bytes } = self;
        *bytes += image.len() as u64;
        if map.len() < per_shard {
            map.insert(key, image.to_vec());
            return 0;
        }
        let (_victim, buf) = map.replace_lru(key).expect("a full shard has a victim");
        #[cfg(test)]
        tests::EVICTED.with(|e| e.borrow_mut().push(_victim));
        overwrite(bytes, buf, image);
        1
    }

    /// Overwrite the image resident under `key` in place with `image` and
    /// make it the most recent entry.  A key that is not resident stays
    /// absent.  Returns whether it was resident.
    fn update(&mut self, key: (u64, u64), image: &[u8]) -> bool {
        let BlockShard { map, bytes } = self;
        let Some(resident) = map.get(&key) else {
            return false;
        };
        *bytes += image.len() as u64;
        overwrite(bytes, resident, image);
        true
    }
}

/// Zero a plaintext image that is leaving a shard — invalidated or purged:
/// every exit but an overwrite comes through here — and take it off the
/// shard's byte count.
fn retire(resident_bytes: &mut u64, data: &mut [u8]) {
    *resident_bytes -= data.len() as u64;
    zeroize(data);
    #[cfg(test)]
    tests::RETIRED.with(|r| r.borrow_mut().push(data.to_vec()));
}

/// Replace the resident image in `buf` with `image`.  At the same length
/// the new image overwrites every byte of the old one, so nothing of it
/// is left to zero; a buffer of another length is retired first.  Either
/// way every byte of `buf`'s allocation past its length stays zero, as
/// `image.to_vec()` and a retired buffer leave it.
fn overwrite(resident_bytes: &mut u64, buf: &mut Vec<u8>, image: &[u8]) {
    if buf.len() != image.len() {
        retire(resident_bytes, buf);
        buf.clear();
        buf.extend_from_slice(image);
        return;
    }
    *resident_bytes -= buf.len() as u64;
    buf.copy_from_slice(image);
    // The old image left the cache with none of its bytes left behind: to
    // the exit log it is a zeroed one.
    #[cfg(test)]
    tests::RETIRED.with(|r| r.borrow_mut().push(vec![0; buf.len()]));
}

/// The slots of a batch of blocks grouped by block shard, each group in
/// call order (a counting sort), so a batched call locks each shard once.
struct ShardPlan {
    /// Group `s` is `order[bounds[s]..bounds[s + 1]]`.
    bounds: [usize; SHARDS + 1],
    order: Vec<usize>,
}

impl ShardPlan {
    fn new(blocks: &[u64]) -> Self {
        let mut bounds = [0; SHARDS + 1];
        for &block in blocks {
            bounds[block_shard(block) + 1] += 1;
        }
        for s in 1..=SHARDS {
            bounds[s] += bounds[s - 1];
        }
        let mut next = bounds;
        let mut order = vec![0; blocks.len()];
        for (i, &block) in blocks.iter().enumerate() {
            let s = block_shard(block);
            order[next[s]] = i;
            next[s] += 1;
        }
        ShardPlan { bounds, order }
    }

    /// `(shard, slots)` for every shard the batch touches, ascending.
    fn groups(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (0..SHARDS)
            .map(|s| (s, &self.order[self.bounds[s]..self.bounds[s + 1]]))
            .filter(|(_, slots)| !slots.is_empty())
    }
}

/// The per-block chunk length of a batch of `blocks` whose images take
/// `total` bytes, or `None` for an empty batch.
fn chunk_len(blocks: &[u64], total: usize) -> Option<usize> {
    let bs = total.checked_div(blocks.len())?;
    debug_assert_eq!(bs * blocks.len(), total, "images of unequal length");
    Some(bs)
}

/// One counter update per batched call (none for an empty one).
fn bump(counter: &AtomicU64, n: u64) {
    if n > 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// The sign-off rule: state tagged `tag` (`None` = never tagged) outlives
/// the sign-off of session `scope` only if it is tagged to another session.
fn outlives(tag: Option<&u64>, scope: u64) -> bool {
    tag.is_some_and(|t| *t != scope)
}

/// The derived-key map: a digest of `(physical name, FAK)` to the key set,
/// least recently used first out.
type KeyCache = LruMap<[u8; 32], Arc<ObjectKeys>>;

fn key_id(physical_name: &str, fak: &[u8]) -> [u8; 32] {
    // Length-prefixed so no (name, FAK) split is ambiguous.
    sha256_concat(&[
        b"stegfs-key-cache",
        &(physical_name.len() as u64).to_be_bytes(),
        physical_name.as_bytes(),
        fak,
    ])
}

/// Snapshot of the cache counters, printed by the benches next to the
/// device-level `DeviceStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Header lookups served from the cache (locator walk skipped).
    pub header_hits: u64,
    /// Header lookups that fell through to the locator.
    pub header_misses: u64,
    /// Extent-map lookups served from the cache (chain walk skipped).
    pub extent_hits: u64,
    /// Extent-map lookups that fell through to the chain walk.
    pub extent_misses: u64,
    /// Plaintext data blocks served from the cache.
    pub block_hits: u64,
    /// Plaintext data blocks that had to be read and decrypted.
    pub block_misses: u64,
    /// Key-set lookups served from the cache (PBKDF2 skipped).
    pub key_hits: u64,
    /// Key-set lookups that ran the derivation.
    pub key_misses: u64,
    /// Plaintext blocks evicted (zeroed) to stay within capacity.
    pub evictions: u64,
    /// Object invalidations (mutations observed).  An in-place patch
    /// updates what it rewrote and drops nothing, so it is not one.
    pub invalidations: u64,
    /// Inserts dropped because an invalidation or patch raced the disk
    /// walk.
    pub rejected_inserts: u64,
    /// Full purges (sign-off / unmount).
    pub purges: u64,
    /// Scoped purges (one departing session's entries swept).
    pub scoped_purges: u64,
    /// Plaintext blocks currently resident.
    pub resident_blocks: u64,
    /// Plaintext bytes currently resident.
    pub resident_bytes: u64,
    /// Object header/extent entries currently resident.
    pub resident_objects: u64,
    /// Derived key sets currently resident.
    pub resident_keys: u64,
}

#[derive(Default)]
struct Counters {
    header_hits: AtomicU64,
    header_misses: AtomicU64,
    extent_hits: AtomicU64,
    extent_misses: AtomicU64,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    key_hits: AtomicU64,
    key_misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    rejected_inserts: AtomicU64,
    purges: AtomicU64,
    scoped_purges: AtomicU64,
}

/// The read-path cache of one mounted volume.  See the module docs for the
/// full contract; in one line: *decrypted state may be cached in RAM for as
/// long as the mutating API is told about every mutation and a sign-off
/// purges everything.*
pub struct ReadCache {
    /// Total plaintext-block capacity (0 disables all caching).
    capacity_blocks: usize,
    /// Global invalidation generation: bumped by every invalidate/purge.
    /// Readers snapshot it before a disk walk; inserts are rejected if it
    /// moved, so a stale walk can never overwrite a fresher invalidation.
    global_gen: AtomicU64,
    /// Source of per-entry generations for block-cache tagging.
    next_entry_gen: AtomicU64,
    objects: Vec<Mutex<HashMap<ObjectSig, CachedObject>>>,
    blocks: Vec<Mutex<BlockShard>>,
    counters: Counters,
    /// Session scope of each signature, fed by the lookup paths that *do*
    /// know which access key resolved the object ([`Self::tag_scope`]).
    /// Consulted on insert so cached entries carry their owning session.
    scopes: Mutex<HashMap<ObjectSig, u64>>,
    /// Derived key sets ([`Self::keys_for`]).  A leaf lock: nothing is
    /// acquired while it is held, and it is never held across a derivation.
    keys: Mutex<KeyCache>,
    /// [`KEY_CACHE_ENTRIES`] (a field only so the eviction test can shrink it).
    key_capacity: usize,
    /// Bumped by every purge (scoped or full) before it sweeps `keys`: a
    /// derivation that started before the purge does not install after it.
    key_epoch: AtomicU64,
    /// Latency histograms of the volume's observability registry (disabled
    /// handle until [`Self::set_obs`]).
    obs: Arc<ReadCacheStats>,
}

fn object_shard(sig: &ObjectSig) -> usize {
    // The signature is already uniform (HMAC output); its first byte shards.
    sig[0] as usize % SHARDS
}

fn block_shard(block: u64) -> usize {
    (block as usize) % SHARDS
}

impl ReadCache {
    /// A cache holding at most `capacity_blocks` decrypted blocks
    /// (0 disables caching entirely: every lookup misses, every insert is a
    /// no-op, and reads behave exactly as before this layer existed).
    pub fn new(capacity_blocks: usize) -> Self {
        ReadCache {
            capacity_blocks,
            global_gen: AtomicU64::new(0),
            // 0 is a valid entry gen; BlockToken::DEAD's (u64::MAX) never is.
            next_entry_gen: AtomicU64::new(0),
            objects: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            blocks: (0..SHARDS)
                .map(|_| Mutex::new(BlockShard::default()))
                .collect(),
            counters: Counters::default(),
            scopes: Mutex::new(HashMap::new()),
            keys: Mutex::new(KeyCache::default()),
            key_capacity: KEY_CACHE_ENTRIES,
            key_epoch: AtomicU64::new(0),
            obs: Arc::default(),
        }
    }

    /// Replace the cache's own histograms with the volume's (done once
    /// during assembly, before the cache is shared).
    pub fn set_obs(&mut self, stats: Arc<ReadCacheStats>) {
        self.obs = stats;
    }

    /// True if the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity_blocks > 0
    }

    /// Snapshot the global generation *before* starting a disk walk whose
    /// result will be inserted; pass the snapshot to the `store_*` call.
    pub fn begin(&self) -> u64 {
        self.global_gen.load(Ordering::Acquire)
    }

    fn fresh_entry_gen(&self) -> u64 {
        self.next_entry_gen.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Derived key sets
    // ------------------------------------------------------------------

    /// The key set of `(physical_name, fak)`: from the cache when this mount
    /// already derived it, else derived now (the one production call of
    /// [`ObjectKeys::derive`]) and remembered.  The derivation runs with no
    /// lock held; racing first lookups of one pair may each derive, and all
    /// but the first to finish adopt the installed set.
    pub fn keys_for(&self, physical_name: &str, fak: &[u8]) -> Arc<ObjectKeys> {
        let derive = || {
            let _s = span::span(span::Phase::KeyDerive);
            Arc::new(ObjectKeys::derive(physical_name, fak))
        };
        if !self.enabled() {
            return derive();
        }
        let id = key_id(physical_name, fak);
        let epoch = self.key_epoch.load(Ordering::Acquire);
        let hit = self.keys.lock().get(&id).map(|keys| Arc::clone(keys));
        if let Some(keys) = hit {
            self.counters.key_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.key_hits.fetch_add(1, Ordering::Relaxed);
            return keys;
        }
        self.counters.key_misses.fetch_add(1, Ordering::Relaxed);
        self.obs.key_misses.fetch_add(1, Ordering::Relaxed);
        self.install_keys(id, derive(), epoch)
    }

    /// Second half of a [`Self::keys_for`] miss: remember `keys`, derived
    /// since `epoch` was read, unless a purge ran meanwhile; returns the set
    /// the caller should use (an earlier racer's, if one got here first).
    fn install_keys(&self, id: [u8; 32], keys: Arc<ObjectKeys>, epoch: u64) -> Arc<ObjectKeys> {
        let mut cache = self.keys.lock();
        // Purges bump the epoch before taking this lock, so either the bump
        // is visible here or the purge sweeps what is installed below.
        if self.key_epoch.load(Ordering::Acquire) != epoch {
            return keys;
        }
        if let Some(first) = cache.peek(&id) {
            // Adopting a racer's set is not a use: it keeps its LRU place.
            return Arc::clone(first);
        }
        cache.insert(id, Arc::clone(&keys));
        if cache.len() > self.key_capacity {
            cache.pop_lru();
        }
        keys
    }

    /// Forget the key set of `(physical_name, fak)` — the pair no longer
    /// names the object (unlink, rename, re-key).
    pub fn drop_keys(&self, physical_name: &str, fak: &[u8]) {
        if self.enabled() {
            self.keys.lock().remove(&key_id(physical_name, fak));
        }
    }

    // ------------------------------------------------------------------
    // Header / extent map
    // ------------------------------------------------------------------

    /// The cached header of `sig` without touching the hit/miss counters —
    /// the freshness probe `ObjectIo::cached_chain` uses to decide whether a
    /// caller-supplied header may be (re)installed.
    pub fn peek_header(&self, sig: &ObjectSig) -> Option<(u64, HiddenHeader)> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        shard
            .get(sig)
            .map(|obj| (obj.header_block, obj.header.clone()))
    }

    /// Look up the cached header of `sig` (skipping the locator walk on a
    /// hit).
    pub fn lookup_header(&self, sig: &ObjectSig) -> Option<CachedOpen> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        match shard.get(sig) {
            Some(obj) => {
                self.counters.header_hits.fetch_add(1, Ordering::Relaxed);
                Some(CachedOpen {
                    gen: obj.gen,
                    header_block: obj.header_block,
                    header: obj.header.clone(),
                })
            }
            None => {
                self.counters.header_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up the cached extent list of `sig`, but only if it still indexes
    /// the chain the caller's header names (`chain_head`, `count`) — a
    /// cached map from a previous incarnation never resolves.
    pub fn lookup_extents(
        &self,
        sig: &ObjectSig,
        chain_head: u64,
        count: u64,
    ) -> Option<(BlockToken, Arc<ExtentList>)> {
        if !self.enabled() {
            return None;
        }
        let shard = self.objects[object_shard(sig)].lock();
        let hit = shard.get(sig).and_then(|obj| {
            let ext = obj.extents.as_ref()?;
            let matches =
                obj.header.inode_chain == chain_head && ext.data_blocks.len() as u64 == count;
            matches.then(|| (obj.token(), Arc::clone(ext)))
        });
        match hit {
            Some(found) => {
                self.counters.extent_hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                self.counters.extent_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Install (or refresh) the header of `sig`, read during a walk that
    /// began at generation `started`.  Rejected (a no-op) if any
    /// invalidation or purge happened since `started`.
    pub fn store_header(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
    ) {
        self.store(sig, started, header_block, header, None);
    }

    /// Install the extent list of `sig` alongside its header; returns the
    /// token to read and insert plaintext blocks with, or
    /// [`BlockToken::DEAD`] when the insert was rejected.
    pub fn store_extents(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
        extents: Arc<ExtentList>,
    ) -> BlockToken {
        self.store(sig, started, header_block, header, Some(extents))
    }

    fn store(
        &self,
        sig: &ObjectSig,
        started: u64,
        header_block: u64,
        header: HiddenHeader,
        extents: Option<Arc<ExtentList>>,
    ) -> BlockToken {
        if !self.enabled() {
            return BlockToken::DEAD;
        }
        // Read the scope tag before taking the shard lock (no path ever
        // holds both the scope table and a shard lock at once).
        let scope = self.scopes.lock().get(sig).copied().unwrap_or(0);
        let mut shard = self.objects[object_shard(sig)].lock();
        // The generation check runs under the shard lock, and invalidate()
        // bumps the generation *before* taking the shard lock — so either we
        // see the bump here and reject, or the invalidation runs after us
        // and removes the entry we are about to insert.  Either way no stale
        // entry survives an invalidation.
        if self.global_gen.load(Ordering::Acquire) != started {
            self.counters
                .rejected_inserts
                .fetch_add(1, Ordering::Relaxed);
            return BlockToken::DEAD;
        }
        match shard.get_mut(sig) {
            Some(obj) if obj.header_block == header_block && obj.header == header => {
                // Same incarnation: keep the gen and fence (existing cached
                // blocks stay valid), optionally add the extents and a late
                // scope tag.
                if let Some(ext) = extents {
                    obj.extents = Some(ext);
                }
                if scope != 0 {
                    obj.scope = scope;
                }
                obj.token()
            }
            other => {
                let gen = self.fresh_entry_gen();
                let obj = CachedObject {
                    gen,
                    fence: gen,
                    scope,
                    header_block,
                    header,
                    extents,
                };
                let token = obj.token();
                match other {
                    Some(slot) => *slot = obj,
                    None => {
                        shard.insert(*sig, obj);
                    }
                }
                token
            }
        }
    }

    /// Record that `sig` was resolved through the session identified by
    /// `scope` (any stable non-zero value derived from the session's user
    /// access key).  Entries installed for `sig` from now on carry the tag,
    /// and [`Self::purge_scope`] for that value sweeps them.  The table
    /// holds signatures and opaque scope ids only — no key material.
    pub fn tag_scope(&self, sig: &ObjectSig, scope: u64) {
        if !self.enabled() || scope == 0 {
            return;
        }
        self.scopes.lock().insert(*sig, scope);
        // An already-resident entry (cached before the tag existed) gets
        // tagged in place so it does not linger as "unscoped" forever.
        let mut shard = self.objects[object_shard(sig)].lock();
        if let Some(obj) = shard.get_mut(sig) {
            obj.scope = scope;
        }
    }

    // ------------------------------------------------------------------
    // Plaintext block cache
    // ------------------------------------------------------------------

    /// Append one `bs`-byte chunk per block of `blocks` to the empty `out`,
    /// in slot order: the cached plaintext of a block resident under
    /// `token`'s entry generation (whatever its fence), zeros for one that
    /// is not.  Returns the slots that missed, ascending.  Each byte of
    /// `out` is written once; its capacity is reserved before the first
    /// byte lands, so no plaintext is left behind in a buffer that growing
    /// freed.  Copying under the shard locks never hands out an owned
    /// plaintext buffer that could be dropped un-zeroed.
    ///
    /// Every block shard the span touches is locked before the walk, in
    /// ascending shard index (the lock table in [`stegfs_obs::lock`]), so
    /// one call costs one lock per shard and one clock pair however many
    /// blocks it covers.  Each shard still sees its blocks in call order,
    /// so the LRU order and every counter end up exactly as a loop of
    /// one-block calls would leave them.
    pub fn get_blocks(
        &self,
        token: BlockToken,
        blocks: &[u64],
        bs: usize,
        out: &mut Vec<u8>,
    ) -> Vec<usize> {
        debug_assert!(out.is_empty(), "the lookup fills an empty buffer");
        out.reserve(blocks.len() * bs);
        if !self.enabled() || token.is_dead() {
            out.resize(blocks.len() * bs, 0);
            return (0..blocks.len()).collect();
        }
        if blocks.is_empty() {
            return Vec::new();
        }
        let start = Instant::now();
        let touched = blocks
            .iter()
            .fold(0u32, |set, &block| set | 1 << block_shard(block));
        let mut shards: [Option<MutexGuard<'_, BlockShard>>; SHARDS] =
            std::array::from_fn(|s| (touched & (1 << s) != 0).then(|| self.blocks[s].lock()));
        let mut missed = Vec::new();
        for (i, &block) in blocks.iter().enumerate() {
            let shard = shards[block_shard(block)].as_mut().expect("locked above");
            match shard.map.get(&(token.gen, block)) {
                Some(data) => {
                    debug_assert_eq!(data.len(), bs, "cached image of another length");
                    out.extend_from_slice(data);
                }
                None => {
                    missed.push(i);
                    out.resize(out.len() + bs, 0);
                }
            }
        }
        drop(shards);
        let misses = missed.len() as u64;
        let hits = blocks.len() as u64 - misses;
        bump(&self.counters.block_hits, hits);
        bump(&self.counters.block_misses, misses);
        let per_block = start.elapsed().as_nanos() as u64 / blocks.len() as u64;
        self.obs.hit_ns.record_n(per_block, hits);
        self.obs.miss_ns.record_n(per_block, misses);
        if hits > 0 {
            span::note(span::Phase::CacheHit, per_block * hits);
        }
        if misses > 0 {
            span::note(span::Phase::CacheMiss, per_block * misses);
        }
        missed
    }

    /// Which of `blocks` are resident under `token`'s entry generation.
    /// Unlike [`Self::get_blocks`] this records no hit/miss and does
    /// not touch the LRU order — it is the readahead filter's probe.
    pub fn contains_blocks(&self, token: BlockToken, blocks: &[u64]) -> Vec<bool> {
        let mut resident = vec![false; blocks.len()];
        if !self.enabled() || token.is_dead() {
            return resident;
        }
        for (shard, slots) in ShardPlan::new(blocks).groups() {
            let shard = self.blocks[shard].lock();
            for &i in slots {
                resident[i] = shard.map.contains_key(&(token.gen, blocks[i]));
            }
        }
        resident
    }

    /// Insert the plaintext of each of `blocks` under `token`'s entry
    /// generation — block `i`'s image is the `i`-th of `blocks.len()` equal
    /// chunks of `data` — evicting (and zeroing) least-recently-used blocks
    /// to stay within the per-shard capacity.  Each shard takes its blocks
    /// in call order, so residency, eviction order and counters are those
    /// of a loop of one-block inserts.
    ///
    /// The insert is accepted only while `token` still matches `sig`'s
    /// entry — its live generation *and* its insert fence — verified, and
    /// held, under the object shard lock.  So a reader that lost a race
    /// against [`Self::invalidate`] cannot park un-zeroed plaintext of the
    /// old incarnation under a dead key, and one that fetched before a
    /// [`Self::patched`] cannot install what it fetched, rewritten block or
    /// not.  Lock order: the table in [`stegfs_obs::lock`].
    pub fn put_blocks(&self, sig: &ObjectSig, token: BlockToken, blocks: &[u64], data: &[u8]) {
        if !self.enabled() || token.is_dead() {
            return;
        }
        let Some(bs) = chunk_len(blocks, data.len()) else {
            return;
        };
        let object_guard = self.objects[object_shard(sig)].lock();
        if object_guard.get(sig).map(CachedObject::token) != Some(token) {
            // Invalidated, replaced or patched since the reader picked up
            // `token`: what it fetched may be stale — drop it.
            bump(&self.counters.rejected_inserts, blocks.len() as u64);
            return;
        }
        let gen = token.gen;
        let start = Instant::now();
        let per_shard = (self.capacity_blocks / SHARDS).max(1);
        let mut evictions = 0u64;
        for (shard, slots) in ShardPlan::new(blocks).groups() {
            let mut shard = self.blocks[shard].lock();
            for &i in slots {
                let image = &data[i * bs..(i + 1) * bs];
                evictions += shard.install((gen, blocks[i]), image, per_shard);
            }
        }
        drop(object_guard);
        bump(&self.counters.evictions, evictions);
        let per_block = start.elapsed().as_nanos() as u64 / blocks.len() as u64;
        self.obs.evict_ns.record_n(per_block, evictions);
    }

    // ------------------------------------------------------------------
    // Invalidation and purge
    // ------------------------------------------------------------------

    /// Drop everything cached for `sig` (call after any mutation of the
    /// object).  The object's plaintext blocks are removed and zeroed; the
    /// generation bump makes any insert racing this call land dead.
    pub fn invalidate(&self, sig: &ObjectSig) {
        if !self.enabled() {
            return;
        }
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        self.sweep(sig);
        self.obs
            .zeroize_ns
            .record(start.elapsed().as_nanos() as u64);
    }

    /// The sweep of [`Self::invalidate`], counting no invalidation and
    /// recording no sample: for a mutation that sweeps its object once more
    /// when it commits, to drop what a reader installed in between.
    pub(crate) fn sweep(&self, sig: &ObjectSig) {
        if !self.enabled() {
            return;
        }
        // Bump first (see store() for the ordering argument).
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        // The object shard stays held across the block sweep: `put_blocks`
        // verifies the entry's liveness under this same lock, so once the
        // entry is gone no further plaintext of its generation can be
        // inserted, and everything inserted before is swept here.
        let mut object_guard = self.objects[object_shard(sig)].lock();
        if let Some(obj) = object_guard.remove(sig) {
            if let Some(ext) = obj.extents {
                for &block in ext.block_cache_keys().iter() {
                    let mut shard = self.blocks[block_shard(block)].lock();
                    if let Some(mut data) = shard.map.remove(&(obj.gen, block)) {
                        retire(&mut shard.bytes, &mut data);
                    }
                }
            }
        }
        drop(object_guard);
    }

    /// Record a committed in-place patch of `sig` that rewrote the blocks
    /// cached under `blocks` with `images` — block `i`'s new plaintext is
    /// the `i`-th of `blocks.len()` equal chunks — and left the object as
    /// `extents` says, with the header it `published`, if any (a patch
    /// moves no block: only the chain's share checks, and under replicated
    /// metadata the header's check of the chain head, change).  If
    /// `token`'s entry is still `sig`'s, it takes the extent list and the
    /// published header and keeps its generation — the key space of its
    /// blocks, which stay servable — its insert fence moves, so no reader
    /// that picked up a token before this call installs a block after it,
    /// and every one of `blocks` that is resident is overwritten in place
    /// with its new image and becomes its shard's most recent entry, as an
    /// insert would.  A block that is not resident stays absent: a patch
    /// allocates nothing in the cache.
    /// O(blocks patched).  Returns false, having changed nothing, when
    /// there is no such entry: the caller then [`Self::invalidate`]s, as
    /// for any other mutation.
    pub fn patched(
        &self,
        sig: &ObjectSig,
        token: BlockToken,
        published: Option<HiddenHeader>,
        extents: Arc<ExtentList>,
        blocks: &[u64],
        images: &[u8],
    ) -> bool {
        if !self.enabled() || token.is_dead() {
            return false;
        }
        // Held across the update, as in `invalidate`: `put_blocks` checks
        // the fence under this lock, so an insert either lands before the
        // move (and is overwritten below if it is a patched block) or is
        // rejected.
        let mut object_guard = self.objects[object_shard(sig)].lock();
        let Some(obj) = object_guard.get_mut(sig).filter(|o| o.gen == token.gen) else {
            return false;
        };
        obj.fence = self.fresh_entry_gen();
        if let Some(header) = published {
            obj.header = header;
        }
        obj.extents = Some(extents);
        let bs = chunk_len(blocks, images.len()).unwrap_or(0);
        for (shard, slots) in ShardPlan::new(blocks).groups() {
            let mut shard = self.blocks[shard].lock();
            for &i in slots {
                shard.update((token.gen, blocks[i]), &images[i * bs..(i + 1) * bs]);
            }
        }
        drop(object_guard);
        true
    }

    /// Drop and zero every entry (key sets included) belonging to the
    /// departing session `scope` — plus every *unscoped* entry, so nothing
    /// whose owner is unknown can outlive a sign-off.  Entries other live sessions resolved through
    /// their own keys stay warm; the volume-wide [`Self::purge`] remains the
    /// unmount/disconnect-all hammer.
    pub fn purge_scope(&self, scope: u64) {
        if !self.enabled() || scope == 0 {
            return;
        }
        let start = Instant::now();
        // Bump first, same ordering argument as `invalidate`: in-flight
        // walks that started before the sign-off cannot install afterwards.
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        self.key_epoch.fetch_add(1, Ordering::AcqRel);
        self.counters.scoped_purges.fetch_add(1, Ordering::Relaxed);
        {
            // Key sets follow the scope table directly: one dies with the
            // session its signature is tagged to, or when no session ever
            // claimed it.  (Scope table < key cache, the only nesting.)
            let mut scopes = self.scopes.lock();
            self.keys
                .lock()
                .retain(|_, keys| outlives(scopes.get(keys.signature()), scope));
            scopes.retain(|_, s| *s != scope);
        }
        // Sweep matching (and unscoped) object entries, collecting their
        // generations; then sweep the block shards by generation so no
        // plaintext survives even if an extent list was never installed.
        let mut dead_gens = HashSet::new();
        for shard in &self.objects {
            let mut shard = shard.lock();
            shard.retain(|_, obj| {
                let dies = obj.scope == scope || obj.scope == 0;
                if dies {
                    dead_gens.insert(obj.gen);
                }
                !dies
            });
        }
        if !dead_gens.is_empty() {
            for shard in &self.blocks {
                let BlockShard { map, bytes } = &mut *shard.lock();
                map.retain(|(gen, _), data| {
                    let dies = dead_gens.contains(gen);
                    if dies {
                        retire(bytes, data);
                    }
                    !dies
                });
            }
        }
        self.obs
            .zeroize_ns
            .record(start.elapsed().as_nanos() as u64);
    }

    /// Drop and zero **everything** — the `StegFs::disconnect_all` (logoff)
    /// and unmount hook.
    /// After this returns, [`CacheStats::resident_blocks`],
    /// [`CacheStats::resident_bytes`] and [`CacheStats::resident_keys`] are
    /// zero and no decrypted byte or key set from before the purge is
    /// reachable through the cache.
    pub fn purge(&self) {
        if !self.enabled() {
            return;
        }
        self.key_epoch.fetch_add(1, Ordering::AcqRel);
        self.scopes.lock().clear();
        self.keys.lock().clear();
        self.purge_decrypted();
    }

    /// The decrypted half of [`Self::purge`]: drop and zero every header,
    /// extent map and plaintext block, volume-wide, so the next read of
    /// anything comes from the device.  Derived key sets (and the scope
    /// table that says whose they are) stay connected — they hold no
    /// decrypted byte, and their lifetime is the session's, not a read's.
    pub fn purge_decrypted(&self) {
        if !self.enabled() {
            return;
        }
        let start = Instant::now();
        self.global_gen.fetch_add(1, Ordering::AcqRel);
        self.counters.purges.fetch_add(1, Ordering::Relaxed);
        for shard in &self.objects {
            shard.lock().clear();
        }
        for shard in &self.blocks {
            let BlockShard { map, bytes } = &mut *shard.lock();
            for data in map.values_mut() {
                retire(bytes, data);
            }
            map.clear();
        }
        self.obs
            .zeroize_ns
            .record(start.elapsed().as_nanos() as u64);
    }

    /// Snapshot the counters (residency computed live from the shards).
    pub fn stats(&self) -> CacheStats {
        let mut resident_blocks = 0u64;
        let mut resident_bytes = 0u64;
        for shard in &self.blocks {
            let shard = shard.lock();
            resident_blocks += shard.map.len() as u64;
            resident_bytes += shard.bytes;
        }
        let resident_objects = self
            .objects
            .iter()
            .map(|s| s.lock().len() as u64)
            .sum::<u64>();
        let resident_keys = self.keys.lock().len() as u64;
        let c = &self.counters;
        CacheStats {
            header_hits: c.header_hits.load(Ordering::Relaxed),
            header_misses: c.header_misses.load(Ordering::Relaxed),
            extent_hits: c.extent_hits.load(Ordering::Relaxed),
            extent_misses: c.extent_misses.load(Ordering::Relaxed),
            block_hits: c.block_hits.load(Ordering::Relaxed),
            block_misses: c.block_misses.load(Ordering::Relaxed),
            key_hits: c.key_hits.load(Ordering::Relaxed),
            key_misses: c.key_misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            rejected_inserts: c.rejected_inserts.load(Ordering::Relaxed),
            purges: c.purges.load(Ordering::Relaxed),
            scoped_purges: c.scoped_purges.load(Ordering::Relaxed),
            resident_blocks,
            resident_bytes,
            resident_objects,
            resident_keys,
        }
    }

    /// A shared always-empty cache (capacity 0: every lookup misses, every
    /// insert is a no-op) — what "uncached" is for an
    /// [`ObjectIo`](crate::hidden::ObjectIo).
    pub fn disabled() -> &'static ReadCache {
        static DISABLED: std::sync::OnceLock<ReadCache> = std::sync::OnceLock::new();
        DISABLED.get_or_init(|| ReadCache::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjectKind;
    use crate::scratch::Scratch;

    /// The one-block forms of the batched block calls; a miss leaves
    /// `out` as it was.
    fn get1(c: &ReadCache, token: BlockToken, block: u64, out: &mut [u8]) -> bool {
        let mut image = Vec::new();
        let hit = c
            .get_blocks(token, &[block], out.len(), &mut image)
            .is_empty();
        if hit {
            out.copy_from_slice(&image);
        }
        hit
    }

    fn put1(c: &ReadCache, sig: &ObjectSig, token: BlockToken, block: u64, data: &[u8]) {
        c.put_blocks(sig, token, &[block], data);
    }

    fn has1(c: &ReadCache, token: BlockToken, block: u64) -> bool {
        c.contains_blocks(token, &[block])[0]
    }

    fn header(size: u64) -> HiddenHeader {
        let mut h = HiddenHeader::new([7u8; SIGNATURE_LEN], ObjectKind::File);
        h.size = size;
        h
    }

    /// The extent list of a (1, 1) object.
    fn plain_extents(data_blocks: &[u64], chain_blocks: &[u64]) -> Arc<ExtentList> {
        Arc::new(ExtentList {
            data_blocks: data_blocks.to_vec(),
            chain_blocks: chain_blocks.to_vec(),
            share_csums: Vec::new(),
            coding: (1, 1),
        })
    }

    /// [`ReadCache::patched`] of the entry [`live_entry`] installs over
    /// `blocks`, rewriting `patch` with `images`: the patch leaves its
    /// header and extents as they were.
    fn patched(
        c: &ReadCache,
        sig: &ObjectSig,
        token: BlockToken,
        blocks: &[u64],
        patch: &[u64],
        images: &[u8],
    ) -> bool {
        c.patched(sig, token, None, plain_extents(blocks, &[]), patch, images)
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = ReadCache::new(0);
        let sig = [1u8; SIGNATURE_LEN];
        let started = c.begin();
        c.store_header(&sig, started, 5, header(0));
        assert!(c.lookup_header(&sig).is_none());
        let token = BlockToken { gen: 0, fence: 0 };
        put1(&c, &sig, token, 9, b"plaintext");
        let mut out = [0u8; 9];
        assert!(!get1(&c, token, 9, &mut out));
        assert_eq!(c.stats().resident_blocks, 0);
    }

    #[test]
    fn header_roundtrip_and_invalidation() {
        let c = ReadCache::new(64);
        let sig = [2u8; SIGNATURE_LEN];
        let started = c.begin();
        c.store_header(&sig, started, 42, header(100));
        let hit = c.lookup_header(&sig).expect("hit");
        assert_eq!(hit.header_block, 42);
        assert_eq!(hit.header.size, 100);
        c.invalidate(&sig);
        assert!(c.lookup_header(&sig).is_none());
        let s = c.stats();
        assert_eq!(s.header_hits, 1);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn racing_insert_after_invalidation_is_rejected() {
        let c = ReadCache::new(64);
        let sig = [3u8; SIGNATURE_LEN];
        let started = c.begin();
        // An invalidation lands while the "disk walk" is in flight.
        c.invalidate(&sig);
        c.store_header(&sig, started, 7, header(1));
        assert!(
            c.lookup_header(&sig).is_none(),
            "stale insert must not land"
        );
        let gen = c.store_extents(&sig, started, 7, header(1), plain_extents(&[10], &[]));
        assert_eq!(gen, BlockToken::DEAD);
        put1(&c, &sig, gen, 10, b"should not stick");
        let mut out = [0u8; 16];
        assert!(!get1(&c, gen, 10, &mut out));
        assert!(c.stats().rejected_inserts >= 1);
    }

    #[test]
    fn extent_lookup_requires_matching_chain() {
        let c = ReadCache::new(64);
        let sig = [4u8; SIGNATURE_LEN];
        let mut h = header(2048);
        h.inode_chain = 99;
        h.data_block_count = 2;
        let ext = plain_extents(&[10, 11], &[99]);
        let gen = c.store_extents(&sig, c.begin(), 5, h, ext);
        assert_ne!(gen, BlockToken::DEAD);
        assert!(c.lookup_extents(&sig, 99, 2).is_some());
        // A header naming a different chain (stale caller) never matches.
        assert!(c.lookup_extents(&sig, 98, 2).is_none());
        assert!(c.lookup_extents(&sig, 99, 3).is_none());
    }

    /// Install a live entry for `sig` whose extents cover `blocks` (or
    /// refresh the one installed with the same `blocks`); returns the token
    /// block inserts must carry.
    fn live_entry(c: &ReadCache, sig: &ObjectSig, blocks: &[u64]) -> BlockToken {
        let gen = c.store_extents(
            sig,
            c.begin(),
            1,
            header(blocks.len() as u64 * 64),
            plain_extents(blocks, &[]),
        );
        assert_ne!(gen, BlockToken::DEAD);
        gen
    }

    #[test]
    fn block_cache_lru_evicts_and_counts_bytes() {
        // Capacity below one per shard rounds up to 1 per shard.
        let c = ReadCache::new(SHARDS);
        let sig = [9u8; SIGNATURE_LEN];
        // Same shard: blocks congruent modulo SHARDS.
        let b0 = 0u64;
        let b1 = SHARDS as u64;
        let b2 = 2 * SHARDS as u64;
        let gen = live_entry(&c, &sig, &[b0, b1, b2]);
        let mut out = [0u8; 64];
        put1(&c, &sig, gen, b0, &[0xaa; 64]);
        put1(&c, &sig, gen, b1, &[0xbb; 64]);
        assert!(get1(&c, gen, b1, &mut out), "b1 most recently used");
        assert_eq!(out, [0xbb; 64]);
        put1(&c, &sig, gen, b2, &[0xcc; 64]);
        // Shard holds one entry: only the newest survives.
        assert!(get1(&c, gen, b2, &mut out));
        assert_eq!(out, [0xcc; 64]);
        assert!(!get1(&c, gen, b0, &mut out));
        let s = c.stats();
        assert!(s.evictions >= 2);
        assert_eq!(s.resident_blocks, 1);
        assert_eq!(s.resident_bytes, 64);
    }

    #[test]
    fn put_under_dead_generation_is_rejected() {
        // The race finding: a reader holds (gen, extents), the object is
        // invalidated mid-read, and the reader's late insert must land
        // nowhere (no un-zeroed plaintext parked under a dead key).
        let c = ReadCache::new(256);
        let sig = [10u8; SIGNATURE_LEN];
        let gen = live_entry(&c, &sig, &[5]);
        c.invalidate(&sig);
        put1(&c, &sig, gen, 5, b"plaintext of the dead incarnation");
        assert_eq!(c.stats().resident_blocks, 0, "dead insert stuck");
        assert!(c.stats().rejected_inserts >= 1);
    }

    #[test]
    fn put_under_a_pre_patch_token_is_rejected() {
        // A reader picks up its token and fetches blocks 5 and 7; a patch of
        // block 5 commits meanwhile.  Whatever the reader fetched may predate
        // the patch, so none of it lands — the rewritten block and the
        // untouched one alike — while resident 5 holds the patch's image and
        // the untouched resident 6 stays.
        let c = ReadCache::new(256);
        let sig = [14u8; SIGNATURE_LEN];
        let blocks = [5, 6, 7];
        let before = live_entry(&c, &sig, &blocks);
        put1(&c, &sig, before, 5, &[0x55; 16]);
        put1(&c, &sig, before, 6, &[0x66; 16]);
        assert!(patched(&c, &sig, before, &blocks, &[5], &[0x5b; 16]));
        RETIRED.with(|r| assert_eq!(r.borrow().last(), Some(&vec![0; 16]), "zeroed"));
        let mut out = [0u8; 16];
        assert!(get1(&c, before, 5, &mut out) && out == [0x5b; 16]);
        assert!(has1(&c, before, 6));
        let rejected = c.stats().rejected_inserts;
        put1(&c, &sig, before, 5, &[0x55; 16]);
        put1(&c, &sig, before, 7, &[0x77; 16]);
        let s = c.stats();
        assert_eq!((s.rejected_inserts, s.resident_blocks), (rejected + 2, 2));
        assert!(get1(&c, before, 5, &mut out) && out == [0x5b; 16]);
        // A token picked up after the patch reads the same key space and
        // installs.
        let after = live_entry(&c, &sig, &blocks);
        assert_eq!(after.gen, before.gen, "untouched blocks were not re-keyed");
        assert!(get1(&c, after, 6, &mut out) && out == [0x66; 16]);
        put1(&c, &sig, after, 7, &[0x7a; 16]);
        assert!(get1(&c, after, 7, &mut out) && out == [0x7a; 16]);
        // No entry under the token's generation: nothing to patch.
        c.invalidate(&sig);
        assert!(!patched(&c, &sig, after, &blocks, &[5], &[0; 16]));
        assert!(!patched(
            &c,
            &sig,
            BlockToken::DEAD,
            &blocks,
            &[5],
            &[0; 16]
        ));
    }

    #[test]
    fn purge_leaves_zero_resident() {
        let c = ReadCache::new(256);
        let sig = [5u8; SIGNATURE_LEN];
        let blocks: Vec<u64> = (0..32).collect();
        let gen = live_entry(&c, &sig, &blocks);
        for &b in &blocks {
            put1(&c, &sig, gen, b, &[1u8; 128]);
        }
        assert!(c.stats().resident_blocks > 0);
        c.purge();
        let s = c.stats();
        assert_eq!(s.resident_blocks, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resident_objects, 0);
        assert_eq!(s.purges, 1);
        let mut out = [0u8; 128];
        assert!(!get1(&c, gen, 0, &mut out));
    }

    #[test]
    fn generation_tagging_isolates_incarnations() {
        let c = ReadCache::new(256);
        let sig = [6u8; SIGNATURE_LEN];
        // Old incarnation caches block 50, is invalidated (rewrite), and
        // block 50 is recycled into the new incarnation under a new gen.
        let old_gen = live_entry(&c, &sig, &[50]);
        put1(&c, &sig, old_gen, 50, b"old plaintext");
        c.invalidate(&sig);
        let new_gen = live_entry(&c, &sig, &[50]);
        // The new incarnation reads under its own gen: no alias either way.
        let mut out = [0u8; 13];
        assert!(!get1(&c, new_gen, 50, &mut out));
        assert!(!get1(&c, old_gen, 50, &mut out));
    }

    #[test]
    fn coded_invalidation_sweeps_the_primary_share_keys() {
        // A coded object's plaintext cache holds decoded logical block
        // `g * m + k` under the block of share `k` of group `g`; invalidate
        // must sweep those keys, and no other share's.
        let c = ReadCache::new(256);
        let sig = [13u8; SIGNATURE_LEN];
        let mut h = header(4 * 64);
        h.policy = crate::coding::Policy::Disperse { m: 2, n: 4 };
        h.data_block_count = 8;
        let ext = Arc::new(ExtentList {
            data_blocks: vec![500, 501, 502, 503, 600, 601, 602, 603],
            chain_blocks: vec![],
            share_csums: vec![0; 8],
            coding: (2, 4),
        });
        assert_eq!(&ext.block_cache_keys()[..], [500, 501, 600, 601]);
        assert_eq!(&ext.block_keys(1..3)[..], [501, 600]);
        let gen = c.store_extents(&sig, c.begin(), 1, h, Arc::clone(&ext));
        assert_ne!(gen, BlockToken::DEAD);
        for (logical, &key) in ext.block_cache_keys().iter().enumerate() {
            put1(&c, &sig, gen, key, &[logical as u8; 64]);
        }
        assert_eq!(c.stats().resident_blocks, 4);
        c.invalidate(&sig);
        assert_eq!(
            c.stats().resident_blocks,
            0,
            "decoded logical blocks survived invalidation"
        );
        // A (1, 1) object's keys are its data blocks themselves.
        assert_eq!(&plain_extents(&[7, 9], &[]).block_cache_keys()[..], [7, 9]);
    }

    #[test]
    fn scoped_purge_sweeps_own_and_unscoped_entries_only() {
        let c = ReadCache::new(256);
        let (alice, bob) = (11u64, 22u64);
        let sig_a = [1u8; SIGNATURE_LEN];
        let sig_b = [2u8; SIGNATURE_LEN];
        let sig_u = [3u8; SIGNATURE_LEN];
        c.tag_scope(&sig_a, alice);
        c.tag_scope(&sig_b, bob);
        let gen_a = live_entry(&c, &sig_a, &[100]);
        let gen_b = live_entry(&c, &sig_b, &[101]);
        let gen_u = live_entry(&c, &sig_u, &[102]); // never tagged
        put1(&c, &sig_a, gen_a, 100, &[0xaa; 32]);
        put1(&c, &sig_b, gen_b, 101, &[0xbb; 32]);
        put1(&c, &sig_u, gen_u, 102, &[0xcc; 32]);

        c.purge_scope(alice);

        // Alice's entry and the unscoped one are gone; Bob's stays warm.
        assert!(c.lookup_header(&sig_a).is_none());
        assert!(c.lookup_header(&sig_u).is_none());
        assert!(c.lookup_header(&sig_b).is_some());
        let mut out = [0u8; 32];
        assert!(!get1(&c, gen_a, 100, &mut out));
        assert!(!get1(&c, gen_u, 102, &mut out));
        assert!(get1(&c, gen_b, 101, &mut out));
        assert_eq!(out, [0xbb; 32]);
        assert_eq!(c.stats().scoped_purges, 1);
        assert_eq!(c.stats().resident_blocks, 1);
    }

    #[test]
    fn scoped_purge_blocks_late_inserts_from_departed_walks() {
        // A walk in flight when the session signs off must not re-install.
        let c = ReadCache::new(64);
        let sig = [7u8; SIGNATURE_LEN];
        c.tag_scope(&sig, 42);
        let started = c.begin();
        c.purge_scope(42);
        c.store_header(&sig, started, 9, header(3));
        assert!(c.lookup_header(&sig).is_none(), "stale walk re-installed");
    }

    #[test]
    fn tag_scope_tags_resident_entries_in_place() {
        let c = ReadCache::new(64);
        let sig = [8u8; SIGNATURE_LEN];
        let gen = live_entry(&c, &sig, &[60]);
        put1(&c, &sig, gen, 60, &[1u8; 16]);
        // Entry cached before any tag existed; tagging it now scopes it.
        c.tag_scope(&sig, 5);
        c.purge_scope(99); // some other session leaves...
        assert!(c.lookup_header(&sig).is_some(), "tagged entry swept early");
        c.purge_scope(5); // ...then its owner does
        assert!(c.lookup_header(&sig).is_none());
        let mut out = [0u8; 16];
        assert!(!get1(&c, gen, 60, &mut out));
    }

    // ------------------------------------------------------------------
    // Derived key sets
    // ------------------------------------------------------------------

    #[test]
    fn keys_are_derived_once_and_shared() {
        let c = ReadCache::new(64);
        let first = c.keys_for("u1:/budget", b"fak");
        let again = c.keys_for("u1:/budget", b"fak");
        assert!(Arc::ptr_eq(&first, &again), "a hit shares the cached set");
        // Same bytes as the uncached reference derivation.
        let reference = ObjectKeys::derive("u1:/budget", b"fak");
        assert_eq!(first.signature(), reference.signature());
        assert_eq!(first.locator_seed(), reference.locator_seed());
        // Name and key both select the entry; the split is unambiguous.
        assert!(!Arc::ptr_eq(&first, &c.keys_for("u1:/budget", b"fak2")));
        assert!(!Arc::ptr_eq(&first, &c.keys_for("u1:/budgetf", b"ak")));
        let s = c.stats();
        assert_eq!((s.key_hits, s.key_misses, s.resident_keys), (1, 3, 3));
    }

    #[test]
    fn disabled_cache_retains_no_keys() {
        let c = ReadCache::new(0);
        let a = c.keys_for("obj", b"fak");
        let b = c.keys_for("obj", b"fak");
        assert!(!Arc::ptr_eq(&a, &b), "every call derives afresh");
        assert_eq!(a.signature(), b.signature());
        let s = c.stats();
        assert_eq!((s.key_hits, s.key_misses, s.resident_keys), (0, 0, 0));
    }

    #[test]
    fn scoped_purge_sweeps_own_and_unscoped_keys_only() {
        let c = ReadCache::new(64);
        let (alice, bob) = (11u64, 22u64);
        let ka = c.keys_for("a", b"fak-a");
        let kb = c.keys_for("b", b"fak-b");
        let _unscoped = c.keys_for("u", b"fak-u");
        c.tag_scope(ka.signature(), alice);
        c.tag_scope(kb.signature(), bob);
        assert_eq!(c.stats().resident_keys, 3);

        c.purge_scope(alice);

        assert_eq!(c.stats().resident_keys, 1, "only Bob's key set stays");
        assert!(Arc::ptr_eq(&kb, &c.keys_for("b", b"fak-b")));
        assert!(!Arc::ptr_eq(&ka, &c.keys_for("a", b"fak-a")));
        c.purge();
        assert_eq!(c.stats().resident_keys, 0);
    }

    #[test]
    fn dropped_keys_are_rederived_not_served() {
        let c = ReadCache::new(64);
        let old = c.keys_for("doc", b"fak");
        c.drop_keys("doc", b"fak");
        assert_eq!(c.stats().resident_keys, 0);
        assert!(!Arc::ptr_eq(&old, &c.keys_for("doc", b"fak")));
    }

    #[test]
    fn key_cache_evicts_least_recently_used() {
        let mut c = ReadCache::new(64);
        c.key_capacity = 2;
        let a = c.keys_for("a", b"k");
        let _b = c.keys_for("b", b"k");
        let _ = c.keys_for("a", b"k"); // touch: b is now the oldest
        let _c = c.keys_for("c", b"k");
        assert_eq!(c.stats().resident_keys, 2);
        assert!(Arc::ptr_eq(&a, &c.keys_for("a", b"k")), "a survived");
        let misses = c.stats().key_misses;
        let _ = c.keys_for("b", b"k");
        assert_eq!(c.stats().key_misses, misses + 1, "b was evicted");
    }

    #[test]
    fn derivation_in_flight_across_a_purge_is_not_installed() {
        let c = ReadCache::new(64);
        let epoch = c.key_epoch.load(Ordering::Acquire);
        let keys = Arc::new(ObjectKeys::derive("late", b"fak"));
        c.purge_scope(7); // the session signs off while the derive runs
        let used = c.install_keys(key_id("late", b"fak"), Arc::clone(&keys), epoch);
        assert!(Arc::ptr_eq(&used, &keys), "the caller still gets its keys");
        assert_eq!(c.stats().resident_keys, 0, "but nothing was remembered");
    }

    #[test]
    fn racing_first_lookups_converge_on_one_key_set() {
        let c = ReadCache::new(64);
        let barrier = std::sync::Barrier::new(8);
        let sets: Vec<Arc<ObjectKeys>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        c.keys_for("raced", b"fak")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let installed = c.keys_for("raced", b"fak");
        for k in &sets {
            assert_eq!(k.signature(), installed.signature());
            assert_eq!(k.locator_seed(), installed.locator_seed());
        }
        let s = c.stats();
        assert_eq!(s.resident_keys, 1);
        assert!((1..=8).contains(&s.key_misses), "{s:?}");
        assert_eq!(s.key_hits + s.key_misses, 9);
    }

    // ------------------------------------------------------------------
    // Eviction order: the LRU lists against the tick model they replaced
    // ------------------------------------------------------------------

    thread_local! {
        /// Every buffer [`retire`] has zeroed on this test's thread, as it
        /// left the cache.
        pub(super) static RETIRED: std::cell::RefCell<Vec<Vec<u8>>> =
            const { std::cell::RefCell::new(Vec::new()) };
        /// The key of every block evicted on this test's thread, in order.
        pub(super) static EVICTED: std::cell::RefCell<Vec<(u64, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// The block shards' previous eviction order, kept as the oracle: every
    /// resident carries the shard tick of its last put or hit, and the
    /// victim is found by a min-scan.
    struct TickShards {
        /// `(gen, block)` to `(length, tick)`.
        shards: Vec<HashMap<(u64, u64), (usize, u64)>>,
        ticks: Vec<u64>,
        per_shard: usize,
        evictions: u64,
    }

    impl TickShards {
        fn new(per_shard: usize) -> Self {
            TickShards {
                shards: vec![HashMap::new(); SHARDS],
                ticks: vec![0; SHARDS],
                per_shard,
                evictions: 0,
            }
        }

        fn tick(&mut self, block: u64) -> (usize, u64) {
            let shard = block_shard(block);
            self.ticks[shard] += 1;
            (shard, self.ticks[shard])
        }

        fn get(&mut self, gen: u64, block: u64) -> bool {
            let (shard, tick) = self.tick(block);
            match self.shards[shard].get_mut(&(gen, block)) {
                Some(entry) => {
                    entry.1 = tick;
                    true
                }
                None => false,
            }
        }

        fn put(&mut self, gen: u64, block: u64, len: usize) {
            let (shard, tick) = self.tick(block);
            let map = &mut self.shards[shard];
            map.insert((gen, block), (len, tick));
            while map.len() > self.per_shard {
                let victim = *map.iter().min_by_key(|(_, e)| e.1).expect("non-empty").0;
                map.remove(&victim);
                self.evictions += 1;
            }
        }

        fn drop_gens(&mut self, dead: &[u64]) {
            for map in &mut self.shards {
                map.retain(|(gen, _), _| !dead.contains(gen));
            }
        }

        /// A patch's update: a resident block takes the new length and
        /// a recency touch; one that is not resident stays absent.
        /// Returns whether it was resident.
        fn update(&mut self, gen: u64, block: u64, len: usize) -> bool {
            let (shard, tick) = self.tick(block);
            match self.shards[shard].get_mut(&(gen, block)) {
                Some(entry) => {
                    *entry = (len, tick);
                    true
                }
                None => false,
            }
        }

        fn residents(&self) -> impl Iterator<Item = (&(u64, u64), &(usize, u64))> {
            self.shards.iter().flatten()
        }
    }

    #[test]
    fn block_shards_evict_what_the_tick_model_evicts() {
        const PER_SHARD: usize = 3;
        const BLOCKS: u64 = 40;
        let (alice, bob) = (11u64, 22u64);
        let c = ReadCache::new(PER_SHARD * SHARDS);
        let mut model = TickShards::new(PER_SHARD);
        // Three objects on disjoint block ranges: Alice's, Bob's, nobody's.
        let sigs = [
            [1u8; SIGNATURE_LEN],
            [2u8; SIGNATURE_LEN],
            [3u8; SIGNATURE_LEN],
        ];
        let blocks_of =
            |obj: usize| -> Vec<u64> { (0..BLOCKS).map(|b| obj as u64 * 100 + b).collect() };
        c.tag_scope(&sigs[0], alice);
        c.tag_scope(&sigs[1], bob);
        let mut tokens: Vec<BlockToken> = (0..3)
            .map(|o| live_entry(&c, &sigs[o], &blocks_of(o)))
            .collect();
        let mut ever: Vec<(u64, u64)> = Vec::new(); // every (gen, block) ever put
        let mut put_bytes = 0u64;
        let mut rng = stegfs_crypto::prng::XorShiftRng::new(17);
        let mut out = [0u8; 48];
        for _ in 0..4000 {
            let obj = rng.next_below(3) as usize;
            let block = obj as u64 * 100 + rng.next_below(BLOCKS);
            let (token, gen) = (tokens[obj], tokens[obj].gen);
            match rng.next_below(1000) {
                0..=549 => {
                    let len = if rng.next_below(2) == 0 { 32 } else { 48 };
                    put1(&c, &sigs[obj], token, block, &vec![0xa5; len]);
                    model.put(gen, block, len);
                    ever.push((gen, block));
                    put_bytes += len as u64;
                }
                550..=929 => {
                    // Entries hold 32 or 48 bytes; probe only, then read.
                    let want = model.shards[block_shard(block)]
                        .get(&(gen, block))
                        .map(|e| e.0);
                    let hit = match want {
                        Some(len) => get1(&c, token, block, &mut out[..len]),
                        None => get1(&c, token, block, &mut out),
                    };
                    assert_eq!(hit, model.get(gen, block));
                }
                930..=989 => {
                    // A probe must not count as a use in either.
                    let resident = model.shards[block_shard(block)].contains_key(&(gen, block));
                    assert_eq!(has1(&c, token, block), resident);
                }
                990..=992 => {
                    // A patch updates exactly its resident blocks, allocates
                    // none and keeps the key space; the next token carries
                    // the moved fence.
                    let patch = [block, block + 1, obj as u64 * 100 + rng.next_below(BLOCKS)];
                    let len = if rng.next_below(2) == 0 { 32 } else { 48 };
                    let images = vec![0x5a; patch.len() * len];
                    assert!(patched(
                        &c,
                        &sigs[obj],
                        token,
                        &blocks_of(obj),
                        &patch,
                        &images
                    ));
                    for &b in &patch {
                        if model.update(gen, b, len) {
                            ever.push((gen, b));
                            put_bytes += len as u64;
                        }
                    }
                    tokens[obj] = live_entry(&c, &sigs[obj], &blocks_of(obj));
                    assert_eq!(tokens[obj].gen, gen);
                }
                993..=995 => {
                    c.invalidate(&sigs[obj]);
                    model.drop_gens(&[gen]);
                    tokens[obj] = live_entry(&c, &sigs[obj], &blocks_of(obj));
                }
                996..=998 => {
                    // Alice leaves: her object and the unscoped one die.
                    c.purge_scope(alice);
                    model.drop_gens(&[tokens[0].gen, tokens[2].gen]);
                    c.tag_scope(&sigs[0], alice);
                    for o in [0, 2] {
                        tokens[o] = live_entry(&c, &sigs[o], &blocks_of(o));
                    }
                }
                _ => {
                    c.purge_decrypted();
                    model.drop_gens(&tokens.iter().map(|t| t.gen).collect::<Vec<_>>());
                    for o in 0..3 {
                        tokens[o] = live_entry(&c, &sigs[o], &blocks_of(o));
                    }
                }
            }
            let s = c.stats();
            assert_eq!(s.resident_blocks, model.residents().count() as u64);
            assert_eq!(
                s.resident_bytes,
                model.residents().map(|(_, e)| e.0 as u64).sum::<u64>()
            );
            assert_eq!(s.evictions, model.evictions);
        }
        assert!(
            model.evictions > 500,
            "the script must evict: {}",
            model.evictions
        );
        // Exactly the model's residents, and nothing that ever left.
        for key in &ever {
            let resident = model.shards[block_shard(key.1)].contains_key(key);
            let token = BlockToken {
                gen: key.0,
                fence: 0,
            };
            assert_eq!(has1(&c, token, key.1), resident, "{key:?}");
        }
        // Every byte that went in is resident or was zeroed on the way out.
        RETIRED.with(|retired| {
            let retired = retired.borrow();
            assert!(retired.iter().flatten().all(|b| *b == 0), "un-zeroed exit");
            let gone: u64 = retired.iter().map(|d| d.len() as u64).sum();
            assert_eq!(put_bytes, c.stats().resident_bytes + gone);
            assert_eq!(
                ever.len() as u64,
                c.stats().resident_blocks + retired.len() as u64
            );
        });
    }

    #[test]
    fn key_cache_evicts_what_the_tick_model_evicts() {
        const CAPACITY: usize = 4;
        let mut c = ReadCache::new(64);
        c.key_capacity = CAPACITY;
        // Name index to the tick of its last `keys_for`.
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = stegfs_crypto::prng::XorShiftRng::new(5);
        let (mut hits, mut misses) = (0u64, 0u64);
        for tick in 1..=120u64 {
            let name = rng.next_below(7);
            let physical = format!("object-{name}");
            if rng.next_below(8) == 0 && model.contains_key(&name) {
                // A racer arriving second adopts the resident set; that is
                // not a use, in either design: the model's tick stays.
                let epoch = c.key_epoch.load(Ordering::Acquire);
                let late = Arc::new(ObjectKeys::derive(&physical, b"k"));
                let used = c.install_keys(key_id(&physical, b"k"), Arc::clone(&late), epoch);
                assert!(!Arc::ptr_eq(&used, &late), "adopted the resident set");
                continue;
            }
            c.keys_for(&physical, b"k");
            if model.insert(name, tick).is_some() {
                hits += 1;
            } else {
                misses += 1;
                if model.len() > CAPACITY {
                    let victim = *model.iter().min_by_key(|(_, t)| **t).expect("non-empty").0;
                    model.remove(&victim);
                }
            }
            let s = c.stats();
            assert_eq!((s.key_hits, s.key_misses), (hits, misses), "call {tick}");
            assert_eq!(s.resident_keys, model.len() as u64);
        }
        assert!(misses > CAPACITY as u64 + 10, "the script must evict");
    }

    #[test]
    fn obs_histograms_record_cache_traffic() {
        let obs = stegfs_obs::Obs::new();
        let mut c = ReadCache::new(SHARDS);
        c.set_obs(obs.readcache.clone());
        let sig = [12u8; SIGNATURE_LEN];
        let b0 = 0u64;
        let b1 = SHARDS as u64; // same shard as b0: forces an eviction
        let gen = live_entry(&c, &sig, &[b0, b1]);
        let mut out = [0u8; 16];
        put1(&c, &sig, gen, b0, &[9u8; 16]);
        assert!(get1(&c, gen, b0, &mut out));
        assert!(!get1(&c, gen, b1, &mut out));
        put1(&c, &sig, gen, b1, &[8u8; 16]);
        c.purge();
        let s = obs.readcache.summary();
        assert_eq!(s.hit_ns.count, 1);
        assert_eq!(s.miss_ns.count, 1);
        assert_eq!(s.evict_ns.count, 1);
        assert_eq!(s.zeroize_ns.count, 1);
    }

    // ------------------------------------------------------------------
    // Batched calls against one-block calls
    // ------------------------------------------------------------------

    /// What the cache calls since the last drain left behind on this
    /// thread: the evicted keys grouped by shard (each in order), and the
    /// retired images.
    #[derive(Debug, PartialEq)]
    struct Exits {
        evicted_by_shard: Vec<Vec<(u64, u64)>>,
        retired: Vec<Vec<u8>>,
    }

    fn drain_exits() -> Exits {
        let mut evicted_by_shard = vec![Vec::new(); SHARDS];
        for key in EVICTED.with(|e| std::mem::take(&mut *e.borrow_mut())) {
            evicted_by_shard[block_shard(key.1)].push(key);
        }
        let mut retired = RETIRED.with(|r| std::mem::take(&mut *r.borrow_mut()));
        retired.sort();
        Exits {
            evicted_by_shard,
            retired,
        }
    }

    /// A batch of `len` blocks in `0..64` (repeats allowed) drawn from
    /// `seed`, with one 16-byte image per block.
    fn batch(seed: u64, len: usize) -> (Vec<u64>, Vec<u8>) {
        let mut rng = stegfs_crypto::prng::XorShiftRng::new(seed | 1);
        let blocks: Vec<u64> = (0..len).map(|_| rng.next_below(64)).collect();
        let data = (0..len * 16).map(|_| rng.next_below(256) as u8).collect();
        (blocks, data)
    }

    /// The per-object state one cache of the pair below carries: live
    /// generations, and the last generation that died.
    struct Side {
        gens: [BlockToken; 2],
        dead: BlockToken,
    }

    /// One scripted step on one cache, either as batched calls or as the
    /// equivalent loop of one-block calls; returns what the caller saw.
    fn step(
        c: &ReadCache,
        side: &mut Side,
        batched: bool,
        (op, len, seed): (u8, usize, u64),
    ) -> Vec<u8> {
        const BS: usize = 16;
        let alice = 11u64;
        let sigs = [[1u8; SIGNATURE_LEN], [2u8; SIGNATURE_LEN]];
        let every: Vec<u64> = (0..64).collect();
        let obj = (seed % 2) as usize;
        let (blocks, data) = batch(seed, len);
        let gen = side.gens[obj];
        match op {
            0..=3 => {
                // Seen: the bytes (zeros for a miss), then one flag per
                // block (1 = miss).
                let mut seen = Vec::new();
                let mut flags = vec![0; len];
                if batched {
                    for i in c.get_blocks(gen, &blocks, BS, &mut seen) {
                        flags[i] = 1;
                    }
                } else {
                    for (i, &b) in blocks.iter().enumerate() {
                        let mut image = Vec::new();
                        flags[i] = u8::from(!c.get_blocks(gen, &[b], BS, &mut image).is_empty());
                        seen.extend(image);
                    }
                }
                seen.extend(flags);
                seen
            }
            4..=7 => {
                // Now and then a put under a dead generation.
                let gen = if op == 7 { side.dead } else { gen };
                if batched {
                    c.put_blocks(&sigs[obj], gen, &blocks, &data);
                } else {
                    for (&b, image) in blocks.iter().zip(data.chunks_exact(BS)) {
                        put1(c, &sigs[obj], gen, b, image);
                    }
                }
                Vec::new()
            }
            8 if batched => c
                .contains_blocks(gen, &blocks)
                .into_iter()
                .map(u8::from)
                .collect(),
            8 => blocks.iter().map(|&b| u8::from(has1(c, gen, b))).collect(),
            9 | 10 => {
                side.dead = gen;
                c.invalidate(&sigs[obj]);
                side.gens[obj] = live_entry(c, &sigs[obj], &every);
                Vec::new()
            }
            _ => {
                // Alice leaves: her object and the untagged one die.
                side.dead = side.gens[0];
                c.purge_scope(alice);
                c.tag_scope(&sigs[0], alice);
                side.gens = [
                    live_entry(c, &sigs[0], &every),
                    live_entry(c, &sigs[1], &every),
                ];
                Vec::new()
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn batched_calls_match_one_block_calls(
            ops in proptest::collection::vec(
                (0u8..12, 1usize..=12, proptest::prelude::any::<u64>()),
                1..80,
            ),
        ) {
            let every: Vec<u64> = (0..64).collect();
            // Two blocks per shard over 64 blocks: most puts evict.
            let caches = [ReadCache::new(2 * SHARDS), ReadCache::new(2 * SHARDS)];
            let mut sides = Vec::new();
            for c in &caches {
                c.tag_scope(&[1u8; SIGNATURE_LEN], 11);
                sides.push(Side {
                    gens: [
                        live_entry(c, &[1u8; SIGNATURE_LEN], &every),
                        live_entry(c, &[2u8; SIGNATURE_LEN], &every),
                    ],
                    dead: BlockToken::DEAD,
                });
            }
            drain_exits();
            for op in ops {
                let seen_batched = step(&caches[0], &mut sides[0], true, op);
                let exits_batched = drain_exits();
                let seen_single = step(&caches[1], &mut sides[1], false, op);
                let exits_single = drain_exits();
                proptest::prop_assert_eq!(seen_batched, seen_single);
                proptest::prop_assert_eq!(&exits_batched, &exits_single);
                proptest::prop_assert!(exits_batched.retired.iter().flatten().all(|b| *b == 0));
                proptest::prop_assert_eq!(caches[0].stats(), caches[1].stats());
                proptest::prop_assert_eq!(sides[0].gens, sides[1].gens);
                for gen in sides[0].gens {
                    proptest::prop_assert_eq!(
                        caches[0].contains_blocks(gen, &every),
                        caches[1].contains_blocks(gen, &every)
                    );
                }
            }
        }
    }

    #[test]
    fn a_lookup_across_every_shard_fills_slot_order() {
        const BS: usize = 8;
        let image = |b: u64| vec![b as u8 + 1; BS];
        let sig = [7u8; SIGNATURE_LEN];
        let all: Vec<u64> = (0..64).collect();
        // 48 blocks whose shards interleave, touching all 16; a block is
        // resident unless it is a multiple of 3, so hits and misses
        // alternate within every shard.
        let span: Vec<u64> = (0..48).map(|i| i * 7 % 64).collect();
        let resident = |b: &u64| !b.is_multiple_of(3);
        let caches = [ReadCache::new(4 * SHARDS), ReadCache::new(4 * SHARDS)];
        let tokens = caches.each_ref().map(|c| live_entry(c, &sig, &all));
        for (c, &token) in caches.iter().zip(&tokens) {
            for b in all.iter().copied().filter(resident) {
                put1(c, &sig, token, b, &image(b));
            }
        }
        drain_exits();

        let mut out = Vec::new();
        let missed = caches[0].get_blocks(tokens[0], &span, BS, &mut out);
        let want: Vec<u8> = span
            .iter()
            .flat_map(|b| if resident(b) { image(*b) } else { vec![0; BS] })
            .collect();
        assert_eq!(
            out, want,
            "cached bytes for hits, zeros for misses, in slot order"
        );
        let want_missed: Vec<usize> = (0..span.len()).filter(|&i| !resident(&span[i])).collect();
        assert_eq!(missed, want_missed);
        for &b in &span {
            let mut chunk = [0u8; BS];
            assert_eq!(get1(&caches[1], tokens[1], b, &mut chunk), resident(&b));
        }
        assert_eq!(caches[0].stats(), caches[1].stats());

        // The LRU order the lookups left: a new block per slot of every
        // shard evicts the residents in the same order from both caches.
        let exits = caches.each_ref().map(|c| {
            let token = live_entry(c, &sig, &all);
            for b in 64..128 {
                put1(c, &sig, token, b, &image(b));
            }
            drain_exits()
        });
        assert!(exits[0].evicted_by_shard.iter().all(|e| e.len() > 1));
        assert_eq!(exits[0], exits[1]);
        assert_eq!(caches[0].stats(), caches[1].stats());
    }

    #[test]
    fn scratch_pool_reuses_and_zeroes() {
        let mut v = Scratch::take(128);
        assert_eq!(v[..], [0u8; 128]);
        v.fill(0x5a);
        drop(v);
        let v2 = Scratch::take(64);
        assert_eq!(v2[..], [0u8; 64], "pooled buffer must come back zeroed");
        drop(v2);
        // An appended buffer comes from, and goes back to, the same pool.
        let mut v3 = Scratch::with_capacity(256);
        assert!(v3.is_empty());
        v3.as_vec_mut().extend_from_slice(&[0xa5; 256]);
        drop(v3);
        let v4 = Scratch::take(256);
        assert_eq!(v4[..], [0u8; 256], "appended bytes must come back zeroed");
    }
}
