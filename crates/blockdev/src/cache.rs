//! A small LRU buffer cache, write-through or write-back.
//!
//! Figure 5 of the paper places StegFS above the Linux buffer cache.  The
//! cache is not essential to the steganographic design, but it matters for
//! fidelity of the workloads: metadata blocks (the superblock, bitmap blocks
//! and inode-table blocks) are touched on every operation and would otherwise
//! dominate the simulated I/O time in a way the real system never exhibits.
//!
//! Two modes ([`CacheMode`]):
//!
//! * **write-through** (the default, and the only mode before the journal
//!   landed): writes update both the cache and the underlying device, so the
//!   on-"disk" image is always current and crash / backup experiments can
//!   image the raw device at any point.
//! * **write-back**: writes dirty the cache and reach the device only at
//!   [`flush`](BlockDevice::flush) (one batched submission for all dirty
//!   blocks, then the inner barrier) or when a dirty block is evicted.  This
//!   is the mode the journaled stack runs in: the journal's group commit
//!   provides the flush barriers, so many small writes amortize into one
//!   device submission — the write-back win `repro --durability` measures.
//!   Crash consistency in this mode comes entirely from the journal: the
//!   cache itself promises only that a successful `flush` is a barrier.
//!
//! # What a call costs, and what it evicts
//!
//! Residents sit in an [`LruMap`]: eviction is LRU — hits are touched in
//! call order, then misses are inserted in call order; writing or re-reading
//! a resident block makes it the most recent — with one exception, for
//! blocks that are written but never read.  A resident carries an *unread*
//! mark from the write-back write that made it resident until a read hits
//! it (a fill makes a block resident already read; a rewrite keeps the
//! mark).  When a
//! flush's write-back of an unread block lands, the block becomes the least
//! recent: the next victim.  Journal ring slots are written and read back
//! only by replay, and checkpoint anchors and bitmap images are seldom read
//! either; they used to sit at the MRU end after their write-back, pushing
//! out blocks that reads come back for.  A demoted block is clean, so
//! evicting it writes nothing; a rewritten flight block stays dirty and is
//! demoted only when its own write-back lands.  Write-through mode never
//! writes back, so its order is exact LRU.  No caller tags anything: the
//! rule uses only what the cache sees, so every wrapper between the journal
//! and the cache stays a pass-through.
//!
//! Picking the victim is O(1), so every call costs O(blocks in the call)
//! whatever the capacity and however full the cache is.  A miss on a full
//! cache reuses the victim's buffer for the incoming block and allocates
//! nothing.  The dirty residents are also kept in an ascending index, so
//! [`flush`](BlockDevice::flush) is O(dirty blocks) — it never looks at a
//! clean entry — and still emits one ascending batch, and
//! [`dirty_blocks`](BufferCache::dirty_blocks) and
//! [`len`](BufferCache::len) are O(1).
//!
//! # What runs under the lock
//!
//! The state lock guards memory only: the resident images, the LRU order,
//! the dirty index, the registered fills and the in-flight flush batch.
//! Two device transfers run with it dropped:
//!
//! * **A read miss** registers its blocks as *filling*, drops the lock for
//!   the device read, and re-takes it to finish.  A write to a filling block
//!   marks the fill *clobbered*, because the device image the miss is
//!   fetching may predate the write.  On finishing, a miss whose block
//!   became resident meanwhile returns the resident image; otherwise it
//!   caches its device image unless the fill was clobbered.  So a racing
//!   read can never re-insert pre-write data over a fresh write.
//! * **A flush's write-back batch.**  Flushes (and
//!   [`invalidate`](BufferCache::invalidate)) serialize on a flusher mutex,
//!   always taken before the state lock.  Under the state lock a flush
//!   gathers every dirty image into one buffer, in ascending block order,
//!   and records the block list as the *flight*; it drops the lock for the
//!   one `write_blocks`, re-takes it to retire the flight, and only then
//!   issues the inner barrier.  Flight blocks stay resident and dirty until
//!   the batch lands, so a miss can never read a pre-batch device image: on
//!   success the flight blocks not rewritten since the gather become clean
//!   (and the unread ones are demoted), and on failure nothing changes — no
//!   re-insert path exists.  A batch whose `write_blocks` panics retires as
//!   a failed one while it unwinds, so no write waits for a flight that
//!   will never land.  A write to a flight block while the batch is out is
//!   recorded, like a fill's clobber list, and that block stays dirty for
//!   the next flush.
//!
//! Two stay under the lock, because they publish state the device must
//! agree with first: a write-through write (device, then resident image),
//! and the write-back of a dirty eviction victim, which must land before
//! the victim is unlinked.  A victim that is a flight block *not* rewritten
//! since the gather is written with the batch's own image, so the two
//! cannot land in a harmful order.  A victim that *was* rewritten must not
//! overtake the batch — the older image would land on top of the newer —
//! so the write that needs its slot waits on a condvar beside the state
//! lock until the flight retires, then decides again; a read miss in that
//! position leaves its block uncached instead.
//!
//! Two further steps were measured on the concurrent engine workload
//! (`engine_mixed_io` of the gating benchmark, one 12 s run) and left out:
//! single-flight misses (two misses on one block both read the device: 3
//! duplicate blocks among 2.0 M filled by 196k fills) and writing dirty
//! victims with the lock dropped (about 580 per run, roughly 0.5 % of
//! operations).
//!
//! With one caller at a time nothing happens in any gap, so the device sees
//! the same submissions in the same order, and the LRU order and statistics
//! are those of a cache that held the lock throughout.
//!
//! # When a write-back fails
//!
//! A dirty block leaves the cache only after the device accepted it.  If
//! the write of an eviction victim fails, the victim stays resident and
//! dirty, the call that needed its slot returns the error without caching
//! its own block (a batch stops there; blocks it already placed stay), and
//! a later eviction or flush writes the victim again.  If the batched write
//! of a flush fails, every dirty block stays dirty and the flush returns
//! the error before the inner barrier.  A failed device read caches nothing
//! and leaves no fill registered.

use crate::device::{check_batch, BlockDevice, BlockId};
use crate::error::{BlockError, BlockResult};
use crate::lru::LruMap;
use std::collections::BTreeSet;
use stegfs_obs::lock::{Condvar, Mutex, MutexGuard};

/// Write policy of a [`BufferCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Every write goes straight to the device (and the cache).
    WriteThrough,
    /// Writes dirty the cache; the device sees them at flush or eviction.
    WriteBack,
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read requests served from the cache.
    pub hits: u64,
    /// Read requests that had to go to the device.
    pub misses: u64,
    /// Number of cache entries evicted.
    pub evictions: u64,
    /// Dirty blocks written to the device by flushes or evictions
    /// (write-back mode only).
    pub write_backs: u64,
}

/// One resident block.
struct Resident {
    image: Vec<u8>,
    /// No read has touched the block since a write-back write made it
    /// resident: when its write-back lands it becomes the next victim
    /// (module docs).
    unread: bool,
}

#[derive(Default)]
struct CacheState {
    /// Resident blocks, in LRU order (module docs).
    entries: LruMap<BlockId, Resident>,
    /// Which residents are dirty (always a subset of `entries`' keys; empty
    /// in write-through mode), ascending — the batch a flush submits.  A
    /// flight's blocks stay in it until the batch lands.
    dirty: BTreeSet<BlockId>,
    /// Misses reading the device with the lock dropped (empty but for the
    /// gaps of concurrent calls).
    fills: Vec<Fill>,
    next_fill: u64,
    /// The flush batch out on the device with the lock dropped, if any.
    flight: Option<Flight>,
    stats: CacheStats,
}

/// A flush's write-back batch while it is out on the device.
struct Flight {
    /// Its blocks, ascending; each was resident and dirty when gathered.
    blocks: Vec<BlockId>,
    /// Flight blocks written since the gather: the batch carries an older
    /// image of them, so they stay dirty when it lands.
    rewritten: Vec<BlockId>,
}

/// One miss call out on the device.
struct Fill {
    id: u64,
    /// Bounds of the blocks it reads: a prefilter for writes.
    lo: BlockId,
    hi: BlockId,
    /// Blocks within the bounds written since the fill began: its device
    /// images of these may predate the write, so they are not cached.
    clobbered: Vec<BlockId>,
}

impl CacheState {
    /// Register a miss call reading `blocks` (non-empty); returns its id.
    fn begin_fill(&mut self, blocks: &[BlockId]) -> u64 {
        let id = self.next_fill;
        self.next_fill += 1;
        let lo = blocks.iter().copied().min().expect("a fill reads a block");
        let hi = blocks.iter().copied().max().expect("a fill reads a block");
        self.fills.push(Fill {
            id,
            lo,
            hi,
            clobbered: Vec::new(),
        });
        id
    }

    /// Unregister fill `id`; returns the blocks written while it was out.
    fn end_fill(&mut self, id: u64) -> Vec<BlockId> {
        let at = self.fills.iter().position(|f| f.id == id);
        self.fills
            .swap_remove(at.expect("the fill was registered"))
            .clobbered
    }

    /// A write is about to change `block`: fills reading it must not cache.
    fn clobber(&mut self, block: BlockId) {
        for fill in &mut self.fills {
            if (fill.lo..=fill.hi).contains(&block) {
                fill.clobbered.push(block);
            }
        }
    }

    /// A write just changed resident `block`: if the flight carries an older
    /// image of it, it must stay dirty when the batch lands.
    fn rewrite(&mut self, block: BlockId) {
        if let Some(flight) = &mut self.flight {
            if flight.blocks.binary_search(&block).is_ok() && !flight.rewritten.contains(&block) {
                flight.rewritten.push(block);
            }
        }
    }

    /// True if `block` is a flight block rewritten since the gather: writing
    /// its newer image down now could be overtaken by the batch.
    fn rewritten_in_flight(&self, block: BlockId) -> bool {
        self.flight
            .as_ref()
            .is_some_and(|f| f.rewritten.contains(&block))
    }
}

/// LRU cache over a [`BlockDevice`], shared by reference across threads.
/// See the module docs for the two modes and for which device transfers
/// run under the cache's lock (read misses and flush batches do not).
pub struct BufferCache<D: BlockDevice> {
    inner: D,
    capacity: usize,
    mode: CacheMode,
    /// Serializes flushes; taken before `state`, never inside it.
    flusher: Mutex<()>,
    state: Mutex<CacheState>,
    /// Signalled whenever a flight retires, landed or failed.
    landed: Condvar,
}

impl<D: BlockDevice> BufferCache<D> {
    /// Create a write-through cache holding at most `capacity_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `capacity_blocks` is zero.
    pub fn new(inner: D, capacity_blocks: usize) -> Self {
        Self::with_mode(inner, capacity_blocks, CacheMode::WriteThrough)
    }

    /// Create a write-back cache holding at most `capacity_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `capacity_blocks` is zero.
    pub fn new_write_back(inner: D, capacity_blocks: usize) -> Self {
        Self::with_mode(inner, capacity_blocks, CacheMode::WriteBack)
    }

    /// Create a cache with an explicit [`CacheMode`].
    ///
    /// # Panics
    /// Panics if `capacity_blocks` is zero.
    pub fn with_mode(inner: D, capacity_blocks: usize, mode: CacheMode) -> Self {
        assert!(capacity_blocks > 0, "cache must hold at least one block");
        BufferCache {
            inner,
            capacity: capacity_blocks,
            mode,
            flusher: Mutex::new(()),
            state: Mutex::new(CacheState::default()),
            landed: Condvar::new(),
        }
    }

    /// The cache's write policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats.clone()
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// True if the cache currently holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.state.lock().entries.is_empty()
    }

    /// Number of dirty blocks awaiting write-back.
    pub fn dirty_blocks(&self) -> usize {
        self.state.lock().dirty.len()
    }

    /// Drop all cached blocks.  In write-back mode, dirty blocks are first
    /// written to the device (without a barrier) so no data is lost.
    pub fn invalidate(&self) -> BlockResult<()> {
        let _flusher = self.flusher.lock();
        loop {
            // Writes racing the batch leave blocks dirty: go again.
            let mut state = self.write_back()?;
            if state.dirty.is_empty() {
                state.entries.clear();
                return Ok(());
            }
        }
    }

    /// Access the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap the cache, returning the underlying device.  Dirty blocks are
    /// **not** written back; call [`flush`](BlockDevice::flush) first.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Write every dirty block down in one ascending batched submission (no
    /// barrier) with the state lock dropped, as the flight (module docs);
    /// on an error they all stay dirty.  Returns the re-taken state lock.
    /// Caller holds the flusher lock.
    fn write_back(&self) -> BlockResult<MutexGuard<'_, CacheState>> {
        let mut state = self.state.lock();
        if state.dirty.is_empty() {
            return Ok(state);
        }
        let blocks: Vec<BlockId> = state.dirty.iter().copied().collect();
        let mut buf = Vec::with_capacity(blocks.len() * self.inner.block_size());
        for b in &blocks {
            let resident = state.entries.peek(b).expect("dirty blocks are resident");
            buf.extend_from_slice(&resident.image);
        }
        state.flight = Some(Flight {
            blocks: blocks.clone(),
            rewritten: Vec::new(),
        });
        drop(state);
        let unwinding = FailFlightOnUnwind(self);
        let wrote = self.inner.write_blocks(&blocks, &buf);
        std::mem::forget(unwinding);
        let mut state = self.state.lock();
        let flight = state.flight.take().expect("flushes are serialized");
        if wrote.is_ok() {
            for b in &flight.blocks {
                if flight.rewritten.contains(b) {
                    continue;
                }
                state.dirty.remove(b);
                if state.entries.peek(b).is_some_and(|r| r.unread) {
                    state.entries.demote(b);
                }
            }
            state.stats.write_backs += flight.blocks.len() as u64;
        }
        self.landed.notify_all();
        wrote.map(|()| state)
    }

    /// Make `data` the cached image of `block` and the most recently used
    /// entry (a block that was dirty stays dirty, and a resident keeps its
    /// unread mark), evicting the LRU victim first if `block` is new and the
    /// cache is full.  A dirty victim is written to the device *before* it
    /// is unlinked, so a failed write-back drops nothing (module docs).
    /// Returns `false`, having changed nothing, if the victim is a flight
    /// block rewritten since the gather: a clean image may then simply stay
    /// uncached, a dirty one must wait for the flight
    /// ([`Self::insert_dirty`]).  Caller holds the state lock.
    fn insert(
        &self,
        state: &mut CacheState,
        block: BlockId,
        data: &[u8],
        dirty: bool,
    ) -> BlockResult<bool> {
        // Only write-back mode ever demotes, so only its writes mark.
        let unread = dirty;
        if let Some(resident) = state.entries.get(&block) {
            resident.image.clear();
            resident.image.extend_from_slice(data);
        } else if state.entries.len() >= self.capacity {
            let (&victim, resident) = state.entries.peek_lru().expect("capacity is non-zero");
            if state.rewritten_in_flight(victim) {
                return Ok(false);
            }
            if state.dirty.contains(&victim) {
                self.inner.write_block(victim, &resident.image)?;
                state.dirty.remove(&victim);
                state.stats.write_backs += 1;
            }
            state.stats.evictions += 1;
            // The victim's slot and buffer carry the incoming block.
            let (_, resident) = state.entries.replace_lru(block).expect("victim exists");
            resident.image.clear();
            resident.image.extend_from_slice(data);
            resident.unread = unread;
        } else {
            let image = data.to_vec();
            state.entries.insert(block, Resident { image, unread });
        }
        if dirty {
            state.dirty.insert(block);
            state.rewrite(block);
        }
        Ok(true)
    }

    /// Copy resident `block`'s image into `buf` as a read hit: it becomes
    /// the most recent entry and loses its unread mark.  False if `block`
    /// is not resident (or `buf` is not one block long).
    fn hit(state: &mut CacheState, block: BlockId, buf: &mut [u8]) -> bool {
        match state.entries.get(&block) {
            Some(resident) if resident.image.len() == buf.len() => {
                buf.copy_from_slice(&resident.image);
                resident.unread = false;
                true
            }
            _ => false,
        }
    }

    /// Place a write-back write of `block`, waiting out the flight each time
    /// its slot's victim is a rewritten flight block.  Clobbers `block`'s
    /// fills on every attempt, since fills can begin while it waits.
    fn insert_dirty<'a>(
        &'a self,
        mut state: MutexGuard<'a, CacheState>,
        block: BlockId,
        data: &[u8],
    ) -> BlockResult<MutexGuard<'a, CacheState>> {
        loop {
            state.clobber(block);
            if self.insert(&mut state, block, data, true)? {
                return Ok(state);
            }
            state = self.landed.wait(state);
        }
    }

    /// Second half of a miss on `block`, whose device image is in `image`,
    /// under the re-taken lock: count it; then if another call made `block`
    /// resident meanwhile, hand back that newer image instead (a read of
    /// it), else cache the device image unless the fill was `clobbered`.
    fn finish_fill(
        &self,
        state: &mut CacheState,
        block: BlockId,
        clobbered: bool,
        image: &mut [u8],
    ) -> BlockResult<()> {
        state.stats.misses += 1;
        if Self::hit(state, block, image) || clobbered {
            return Ok(());
        }
        self.insert(state, block, image, false).map(drop)
    }

    /// Validate a write's geometry against the inner device so write-back
    /// mode reports errors at write time, like write-through does.
    fn check_write(&self, block: BlockId, len: usize) -> BlockResult<()> {
        if block >= self.inner.total_blocks() {
            return Err(BlockError::OutOfRange {
                block,
                total: self.inner.total_blocks(),
            });
        }
        if len != self.inner.block_size() {
            return Err(BlockError::BadBufferLength {
                got: len,
                expected: self.inner.block_size(),
            });
        }
        Ok(())
    }
}

/// Armed across a flush batch's `write_blocks`, and forgotten when it
/// returns: dropped only if the call unwinds, it retires the flight as a
/// failed one (every block stays dirty) and wakes the writers waiting for
/// it, which would otherwise wait until some later flush.
struct FailFlightOnUnwind<'a, D: BlockDevice>(&'a BufferCache<D>);

impl<D: BlockDevice> Drop for FailFlightOnUnwind<'_, D> {
    fn drop(&mut self) {
        self.0.state.lock().flight = None;
        self.0.landed.notify_all();
    }
}

impl<D: BlockDevice> BlockDevice for BufferCache<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks()
    }

    fn read_block(&self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
        let mut state = self.state.lock();
        if buf.len() == self.inner.block_size() && Self::hit(&mut state, block, buf) {
            state.stats.hits += 1;
            return Ok(());
        }
        let fill = state.begin_fill(&[block]);
        drop(state);
        let read = self.inner.read_block(block, buf);
        let mut state = self.state.lock();
        let clobbered = !state.end_fill(fill).is_empty();
        read?;
        self.finish_fill(&mut state, block, clobbered, buf)
    }

    fn write_block(&self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
        let mut state = self.state.lock();
        match self.mode {
            CacheMode::WriteThrough => {
                // Device first so a device error leaves the cache consistent
                // with the (unchanged) device contents; the state lock is
                // held across the transfer so a racing miss cannot resurrect
                // pre-write data.
                state.clobber(block);
                self.inner.write_block(block, buf)?;
                self.insert(&mut state, block, buf, false).map(drop)
            }
            CacheMode::WriteBack => {
                self.check_write(block, buf.len())?;
                self.insert_dirty(state, block, buf).map(drop)
            }
        }
    }

    // Batched reads serve hits from the cache and gather every miss into one
    // inner submission, filled like a single miss; batched writes go through
    // in one submission (write-through) or dirty the cache (write-back),
    // under one hold of the lock unless a victim must wait out the flight.
    fn read_blocks(&self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
        let bs = self.inner.block_size();
        if buf.len() != blocks.len() * bs {
            // Delegate the error shape to the inner device.
            return self.inner.read_blocks(blocks, buf);
        }
        let mut state = self.state.lock();
        let mut missing: Vec<(usize, BlockId)> = Vec::new();
        for (i, &block) in blocks.iter().enumerate() {
            if Self::hit(&mut state, block, &mut buf[i * bs..(i + 1) * bs]) {
                state.stats.hits += 1;
            } else {
                missing.push((i, block));
            }
        }
        if missing.is_empty() {
            return Ok(());
        }
        let miss_blocks: Vec<BlockId> = missing.iter().map(|&(_, b)| b).collect();
        let fill = state.begin_fill(&miss_blocks);
        drop(state);
        let mut miss_buf = vec![0u8; miss_blocks.len() * bs];
        let read = self.inner.read_blocks(&miss_blocks, &mut miss_buf);
        let mut state = self.state.lock();
        let clobbered = state.end_fill(fill);
        read?;
        for (j, &(i, block)) in missing.iter().enumerate() {
            let data = &mut miss_buf[j * bs..(j + 1) * bs];
            self.finish_fill(&mut state, block, clobbered.contains(&block), data)?;
            buf[i * bs..(i + 1) * bs].copy_from_slice(data);
        }
        Ok(())
    }

    fn write_blocks(&self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
        let bs = self.inner.block_size();
        let mut state = self.state.lock();
        match self.mode {
            CacheMode::WriteThrough => {
                for &block in blocks {
                    state.clobber(block);
                }
                self.inner.write_blocks(blocks, buf)?;
                if buf.len() == blocks.len() * bs {
                    for (i, &block) in blocks.iter().enumerate() {
                        self.insert(&mut state, block, &buf[i * bs..(i + 1) * bs], false)?;
                    }
                }
                Ok(())
            }
            CacheMode::WriteBack => {
                check_batch(blocks.len(), buf.len(), bs)?;
                for &block in blocks {
                    self.check_write(block, bs)?;
                }
                for (i, &block) in blocks.iter().enumerate() {
                    state = self.insert_dirty(state, block, &buf[i * bs..(i + 1) * bs])?;
                }
                Ok(())
            }
        }
    }

    /// The barrier: write-back mode pushes every dirty block down in one
    /// batched submission with the state lock dropped, then flushes the
    /// inner device.  Flushes run one at a time, so a flush's barrier never
    /// precedes the batch of one that started before it.
    fn flush(&self) -> BlockResult<()> {
        let _flusher = self.flusher.lock();
        drop(self.write_back()?);
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MemBlockDevice, SharedDevice};
    use crate::fault::{Dir, FaultDevice, FaultTarget, Op, Park, ParkAt, Trigger};
    use crate::observed::ObservedDevice;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn repeated_reads_hit_cache() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new(metered, 8);
        let mut buf = vec![0u8; 64];
        cache.read_block(5, &mut buf).unwrap();
        cache.read_block(5, &mut buf).unwrap();
        cache.read_block(5, &mut buf).unwrap();
        assert_eq!(
            io.summary().blocks_read,
            1,
            "only the first read reaches the device"
        );
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn writes_are_write_through() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new(metered, 8);
        cache.write_block(3, &[0xaa; 64]).unwrap();
        assert_eq!(io.summary().blocks_written, 1);
        // Read after write is a cache hit and returns the written data.
        let mut buf = vec![0u8; 64];
        cache.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, vec![0xaa; 64]);
        assert_eq!(io.summary().blocks_read, 0);
        // The device itself also holds the data.
        let inner = cache.into_inner().into_inner();
        assert_eq!(inner.read_block_vec(3).unwrap(), vec![0xaa; 64]);
    }

    #[test]
    fn write_back_defers_until_flush() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new_write_back(metered, 8);
        assert_eq!(cache.mode(), CacheMode::WriteBack);
        cache.write_block(3, &[0xaa; 64]).unwrap();
        cache.write_blocks(&[4, 5], &[0xbb; 128]).unwrap();
        assert_eq!(
            io.summary().blocks_written,
            0,
            "nothing reaches the device yet"
        );
        assert_eq!(cache.dirty_blocks(), 3);
        // Reads see the dirty data.
        let mut buf = vec![0u8; 64];
        cache.read_block(4, &mut buf).unwrap();
        assert_eq!(buf, vec![0xbb; 64]);
        // One flush pushes all three in one batched submission.
        cache.flush().unwrap();
        let s = io.summary();
        assert_eq!(s.blocks_written, 3);
        assert_eq!(s.writes, 1);
        assert_eq!(cache.dirty_blocks(), 0);
        assert_eq!(cache.stats().write_backs, 3);
        // A second flush writes nothing.
        cache.flush().unwrap();
        assert_eq!(io.summary().blocks_written, 3);
        let inner = cache.into_inner().into_inner();
        assert_eq!(inner.read_block_vec(3).unwrap(), vec![0xaa; 64]);
        assert_eq!(inner.read_block_vec(5).unwrap(), vec![0xbb; 64]);
    }

    #[test]
    fn write_back_eviction_preserves_dirty_data() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new_write_back(metered, 2);
        cache.write_block(0, &[1; 64]).unwrap();
        cache.write_block(1, &[2; 64]).unwrap();
        cache.write_block(2, &[3; 64]).unwrap(); // evicts dirty block 0
        assert_eq!(
            io.summary().blocks_written,
            1,
            "evicted dirty block written down"
        );
        assert_eq!(cache.stats().evictions, 1);
        let mut buf = vec![0u8; 64];
        cache.read_block(0, &mut buf).unwrap(); // re-reads the written-back data
        assert_eq!(buf, vec![1u8; 64]);
        cache.flush().unwrap();
        let inner = cache.into_inner().into_inner();
        for (b, v) in [(0u64, 1u8), (1, 2), (2, 3)] {
            assert_eq!(inner.read_block_vec(b).unwrap(), vec![v; 64]);
        }
    }

    #[test]
    fn write_back_rejects_bad_writes_at_write_time() {
        let cache = BufferCache::new_write_back(MemBlockDevice::new(64, 4), 4);
        assert!(matches!(
            cache.write_block(99, &[0; 64]),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            cache.write_block(0, &[0; 5]),
            Err(BlockError::BadBufferLength { .. })
        ));
        assert!(cache.write_blocks(&[99], &[0; 64]).is_err());
    }

    #[test]
    fn lru_eviction_prefers_old_entries() {
        let cache = BufferCache::new(MemBlockDevice::new(64, 16), 2);
        let mut buf = vec![0u8; 64];
        cache.read_block(0, &mut buf).unwrap();
        cache.read_block(1, &mut buf).unwrap();
        // Touch 0 so 1 becomes the LRU victim.
        cache.read_block(0, &mut buf).unwrap();
        cache.read_block(2, &mut buf).unwrap(); // evicts 1
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // 0 still cached (hit), 1 must miss again.
        let hits_before = cache.stats().hits;
        cache.read_block(0, &mut buf).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1);
        let misses_before = cache.stats().misses;
        cache.read_block(1, &mut buf).unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn batched_read_gathers_misses_into_one_submission() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new(metered, 8);
        // Warm blocks 2 and 5.
        let mut one = vec![0u8; 64];
        cache.read_block(2, &mut one).unwrap();
        cache.read_block(5, &mut one).unwrap();
        io.reset();
        // Batch of 4: two hits, two misses -> one inner submission of 2.
        let mut buf = vec![0u8; 4 * 64];
        cache.read_blocks(&[2, 3, 5, 6], &mut buf).unwrap();
        let s = io.summary();
        assert_eq!(s.blocks_read, 2, "only the misses reach the device");
        assert_eq!(s.reads, 1, "misses gathered into one batch");
        assert_eq!(cache.stats().hits, 2);
        // A repeat of the same batch is now all hits.
        cache.read_blocks(&[2, 3, 5, 6], &mut buf).unwrap();
        assert_eq!(io.summary().blocks_read, 2);
    }

    #[test]
    fn batched_write_is_write_through_and_caches() {
        let metered = ObservedDevice::counting(MemBlockDevice::new(64, 16));
        let io = metered.stats().clone();
        let cache = BufferCache::new(metered, 8);
        let data: Vec<u8> = (0..3 * 64).map(|i| (i % 251) as u8).collect();
        cache.write_blocks(&[1, 4, 7], &data).unwrap();
        let s = io.summary();
        assert_eq!(s.blocks_written, 3);
        assert_eq!(s.writes, 1);
        // Reads come straight from the cache.
        let mut buf = vec![0u8; 3 * 64];
        cache.read_blocks(&[1, 4, 7], &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(io.summary().blocks_read, 0);
    }

    #[test]
    fn invalidate_clears_entries_but_not_device() {
        let cache = BufferCache::new(MemBlockDevice::new(64, 4), 4);
        cache.write_block(1, &[7u8; 64]).unwrap();
        assert!(!cache.is_empty());
        cache.invalidate().unwrap();
        assert!(cache.is_empty());
        let mut buf = vec![0u8; 64];
        cache.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 64]);
    }

    #[test]
    fn write_back_invalidate_preserves_dirty_data() {
        let cache = BufferCache::new_write_back(MemBlockDevice::new(64, 4), 4);
        cache.write_block(1, &[7u8; 64]).unwrap();
        cache.invalidate().unwrap();
        assert!(cache.is_empty());
        let mut buf = vec![0u8; 64];
        cache.read_block(1, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 64]);
    }

    #[test]
    fn wrong_buffer_length_bypasses_cache_and_errors() {
        let cache = BufferCache::new(MemBlockDevice::new(64, 4), 4);
        let mut small = vec![0u8; 10];
        assert!(cache.read_block(0, &mut small).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_rejected() {
        BufferCache::new(MemBlockDevice::new(64, 4), 0);
    }

    #[test]
    fn geometry_passthrough() {
        let cache = BufferCache::new(MemBlockDevice::new(64, 4), 4);
        assert_eq!(cache.block_size(), 64);
        assert_eq!(cache.total_blocks(), 4);
        assert_eq!(cache.capacity_bytes(), 256);
        cache.flush().unwrap();
    }

    // ------------------------------------------------------------------
    // A failed write-back never drops a dirty block
    // ------------------------------------------------------------------

    type Store = FaultDevice<MemBlockDevice>;

    /// A store whose scripted failures hit only writes and flushes, so
    /// `script_failures(1)` fails exactly the next *write* submission — also
    /// one that follows a device read inside the same cache call.
    fn flaky_writes() -> Store {
        let store = FaultDevice::new(MemBlockDevice::new(64, 16));
        store.fail_only(FaultTarget::Writes);
        store
    }

    /// A 2-block write-back cache holding dirty blocks 0 (the LRU) and 1.
    fn two_dirty_blocks() -> (BufferCache<Store>, Store) {
        let store = flaky_writes();
        let cache = BufferCache::new_write_back(store.clone(), 2);
        cache.write_block(0, &[1; 64]).unwrap();
        cache.write_block(1, &[2; 64]).unwrap();
        (cache, store)
    }

    /// After a failed eviction of block 0: it is still cached and dirty,
    /// nothing was counted as written, and a flush lands both blocks.
    fn assert_victim_survived(cache: &BufferCache<Store>, store: &Store) {
        assert_eq!((cache.len(), cache.dirty_blocks()), (2, 2));
        let stats = cache.stats();
        assert_eq!((stats.write_backs, stats.evictions), (0, 0));
        assert_eq!(store.read_block_vec(0).unwrap(), vec![0; 64], "not yet");
        cache.flush().expect("the retry succeeds");
        assert_eq!(cache.dirty_blocks(), 0);
        assert_eq!(cache.stats().write_backs, 2);
        assert_eq!(store.read_block_vec(0).unwrap(), vec![1; 64]);
        assert_eq!(store.read_block_vec(1).unwrap(), vec![2; 64]);
    }

    #[test]
    fn failed_eviction_write_back_keeps_the_victim_dirty() {
        let (cache, store) = two_dirty_blocks();
        // A write and a read miss both need block 0's slot.
        store.script_failures(1);
        assert!(matches!(
            cache.write_block(2, &[3; 64]),
            Err(BlockError::Io(_))
        ));
        store.script_failures(1);
        assert!(cache.read_block(5, &mut [0u8; 64]).is_err());
        assert_victim_survived(&cache, &store);
        // The write that failed can simply be reissued.
        cache.write_block(2, &[3; 64]).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        cache.flush().unwrap();
        assert_eq!(store.read_block_vec(2).unwrap(), vec![3; 64]);
        assert_eq!(store.injected(), 2);
    }

    #[test]
    fn failed_eviction_mid_write_batch_keeps_the_victim_dirty() {
        let store = flaky_writes();
        let cache = BufferCache::new_write_back(store.clone(), 2);
        store.script_failures(1);
        // Blocks 0 and 1 fill the cache; placing 2 must evict dirty 0.
        let batch: Vec<u8> = [1u8, 2, 3, 4].iter().flat_map(|&v| [v; 64]).collect();
        assert!(cache.write_blocks(&[0, 1, 2, 3], &batch).is_err());
        assert_victim_survived(&cache, &store);
        assert_eq!(
            store.read_block_vec(2).unwrap(),
            vec![0; 64],
            "never placed"
        );
    }

    #[test]
    fn failed_eviction_mid_read_batch_keeps_the_victim_dirty() {
        let (cache, store) = two_dirty_blocks();
        store.script_failures(1);
        // The device read of the two misses succeeds; caching the first of
        // them must evict dirty 0, and that write fails.
        let mut buf = vec![0u8; 128];
        assert!(cache.read_blocks(&[5, 6], &mut buf).is_err());
        assert_victim_survived(&cache, &store);
    }

    #[test]
    fn failed_flush_keeps_every_block_dirty() {
        let (cache, store) = two_dirty_blocks();
        store.script_failures(1);
        assert!(cache.flush().is_err());
        assert_victim_survived(&cache, &store);
    }

    // ------------------------------------------------------------------
    // A miss holds no lock across its device read
    // ------------------------------------------------------------------

    type Parking = FaultDevice<SharedDevice>;

    /// A fault device over a fresh store, and the store, which tests reach
    /// past the device's plans.
    fn parking(blocks: u64) -> (Parking, SharedDevice) {
        let store = SharedDevice::new(MemBlockDevice::new(64, blocks));
        (FaultDevice::new(store.clone()), store)
    }

    /// The `dir` submissions whose blocks include `block`.
    fn touching(dir: Dir, block: BlockId) -> Trigger {
        Trigger::when(move |op| op.dir == dir && op.blocks.contains(&block))
    }

    /// Run `work` on another thread; its result arrives on the receiver.
    fn started<T: Send + 'static>(
        work: impl FnOnce() -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(work()).unwrap());
        rx
    }

    /// How long a call that must wait is given to (wrongly) finish.
    const SETTLE: std::time::Duration = std::time::Duration::from_millis(100);

    /// Run `work` on another thread and fail, instead of hanging, if it
    /// cannot finish (it would be stuck behind a lock a parked transfer
    /// holds).
    fn finishes<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
        started(work)
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("blocked behind a parked transfer")
    }

    fn flush_in_background(
        cache: &Arc<BufferCache<Parking>>,
    ) -> std::thread::JoinHandle<BlockResult<()>> {
        let cache = Arc::clone(cache);
        std::thread::spawn(move || cache.flush())
    }

    fn parked_read(
        cache: &Arc<BufferCache<Parking>>,
        block: BlockId,
    ) -> std::thread::JoinHandle<BlockResult<Vec<u8>>> {
        let cache = Arc::clone(cache);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 64];
            cache.read_block(block, &mut buf).map(|()| buf)
        })
    }

    #[test]
    fn hits_and_writes_complete_while_a_miss_is_on_the_device() {
        for mode in [CacheMode::WriteThrough, CacheMode::WriteBack] {
            let (dev, store) = parking(16);
            store.write_block(1, &[1; 64]).unwrap();
            let cache = Arc::new(BufferCache::with_mode(dev.clone(), 8, mode));
            cache.read_block(1, &mut [0u8; 64]).unwrap();

            let park = dev.park(touching(Dir::Read, 5), ParkAt::After);
            let reader = parked_read(&cache, 5);
            park.wait();
            let other = Arc::clone(&cache);
            finishes(move || {
                let mut buf = [0u8; 64];
                other.read_block(1, &mut buf).unwrap();
                assert_eq!(buf, [1; 64], "a hit on another block");
                other.write_block(5, &[0xee; 64]).unwrap();
            });
            park.release();

            // The parked transfer fetched the old bytes; the miss hands back
            // the resident image the write left instead.
            assert_eq!(reader.join().unwrap().unwrap(), vec![0xee; 64], "{mode:?}");
            let hits = cache.stats().hits;
            let mut buf = [0u8; 64];
            cache.read_block(5, &mut buf).unwrap();
            assert_eq!((buf, cache.stats().hits), ([0xee; 64], hits + 1));
            cache.flush().unwrap();
            assert_eq!(store.read_block_vec(5).unwrap(), vec![0xee; 64]);
            assert!(cache.state.lock().fills.is_empty());
        }
    }

    #[test]
    fn a_fill_overtaken_by_a_write_is_not_cached() {
        // One block of capacity: the write to 5 is evicted (written back) by
        // a write to 6 before the parked miss on 5 returns with old bytes.
        let (dev, _) = parking(16);
        let cache = Arc::new(BufferCache::new_write_back(dev.clone(), 1));
        let park = dev.park(touching(Dir::Read, 5), ParkAt::After);
        let reader = parked_read(&cache, 5);
        park.wait();
        let other = Arc::clone(&cache);
        finishes(move || {
            other.write_block(5, &[0xee; 64]).unwrap();
            other.write_block(6, &[0xdd; 64]).unwrap();
        });
        park.release();
        // The read overlapped the write, so the old bytes are a legal answer
        // — but they must not become the cached image of block 5.
        assert_eq!(reader.join().unwrap().unwrap(), vec![0; 64]);
        let mut buf = [0u8; 64];
        cache.read_block(5, &mut buf).unwrap();
        assert_eq!(buf, [0xee; 64]);
        assert!(cache.state.lock().fills.is_empty());
    }

    #[test]
    fn two_misses_on_one_block_both_return_its_bytes() {
        let (dev, store) = parking(16);
        store.write_block(7, &[0x77; 64]).unwrap();
        let cache = Arc::new(BufferCache::new_write_back(dev.clone(), 4));
        let parks = [0; 2].map(|_| dev.park(touching(Dir::Read, 7), ParkAt::After));
        let readers = [parked_read(&cache, 7), parked_read(&cache, 7)];
        parks.iter().for_each(Park::wait);
        parks.iter().for_each(Park::release);
        for r in readers {
            assert_eq!(r.join().unwrap().unwrap(), vec![0x77; 64]);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, cache.len()), (2, 0, 1));
        assert!(cache.state.lock().fills.is_empty());
    }

    #[test]
    fn a_failed_fill_caches_nothing_and_unregisters() {
        let (dev, _) = parking(16);
        let cache = BufferCache::new_write_back(dev.clone(), 4);
        // Two failures: the next two reads that include block 3.
        dev.fail(touching(Dir::Read, 3));
        dev.fail(touching(Dir::Read, 3));
        assert!(cache.read_block(3, &mut [0u8; 64]).is_err());
        assert!(cache.read_blocks(&[2, 3, 4], &mut [0u8; 3 * 64]).is_err());
        assert_eq!((cache.len(), cache.stats().misses), (0, 0));
        assert!(cache.state.lock().fills.is_empty());
        cache.read_blocks(&[2, 3, 4], &mut [0u8; 3 * 64]).unwrap();
        assert_eq!((cache.len(), cache.stats().misses), (3, 3));
    }

    // ------------------------------------------------------------------
    // A flush holds no lock across its write-back batch
    // ------------------------------------------------------------------

    /// A parked flush's handles: the store, its park, and the write and
    /// flush submissions that reached the store.
    struct Parked {
        store: SharedDevice,
        park: Park,
        landed: Arc<Mutex<Vec<Submission>>>,
    }

    /// A write-back cache of `capacity` blocks over a parking device, with
    /// `dirty` written (block `b` holds `b + 1`) and their flush parked on
    /// its batch, which fails on release if `fail`.
    fn parked_flush(
        capacity: usize,
        dirty: &[BlockId],
        fail: bool,
    ) -> (
        Parked,
        Arc<BufferCache<Parking>>,
        std::thread::JoinHandle<BlockResult<()>>,
    ) {
        let (dev, store) = parking(16);
        let landed = tape(&dev, |op| op.dir != Dir::Read);
        let cache = Arc::new(BufferCache::new_write_back(dev.clone(), capacity));
        for &b in dirty {
            cache.write_block(b, &[b as u8 + 1; 64]).unwrap();
        }
        let park = dev.park(touching(Dir::Write, dirty[0]), ParkAt::Before);
        if fail {
            dev.fail(touching(Dir::Write, dirty[0]));
        }
        let flush = flush_in_background(&cache);
        park.wait();
        let parked = Parked {
            store,
            park,
            landed,
        };
        (parked, cache, flush)
    }

    #[test]
    fn hits_misses_and_writes_complete_while_a_batch_is_on_the_device() {
        let (dev, cache, flush) = parked_flush(8, &[3], false);
        dev.store.write_block(5, &[5; 64]).unwrap();
        let other = Arc::clone(&cache);
        finishes(move || {
            let mut buf = [0u8; 64];
            other.read_block(3, &mut buf).unwrap();
            assert_eq!(buf, [4; 64], "a hit on a flight block");
            other.read_block(5, &mut buf).unwrap();
            assert_eq!(buf, [5; 64], "a miss");
            other.write_block(6, &[6; 64]).unwrap();
            other.write_block(3, &[0x33; 64]).unwrap();
            other.read_block(3, &mut buf).unwrap();
            assert_eq!(buf, [0x33; 64], "the rewrite is what reads see");
        });
        assert_eq!(
            dev.store.read_block_vec(3).unwrap(),
            vec![0; 64],
            "not landed"
        );
        dev.park.release();
        flush.join().unwrap().unwrap();
        assert_eq!(dev.store.read_block_vec(3).unwrap(), vec![4; 64]);
        assert!(cache.state.lock().flight.is_none());
    }

    #[test]
    fn a_write_during_the_flight_goes_out_with_the_next_flush() {
        let (dev, cache, flush) = parked_flush(8, &[3, 2], false);
        let other = Arc::clone(&cache);
        finishes(move || other.write_block(3, &[0x33; 64]).unwrap());
        dev.park.release();
        flush.join().unwrap().unwrap();
        // The batch landed the gathered images; the rewritten block alone
        // stays dirty.
        assert_eq!(dev.store.read_block_vec(3).unwrap(), vec![4; 64]);
        assert_eq!((cache.dirty_blocks(), cache.stats().write_backs), (1, 2));
        cache.flush().unwrap();
        assert_eq!(dev.store.read_block_vec(3).unwrap(), vec![0x33; 64]);
        assert_eq!(dev.store.read_block_vec(2).unwrap(), vec![3; 64]);
        assert_eq!(cache.dirty_blocks(), 0);
    }

    #[test]
    fn evicting_a_rewritten_flight_block_waits_for_the_batch() {
        let (dev, cache, flush) = parked_flush(2, &[0, 1], false);
        // Rewrite both flight blocks, leaving 0 the least recently used.
        let other = Arc::clone(&cache);
        finishes(move || {
            other.write_block(0, &[0xa0; 64]).unwrap();
            other.write_block(1, &[0xa1; 64]).unwrap();
        });
        // Block 2 needs 0's slot: writing 0xa0 now would land under the
        // batch's older image of 0.
        let other = Arc::clone(&cache);
        let evict = started(move || other.write_block(2, &[0xa2; 64]));
        assert!(evict.recv_timeout(SETTLE).is_err(), "overtook the batch");
        dev.park.release();
        flush.join().unwrap().unwrap();
        evict
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("woken when the batch landed")
            .unwrap();
        cache.flush().unwrap();
        let images_of_0: Vec<u8> = dev
            .landed
            .lock()
            .iter()
            .filter_map(|s| match s {
                Submission::Write(0, image) => Some(image[0]),
                Submission::WriteBatch(blocks, images) => {
                    blocks.iter().position(|&b| b == 0).map(|i| images[i * 64])
                }
                _ => None,
            })
            .collect();
        assert_eq!(images_of_0, [1, 0xa0], "block 0 never went back");
        for (b, v) in [(0u64, 0xa0u8), (1, 0xa1), (2, 0xa2)] {
            assert_eq!(dev.store.read_block_vec(b).unwrap(), vec![v; 64]);
        }
    }

    #[test]
    fn a_failed_batch_leaves_every_block_dirty_and_a_retry_lands_them() {
        let (dev, cache, flush) = parked_flush(4, &[0, 1], true);
        let other = Arc::clone(&cache);
        finishes(move || other.write_block(2, &[3; 64]).unwrap());
        dev.park.release();
        assert!(flush.join().unwrap().is_err());
        assert_eq!((cache.dirty_blocks(), cache.stats().write_backs), (3, 0));
        assert!(dev.landed.lock().is_empty(), "no batch and no barrier");
        cache.flush().expect("the retry lands");
        assert_eq!((cache.dirty_blocks(), cache.stats().write_backs), (0, 3));
        for b in 0..3u64 {
            assert_eq!(dev.store.read_block_vec(b).unwrap(), vec![b as u8 + 1; 64]);
        }
    }

    #[test]
    fn a_second_flush_waits_for_the_first_batch() {
        let (dev, cache, first) = parked_flush(4, &[0], false);
        let other = Arc::clone(&cache);
        finishes(move || other.write_block(1, &[2; 64]).unwrap());
        let other = Arc::clone(&cache);
        let second = started(move || other.flush());
        assert!(second.recv_timeout(SETTLE).is_err(), "overtook the batch");
        dev.park.release();
        first.join().unwrap().unwrap();
        second
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("runs once the first flush is done")
            .unwrap();
        assert_eq!(
            *dev.landed.lock(),
            [
                Submission::WriteBatch(vec![0], vec![1; 64]),
                Submission::Flush,
                Submission::WriteBatch(vec![1], vec![2; 64]),
                Submission::Flush,
            ]
        );
    }

    fn version(image: &[u8]) -> u32 {
        u32::from_le_bytes(image[..4].try_into().unwrap())
    }

    /// A device that panics if a block's version (its first four bytes)
    /// ever goes back, and yields on reads and batch writes to widen the
    /// gaps.
    fn monotone(blocks: u64) -> FaultDevice<MemBlockDevice> {
        let dev = FaultDevice::new(MemBlockDevice::new(64, blocks));
        let mut versions = HashMap::new();
        dev.record(Trigger::when(|_| true), move |op| {
            if op.dir == Dir::Read || op.batch {
                std::thread::yield_now();
            }
            for (&block, image) in op.blocks.iter().zip(op.data.chunks(64)) {
                let v = version(image);
                let old = versions.insert(block, v);
                assert!(
                    old.unwrap_or(0) <= v,
                    "block {block} went back: {old:?} -> {v}"
                );
            }
        });
        dev
    }

    #[test]
    fn concurrent_writers_and_flushes_never_send_a_block_back() {
        // Three writers, each owning four blocks of a 4-block write-back
        // cache, stamp rising versions while a fourth thread flushes: flight
        // blocks are rewritten and evicted all the time.
        for seed in 1..=20u64 {
            let cache = Arc::new(BufferCache::new_write_back(monotone(12), 4));
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flusher = {
                let (cache, stop) = (Arc::clone(&cache), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        cache.flush().unwrap();
                    }
                })
            };
            let writers: Vec<_> = (0..3u64)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    std::thread::spawn(move || {
                        let mut last = [0u32; 4];
                        let ops = scatter(seed * 3 + t, 2_000, 4 * 35);
                        for (v, op) in (1u32..).zip(ops) {
                            let (k, kind) = ((op % 4) as usize, op / 4 % 35);
                            let block = t * 4 + k as u64;
                            let mut image = [0u8; 128];
                            image[..4].copy_from_slice(&v.to_le_bytes());
                            image[64..68].copy_from_slice(&v.to_le_bytes());
                            if kind < 7 {
                                cache.read_block(block, &mut image[..64]).unwrap();
                                assert_eq!(version(&image), last[k], "read of {block}");
                            } else if kind < 12 {
                                let k2 = (k + 1) % 4;
                                cache
                                    .write_blocks(&[block, t * 4 + k2 as u64], &image)
                                    .unwrap();
                                (last[k], last[k2]) = (v, v);
                            } else {
                                cache.write_block(block, &image[..64]).unwrap();
                                last[k] = v;
                            }
                        }
                        last
                    })
                })
                .collect();
            let lasts: Vec<[u32; 4]> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            flusher.join().unwrap();
            cache.flush().unwrap();
            assert_eq!(cache.dirty_blocks(), 0);
            for (t, last) in lasts.iter().enumerate() {
                for (k, &v) in last.iter().enumerate() {
                    let image = cache.inner.read_block_vec(t as u64 * 4 + k as u64).unwrap();
                    assert_eq!(version(&image), v, "seed {seed}: final image");
                }
            }
        }
    }

    #[test]
    fn a_batch_that_panics_retires_its_flight() {
        // The first batch write panics.
        let dev = FaultDevice::new(MemBlockDevice::new(64, 16));
        dev.panic(Trigger::when(|op| op.dir == Dir::Write && op.batch));
        let cache = Arc::new(BufferCache::new_write_back(dev, 2));
        cache.write_block(0, &[1; 64]).unwrap();
        cache.write_block(1, &[2; 64]).unwrap();
        let flush = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.flush()));
        assert!(flush.is_err(), "the batch panicked");
        // Rewrite 0 and make it the LRU: had the panicked flight stayed
        // registered, 0 would be a rewritten flight block, and the write of
        // 2 that needs its slot would wait for a batch that never lands.
        cache.write_block(0, &[0xa0; 64]).unwrap();
        cache.read_block(1, &mut [0u8; 64]).unwrap();
        let other = Arc::clone(&cache);
        finishes(move || other.write_block(2, &[3; 64]).unwrap());
        cache.flush().unwrap();
        assert_eq!(cache.dirty_blocks(), 0);
        for (b, v) in [(0u64, 0xa0u8), (1, 2), (2, 3)] {
            assert_eq!(cache.inner.read_block_vec(b).unwrap(), vec![v; 64]);
        }
    }

    // ------------------------------------------------------------------
    // A block nobody reads is the first victim once written back
    // ------------------------------------------------------------------

    /// Resident blocks, most recently used first.
    fn order<D: BlockDevice>(cache: &BufferCache<D>) -> Vec<BlockId> {
        cache.state.lock().entries.checked_order()
    }

    #[test]
    fn a_never_read_block_is_the_first_victim_after_its_write_back() {
        let cache = BufferCache::new_write_back(MemBlockDevice::new(64, 16), 3);
        let mut buf = [0u8; 64];
        cache.read_block(0, &mut buf).unwrap();
        cache.read_block(1, &mut buf).unwrap();
        cache.write_block(2, &[2; 64]).unwrap();
        assert_eq!(order(&cache), [2, 1, 0], "dirty, it stays the most recent");
        cache.flush().unwrap();
        assert_eq!(order(&cache), [1, 0, 2], "landed, it is demoted");
        cache.read_block(3, &mut buf).unwrap();
        assert_eq!(order(&cache), [3, 1, 0], "evicted ahead of the read blocks");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_read_clears_the_mark_and_a_rewrite_keeps_it() {
        let cache = BufferCache::new_write_back(MemBlockDevice::new(64, 16), 4);
        let mut buf = [0u8; 64];
        cache.read_block(0, &mut buf).unwrap(); // a fill: read
        cache.write_block(1, &[1; 64]).unwrap();
        cache.read_block(1, &mut buf).unwrap(); // a hit: read
        for (block, v) in [(1, 2), (2, 3), (2, 4), (0, 5)] {
            cache.write_block(block, &[v; 64]).unwrap();
        }
        assert_eq!(order(&cache), [0, 2, 1]);
        cache.flush().unwrap();
        assert_eq!(order(&cache), [0, 1, 2], "only the never-read block moves");
        // Write-through mode writes nothing back, so nothing moves.
        let through = BufferCache::new(MemBlockDevice::new(64, 16), 4);
        through.write_block(2, &[3; 64]).unwrap();
        through.read_block(0, &mut buf).unwrap();
        through.flush().unwrap();
        assert_eq!(order(&through), [0, 2]);
    }

    #[test]
    fn a_rewritten_flight_block_is_demoted_when_its_own_write_back_lands() {
        let (dev, cache, flush) = parked_flush(8, &[0, 1, 2], false);
        dev.store.write_block(5, &[5; 64]).unwrap();
        let other = Arc::clone(&cache);
        finishes(move || {
            other.read_block(5, &mut [0u8; 64]).unwrap();
            other.write_block(0, &[0xa0; 64]).unwrap();
        });
        assert_eq!(order(&cache), [0, 5, 2, 1]);
        dev.park.release();
        flush.join().unwrap().unwrap();
        assert_eq!(order(&cache), [0, 5, 1, 2], "0 is still dirty");
        cache.flush().unwrap();
        assert_eq!(order(&cache), [5, 1, 2, 0]);
    }

    // ------------------------------------------------------------------
    // Equivalence with the tick + min-scan design this cache replaced
    // ------------------------------------------------------------------

    /// One submission as the inner device saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Submission {
        Read(BlockId),
        Write(BlockId, Vec<u8>),
        ReadBatch(Vec<BlockId>),
        WriteBatch(Vec<BlockId>, Vec<u8>),
        Flush,
    }

    impl Submission {
        fn of(op: &Op<'_>) -> Self {
            let (blocks, data) = (op.blocks.to_vec(), op.data.to_vec());
            match (op.dir, op.batch) {
                (Dir::Read, false) => Submission::Read(blocks[0]),
                (Dir::Read, true) => Submission::ReadBatch(blocks),
                (Dir::Write, false) => Submission::Write(blocks[0], data),
                (Dir::Write, true) => Submission::WriteBatch(blocks, data),
                (Dir::Flush, _) => Submission::Flush,
            }
        }
    }

    /// The submissions `keep` picks, in the order they reach the device
    /// below `dev`, from now on.
    fn tape<D: BlockDevice>(
        dev: &FaultDevice<D>,
        keep: fn(&Op<'_>) -> bool,
    ) -> Arc<Mutex<Vec<Submission>>> {
        let tape = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&tape);
        dev.record(Trigger::when(keep), move |op| {
            log.lock().push(Submission::of(op))
        });
        tape
    }

    struct TickEntry {
        data: Vec<u8>,
        tick: i64,
        dirty: bool,
        unread: bool,
    }

    /// The oracle: the previous `BufferCache`, statement for statement but
    /// for the lock and the shared geometry check — a tick per entry, a min-scan of every entry for the
    /// victim, a filter + sort of every entry for the flush batch — plus
    /// the write-only rule: a flushed block no read has touched takes a
    /// tick below every other.  Only
    /// ever run over devices that do not fail: on an eviction error it drops
    /// the victim, the bug the tests above pin.
    struct TickCache<D: BlockDevice> {
        inner: D,
        capacity: usize,
        mode: CacheMode,
        entries: HashMap<BlockId, TickEntry>,
        tick: i64,
        /// The last demotion's tick (0, then falling).
        low: i64,
        stats: CacheStats,
    }

    impl<D: BlockDevice> TickCache<D> {
        fn new(inner: D, capacity: usize, mode: CacheMode) -> Self {
            TickCache {
                inner,
                capacity,
                mode,
                entries: HashMap::new(),
                tick: 0,
                low: 0,
                stats: CacheStats::default(),
            }
        }

        fn dirty_blocks(&self) -> usize {
            self.entries.values().filter(|e| e.dirty).count()
        }

        fn invalidate(&mut self) -> BlockResult<()> {
            self.write_back_dirty()?;
            self.entries.clear();
            Ok(())
        }

        fn write_back_dirty(&mut self) -> BlockResult<()> {
            let bs = self.inner.block_size();
            let mut dirty: Vec<BlockId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.dirty)
                .map(|(&b, _)| b)
                .collect();
            if dirty.is_empty() {
                return Ok(());
            }
            dirty.sort_unstable();
            let mut buf = vec![0u8; dirty.len() * bs];
            for (i, b) in dirty.iter().enumerate() {
                buf[i * bs..(i + 1) * bs].copy_from_slice(&self.entries[b].data);
            }
            self.inner.write_blocks(&dirty, &buf)?;
            for b in &dirty {
                if let Some(e) = self.entries.get_mut(b) {
                    e.dirty = false;
                    if e.unread {
                        self.low -= 1;
                        e.tick = self.low;
                    }
                }
            }
            self.stats.write_backs += dirty.len() as u64;
            Ok(())
        }

        fn insert(&mut self, block: BlockId, data: Vec<u8>, dirty: bool) -> BlockResult<()> {
            self.tick += 1;
            let tick = self.tick;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&block) {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.tick) {
                    let entry = self.entries.remove(&victim).expect("victim exists");
                    if entry.dirty {
                        self.inner.write_block(victim, &entry.data)?;
                        self.stats.write_backs += 1;
                    }
                    self.stats.evictions += 1;
                }
            }
            let dirty = dirty
                || self
                    .entries
                    .get(&block)
                    .is_some_and(|e| e.dirty && self.mode == CacheMode::WriteBack);
            let unread = match self.entries.get(&block) {
                Some(e) => e.unread,
                None => dirty,
            };
            let entry = TickEntry {
                data,
                tick,
                dirty,
                unread,
            };
            self.entries.insert(block, entry);
            Ok(())
        }

        fn check_write(&self, block: BlockId, len: usize) -> BlockResult<()> {
            let (total, bs) = (self.inner.total_blocks(), self.inner.block_size());
            crate::device::check_access(block, total, len, bs)
        }

        /// A read hit on `block`.
        fn touch(&mut self, block: BlockId) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(entry) = self.entries.get_mut(&block) {
                entry.tick = tick;
                entry.unread = false;
            }
        }

        fn read_block(&mut self, block: BlockId, buf: &mut [u8]) -> BlockResult<()> {
            if buf.len() == self.inner.block_size() {
                if let Some(entry) = self.entries.get(&block) {
                    buf.copy_from_slice(&entry.data);
                    self.stats.hits += 1;
                    self.touch(block);
                    return Ok(());
                }
            }
            self.inner.read_block(block, buf)?;
            self.stats.misses += 1;
            self.insert(block, buf.to_vec(), false)?;
            Ok(())
        }

        fn write_block(&mut self, block: BlockId, buf: &[u8]) -> BlockResult<()> {
            match self.mode {
                CacheMode::WriteThrough => {
                    self.inner.write_block(block, buf)?;
                    self.insert(block, buf.to_vec(), false)
                }
                CacheMode::WriteBack => {
                    self.check_write(block, buf.len())?;
                    self.insert(block, buf.to_vec(), true)
                }
            }
        }

        fn read_blocks(&mut self, blocks: &[BlockId], buf: &mut [u8]) -> BlockResult<()> {
            let bs = self.inner.block_size();
            if buf.len() != blocks.len() * bs {
                return self.inner.read_blocks(blocks, buf);
            }
            let mut missing: Vec<(usize, BlockId)> = Vec::new();
            for (i, &block) in blocks.iter().enumerate() {
                if let Some(entry) = self.entries.get(&block) {
                    buf[i * bs..(i + 1) * bs].copy_from_slice(&entry.data);
                    self.stats.hits += 1;
                    self.touch(block);
                } else {
                    missing.push((i, block));
                }
            }
            if missing.is_empty() {
                return Ok(());
            }
            let miss_blocks: Vec<BlockId> = missing.iter().map(|&(_, b)| b).collect();
            let mut miss_buf = vec![0u8; miss_blocks.len() * bs];
            self.inner.read_blocks(&miss_blocks, &mut miss_buf)?;
            for (j, &(i, block)) in missing.iter().enumerate() {
                let data = &miss_buf[j * bs..(j + 1) * bs];
                buf[i * bs..(i + 1) * bs].copy_from_slice(data);
                self.stats.misses += 1;
                self.insert(block, data.to_vec(), false)?;
            }
            Ok(())
        }

        fn write_blocks(&mut self, blocks: &[BlockId], buf: &[u8]) -> BlockResult<()> {
            let bs = self.inner.block_size();
            match self.mode {
                CacheMode::WriteThrough => {
                    self.inner.write_blocks(blocks, buf)?;
                    if buf.len() == blocks.len() * bs {
                        for (i, &block) in blocks.iter().enumerate() {
                            self.insert(block, buf[i * bs..(i + 1) * bs].to_vec(), false)?;
                        }
                    }
                    Ok(())
                }
                CacheMode::WriteBack => {
                    check_batch(blocks.len(), buf.len(), bs)?;
                    for &block in blocks {
                        self.check_write(block, bs)?;
                    }
                    for (i, &block) in blocks.iter().enumerate() {
                        self.insert(block, buf[i * bs..(i + 1) * bs].to_vec(), true)?;
                    }
                    Ok(())
                }
            }
        }

        fn flush(&mut self) -> BlockResult<()> {
            self.write_back_dirty()?;
            self.inner.flush()
        }
    }

    const ORACLE_BS: usize = 16;

    /// `len` block ids below `universe`, scattered by `seed` (small
    /// universes make repeats within one batch common).
    fn scatter(seed: u64, len: usize, universe: u64) -> Vec<BlockId> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % universe
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn every_call_matches_the_tick_oracle(
            write_back in any::<bool>(),
            capacity in (0usize..4),
            ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u16>()), 1..120),
        ) {
            let capacity = [1usize, 2, 7, 64][capacity];
            let mode = if write_back { CacheMode::WriteBack } else { CacheMode::WriteThrough };
            // Twice the capacity: about every other access misses; batches
            // run up to twice the capacity too, so they overflow the cache.
            let universe = 2 * capacity as u64 + 2;
            let [dev, oracle_dev] = [0; 2].map(|_| FaultDevice::new(MemBlockDevice::new(ORACLE_BS, universe)));
            let (log, oracle_log) = (tape(&dev, |_| true), tape(&oracle_dev, |_| true));
            let cache = BufferCache::with_mode(dev, capacity, mode);
            let mut oracle = TickCache::new(oracle_dev, capacity, mode);
            for (op, seed, len) in ops {
                let (block, fill) = (seed % universe, (seed >> 40) as u8);
                let batch = scatter(seed, len as usize % (2 * capacity + 3), universe);
                let image = |n: usize| -> Vec<u8> {
                    (0..n * ORACLE_BS).map(|i| fill.wrapping_add((i / ORACLE_BS) as u8)).collect()
                };
                let (got, want) = match op {
                    0..=3 => {
                        let (mut a, mut b) = (image(1), image(1));
                        (cache.read_block(block, &mut a).map(|()| a),
                         oracle.read_block(block, &mut b).map(|()| b))
                    }
                    4..=6 => {
                        let data = image(1);
                        (cache.write_block(block, &data).map(|()| data.clone()),
                         oracle.write_block(block, &data).map(|()| data))
                    }
                    7..=9 => {
                        let (mut a, mut b) = (image(batch.len()), image(batch.len()));
                        (cache.read_blocks(&batch, &mut a).map(|()| a),
                         oracle.read_blocks(&batch, &mut b).map(|()| b))
                    }
                    10..=12 => {
                        let data = image(batch.len());
                        (cache.write_blocks(&batch, &data).map(|()| data.clone()),
                         oracle.write_blocks(&batch, &data).map(|()| data))
                    }
                    13 => (cache.flush().map(|()| Vec::new()), oracle.flush().map(|()| Vec::new())),
                    14 => (cache.invalidate().map(|()| Vec::new()),
                           oracle.invalidate().map(|()| Vec::new())),
                    // Bad geometry: rejected alike, and alike without effect.
                    _ => {
                        let data = image(1);
                        let (bad_block, bad_len) = (universe + block, ORACLE_BS - 1);
                        let mut short = vec![0u8; bad_len];
                        prop_assert!(cache.read_block(block, &mut short).is_err());
                        prop_assert!(oracle.read_block(block, &mut short).is_err());
                        prop_assert!(cache.write_block(block, &data[..bad_len]).is_err());
                        prop_assert!(oracle.write_block(block, &data[..bad_len]).is_err());
                        prop_assert!(cache.write_blocks(&[block, bad_block], &image(2)).is_err());
                        prop_assert!(oracle.write_blocks(&[block, bad_block], &image(2)).is_err());
                        (cache.write_block(bad_block, &data).map(|()| data.clone()),
                         oracle.write_block(bad_block, &data).map(|()| data))
                    }
                };
                prop_assert_eq!(got.map_err(|e| e.to_string()), want.map_err(|e| e.to_string()));
                prop_assert_eq!(cache.stats(), oracle.stats.clone());
                prop_assert_eq!(cache.len(), oracle.entries.len());
                prop_assert_eq!(cache.dirty_blocks(), oracle.dirty_blocks());
                prop_assert_eq!(
                    log.lock().len(),
                    oracle_log.lock().len(),
                    "op {} diverged on the device", op
                );
            }
            prop_assert!(*log.lock() == *oracle_log.lock(), "same submissions");
            // What is still dirty reaches the device the same way, too.
            cache.flush().unwrap();
            oracle.flush().unwrap();
            prop_assert!(*log.lock() == *oracle_log.lock(), "same final flush");
            for b in 0..universe {
                prop_assert_eq!(cache.inner.read_block_vec(b).unwrap(),
                                oracle.inner.read_block_vec(b).unwrap());
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost does not grow with capacity
    // ------------------------------------------------------------------

    /// Fastest of three runs of `work`, in nanoseconds.
    fn min_of_3(mut work: impl FnMut()) -> u128 {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                work();
                start.elapsed().as_nanos()
            })
            .min()
            .expect("three runs")
    }

    /// A full write-through cache of `capacity` blocks over twice as many
    /// device blocks, every resident clean.
    fn full_cache(capacity: usize) -> BufferCache<MemBlockDevice> {
        let cache = BufferCache::new(MemBlockDevice::new(64, 2 * capacity as u64), capacity);
        let mut buf = [0u8; 64];
        for b in 0..capacity as u64 {
            cache.read_block(b, &mut buf).unwrap();
        }
        assert_eq!(cache.len(), capacity);
        cache
    }

    #[test]
    fn an_evicting_miss_costs_the_same_in_a_small_and_a_large_cache() {
        // A cyclic scan over twice the capacity misses and evicts every time.
        let time = |capacity: usize| {
            let cache = full_cache(capacity);
            let mut next = capacity as u64;
            let mut buf = [0u8; 64];
            let ns = min_of_3(|| {
                for _ in 0..50_000 {
                    cache.read_block(next, &mut buf).unwrap();
                    next = (next + 1) % (2 * capacity as u64);
                }
            });
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.evictions), (0, 150_000));
            ns
        };
        let (small, large) = (time(256), time(16_384));
        // A victim scan is 64x here; list, index and CPU-cache effects 1-2x.
        assert!(
            large < 8 * small,
            "50 000 evicting misses: {large} ns at 16 384 blocks vs {small} ns at 256"
        );
    }

    #[test]
    fn a_flush_costs_its_dirty_blocks_not_the_cache() {
        let time = |capacity: usize| {
            let cache =
                BufferCache::new_write_back(MemBlockDevice::new(64, capacity as u64), capacity);
            let mut buf = [0u8; 64];
            for b in 0..capacity as u64 {
                cache.read_block(b, &mut buf).unwrap();
            }
            let dirty: Vec<BlockId> = (0..16).map(|i| i * (capacity as u64 / 16)).collect();
            let ns = min_of_3(|| {
                for round in 0..2_000u32 {
                    cache.write_blocks(&dirty, &[round as u8; 16 * 64]).unwrap();
                    cache.flush().unwrap();
                }
            });
            let stats = cache.stats();
            assert_eq!((stats.evictions, stats.write_backs), (0, 3 * 2_000 * 16));
            ns
        };
        let (small, large) = (time(256), time(16_384));
        assert!(
            large < 8 * small,
            "2 000 flushes of 16 dirty blocks: {large} ns at 16 384 blocks vs {small} ns at 256"
        );
    }
}
