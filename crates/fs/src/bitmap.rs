//! The block bitmap, sharded into independently locked segments.
//!
//! One bit per block: 0 = free, 1 = allocated, exactly as in Figure 1 of the
//! paper.  The bitmap is the *only* structure shared by plain and hidden
//! objects — hidden files mark their blocks here so the space is not handed
//! out again, but nothing else about them is recorded anywhere visible.
//!
//! # Sharding
//!
//! The in-memory bitmap is split into [`BITMAP_SHARDS`] contiguous
//! *segments*, each behind its own mutex, like per-CPU free lists: marking a
//! block allocated or free locks only the segment that owns it, so disjoint
//! writers allocating in different parts of the volume stop serialising on
//! one global allocator lock.  Segment boundaries are 64-block aligned (so
//! word-level scans never straddle a lock) and are an *in-memory* notion
//! only — the on-disk bitmap layout is unchanged, byte for byte, and a
//! volume formatted before sharding mounts identically.
//!
//! Each segment keeps its own rotating *next-free hint* (the invariant:
//! every block of the segment below its hint is allocated).  Hints being
//! per-shard means one full region cannot drag every writer's first-fit
//! scan back to the front of the volume.  Both the word-level scan and the
//! hints are pure accelerations — the blocks returned are bit-for-bit the
//! ones the naive walk would have found.
//!
//! Multi-segment operations (journal bitmap snapshots via
//! [`Bitmap::lock_blocks`], whole-volume scans for contiguous runs, flush)
//! lock the segments they need in ascending index order, so no cycle can
//! form.  The journal-staging contract from the transaction layer survives
//! per shard: a committer holds every segment covering its touched bitmap
//! blocks across snapshot *and* sequence assignment, so for any given
//! bitmap block, snapshot order still agrees with journal sequence order.

use crate::error::{FsError, FsResult};
use crate::layout::Superblock;
use std::collections::BTreeSet;
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_obs::lock::{Mutex, MutexGuard};
use stegfs_obs::LockStats;

/// Number of bitmap segments (and `fs.alloc.<shard>` lock families).
///
/// Fixed so the observability snapshot shape is static; small volumes simply
/// leave trailing segments empty.
pub const BITMAP_SHARDS: usize = 8;

/// One contiguous, independently locked slice of the bitmap.
struct Segment {
    /// Allocation bits for blocks `[start, end)`; `start` is 64-aligned so
    /// the slice is byte- and word-aligned.
    bits: Vec<u8>,
    /// First block this segment owns (absolute).
    start: u64,
    /// One past the last block this segment owns (absolute).
    end: u64,
    /// Blocks currently marked allocated within this segment.
    allocated: u64,
    /// Per-shard next-free hint (absolute): every block in
    /// `[start, free_hint)` is allocated.  Rotates forward on allocation,
    /// snaps back on free.
    free_hint: u64,
    /// Global bitmap-block indices this segment has dirtied.
    dirty: BTreeSet<u64>,
    /// Bits per on-disk bitmap block (block_size * 8), for dirty tracking.
    bits_per_block: u64,
}

impl Segment {
    fn len(&self) -> u64 {
        self.end - self.start
    }

    #[inline]
    fn is_allocated(&self, block: u64) -> bool {
        debug_assert!(block >= self.start && block < self.end);
        let local = block - self.start;
        (self.bits[(local / 8) as usize] >> (local % 8)) & 1 == 1
    }

    fn mark_dirty(&mut self, block: u64) {
        self.dirty.insert(block / self.bits_per_block);
    }

    fn allocate(&mut self, block: u64) -> FsResult<()> {
        if self.is_allocated(block) {
            return Err(FsError::Corrupt(format!("block {block} already allocated")));
        }
        let local = block - self.start;
        self.bits[(local / 8) as usize] |= 1 << (local % 8);
        self.allocated += 1;
        if block == self.free_hint {
            // Everything below `block` in this segment was already allocated
            // (invariant), and `block` just joined them: rotate forward.
            self.free_hint = block + 1;
        }
        self.mark_dirty(block);
        Ok(())
    }

    fn free(&mut self, block: u64) -> FsResult<()> {
        if !self.is_allocated(block) {
            return Err(FsError::Corrupt(format!("block {block} already free")));
        }
        let local = block - self.start;
        self.bits[(local / 8) as usize] &= !(1 << (local % 8));
        self.allocated -= 1;
        self.free_hint = self.free_hint.min(block);
        self.mark_dirty(block);
        Ok(())
    }

    /// The 64-block word whose first bit is `block` (64-aligned, fully in
    /// this segment).  Bit `i` of the result is the bit of `block + i`.
    #[inline]
    fn word_at(&self, block: u64) -> u64 {
        debug_assert!(block.is_multiple_of(64) && block >= self.start);
        let byte = ((block - self.start) / 8) as usize;
        u64::from_le_bytes(self.bits[byte..byte + 8].try_into().expect("8 bytes"))
    }

    /// First free block in `[from, to)` (both within this segment), scanning
    /// a word at a time.  Starts at the segment hint when that is higher —
    /// transparent, since everything below the hint is allocated.
    fn scan_free(&self, from: u64, to: u64) -> Option<u64> {
        let mut b = from.max(self.free_hint);
        // Head: individual bits up to the next word boundary.
        while b < to && !b.is_multiple_of(64) {
            if !self.is_allocated(b) {
                return Some(b);
            }
            b += 1;
        }
        // Body: whole words (fully in range, so the first zero bit of a
        // non-full word is always a valid answer).
        while b + 64 <= to {
            let word = self.word_at(b);
            if word != u64::MAX {
                return Some(b + (!word).trailing_zeros() as u64);
            }
            b += 64;
        }
        // Tail: the final partial word.
        while b < to {
            if !self.is_allocated(b) {
                return Some(b);
            }
            b += 1;
        }
        None
    }

    /// Count free blocks in `[from, to)` (both within this segment) — a
    /// word-level popcount.
    fn count_free(&self, from: u64, to: u64) -> u64 {
        let mut free = 0u64;
        let mut b = from;
        while b < to && !b.is_multiple_of(64) {
            free += u64::from(!self.is_allocated(b));
            b += 1;
        }
        while b + 64 <= to {
            free += u64::from(self.word_at(b).count_zeros());
            b += 64;
        }
        while b < to {
            free += u64::from(!self.is_allocated(b));
            b += 1;
        }
        free
    }
}

/// In-memory copy of the on-disk block bitmap: [`BITMAP_SHARDS`] locked
/// segments with per-shard dirty tracking and free hints.  All methods take
/// `&self`; see the module docs for the locking discipline.
pub struct Bitmap {
    segments: Vec<Mutex<Segment>>,
    /// Blocks per segment (64-aligned); the last segments may own fewer (or
    /// zero) blocks.
    seg_span: u64,
    total_blocks: u64,
    block_size: usize,
    bitmap_start: u64,
}

impl Bitmap {
    fn assemble(sb: &Superblock, all_bits: &[u8]) -> Self {
        let total = sb.total_blocks;
        // 64-aligned span so segment slices are word-aligned and a word scan
        // never crosses a lock boundary.
        let seg_span = (total.div_ceil(BITMAP_SHARDS as u64)).div_ceil(64).max(1) * 64;
        let bits_per_block = sb.block_size as u64 * 8;
        let segments = (0..BITMAP_SHARDS as u64)
            .map(|i| {
                let start = (i * seg_span).min(total);
                let end = ((i + 1) * seg_span).min(total);
                let byte_start = (start / 8) as usize;
                let byte_end = (end as usize).div_ceil(8);
                let mut bits = vec![0u8; ((end - start) as usize).div_ceil(8)];
                if byte_start < all_bits.len() {
                    let src = &all_bits[byte_start..byte_end.min(all_bits.len())];
                    bits[..src.len()].copy_from_slice(src);
                }
                let allocated = bits.iter().map(|b| b.count_ones() as u64).sum();
                Mutex::new(Segment {
                    bits,
                    start,
                    end,
                    allocated,
                    free_hint: start,
                    dirty: BTreeSet::new(),
                    bits_per_block,
                })
            })
            .collect();
        Bitmap {
            segments,
            seg_span,
            total_blocks: total,
            block_size: sb.block_size as usize,
            bitmap_start: sb.bitmap_start,
        }
    }

    /// Create a fresh all-free bitmap for a volume described by `sb`.
    pub fn new(sb: &Superblock) -> Self {
        Self::assemble(sb, &[])
    }

    /// Load the bitmap from the device.
    pub fn load(sb: &Superblock, dev: &dyn BlockDevice) -> FsResult<Self> {
        let mut bits = Vec::with_capacity((sb.total_blocks as usize).div_ceil(8));
        let mut buf = vec![0u8; sb.block_size as usize];
        for i in 0..sb.bitmap_blocks {
            dev.read_block(sb.bitmap_start + i, &mut buf)?;
            bits.extend_from_slice(&buf);
        }
        bits.truncate((sb.total_blocks as usize).div_ceil(8));
        // Bits beyond total_blocks in the final byte are never set by this
        // implementation, so the per-segment popcounts are exact.
        Ok(Self::assemble(sb, &bits))
    }

    /// Join the per-segment locks to the `fs.alloc.<shard>` observability
    /// families.  Called once during volume assembly (`&mut`: before the
    /// bitmap is shared).
    pub fn set_shard_stats(&mut self, stats: &[Arc<LockStats>]) {
        for (seg, s) in self.segments.iter_mut().zip(stats) {
            seg.set_stats(s.clone());
        }
    }

    /// Total number of blocks tracked.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Number of blocks currently marked allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.segments.iter().map(|s| s.lock().allocated).sum()
    }

    /// Number of blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.total_blocks - self.allocated_blocks()
    }

    fn check(&self, block: u64) -> FsResult<()> {
        if block >= self.total_blocks {
            return Err(FsError::Corrupt(format!(
                "bitmap access to block {block} beyond volume end {}",
                self.total_blocks
            )));
        }
        Ok(())
    }

    /// Index of the segment owning `block`.
    #[inline]
    fn shard_of(&self, block: u64) -> usize {
        ((block / self.seg_span) as usize).min(BITMAP_SHARDS - 1)
    }

    /// True if `block` is marked allocated.
    pub fn is_allocated(&self, block: u64) -> bool {
        debug_assert!(block < self.total_blocks);
        self.segments[self.shard_of(block)]
            .lock()
            .is_allocated(block)
    }

    /// Mark `block` allocated.  Returns an error if it was already allocated
    /// (double allocation indicates a logic bug or corruption).
    pub fn allocate(&self, block: u64) -> FsResult<()> {
        self.check(block)?;
        self.segments[self.shard_of(block)].lock().allocate(block)
    }

    /// Atomically check-and-claim `block` under its segment lock: `Ok(true)`
    /// if this caller claimed it, `Ok(false)` if it was already taken.
    pub fn try_allocate(&self, block: u64) -> FsResult<bool> {
        self.check(block)?;
        let mut seg = self.segments[self.shard_of(block)].lock();
        if seg.is_allocated(block) {
            return Ok(false);
        }
        seg.allocate(block)?;
        Ok(true)
    }

    /// Mark `block` free.  Returns an error if it was already free.
    pub fn free(&self, block: u64) -> FsResult<()> {
        self.check(block)?;
        self.segments[self.shard_of(block)].lock().free(block)
    }

    /// Lower bound of the free space: every block strictly below the
    /// returned hint is allocated.  Computed from the per-shard hints by
    /// walking the fully allocated segment prefix.
    pub fn next_free_hint(&self) -> u64 {
        for seg in &self.segments {
            let seg = seg.lock();
            if seg.free_hint < seg.end || seg.len() == 0 {
                return seg.free_hint;
            }
        }
        self.total_blocks
    }

    /// The next-free hint of one shard (absolute block index).  Exposed so
    /// tests can assert a full shard does not drag other shards' scans back.
    pub fn shard_free_hint(&self, shard: usize) -> u64 {
        self.segments[shard].lock().free_hint
    }

    /// Number of segments with a non-empty block range on this volume.
    pub fn live_shards(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| {
                let s = s.lock();
                s.len() > 0
            })
            .count()
    }

    /// First free block in `[from, to)`, locking one segment at a time.
    fn scan_free(&self, from: u64, to: u64) -> Option<u64> {
        if from >= to {
            return None;
        }
        let first = self.shard_of(from);
        let last = self.shard_of(to - 1);
        for i in first..=last {
            let seg = self.segments[i].lock();
            if seg.len() == 0 {
                continue;
            }
            if let Some(b) = seg.scan_free(from.max(seg.start), to.min(seg.end)) {
                return Some(b);
            }
        }
        None
    }

    /// Find the first free block at or after `start` within `[region_start,
    /// region_end)`, wrapping around once.  Word-level scan plus the
    /// per-shard next-free hints; returns exactly what the naive bit walk
    /// would.  Racy under concurrency by design (callers re-check with an
    /// atomic claim); see [`Self::claim_free_from`].
    pub fn find_free_from(&self, start: u64, region_start: u64, region_end: u64) -> Option<u64> {
        if region_start >= region_end {
            return None;
        }
        let start = start.clamp(region_start, region_end - 1);
        self.scan_free(start, region_end)
            .or_else(|| self.scan_free(region_start, start))
    }

    /// [`Self::find_free_from`] fused with the claim: the found block is
    /// marked allocated under the same segment lock the scan ran under, so
    /// concurrent claimers can never be handed the same block.
    pub fn claim_free_from(&self, start: u64, region_start: u64, region_end: u64) -> Option<u64> {
        if region_start >= region_end {
            return None;
        }
        let start = start.clamp(region_start, region_end - 1);
        for (from, to) in [(start, region_end), (region_start, start)] {
            if from >= to {
                continue;
            }
            let first = self.shard_of(from);
            let last = self.shard_of(to - 1);
            for i in first..=last {
                let mut seg = self.segments[i].lock();
                if seg.len() == 0 {
                    continue;
                }
                if let Some(b) = seg.scan_free(from.max(seg.start), to.min(seg.end)) {
                    seg.allocate(b).ok()?;
                    return Some(b);
                }
            }
        }
        None
    }

    /// Atomically probe-and-claim: try each candidate in order with one
    /// segment lock per probe, then fall back to a claiming scan from
    /// `origin`.  This is the hidden-placement hot path — the caller draws
    /// the randomness up front (under the small allocator meta lock) and no
    /// lock is held across more than one segment here.
    pub fn claim_random(
        &self,
        probes: &[u64],
        origin: u64,
        region_start: u64,
        region_end: u64,
    ) -> Option<u64> {
        for &candidate in probes {
            if let Ok(true) = self.try_allocate(candidate) {
                return Some(candidate);
            }
        }
        self.claim_free_from(origin, region_start, region_end)
    }

    /// Lock every segment, ascending (for whole-volume searches and flush).
    fn lock_all(&self) -> Vec<MutexGuard<'_, Segment>> {
        self.segments.iter().map(|s| s.lock()).collect()
    }

    /// Find a run of `len` consecutive free blocks within `[region_start,
    /// region_end)`, searching from `hint`.  Locks all segments for a
    /// consistent view (runs cross shard boundaries); used by the rare
    /// contiguous/fragmented experiment policies.
    pub fn find_free_run(
        &self,
        len: u64,
        hint: u64,
        region_start: u64,
        region_end: u64,
    ) -> Option<u64> {
        let segs = self.lock_all();
        find_run_in(&segs, len, hint, region_start, region_end)
    }

    /// [`Self::find_free_run`] fused with the claim: the whole run is marked
    /// allocated under the same all-segments hold the search ran under.
    pub fn claim_run(
        &self,
        len: u64,
        hint: u64,
        region_start: u64,
        region_end: u64,
    ) -> Option<u64> {
        let mut segs = self.lock_all();
        let start = find_run_in(&segs, len, hint, region_start, region_end)?;
        for b in start..start + len {
            let i = self.shard_of(b);
            segs[i].allocate(b).ok()?;
        }
        Some(start)
    }

    /// Count free blocks within `[region_start, region_end)` — a word-level
    /// popcount, one segment lock at a time.
    pub fn free_in_region(&self, region_start: u64, region_end: u64) -> u64 {
        if region_start >= region_end {
            return 0;
        }
        let first = self.shard_of(region_start);
        let last = self.shard_of(region_end - 1);
        let mut free = 0u64;
        for i in first..=last {
            let seg = self.segments[i].lock();
            if seg.len() == 0 {
                continue;
            }
            free += seg.count_free(region_start.max(seg.start), region_end.min(seg.end));
        }
        free
    }

    /// Write all dirty bitmap blocks back to the device.  Holds every
    /// segment lock across the writes so a concurrent committer's
    /// re-asserted snapshot can never be overwritten by a stale image.
    pub fn flush(&self, dev: &dyn BlockDevice) -> FsResult<()> {
        let mut segs = self.lock_all();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for seg in segs.iter_mut() {
            dirty.append(&mut seg.dirty);
        }
        for index in dirty {
            let buf = assemble_block(self, &segs, index);
            dev.write_block(self.bitmap_start + index, &buf)?;
        }
        Ok(())
    }

    /// Number of bitmap blocks currently dirty (exposed for tests).
    pub fn dirty_count(&self) -> usize {
        let segs = self.lock_all();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for seg in &segs {
            dirty.extend(seg.dirty.iter().copied());
        }
        dirty.len()
    }

    /// Index (within the bitmap region) of the bitmap block that stores the
    /// allocation bit of `block`.  Pure geometry — no lock.
    pub fn bitmap_block_of(&self, block: u64) -> u64 {
        block / (self.block_size as u64 * 8)
    }

    /// Device block number of the bitmap block at region index `index`.
    pub fn device_block_of(&self, index: u64) -> u64 {
        self.bitmap_start + index
    }

    /// Segment indices whose block ranges intersect the bitmap block at
    /// region index `index`.
    fn shards_covering(&self, index: u64) -> std::ops::RangeInclusive<usize> {
        let bits_per_block = self.block_size as u64 * 8;
        let first = (index * bits_per_block).min(self.total_blocks.saturating_sub(1));
        let last = ((index + 1) * bits_per_block)
            .min(self.total_blocks)
            .saturating_sub(1);
        self.shard_of(first)..=self.shard_of(last.max(first))
    }

    /// Serialise the current contents of the bitmap block at region index
    /// `index`, locking the covering segments.
    pub fn serialize_block(&self, index: u64) -> Vec<u8> {
        let segs = self.lock_all();
        assemble_block(self, &segs, index)
    }

    /// Lock, in ascending order, every segment covering the given
    /// bitmap-block indices *and* the given touched blocks, and return a
    /// guard for snapshotting and tentative bit flips.  This is the
    /// transaction-commit hold: the journal stages under it, so per shard
    /// the snapshot order agrees with the sequence order (see the module
    /// docs).
    pub fn lock_blocks(&self, indices: &BTreeSet<u64>) -> BitmapBlocksGuard<'_> {
        let mut shards: BTreeSet<usize> = BTreeSet::new();
        for &idx in indices {
            for s in self.shards_covering(idx) {
                shards.insert(s);
            }
        }
        let segs = shards
            .into_iter()
            .map(|i| (i, self.segments[i].lock()))
            .collect();
        BitmapBlocksGuard { bm: self, segs }
    }
}

/// Assemble the on-disk image of one bitmap block from held segment guards.
/// `segs` must cover every segment intersecting the block (a full
/// [`Bitmap::lock_all`] always does).
fn assemble_block(bm: &Bitmap, segs: &[MutexGuard<'_, Segment>], index: u64) -> Vec<u8> {
    let mut buf = vec![0u8; bm.block_size];
    let byte_start = (index as usize) * bm.block_size;
    let total_bytes = (bm.total_blocks as usize).div_ceil(8);
    let byte_end = (byte_start + bm.block_size).min(total_bytes);
    for seg in segs {
        if seg.len() == 0 {
            continue;
        }
        let seg_byte_start = (seg.start / 8) as usize;
        let seg_byte_end = seg_byte_start + seg.bits.len();
        let lo = byte_start.max(seg_byte_start);
        let hi = byte_end.min(seg_byte_end);
        if lo < hi {
            buf[lo - byte_start..hi - byte_start]
                .copy_from_slice(&seg.bits[lo - seg_byte_start..hi - seg_byte_start]);
        }
    }
    buf
}

/// Run search over a consistent all-segments view (guards held by caller).
fn find_run_in(
    segs: &[MutexGuard<'_, Segment>],
    len: u64,
    hint: u64,
    region_start: u64,
    region_end: u64,
) -> Option<u64> {
    if len == 0 || region_start >= region_end || region_end - region_start < len {
        return None;
    }
    let hint = hint.clamp(region_start, region_end - 1);
    let seg_of = |b: u64| -> &Segment {
        let i = segs
            .iter()
            .position(|s| b >= s.start && b < s.end)
            .expect("block within a segment");
        &segs[i]
    };
    let is_allocated = |b: u64| seg_of(b).is_allocated(b);
    // A word probe is safe when the whole word sits inside one segment —
    // guaranteed by 64-aligned segment boundaries.
    let word_at = |b: u64| seg_of(b).word_at(b);
    // Search from the hint to the end, then from the region start to the
    // hint, so a fresh volume fills front-to-back (contiguous files).
    let search = |from: u64, to: u64| -> Option<u64> {
        let mut run_start = from;
        let mut run_len = 0u64;
        let mut b = from;
        while b < to {
            // Between runs, skip fully allocated words with one compare.
            if run_len == 0 && b.is_multiple_of(64) && b + 64 <= to && word_at(b) == u64::MAX {
                b += 64;
                run_start = b;
                continue;
            }
            if is_allocated(b) {
                run_len = 0;
                run_start = b + 1;
            } else {
                run_len += 1;
                if run_len == len {
                    return Some(run_start);
                }
            }
            b += 1;
        }
        None
    };
    search(hint, region_end).or_else(|| search(region_start, (hint + len).min(region_end)))
}

/// The transaction-commit hold over the segments covering a set of bitmap
/// blocks: tentative frees, snapshot serialisation and the undo all run
/// against these guards, and the caller keeps the guard across journal
/// staging.  Produced by [`Bitmap::lock_blocks`].
pub struct BitmapBlocksGuard<'a> {
    bm: &'a Bitmap,
    /// `(shard index, guard)` pairs, ascending.
    segs: Vec<(usize, MutexGuard<'a, Segment>)>,
}

impl BitmapBlocksGuard<'_> {
    fn seg_mut(&mut self, block: u64) -> FsResult<&mut Segment> {
        let shard = self.bm.shard_of(block);
        self.segs
            .iter_mut()
            .find(|(i, _)| *i == shard)
            .map(|(_, g)| &mut **g)
            .ok_or_else(|| {
                FsError::Corrupt(format!("block {block} outside the locked bitmap segments"))
            })
    }

    /// Mark `block` free (tentatively, for the snapshot).
    pub fn free(&mut self, block: u64) -> FsResult<()> {
        self.bm.check(block)?;
        self.seg_mut(block)?.free(block)
    }

    /// Mark `block` allocated (the snapshot undo).
    pub fn allocate(&mut self, block: u64) -> FsResult<()> {
        self.bm.check(block)?;
        self.seg_mut(block)?.allocate(block)
    }

    /// Serialise the bitmap block at region index `index` from the held
    /// segments.
    pub fn serialize_block(&self, index: u64) -> Vec<u8> {
        let mut buf = vec![0u8; self.bm.block_size];
        let byte_start = (index as usize) * self.bm.block_size;
        let total_bytes = (self.bm.total_blocks as usize).div_ceil(8);
        let byte_end = (byte_start + self.bm.block_size).min(total_bytes);
        for (_, seg) in &self.segs {
            if seg.len() == 0 {
                continue;
            }
            let seg_byte_start = (seg.start / 8) as usize;
            let seg_byte_end = seg_byte_start + seg.bits.len();
            let lo = byte_start.max(seg_byte_start);
            let hi = byte_end.min(seg_byte_end);
            if lo < hi {
                buf[lo - byte_start..hi - byte_start]
                    .copy_from_slice(&seg.bits[lo - seg_byte_start..hi - seg_byte_start]);
            }
        }
        buf
    }

    /// Device block number of the bitmap block at region index `index`.
    pub fn device_block_of(&self, index: u64) -> u64 {
        self.bm.device_block_of(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemBlockDevice;

    fn small_sb() -> Superblock {
        Superblock::compute(1024, 4096, 256, 0).unwrap()
    }

    #[test]
    fn allocate_and_free_update_counts() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        assert_eq!(bm.free_blocks(), 4096);
        bm.allocate(100).unwrap();
        bm.allocate(101).unwrap();
        assert!(bm.is_allocated(100));
        assert!(!bm.is_allocated(99));
        assert_eq!(bm.allocated_blocks(), 2);
        bm.free(100).unwrap();
        assert_eq!(bm.allocated_blocks(), 1);
        assert!(!bm.is_allocated(100));
    }

    #[test]
    fn double_allocate_and_double_free_rejected() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        bm.allocate(5).unwrap();
        assert!(bm.allocate(5).is_err());
        bm.free(5).unwrap();
        assert!(bm.free(5).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        assert!(bm.allocate(4096).is_err());
        assert!(bm.free(9999).is_err());
    }

    #[test]
    fn find_free_from_wraps() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        // Fill 10..20, search starting at 15 inside region [10, 20): nothing.
        for b in 10..20 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.find_free_from(15, 10, 20), None);
        // Region [10, 25): first free after 15 is 20.
        assert_eq!(bm.find_free_from(15, 10, 25), Some(20));
        // Wrap: region [5, 20) starting at 15 -> free blocks are 5..10.
        assert_eq!(bm.find_free_from(15, 5, 20), Some(5));
    }

    #[test]
    fn find_free_run_basic() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        assert_eq!(bm.find_free_run(8, 0, 0, 4096), Some(0));
        // Poke a hole so the first run of 8 starts later.
        for b in 0..5 {
            bm.allocate(b).unwrap();
        }
        bm.allocate(7).unwrap();
        assert_eq!(bm.find_free_run(8, 0, 0, 4096), Some(8));
        // A run of 2 fits in the gap 5..7.
        assert_eq!(bm.find_free_run(2, 0, 0, 4096), Some(5));
        // Run longer than the region fails.
        assert_eq!(bm.find_free_run(100, 0, 0, 50), None);
        assert_eq!(bm.find_free_run(0, 0, 0, 4096), None);
    }

    #[test]
    fn find_free_run_respects_hint_then_wraps() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        // Allocate everything from 2000 on so a hint past it must wrap back.
        for b in 2000..4096 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.find_free_run(4, 3000, 0, 4096), Some(0));
        assert_eq!(bm.find_free_run(4, 100, 0, 4096), Some(100));
    }

    #[test]
    fn runs_cross_shard_boundaries() {
        // 4096 blocks over 8 shards = 512-block segments; a run straddling
        // block 512 must be found and claimed whole.
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in 0..508 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.find_free_run(16, 0, 0, 4096), Some(508));
        assert_eq!(bm.claim_run(16, 0, 0, 4096), Some(508));
        for b in 508..524 {
            assert!(bm.is_allocated(b), "block {b}");
        }
    }

    #[test]
    fn free_in_region_counts() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in 10..20 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.free_in_region(0, 30), 20);
        assert_eq!(bm.free_in_region(10, 20), 0);
    }

    #[test]
    fn word_scan_matches_naive_walk() {
        // A deliberately ragged pattern across word boundaries.
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in 0..4096u64 {
            if b % 3 != 0 || (640..832).contains(&b) || b < 130 {
                bm.allocate(b).unwrap();
            }
        }
        let naive = |start: u64, rs: u64, re: u64| -> Option<u64> {
            if rs >= re {
                return None;
            }
            let start = start.clamp(rs, re - 1);
            let mut b = start;
            loop {
                if !bm.is_allocated(b) {
                    return Some(b);
                }
                b += 1;
                if b >= re {
                    b = rs;
                }
                if b == start {
                    return None;
                }
            }
        };
        for (start, rs, re) in [
            (0u64, 0u64, 4096u64),
            (1, 0, 4096),
            (63, 0, 4096),
            (64, 0, 4096),
            (100, 50, 700),
            (650, 600, 900),
            (4095, 0, 4096),
            (700, 640, 832),
            (10, 130, 131),
            (500, 400, 700),
            (511, 0, 4096),
            (513, 0, 4096),
        ] {
            assert_eq!(
                bm.find_free_from(start, rs, re),
                naive(start, rs, re),
                "start {start}, region [{rs}, {re})"
            );
        }
        // Popcount agrees with the filter-count for odd-aligned regions,
        // including ones crossing the 512-block shard boundaries.
        for (rs, re) in [
            (0u64, 4096u64),
            (1, 4095),
            (63, 65),
            (600, 900),
            (130, 130),
            (500, 530),
            (510, 1530),
        ] {
            let expect = (rs..re).filter(|&b| !bm.is_allocated(b)).count() as u64;
            assert_eq!(bm.free_in_region(rs, re), expect, "region [{rs}, {re})");
        }
    }

    #[test]
    fn next_free_hint_rotates_and_snaps_back() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        assert_eq!(bm.next_free_hint(), 0);
        // Allocating the prefix rotates the hint forward with it.
        for b in 0..200u64 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.next_free_hint(), 200);
        // An out-of-order allocation leaves the hint alone...
        bm.allocate(1000).unwrap();
        assert_eq!(bm.next_free_hint(), 200);
        // ...and a free below it snaps it back.
        bm.free(50).unwrap();
        assert_eq!(bm.next_free_hint(), 50);
        assert_eq!(bm.find_free_from(0, 0, 4096), Some(50));
        bm.allocate(50).unwrap();
        assert_eq!(bm.next_free_hint(), 51);
        // The invariant holds: everything below the hint is allocated.
        for b in 0..bm.next_free_hint() {
            assert!(bm.is_allocated(b));
        }
        assert_eq!(bm.find_free_from(0, 0, 4096), Some(200));
    }

    #[test]
    fn hints_are_per_shard() {
        // 4096 blocks over 8 shards = 512-block segments.  Filling shard 0
        // completely must not drag shard 2's hint (or scans through it) back
        // to the volume start, and freeing inside shard 0 must not disturb
        // the other shards' hints.
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in 0..512u64 {
            bm.allocate(b).unwrap();
        }
        for b in 1024..1100u64 {
            bm.allocate(b).unwrap();
        }
        assert_eq!(bm.shard_free_hint(0), 512);
        assert_eq!(bm.shard_free_hint(2), 1100);
        bm.free(40).unwrap();
        assert_eq!(bm.shard_free_hint(0), 40);
        assert_eq!(bm.shard_free_hint(2), 1100, "other shard's hint untouched");
        // A scan confined past shard 0 starts from shard 2's hint, not 0.
        assert_eq!(bm.find_free_from(1024, 1024, 2048), Some(1100));
        assert_eq!(bm.live_shards(), BITMAP_SHARDS);
    }

    #[test]
    fn claim_paths_match_find_paths() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in 0..130u64 {
            bm.allocate(b).unwrap();
        }
        let found = bm.find_free_from(0, 0, 4096).unwrap();
        let claimed = bm.claim_free_from(0, 0, 4096).unwrap();
        assert_eq!(found, claimed);
        assert!(bm.is_allocated(claimed));
        // try_allocate reports the loser.
        assert!(!bm.try_allocate(claimed).unwrap());
        assert!(bm.try_allocate(claimed + 1).unwrap());
        // claim_random prefers the first free probe.
        let got = bm.claim_random(&[5, 9999, 200], 0, 0, 4096);
        assert_eq!(got, Some(200), "5 allocated, 9999 out of range scans on");
    }

    #[test]
    fn concurrent_claims_never_double_own() {
        use std::sync::Arc;
        let sb = small_sb();
        let bm = Arc::new(Bitmap::new(&sb));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let bm = Arc::clone(&bm);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..200u64 {
                        // Deliberately colliding probe sequences.
                        let probes = [(t * 13 + i * 7) % 4096, (i * 31) % 4096];
                        if let Some(b) = bm.claim_random(&probes, (t * 512) % 4096, 0, 4096) {
                            got.push(b);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no block claimed twice");
        assert_eq!(bm.allocated_blocks(), n as u64);
    }

    #[test]
    fn flush_and_reload_roundtrip() {
        let sb = small_sb();
        let dev = MemBlockDevice::new(1024, 4096);
        let bm = Bitmap::new(&sb);
        for b in [0u64, 7, 8, 1000, 4095] {
            bm.allocate(b).unwrap();
        }
        assert!(bm.dirty_count() > 0);
        bm.flush(&dev).unwrap();
        assert_eq!(bm.dirty_count(), 0);

        let loaded = Bitmap::load(&sb, &dev).unwrap();
        assert_eq!(loaded.allocated_blocks(), 5);
        for b in [0u64, 7, 8, 1000, 4095] {
            assert!(loaded.is_allocated(b), "block {b}");
        }
        assert!(!loaded.is_allocated(1));
    }

    #[test]
    fn flush_only_writes_dirty_blocks() {
        // A volume large enough to need several bitmap blocks: 64k blocks at
        // 1 KB block size -> 8192 bits per bitmap block -> 8 bitmap blocks.
        let sb = Superblock::compute(1024, 65536, 256, 0).unwrap();
        let dev = stegfs_blockdev::ObservedDevice::counting(MemBlockDevice::new(1024, 65536));
        let bm = Bitmap::new(&sb);
        bm.allocate(0).unwrap(); // bit in bitmap block 0
        bm.allocate(60000).unwrap(); // bit in bitmap block 7
        bm.flush(&dev).unwrap();
        assert_eq!(
            dev.stats().summary().blocks_written,
            2,
            "only two bitmap blocks dirty"
        );
    }

    #[test]
    fn commit_guard_snapshots_and_flips_bits() {
        let sb = small_sb();
        let bm = Bitmap::new(&sb);
        for b in [10u64, 600, 3000] {
            bm.allocate(b).unwrap();
        }
        let indices: BTreeSet<u64> = [bm.bitmap_block_of(10), bm.bitmap_block_of(3000)]
            .into_iter()
            .collect();
        let mut guard = bm.lock_blocks(&indices);
        guard.free(600).unwrap();
        let snap = guard.serialize_block(0);
        // Bit 600 cleared in the snapshot; bit 10 still set.
        assert_eq!(snap[75] & (1 << 0), 0, "bit 600 is byte 75 bit 0");
        assert_eq!(snap[1] & (1 << 2), 1 << 2, "bit 10 is byte 1 bit 2");
        guard.allocate(600).unwrap(); // undo
        drop(guard);
        assert!(bm.is_allocated(600));
        // The standalone serializer agrees with the guard's.
        assert_eq!(bm.serialize_block(0), {
            let g = bm.lock_blocks(&indices);
            g.serialize_block(0)
        });
    }
}
