//! File-system transactions: the seam between [`PlainFs`] (and the hidden
//! layer above it) and the write-ahead journal.
//!
//! Every multi-block update — a file rewrite, a create, a delete, a hidden
//! object's chain rebuild — runs through one [`FsTxn`], and so does every
//! composed one: a public hidden-namespace operation (create, delete,
//! rename, revoke, a directory-listing change with its shadow) stages all
//! of its objects into one transaction and commits it once.
//!
//! * **On a journaled volume** the transaction *buffers*: raw block writes
//!   stage into a redo buffer, inode updates and block frees defer, and
//!   nothing touches the device until [`commit`](FsTxn::commit), which
//!   journals the whole update (with a snapshot of every touched bitmap
//!   block), group-flushes, and only then applies it in place.  A crash at
//!   any point leaves either the complete update (replayable) or none of it.
//! * **On an unjournaled volume** the transaction is a transparent
//!   pass-through with exactly the pre-journal write-through behaviour, so
//!   the simulation harness and the paper-reproduction experiments are
//!   unaffected.  Each [`write_raw_blocks`](FsTxn::write_raw_blocks) call
//!   is one device submission, and every hidden-object mutation makes
//!   exactly one: its shares, chain nodes and header replicas arrive as one
//!   batch, so a write-through mutation that fails before that call has
//!   written nothing.
//!
//! Block *allocations* apply to the in-memory bitmap immediately in both
//! modes (concurrent operations must see them), and are rolled back if the
//! transaction is dropped without committing.  Block *frees* defer to commit
//! on a journaled volume: until the update that stops referencing a block is
//! durable, the block must stay allocated, or a crash could leave it owned
//! by both its old object and a later allocation.
//!
//! Two bounded, deliberate imperfections: (1) an update larger than the
//! journal ring commits as a *sequence* of ring-sized pieces — data pieces
//! first, then one final piece carrying the inode-table read-modify-writes
//! and the bitmap snapshot.  Every piece takes the path the final one
//! takes — reserve, stage, persist, apply — one piece at a time.  Each
//! piece is individually crash-atomic and the final one is the logical
//! commit point (object references and the bitmap change only there), but
//! a crash or failure mid-sequence can leave a prefix of the new images
//! applied in place: freshly allocated blocks revert to camouflage, while
//! blocks the update was rewriting *in place* can be left torn.  A block
//! the update also frees is never among those: its new image (a scrub)
//! rides in the final piece, or the update fails `NoSpace` before any piece
//! commits, so a crash never scrubs a block the volume still links.
//! Concurrent threads never observe the partial state (callers hold their
//! operation guards across commit), and on a failed sequence the journal
//! anchor is advanced past the already-committed pieces so they can never
//! replay over blocks a later allocation reuses.  (2) a committing
//! transaction's bitmap snapshot may capture a *concurrent, later-aborted*
//! transaction's allocation bits, so a crash can leak those blocks as
//! allocated-but-unreferenced.  Leaked blocks are indistinguishable from
//! the abandoned blocks the format deliberately scatters (§3.1 of the
//! paper) — camouflage, not corruption — and never double-own (the crash
//! harness asserts this).
//!
//! # Lock and flush ordering
//!
//! [`FsTxn::commit`] acquires, in order: the inode-table stripes of every
//! deferred inode update (ascending stripe index, held across the journal
//! apply so concurrent read-modify-writes of shared table blocks serialise),
//! then, for each piece, ring room (a journal reservation, which on a full
//! ring waits for the transactions in front of it to settle — their
//! committers re-take segment locks after their apply, so the wait must not
//! hold any), then the bitmap **segment locks** covering every touched
//! bitmap block (ascending segment index, released before the commit's
//! device flush; the final piece's only, as the earlier ones touch none)
//! under which the deferred frees apply *tentatively* (snapshot, then undo —
//! they re-apply for real only once the transaction is durable), the touched
//! bitmap blocks snapshot, and the journal *stages* — staging under the
//! covering segment locks is what makes bitmap-snapshot order agree with
//! journal sequence order for every block the snapshot covers.  Commits
//! touching disjoint segments stage concurrently; that is the sharded-
//! allocator win.  After the apply, the touched bitmap blocks are
//! re-asserted from the live bitmap (again under their segment locks), so
//! concurrent commits applying snapshots of a shared bitmap block out of
//! order can never leave a stale image as the device's last word.  Where
//! these locks sit in the stack's order: the table in [`stegfs_obs::lock`].
//! Callers hold their operation's own guards (namespace / content stripe /
//! object shard) across the whole transaction, commit included, so an
//! update is visible to others only once it is durable.  A transaction
//! holds no lock until [`FsTxn::commit`], so it may begin before any of
//! those guards.  Work registered with [`FsTxn::on_commit`] runs inside
//! `commit` after the update is durable, with no file-system lock held.

use crate::error::{FsError, FsResult};
use crate::fs::PlainFs;
use crate::inode::{Inode, InodeId};
use std::collections::{BTreeMap, BTreeSet};
use stegfs_blockdev::BlockDevice;
use stegfs_journal::{Journal, JournalError, Tx};

impl From<JournalError> for FsError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Device(e) => FsError::Block(e),
            // The update can never fit in the journal ring: it is larger
            // than the ring (the journal must be sized for the largest
            // update the volume will carry), or a failed apply pins the
            // ring's front.  A ring full of settling transactions waits
            // instead.  Either way the operation failed cleanly and the
            // volume is intact, which is NoSpace, not corruption.
            JournalError::Full { .. } => FsError::NoSpace,
            other => FsError::Corrupt(format!("journal: {other}")),
        }
    }
}

/// One multi-block update in flight.  See the module docs.
///
/// Dropping a transaction without committing rolls back its in-memory block
/// allocations and discards every buffered write; on a journaled volume the
/// device is untouched.
pub struct FsTxn<'a, D: BlockDevice> {
    fs: &'a PlainFs<D>,
    /// Redo buffer; `Some` iff the volume is journaled.
    tx: Option<Tx>,
    /// Blocks allocated during the operation (rolled back on drop).
    allocated: Vec<u64>,
    /// Blocks whose bitmap bit changed (allocations and frees) — the bitmap
    /// blocks covering them are snapshotted into the journal at commit.
    touched: BTreeSet<u64>,
    /// Frees deferred to commit (journaled volumes only).
    deferred_frees: Vec<u64>,
    /// Inode updates deferred to commit (journaled volumes only).
    deferred_inodes: BTreeMap<InodeId, Inode>,
    /// Work that may run only once the update is durable; dropped unrun if
    /// the transaction never commits.
    on_commit: Vec<Box<dyn FnOnce() + 'a>>,
    committed: bool,
}

impl<'a, D: BlockDevice> FsTxn<'a, D> {
    pub(crate) fn new(fs: &'a PlainFs<D>, journaled: bool) -> Self {
        FsTxn {
            fs,
            tx: journaled.then(Tx::new),
            allocated: Vec::new(),
            touched: BTreeSet::new(),
            deferred_frees: Vec::new(),
            deferred_inodes: BTreeMap::new(),
            on_commit: Vec::new(),
            committed: false,
        }
    }

    /// The file system this transaction writes to.
    pub fn fs(&self) -> &'a PlainFs<D> {
        self.fs
    }

    /// True when updates buffer into the journal (false = write-through).
    pub fn journaled(&self) -> bool {
        self.tx.is_some()
    }

    /// Block size of the underlying volume.
    pub fn block_size(&self) -> usize {
        self.fs.block_size()
    }

    // ------------------------------------------------------------------
    // Raw block I/O (overlay-aware)
    // ------------------------------------------------------------------

    /// Read one block, seeing this transaction's own buffered writes.
    pub fn read_raw_block(&self, block: u64) -> FsResult<Vec<u8>> {
        if let Some(tx) = &self.tx {
            if let Some(data) = tx.read(block) {
                return Ok(data.to_vec());
            }
        }
        self.fs.read_raw_block(block)
    }

    /// Read a whole extent list (one batched submission for the blocks this
    /// transaction has not overwritten), seeing buffered writes.
    pub fn read_raw_blocks(&self, blocks: &[u64]) -> FsResult<Vec<u8>> {
        let Some(tx) = &self.tx else {
            return self.fs.read_raw_blocks(blocks);
        };
        let bs = self.fs.block_size();
        let mut out = vec![0u8; blocks.len() * bs];
        let mut missing: Vec<(usize, u64)> = Vec::new();
        for (i, &block) in blocks.iter().enumerate() {
            match tx.read(block) {
                Some(data) => out[i * bs..(i + 1) * bs].copy_from_slice(data),
                None => missing.push((i, block)),
            }
        }
        if !missing.is_empty() {
            let miss_blocks: Vec<u64> = missing.iter().map(|&(_, b)| b).collect();
            let fetched = self.fs.read_raw_blocks(&miss_blocks)?;
            for (j, &(i, _)) in missing.iter().enumerate() {
                out[i * bs..(i + 1) * bs].copy_from_slice(&fetched[j * bs..(j + 1) * bs]);
            }
        }
        Ok(out)
    }

    /// Stage (journaled) or immediately perform (unjournaled) one block
    /// write.
    pub fn write_raw_block(&mut self, block: u64, data: &[u8]) -> FsResult<()> {
        match &mut self.tx {
            Some(tx) => {
                // Validate now, as the device would on an unjournaled
                // volume, instead of failing the whole batch at commit.
                check_staged_write(self.fs, block, data.len())?;
                tx.write(block, data);
                Ok(())
            }
            None => Ok(self.fs.observed_device().write_block(block, data)?),
        }
    }

    /// Stage or immediately perform a batched extent write, in **one
    /// batched device submission** (`data` is the concatenation of the
    /// block images in `blocks` order).
    pub fn write_raw_blocks(&mut self, blocks: &[u64], data: &[u8]) -> FsResult<()> {
        match &mut self.tx {
            Some(tx) => {
                let bs = self.fs.block_size();
                if data.len() != blocks.len() * bs {
                    return Err(FsError::Corrupt(format!(
                        "staged extent of {} blocks with {} bytes",
                        blocks.len(),
                        data.len()
                    )));
                }
                for (i, &block) in blocks.iter().enumerate() {
                    check_staged_write(self.fs, block, bs)?;
                    tx.write(block, &data[i * bs..(i + 1) * bs]);
                }
                Ok(())
            }
            None if blocks.is_empty() && data.is_empty() => Ok(()),
            None => Ok(self.fs.observed_device().write_blocks(blocks, data)?),
        }
    }

    // ------------------------------------------------------------------
    // Allocation (immediate, rolled back on drop) and frees (deferred)
    // ------------------------------------------------------------------

    fn note_allocated(&mut self, block: u64) {
        self.allocated.push(block);
        self.touched.insert(block);
    }

    /// Allocate one uniformly random free data-region block.
    pub fn allocate_random_block(&mut self) -> FsResult<u64> {
        let block = self.fs.allocate_random_block()?;
        self.note_allocated(block);
        Ok(block)
    }

    /// Atomically check-and-claim a specific data-region block; `Ok(false)`
    /// when it is already taken.
    pub fn try_allocate_specific_block(&mut self, block: u64) -> FsResult<bool> {
        if self.fs.try_allocate_specific_block(block)? {
            self.note_allocated(block);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Allocate `count` data blocks with the current policy (the plain
    /// file-content allocator).
    pub(crate) fn allocate_file_blocks(&mut self, count: u64) -> FsResult<Vec<u64>> {
        let blocks = self.fs.allocate_file_blocks_raw(count)?;
        for &b in &blocks {
            self.note_allocated(b);
        }
        Ok(blocks)
    }

    /// Allocate one block with the current policy.
    pub(crate) fn allocate_one(&mut self) -> FsResult<u64> {
        let block = self.fs.allocate_one_raw()?;
        self.note_allocated(block);
        Ok(block)
    }

    /// Release `block`.  Journaled: deferred until commit (the block stays
    /// allocated while the update that drops it is still volatile);
    /// unjournaled: immediate.
    pub fn free_block(&mut self, block: u64) -> FsResult<()> {
        if self.tx.is_some() {
            self.touched.insert(block);
            self.deferred_frees.push(block);
            Ok(())
        } else {
            self.fs.free_raw_block(block)
        }
    }

    // ------------------------------------------------------------------
    // Inode updates (deferred on journaled volumes)
    // ------------------------------------------------------------------

    /// Stage (journaled) or immediately write (unjournaled) inode `id`.
    pub(crate) fn set_inode(&mut self, id: InodeId, inode: &Inode) -> FsResult<()> {
        if self.tx.is_some() {
            self.deferred_inodes.insert(id, inode.clone());
            Ok(())
        } else {
            self.fs.write_inode_direct(id, inode)
        }
    }

    /// Read inode `id`, seeing this transaction's own staged update.
    pub(crate) fn read_inode(&self, id: InodeId) -> FsResult<Inode> {
        if let Some(inode) = self.deferred_inodes.get(&id) {
            return Ok(inode.clone());
        }
        self.fs.read_inode_raw(id)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Run `f` once this transaction has committed, inside
    /// [`commit`](Self::commit) and so under whatever guards its caller
    /// holds across it.  A transaction that fails or is dropped never runs
    /// it.  The hidden layer installs what an operation published into its
    /// read cache this way, so the cache never serves an update that did
    /// not commit.
    pub fn on_commit(&mut self, f: impl FnOnce() + 'a) {
        self.on_commit.push(Box::new(f));
    }

    /// Make the update durable, then run the [`on_commit`](Self::on_commit)
    /// work.  Unjournaled volumes: nothing to persist (everything was
    /// written through already).  Journaled volumes: stage the deferred
    /// inode read-modify-writes and the touched bitmap blocks into the redo
    /// buffer, journal it (sequence assigned under the covering bitmap
    /// segment locks, see the module docs), group-flush, and apply in place.
    pub fn commit(mut self) -> FsResult<()> {
        self.persist()?;
        for f in std::mem::take(&mut self.on_commit) {
            f();
        }
        Ok(())
    }

    /// The durable half of [`commit`](Self::commit).
    fn persist(&mut self) -> FsResult<()> {
        let Some(mut tx) = self.tx.take() else {
            self.committed = true;
            return Ok(());
        };
        let fs = self.fs;
        let journal = fs.journal_ref().expect("journaled txn without a journal");

        // Pressure valve: with the ring nearly full, checkpoint now rather
        // than stage into a ring that reclaim would block on anyway.
        fs.maybe_steal_checkpoint();

        // Deferred inode updates become read-modify-writes of their table
        // blocks, under the table-block stripes (held through the apply).
        let mut by_table_block: BTreeMap<u64, Vec<InodeId>> = BTreeMap::new();
        let mut locations: BTreeMap<InodeId, (u64, usize)> = BTreeMap::new();
        for &id in self.deferred_inodes.keys() {
            let (block, offset) = fs.inode_location(id)?;
            by_table_block.entry(block).or_default().push(id);
            locations.insert(id, (block, offset));
        }
        let _table_guards = fs.lock_itable_stripes(by_table_block.keys().copied());
        for (&table_block, ids) in &by_table_block {
            let mut buf = match tx.read(table_block) {
                Some(data) => data.to_vec(),
                None => fs.read_raw_block(table_block)?,
            };
            for id in ids {
                let (_, offset) = locations[id];
                let inode = &self.deferred_inodes[id];
                buf[offset..offset + crate::layout::INODE_SIZE].copy_from_slice(&inode.serialize());
            }
            tx.write(table_block, &buf);
        }

        // Which bitmap blocks (region indices) the final piece will
        // snapshot.  The block→bitmap-block mapping is static geometry (no
        // lock needed), so computing it up front both sizes the final piece
        // exactly and is reused at staging time.
        let mut indices: BTreeSet<u64> = BTreeSet::new();
        for &b in &self.touched {
            indices.insert(fs.bitmap().bitmap_block_of(b));
        }

        // An update larger than the journal ring commits as a sequence of
        // ring-sized pieces, each through the same reserve, stage, persist
        // and apply: the leading writes in pieces of `max`, then the final
        // piece with the inode-table blocks (staged last, so they sit at
        // the tail of the write set) and the bitmap snapshot — the logical
        // commit point.  See the module docs for the weakened (but bounded)
        // crash semantics of a cut update.
        let max = journal.max_tx_targets() as usize;
        let final_budget = max.saturating_sub(indices.len());
        if final_budget == 0 {
            // Even the bitmap snapshot alone exceeds the ring.
            return Err(FsError::NoSpace);
        }
        // Cut from the back, so each image is copied once.  An image of a
        // block this transaction frees (a delete's scrub, the noise over a
        // destroyed object's header) rewrites a block that stays linked
        // until the commit point, so it rides in the final piece, beside
        // the inode-table blocks; if they do not fit there together, the
        // update fails before any piece is reserved.
        let mut pieces = Vec::new();
        if tx.len() > final_budget {
            let frees: BTreeSet<u64> = self.deferred_frees.iter().copied().collect();
            let freed = tx.extract(|b| frees.contains(&b));
            let room = final_budget
                .checked_sub(freed.len())
                .filter(|&room| freed.is_empty() || room >= by_table_block.len())
                .ok_or(FsError::NoSpace)?;
            let mut last = tx.split_off(tx.len() - room);
            last.append(freed);
            pieces.push(last);
            while tx.len() > max {
                pieces.push(tx.split_off((tx.len() - 1) / max * max));
            }
        }
        pieces.push(tx);
        let cut = pieces.len() > 1;
        let mut result = Ok(());
        while let Some(piece) = pieces.pop() {
            let last = pieces.is_empty();
            result = self.commit_piece(journal, piece, last.then_some(&indices));
            if result.is_err() {
                break;
            }
        }
        if result.is_err() && cut {
            // Earlier pieces are committed and applied; advance the anchor
            // past them so they can never replay over blocks Drop is about
            // to free for reuse.
            let _ = journal.sync(fs.observed_device());
        }
        if result.is_ok() {
            // Hand the (volatile-tail) checkpoint work to the daemon, if one
            // is running — the commit path itself never pays for it.
            fs.notify_checkpoint();
        }
        result
    }

    /// Commit one ring-sized piece of the update: reserve its ring room,
    /// stage, persist (the piece's commit point) and apply in place.  Only
    /// the final piece passes `snapshot`, the bitmap blocks the update
    /// touched: it alone carries the bitmap snapshot and the deferred
    /// frees, and it alone marks the transaction committed.  An earlier
    /// piece carries only block images, no shared state, and so takes no
    /// segment lock.
    fn commit_piece(
        &mut self,
        journal: &Journal,
        mut tx: Tx,
        snapshot: Option<&BTreeSet<u64>>,
    ) -> FsResult<()> {
        let fs = self.fs;
        let last = snapshot.is_some();
        let none = BTreeSet::new();
        let indices = snapshot.unwrap_or(&none);
        let frees = if last { &self.deferred_frees[..] } else { &[] };
        // Ring room first, before any segment lock: a full ring waits for
        // the transactions in front to settle, and their committers need
        // those locks to do it.  A piece is at most its staged writes plus
        // one image per bitmap block.
        let reservation = journal
            .reserve(fs.observed_device(), tx.len() + indices.len())
            .map_err(FsError::from)?;
        // The bitmap snapshot, staged while holding the segment locks
        // covering every touched bitmap block, together with the journal
        // sequence assignment.  The deferred frees are applied *tentatively*
        // — serialise, then undo — all under one guard hold: the snapshot
        // shows the post-free state replay must restore, but until the
        // transaction is durable no other thread can observe (or be handed)
        // a freed block, so a failure at any later step leaves nothing to
        // take back.
        let staged = {
            let mut guard = fs.bitmap().lock_blocks(indices);
            for &b in frees {
                guard.free(b)?;
            }
            for &idx in indices {
                tx.write(guard.device_block_of(idx), &guard.serialize_block(idx));
            }
            for &b in frees {
                guard.allocate(b)?; // undo: nothing escaped the guard
            }
            reservation.stage(tx)
        };
        let Some(staged) = staged else {
            self.committed = last;
            return Ok(());
        };

        // The commit point.  On failure the transaction never became
        // durable and nothing was exposed: `committed` stays false, so Drop
        // rolls the allocations back and the deferred frees simply never
        // happen.  (After a *flush* error the slots could still have hit
        // the platter — see `Journal::persist`; a volume that reports
        // persist errors should be remounted.)
        journal.persist(fs.observed_device(), &staged)?;
        self.committed = last;

        // Durable now: release the deferred frees for real (the blocks
        // stayed allocated throughout, so this cannot race), then apply the
        // staged images in place.  The post-apply callback re-asserts the
        // touched bitmap blocks from the live bitmap under their segment
        // locks: concurrent commits apply their snapshots in arbitrary
        // order, and without the re-assert a stale snapshot could stand as
        // the device's last word once the journal tail advances past both
        // transactions.
        for &b in frees {
            fs.bitmap().free(b)?;
        }
        journal.apply(fs.observed_device(), staged, || {
            fs.rewrite_bitmap_blocks(indices).map_err(|e| match e {
                FsError::Block(b) => stegfs_journal::JournalError::Device(b),
                other => stegfs_journal::JournalError::Device(stegfs_blockdev::BlockError::Io(
                    std::io::Error::other(other.to_string()),
                )),
            })
        })?;
        Ok(())
    }
}

/// Validate a staged write's geometry against the device, mirroring what an
/// immediate write would report.
fn check_staged_write<D: BlockDevice>(fs: &PlainFs<D>, block: u64, len: usize) -> FsResult<()> {
    let dev = fs.device();
    if block >= dev.total_blocks() {
        return Err(FsError::Block(stegfs_blockdev::BlockError::OutOfRange {
            block,
            total: dev.total_blocks(),
        }));
    }
    if len != dev.block_size() {
        return Err(FsError::Block(
            stegfs_blockdev::BlockError::BadBufferLength {
                got: len,
                expected: dev.block_size(),
            },
        ));
    }
    Ok(())
}

impl<D: BlockDevice> Drop for FsTxn<'_, D> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        // Roll back this operation's in-memory allocations; buffered writes
        // and deferred frees simply vanish.  Best effort: a rollback of a
        // block that was also deferred-freed (never happens in practice)
        // reports "already free" and is ignored.
        for &block in &self.allocated {
            let _ = self.fs.free_raw_block(block);
        }
    }
}
