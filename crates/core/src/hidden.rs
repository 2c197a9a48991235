//! The hidden-object engine: one I/O surface for the life cycle of a single
//! hidden object on top of the plain file system's bitmap and raw-block
//! interface.  Nothing here touches the central directory; the only trace a
//! hidden object leaves in shared metadata is its blocks being marked
//! allocated — just like abandoned blocks and dummy files.
//!
//! # The surface
//!
//! Everything goes through one borrowed context, [`ObjectIo`] — the volume
//! (`fs`, `params`), a read cache and the object's keys — with exactly one
//! method per operation: eight for I/O
//! ([`create`](ObjectIo::create), [`open`](ObjectIo::open),
//! [`read`](ObjectIo::read), [`read_range`](ObjectIo::read_range),
//! [`write`](ObjectIo::write), [`write_range`](ObjectIo::write_range),
//! [`write_at`](ObjectIo::write_at), [`resize`](ObjectIo::resize)) and
//! five for maintenance
//! ([`repair`](ObjectIo::repair), [`delete`](ObjectIo::delete),
//! [`destroy_unreadable`](ObjectIo::destroy_unreadable),
//! [`share_extents`](ObjectIo::share_extents),
//! [`owned_blocks`](ObjectIo::owned_blocks), whose blocks and
//! [`BlockRole`]s the block-owner map [`crate::blockmap`] claims).  There
//! is no cached variant of anything: **no cache** is a value of the
//! context, [`ReadCache::disabled`], not another function.  Every lookup
//! misses and every insert is a no-op, so each call walks the locator and
//! the chain on the device and decrypts what it reads.  The bytes written
//! are the same either way.
//!
//! A read never writes.  One served from fallback shares or metadata
//! replicas returns the same bytes and leaves the damage where it is; only
//! [`ObjectIo::repair`], driven by the keyed offline scavenger
//! ([`StegFs::scavenge_entry`](crate::StegFs::scavenge_entry)), rewrites
//! it.  Writes that follow reads would tell an inspector with repeated
//! snapshots where live hidden data sits.
//!
//! [`crate::StegFs`] builds the context in two places.  Its user-facing
//! reads and writes get the volume's cache.  The paths that must see the
//! device rather than a cached snapshot (repair, scavenge, rebuild-from-
//! shadow, the open that precedes a delete), and the ones that touch objects
//! no session reads back — shadow listings, format-time objects, both sides
//! of a re-key, the whole of a dummy refresh (its open and its rewrite) —
//! bypass it through
//! [`StegFs::object_io`](crate::StegFs::object_io), which is also what the
//! experiments and tests outside this crate use.  Listings are the one
//! namespace shape at both levels, a UAK directory or a hidden directory
//! behind a [`Parent`](crate::Parent): each is read and rewritten through
//! the cache, while the child a create builds bypasses it until it is
//! published.
//!
//! The whole-object mutators (`create`, `write`, `delete`,
//! `destroy_unreadable`) stage into the caller's [`FsTxn`] and never commit,
//! so a `StegFs` operation composes them into one transaction.  The
//! in-place ones (`write_range`, `write_at`, `resize`, `repair`) are each a
//! whole public call and commit their own, so a patch drops its rewritten
//! blocks from the cache only once they are durable.  Reads see what was
//! committed, never a transaction's staged writes.  The rng is taken per
//! call: block placement and scrub noise hang off the order the facade
//! forks it in.
//! `write`, `write_at` past the end and `resize` drop the old incarnation's
//! cache entry at once and install the new one when the transaction commits
//! (`ObjectIo::mutate`).
//!
//! Every mutator writes through one `WritePlan`: the blocks it writes, in
//! order, and their plaintext in one buffer that the encoders fill in place
//! — the shares, then the chain nodes, then each header replica.  At the end
//! of the mutation the plan is encrypted in one call and handed to the
//! transaction as one batch, followed by the frees it carries: on a
//! write-through volume one device submission per mutation, and nothing
//! written by a mutation that fails before it.
//!
//! # Free pool and durability policy
//!
//! The free-block-pool behaviour follows §3.1: a freshly created object
//! immediately claims `FB_max` random blocks; extension consumes pool blocks
//! (topping the pool back up when it drops below `FB_min`); truncation feeds
//! freed blocks back into the pool and only returns the excess beyond
//! `FB_max` to the file system.
//!
//! Objects carry a per-object durability [`Policy`], and every object is
//! *groups of `m` logical blocks stored as `n` cipher-shares*, any `m` of
//! which reconstruct the group (see [`crate::coding`]).  [`Policy::Plain`]
//! is the (1, 1) code: a group's one share is its plaintext block, and its
//! chain entries carry no share check, so its on-disk layout is the
//! paper's.  Each operation has one body over groups:
//!
//! * a **read** serves what it can from the plaintext cache and fetches the
//!   missing groups' primary shares, plus the readahead groups, in one
//!   batch; where the entries carry checks it verifies them and falls back
//!   through the other shares, then decodes;
//! * an **in-place patch** reads only the (at most two) groups it covers in
//!   part — the edge-only [`stegfs_fs::rmw`] plan at group granularity —
//!   re-encodes every group it touches and rewrites their shares; the chain
//!   nodes are rewritten only where their entries carry checks; once it
//!   has committed, the groups' new plaintext overwrites the blocks of
//!   theirs the cache holds;
//! * a **resize** drops or appends whole groups and re-encodes only the
//!   group a shrink cuts, so its cost follows the change, not the size.
//!
//! With `m = 1` a share *is* the plaintext: no byte goes through the IDA,
//! a span that misses whole, with nothing to read ahead, is read from the
//! device straight into its output, and a write copies each block once,
//! into its plan.  A coded read falls back through surviving shares on a
//! check mismatch, and [`ObjectIo::repair`] rewrites damaged shares from
//! the survivors.  On the raw device shares are indistinguishable from any
//! other hidden block.

use crate::coding::{self, GroupCodec, Policy, ShareCheck};
use crate::crypt::ObjectKeys;
use crate::error::{StegError, StegResult};
use crate::header::{HiddenHeader, InodeChainBlock, ObjectKind, NO_BLOCK};
use crate::locator::{candidate_sequence, locate_header, Located};
use crate::params::StegParams;
use crate::readcache::{BlockToken, ExtentList, ReadCache};
use crate::scratch::Scratch;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::prng::DeterministicRng;
use stegfs_fs::{FsError, FsTxn, PlainFs};
use stegfs_obs::span;

/// An open hidden object: its header block number and current header state.
#[derive(Debug, Clone)]
pub struct HiddenObject {
    /// Physical block holding the (encrypted) header.
    pub header_block: u64,
    /// Decrypted header contents.
    pub header: HiddenHeader,
    /// Number of locator probes it took to find the header (1 for a freshly
    /// created object, 0 when the read cache served it).
    pub probes: usize,
}

impl HiddenObject {
    /// Size in bytes of the object's contents.
    pub fn size(&self) -> u64 {
        self.header.size
    }

    /// File or directory.
    pub fn kind(&self) -> ObjectKind {
        self.header.kind
    }

    /// Every block holding a copy of the header, primary first.
    pub fn header_blocks(&self) -> &[u64] {
        &self.header.header_replicas
    }

    /// The object's metadata replica groups visible from its header: the
    /// header-replica set and the head inode-chain replica set.  Both are
    /// `n - m + 1` deep under a coded policy, so they tolerate the same
    /// `n - m` losses as a data group; the corruption experiments destroy
    /// replicas per group through this map.
    pub fn metadata_groups(&self) -> Vec<Vec<u64>> {
        let mut groups = vec![self.header_blocks().to_vec()];
        if self.header.inode_chain != NO_BLOCK {
            let mut chain = vec![self.header.inode_chain];
            chain.extend_from_slice(&self.header.chain_replicas);
            groups.push(chain);
        }
        groups
    }
}

/// What one of an object's blocks holds, as [`ObjectIo::owned_blocks`]
/// tells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockRole {
    /// A copy of the object's header.
    Header,
    /// An inode-chain node or one of its replicas.
    Chain,
    /// A data block, or one share of a coded group.
    Data,
    /// A block held in the object's free pool.
    Pool,
}

fn shorter_than_size() -> StegError {
    StegError::Fs(FsError::Corrupt(
        "hidden object shorter than its size field".into(),
    ))
}

/// `extents` with the shares of `groups` checked as `csums`: the same list
/// where the entries carry no checks.
fn with_checks<'e>(
    extents: &'e ExtentList,
    groups: &Range<usize>,
    csums: &[u64],
) -> Cow<'e, ExtentList> {
    if csums.is_empty() {
        return Cow::Borrowed(extents);
    }
    let n = extents.coding.1;
    let mut checked = extents.clone();
    checked.share_csums[groups.start * n..groups.end * n].copy_from_slice(csums);
    Cow::Owned(checked)
}

/// Block `i` of a buffer of concatenated `bs`-byte blocks.
fn nth_block(buf: &[u8], i: usize, bs: usize) -> &[u8] {
    &buf[i * bs..(i + 1) * bs]
}

/// One resolved node of a (possibly replicated) inode chain.
struct ChainNode {
    /// The node's replica blocks, primary first (the policy's
    /// [`Policy::meta_copies`] entries).
    blocks: Vec<u64>,
    /// Replicas found damaged at rest (checksum mismatch or parse failure).
    /// Live reads stop probing at the first good replica, so this only
    /// names the replicas examined *before* it; a verifying walk
    /// (`verify_all`) names every damaged replica.
    damaged: Vec<u64>,
    /// Parsed contents, from the first replica that validated.
    node: InodeChainBlock,
    /// The node's canonical plaintext, for rewriting damaged replicas
    /// byte-identically.
    plain: Scratch,
}

/// The extent list a chain walk of `obj` found: share blocks in group-major
/// order, every chain block (all replicas, node-major), and the per-share
/// checksums (empty where the entries carry none).
fn flatten(obj: &HiddenObject, nodes: &[ChainNode]) -> ExtentList {
    let mut extents = ExtentList {
        data_blocks: Vec::with_capacity(obj.header.data_block_count as usize),
        chain_blocks: Vec::new(),
        share_csums: Vec::new(),
        coding: obj.header.policy.shares(),
    };
    for node in nodes {
        extents.chain_blocks.extend_from_slice(&node.blocks);
        extents.data_blocks.extend_from_slice(&node.node.pointers);
        extents.share_csums.extend_from_slice(&node.node.csums);
    }
    extents
}

/// What a staged in-place patch leaves ([`ObjectIo::write_range`]).
struct Patched {
    /// The header the patch published, if any.
    published: Option<HiddenHeader>,
    /// The extent list as the patch leaves it: the one it was given when
    /// no entry changed.
    extents: Arc<ExtentList>,
    /// The cache keys of the blocks it rewrote.
    keys: Vec<u64>,
    /// Their new plaintext, slot for slot.
    plain: Scratch,
}

/// What one mutation writes: its blocks in write order, their plaintext
/// back to back in one [`Scratch`], and the blocks it frees.  The encoders
/// fill their slices of the buffer in place — shares, chain nodes, every
/// header replica — and [`Self::submit`] encrypts the whole of it in one
/// call, hands it to the transaction as one batch (on a write-through
/// volume, one device submission) and only then frees.  A mutation that
/// fails before its submission has therefore written nothing, and no block
/// it frees can be handed out while the header on the device still names
/// it.
struct WritePlan {
    blocks: Vec<u64>,
    buf: Scratch,
    frees: Vec<u64>,
    bs: usize,
}

impl WritePlan {
    /// An empty plan of `bs`-byte blocks with room for `blocks` of them.
    fn new(bs: usize, blocks: usize) -> Self {
        WritePlan {
            blocks: Vec::with_capacity(blocks),
            buf: Scratch::with_capacity(blocks * bs),
            frees: Vec::new(),
            bs,
        }
    }

    /// Make room for `blocks` more blocks: free while the plan is empty,
    /// a move of what it holds after that.
    fn reserve(&mut self, blocks: usize) {
        self.blocks.reserve(blocks);
        let (held, len) = (self.buf.len(), self.buf.len() + blocks * self.bs);
        if len > self.buf.as_vec_mut().capacity() {
            // Growing the buffer in place would free its allocation with
            // plaintext in it: move to a larger one, and the old one is
            // zeroed as it drops.
            let mut larger = Scratch::with_capacity(len.max(2 * held));
            larger.as_vec_mut().extend_from_slice(&self.buf);
            self.buf = larger;
        }
    }

    /// Append `blocks` and return their slice of the buffer, zero-filled.
    fn extend(&mut self, blocks: &[u64]) -> &mut [u8] {
        self.reserve(blocks.len());
        let at = self.buf.len();
        self.buf.as_vec_mut().resize(at + blocks.len() * self.bs, 0);
        self.blocks.extend_from_slice(blocks);
        &mut self.buf[at..]
    }

    /// Append `other`'s blocks and frees after this plan's.
    fn append(&mut self, other: WritePlan) {
        self.extend(&other.blocks).copy_from_slice(&other.buf);
        self.frees.extend_from_slice(&other.frees);
    }

    /// Append the serialised `header`, once per replica block.
    fn header(&mut self, header: &HiddenHeader) {
        let plain = header.serialize(self.bs);
        for replica in self
            .extend(&header.header_replicas)
            .chunks_exact_mut(plain.len())
        {
            replica.copy_from_slice(&plain);
        }
    }

    /// Return `block` to the volume once the plan is written.
    fn free(&mut self, block: u64) {
        self.frees.push(block);
    }

    /// Encrypt every block under `keys`, write them in `txn` as one batch,
    /// then free what the plan frees.
    fn submit<D: BlockDevice>(
        mut self,
        txn: &mut FsTxn<'_, D>,
        keys: &ObjectKeys,
    ) -> StegResult<()> {
        if !self.blocks.is_empty() {
            {
                let _s = span::span(span::Phase::Crypto);
                keys.encrypt_blocks(&self.blocks, &mut self.buf);
            }
            txn.write_raw_blocks(&self.blocks, &self.buf)?;
        }
        for &b in &self.frees {
            txn.free_block(b)?;
        }
        Ok(())
    }
}

/// A rewrite in progress: the caller's transaction, the plan the mutation
/// writes, the header the new incarnation will publish, and the blocks of
/// the old incarnation that have not been reused yet.
struct Rewrite<'r, 't, D: BlockDevice> {
    txn: &'r mut FsTxn<'t, D>,
    plan: &'r mut WritePlan,
    header: HiddenHeader,
    recycled: Vec<u64>,
}

impl<D: BlockDevice> Rewrite<'_, '_, D> {
    /// Take one block for new data: prefer the internal free pool (choosing
    /// a random member, per §3.1), then a fresh random block, and only under
    /// space pressure a block the current operation is recycling from the
    /// object's previous incarnation.
    ///
    /// Preferring fresh blocks keeps rewrites *churning the bitmap* —
    /// dummy-file maintenance depends on rewrites allocating new random
    /// blocks and freeing old ones, so snapshot differencing cannot
    /// attribute deltas to real data.  Recycled blocks stay marked allocated
    /// in the bitmap throughout (they are never freed mid-operation), so a
    /// failing rewrite can never leave the object's still-current header
    /// pointing at blocks another thread has been handed; on a nearly full
    /// volume they are consumed in place, which is what lets a rewrite or
    /// truncation succeed without double the footprint.  Blocks drawn fresh
    /// from the volume are tracked by the transaction, which returns them to
    /// the volume if the operation fails before committing (with the
    /// shared-reference API a concurrent writer can consume the space
    /// between our capacity check and the allocations).
    fn take_block(&mut self, rng: &mut DeterministicRng) -> StegResult<u64> {
        if !self.header.free_pool.is_empty() {
            let idx = rng.next_below(self.header.free_pool.len() as u64) as usize;
            return Ok(self.header.free_pool.swap_remove(idx));
        }
        match self.txn.allocate_random_block() {
            Ok(block) => Ok(block),
            Err(FsError::NoSpace) if !self.recycled.is_empty() => {
                Ok(self.recycled.pop().expect("checked non-empty"))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn take_blocks(&mut self, count: usize, rng: &mut DeterministicRng) -> StegResult<Vec<u64>> {
        let mut blocks = Vec::with_capacity(count);
        for _ in 0..count {
            blocks.push(self.take_block(rng)?);
        }
        Ok(blocks)
    }
}

/// Outcome of an offline [`ObjectIo::repair`] pass over one hidden object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Every share verified against its checksum, or the object is `Plain`
    /// and its chain carries no checks to verify against; nothing was
    /// written.
    Intact,
    /// Damage was found and reversed: the listed number of share blocks
    /// were reconstructed from surviving shares and rewritten in place.
    Repaired {
        /// Share blocks rebuilt and rewritten.
        shares_rebuilt: usize,
    },
    /// At least one group has fewer than `m` surviving shares.  The object
    /// is unrecoverable and **nothing was written** — repair fails closed
    /// rather than committing a partial reconstruction.
    Lost {
        /// Groups that cannot be reconstructed.
        groups_lost: usize,
    },
}

/// Everything one operation on one hidden object needs, borrowed: four
/// references built on the caller's stack (see the module docs for the
/// surface and for what leaving `cache` out means); the keys (`'k`) may
/// live shorter than the transaction the mutators stage into.
pub struct ObjectIo<'a, 'k, D: BlockDevice> {
    fs: &'a PlainFs<D>,
    params: &'a StegParams,
    cache: &'a ReadCache,
    keys: &'k ObjectKeys,
    /// The object's share check, expanded by the first call that checks a
    /// share or a replicated chain node.
    share_check: OnceCell<ShareCheck>,
}

impl<'a, 'k, D: BlockDevice> ObjectIo<'a, 'k, D> {
    /// A context for the object `keys` belongs to, on the volume `fs`
    /// formatted with `params`, served through `cache` (pass
    /// [`ReadCache::disabled`] for none).
    pub fn new(
        fs: &'a PlainFs<D>,
        params: &'a StegParams,
        cache: &'a ReadCache,
        keys: &'k ObjectKeys,
    ) -> Self {
        ObjectIo {
            fs,
            params,
            cache,
            keys,
            share_check: OnceCell::new(),
        }
    }

    /// The object's share check over this volume's blocks.
    fn share_check(&self) -> &ShareCheck {
        self.share_check
            .get_or_init(|| ShareCheck::new(self.keys, self.fs.block_size()))
    }

    /// The check new shares take under `policy`: none where the chain
    /// entries carry none.
    fn share_check_of(&self, policy: Policy) -> Option<&ShareCheck> {
        policy.is_coded().then(|| self.share_check())
    }

    /// Entries per inode-chain node under `policy`'s chain layout.
    fn chain_capacity(&self, policy: Policy) -> usize {
        let bs = self.fs.block_size();
        InodeChainBlock::capacity(bs, policy.is_coded(), policy.meta_copies()).max(1)
    }

    // ------------------------------------------------------------------
    // Block-level helpers
    // ------------------------------------------------------------------

    /// Read and decrypt one block.
    fn read_decrypted(&self, block: u64) -> StegResult<Scratch> {
        self.read_decrypted_many(&[block])
    }

    /// [`Self::read_decrypted_into`] a buffer of its own.
    fn read_decrypted_many(&self, blocks: &[u64]) -> StegResult<Scratch> {
        let mut buf = Scratch::take(blocks.len() * self.fs.block_size());
        self.read_decrypted_into(blocks, &mut buf)?;
        Ok(buf)
    }

    /// Read a whole extent list into `buf` in **one batched device
    /// submission**, then decrypt each block in place (the cipher is keyed
    /// per block number, so the crypto stays per-block while the I/O
    /// batches).
    fn read_decrypted_into(&self, blocks: &[u64], buf: &mut [u8]) -> StegResult<()> {
        self.fs.read_raw_blocks_into(blocks, buf)?;
        let _s = span::span(span::Phase::Crypto);
        self.keys.decrypt_blocks(blocks, buf);
        Ok(())
    }

    /// Fill `header`'s internal free pool to `FB_max` with fresh random
    /// blocks, as far as the volume has any.  The blocks are tracked by the
    /// transaction: until the header naming them commits they exist only in
    /// a local clone, so a failure returns them to the volume automatically.
    fn fill_pool(&self, txn: &mut FsTxn<'_, D>, header: &mut HiddenHeader) -> StegResult<()> {
        while header.free_pool.len() < self.params.free_blocks_max {
            match txn.allocate_random_block() {
                Ok(b) => header.free_pool.push(b),
                Err(FsError::NoSpace) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Chain resolution
    // ------------------------------------------------------------------

    /// The extent map of `obj`, from the cache when it still matches the
    /// caller's header, or from a chain walk (whose result is installed).
    /// Returns the token to read and install this object's plaintext
    /// blocks with.
    fn cached_chain(&self, obj: &HiddenObject) -> StegResult<(BlockToken, Arc<ExtentList>)> {
        let sig = self.keys.signature();
        if let Some(hit) =
            self.cache
                .lookup_extents(sig, obj.header.inode_chain, obj.header.data_block_count)
        {
            return Ok(hit);
        }
        let started = self.cache.begin();
        // Guard against cache poisoning: `obj` may be a *stale* snapshot (a
        // long-lived core-level handle whose object was since rewritten
        // through a name-based path).  Its chain walk must then serve only
        // this caller — installing it would hand the stale header to every
        // fresh open.  The header is trusted when the cached entry still
        // vouches for it; with no entry (first read, or invalidated since the
        // handle opened) the header block on disk is re-read and compared —
        // one extra block on a path that is about to walk the whole chain
        // anyway.
        let trusted = match self.cache.peek_header(sig) {
            Some((header_block, header)) => {
                header_block == obj.header_block && header == obj.header
            }
            None => self.cache.enabled() && self.header_matches_disk(obj)?,
        };
        let extents = Arc::new(self.read_chain(obj)?);
        let token = if trusted {
            let header = obj.header.clone();
            self.cache
                .store_extents(sig, started, obj.header_block, header, Arc::clone(&extents))
        } else {
            BlockToken::DEAD
        };
        Ok((token, extents))
    }

    /// True if the on-disk header block still decrypts and parses to exactly
    /// the header the caller holds.
    fn header_matches_disk(&self, obj: &HiddenObject) -> StegResult<bool> {
        let raw = self.read_decrypted(obj.header_block)?;
        let total = self.fs.superblock().total_blocks;
        let parsed = HiddenHeader::parse_if_match(&raw, self.keys.signature(), total);
        Ok(parsed.is_some_and(|h| h == obj.header))
    }

    /// Walk the inode chain, falling back through each node's replicas.
    /// With one metadata copy a damaged node is a hard error.  With
    /// `copies > 1` a node is served by its first replica whose plaintext
    /// checksum (recorded in the predecessor, or the header for the head)
    /// validates and parses; only a node with **zero** live replicas fails
    /// — closed, in the same deniable error family as lost data shares.
    fn walk_chain(&self, obj: &HiddenObject, verify_all: bool) -> StegResult<Vec<ChainNode>> {
        let total = self.fs.superblock().total_blocks;
        let coded = obj.header.policy.is_coded();
        let copies = obj.header.policy.meta_copies();
        let mut nodes: Vec<ChainNode> = Vec::new();
        if obj.header.inode_chain == NO_BLOCK {
            return Ok(nodes);
        }
        let mut candidates: Vec<u64> = std::iter::once(obj.header.inode_chain)
            .chain(obj.header.chain_replicas.iter().copied())
            .collect();
        let mut expected_csum = obj.header.chain_csum;
        loop {
            let node = if copies == 1 {
                let block = candidates[0];
                let plain = self.read_decrypted(block)?;
                ChainNode {
                    blocks: vec![block],
                    damaged: Vec::new(),
                    node: InodeChainBlock::deserialize(&plain, total, coded, 1)?,
                    plain,
                }
            } else {
                let mut damaged: Vec<u64> = Vec::new();
                let mut good: Option<(InodeChainBlock, Scratch)> = None;
                for &block in &candidates {
                    if good.is_some() && !verify_all {
                        break;
                    }
                    if block == NO_BLOCK || block >= total {
                        // An implausible replica pointer cannot be read (or
                        // repaired in place); skip it.
                        continue;
                    }
                    let buf = self.read_decrypted(block)?;
                    let live = self.share_check().one(&buf) == expected_csum;
                    if live {
                        match InodeChainBlock::deserialize(&buf, total, coded, copies) {
                            Ok(parsed) => {
                                if good.is_none() {
                                    good = Some((parsed, buf));
                                }
                            }
                            Err(_) => damaged.push(block),
                        }
                    } else {
                        damaged.push(block);
                    }
                }
                let Some((parsed, plain)) = good else {
                    return Err(coding::damage(format!(
                        "inode chain node has 0 live replicas of {copies}"
                    )));
                };
                ChainNode {
                    blocks: candidates
                        .iter()
                        .copied()
                        .filter(|&b| b != NO_BLOCK && b < total)
                        .collect(),
                    damaged,
                    node: parsed,
                    plain,
                }
            };
            let next = node.node.next;
            let next_candidates: Vec<u64> = std::iter::once(next)
                .chain(node.node.next_replicas.iter().copied())
                .collect();
            expected_csum = node.node.next_csum;
            nodes.push(node);
            if next == NO_BLOCK {
                return Ok(nodes);
            }
            if nodes.len() as u64 > total {
                return Err(StegError::Fs(FsError::Corrupt("inode chain loops".into())));
            }
            candidates = next_candidates;
        }
    }

    /// The extent list of `obj` as a (live, first-good-replica) chain walk
    /// finds it on the device.
    fn read_chain(&self, obj: &HiddenObject) -> StegResult<ExtentList> {
        Ok(flatten(obj, &self.walk_chain(obj, false)?))
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Decode `groups` of the object `extents` indexes into `out`: `m`
    /// plaintext blocks per group, in `groups` order.  Returns the blocks
    /// of the groups' primary shares (the first `m` of each), which are
    /// also their plaintext-cache keys.  No group costs nothing: no read,
    /// no codec and no share check.
    ///
    /// The primary shares of every group come up in one batched submission
    /// — as many blocks as the groups hold logical blocks.  Where the
    /// entries carry checks, a group whose primary shares do not all verify
    /// falls back through its other shares, in one more batch for every
    /// such group, instead of erroring; a group with fewer than `m` live
    /// shares fails closed, and the error carries no plaintext.
    ///
    /// With `m = 1` a live share *is* the plaintext, so the primaries are
    /// read straight into `out` and only a degraded group is rewritten
    /// there, with its first live fallback share.  Otherwise each group is
    /// reconstructed from slices of the batched buffers straight into its
    /// place in `out`.
    fn decode_groups(
        &self,
        extents: &ExtentList,
        groups: &[usize],
        out: &mut [u8],
    ) -> StegResult<Vec<u64>> {
        if groups.is_empty() {
            return Ok(Vec::new());
        }
        let (data_blocks, share_csums) = (&extents.data_blocks, &extents.share_csums);
        let bs = self.fs.block_size();
        let (m, n) = extents.coding;
        let checked = !share_csums.is_empty();
        if checked && share_csums.len() != data_blocks.len() {
            return Err(coding::damage(
                "coded chain does not pair every share with a checksum".into(),
            ));
        }
        let primary: Vec<u64> = groups
            .iter()
            .flat_map(|&g| data_blocks[g * n..g * n + m].iter().copied())
            .collect();
        debug_assert_eq!(out.len(), primary.len() * bs);
        let mut coded_buf = (m > 1).then(|| Scratch::take(out.len()));
        let primary_buf: &mut [u8] = match &mut coded_buf {
            Some(buf) => buf,
            None => &mut *out,
        };
        self.read_decrypted_into(&primary, primary_buf)?;
        let primary_csums = if checked {
            self.share_check().many(primary_buf, bs)
        } else {
            Vec::new()
        };
        let verified = |gi: usize, j: usize| {
            !checked || primary_csums[gi * m + j] == share_csums[groups[gi] * n + j]
        };
        let degraded: Vec<usize> = (0..groups.len())
            .filter(|&gi| !(0..m).all(|j| verified(gi, j)))
            .collect();
        if degraded.is_empty() && m == 1 {
            return Ok(primary);
        }
        let extra = n - m;
        let fallback: Vec<u64> = degraded
            .iter()
            .flat_map(|&gi| {
                let g = groups[gi];
                data_blocks[g * n + m..(g + 1) * n].iter().copied()
            })
            .collect();
        let fallback_buf = self.read_decrypted_many(&fallback)?;
        let fallback_csums = self.share_check().many(&fallback_buf, bs);
        // Fallback share `j` of the `di`-th degraded group.
        let fallback_at = |di: usize, j: usize| nth_block(&fallback_buf, di * extra + j - m, bs);
        let fallback_ok = |di: usize, j: usize| {
            fallback_csums[di * extra + j - m] == share_csums[groups[degraded[di]] * n + j]
        };
        let lost = |g: usize, live: usize| {
            coding::damage(format!(
                "share group {g} has {live} live shares, {m} required"
            ))
        };
        let mut rank = vec![None; groups.len()];
        for (di, &gi) in degraded.iter().enumerate() {
            rank[gi] = Some(di);
        }
        let mut codec = GroupCodec::new(m, n, bs);
        let mut good: Vec<(u8, &[u8])> = Vec::with_capacity(n);
        for (gi, (&g, plain)) in groups.iter().zip(out.chunks_exact_mut(m * bs)).enumerate() {
            good.clear();
            match &coded_buf {
                Some(primary_buf) => good.extend(
                    (0..m)
                        .filter(|&j| verified(gi, j))
                        .map(|j| ((j + 1) as u8, nth_block(primary_buf, gi * m + j, bs))),
                ),
                // With `m = 1` an intact group's plaintext is in place
                // already, and a degraded one's primary share is dead.
                None if rank[gi].is_none() => continue,
                None => {}
            }
            if let Some(di) = rank[gi] {
                good.extend(
                    (m..n)
                        .filter(|&j| fallback_ok(di, j))
                        .map(|j| ((j + 1) as u8, fallback_at(di, j))),
                );
            }
            if good.len() < m {
                return Err(lost(g, good.len()));
            }
            codec.reconstruct_group(&good, plain)?;
        }
        Ok(primary)
    }

    /// Plaintext of logical blocks `first..=last` of the object `extents`
    /// indexes.  What the plaintext cache holds under `token` is served
    /// from it; the groups of the rest are decoded from one batched fetch of
    /// their primary shares ([`Self::decode_groups`]), and every decoded
    /// block is installed under its key ([`ExtentList::block_keys`]).
    /// Readahead rides in the same fetch: the groups past `last`'s that
    /// hold the next `readahead_blocks` logical blocks, those not already
    /// resident, when the cache can keep them.
    fn read_span(
        &self,
        (token, extents): (BlockToken, Arc<ExtentList>),
        first: usize,
        last: usize,
        readahead_blocks: usize,
    ) -> StegResult<Scratch> {
        let cache = self.cache;
        let bs = self.fs.block_size();
        let m = extents.coding.0;
        let logical = extents.groups() * m;
        if last >= logical {
            return Err(shorter_than_size());
        }
        let keys = extents.block_keys(first..last + 1);
        let mut out = Scratch::with_capacity(keys.len() * bs);
        let missed = cache.get_blocks(token, &keys, bs, out.as_vec_mut());
        // The groups of the demand misses lead the fetch, ascending.
        let mut fetch: Vec<usize> = Vec::new();
        for &slot in &missed {
            let g = (first + slot) / m;
            if fetch.last() != Some(&g) {
                fetch.push(g);
            }
        }
        if cache.enabled() && readahead_blocks > 0 {
            let ra_end = (last + 1).saturating_add(readahead_blocks).min(logical);
            let ahead = last / m + 1..ra_end.div_ceil(m);
            let resident =
                cache.contains_blocks(token, &extents.block_keys(ahead.start * m..ahead.end * m));
            let missing = |g: usize| !resident[(g - ahead.start) * m..][..m].iter().all(|&r| r);
            fetch.extend(ahead.clone().filter(|&g| missing(g)));
        }
        if fetch.is_empty() {
            return Ok(out);
        }
        if missed.len() == keys.len() && fetch.len() * m == keys.len() {
            // The span missed whole and the fetch is exactly its groups:
            // they decode straight into the output.
            let fetched = self.decode_groups(&extents, &fetch, &mut out)?;
            cache.put_blocks(self.keys.signature(), token, &fetched, &out);
            return Ok(out);
        }
        let mut plain = Scratch::take(fetch.len() * m * bs);
        let fetched = self.decode_groups(&extents, &fetch, &mut plain)?;
        cache.put_blocks(self.keys.signature(), token, &fetched, &plain);
        let mut rank = 0;
        for &slot in &missed {
            let i = first + slot;
            while fetch[rank] != i / m {
                rank += 1;
            }
            let at = rank * m + i % m;
            out[slot * bs..(slot + 1) * bs].copy_from_slice(nth_block(&plain, at, bs));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Create / open / read
    // ------------------------------------------------------------------

    /// Create a new hidden object named `physical_name` in `txn` and write
    /// its initial (empty) header.
    ///
    /// The header lands at the first free block of the keyed candidate
    /// sequence; the internal free pool is immediately stocked with `FB_max`
    /// random blocks.  Dropping `txn` returns every block it claimed, so a
    /// header already written through sits on a free block: the locator
    /// skips it.  The durability `policy` travels in the encrypted header, so it costs
    /// nothing observable: a coded object's creation is indistinguishable
    /// from a plain one's.
    pub fn create(
        &self,
        txn: &mut FsTxn<'_, D>,
        physical_name: &str,
        kind: ObjectKind,
        policy: Policy,
    ) -> StegResult<HiddenObject> {
        policy.validate()?;
        let copies = policy.meta_copies();
        // Claiming a slot is a separate step from finding it, so two
        // creators racing down different candidate sequences may pick the
        // same free block.  The loser's atomic claim fails and it simply
        // probes on: the next walk skips the now-allocated block.  Policies
        // with redundancy claim the first `copies` free candidates of the
        // same keyed sequence — the extra header copies sit on blocks the
        // locator visits anyway, so retrieval falls through to a replica
        // when the primary is damaged and the on-disk image stays as uniform
        // as any other allocation.
        let sb = self.fs.superblock().clone();
        let mut locator = candidate_sequence(physical_name, self.keys, sb.total_blocks);
        let mut header_blocks = Vec::with_capacity(copies);
        for _ in 0..self.params.max_locator_probes.max(64) {
            if header_blocks.len() == copies {
                break;
            }
            let candidate = locator.next_candidate();
            if sb.in_data_region(candidate)
                && !self.fs.is_block_allocated(candidate)
                && txn.try_allocate_specific_block(candidate)?
            {
                header_blocks.push(candidate);
            }
        }
        if header_blocks.len() < copies {
            // The caller drops the transaction, which returns any partial
            // claims.
            return Err(StegError::NoSpace);
        }
        let header_block = header_blocks[0];

        let mut header = HiddenHeader::with_policy(*self.keys.signature(), kind, policy);
        header.header_replicas = header_blocks;
        // Stock the internal free pool (§3.1: "StegFS straightaway allocates
        // several blocks to the file").
        self.fill_pool(txn, &mut header)?;
        let mut plan = WritePlan::new(self.fs.block_size(), copies);
        plan.header(&header);
        plan.submit(txn, self.keys)?;
        Ok(HiddenObject {
            header_block,
            header,
            probes: 1,
        })
    }

    /// Open the existing hidden object `physical_name`.  A cache hit returns
    /// the decrypted header without touching the device (and reports
    /// `probes == 0`); a miss walks the keyed candidate sequence and installs
    /// what it found.  Misses — including wrong-key lookups — cost the same
    /// walk whether or not there is a cache, so deniability is untouched.
    ///
    /// A header found at a replica instead of its primary block means the
    /// primary was damaged (or claimed by someone who destroyed it) and
    /// redundancy absorbed the loss; [`Self::repair`] rewrites it.
    pub fn open(&self, physical_name: &str) -> StegResult<HiddenObject> {
        let sig = self.keys.signature();
        if let Some(hit) = self.cache.lookup_header(sig) {
            return Ok(HiddenObject {
                header_block: hit.header_block,
                header: hit.header,
                probes: 0,
            });
        }
        let started = self.cache.begin();
        let Located {
            block,
            header,
            probes,
        } = locate_header(
            self.fs,
            physical_name,
            self.keys,
            self.params.max_locator_probes,
        )?;
        if self.cache.enabled() {
            self.cache.store_header(sig, started, block, header.clone());
        }
        Ok(HiddenObject {
            header_block: block,
            header,
            probes,
        })
    }

    /// Read the full contents of a hidden object: one chain walk, then the
    /// whole extent list in one batched submission.  A warm object costs
    /// neither device reads nor decryption.
    pub fn read(&self, obj: &HiddenObject) -> StegResult<Vec<u8>> {
        let chain = self.cached_chain(obj)?;
        if obj.header.size == 0 {
            return Ok(Vec::new());
        }
        let bs = self.fs.block_size();
        let last = (obj.header.size as usize - 1) / bs;
        let plain = self.read_span(chain, 0, last, 0)?;
        Ok(plain.into_vec(obj.header.size as usize, bs))
    }

    /// Read `len` bytes starting at `offset` (clamped to the object size),
    /// with optional streaming readahead: up to `readahead_blocks` blocks
    /// past the requested range ride along in the same batched submission
    /// and land in the plaintext cache, so a sequential scan pays one device
    /// round-trip per readahead window instead of one per request.
    pub fn read_range(
        &self,
        obj: &HiddenObject,
        offset: u64,
        len: usize,
        readahead_blocks: usize,
    ) -> StegResult<Vec<u8>> {
        if len == 0 || offset >= obj.header.size {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(obj.header.size);
        let bs = self.fs.block_size() as u64;
        let chain = self.cached_chain(obj)?;
        let first = (offset / bs) as usize;
        let last = ((end - 1) / bs) as usize;
        let mut plain = self.read_span(chain, first, last, readahead_blocks)?;
        let from = (offset - first as u64 * bs) as usize;
        let to = (end - first as u64 * bs) as usize;
        if from > 0 {
            // Cut the span to the range in place; the hand-out zeroes what
            // is left past it.
            plain.copy_within(from..to, 0);
        }
        Ok(plain.into_vec(to - from, bs as usize))
    }

    // ------------------------------------------------------------------
    // Mutators
    // ------------------------------------------------------------------

    /// The one shape every mutator but a committed patch
    /// ([`write_range`](Self::write_range)) has: `run` resolves the old
    /// chain, stages the work in `txn`, updates `obj.header` and returns the
    /// extent list it left behind.  The old incarnation's cache entry (and
    /// its plaintext blocks) is dropped at once; the new header + extent
    /// list are installed when `txn` commits (invalidate-on-publish), so the
    /// next read *or* write of the object is warm.  A failed mutation or
    /// commit, or a dropped transaction, only invalidates.
    fn mutate(
        &self,
        txn: &mut FsTxn<'a, D>,
        obj: &mut HiddenObject,
        run: impl FnOnce(&mut FsTxn<'a, D>, &mut HiddenObject) -> StegResult<Arc<ExtentList>>,
    ) -> StegResult<()> {
        let outcome = run(txn, obj);
        let sig = *self.keys.signature();
        self.cache.invalidate(&sig);
        let extents = outcome?;
        let (cache, header_block, header) = (self.cache, obj.header_block, obj.header.clone());
        txn.on_commit(move || {
            let started = cache.begin();
            cache.store_extents(&sig, started, header_block, header, extents);
        });
        Ok(())
    }

    /// [`Self::mutate`] in a transaction of its own, committed before `obj`
    /// takes the new header.
    fn mutate_committed(
        &self,
        obj: &mut HiddenObject,
        run: impl FnOnce(&mut FsTxn<'a, D>, &mut HiddenObject) -> StegResult<Arc<ExtentList>>,
    ) -> StegResult<()> {
        let mut txn = self.fs.begin_txn();
        let mut next = obj.clone();
        self.mutate(&mut txn, &mut next, run)?;
        txn.commit()?;
        *obj = next;
        Ok(())
    }

    /// Replace the entire contents of a hidden object with `data`, in the
    /// caller's `txn`.
    ///
    /// This is the write path the experiments exercise (whole-file writes,
    /// as in the paper's workload).  Old data and chain blocks are recycled
    /// through the free pool; new blocks are drawn from the pool first and
    /// then from random free space.  The old incarnation's extent map — the
    /// chain walk every rewrite starts with — comes from the cache when
    /// warm, so a warm rewrite does **zero chain-walk I/O**.  `obj` takes
    /// the new header at once, committed or not.
    pub fn write(
        &self,
        txn: &mut FsTxn<'a, D>,
        obj: &mut HiddenObject,
        data: &[u8],
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        self.mutate(txn, obj, |txn, obj| {
            let (_, old) = self.cached_chain(obj)?;
            let needed = self.shares_of(obj.header.policy, data.len());
            self.ensure_capacity(&obj.header, needed as u64, &old)?;
            self.rewrite(txn, obj, data, rng, &old).map(Arc::new)
        })
    }

    /// Overwrite part of an existing hidden object in place.  The range must
    /// lie within the object's current size.  Only the (at most two)
    /// groups the range covers in part are read; every group it touches is
    /// re-encoded and its shares rewritten, in one transaction, so a crash
    /// never leaves a group whose shares disagree with its recorded checks
    /// (see `ObjectIo::patch`).  Takes `&mut` because under replicated
    /// metadata the patch refreshes the header's chain check.
    ///
    /// A committed patch keeps the object's cache entry and its generation
    /// — the key space its plaintext blocks are cached under — whatever the
    /// policy: the entry takes the committed extent list (resolved from the
    /// cache when warm) and the header if the patch published one, its
    /// insert fence moves, and the plaintext the patch encoded — every
    /// group it touched — overwrites the blocks it rewrote that are
    /// resident, once the transaction has committed
    /// ([`ReadCache::patched`]).  A rewritten block that was not resident
    /// stays absent, and the object's other cached blocks stay servable, so
    /// a read after a patch of a warm object touches no device.  A failed
    /// patch, or one whose object has no cache entry, goes through the
    /// invalidation every other mutator takes.
    pub fn write_range(&self, obj: &mut HiddenObject, offset: u64, data: &[u8]) -> StegResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let size = obj.header.size;
        offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= size)
            .ok_or(StegError::Fs(FsError::FileTooLarge {
                requested: offset.saturating_add(data.len() as u64),
                maximum: size,
            }))?;
        let patched = self.cached_chain(obj).and_then(|(token, extents)| {
            let mut txn = self.fs.begin_txn();
            let patch = self.patch(&mut txn, &obj.header, extents, offset, data)?;
            txn.commit()?;
            let kept = self.cache.patched(
                self.keys.signature(),
                token,
                patch.published.clone(),
                Arc::clone(&patch.extents),
                &patch.keys,
                &patch.plain,
            );
            Ok((kept, patch.published, patch.extents))
        });
        let adopt = |obj: &mut HiddenObject, published: Option<HiddenHeader>| {
            if let Some(header) = published {
                obj.header = header;
            }
        };
        match patched {
            Ok((true, published, _)) => {
                adopt(obj, published);
                Ok(())
            }
            // The patch committed on its own; this transaction stages
            // nothing and only carries the cache rule.
            outcome => self.mutate_committed(obj, |_, obj| {
                outcome.map(|(_, published, extents)| {
                    adopt(obj, published);
                    extents
                })
            }),
        }
    }

    /// Set the object's size to `new_len`, at group granularity.
    ///
    /// Unlike [`write`](Self::write), the cost is proportional to the
    /// *change* (plus the chain rebuild), not to the object's total size: a
    /// shrink recycles the groups past the new end through the free pool
    /// and re-encodes the group it cuts with zeros past the cut; a growth
    /// appends fresh zero-filled groups.  No other group is rewritten,
    /// which is what makes appending through the VFS O(append) instead of
    /// O(file).
    ///
    /// Invariant maintained (and relied on): within the last group, every
    /// byte beyond `size` is zero — [`write`](Self::write) pads with zeros
    /// and the shrink re-zeroes, so a later extension exposes zeros, never
    /// stale plaintext.
    pub fn resize(
        &self,
        obj: &mut HiddenObject,
        new_len: u64,
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        if new_len == obj.header.size {
            return Ok(());
        }
        self.mutate_committed(obj, |txn, obj| {
            let (_, old) = self.cached_chain(obj)?;
            let (resized, plan) = self.resize_groups(txn, obj, new_len, rng, &old, &[])?;
            plan.submit(txn, self.keys)?;
            Ok(Arc::new(resized))
        })
    }

    /// Write `data` at `offset`, growing the object to the end of the range
    /// (zero-filling any gap) when the range passes its current end; a range
    /// within the object is [`write_range`](Self::write_range).  Past the
    /// end it is a growth plus a patch, in one transaction, so a crash
    /// leaves the old size and bytes or the new ones: the bytes that land
    /// in groups the object already has patch them in place, and the rest
    /// ride in the appended groups, so the cost stays O(append) under every
    /// policy.
    pub fn write_at(
        &self,
        obj: &mut HiddenObject,
        offset: u64,
        data: &[u8],
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(StegError::NoSpace)?;
        if end <= obj.header.size {
            return self.write_range(obj, offset, data);
        }
        self.mutate_committed(obj, |txn, obj| {
            let (_, old) = self.cached_chain(obj)?;
            let bs = self.fs.block_size();
            let kept_end = (old.groups() * old.coding.0 * bs) as u64;
            let in_kept = (kept_end.saturating_sub(offset) as usize).min(data.len());
            // The kept part is encoded first, so the chain the growth builds
            // records its shares' new checks; its shares follow the
            // growth's blocks in the plan.
            let check = self.share_check_of(obj.header.policy);
            let mut kept = WritePlan::new(bs, 0);
            let grown_from = match in_kept {
                0 => Cow::Borrowed(&*old),
                _ => {
                    let patch = &data[..in_kept];
                    let (groups, csums, _) =
                        self.encode_patch(&mut kept, &old, offset, patch, check)?;
                    with_checks(&old, &groups, &csums)
                }
            };
            let (grown, mut plan) =
                self.resize_groups(txn, obj, end, rng, &grown_from, &data[in_kept..])?;
            plan.append(kept);
            plan.submit(txn, self.keys)?;
            Ok(Arc::new(grown))
        })
    }

    /// The in-place patch of `data` at `offset`, staged in `txn` against
    /// `extents`, the chain `header` names: the shares of every group the
    /// range touches ([`Self::encode_patch`]), then, where the entries
    /// carry checks, the chain nodes holding them and the header replicas
    /// ([`Self::rewrite_chain_nodes`]), in one plan.
    fn patch(
        &self,
        txn: &mut FsTxn<'_, D>,
        header: &HiddenHeader,
        extents: Arc<ExtentList>,
        offset: u64,
        data: &[u8],
    ) -> StegResult<Patched> {
        let (m, n) = extents.coding;
        let check = self.share_check_of(header.policy);
        // Room for the shares of every group the range can touch and, where
        // the entries carry checks, the whole chain and the header.
        let groups = data.len().div_ceil(m * self.fs.block_size()) + 1;
        let meta = match check {
            Some(_) => extents.chain_blocks.len() + header.header_replicas.len(),
            None => 0,
        };
        let mut plan = WritePlan::new(self.fs.block_size(), groups * n + meta);
        let (groups, csums, plain) = self.encode_patch(&mut plan, &extents, offset, data, check)?;
        let entries = groups.start * n..groups.end * n;
        let keys = extents
            .block_keys(groups.start * m..groups.end * m)
            .into_owned();
        let (published, extents) = match with_checks(&extents, &groups, &csums) {
            Cow::Borrowed(_) => (None, extents),
            Cow::Owned(checked) => {
                let published = self.rewrite_chain_nodes(&mut plan, header, &checked, entries);
                (published, Arc::new(checked))
            }
        };
        plan.submit(txn, self.keys)?;
        Ok(Patched {
            published,
            extents,
            keys,
            plain,
        })
    }

    /// Append to `plan` the new shares of the groups of `extents` that
    /// `data` at `offset` touches: decode the (at most two) groups the range
    /// covers in part — the edge-only [`stegfs_fs::rmw`] plan at group
    /// granularity, so an aligned patch reads no share at all — splice
    /// `data` over them and encode every group of the range straight into
    /// the plan.  A group damaged beyond tolerance therefore heals when a
    /// patch covers it completely, while a patch that needs any of its old
    /// bytes fails closed before anything is written.  Returns the groups,
    /// the shares' checks under `check`, and the groups' new plaintext in
    /// logical block order, the buffer the shares were encoded from.
    fn encode_patch(
        &self,
        plan: &mut WritePlan,
        extents: &ExtentList,
        offset: u64,
        data: &[u8],
        check: Option<&ShareCheck>,
    ) -> StegResult<(Range<usize>, Vec<u64>, Scratch)> {
        let bs = self.fs.block_size();
        let (m, n) = extents.coding;
        let group_bytes = m * bs;
        let end = offset + data.len() as u64;
        let g0 = (offset / group_bytes as u64) as usize;
        let g1 = ((end - 1) / group_bytes as u64) as usize;
        if g1 >= extents.groups() {
            return Err(shorter_than_size());
        }
        // The rmw plan's "blocks" are group indices: its edges are the
        // groups whose old plaintext the patch keeps part of.
        let groups: Vec<u64> = (g0 as u64..=g1 as u64).collect();
        let span_start = (g0 * group_bytes) as u64;
        let rmw = stegfs_fs::rmw::plan(&groups, offset, end, span_start, group_bytes);
        let edges: Vec<usize> = rmw.edges.iter().map(|&g| g as usize).collect();
        let mut edge_plain = Scratch::take(edges.len() * group_bytes);
        self.decode_groups(extents, &edges, &mut edge_plain)?;
        let mut plain = Scratch::take(groups.len() * group_bytes);
        rmw.seed_edges(&edge_plain, &mut plain, group_bytes);
        drop(edge_plain);
        let from = (offset - span_start) as usize;
        plain[from..from + data.len()].copy_from_slice(data);
        let shares = plan.extend(&extents.data_blocks[g0 * n..(g1 + 1) * n]);
        let csums = GroupCodec::new(m, n, bs).encode_groups(&plain, check, shares);
        Ok((g0..g1 + 1, csums, plain))
    }

    /// Append to `plan` the chain nodes of `extents` that hold `entries`,
    /// re-serialised as [`Self::build_chain`] lays them out.  Under
    /// replicated metadata a node's new plaintext changes the check its
    /// *predecessor* records, so the rewrite cascades back to the head and
    /// into the header's `chain_csum`, and the header is republished: the
    /// header returned, `None` where the metadata has one copy.
    fn rewrite_chain_nodes(
        &self,
        plan: &mut WritePlan,
        header: &HiddenHeader,
        extents: &ExtentList,
        entries: Range<usize>,
    ) -> Option<HiddenHeader> {
        let copies = header.policy.meta_copies();
        let cap = self.chain_capacity(header.policy);
        let last = (entries.end - 1) / cap;
        let first = if copies > 1 { 0 } else { entries.start / cap };
        let entries = (&extents.data_blocks[..], &extents.share_csums[..]);
        let chain = &extents.chain_blocks;
        let out = plan.extend(&chain[first * copies..(last + 1) * copies]);
        let head_csum = self.serialize_chain(header.policy, entries, chain, first..=last, out);
        if copies == 1 {
            return None;
        }
        let mut header = header.clone();
        header.chain_csum = head_csum;
        plan.header(&header);
        Some(header)
    }

    /// Make sure the volume can hold a new incarnation of `needed` data
    /// blocks plus its chain *before* recycling anything: refusing up front
    /// leaves the object untouched, whereas the old freed-then-checked order
    /// let a refused update return the object's own data blocks to the
    /// volume.  The blocks of the old incarnation count as available because
    /// they come back to us.
    fn ensure_capacity(
        &self,
        header: &HiddenHeader,
        needed: u64,
        old: &ExtentList,
    ) -> StegResult<()> {
        let copies = header.policy.meta_copies() as u64;
        let chain_needed = needed.div_ceil(self.chain_capacity(header.policy) as u64) * copies;
        let available = self.fs.free_data_blocks()
            + header.free_pool.len() as u64
            + old.data_blocks.len() as u64
            + old.chain_blocks.len() as u64;
        if available < needed + chain_needed {
            return Err(StegError::NoSpace);
        }
        Ok(())
    }

    /// The share blocks `len` bytes take under `policy`: `groups * n`,
    /// the zero tail padding the final group.
    fn shares_of(&self, policy: Policy, len: usize) -> usize {
        let (m, n) = policy.shares();
        len.div_ceil(m * self.fs.block_size()) * n
    }

    /// The rewrite core of [`write`](Self::write), against the
    /// already-resolved old incarnation `old`, once the volume has passed
    /// [`Self::ensure_capacity`] for it.  Returns the new incarnation's
    /// extent list on success (with `obj.header` updated).
    fn rewrite(
        &self,
        txn: &mut FsTxn<'_, D>,
        obj: &mut HiddenObject,
        data: &[u8],
        rng: &mut DeterministicRng,
        old: &ExtentList,
    ) -> StegResult<ExtentList> {
        let bs = self.fs.block_size();
        let policy = obj.header.policy;
        let (m, n) = policy.shares();
        let needed = self.shares_of(policy, data.len());

        // The old blocks are *recycled in place*: they stay allocated in the
        // bitmap and are consumed directly as new data/chain blocks, never
        // freed mid-operation.  The capacity check is advisory once
        // other writers run in parallel, so every fresh allocation is
        // tracked by the transaction, which hands it back if the operation
        // fails part-way.  On such a failure the object's previous header
        // stays current, every block it names is still allocated, and
        // nothing has been written: the plan is submitted only once the
        // whole incarnation is built.
        let mut plan = WritePlan::new(bs, needed + self.meta_blocks(policy, needed));
        let mut rw = Rewrite {
            header: obj.header.clone(),
            recycled: old
                .data_blocks
                .iter()
                .chain(&old.chain_blocks)
                .copied()
                .collect(),
            txn: &mut *txn,
            plan: &mut plan,
        };
        // Claim every data block first — every share gets its own
        // independently drawn block — then encode the shares into the plan.
        let data_blocks = rw.take_blocks(needed, rng)?;
        let check = self.share_check_of(policy);
        let shares = rw.plan.extend(&data_blocks);
        let csums = GroupCodec::new(m, n, bs).encode_groups(data, check, shares);
        let extents =
            self.publish_incarnation(rw, obj, data.len() as u64, data_blocks, csums, rng)?;
        plan.submit(txn, self.keys)?;
        Ok(extents)
    }

    /// The chain nodes (every replica) and header replicas an incarnation of
    /// `data_blocks` share blocks writes under `policy`.
    fn meta_blocks(&self, policy: Policy, data_blocks: usize) -> usize {
        let copies = policy.meta_copies();
        (data_blocks.div_ceil(self.chain_capacity(policy)) + 1) * copies
    }

    /// The shared tail of every rewrite: build the inode chain over
    /// `data_blocks` (paired with `csums` where the entries carry checks),
    /// settle the free pool, and append the header of the `size`-byte
    /// incarnation and the release of the old incarnation's surplus to the
    /// plan.
    fn publish_incarnation(
        &self,
        mut rw: Rewrite<'_, '_, D>,
        obj: &mut HiddenObject,
        size: u64,
        data_blocks: Vec<u64>,
        csums: Vec<u64>,
        rng: &mut DeterministicRng,
    ) -> StegResult<ExtentList> {
        // Chain blocks are allocated the same way as data blocks, from the
        // recycled blocks first under space pressure.
        let chain_blocks = self.build_chain(&mut rw, &data_blocks, &csums, rng)?;
        // Absorb surplus recycled blocks into the pool (a pure header-local
        // move — nothing is freed yet) and top the pool back up once it has
        // dropped below the lower bound (§3.1).
        while rw.header.free_pool.len() < self.params.free_blocks_max {
            match rw.recycled.pop() {
                Some(b) => rw.header.free_pool.push(b),
                None => break,
            }
        }
        if rw.header.free_pool.len() < self.params.free_blocks_min {
            self.fill_pool(rw.txn, &mut rw.header)?;
        }

        // Publish the new header and release the old incarnation's surplus.
        // The frees follow the plan's write and ride in the same
        // transaction (deferred to its commit on a journaled volume), so
        // the surplus returns to the volume only together with the header
        // that stops referencing it; a failure anywhere above drops the
        // transaction and leaves every block the old header names
        // allocated.
        rw.header.size = size;
        rw.header.data_block_count = data_blocks.len() as u64;
        rw.header.inode_chain = chain_blocks.first().copied().unwrap_or(NO_BLOCK);
        debug_assert!(
            rw.header.inode_chain == NO_BLOCK
                || rw.header.inode_chain < self.fs.superblock().total_blocks
        );
        rw.plan.header(&rw.header);
        for b in rw.recycled {
            rw.plan.free(b);
        }
        obj.header = rw.header;
        Ok(ExtentList {
            data_blocks,
            chain_blocks,
            share_csums: csums,
            coding: obj.header.policy.shares(),
        })
    }

    /// Serialise `data_blocks` (paired with `csums` where the entries carry
    /// checks) into a fresh inode chain in the plan, drawing chain blocks
    /// from the pool / free space; returns the chain blocks in walk order
    /// (empty for an empty object — the head is
    /// `first().copied().unwrap_or(NO_BLOCK)`).
    ///
    /// Under a redundant [`Policy`] every chain node is written to
    /// [`Policy::meta_copies`] independently located blocks (the returned
    /// list is node-major: node 0's primary and replicas, then node 1's, …),
    /// each carrying its successor's plaintext checksum; the head node's
    /// checksum lands in `header.chain_csum`, anchoring the whole chain to
    /// the header.
    fn build_chain(
        &self,
        rw: &mut Rewrite<'_, '_, D>,
        data_blocks: &[u64],
        csums: &[u64],
        rng: &mut DeterministicRng,
    ) -> StegResult<Vec<u64>> {
        let policy = rw.header.policy;
        let copies = policy.meta_copies();
        if data_blocks.is_empty() {
            rw.header.chain_replicas.clear();
            rw.header.chain_csum = 0;
            return Ok(Vec::new());
        }
        debug_assert_eq!(
            csums.len(),
            if policy.is_coded() {
                data_blocks.len()
            } else {
                0
            }
        );
        let nodes = data_blocks.len().div_ceil(self.chain_capacity(policy));
        let chain_blocks = rw.take_blocks(nodes * copies, rng)?;
        let entries = (data_blocks, csums);
        // Every replica of a node carries the identical plaintext.
        let out = rw.plan.extend(&chain_blocks);
        let head_csum = self.serialize_chain(policy, entries, &chain_blocks, 0..=nodes - 1, out);
        rw.header.chain_replicas = chain_blocks[1..copies].to_vec();
        rw.header.chain_csum = head_csum;
        Ok(chain_blocks)
    }

    /// Serialise nodes `nodes` of the chain that indexes the entries
    /// `(pointers, csums)` (`csums` empty where the entries carry no
    /// checks) from the blocks `chain` (node-major, one per replica) into
    /// `out`, each node repeated for its replicas, back to back: the image
    /// of `chain[nodes.start() * copies..]`.  Returns the check of the
    /// first node's plaintext, which its predecessor or the header records
    /// (0 with one metadata copy, where no node carries a check).  Node `i`
    /// holds entries `i * capacity ..`; with replicated metadata each node
    /// records its successor's check, so the nodes are serialised back to
    /// front from the tail.
    fn serialize_chain(
        &self,
        policy: Policy,
        (pointers, csums): (&[u64], &[u64]),
        chain: &[u64],
        nodes: RangeInclusive<usize>,
        out: &mut [u8],
    ) -> u64 {
        let bs = self.fs.block_size();
        let (coded, copies) = (policy.is_coded(), policy.meta_copies());
        let cap = self.chain_capacity(policy);
        let (first, last) = (*nodes.start(), *nodes.end());
        debug_assert_eq!(out.len(), (last + 1 - first) * copies * bs);
        // Past `last` a node only matters for the check it hands back.
        let tail = if copies > 1 {
            chain.len() / copies
        } else {
            last + 1
        };
        let mut succ_csum = 0u64;
        for i in (first..tail).rev() {
            let entries = i * cap..((i + 1) * cap).min(pointers.len());
            let succ = ((i + 1) * copies).min(chain.len());
            let node = InodeChainBlock {
                next: chain.get(succ).copied().unwrap_or(NO_BLOCK),
                next_replicas: (1..copies)
                    .map(|r| chain.get(succ + r).copied().unwrap_or(NO_BLOCK))
                    .collect(),
                next_csum: succ_csum,
                pointers: pointers[entries.clone()].to_vec(),
                csums: if coded {
                    csums[entries].to_vec()
                } else {
                    Vec::new()
                },
            };
            let node_plain = node.serialize(bs, coded, copies);
            if copies > 1 {
                succ_csum = self.share_check().one(&node_plain);
            }
            if i <= last {
                let at = (i - first) * copies * bs;
                for replica in out[at..at + copies * bs].chunks_exact_mut(bs) {
                    replica.copy_from_slice(&node_plain);
                }
            }
        }
        succ_csum
    }

    /// The core of [`resize`](Self::resize) and of a growing
    /// [`write_at`](Self::write_at), against the already-resolved old
    /// incarnation: whole groups go or come, and every other group stays
    /// where it is, unread.  A shrink recycles the groups past the new end
    /// and re-encodes the group it cuts with zeros past the cut; a growth
    /// appends fresh groups, zero-filled but for `tail`, which lands as the
    /// last bytes of the new size (it must lie within the appended groups;
    /// empty for a shrink).  The chain is rebuilt.  Returns the new
    /// incarnation's extent list on success.
    fn resize_groups(
        &self,
        txn: &mut FsTxn<'_, D>,
        obj: &mut HiddenObject,
        new_len: u64,
        rng: &mut DeterministicRng,
        old: &ExtentList,
        tail: &[u8],
    ) -> StegResult<(ExtentList, WritePlan)> {
        let bs = self.fs.block_size();
        let (m, n) = old.coding;
        let group_bytes = (m * bs) as u64;
        let groups = new_len.div_ceil(group_bytes);
        let policy = obj.header.policy;
        let check = self.share_check_of(policy);
        let mut data_blocks = old.data_blocks.clone();
        let mut csums = old.share_csums.clone();
        // As in [`write`](Self::write): surplus blocks are recycled in place
        // (still allocated, consumed before fresh space, released only with
        // the commit), so a mid-operation failure never frees blocks the
        // still-current header references, and the transaction returns fresh
        // allocations to the volume on failure.
        let mut plan = WritePlan::new(bs, 0);
        let mut rw = Rewrite {
            header: obj.header.clone(),
            recycled: old.chain_blocks.clone(),
            txn,
            plan: &mut plan,
        };
        // The share blocks to write, and the plaintext of their groups.
        let (blocks, plain) = if new_len < obj.header.size {
            debug_assert!(tail.is_empty(), "a shrink writes no tail");
            let kept = groups as usize;
            rw.recycled.extend(data_blocks.drain(kept * n..));
            csums.truncate(data_blocks.len());
            // Re-encode the cut group with zeros past the cut, so the
            // truncated bytes cannot resurface on a later extension.
            match (new_len % group_bytes) as usize {
                0 => (Vec::new(), Scratch::take(0)),
                cut => {
                    let g = kept - 1;
                    let mut plain = Scratch::take(m * bs);
                    self.decode_groups(old, &[g], &mut plain)?;
                    plain[cut..].fill(0);
                    csums.truncate(g * n);
                    (data_blocks[g * n..].to_vec(), plain)
                }
            }
        } else {
            self.ensure_capacity(&rw.header, groups.saturating_mul(n as u64), old)?;
            // Claim the new groups' shares.
            let have = old.groups() as u64;
            let added = groups.saturating_sub(have) as usize;
            let grown = rw.take_blocks(added * n, rng)?;
            let mut plain = Scratch::take(added * m * bs);
            if !tail.is_empty() {
                let at = new_len - tail.len() as u64 - have * group_bytes;
                plain[at as usize..][..tail.len()].copy_from_slice(tail);
            }
            data_blocks.extend_from_slice(&grown);
            (grown, plain)
        };
        rw.plan
            .reserve(blocks.len() + self.meta_blocks(policy, data_blocks.len()));
        let shares = rw.plan.extend(&blocks);
        csums.extend(GroupCodec::new(m, n, bs).encode_groups(&plain, check, shares));
        // The chain is rebuilt from the recycled blocks first; the surplus
        // returns to the volume with the commit that publishes the header
        // which stops referencing it.
        let resized = self.publish_incarnation(rw, obj, new_len, data_blocks, csums, rng)?;
        Ok((resized, plan))
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Verify every share of an object against its recorded checksum and
    /// rewrite the damaged ones from the survivors.
    ///
    /// Splitting is deterministic and the per-block cipher is keyed by block
    /// number, so a rebuilt share re-encrypts to the byte-identical
    /// ciphertext the volume originally held — a repaired image is
    /// indistinguishable from one that was never damaged.  The same holds
    /// for replicated metadata: every header and chain replica is verified
    /// against the surviving copy's plaintext and damaged replicas are
    /// rewritten byte-identically (their count folds into `shares_rebuilt`).
    /// A `Plain` object, whose chain entries carry no checks, has nothing
    /// to verify against: it reports [`RepairOutcome::Intact`] without
    /// reading anything.  A coded object without redundancy (`n == m`)
    /// still has every share verified, and reports a damaged one as
    /// [`RepairOutcome::Lost`].  All rewrites
    /// ride in one transaction; an unrecoverable object writes nothing at
    /// all.
    ///
    /// Repair reads the device, never the cache, and leaves the cache alone:
    /// the caller invalidates when plaintext decoded from the damaged shares
    /// may be resident.
    pub fn repair(&self, obj: &HiddenObject) -> StegResult<RepairOutcome> {
        // Entries without checks leave nothing to verify a share against.
        if !obj.header.policy.is_coded() {
            return Ok(RepairOutcome::Intact);
        }
        let (m, n) = obj.header.policy.shares();
        let bs = self.fs.block_size();

        // Metadata sweep first: a full chain walk that visits *every*
        // replica (not just the first live one) and records the rotten
        // ones.  An unreadable chain fails closed here, before anything is
        // written.
        let nodes = self.walk_chain(obj, true)?;
        let ExtentList {
            data_blocks,
            share_csums,
            ..
        } = flatten(obj, &nodes);
        let mut meta_rewrites: Vec<(u64, &[u8])> = Vec::new();
        for nd in &nodes {
            for &b in &nd.damaged {
                meta_rewrites.push((b, &nd.plain));
            }
        }
        // Header replicas: intact iff the replica decrypts to exactly the
        // bytes the surviving header serialises to (serialisation is
        // canonical, so the comparison is byte-for-byte).
        let expected = obj.header.serialize(bs);
        for &b in &obj.header.header_replicas {
            if self.read_decrypted(b)?[..] != expected[..] {
                meta_rewrites.push((b, &expected));
            }
        }

        if data_blocks.is_empty() && meta_rewrites.is_empty() {
            return Ok(RepairOutcome::Intact);
        }
        if data_blocks.len() != share_csums.len() || !data_blocks.len().is_multiple_of(n) {
            return Err(coding::damage(
                "coded chain does not pair every share with a checksum".into(),
            ));
        }
        let buf = self.read_decrypted_many(&data_blocks)?;
        let csums = self.share_check().many(&buf, bs);
        let groups = data_blocks.len() / n;
        // Per group, the verified shares (borrowed from the batched read)
        // and the 0-based numbers of the damaged ones.
        let mut good: Vec<Vec<(u8, &[u8])>> = vec![Vec::new(); groups];
        let mut bad: Vec<Vec<usize>> = vec![Vec::new(); groups];
        for g in 0..groups {
            for j in 0..n {
                let idx = g * n + j;
                let share = nth_block(&buf, idx, bs);
                if csums[idx] == share_csums[idx] {
                    good[g].push(((j + 1) as u8, share));
                } else {
                    bad[g].push(j);
                }
            }
        }
        let groups_lost = good.iter().filter(|g| g.len() < m).count();
        let shares_rebuilt: usize =
            bad.iter().map(|b| b.len()).sum::<usize>() + meta_rewrites.len();
        if groups_lost > 0 {
            return Ok(RepairOutcome::Lost { groups_lost });
        }
        if shares_rebuilt == 0 {
            return Ok(RepairOutcome::Intact);
        }
        let mut plan = WritePlan::new(bs, shares_rebuilt);
        for &(b, plain) in &meta_rewrites {
            plan.extend(&[b]).copy_from_slice(plain);
        }
        let mut codec = GroupCodec::new(m, n, bs);
        let mut plain = Scratch::take(m * bs);
        let mut shares = Scratch::take(n * bs);
        for g in (0..groups).filter(|&g| !bad[g].is_empty()) {
            codec.reconstruct_group(&good[g], &mut plain)?;
            codec.split_group(&plain, &mut shares);
            for &j in &bad[g] {
                let share = nth_block(&shares, j, bs);
                plan.extend(&[data_blocks[g * n + j]])
                    .copy_from_slice(share);
            }
        }
        let mut txn = self.fs.begin_txn();
        plan.submit(&mut txn, self.keys)?;
        txn.commit()?;
        Ok(RepairOutcome::Repaired { shares_rebuilt })
    }

    /// Delete a hidden object in `txn`: the header blocks are scrubbed so
    /// the signature cannot be found again, and then every block the object
    /// holds (data, chain, pool, header) is returned to the file system.  A
    /// delete that fails on its chain walk has staged nothing.
    pub fn delete(
        &self,
        txn: &mut FsTxn<'_, D>,
        obj: &HiddenObject,
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        let chain = self.read_chain(obj)?;
        self.destroy_unreadable(txn, obj, rng)?;
        for b in chain.data_blocks.into_iter().chain(chain.chain_blocks) {
            txn.free_block(b)?;
        }
        Ok(())
    }

    /// Tear down what the header itself names, in `txn`: overwrite every
    /// header replica with fresh pseudorandom fill so no stale signature
    /// survives, then free the pool and the replicas.  On its own, the
    /// last resort for an object whose chain cannot be walked (the scavenger
    /// re-creating a lost directory): the unreachable chain/data blocks stay
    /// allocated, a bounded leak rather than freeing unproven blocks.
    pub fn destroy_unreadable(
        &self,
        txn: &mut FsTxn<'_, D>,
        obj: &HiddenObject,
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        // Fill is not plaintext: the replicas take it unencrypted, in one
        // batch, before a block the header names goes back to the volume
        // (on a write-through volume a free is handed out at once).
        let noise: Vec<u8> = obj
            .header_blocks()
            .iter()
            .flat_map(|_| rng.bytes(self.fs.block_size()))
            .collect();
        txn.write_raw_blocks(obj.header_blocks(), &noise)?;
        for &b in obj.header.free_pool.iter().chain(obj.header_blocks()) {
            txn.free_block(b)?;
        }
        Ok(())
    }

    /// The object's data blocks chunked per coding group: `n` share blocks
    /// per group (plain objects report each block as its own single-entry
    /// group).  The corruption experiments and the survival smoke use this
    /// map to destroy a chosen number of shares per group.
    pub fn share_extents(&self, obj: &HiddenObject) -> StegResult<Vec<Vec<u64>>> {
        let (_, n) = obj.header.policy.shares();
        let data_blocks = self.read_chain(obj)?.data_blocks;
        Ok(data_blocks.chunks(n.max(1)).map(|c| c.to_vec()).collect())
    }

    /// Every block the object owns, with what it holds there: header
    /// replicas, chain nodes, data blocks (shares, under a coded policy)
    /// and its free pool, in that order.  Nothing is deduplicated: a block
    /// listed twice is owned twice, which the block-owner map
    /// ([`crate::blockmap`]) reports.
    pub fn owned_blocks(&self, obj: &HiddenObject) -> StegResult<Vec<(u64, BlockRole)>> {
        let chain = self.read_chain(obj)?;
        let tagged = |blocks: Vec<u64>, role| blocks.into_iter().map(move |b| (b, role));
        Ok(tagged(obj.header_blocks().to_vec(), BlockRole::Header)
            .chain(tagged(chain.chain_blocks, BlockRole::Chain))
            .chain(tagged(chain.data_blocks, BlockRole::Data))
            .chain(tagged(obj.header.free_pool.clone(), BlockRole::Pool))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch;
    use std::sync::atomic::Ordering;
    use stegfs_blockdev::{Dir, FaultDevice, MemBlockDevice, ObservedDevice, Trigger};
    use stegfs_fs::{FormatOptions, PlainFs};

    /// The cache-bypassing context of the object under `keys`.
    fn bypass<'a>(
        fs: &'a PlainFs<MemBlockDevice>,
        keys: &'a ObjectKeys,
        params: &'a StegParams,
    ) -> ObjectIo<'a, 'a, MemBlockDevice> {
        ObjectIo::new(fs, params, ReadCache::disabled(), keys)
    }

    /// [`ObjectIo::create`] as a committed transaction of its own.
    fn create<D: BlockDevice>(
        io: &ObjectIo<'_, '_, D>,
        name: &str,
        kind: ObjectKind,
        policy: Policy,
    ) -> StegResult<HiddenObject> {
        let mut txn = io.fs.begin_txn();
        let obj = io.create(&mut txn, name, kind, policy)?;
        txn.commit()?;
        Ok(obj)
    }

    /// [`ObjectIo::write`] as a committed transaction of its own.
    fn write<D: BlockDevice>(
        io: &ObjectIo<'_, '_, D>,
        obj: &mut HiddenObject,
        data: &[u8],
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        let mut txn = io.fs.begin_txn();
        io.write(&mut txn, obj, data, rng)?;
        Ok(txn.commit()?)
    }

    /// [`ObjectIo::delete`] as a committed transaction of its own.
    fn delete<D: BlockDevice>(
        io: &ObjectIo<'_, '_, D>,
        obj: &HiddenObject,
        rng: &mut DeterministicRng,
    ) -> StegResult<()> {
        let mut txn = io.fs.begin_txn();
        io.delete(&mut txn, obj, rng)?;
        Ok(txn.commit()?)
    }

    fn fixture() -> (
        PlainFs<MemBlockDevice>,
        ObjectKeys,
        StegParams,
        DeterministicRng,
    ) {
        let fs =
            PlainFs::format(MemBlockDevice::new(1024, 8192), FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("u1:/secret/budget.xls", b"file access key");
        let params = StegParams::for_tests();
        let rng = DeterministicRng::new(b"hidden-tests");
        (fs, keys, params, rng)
    }

    #[test]
    fn create_open_roundtrip() {
        let (fs, keys, params, _) = fixture();
        let io = bypass(&fs, &keys, &params);
        let created = create(
            &io,
            "u1:/secret/budget.xls",
            ObjectKind::File,
            Policy::Plain,
        )
        .unwrap();
        assert_eq!(created.header.free_pool.len(), params.free_blocks_max);
        let opened = io.open("u1:/secret/budget.xls").unwrap();
        assert_eq!(opened.header_block, created.header_block);
        assert_eq!(opened.header, created.header);
        assert_eq!(opened.kind(), ObjectKind::File);
        assert_eq!(opened.size(), 0);
    }

    #[test]
    fn empty_object_reads_empty() {
        let (fs, keys, params, _) = fixture();
        let io = bypass(&fs, &keys, &params);
        let obj = create(&io, "n", ObjectKind::File, Policy::Plain).unwrap();
        assert_eq!(io.read(&obj).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_read_roundtrip_small() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "n", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, b"hello hidden world", &mut rng).unwrap();
        assert_eq!(obj.size(), 18);
        assert_eq!(io.read(&obj).unwrap(), b"hello hidden world");
        // And through a fresh open.
        let reopened = io.open("n").unwrap();
        assert_eq!(io.read(&reopened).unwrap(), b"hello hidden world");
    }

    #[test]
    fn write_read_roundtrip_multi_chain() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "big", ObjectKind::File, Policy::Plain).unwrap();
        // 400 KB needs 400 data blocks -> 4 chain blocks at 1 KB block size.
        let data: Vec<u8> = (0..400 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        assert_eq!(io.read(&obj).unwrap(), data);
        assert_eq!(obj.header.data_block_count, 400);
    }

    #[test]
    fn read_range_matches_full_read() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "r", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        assert_eq!(io.read_range(&obj, 0, 100, 0).unwrap(), &data[..100]);
        assert_eq!(io.read_range(&obj, 1020, 10, 0).unwrap(), &data[1020..1030]);
        assert_eq!(io.read_range(&obj, 9_990, 100, 0).unwrap(), &data[9_990..]);
        assert!(io.read_range(&obj, 20_000, 5, 0).unwrap().is_empty());
        // Zero-length reads are empty, not an underflow (offset 0 included).
        assert!(io.read_range(&obj, 0, 0, 0).unwrap().is_empty());
        assert!(io.read_range(&obj, 1024, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn write_range_patches_in_place() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "patch", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let free_before = fs.free_data_blocks();

        io.write_range(&mut obj, 1000, &[0xaa; 200]).unwrap();
        let mut expected = data.clone();
        expected[1000..1200].copy_from_slice(&[0xaa; 200]);
        assert_eq!(io.read(&obj).unwrap(), expected);
        assert_eq!(fs.free_data_blocks(), free_before, "no allocation");
        // Past-EOF patches rejected, empty patches allowed.
        assert!(io.write_range(&mut obj, 4990, &[0u8; 20]).is_err());
        io.write_range(&mut obj, 0, &[]).unwrap();
    }

    /// A volume on a device that counts its traffic, an object key set,
    /// the test parameters and a seeded rng.
    fn counted_fixture() -> (
        PlainFs<ObservedDevice<MemBlockDevice>>,
        ObjectKeys,
        StegParams,
        DeterministicRng,
    ) {
        let dev = ObservedDevice::counting(MemBlockDevice::new(1024, 8192));
        let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("u1:/secret/budget.xls", b"file access key");
        let rng = DeterministicRng::new(b"hidden-tests");
        (fs, keys, StegParams::for_tests(), rng)
    }

    #[test]
    fn a_patch_updates_the_cached_blocks_it_rewrote() {
        for policy in [Policy::Plain, Policy::Disperse { m: 2, n: 3 }] {
            let (fs, keys, params, mut rng) = counted_fixture();
            let cache = ReadCache::new(4096);
            let io = ObjectIo::new(&fs, &params, &cache, &keys);
            let mut obj = create(&io, "warm", ObjectKind::File, policy).unwrap();
            let mut data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
            write(&io, &mut obj, &data, &mut rng).unwrap();
            assert_eq!(io.read(&obj).unwrap(), data);
            let blocks_read = || fs.device().stats().blocks_read.load(Ordering::Relaxed);
            // Each patch, then one whole read: 16 KiB aligned, then a
            // 100-byte patch inside one block.  The blocks the patch
            // rewrote hold its plaintext, so the read is all hits and
            // touches no device.
            for (at, len) in [(8 * 1024, 16 * 1024), (40_000, 100)] {
                let patch = vec![at as u8 ^ 0x5a; len];
                io.write_range(&mut obj, at as u64, &patch).unwrap();
                data[at..at + len].copy_from_slice(&patch);
                let (before, read_before) = (cache.stats(), blocks_read());
                assert_eq!(io.read(&obj).unwrap(), data, "{policy:?}");
                let after = cache.stats();
                let hits = after.block_hits - before.block_hits;
                let misses = after.block_misses - before.block_misses;
                assert_eq!((hits, misses), (64, 0), "{policy:?}");
                assert_eq!(blocks_read(), read_before, "{policy:?} read the device");
                assert_eq!(after.extent_misses, before.extent_misses, "entry kept");
                assert_eq!(after.resident_blocks, 64, "{policy:?}");
            }
        }
    }

    /// Every block of `fs`'s device, back to back.
    fn raw_image<D: BlockDevice>(fs: &PlainFs<D>) -> Vec<u8> {
        (0..fs.device().total_blocks())
            .flat_map(|b| fs.device().read_block_vec(b).unwrap())
            .collect()
    }

    /// A write-through rewrite that runs out of space building its chain
    /// has written nothing, so the old incarnation still reads back.  The
    /// capacity check ([`ObjectIo::write`] runs it before `rewrite`) has
    /// passed, and then a concurrent writer took the free space, as it may
    /// between the check and the allocations: the test leaves exactly the
    /// blocks the new shares take, so the shares take every block the old
    /// incarnation recycles and the chain finds none.
    #[test]
    fn a_rewrite_out_of_space_in_build_chain_leaves_the_image_unchanged() {
        for policy in [Policy::Plain, Policy::Disperse { m: 2, n: 3 }] {
            let (fs, keys, params, mut rng) = fixture();
            let io = bypass(&fs, &keys, &params);
            let mut obj = create(&io, "full", ObjectKind::File, policy).unwrap();
            let before: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 253) as u8).collect();
            write(&io, &mut obj, &before, &mut rng).unwrap();
            let old = io.read_chain(&obj).unwrap();
            let (m, n) = policy.shares();
            let reusable =
                obj.header.free_pool.len() + old.data_blocks.len() + old.chain_blocks.len();
            let groups = reusable / n + 1;
            let needed = groups * n;
            while fs.free_data_blocks() > (needed - reusable) as u64 {
                fs.allocate_random_block().unwrap();
            }
            let image = raw_image(&fs);
            let mut txn = fs.begin_txn();
            let mut next = obj.clone();
            let data = vec![0x5a; groups * m * fs.block_size()];
            let err = io
                .rewrite(&mut txn, &mut next, &data, &mut rng, &old)
                .unwrap_err();
            assert!(matches!(err, StegError::NoSpace), "{policy:?}: {err}");
            drop(txn);
            assert!(raw_image(&fs) == image, "{policy:?}: the image moved");
            assert_eq!(io.read(&obj).unwrap(), before, "{policy:?}");
        }
    }

    #[test]
    fn a_patch_of_an_object_with_nothing_resident_caches_nothing() {
        for policy in [Policy::Plain, Policy::Disperse { m: 2, n: 3 }] {
            let (fs, keys, params, mut rng) = fixture();
            let cache = ReadCache::new(4096);
            let io = ObjectIo::new(&fs, &params, &cache, &keys);
            let mut obj = create(&io, "cold", ObjectKind::File, policy).unwrap();
            let mut data = vec![0x3c; 64 * 1024];
            write(&io, &mut obj, &data, &mut rng).unwrap();
            // The write left the entry and its extent list, and no block.
            assert_eq!(cache.stats().resident_blocks, 0);
            io.write_range(&mut obj, 8 * 1024, &[0xc3; 16 * 1024])
                .unwrap();
            data[8 * 1024..24 * 1024].fill(0xc3);
            let before = cache.stats();
            assert_eq!(before.resident_blocks, 0, "{policy:?}: no write-allocate");
            // The patch kept the entry: the read after it misses every
            // block, and nothing else.
            assert_eq!(io.read(&obj).unwrap(), data);
            let after = cache.stats();
            assert_eq!(after.block_misses - before.block_misses, 64);
            assert_eq!(after.extent_misses, before.extent_misses, "entry kept");
        }
    }

    #[test]
    fn rewrite_replaces_contents_without_leaking_blocks() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "w", ObjectKind::File, Policy::Plain).unwrap();
        let free_before = fs.free_data_blocks();

        write(&io, &mut obj, &vec![1u8; 100 * 1024], &mut rng).unwrap();
        write(&io, &mut obj, &vec![2u8; 50 * 1024], &mut rng).unwrap();
        write(&io, &mut obj, b"tiny", &mut rng).unwrap();
        assert_eq!(io.read(&obj).unwrap(), b"tiny");

        // Blocks used now: header + <=1 data + <=1 chain + pool (bounded by
        // FB_max).  Everything else must have been returned to the volume.
        // header + 1 data block + 1 chain block + pool (bounded by FB_max).
        let used_now = free_before - fs.free_data_blocks();
        assert!(
            used_now <= 3 + params.free_blocks_max as u64,
            "object retains {used_now} blocks"
        );
    }

    #[test]
    fn free_pool_absorbs_truncation_up_to_fb_max() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "p", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![7u8; 3 * 1024], &mut rng).unwrap();
        // Shrink to zero: the freed blocks flow into the pool, capped at FB_max.
        write(&io, &mut obj, b"", &mut rng).unwrap();
        assert!(obj.header.free_pool.len() <= params.free_blocks_max);
        assert!(!obj.header.free_pool.is_empty());
        assert_eq!(obj.header.data_block_count, 0);
        assert_eq!(obj.header.inode_chain, NO_BLOCK);
    }

    #[test]
    fn pool_topped_up_when_below_minimum() {
        let (fs, keys, mut params, mut rng) = fixture();
        params.free_blocks_min = 3;
        params.free_blocks_max = 4;
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "t", ObjectKind::File, Policy::Plain).unwrap();
        assert_eq!(obj.header.free_pool.len(), 4);
        // Writing 6 blocks of data consumes the whole pool (4) and more, so
        // afterwards the pool must be topped back up to FB_max.
        write(&io, &mut obj, &vec![1u8; 6 * 1024], &mut rng).unwrap();
        assert_eq!(obj.header.free_pool.len(), 4);
    }

    #[test]
    fn resize_preserves_prefix_and_zero_fills() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "rz", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();

        // Shrink to a non-block boundary.
        io.resize(&mut obj, 2500, &mut rng).unwrap();
        assert_eq!(obj.size(), 2500);
        assert_eq!(io.read(&obj).unwrap(), &data[..2500]);

        // Grow again: the cut region must come back as zeros, not as the
        // old plaintext.
        io.resize(&mut obj, 6000, &mut rng).unwrap();
        let got = io.read(&obj).unwrap();
        assert_eq!(&got[..2500], &data[..2500]);
        assert!(
            got[2500..].iter().all(|&b| b == 0),
            "stale bytes resurfaced"
        );

        // Reopen sees the resized state.
        let reopened = io.open("rz").unwrap();
        assert_eq!(reopened.size(), 6000);
    }

    #[test]
    fn resize_does_not_move_existing_data_blocks() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "stable", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![9u8; 8 * 1024], &mut rng).unwrap();
        let before: std::collections::HashSet<(u64, BlockRole)> =
            io.owned_blocks(&obj).unwrap().into_iter().collect();

        io.resize(&mut obj, 64 * 1024, &mut rng).unwrap();
        let after: std::collections::HashSet<(u64, BlockRole)> =
            io.owned_blocks(&obj).unwrap().into_iter().collect();
        // Growing only adds blocks; the original data blocks stay put (the
        // old chain blocks may be recycled, so compare data coverage via a
        // read instead of set inclusion for them).
        let mut expected = vec![9u8; 8 * 1024];
        expected.extend(vec![0u8; 56 * 1024]);
        assert_eq!(io.read(&obj).unwrap(), expected);
        assert!(after.len() > before.len());
    }

    #[test]
    fn resize_to_zero_and_no_space() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let free_start = fs.free_data_blocks();
        let mut obj = create(&io, "z", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![1u8; 5000], &mut rng).unwrap();

        io.resize(&mut obj, 0, &mut rng).unwrap();
        assert_eq!(obj.size(), 0);
        assert_eq!(obj.header.data_block_count, 0);
        assert_eq!(obj.header.inode_chain, NO_BLOCK);
        assert!(io.read(&obj).unwrap().is_empty());

        // An absurd growth request fails cleanly without touching the object.
        assert!(matches!(
            io.resize(&mut obj, u64::MAX / 2, &mut rng),
            Err(StegError::NoSpace)
        ));
        assert_eq!(obj.size(), 0);

        // Deleting returns every block.
        delete(&io, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_start);
    }

    #[test]
    fn wrong_key_cannot_open_or_read() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "s", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, b"classified", &mut rng).unwrap();
        let wrong = ObjectKeys::derive("s", b"wrong key");
        assert!(bypass(&fs, &wrong, &params)
            .open("s")
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn delete_returns_all_blocks_and_scrubs_header() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let free_before = fs.free_data_blocks();
        let mut obj = create(&io, "d", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![5u8; 40 * 1024], &mut rng).unwrap();
        assert!(fs.free_data_blocks() < free_before);

        delete(&io, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_before, "all blocks returned");
        // The object can no longer be found.
        assert!(io.open("d").unwrap_err().is_not_found());
    }

    #[test]
    fn owned_blocks_accounts_for_everything() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        let free_start = fs.free_data_blocks();
        let mut obj = create(&io, "o", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![9u8; 20 * 1024], &mut rng).unwrap();
        let owned = io.owned_blocks(&obj).unwrap();
        let consumed = free_start - fs.free_data_blocks();
        assert_eq!(owned.len() as u64, consumed);
        assert!(owned.contains(&(obj.header_block, BlockRole::Header)));
    }

    #[test]
    fn hidden_blocks_never_appear_in_central_directory() {
        let (fs, keys, params, mut rng) = fixture();
        let io = bypass(&fs, &keys, &params);
        fs.write_file("/plain.txt", b"visible data").unwrap();
        let mut obj = create(&io, "h", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut obj, &vec![3u8; 30 * 1024], &mut rng).unwrap();

        let plain_blocks = fs.plain_object_blocks().unwrap();
        let hidden = io.owned_blocks(&obj).unwrap();
        for (b, _) in &hidden {
            assert!(
                !plain_blocks.contains_key(b),
                "hidden block {b} leaked into the central directory"
            );
            assert!(
                fs.is_block_allocated(*b),
                "hidden block {b} must be marked in the bitmap"
            );
        }
    }

    #[test]
    fn no_space_write_fails_cleanly() {
        // Small volume: fill most of it with a plain file, then try to write
        // a hidden object that cannot fit.
        let fs = PlainFs::format(MemBlockDevice::new(1024, 512), FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("x", b"k");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"r");
        let io = bypass(&fs, &keys, &params);
        let mut obj = create(&io, "x", ObjectKind::File, Policy::Plain).unwrap();
        let free = fs.free_data_blocks();
        let too_big = vec![0u8; ((free + 16) * 1024) as usize];
        assert!(matches!(
            write(&io, &mut obj, &too_big, &mut rng),
            Err(StegError::NoSpace)
        ));
    }

    #[test]
    fn two_objects_do_not_interfere() {
        let (fs, _, params, mut rng) = fixture();
        let ka = ObjectKeys::derive("a", b"key-a");
        let kb = ObjectKeys::derive("b", b"key-b");
        let mut a = create(
            &bypass(&fs, &ka, &params),
            "a",
            ObjectKind::File,
            Policy::Plain,
        )
        .unwrap();
        let mut b = create(
            &bypass(&fs, &kb, &params),
            "b",
            ObjectKind::File,
            Policy::Plain,
        )
        .unwrap();
        write(
            &bypass(&fs, &ka, &params),
            &mut a,
            &vec![0xaa; 10_000],
            &mut rng,
        )
        .unwrap();
        write(
            &bypass(&fs, &kb, &params),
            &mut b,
            &vec![0xbb; 20_000],
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            bypass(&fs, &ka, &params).read(&a).unwrap(),
            vec![0xaa; 10_000]
        );
        assert_eq!(
            bypass(&fs, &kb, &params).read(&b).unwrap(),
            vec![0xbb; 20_000]
        );
        let blocks = |keys, obj| {
            let owned = bypass(&fs, keys, &params).owned_blocks(obj).unwrap();
            owned.into_iter().map(|(b, _)| b).collect::<Vec<_>>()
        };
        let (blocks_a, blocks_b) = (blocks(&ka, &a), blocks(&kb, &b));
        assert!(blocks_a.iter().all(|x| !blocks_b.contains(x)));
    }

    /// Overwrite `block` with junk, leaving it allocated — the damage a
    /// failing sector or a hostile overwrite inflicts.
    fn smash(fs: &PlainFs<MemBlockDevice>, block: u64, seed: u8) {
        let junk: Vec<u8> = (0..fs.block_size())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        let mut txn = fs.begin_txn();
        txn.write_raw_block(block, &junk).unwrap();
        txn.commit().unwrap();
    }

    fn coded_fixture(
        policy: Policy,
        name: &str,
    ) -> (
        PlainFs<MemBlockDevice>,
        ObjectKeys,
        StegParams,
        DeterministicRng,
        HiddenObject,
    ) {
        let (fs, _, params, rng) = fixture();
        let keys = ObjectKeys::derive(name, b"coded key");
        let obj = create(&bypass(&fs, &keys, &params), name, ObjectKind::File, policy).unwrap();
        (fs, keys, params, rng, obj)
    }

    #[test]
    fn coded_write_read_roundtrip() {
        for policy in [
            Policy::Replicate(3),
            Policy::Disperse { m: 2, n: 3 },
            Policy::Disperse { m: 3, n: 5 },
        ] {
            let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "coded");
            let io = bypass(&fs, &keys, &params);
            let data: Vec<u8> = (0..7 * 1024 + 123u32).map(|i| (i % 253) as u8).collect();
            write(&io, &mut obj, &data, &mut rng).unwrap();
            let (_, n) = policy.shares();
            assert_eq!(obj.header.data_block_count % n as u64, 0);
            assert_eq!(io.read(&obj).unwrap(), data);
            // Through a fresh open too (exercises the coded chain parse).
            let reopened = io.open("coded").unwrap();
            assert_eq!(reopened.header.policy, policy);
            assert_eq!(io.read(&reopened).unwrap(), data);
            assert_eq!(
                io.read_range(&reopened, 1000, 3000, 0).unwrap(),
                &data[1000..4000]
            );
        }
    }

    #[test]
    fn coded_read_survives_n_minus_m_losses_per_group() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "lossy");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 241) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        // Destroy n - m = 2 shares in *every* group.
        for (g, group) in io.share_extents(&obj).unwrap().iter().enumerate() {
            assert_eq!(group.len(), 4);
            smash(&fs, group[0], g as u8);
            smash(&fs, group[2], g as u8 ^ 0x5a);
        }
        assert_eq!(io.read(&obj).unwrap(), data, "fallback decode");
        assert_eq!(
            io.read_range(&obj, 2048, 100, 0).unwrap(),
            &data[2048..2148]
        );
    }

    #[test]
    fn coded_read_fails_closed_beyond_tolerance() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "gone");
        let io = bypass(&fs, &keys, &params);
        let data = vec![0x42u8; 5 * 1024];
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let groups = io.share_extents(&obj).unwrap();
        // Kill n - m + 1 = 2 shares of group 0: unrecoverable.
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        let err = io.read(&obj).unwrap_err();
        assert!(
            err.to_string().contains("live shares"),
            "clean error: {err}"
        );
        // No partial plaintext: a range read inside the dead group fails too.
        assert!(io.read_range(&obj, 0, 10, 0).is_err());
        // Other groups remain readable on their own.
        assert_eq!(
            io.read_range(&obj, 2 * 1024, 1024, 0).unwrap(),
            &data[2 * 1024..3 * 1024]
        );
    }

    #[test]
    fn repair_restores_byte_identical_ciphertext() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "fixme");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 199) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);

        let groups = io.share_extents(&obj).unwrap();
        let victims = [groups[0][1], groups[0][3], groups[1][0]];
        let bs = fs.block_size();
        let mut before = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut before).unwrap();
        for (i, &v) in victims.iter().enumerate() {
            smash(&fs, v, i as u8);
        }
        assert_eq!(
            io.repair(&obj).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 3 }
        );
        let mut after = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut after).unwrap();
        assert_eq!(before, after, "rebuilt shares must be byte-identical");
        assert_eq!(io.read(&obj).unwrap(), data);
        assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);
    }

    #[test]
    fn repair_fails_closed_when_unrecoverable() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "dead");
        let io = bypass(&fs, &keys, &params);
        write(&io, &mut obj, &vec![9u8; 3 * 1024], &mut rng).unwrap();
        let groups = io.share_extents(&obj).unwrap();
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        smash(&fs, groups[0][2], 3);
        let bs = fs.block_size();
        let mut before = vec![0u8; 3 * bs];
        fs.read_raw_blocks_into(&groups[0], &mut before).unwrap();
        assert_eq!(
            io.repair(&obj).unwrap(),
            RepairOutcome::Lost { groups_lost: 1 }
        );
        // Fail closed: a lost object is left exactly as found.
        let mut after = vec![0u8; 3 * bs];
        fs.read_raw_blocks_into(&groups[0], &mut after).unwrap();
        assert_eq!(before, after, "lost repair must not write");
    }

    #[test]
    fn repair_reports_a_damaged_share_without_redundancy_as_lost() {
        // `n == m` leaves nothing to rebuild from, but the entries still
        // carry checks: the damage is found and reported, not passed over.
        let policy = Policy::Disperse { m: 2, n: 2 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "bare");
        let io = bypass(&fs, &keys, &params);
        write(&io, &mut obj, &vec![4u8; 4 * 1024], &mut rng).unwrap();
        assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);
        let groups = io.share_extents(&obj).unwrap();
        let mut txn = fs.begin_txn();
        txn.write_raw_block(groups[1][0], &vec![0u8; fs.block_size()])
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            io.repair(&obj).unwrap(),
            RepairOutcome::Lost { groups_lost: 1 }
        );
        assert!(io.read(&obj).is_err(), "a lost group fails the read closed");
    }

    #[test]
    fn failed_repair_write_returns_its_plaintext_scratch() {
        let dev = FaultDevice::with_write_cache(MemBlockDevice::new(1024, 8192));
        let fs = PlainFs::format(dev.clone(), FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("leak-repair", b"coded key");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"hidden-tests");
        let io = ObjectIo::new(&fs, &params, ReadCache::disabled(), &keys);
        let policy = Policy::Disperse { m: 2, n: 3 };
        let mut obj = create(&io, "leak-repair", ObjectKind::File, policy).unwrap();
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 241) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let victim = io.share_extents(&obj).unwrap()[0][1];
        let mut txn = fs.begin_txn();
        txn.write_raw_block(victim, &vec![0u8; fs.block_size()])
            .unwrap();
        txn.commit().unwrap();

        // The sweep's reads succeed; the rebuilt share's write fails while
        // the decoded group and its re-split shares sit in scratch.
        let outstanding = scratch::outstanding();
        dev.fail_after_writes(0);
        assert!(io.repair(&obj).is_err());
        assert_eq!(scratch::outstanding(), outstanding);
        // Nothing was written; once the device takes writes again the same
        // repair goes through.
        dev.clear_failure();
        assert_eq!(
            io.repair(&obj).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 1 }
        );
        assert_eq!(io.read(&obj).unwrap(), data);
    }

    #[test]
    fn failed_fetch_returns_the_cache_hits_it_already_copied() {
        let dev = FaultDevice::new(MemBlockDevice::new(1024, 8192));
        let fs = PlainFs::format(dev.clone(), FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("leak-read", b"plain key");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"hidden-tests");
        let cache = ReadCache::new(64);
        let io = ObjectIo::new(&fs, &params, &cache, &keys);
        let mut obj = create(&io, "leak-read", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 241) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        // Block 0 and the extent list become resident; blocks 1..4 do not.
        assert_eq!(io.read_range(&obj, 0, 1024, 0).unwrap(), &data[..1024]);

        let outstanding = scratch::outstanding();
        let hits = cache.stats().block_hits;
        dev.script_failures(1);
        assert!(io.read(&obj).is_err());
        assert_eq!(cache.stats().block_hits, hits + 1, "block 0 was a hit");
        assert_eq!(scratch::outstanding(), outstanding);
        assert_eq!(io.read(&obj).unwrap(), data);
    }

    #[test]
    fn every_read_range_returns_or_hands_out_its_scratch() {
        let dev = FaultDevice::new(MemBlockDevice::new(1024, 8192));
        let fs = PlainFs::format(dev.clone(), FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("balance", b"plain key");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"hidden-tests");
        let cache = ReadCache::new(64);
        let io = ObjectIo::new(&fs, &params, &cache, &keys);
        let mut obj = create(&io, "balance", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..4 * 1024u32 - 300).map(|i| (i % 239) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();

        let outstanding = scratch::outstanding();
        // Aligned, unaligned inside a block, straddling blocks, and
        // unaligned past EOF.
        let ranges = [
            (0, 2048),
            (1024, 5000),
            (100, 2000),
            (3000, 10),
            (1023, 2),
            (2500, 5000),
        ];
        for (offset, len) in ranges {
            let (from, to) = (offset, (offset + len).min(data.len()));
            let got = io.read_range(&obj, offset as u64, len, 2).unwrap();
            assert_eq!(got, &data[from..to], "({offset}, {len})");
            assert_eq!(scratch::outstanding(), outstanding, "({offset}, {len})");
        }
        assert_eq!(io.read(&obj).unwrap(), data);
        assert_eq!(scratch::outstanding(), outstanding);
        for offset in [0, 100, 1023] {
            cache.purge_decrypted();
            dev.script_failures(1);
            assert!(io.read_range(&obj, offset, 1024, 0).is_err());
            assert_eq!(scratch::outstanding(), outstanding, "failed at {offset}");
        }
    }

    #[test]
    fn a_hidden_read_hands_out_at_most_one_block_of_spare_capacity() {
        let (fs, keys, params, mut rng) = fixture();
        let cache = ReadCache::new(64);
        let io = ObjectIo::new(&fs, &params, &cache, &keys);
        let bs = fs.block_size();
        let mut small = create(&io, "small", ObjectKind::File, Policy::Plain).unwrap();
        write(&io, &mut small, &[0x42; 100], &mut rng).unwrap();
        let big_keys = ObjectKeys::derive("big", b"another key");
        let big_io = ObjectIo::new(&fs, &params, &cache, &big_keys);
        let mut big = create(&big_io, "big", ObjectKind::File, Policy::Plain).unwrap();
        write(&big_io, &mut big, &vec![0x77; 1 << 20], &mut rng).unwrap();

        // The thread's most recent pooled buffer is a 1 MiB one, as the
        // write leaves it: no read path may hand it to the caller, whether
        // the read starts on a block boundary or inside a block.
        let reads: [(&dyn Fn() -> Vec<u8>, usize); 3] = [
            (&|| io.read(&small).unwrap(), 100),
            (&|| io.read_range(&small, 0, 100, 0).unwrap(), 100),
            (&|| io.read_range(&small, 10, 80, 0).unwrap(), 80),
        ];
        for (read, len) in reads {
            drop(Scratch::take(1 << 20));
            let got = read();
            assert_eq!(got, vec![0x42; len]);
            assert!(got.capacity() <= len + bs, "capacity {}", got.capacity());
        }
        // With a pool that has nothing to offer, the read's own one-block
        // buffer is what the caller gets — handed over, not copied.
        let hoard: Vec<Scratch> = (0..16).map(|_| Scratch::take(0)).collect();
        for (read, len) in reads {
            let got = read();
            assert_eq!(got, vec![0x42; len]);
            assert_eq!(got.capacity(), bs);
        }
        drop(hoard);
    }

    #[test]
    fn coded_write_range_patches_and_updates_checksums() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "patch2");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 256) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let free_before = fs.free_data_blocks();
        // Patch across a group boundary (groups are m * bs = 2 KB here).
        io.write_range(&mut obj, 1500, &[0xcc; 2000]).unwrap();
        let mut expected = data.clone();
        expected[1500..3500].copy_from_slice(&[0xcc; 2000]);
        assert_eq!(io.read(&obj).unwrap(), expected);
        assert_eq!(fs.free_data_blocks(), free_before, "no allocation");
        // The checksums the chain now records match the new shares: repair
        // sees an intact object, and damage within tolerance still heals.
        assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);
        let groups = io.share_extents(&obj).unwrap();
        smash(&fs, groups[0][1], 7);
        assert_eq!(io.read(&obj).unwrap(), expected);
    }

    #[test]
    fn coded_patch_reinstalls_its_extent_list_and_only_invalidates_on_failure() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "warm-patch");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 253) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let cache = ReadCache::new(64);
        let warm = ObjectIo::new(&fs, &params, &cache, &keys);
        assert_eq!(warm.read(&obj).unwrap(), data);

        // A patch drops the object's decoded blocks but leaves its extent
        // list installed, carrying the checksums of the rewritten shares:
        // the next read misses no extent lookup and verifies every share.
        warm.write_range(&mut obj, 1000, &[0xee; 3000]).unwrap();
        let mut expected = data.clone();
        expected[1000..4000].copy_from_slice(&[0xee; 3000]);
        let misses = cache.stats().extent_misses;
        assert_eq!(warm.read(&obj).unwrap(), expected);
        assert_eq!(
            cache.stats().extent_misses,
            misses,
            "patched object went cold"
        );
        let walked = warm.read_chain(&obj).unwrap();
        let (_, cached) = warm.cached_chain(&obj).unwrap();
        assert_eq!(*cached, walked);

        // A patch that fails closed leaves no entry behind.
        let groups = io.share_extents(&obj).unwrap();
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        assert!(warm.write_range(&mut obj, 10, &[1; 10]).is_err());
        let entry = cache.lookup_extents(
            keys.signature(),
            obj.header.inode_chain,
            obj.header.data_block_count,
        );
        assert!(entry.is_none());
    }

    #[test]
    fn coded_resize_roundtrip() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "rz2");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        io.resize(&mut obj, 1500, &mut rng).unwrap();
        assert_eq!(io.read(&obj).unwrap(), &data[..1500]);
        io.resize(&mut obj, 4000, &mut rng).unwrap();
        let got = io.read(&obj).unwrap();
        assert_eq!(&got[..1500], &data[..1500]);
        assert!(got[1500..].iter().all(|&b| b == 0));
        // An absurd growth request fails cleanly before materialising — and,
        // like every failed mutation, leaves no cache entry behind.
        let cache = ReadCache::new(64);
        let warm = ObjectIo::new(&fs, &params, &cache, &keys);
        assert_eq!(warm.read(&obj).unwrap(), got);
        assert!(matches!(
            warm.resize(&mut obj, u64::MAX / 4, &mut rng),
            Err(StegError::NoSpace)
        ));
        assert_eq!(obj.size(), 4000);
        assert!(cache.peek_header(keys.signature()).is_none());
    }

    #[test]
    fn coded_cached_reads_survive_damage_after_invalidation() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "warm");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 239) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let cache = ReadCache::new(64);
        let warm = ObjectIo::new(&fs, &params, &cache, &keys);
        assert_eq!(warm.read(&obj).unwrap(), data);
        // Damage within tolerance, then serve warm: the cache still holds
        // the decoded logical blocks, so the read never sees the damage.
        let groups = io.share_extents(&obj).unwrap();
        for (g, group) in groups.iter().enumerate() {
            smash(&fs, group[0], g as u8);
        }
        assert_eq!(warm.read(&obj).unwrap(), data);
        // Cold again: the decode path falls back through surviving shares.
        cache.invalidate(keys.signature());
        assert_eq!(warm.read(&obj).unwrap(), data);
    }

    #[test]
    fn coded_delete_returns_all_blocks() {
        let policy = Policy::Disperse { m: 3, n: 5 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "bye");
        let io = bypass(&fs, &keys, &params);
        // The object holds its pool plus one header block per metadata copy
        // (n - m + 1 = 3 for this policy); all of them must come back.
        let free_before =
            fs.free_data_blocks() + params.free_blocks_max as u64 + policy.meta_copies() as u64;
        write(&io, &mut obj, &vec![4u8; 9 * 1024], &mut rng).unwrap();
        delete(&io, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_before);
        assert!(io.open("bye").unwrap_err().is_not_found());
    }

    #[test]
    fn header_survives_replica_losses_and_flags_degraded() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "hdr");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let replicas = obj.header.header_replicas.clone();
        assert_eq!(replicas.len(), policy.meta_copies());
        assert_eq!(replicas[0], obj.header_block);

        // Kill the primary and one replica: n - m = 2 losses, still open.
        smash(&fs, replicas[0], 1);
        smash(&fs, replicas[1], 2);
        let found = io.open("hdr").unwrap();
        assert_eq!(found.header_block, replicas[2], "served by the survivor");
        assert_eq!(io.read(&found).unwrap(), data);

        // One more loss kills the object: no replica left to probe.
        smash(&fs, replicas[2], 3);
        assert!(io.open("hdr").unwrap_err().is_not_found());
    }

    #[test]
    fn chain_survives_replica_losses_and_fails_closed_beyond() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "chn");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 239) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let head = obj.header.inode_chain;
        let spares = obj.header.chain_replicas.clone();
        assert_eq!(spares.len(), policy.meta_copies() - 1);

        smash(&fs, head, 1);
        smash(&fs, spares[0], 2);
        assert_eq!(
            io.read(&obj).unwrap(),
            data,
            "chain served by its last replica"
        );

        smash(&fs, spares[1], 3);
        let err = io.read(&obj).unwrap_err();
        assert!(err.to_string().contains("live"), "fails closed: {err}");
    }

    #[test]
    fn healthy_reads_do_not_flag_degraded() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "ok");
        let io = bypass(&fs, &keys, &params);
        let data = vec![7u8; 3 * 1024];
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let found = io.open("ok").unwrap();
        assert_eq!(found.header_block, obj.header_block);
        assert_eq!(io.read(&found).unwrap(), data);
        assert_eq!(io.repair(&found).unwrap(), RepairOutcome::Intact);
    }

    #[test]
    fn repair_rebuilds_metadata_replicas_byte_identically() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "meta-fix");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 211) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        let groups = io.share_extents(&obj).unwrap();
        let victims = [
            obj.header.header_replicas[1],
            obj.header.chain_replicas[0],
            groups[0][2],
        ];
        let bs = fs.block_size();
        let mut before = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut before).unwrap();
        for (i, &v) in victims.iter().enumerate() {
            smash(&fs, v, 0x40 + i as u8);
        }
        assert_eq!(
            io.repair(&obj).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 3 }
        );
        let mut after = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut after).unwrap();
        assert_eq!(before, after, "metadata rebuilds must be byte-identical");
        assert_eq!(io.repair(&obj).unwrap(), RepairOutcome::Intact);
        assert_eq!(io.read(&obj).unwrap(), data);
    }

    #[test]
    fn coded_patch_keeps_replicated_chain_consistent() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "patch-r");
        let io = bypass(&fs, &keys, &params);
        let data: Vec<u8> = (0..9 * 1024u32).map(|i| (i % 223) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        io.write_range(&mut obj, 4000, &[0xbe; 1500]).unwrap();
        let mut expected = data.clone();
        expected[4000..5500].fill(0xbe);
        // The handle's refreshed header and a fresh keyed open must both walk
        // the cascaded chain cleanly.
        assert_eq!(io.read(&obj).unwrap(), expected);
        let reopened = io.open("patch-r").unwrap();
        assert_eq!(io.read(&reopened).unwrap(), expected);
        assert_eq!(io.repair(&reopened).unwrap(), RepairOutcome::Intact);
        // And the patch still tolerates losing any chain replica afterwards.
        smash(&fs, reopened.header.inode_chain, 9);
        assert_eq!(io.read(&reopened).unwrap(), expected);
    }

    #[test]
    fn owned_blocks_cover_every_metadata_replica() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "own");
        let io = bypass(&fs, &keys, &params);
        write(&io, &mut obj, &[5u8; 4096], &mut rng).unwrap();
        let owned = io.owned_blocks(&obj).unwrap();
        let headers = obj
            .header
            .header_replicas
            .iter()
            .map(|&b| (b, BlockRole::Header));
        let chain = obj
            .header
            .chain_replicas
            .iter()
            .map(|&b| (b, BlockRole::Chain));
        let head = (obj.header.inode_chain, BlockRole::Chain);
        for replica in headers.chain(chain).chain([head]) {
            assert!(
                owned.contains(&replica),
                "replica {replica:?} missing from owned set"
            );
        }
    }

    /// The next batch submission going `dir`.
    fn next_batch(dir: Dir) -> Trigger {
        Trigger::when(move |op| op.dir == dir && op.batch)
    }

    #[test]
    fn scratch_is_returned_when_the_device_panics_mid_operation() {
        let dev = FaultDevice::new(MemBlockDevice::new(1024, 8192));
        let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("unwind", b"plain key");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"hidden-tests");
        let cache = ReadCache::new(64);
        let io = ObjectIo::new(&fs, &params, &cache, &keys);
        let mut obj = create(&io, "unwind", ObjectKind::File, Policy::Plain).unwrap();
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 241) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        // Block 0 and the extent list become resident; blocks 1..4 do not.
        assert_eq!(io.read_range(&obj, 0, 1024, 0).unwrap(), &data[..1024]);
        let outstanding = scratch::outstanding();

        // (a) The fetch panics after the cache hit was copied into `out`.
        let hits = cache.stats().block_hits;
        fs.device().panic(next_batch(Dir::Read));
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| io.read(&obj)));
        assert!(read.is_err(), "the fetch panicked");
        assert_eq!(cache.stats().block_hits, hits + 1, "block 0 was a hit");
        assert_eq!(scratch::outstanding(), outstanding);
        assert_eq!(io.read(&obj).unwrap(), data);

        // (b) A patch's batch panics while its plaintext sits in scratch.
        fs.device().panic(next_batch(Dir::Write));
        let patch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            io.write_range(&mut obj, 100, &[0xee; 1500])
        }));
        assert!(patch.is_err(), "the batch panicked");
        assert_eq!(scratch::outstanding(), outstanding);
        assert_eq!(io.read(&obj).unwrap(), data);
    }

    type Tripped = ObservedDevice<FaultDevice<MemBlockDevice>>;

    /// One mutation the write-trip sweep drives.
    type Mutation =
        fn(&ObjectIo<'_, '_, Tripped>, &mut HiddenObject, &mut DeterministicRng) -> StegResult<()>;

    /// What one run of the sweep does to the device under `op`.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        None,
        /// The trip wire, armed after this many more written blocks.
        Trip(u64),
        /// The submission this many into `op` fails: a read or a write.
        Fail(u64),
        /// The submission this many into `op` panics.
        Panic(u64),
    }

    /// Run `op` (called `name`) on a fresh volume holding one 6000-byte `policy` object
    /// (a coded one with one share of group 0 damaged, so `repair` has work),
    /// with `fault` armed.  Checks that a failing `op` fails cleanly and a
    /// panicking one is caught, that scratch balances, and that the same
    /// context still answers a read once the device heals.  Returns the
    /// blocks `op` wrote and the submissions it made.
    fn run_tripped(policy: Policy, (name, op): (&str, Mutation), fault: Fault) -> (u64, u64) {
        let dev = Tripped::counting(FaultDevice::new(MemBlockDevice::new(1024, 2048)));
        let fs = PlainFs::format(dev, FormatOptions::default()).unwrap();
        let keys = ObjectKeys::derive("trip", b"trip key");
        let params = StegParams::for_tests();
        let mut rng = DeterministicRng::new(b"hidden-tests");
        let cache = ReadCache::new(256);
        let io = ObjectIo::new(&fs, &params, &cache, &keys);
        let mut obj = create(&io, "trip", ObjectKind::File, policy).unwrap();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        write(&io, &mut obj, &data, &mut rng).unwrap();
        if policy.is_coded() {
            let victim = io.share_extents(&obj).unwrap()[0][1];
            let mut txn = fs.begin_txn();
            txn.write_raw_block(victim, &[0x5a; 1024]).unwrap();
            txn.commit().unwrap();
        }
        assert_eq!(io.read(&obj).unwrap(), data);

        let written = || fs.device().stats().blocks_written.load(Ordering::Relaxed);
        let before = written();
        let outstanding = scratch::outstanding();
        let faults = fs.device().inner();
        let base = faults.ops();
        match fault {
            Fault::None => {}
            Fault::Trip(n) => faults.fail_after_writes(n),
            Fault::Fail(i) => faults.fail(Trigger::at(base + i)),
            Fault::Panic(i) => faults.panic(Trigger::at(base + i)),
        }
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&io, &mut obj, &mut rng)));
        let what = format!("{policy:?} {name} with {fault:?}");
        match (outcome, fault) {
            (Err(_), Fault::Panic(_)) => {}
            (Ok(_), Fault::Panic(_)) => panic!("{what}: did not panic"),
            (Ok(result), _) => {
                let failed = !matches!(fault, Fault::None);
                assert_eq!(result.is_err(), failed, "{what}: {result:?}");
            }
            (Err(_), _) => panic!("{what}: panicked"),
        }
        assert_eq!(scratch::outstanding(), outstanding, "{what}");
        let (wrote, submitted) = (written() - before, faults.ops() - base);
        fs.device().inner().clear_failure();
        // A write-through volume may be left torn, so the read may fail
        // closed; it must answer, without a panic and with scratch balanced.
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| io.read(&obj)));
        assert!(read.is_ok(), "{what}: the read after healing panicked");
        assert_eq!(scratch::outstanding(), outstanding, "{what}: read");
        (wrote, submitted)
    }

    #[test]
    fn scratch_balances_at_every_write_trip() {
        let ops: [(&str, Mutation); 7] = [
            ("write", |io, obj, rng| write(io, obj, &[0x33; 4500], rng)),
            ("write_range edge", |io, obj, _| {
                io.write_range(obj, 100, &[0xee; 1500])
            }),
            ("write_range aligned", |io, obj, _| {
                io.write_range(obj, 2048, &[0xee; 2048])
            }),
            ("resize grow", |io, obj, rng| io.resize(obj, 9000, rng)),
            ("resize mid-block", |io, obj, rng| io.resize(obj, 2500, rng)),
            ("write_at past the end", |io, obj, rng| {
                io.write_at(obj, 5000, &[0xab; 3000], rng)
            }),
            ("repair", |io, obj, _| io.repair(obj).map(drop)),
        ];
        for policy in [Policy::Plain, Policy::Disperse { m: 2, n: 3 }] {
            for (name, op) in ops {
                let (clean, submissions) = run_tripped(policy, (name, op), Fault::None);
                assert!(
                    clean > 0 || name == "repair",
                    "{policy:?} {name} wrote nothing"
                );
                for n in 0..clean {
                    run_tripped(policy, (name, op), Fault::Trip(n));
                }
                // Index-keyed: each submission of the clean run fails (a
                // read or a write failure, as it goes), then panics.
                for i in 0..submissions {
                    run_tripped(policy, (name, op), Fault::Fail(i));
                    run_tripped(policy, (name, op), Fault::Panic(i));
                }
            }
        }
    }
}
