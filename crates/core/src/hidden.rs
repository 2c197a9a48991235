//! The hidden-object engine: create, open, read, write, delete.
//!
//! This module implements the life cycle of a single hidden object on top of
//! the plain file system's bitmap and raw-block interface.  Nothing here
//! touches the central directory; the only trace a hidden object leaves in
//! shared metadata is its blocks being marked allocated — just like abandoned
//! blocks and dummy files.
//!
//! The free-block-pool behaviour follows §3.1: a freshly created object
//! immediately claims `FB_max` random blocks; extension consumes pool blocks
//! (topping the pool back up when it drops below `FB_min`); truncation feeds
//! freed blocks back into the pool and only returns the excess beyond
//! `FB_max` to the file system.
//!
//! Objects carry a per-object durability [`Policy`]: a coded object stores
//! `n` cipher-shares per group of `m` logical blocks (any `m` reconstruct —
//! see [`crate::coding`]), the read path falls back through surviving
//! shares on checksum mismatch, and [`repair`] rewrites damaged shares from
//! the survivors.  On the raw device shares are indistinguishable from any
//! other hidden block.

use crate::coding::{self, GroupCodec, Policy};
use crate::crypt::ObjectKeys;
use crate::error::{StegError, StegResult};
use crate::header::{HiddenHeader, InodeChainBlock, ObjectKind, NO_BLOCK};
use crate::locator::{candidate_sequence, locate_header, Located};
use crate::params::StegParams;
use crate::readcache::{scratch, ExtentList, ReadCache};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::prng::DeterministicRng;
use stegfs_fs::{FsTxn, PlainFs};
use stegfs_obs::span;

/// An open hidden object: its header block number and current header state.
#[derive(Debug, Clone)]
pub struct HiddenObject {
    /// Physical block holding the (encrypted) header.
    pub header_block: u64,
    /// Decrypted header contents.
    pub header: HiddenHeader,
    /// Number of locator probes it took to find the header (1 for a freshly
    /// created object).
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
}

/// Degradation signal threaded through the `*_observed` read paths: set
/// whenever a read succeeded only by falling back to redundancy — a data
/// group decoded from fallback shares, a header found at a replica, or a
/// chain node served by a replica.  The facade turns a raised flag into a
/// read-repair ticket so the volume converges back to full redundancy.
#[derive(Debug, Default)]
pub struct ReadHealth {
    degraded: AtomicBool,
}

impl ReadHealth {
    /// A fresh, healthy signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that redundancy absorbed damage during this operation.
    pub fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// True when some fallback path fired since the last [`clear`](Self::clear).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Reset the signal for reuse.
    pub fn clear(&self) {
        self.degraded.store(false, Ordering::Relaxed);
    }
}

fn mark(health: Option<&ReadHealth>) {
    if let Some(h) = health {
        h.mark_degraded();
    }
}

/// The number of copies each of this object's metadata blocks actually has
///// on disk: 1 for legacy headers (no replica table) and for [`Policy`]s
/// without redundancy, `n - m + 1` otherwise — metadata then survives the
/// same per-group loss budget as the data it indexes.
pub fn effective_meta_copies(header: &HiddenHeader) -> usize {
    if header.header_replicas.is_empty() {
        1
    } else {
        header.policy.meta_copies()
    }
}

/// Write the (shared) serialised header to every replica block.  Objects
/// with a legacy single-copy header keep writing just `header_block`.
fn publish_header<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    keys: &ObjectKeys,
    header_block: u64,
    header: &HiddenHeader,
) -> StegResult<()> {
    let plain = header.serialize(txn.block_size());
    if header.header_replicas.is_empty() {
        write_encrypted(txn, keys, header_block, &plain)
    } else {
        for &b in &header.header_replicas {
            write_encrypted(txn, keys, b, &plain)?;
        }
        Ok(())
    }
}

fn write_encrypted<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    keys: &ObjectKeys,
    block: u64,
    plaintext_block: &[u8],
) -> StegResult<()> {
    let mut buf = scratch::take(plaintext_block.len());
    buf.copy_from_slice(plaintext_block);
    {
        let _s = span::span(span::Phase::Crypto);
        keys.encrypt_block(block, &mut buf);
    }
    let result = txn.write_raw_block(block, &buf);
    scratch::put(buf);
    result?;
    Ok(())
}

/// Read and decrypt one block into a pooled scratch buffer; return it with
/// [`scratch::put`] when done.
fn read_decrypted<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    block: u64,
) -> StegResult<Vec<u8>> {
    let mut buf = scratch::take(fs.block_size());
    fs.read_raw_blocks_into(&[block], &mut buf)?;
    {
        let _s = span::span(span::Phase::Crypto);
        keys.decrypt_block(block, &mut buf);
    }
    Ok(buf)
}

/// Read a whole extent list in **one batched device submission**, then
/// decrypt each block in place (the cipher is keyed per block number, so the
/// crypto stays per-block while the I/O batches).  The returned buffer comes
/// from the thread's scratch pool; callers that do not hand it to their own
/// caller should return it with [`scratch::put`].
fn read_decrypted_many<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    blocks: &[u64],
) -> StegResult<Vec<u8>> {
    let bs = fs.block_size();
    let mut buf = scratch::take(blocks.len() * bs);
    fs.read_raw_blocks_into(blocks, &mut buf)?;
    {
        let _s = span::span(span::Phase::Crypto);
        for (i, &block) in blocks.iter().enumerate() {
            keys.decrypt_block(block, &mut buf[i * bs..(i + 1) * bs]);
        }
    }
    Ok(buf)
}

/// Encrypt `plaintext` (the concatenation of the blocks' contents) per block
/// **in place** — every caller hands over a scratch buffer it is done with —
/// and write the whole extent list in **one batched device submission** (or
/// stage it into the transaction's redo buffer on a journaled volume).  The
/// buffer is zeroed and returned to the thread's scratch pool afterwards.
fn write_encrypted_many<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    keys: &ObjectKeys,
    blocks: &[u64],
    mut plaintext: Vec<u8>,
) -> StegResult<()> {
    let bs = txn.block_size();
    debug_assert_eq!(plaintext.len(), blocks.len() * bs);
    {
        let _s = span::span(span::Phase::Crypto);
        for (i, &block) in blocks.iter().enumerate() {
            keys.encrypt_block(block, &mut plaintext[i * bs..(i + 1) * bs]);
        }
    }
    let result = txn.write_raw_blocks(blocks, &plaintext);
    scratch::put(plaintext);
    result?;
    Ok(())
}

/// Create a new hidden object and write its initial (empty) header.
///
/// The header lands at the first free block of the keyed candidate sequence;
/// the internal free pool is immediately stocked with `FB_max` random blocks.
/// The header write is one transaction: on a journaled volume a crash either
/// yields the complete (empty) object or nothing.
pub fn create<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    kind: ObjectKind,
    params: &StegParams,
) -> StegResult<HiddenObject> {
    create_with_policy(fs, physical_name, keys, kind, Policy::Plain, params)
}

/// [`create`] with an explicit durability policy.  The policy travels in the
/// encrypted header, so it costs nothing observable: a coded object's
/// creation is indistinguishable from a plain one's.
pub fn create_with_policy<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    kind: ObjectKind,
    policy: Policy,
    params: &StegParams,
) -> StegResult<HiddenObject> {
    policy.validate()?;
    let mut txn = fs.begin_txn();
    let copies = policy.meta_copies();
    // Claiming a slot is a separate step from finding it, so two creators
    // racing down different candidate sequences may pick the same free block.
    // The loser's atomic claim fails and it simply probes on: the next walk
    // skips the now-allocated block.  Policies with redundancy claim the
    // first `copies` free candidates of the same keyed sequence — the extra
    // header copies sit on blocks the locator visits anyway, so retrieval
    // falls through to a replica when the primary is damaged and the
    // on-disk image stays as uniform as any other allocation.
    let header_blocks = {
        let sb = fs.superblock().clone();
        let mut locator = candidate_sequence(physical_name, keys, sb.total_blocks);
        let mut claimed = Vec::with_capacity(copies);
        for _ in 0..params.max_locator_probes.max(64) {
            if claimed.len() == copies {
                break;
            }
            let candidate = locator.next_candidate();
            if sb.in_data_region(candidate)
                && !fs.is_block_allocated(candidate)
                && txn.try_allocate_specific_block(candidate)?
            {
                claimed.push(candidate);
            }
        }
        if claimed.len() < copies {
            // The transaction's drop returns any partial claims.
            return Err(StegError::NoSpace);
        }
        claimed
    };
    let header_block = header_blocks[0];

    let mut header = HiddenHeader::with_policy(*keys.signature(), kind, policy);
    header.header_replicas = header_blocks;
    // Stock the internal free pool (§3.1: "StegFS straightaway allocates
    // several blocks to the file").
    for _ in 0..params.free_blocks_max {
        match txn.allocate_random_block() {
            Ok(b) => header.free_pool.push(b),
            Err(stegfs_fs::FsError::NoSpace) => break,
            Err(e) => return Err(e.into()),
        }
    }

    publish_header(&mut txn, keys, header_block, &header)?;
    txn.commit()?;
    Ok(HiddenObject {
        header_block,
        header,
        probes: 1,
    })
}

/// Open an existing hidden object by walking the candidate sequence.
pub fn open<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    params: &StegParams,
) -> StegResult<HiddenObject> {
    open_observed(fs, physical_name, keys, params, None)
}

/// [`open`] with a degradation signal: finding the header at a replica
/// instead of its primary block means the primary was damaged (or claimed
/// by someone who destroyed it) and redundancy absorbed the loss.
pub fn open_observed<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    params: &StegParams,
    health: Option<&ReadHealth>,
) -> StegResult<HiddenObject> {
    let Located {
        block,
        header,
        probes,
    } = locate_header(fs, physical_name, keys, params.max_locator_probes)?;
    if !header.header_replicas.is_empty() && header.header_replicas.first() != Some(&block) {
        mark(health);
    }
    Ok(HiddenObject {
        header_block: block,
        header,
        probes,
    })
}

/// [`open`], accelerated by the read cache: a hit returns the decrypted
/// header without touching the device (and reports `probes == 0`); a miss
/// walks the locator as usual and installs the result.  Misses — including
/// wrong-key lookups — behave exactly like [`open`], so deniability is
/// untouched.
pub fn open_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    params: &StegParams,
    cache: &ReadCache,
) -> StegResult<HiddenObject> {
    open_cached_observed(fs, physical_name, keys, params, cache, None)
}

/// [`open_cached`] with a degradation signal (see [`open_observed`]).  A
/// cache hit skips the device entirely, so only misses can observe damage.
pub fn open_cached_observed<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    params: &StegParams,
    cache: &ReadCache,
    health: Option<&ReadHealth>,
) -> StegResult<HiddenObject> {
    if let Some(hit) = cache.lookup_header(keys.signature()) {
        return Ok(HiddenObject {
            header_block: hit.header_block,
            header: hit.header,
            probes: 0,
        });
    }
    let started = cache.begin();
    let obj = open_observed(fs, physical_name, keys, params, health)?;
    cache.store_header(
        keys.signature(),
        started,
        obj.header_block,
        obj.header.clone(),
    );
    Ok(obj)
}

/// The extent map of `obj`, from the cache when it still matches the
/// caller's header, or from a chain walk (whose result is installed).
/// Returns the entry generation used to tag this object's plaintext blocks.
fn cached_chain<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    cache: &ReadCache,
    health: Option<&ReadHealth>,
) -> StegResult<(u64, Arc<ExtentList>)> {
    if let Some(hit) = cache.lookup_extents(
        keys.signature(),
        obj.header.inode_chain,
        obj.header.data_block_count,
    ) {
        return Ok(hit);
    }
    let started = cache.begin();
    // Guard against cache poisoning: `obj` may be a *stale* snapshot (a
    // long-lived core-level handle whose object was since rewritten through
    // a name-based path).  Its chain walk must then serve only this caller —
    // installing it would hand the stale header to every fresh open.  The
    // header is trusted when the cached entry still vouches for it; with no
    // entry (first read, or invalidated since the handle opened) the header
    // block on disk is re-read and compared — one extra block on a path that
    // is about to walk the whole chain anyway.
    let trusted = match cache.peek_header(keys.signature()) {
        Some((header_block, header)) => header_block == obj.header_block && header == obj.header,
        None => cache.enabled() && header_matches_disk(fs, keys, obj)?,
    };
    let (data_blocks, chain_blocks, share_csums) = read_chain(fs, keys, obj, health)?;
    let extents = Arc::new(ExtentList {
        data_blocks,
        chain_blocks,
        share_csums,
        coding: obj.header.policy.coding(),
    });
    let gen = if trusted {
        cache.store_extents(
            keys.signature(),
            started,
            obj.header_block,
            obj.header.clone(),
            Arc::clone(&extents),
        )
    } else {
        crate::readcache::DEAD_GEN
    };
    Ok((gen, extents))
}

/// True if the on-disk header block still decrypts and parses to exactly the
/// header the caller holds.
fn header_matches_disk<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
) -> StegResult<bool> {
    let mut raw = scratch::take(fs.block_size());
    fs.read_raw_blocks_into(&[obj.header_block], &mut raw)?;
    keys.decrypt_block(obj.header_block, &mut raw);
    let parsed = HiddenHeader::parse_if_match(&raw, keys.signature(), fs.superblock().total_blocks);
    scratch::put(raw);
    Ok(parsed.is_some_and(|h| h == obj.header))
}

/// Read the plaintext of `span` (block numbers in logical order), serving
/// what it can from the plaintext cache and fetching the rest — plus any
/// not-yet-cached `readahead` blocks — in **one** batched device
/// submission.  Fetched blocks are decrypted once and installed under `gen`.
/// The returned buffer comes from the scratch pool.
fn read_blocks_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    gen: u64,
    span: &[u64],
    readahead: &[u64],
    cache: &ReadCache,
) -> StegResult<Vec<u8>> {
    let bs = fs.block_size();
    let mut out = scratch::take(span.len() * bs);
    let mut fetch: Vec<u64> = Vec::new();
    let mut fetch_slot: Vec<usize> = Vec::new();
    for (i, &block) in span.iter().enumerate() {
        if !cache.get_block_into(gen, block, &mut out[i * bs..(i + 1) * bs]) {
            fetch.push(block);
            fetch_slot.push(i);
        }
    }
    let demand = fetch.len();
    fetch.extend(
        readahead
            .iter()
            .copied()
            .filter(|&b| !cache.contains_block(gen, b)),
    );
    if !fetch.is_empty() {
        let mut buf = scratch::take(fetch.len() * bs);
        fs.read_raw_blocks_into(&fetch, &mut buf)?;
        for (j, &block) in fetch.iter().enumerate() {
            let chunk = &mut buf[j * bs..(j + 1) * bs];
            keys.decrypt_block(block, chunk);
            cache.put_block(keys.signature(), gen, block, chunk);
        }
        for (j, &slot) in fetch_slot.iter().enumerate() {
            debug_assert!(j < demand);
            out[slot * bs..(slot + 1) * bs].copy_from_slice(&buf[j * bs..(j + 1) * bs]);
        }
        scratch::put(buf);
    }
    Ok(out)
}

/// One resolved node of a (possibly replicated) inode chain.
struct ChainNode {
    /// The node's replica blocks, primary first (`effective_meta_copies`
    /// entries; a single entry on legacy/plain chains).
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
    plain: Vec<u8>,
}

/// Walk the inode chain, falling back through each node's replicas.  With
/// one metadata copy the walk is the legacy one: a damaged node is a hard
/// error.  With `copies > 1` a node is served by its first replica whose
/// plaintext checksum (recorded in the predecessor, or the header for the
/// head) validates and parses; only a node with **zero** live replicas
/// fails — closed, in the same deniable error family as lost data shares.
fn walk_chain<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    health: Option<&ReadHealth>,
    verify_all: bool,
) -> StegResult<Vec<ChainNode>> {
    let total = fs.superblock().total_blocks;
    let coded = obj.header.policy.is_coded();
    let copies = effective_meta_copies(&obj.header);
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
            let buf = read_decrypted(fs, keys, block)?;
            let parsed = InodeChainBlock::deserialize_meta(&buf, total, coded, 1);
            let plain = buf.clone();
            scratch::put(buf);
            ChainNode {
                blocks: vec![block],
                damaged: Vec::new(),
                node: parsed?,
                plain,
            }
        } else {
            let mut damaged: Vec<u64> = Vec::new();
            let mut good: Option<(InodeChainBlock, Vec<u8>)> = None;
            for &block in &candidates {
                if good.is_some() && !verify_all {
                    break;
                }
                if block == NO_BLOCK || block >= total {
                    // An implausible replica pointer cannot be read (or
                    // repaired in place); skip it.
                    continue;
                }
                let buf = read_decrypted(fs, keys, block)?;
                let live = coding::share_checksum(&buf) == expected_csum;
                if live {
                    match InodeChainBlock::deserialize_meta(&buf, total, coded, copies) {
                        Ok(parsed) => {
                            if good.is_none() {
                                good = Some((parsed, buf.clone()));
                            }
                        }
                        Err(_) => damaged.push(block),
                    }
                } else {
                    damaged.push(block);
                }
                scratch::put(buf);
            }
            let Some((parsed, plain)) = good else {
                return Err(coding::damage(format!(
                    "inode chain node has 0 live replicas of {copies}"
                )));
            };
            if !damaged.is_empty() {
                mark(health);
            }
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
            return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
                "inode chain loops".into(),
            )));
        }
        candidates = next_candidates;
    }
}

/// Read the inode chain of `obj`, returning the data blocks in logical order
/// (for coded objects: share blocks in group-major order), every chain block
/// (all replicas, node-major), and the per-share checksums (empty for plain
/// objects).
fn read_chain<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    health: Option<&ReadHealth>,
) -> StegResult<(Vec<u64>, Vec<u64>, Vec<u64>)> {
    let nodes = walk_chain(fs, keys, obj, health, false)?;
    let mut data_blocks = Vec::with_capacity(obj.header.data_block_count as usize);
    let mut share_csums = Vec::new();
    let mut chain_blocks = Vec::new();
    for node in &nodes {
        chain_blocks.extend_from_slice(&node.blocks);
        data_blocks.extend_from_slice(&node.node.pointers);
        share_csums.extend_from_slice(&node.node.csums);
    }
    Ok((data_blocks, chain_blocks, share_csums))
}

/// Block `i` of a buffer of concatenated `bs`-byte blocks.
fn nth_block(buf: &[u8], i: usize, bs: usize) -> &[u8] {
    &buf[i * bs..(i + 1) * bs]
}

/// Decode the requested groups of a coded object, returning `m * block_size`
/// plaintext bytes per group in `groups` order (a scratch-pool buffer).
///
/// Two-phase fetch: the first `m` shares of every group come up in one
/// batched submission (the common, undamaged case reads exactly as many
/// blocks as a plain object would); any group with a checksum mismatch then
/// falls back through its remaining shares — again one batch for all
/// degraded groups — instead of erroring.  A group with fewer than `m`
/// surviving shares fails closed: the error carries no partial plaintext.
///
/// Shares are never copied: each group is reconstructed from slices of the
/// two batched read buffers straight into its place in the output.
fn decode_groups<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    codec: &mut GroupCodec,
    data_blocks: &[u64],
    share_csums: &[u64],
    groups: &[usize],
    health: Option<&ReadHealth>,
) -> StegResult<Vec<u8>> {
    let bs = fs.block_size();
    let (m, n) = codec.shares();
    let extra = n - m;
    if data_blocks.len() != share_csums.len() || !data_blocks.len().is_multiple_of(n) {
        return Err(coding::damage(
            "coded chain does not pair every share with a checksum".into(),
        ));
    }
    let primary: Vec<u64> = groups
        .iter()
        .flat_map(|&g| data_blocks[g * n..g * n + m].iter().copied())
        .collect();
    let primary_buf = read_decrypted_many(fs, keys, &primary)?;
    // Per requested group, the (0-based) shares whose checksum verified.
    let mut live: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    let mut degraded: Vec<usize> = Vec::new();
    for (gi, &g) in groups.iter().enumerate() {
        let ok = |&j: &usize| {
            coding::share_checksum(nth_block(&primary_buf, gi * m + j, bs))
                == share_csums[g * n + j]
        };
        live.push((0..m).filter(ok).collect());
        if live[gi].len() < m {
            degraded.push(gi);
        }
    }
    if !degraded.is_empty() {
        // The read will be served (or fail closed) below, but either way the
        // primary shares alone no longer carry the object.
        mark(health);
    }
    let fallback: Vec<u64> = degraded
        .iter()
        .flat_map(|&gi| {
            let g = groups[gi];
            data_blocks[g * n + m..(g + 1) * n].iter().copied()
        })
        .collect();
    let fallback_buf = match read_decrypted_many(fs, keys, &fallback) {
        Ok(buf) => buf,
        Err(e) => {
            scratch::put(primary_buf);
            return Err(e);
        }
    };
    // A degraded group's fallback shares sit at its rank among the degraded
    // groups; every group's primary shares sit at its own position.
    let mut rank = vec![0; groups.len()];
    for (di, &gi) in degraded.iter().enumerate() {
        rank[gi] = di;
    }
    let share_at = |gi: usize, j: usize| {
        if j < m {
            nth_block(&primary_buf, gi * m + j, bs)
        } else {
            nth_block(&fallback_buf, rank[gi] * extra + j - m, bs)
        }
    };
    for &gi in &degraded {
        let g = groups[gi];
        let ok = |&j: &usize| coding::share_checksum(share_at(gi, j)) == share_csums[g * n + j];
        live[gi].extend((m..n).filter(ok));
    }
    let mut out = scratch::take(groups.len() * m * bs);
    let mut decode = || -> StegResult<()> {
        let mut good: Vec<(u8, &[u8])> = Vec::with_capacity(m);
        for (gi, (&g, plain)) in groups.iter().zip(out.chunks_exact_mut(m * bs)).enumerate() {
            if live[gi].len() < m {
                return Err(coding::damage(format!(
                    "share group {g} has {} live shares, {m} required",
                    live[gi].len()
                )));
            }
            good.clear();
            good.extend(
                live[gi][..m]
                    .iter()
                    .map(|&j| ((j + 1) as u8, share_at(gi, j))),
            );
            codec.reconstruct_group(&good, plain)?;
        }
        Ok(())
    };
    let decoded = decode();
    scratch::put(primary_buf);
    scratch::put(fallback_buf);
    match decoded {
        Ok(()) => Ok(out),
        Err(e) => {
            scratch::put(out);
            Err(e)
        }
    }
}

/// Read logical blocks `first..=last` of a coded object, serving what it can
/// from the plaintext cache (keyed by *logical index* — the share blocks
/// themselves are never cached) and decoding the missing groups.  Every
/// freshly decoded block is installed under `gen`, so a warm object costs
/// neither device reads nor Vandermonde solves.  Returns a scratch-pool
/// buffer of `(last - first + 1)` blocks.
#[allow(clippy::too_many_arguments)]
fn read_coded_range<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    gen: u64,
    extents: &ExtentList,
    m: usize,
    n: usize,
    first: usize,
    last: usize,
    cache: &ReadCache,
    health: Option<&ReadHealth>,
) -> StegResult<Vec<u8>> {
    let bs = fs.block_size();
    let logical_count = (extents.data_blocks.len() / n.max(1)) * m;
    if last >= logical_count {
        return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
            "hidden object shorter than its size field".into(),
        )));
    }
    let mut out = scratch::take((last - first + 1) * bs);
    let mut missing: Vec<usize> = Vec::new();
    for i in first..=last {
        let slot = (i - first) * bs;
        if !cache.get_block_into(gen, i as u64, &mut out[slot..slot + bs]) {
            let g = i / m;
            if missing.last() != Some(&g) {
                missing.push(g);
            }
        }
    }
    if !missing.is_empty() {
        let mut codec = GroupCodec::new(m, n, bs);
        let decoded = match decode_groups(
            fs,
            keys,
            &mut codec,
            &extents.data_blocks,
            &extents.share_csums,
            &missing,
            health,
        ) {
            Ok(d) => d,
            Err(e) => {
                scratch::put(out);
                return Err(e);
            }
        };
        for (gi, &g) in missing.iter().enumerate() {
            for k in 0..m {
                let logical = g * m + k;
                let chunk = &decoded[(gi * m + k) * bs..(gi * m + k + 1) * bs];
                cache.put_block(keys.signature(), gen, logical as u64, chunk);
                if logical >= first && logical <= last {
                    let slot = (logical - first) * bs;
                    out[slot..slot + bs].copy_from_slice(chunk);
                }
            }
        }
        scratch::put(decoded);
    }
    Ok(out)
}

/// Read the full contents of a hidden object: one chain walk, then the whole
/// extent list in one batched submission.
pub fn read<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
) -> StegResult<Vec<u8>> {
    read_cached(fs, keys, obj, ReadCache::disabled())
}

/// [`read`], served through the read cache: a warm object costs neither
/// device reads nor decryption.
pub fn read_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    cache: &ReadCache,
) -> StegResult<Vec<u8>> {
    read_cached_observed(fs, keys, obj, cache, None)
}

/// [`read_cached`] with a degradation signal: any fallback decode or chain
/// replica fallback raises `health` so the caller can queue a read-repair.
pub fn read_cached_observed<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    cache: &ReadCache,
    health: Option<&ReadHealth>,
) -> StegResult<Vec<u8>> {
    let (gen, extents) = cached_chain(fs, keys, obj, cache, health)?;
    let mut out = if let Some((m, n)) = obj.header.policy.coding() {
        if obj.header.size == 0 {
            return Ok(Vec::new());
        }
        let last = (obj.header.size as usize - 1) / fs.block_size();
        read_coded_range(fs, keys, gen, &extents, m, n, 0, last, cache, health)?
    } else {
        read_blocks_cached(fs, keys, gen, &extents.data_blocks, &[], cache)?
    };
    out.truncate(obj.header.size as usize);
    Ok(out)
}

/// Read `len` bytes starting at `offset` (clamped to the object size).
pub fn read_range<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    offset: u64,
    len: usize,
) -> StegResult<Vec<u8>> {
    read_range_cached(fs, keys, obj, offset, len, 0, ReadCache::disabled())
}

/// [`read_range`], served through the read cache, with optional streaming
/// readahead: up to `readahead_blocks` blocks past the requested range ride
/// along in the same batched submission and land in the plaintext cache, so
/// a sequential scan pays one device round-trip per readahead window
/// instead of one per request.
pub fn read_range_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    offset: u64,
    len: usize,
    readahead_blocks: usize,
    cache: &ReadCache,
) -> StegResult<Vec<u8>> {
    read_range_cached_observed(fs, keys, obj, offset, len, readahead_blocks, cache, None)
}

/// [`read_range_cached`] with a degradation signal (see
/// [`read_cached_observed`]).
#[allow(clippy::too_many_arguments)]
pub fn read_range_cached_observed<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    offset: u64,
    len: usize,
    readahead_blocks: usize,
    cache: &ReadCache,
    health: Option<&ReadHealth>,
) -> StegResult<Vec<u8>> {
    if len == 0 || offset >= obj.header.size {
        return Ok(Vec::new());
    }
    let end = (offset + len as u64).min(obj.header.size);
    let bs = fs.block_size() as u64;
    let (gen, extents) = cached_chain(fs, keys, obj, cache, health)?;
    let first = (offset / bs) as usize;
    let last = ((end - 1) / bs) as usize;
    if let Some((m, n)) = obj.header.policy.coding() {
        // Decoding already brings in whole groups of `m` blocks (which the
        // cache keeps), so there is no separate readahead window.
        let plain = read_coded_range(fs, keys, gen, &extents, m, n, first, last, cache, health)?;
        let from = (offset - first as u64 * bs) as usize;
        let to = (end - first as u64 * bs) as usize;
        let out = plain[from..to].to_vec();
        scratch::put(plain);
        return Ok(out);
    }
    let data_blocks = &extents.data_blocks;
    let span = data_blocks.get(first..=last).ok_or_else(|| {
        StegError::Fs(stegfs_fs::FsError::Corrupt(
            "hidden object shorter than its size field".into(),
        ))
    })?;
    // Readahead only pays off when the prefetched plaintext can be kept.
    let readahead = if cache.enabled() && readahead_blocks > 0 {
        let ra_end = (last + 1)
            .saturating_add(readahead_blocks)
            .min(data_blocks.len());
        &data_blocks[last + 1..ra_end]
    } else {
        &data_blocks[..0]
    };
    // One batched submission covers the whole extent of the range (plus the
    // readahead window).
    let plain = read_blocks_cached(fs, keys, gen, span, readahead, cache)?;
    let from = (offset - first as u64 * bs) as usize;
    let to = (end - first as u64 * bs) as usize;
    let out = plain[from..to].to_vec();
    scratch::put(plain);
    Ok(out)
}

/// Overwrite part of an existing hidden object in place.  The range must lie
/// within the object's current size; blocks are decrypted, patched and
/// re-encrypted individually (the multi-user experiments update files at
/// block granularity).  Takes `&mut` because a coded patch under replicated
/// metadata refreshes the header's chain checksum (see
/// `write_range_coded`); plain objects leave the header untouched.
pub fn write_range<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    offset: u64,
    data: &[u8],
) -> StegResult<()> {
    write_range_cached(fs, keys, obj, offset, data, ReadCache::disabled())
}

/// [`write_range`], accelerated by the read cache: the extent map comes
/// from the cache when warm, and since an in-place patch leaves the chain
/// where it is the extent list is re-installed after the commit — only the
/// plaintext blocks drop (their generation dies with the invalidation),
/// which is exactly the set the patch made stale.  A coded patch walks its
/// chain on disk (it rewrites the nodes it patches) and re-installs the
/// same blocks with the refreshed share checksums, so the next read of the
/// object does not walk and re-verify the chain again.  Any failure only
/// invalidates.
pub fn write_range_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    offset: u64,
    data: &[u8],
    cache: &ReadCache,
) -> StegResult<()> {
    if data.is_empty() {
        return Ok(());
    }
    let end = offset + data.len() as u64;
    if end > obj.header.size {
        return Err(StegError::Fs(stegfs_fs::FsError::FileTooLarge {
            requested: end,
            maximum: obj.header.size,
        }));
    }
    if let Some((m, n)) = obj.header.policy.coding() {
        let outcome = write_range_coded(fs, keys, obj, offset, data, m, n);
        return republish(keys, obj, outcome, cache);
    }
    let (_, extents) = match cached_chain(fs, keys, obj, cache, None) {
        Ok(hit) => hit,
        Err(e) => {
            cache.invalidate(keys.signature());
            return Err(e);
        }
    };
    let outcome = write_range_plain(fs, keys, offset, data, &extents.data_blocks)
        .map(|()| extents.as_ref().clone());
    republish(keys, obj, outcome, cache)
}

/// The in-place patch core of [`write_range`] for plain objects, against an
/// already-resolved extent list.
fn write_range_plain<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    offset: u64,
    data: &[u8],
    data_blocks: &[u64],
) -> StegResult<()> {
    let end = offset + data.len() as u64;
    let bs = fs.block_size() as u64;
    let first = (offset / bs) as usize;
    let last = ((end - 1) / bs) as usize;
    let span = data_blocks.get(first..=last).ok_or_else(|| {
        StegError::Fs(stegfs_fs::FsError::Corrupt(
            "hidden object shorter than its size field".into(),
        ))
    })?;
    // Batched read-modify-write: only a partial head or tail block needs its
    // old contents (fully covered middle blocks are rebuilt from `data`; the
    // edge selection is the shared [`stegfs_fs::rmw`] plan), so at most two
    // edge blocks come up in one submission and the whole patched extent
    // goes back down in one submission.  The patch is one transaction: an
    // in-place update of live data is exactly the write a crash must not
    // tear.
    let span_start = first as u64 * bs;
    let bs = bs as usize;
    let plan = stegfs_fs::rmw::plan(span, offset, end, span_start, bs);
    let edge_plain = read_decrypted_many(fs, keys, &plan.edges)?;
    let mut plain = scratch::take(span.len() * bs);
    plan.seed_edges(&edge_plain, &mut plain, bs);
    scratch::put(edge_plain);
    let from = (offset - span_start) as usize;
    plain[from..from + data.len()].copy_from_slice(data);
    let mut txn = fs.begin_txn();
    write_encrypted_many(&mut txn, keys, span, plain)?;
    txn.commit()?;
    Ok(())
}

/// [`write_range`] for coded objects: decode the partially covered edge
/// groups (with the usual fall-back through surviving shares), rebuild every
/// fully covered group from `data` alone — the same edge-only
/// [`stegfs_fs::rmw`] plan as the plain path, at group granularity, so an
/// aligned patch reads no share at all — then re-encode and rewrite those
/// groups' full share extents together with every chain node whose checksum
/// entries they own.  One transaction, so a crash never leaves a group whose
/// shares disagree with its recorded checksums.
///
/// A group damaged beyond tolerance therefore heals when a patch covers it
/// completely, while a patch that needs any of its old bytes still fails
/// closed before anything is written.
///
/// Under replicated metadata a patched node's new plaintext changes the
/// checksum its *predecessor* records, so the rewrite cascades from the last
/// affected node back to the head and into the header (`chain_csum`) — which
/// is why this path takes `&mut` and refreshes the caller's header snapshot.
///
/// Returns the object's extent list as the patch leaves it: the blocks the
/// walk found, with the patched groups' fresh share checksums.
fn write_range_coded<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    offset: u64,
    data: &[u8],
    m: usize,
    n: usize,
) -> StegResult<ExtentList> {
    let bs = fs.block_size();
    let end = offset + data.len() as u64;
    let copies = effective_meta_copies(&obj.header);
    let mut nodes = walk_chain(fs, keys, obj, None, false)?;
    let data_blocks: Vec<u64> = nodes
        .iter()
        .flat_map(|nd| nd.node.pointers.iter().copied())
        .collect();
    let mut share_csums: Vec<u64> = nodes
        .iter()
        .flat_map(|nd| nd.node.csums.iter().copied())
        .collect();
    let group_bytes = m * bs;
    let g0 = (offset / group_bytes as u64) as usize;
    let g1 = ((end - 1) / group_bytes as u64) as usize;
    if g1 >= data_blocks.len() / n.max(1) {
        return Err(StegError::Fs(stegfs_fs::FsError::Corrupt(
            "hidden object shorter than its size field".into(),
        )));
    }
    // The plan's "blocks" are group indices: its edges are the (at most two)
    // groups whose old plaintext the patch keeps part of.
    let groups: Vec<u64> = (g0 as u64..=g1 as u64).collect();
    let span_start = (g0 * group_bytes) as u64;
    let plan = stegfs_fs::rmw::plan(&groups, offset, end, span_start, group_bytes);
    let edges: Vec<usize> = plan.edges.iter().map(|&g| g as usize).collect();
    let mut codec = GroupCodec::new(m, n, bs);
    let edge_plain = decode_groups(
        fs,
        keys,
        &mut codec,
        &data_blocks,
        &share_csums,
        &edges,
        None,
    )?;
    let mut plain = scratch::take(groups.len() * group_bytes);
    plan.seed_edges(&edge_plain, &mut plain, group_bytes);
    scratch::put(edge_plain);
    let from = (offset - span_start) as usize;
    plain[from..from + data.len()].copy_from_slice(data);
    let (payload, new_csums) = codec.encode_groups(&plain);
    scratch::put(plain);

    let first_entry = g0 * n;
    let last_entry = (g1 + 1) * n - 1;
    let span = &data_blocks[first_entry..=last_entry];
    let mut txn = fs.begin_txn();
    write_encrypted_many(&mut txn, keys, span, payload)?;
    let cap = InodeChainBlock::capacity_meta(bs, true, copies).max(1);
    let first_node = first_entry / cap;
    let last_node = last_entry / cap;
    for (node_idx, nd) in nodes
        .iter_mut()
        .enumerate()
        .take(last_node + 1)
        .skip(first_node)
    {
        let node_start = node_idx * cap;
        for (i, csum) in nd.node.csums.iter_mut().enumerate() {
            let e = node_start + i;
            if e >= first_entry && e <= last_entry {
                *csum = new_csums[e - first_entry];
            }
        }
    }
    let new_header = if copies == 1 {
        for nd in nodes.iter().take(last_node + 1).skip(first_node) {
            write_encrypted(
                &mut txn,
                keys,
                nd.blocks[0],
                &nd.node.serialize_meta(bs, true, 1),
            )?;
        }
        None
    } else {
        // Cascade: rewrite nodes `last_node..=0` back to front so each
        // predecessor records its successor's fresh checksum, then republish
        // the header with the head node's checksum.  Every replica of a
        // rewritten node gets the identical plaintext (which also heals any
        // replica that had silently rotted).
        let mut child_csum: Option<u64> = None;
        let mut plains: Vec<Vec<u8>> = vec![Vec::new(); last_node + 1];
        for (node_idx, p) in plains.iter_mut().enumerate().rev() {
            if let Some(c) = child_csum {
                nodes[node_idx].node.next_csum = c;
            }
            *p = nodes[node_idx].node.serialize_meta(bs, true, copies);
            child_csum = Some(coding::share_checksum(p));
        }
        for (node_idx, p) in plains.iter().enumerate() {
            for &b in &nodes[node_idx].blocks {
                write_encrypted(&mut txn, keys, b, p)?;
            }
        }
        let mut header = obj.header.clone();
        header.chain_csum = child_csum.expect("coded patch touches at least one node");
        publish_header(&mut txn, keys, obj.header_block, &header)?;
        Some(header)
    };
    txn.commit()?;
    if let Some(header) = new_header {
        obj.header = header;
    }
    share_csums[first_entry..=last_entry].copy_from_slice(&new_csums);
    Ok(ExtentList {
        chain_blocks: nodes.into_iter().flat_map(|nd| nd.blocks).collect(),
        data_blocks,
        share_csums,
        coding: Some((m, n)),
    })
}

/// Take one block for new data: prefer the internal free pool (choosing a
/// random member, per §3.1), then a fresh random block, and only under space
/// pressure a block the current operation is recycling from the object's
/// previous incarnation.
///
/// Preferring fresh blocks keeps rewrites *churning the bitmap* — dummy-file
/// maintenance depends on rewrites allocating new random blocks and freeing
/// old ones, so snapshot differencing cannot attribute deltas to real data.
/// Recycled blocks stay marked allocated in the bitmap throughout (they are
/// never freed mid-operation), so a failing rewrite can never leave the
/// object's still-current header pointing at blocks another thread has been
/// handed; on a nearly full volume they are consumed in place, which is what
/// lets a rewrite or truncation succeed without double the footprint.
/// Blocks drawn fresh from the volume are tracked by the transaction, which
/// returns them to the volume if the operation fails before committing
/// (with the shared-reference API a concurrent writer can consume the space
/// between our capacity check and the allocations).
fn take_block<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    header: &mut HiddenHeader,
    rng: &mut DeterministicRng,
    recycled: &mut Vec<u64>,
) -> StegResult<u64> {
    if !header.free_pool.is_empty() {
        let idx = rng.next_below(header.free_pool.len() as u64) as usize;
        return Ok(header.free_pool.swap_remove(idx));
    }
    match txn.allocate_random_block() {
        Ok(block) => Ok(block),
        Err(stegfs_fs::FsError::NoSpace) if !recycled.is_empty() => {
            Ok(recycled.pop().expect("checked non-empty"))
        }
        Err(e) => Err(e.into()),
    }
}

/// Replace the entire contents of a hidden object with `data`.
///
/// This is the write path the experiments exercise (whole-file writes, as in
/// the paper's workload).  Old data and chain blocks are recycled through the
/// free pool; new blocks are drawn from the pool first and then from random
/// free space.
pub fn write<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    data: &[u8],
    params: &StegParams,
    rng: &mut DeterministicRng,
) -> StegResult<()> {
    write_cached(fs, keys, obj, data, params, rng, ReadCache::disabled())
}

/// [`write()`], accelerated by the read cache: the old incarnation's extent
/// map — the chain walk every rewrite starts with — comes from the cache
/// when warm, so a warm rewrite does **zero chain-walk I/O**.  After the
/// commit the object's entry is invalidated and the *new* header + extent
/// list are installed in its place (invalidate-on-publish: plaintext blocks
/// of the old incarnation die with its generation), so the next read *or*
/// write of the object is warm too.  A failed write only invalidates.
pub fn write_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    data: &[u8],
    params: &StegParams,
    rng: &mut DeterministicRng,
    cache: &ReadCache,
) -> StegResult<()> {
    let (old_data, old_chain) = match chain_for_update(fs, keys, obj, cache) {
        Ok(chain) => chain,
        Err(e) => {
            cache.invalidate(keys.signature());
            return Err(e);
        }
    };
    let outcome = write_with_extents(fs, keys, obj, data, params, rng, old_data, old_chain);
    republish(keys, obj, outcome, cache)
}

/// The old chain of an object about to be rewritten: from the extent cache
/// when warm (zero chain-walk I/O), from the disk walk otherwise.
fn chain_for_update<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    cache: &ReadCache,
) -> StegResult<(Vec<u64>, Vec<u64>)> {
    let (_, extents) = cached_chain(fs, keys, obj, cache, None)?;
    Ok((extents.data_blocks.clone(), extents.chain_blocks.clone()))
}

/// Publish a mutation's outcome to the cache: the old incarnation's entry
/// (and its plaintext blocks) is dropped unconditionally, and on success the
/// freshly committed header + extent list are installed in its place.  On a
/// failed mutation the entry is only dropped — on an unjournaled volume the
/// failure may have torn the object, and even on a journaled one the header
/// snapshot in `obj` is no longer vouched for.
fn republish(
    keys: &ObjectKeys,
    obj: &HiddenObject,
    outcome: StegResult<ExtentList>,
    cache: &ReadCache,
) -> StegResult<()> {
    cache.invalidate(keys.signature());
    let extents = outcome?;
    let started = cache.begin();
    cache.store_extents(
        keys.signature(),
        started,
        obj.header_block,
        obj.header.clone(),
        Arc::new(extents),
    );
    Ok(())
}

/// The rewrite core of [`write()`] / [`write_cached`], against an
/// already-resolved old chain (`old_data`, `old_chain`).  Returns the new
/// incarnation's extent list on success (with `obj.header` updated).
#[allow(clippy::too_many_arguments)]
fn write_with_extents<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    data: &[u8],
    params: &StegParams,
    rng: &mut DeterministicRng,
    old_data: Vec<u64>,
    old_chain: Vec<u64>,
) -> StegResult<ExtentList> {
    let bs = fs.block_size();
    let total = fs.superblock().total_blocks;
    let coded = obj.header.policy.is_coded();

    // Encode first: a coded object stores `groups * n` share blocks, a plain
    // one `ceil(len / bs)` data blocks (the zero tail pads the final block
    // or group either way).
    let (payload, csums) = match obj.header.policy.coding() {
        Some((m, n)) => GroupCodec::new(m, n, bs).encode_groups(data),
        None => {
            let mut padded = scratch::take(data.len().div_ceil(bs) * bs);
            padded[..data.len()].copy_from_slice(data);
            (padded, Vec::new())
        }
    };
    let needed = (payload.len() / bs) as u64;

    // Make sure the volume can hold the new contents *before* recycling
    // anything: refusing up front leaves the object untouched, whereas the
    // old freed-then-checked order let a refused update return the object's
    // own data blocks to the volume.  The check counts the recycled blocks
    // as available because they come back to us below.
    let copies = effective_meta_copies(&obj.header);
    let chain_capacity = InodeChainBlock::capacity_meta(bs, coded, copies) as u64;
    let chain_needed = needed.div_ceil(chain_capacity.max(1)) * copies as u64;
    let available = fs.free_data_blocks()
        + obj.header.free_pool.len() as u64
        + old_data.len() as u64
        + old_chain.len() as u64;
    if available < needed + chain_needed {
        scratch::put(payload);
        return Err(StegError::NoSpace);
    }

    // The old blocks are *recycled in place*: they stay allocated in the
    // bitmap and are consumed directly as new data/chain blocks, never freed
    // mid-operation.  The capacity check above is advisory once other
    // writers run in parallel, so every fresh allocation is tracked by the
    // transaction, which hands it back if the operation fails part-way.  On
    // such a failure the object's previous header stays current and every
    // block it names is still allocated — on a journaled volume even the
    // recycled blocks' *contents* survive, because nothing reaches the
    // device before commit; write-through volumes keep the old caveat that
    // consumed recycled blocks may already be overwritten.
    let mut header = obj.header.clone();
    let mut recycled: Vec<u64> = old_data.into_iter().chain(old_chain).collect();
    let mut txn = fs.begin_txn();

    // Claim every data block first — every share of a coded object gets its
    // own independently drawn block — then push the whole extent list down
    // as one batched submission.
    let mut data_blocks = Vec::with_capacity(needed as usize);
    for _ in 0..needed {
        data_blocks.push(take_block(&mut txn, &mut header, rng, &mut recycled)?);
    }
    write_encrypted_many(&mut txn, keys, &data_blocks, payload)?;

    // Build the inode chain (allocate chain blocks the same way).
    let chain_blocks = build_chain(
        &mut txn,
        keys,
        &mut header,
        &data_blocks,
        &csums,
        rng,
        &mut recycled,
    )?;

    // Absorb surplus recycled blocks into the pool (a pure header-local
    // move — nothing is freed yet) and top the pool back up if it is
    // still below the lower bound.
    while header.free_pool.len() < params.free_blocks_max {
        match recycled.pop() {
            Some(b) => header.free_pool.push(b),
            None => break,
        }
    }
    top_up_pool(&mut txn, &mut header, params)?;

    // Publish the new header, release the old incarnation's surplus, and
    // commit.  The frees ride in the same transaction (deferred to its
    // commit on a journaled volume), so the surplus returns to the volume
    // only together with the header that stops referencing it; a failure
    // anywhere above drops the transaction and leaves every block the old
    // header names allocated.
    header.size = data.len() as u64;
    header.data_block_count = data_blocks.len() as u64;
    header.inode_chain = chain_blocks.first().copied().unwrap_or(NO_BLOCK);
    debug_assert!(header.inode_chain == NO_BLOCK || header.inode_chain < total);
    publish_header(&mut txn, keys, obj.header_block, &header)?;
    for b in recycled {
        txn.free_block(b)?;
    }
    txn.commit()?;
    let coding = header.policy.coding();
    obj.header = header;
    Ok(ExtentList {
        data_blocks,
        chain_blocks,
        share_csums: csums,
        coding,
    })
}

/// Serialise `data_blocks` (paired with `csums` for coded objects) into a
/// fresh inode chain, drawing chain blocks from the pool / free space;
/// returns the chain blocks in walk order (empty for an empty object — the
/// head is `first().copied().unwrap_or(NO_BLOCK)`).
///
/// Under a redundant [`Policy`] every chain node is written to
/// [`effective_meta_copies`] independently located blocks (the returned list
/// is node-major: node 0's primary and replicas, then node 1's, …), and the
/// nodes are serialised back to front so each can carry its successor's
/// plaintext checksum; the head node's checksum lands in
/// `header.chain_csum`, anchoring the whole chain to the header.
fn build_chain<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    keys: &ObjectKeys,
    header: &mut HiddenHeader,
    data_blocks: &[u64],
    csums: &[u64],
    rng: &mut DeterministicRng,
    recycled: &mut Vec<u64>,
) -> StegResult<Vec<u64>> {
    let copies = effective_meta_copies(header);
    if data_blocks.is_empty() {
        header.chain_replicas.clear();
        header.chain_csum = 0;
        return Ok(Vec::new());
    }
    let coded = header.policy.is_coded();
    debug_assert_eq!(csums.len(), if coded { data_blocks.len() } else { 0 });
    let bs = txn.block_size();
    let chain_capacity = InodeChainBlock::capacity_meta(bs, coded, copies).max(1);
    let chunks: Vec<&[u64]> = data_blocks.chunks(chain_capacity).collect();
    let mut chain_block_numbers = Vec::with_capacity(chunks.len() * copies);
    for _ in 0..chunks.len() * copies {
        chain_block_numbers.push(take_block(txn, header, rng, recycled)?);
    }
    // Serialise every chain node (back to front, so each node records its
    // successor's checksum), then write the whole chain — every replica of a
    // node carrying the identical plaintext — in one batched submission.
    let mut plain = scratch::take(chunks.len() * copies * bs);
    let mut succ_csum = 0u64;
    for (i, chunk) in chunks.iter().enumerate().rev() {
        let succ_start = (i + 1) * copies;
        let (next, next_replicas) = if i + 1 < chunks.len() {
            (
                chain_block_numbers[succ_start],
                chain_block_numbers[succ_start + 1..succ_start + copies].to_vec(),
            )
        } else {
            (NO_BLOCK, vec![NO_BLOCK; copies - 1])
        };
        let start = i * chain_capacity;
        let chain = InodeChainBlock {
            next,
            next_replicas: if copies > 1 {
                next_replicas
            } else {
                Vec::new()
            },
            next_csum: if copies > 1 { succ_csum } else { 0 },
            pointers: chunk.to_vec(),
            csums: if coded {
                csums[start..start + chunk.len()].to_vec()
            } else {
                Vec::new()
            },
        };
        let node_plain = chain.serialize_meta(bs, coded, copies);
        succ_csum = coding::share_checksum(&node_plain);
        for r in 0..copies {
            let slot = i * copies + r;
            plain[slot * bs..(slot + 1) * bs].copy_from_slice(&node_plain);
        }
    }
    write_encrypted_many(txn, keys, &chain_block_numbers, plain)?;
    header.chain_replicas = if copies > 1 {
        chain_block_numbers[1..copies].to_vec()
    } else {
        Vec::new()
    };
    header.chain_csum = if copies > 1 { succ_csum } else { 0 };
    Ok(chain_block_numbers)
}

/// Refill the internal free pool to `FB_max` once it has dropped below
/// `FB_min` (§3.1).  Newly allocated pool blocks are tracked by the
/// transaction: until the header naming them commits they exist only in a
/// local clone, so a failure returns them to the volume automatically.
fn top_up_pool<D: BlockDevice>(
    txn: &mut FsTxn<'_, D>,
    header: &mut HiddenHeader,
    params: &StegParams,
) -> StegResult<()> {
    if header.free_pool.len() < params.free_blocks_min {
        while header.free_pool.len() < params.free_blocks_max {
            match txn.allocate_random_block() {
                Ok(b) => header.free_pool.push(b),
                Err(stegfs_fs::FsError::NoSpace) => break,
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

/// Set the object's size to `new_len` at block granularity.
///
/// Unlike [`write()`](self::write), the cost is proportional to the *change* (plus the
/// chain rebuild), not to the object's total size: shrinking recycles only
/// the surplus blocks through the free pool and zeroes the cut tail of the
/// last kept block; growing appends zero-filled blocks.  Existing data
/// blocks are never rewritten, which is what makes appending through the
/// VFS O(append) instead of O(file).
///
/// Invariant maintained (and relied on): within the last data block, every
/// byte beyond `size` is zero — [`write()`](self::write) pads with zeros and the shrink
/// path below re-zeroes, so a later extension exposes zeros, never stale
/// plaintext.
pub fn resize<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    new_len: u64,
    params: &StegParams,
    rng: &mut DeterministicRng,
) -> StegResult<()> {
    resize_cached(fs, keys, obj, new_len, params, rng, ReadCache::disabled())
}

/// [`resize`], accelerated by the read cache: the old chain comes from the
/// cache when warm, and the new header + extent list are installed after
/// the commit (same invalidate-on-publish contract as [`write_cached`]).
pub fn resize_cached<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    new_len: u64,
    params: &StegParams,
    rng: &mut DeterministicRng,
    cache: &ReadCache,
) -> StegResult<()> {
    let old_len = obj.header.size;
    if new_len == old_len {
        return Ok(());
    }
    if obj.header.policy.is_coded() {
        // Re-encodes through the full write path, which republishes itself.
        return resize_coded(fs, keys, obj, new_len, params, rng, cache);
    }
    let (old_data, old_chain) = match chain_for_update(fs, keys, obj, cache) {
        Ok(chain) => chain,
        Err(e) => {
            cache.invalidate(keys.signature());
            return Err(e);
        }
    };
    let outcome = resize_with_extents(fs, keys, obj, new_len, params, rng, old_data, old_chain);
    republish(keys, obj, outcome, cache)
}

/// The plain-object core of [`resize`], against an already-resolved old
/// chain.  Returns the new incarnation's extent list on success.
#[allow(clippy::too_many_arguments)]
fn resize_with_extents<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    new_len: u64,
    params: &StegParams,
    rng: &mut DeterministicRng,
    old_data: Vec<u64>,
    old_chain: Vec<u64>,
) -> StegResult<ExtentList> {
    let old_len = obj.header.size;
    let bs = fs.block_size() as u64;
    let new_count = new_len.div_ceil(bs);
    let mut data_blocks = old_data;
    let mut header = obj.header.clone();
    // As in [`write()`](self::write): surplus blocks are recycled in place
    // (still allocated, consumed before fresh space, released only with the
    // commit), so a mid-operation failure never frees blocks the
    // still-current header references, and the transaction returns fresh
    // allocations to the volume on failure.
    let mut recycled: Vec<u64> = old_chain;
    let mut txn = fs.begin_txn();

    if new_len < old_len {
        recycled.extend(data_blocks.drain(new_count as usize..));
        // Zero the cut tail of the last kept block so the truncated bytes
        // cannot resurface on a later extension.
        let tail = (new_len % bs) as usize;
        if tail != 0 {
            let last = *data_blocks.last().expect("tail implies a kept block");
            let mut plain = read_decrypted(fs, keys, last)?;
            plain[tail..].fill(0);
            let result = write_encrypted(&mut txn, keys, last, &plain);
            scratch::put(plain);
            result?;
        }
    } else {
        // Capacity check before taking anything: the recycled chain
        // blocks come back to us, so count them as available.
        let extra = new_count.saturating_sub(data_blocks.len() as u64);
        let copies = effective_meta_copies(&header) as u64;
        let chain_capacity =
            InodeChainBlock::capacity_meta(fs.block_size(), false, copies as usize).max(1) as u64;
        let chain_needed = new_count.div_ceil(chain_capacity) * copies;
        let available =
            fs.free_data_blocks() + header.free_pool.len() as u64 + recycled.len() as u64;
        if available < extra + chain_needed {
            return Err(StegError::NoSpace);
        }
        // Claim the new tail blocks, then zero-fill them all in one
        // batched submission.
        let mut grown = Vec::with_capacity(extra as usize);
        for _ in 0..extra {
            grown.push(take_block(&mut txn, &mut header, rng, &mut recycled)?);
        }
        let zeros = scratch::take(grown.len() * fs.block_size());
        write_encrypted_many(&mut txn, keys, &grown, zeros)?;
        data_blocks.extend(grown);
    }

    // Rebuild the chain from the recycled blocks first, absorb surplus
    // into the pool (header-local; nothing freed yet), and top up.
    let chain_blocks = build_chain(
        &mut txn,
        keys,
        &mut header,
        &data_blocks,
        &[],
        rng,
        &mut recycled,
    )?;
    while header.free_pool.len() < params.free_blocks_max {
        match recycled.pop() {
            Some(b) => header.free_pool.push(b),
            None => break,
        }
    }
    top_up_pool(&mut txn, &mut header, params)?;

    header.size = new_len;
    header.data_block_count = data_blocks.len() as u64;
    header.inode_chain = chain_blocks.first().copied().unwrap_or(NO_BLOCK);
    publish_header(&mut txn, keys, obj.header_block, &header)?;
    // The surplus returns to the volume with the commit that publishes the
    // header which stops referencing it; see [`write()`](self::write).
    for b in recycled {
        txn.free_block(b)?;
    }
    txn.commit()?;
    obj.header = header;
    Ok(ExtentList::plain(data_blocks, chain_blocks))
}

/// [`resize`] for coded objects: groups couple `m` logical blocks, so a
/// size change re-encodes the whole object — cost `O(size)`, unlike the
/// plain path's `O(change)`.  The capacity pre-check runs before any
/// plaintext is materialised, so an absurd growth request fails cleanly.
fn resize_coded<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &mut HiddenObject,
    new_len: u64,
    params: &StegParams,
    rng: &mut DeterministicRng,
    cache: &ReadCache,
) -> StegResult<()> {
    let bs = fs.block_size() as u64;
    let (m, n) = obj.header.policy.shares();
    let groups = new_len.div_ceil(bs * m as u64);
    let needed = groups.saturating_mul(n as u64);
    let copies = effective_meta_copies(&obj.header) as u64;
    let cap = InodeChainBlock::capacity_meta(fs.block_size(), true, copies as usize).max(1) as u64;
    let chain_needed = needed.div_ceil(cap) * copies;
    let (old_data, old_chain) = chain_for_update(fs, keys, obj, cache)?;
    let available = fs.free_data_blocks()
        + obj.header.free_pool.len() as u64
        + old_data.len() as u64
        + old_chain.len() as u64;
    if available < needed + chain_needed {
        return Err(StegError::NoSpace);
    }
    let mut data = read_cached(fs, keys, obj, cache)?;
    data.resize(new_len as usize, 0);
    write_cached(fs, keys, obj, &data, params, rng, cache)
}

/// Outcome of an offline [`repair`] pass over one hidden object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Every share verified against its checksum; nothing was written.
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

/// Verify every share of a coded object against its recorded checksum and
/// rewrite the damaged ones from the survivors.
///
/// Splitting is deterministic and the per-block cipher is keyed by block
/// number, so a rebuilt share re-encrypts to the byte-identical ciphertext
/// the volume originally held — a repaired image is indistinguishable from
/// one that was never damaged.  The same holds for replicated metadata:
/// every header and chain replica is verified against the surviving copy's
/// plaintext and damaged replicas are rewritten byte-identically (their
/// count folds into `shares_rebuilt`).  Plain objects carry no redundancy
/// and report [`RepairOutcome::Intact`] untouched.  All rewrites ride in one
/// transaction; an unrecoverable object writes nothing at all.
pub fn repair<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
) -> StegResult<RepairOutcome> {
    let Some((m, n)) = obj.header.policy.coding() else {
        return Ok(RepairOutcome::Intact);
    };
    let bs = fs.block_size();

    // Metadata sweep first: a full chain walk that visits *every* replica
    // (not just the first live one) and records the rotten ones.  An
    // unreadable chain fails closed here, before anything is written.
    let nodes = walk_chain(fs, keys, obj, None, true)?;
    let data_blocks: Vec<u64> = nodes
        .iter()
        .flat_map(|nd| nd.node.pointers.iter().copied())
        .collect();
    let share_csums: Vec<u64> = nodes
        .iter()
        .flat_map(|nd| nd.node.csums.iter().copied())
        .collect();
    let mut meta_rewrites: Vec<(u64, Vec<u8>)> = Vec::new();
    for nd in &nodes {
        for &b in &nd.damaged {
            meta_rewrites.push((b, nd.plain.clone()));
        }
    }
    // Header replicas: intact iff the replica decrypts to exactly the bytes
    // the surviving header serialises to (serialisation is canonical, so the
    // comparison is byte-for-byte).
    if !obj.header.header_replicas.is_empty() {
        let expected = obj.header.serialize(bs);
        for &b in &obj.header.header_replicas {
            let found = read_decrypted(fs, keys, b)?;
            let intact = found[..] == expected[..];
            scratch::put(found);
            if !intact {
                meta_rewrites.push((b, expected.clone()));
            }
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
    let buf = read_decrypted_many(fs, keys, &data_blocks)?;
    let groups = data_blocks.len() / n;
    // Per group, the verified shares (borrowed from the batched read) and
    // the 0-based numbers of the damaged ones.
    let mut good: Vec<Vec<(u8, &[u8])>> = vec![Vec::new(); groups];
    let mut bad: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for g in 0..groups {
        for j in 0..n {
            let idx = g * n + j;
            let share = nth_block(&buf, idx, bs);
            if coding::share_checksum(share) == share_csums[idx] {
                good[g].push(((j + 1) as u8, share));
            } else {
                bad[g].push(j);
            }
        }
    }
    let groups_lost = good.iter().filter(|g| g.len() < m).count();
    let shares_rebuilt: usize = bad.iter().map(|b| b.len()).sum::<usize>() + meta_rewrites.len();
    let rewrite = || -> StegResult<()> {
        let mut txn = fs.begin_txn();
        for (b, plain) in &meta_rewrites {
            write_encrypted(&mut txn, keys, *b, plain)?;
        }
        let mut codec = GroupCodec::new(m, n, bs);
        let mut plain = scratch::take(m * bs);
        let mut shares = scratch::take(n * bs);
        for g in (0..groups).filter(|&g| !bad[g].is_empty()) {
            codec.reconstruct_group(&good[g], &mut plain)?;
            codec.split_group(&plain, &mut shares);
            for &j in &bad[g] {
                let share = nth_block(&shares, j, bs);
                write_encrypted(&mut txn, keys, data_blocks[g * n + j], share)?;
            }
        }
        scratch::put(plain);
        scratch::put(shares);
        txn.commit()?;
        Ok(())
    };
    let outcome = if groups_lost > 0 {
        Ok(RepairOutcome::Lost { groups_lost })
    } else if shares_rebuilt == 0 {
        Ok(RepairOutcome::Intact)
    } else {
        rewrite().map(|()| RepairOutcome::Repaired { shares_rebuilt })
    };
    scratch::put(buf);
    outcome
}

/// Last-resort teardown for an object whose chain can no longer be walked:
/// scrub and free the header replicas and pool blocks the header itself
/// names, leaving the unreachable chain/data blocks allocated.  The
/// scavenger uses this before re-creating a lost directory in place — the
/// bounded leak is preferable to freeing blocks we cannot prove are the
/// object's.
pub fn destroy_unreadable<D: BlockDevice>(
    fs: &PlainFs<D>,
    obj: &HiddenObject,
    rng: &mut DeterministicRng,
) -> StegResult<()> {
    let mut txn = fs.begin_txn();
    for b in obj.header.free_pool.iter().copied() {
        txn.free_block(b)?;
    }
    let header_blocks: Vec<u64> = if obj.header.header_replicas.is_empty() {
        vec![obj.header_block]
    } else {
        obj.header.header_replicas.clone()
    };
    for &hb in &header_blocks {
        let noise = rng.bytes(fs.block_size());
        txn.write_raw_block(hb, &noise)?;
        txn.free_block(hb)?;
    }
    txn.commit()?;
    Ok(())
}

/// The object's data blocks chunked per coding group: `n` share blocks per
/// group (plain objects report each block as its own single-entry group).
/// The corruption experiments and the survival smoke use this map to
/// destroy a chosen number of shares per group.
pub fn share_extents<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
) -> StegResult<Vec<Vec<u64>>> {
    let (_, n) = obj.header.policy.shares();
    let (data_blocks, _, _) = read_chain(fs, keys, obj, None)?;
    Ok(data_blocks.chunks(n.max(1)).map(|c| c.to_vec()).collect())
}

/// Delete a hidden object: every block it holds (data, chain, pool, header)
/// is returned to the file system, and the header block is overwritten with
/// fresh pseudorandom fill so no stale signature survives on disk.
pub fn delete<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
    rng: &mut DeterministicRng,
) -> StegResult<()> {
    // One transaction: the header scrub and every free commit together, so a
    // crash mid-delete leaves the object either whole or entirely gone —
    // never a findable header whose blocks have been handed out.
    let mut txn = fs.begin_txn();
    let (data_blocks, chain_blocks, _) = read_chain(fs, keys, obj, None)?;
    for b in data_blocks
        .into_iter()
        .chain(chain_blocks)
        .chain(obj.header.free_pool.iter().copied())
    {
        txn.free_block(b)?;
    }
    // Scrub every header replica so the signature cannot be found again,
    // then free them.  Legacy single-copy objects scrub just `header_block`.
    let header_blocks: Vec<u64> = if obj.header.header_replicas.is_empty() {
        vec![obj.header_block]
    } else {
        obj.header.header_replicas.clone()
    };
    for &hb in &header_blocks {
        let noise = rng.bytes(fs.block_size());
        txn.write_raw_block(hb, &noise)?;
        txn.free_block(hb)?;
    }
    txn.commit()?;
    Ok(())
}

/// All blocks currently owned by the object (header, chain, data, pool).
/// Used by the space accounting in the experiments.
pub fn owned_blocks<D: BlockDevice>(
    fs: &PlainFs<D>,
    keys: &ObjectKeys,
    obj: &HiddenObject,
) -> StegResult<Vec<u64>> {
    let (data_blocks, chain_blocks, _) = read_chain(fs, keys, obj, None)?;
    let mut all = if obj.header.header_replicas.is_empty() {
        vec![obj.header_block]
    } else {
        obj.header.header_replicas.clone()
    };
    all.extend(data_blocks);
    all.extend(chain_blocks);
    all.extend(obj.header.free_pool.iter().copied());
    all.sort_unstable();
    all.dedup();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemBlockDevice;
    use stegfs_fs::{FormatOptions, PlainFs};

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
        let created = create(
            &fs,
            "u1:/secret/budget.xls",
            &keys,
            ObjectKind::File,
            &params,
        )
        .unwrap();
        assert_eq!(created.header.free_pool.len(), params.free_blocks_max);
        let opened = open(&fs, "u1:/secret/budget.xls", &keys, &params).unwrap();
        assert_eq!(opened.header_block, created.header_block);
        assert_eq!(opened.header, created.header);
        assert_eq!(opened.kind(), ObjectKind::File);
        assert_eq!(opened.size(), 0);
    }

    #[test]
    fn empty_object_reads_empty() {
        let (fs, keys, params, _) = fixture();
        let obj = create(&fs, "n", &keys, ObjectKind::File, &params).unwrap();
        assert_eq!(read(&fs, &keys, &obj).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_read_roundtrip_small() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "n", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            b"hello hidden world",
            &params,
            &mut rng,
        )
        .unwrap();
        assert_eq!(obj.size(), 18);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), b"hello hidden world");
        // And through a fresh open.
        let reopened = open(&fs, "n", &keys, &params).unwrap();
        assert_eq!(read(&fs, &keys, &reopened).unwrap(), b"hello hidden world");
    }

    #[test]
    fn write_read_roundtrip_multi_chain() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "big", &keys, ObjectKind::File, &params).unwrap();
        // 400 KB needs 400 data blocks -> 4 chain blocks at 1 KB block size.
        let data: Vec<u8> = (0..400 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        assert_eq!(read(&fs, &keys, &obj).unwrap(), data);
        assert_eq!(obj.header.data_block_count, 400);
    }

    #[test]
    fn read_range_matches_full_read() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "r", &keys, ObjectKind::File, &params).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        assert_eq!(read_range(&fs, &keys, &obj, 0, 100).unwrap(), &data[..100]);
        assert_eq!(
            read_range(&fs, &keys, &obj, 1020, 10).unwrap(),
            &data[1020..1030]
        );
        assert_eq!(
            read_range(&fs, &keys, &obj, 9_990, 100).unwrap(),
            &data[9_990..]
        );
        assert!(read_range(&fs, &keys, &obj, 20_000, 5).unwrap().is_empty());
        // Zero-length reads are empty, not an underflow (offset 0 included).
        assert!(read_range(&fs, &keys, &obj, 0, 0).unwrap().is_empty());
        assert!(read_range(&fs, &keys, &obj, 1024, 0).unwrap().is_empty());
    }

    #[test]
    fn write_range_patches_in_place() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "patch", &keys, ObjectKind::File, &params).unwrap();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let free_before = fs.free_data_blocks();

        write_range(&fs, &keys, &mut obj, 1000, &[0xaa; 200]).unwrap();
        let mut expected = data.clone();
        expected[1000..1200].copy_from_slice(&[0xaa; 200]);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), expected);
        assert_eq!(fs.free_data_blocks(), free_before, "no allocation");
        // Past-EOF patches rejected, empty patches allowed.
        assert!(write_range(&fs, &keys, &mut obj, 4990, &[0u8; 20]).is_err());
        write_range(&fs, &keys, &mut obj, 0, &[]).unwrap();
    }

    #[test]
    fn rewrite_replaces_contents_without_leaking_blocks() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "w", &keys, ObjectKind::File, &params).unwrap();
        let free_before = fs.free_data_blocks();

        write(
            &fs,
            &keys,
            &mut obj,
            &vec![1u8; 100 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![2u8; 50 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        write(&fs, &keys, &mut obj, b"tiny", &params, &mut rng).unwrap();
        assert_eq!(read(&fs, &keys, &obj).unwrap(), b"tiny");

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
        let mut obj = create(&fs, "p", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![7u8; 3 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        // Shrink to zero: the freed blocks flow into the pool, capped at FB_max.
        write(&fs, &keys, &mut obj, b"", &params, &mut rng).unwrap();
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
        let mut obj = create(&fs, "t", &keys, ObjectKind::File, &params).unwrap();
        assert_eq!(obj.header.free_pool.len(), 4);
        // Writing 6 blocks of data consumes the whole pool (4) and more, so
        // afterwards the pool must be topped back up to FB_max.
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![1u8; 6 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        assert_eq!(obj.header.free_pool.len(), 4);
    }

    #[test]
    fn resize_preserves_prefix_and_zero_fills() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "rz", &keys, ObjectKind::File, &params).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();

        // Shrink to a non-block boundary.
        resize(&fs, &keys, &mut obj, 2500, &params, &mut rng).unwrap();
        assert_eq!(obj.size(), 2500);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), &data[..2500]);

        // Grow again: the cut region must come back as zeros, not as the
        // old plaintext.
        resize(&fs, &keys, &mut obj, 6000, &params, &mut rng).unwrap();
        let got = read(&fs, &keys, &obj).unwrap();
        assert_eq!(&got[..2500], &data[..2500]);
        assert!(
            got[2500..].iter().all(|&b| b == 0),
            "stale bytes resurfaced"
        );

        // Reopen sees the resized state.
        let reopened = open(&fs, "rz", &keys, &params).unwrap();
        assert_eq!(reopened.size(), 6000);
    }

    #[test]
    fn resize_does_not_move_existing_data_blocks() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "stable", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![9u8; 8 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        let before: std::collections::HashSet<u64> = owned_blocks(&fs, &keys, &obj)
            .unwrap()
            .into_iter()
            .collect();

        resize(&fs, &keys, &mut obj, 64 * 1024, &params, &mut rng).unwrap();
        let after: std::collections::HashSet<u64> = owned_blocks(&fs, &keys, &obj)
            .unwrap()
            .into_iter()
            .collect();
        // Growing only adds blocks; the original data blocks stay put (the
        // old chain blocks may be recycled, so compare data coverage via a
        // read instead of set inclusion for them).
        let mut expected = vec![9u8; 8 * 1024];
        expected.extend(vec![0u8; 56 * 1024]);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), expected);
        assert!(after.len() > before.len());
    }

    #[test]
    fn resize_to_zero_and_no_space() {
        let (fs, keys, params, mut rng) = fixture();
        let free_start = fs.free_data_blocks();
        let mut obj = create(&fs, "z", &keys, ObjectKind::File, &params).unwrap();
        write(&fs, &keys, &mut obj, &vec![1u8; 5000], &params, &mut rng).unwrap();

        resize(&fs, &keys, &mut obj, 0, &params, &mut rng).unwrap();
        assert_eq!(obj.size(), 0);
        assert_eq!(obj.header.data_block_count, 0);
        assert_eq!(obj.header.inode_chain, NO_BLOCK);
        assert!(read(&fs, &keys, &obj).unwrap().is_empty());

        // An absurd growth request fails cleanly without touching the object.
        assert!(matches!(
            resize(&fs, &keys, &mut obj, u64::MAX / 2, &params, &mut rng),
            Err(StegError::NoSpace)
        ));
        assert_eq!(obj.size(), 0);

        // Deleting returns every block.
        delete(&fs, &keys, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_start);
    }

    #[test]
    fn wrong_key_cannot_open_or_read() {
        let (fs, keys, params, mut rng) = fixture();
        let mut obj = create(&fs, "s", &keys, ObjectKind::File, &params).unwrap();
        write(&fs, &keys, &mut obj, b"classified", &params, &mut rng).unwrap();
        let wrong = ObjectKeys::derive("s", b"wrong key");
        assert!(open(&fs, "s", &wrong, &params).unwrap_err().is_not_found());
    }

    #[test]
    fn delete_returns_all_blocks_and_scrubs_header() {
        let (fs, keys, params, mut rng) = fixture();
        let free_before = fs.free_data_blocks();
        let mut obj = create(&fs, "d", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![5u8; 40 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        assert!(fs.free_data_blocks() < free_before);

        delete(&fs, &keys, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_before, "all blocks returned");
        // The object can no longer be found.
        assert!(open(&fs, "d", &keys, &params).unwrap_err().is_not_found());
    }

    #[test]
    fn owned_blocks_accounts_for_everything() {
        let (fs, keys, params, mut rng) = fixture();
        let free_start = fs.free_data_blocks();
        let mut obj = create(&fs, "o", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![9u8; 20 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        let owned = owned_blocks(&fs, &keys, &obj).unwrap();
        let consumed = free_start - fs.free_data_blocks();
        assert_eq!(owned.len() as u64, consumed);
        assert!(owned.contains(&obj.header_block));
    }

    #[test]
    fn hidden_blocks_never_appear_in_central_directory() {
        let (fs, keys, params, mut rng) = fixture();
        fs.write_file("/plain.txt", b"visible data").unwrap();
        let mut obj = create(&fs, "h", &keys, ObjectKind::File, &params).unwrap();
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![3u8; 30 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();

        let plain_blocks = fs.plain_object_blocks().unwrap();
        let hidden = owned_blocks(&fs, &keys, &obj).unwrap();
        for b in &hidden {
            assert!(
                !plain_blocks.contains(b),
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
        let mut obj = create(&fs, "x", &keys, ObjectKind::File, &params).unwrap();
        let free = fs.free_data_blocks();
        let too_big = vec![0u8; ((free + 16) * 1024) as usize];
        assert!(matches!(
            write(&fs, &keys, &mut obj, &too_big, &params, &mut rng),
            Err(StegError::NoSpace)
        ));
    }

    #[test]
    fn two_objects_do_not_interfere() {
        let (fs, _, params, mut rng) = fixture();
        let ka = ObjectKeys::derive("a", b"key-a");
        let kb = ObjectKeys::derive("b", b"key-b");
        let mut a = create(&fs, "a", &ka, ObjectKind::File, &params).unwrap();
        let mut b = create(&fs, "b", &kb, ObjectKind::File, &params).unwrap();
        write(&fs, &ka, &mut a, &vec![0xaa; 10_000], &params, &mut rng).unwrap();
        write(&fs, &kb, &mut b, &vec![0xbb; 20_000], &params, &mut rng).unwrap();
        assert_eq!(read(&fs, &ka, &a).unwrap(), vec![0xaa; 10_000]);
        assert_eq!(read(&fs, &kb, &b).unwrap(), vec![0xbb; 20_000]);
        let blocks_a = owned_blocks(&fs, &ka, &a).unwrap();
        let blocks_b = owned_blocks(&fs, &kb, &b).unwrap();
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
        let obj = create_with_policy(&fs, name, &keys, ObjectKind::File, policy, &params).unwrap();
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
            let data: Vec<u8> = (0..7 * 1024 + 123u32).map(|i| (i % 253) as u8).collect();
            write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
            let (_, n) = policy.shares();
            assert_eq!(obj.header.data_block_count % n as u64, 0);
            assert_eq!(read(&fs, &keys, &obj).unwrap(), data);
            // Through a fresh open too (exercises the coded chain parse).
            let reopened = open(&fs, "coded", &keys, &params).unwrap();
            assert_eq!(reopened.header.policy, policy);
            assert_eq!(read(&fs, &keys, &reopened).unwrap(), data);
            assert_eq!(
                read_range(&fs, &keys, &reopened, 1000, 3000).unwrap(),
                &data[1000..4000]
            );
        }
    }

    #[test]
    fn coded_read_survives_n_minus_m_losses_per_group() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "lossy");
        let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 241) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        // Destroy n - m = 2 shares in *every* group.
        for (g, group) in share_extents(&fs, &keys, &obj).unwrap().iter().enumerate() {
            assert_eq!(group.len(), 4);
            smash(&fs, group[0], g as u8);
            smash(&fs, group[2], g as u8 ^ 0x5a);
        }
        assert_eq!(read(&fs, &keys, &obj).unwrap(), data, "fallback decode");
        assert_eq!(
            read_range(&fs, &keys, &obj, 2048, 100).unwrap(),
            &data[2048..2148]
        );
    }

    #[test]
    fn coded_read_fails_closed_beyond_tolerance() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "gone");
        let data = vec![0x42u8; 5 * 1024];
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let groups = share_extents(&fs, &keys, &obj).unwrap();
        // Kill n - m + 1 = 2 shares of group 0: unrecoverable.
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        let err = read(&fs, &keys, &obj).unwrap_err();
        assert!(
            err.to_string().contains("live shares"),
            "clean error: {err}"
        );
        // No partial plaintext: a range read inside the dead group fails too.
        assert!(read_range(&fs, &keys, &obj, 0, 10).is_err());
        // Other groups remain readable on their own.
        assert_eq!(
            read_range(&fs, &keys, &obj, 2 * 1024, 1024).unwrap(),
            &data[2 * 1024..3 * 1024]
        );
    }

    #[test]
    fn repair_restores_byte_identical_ciphertext() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "fixme");
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 199) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        assert_eq!(repair(&fs, &keys, &obj).unwrap(), RepairOutcome::Intact);

        let groups = share_extents(&fs, &keys, &obj).unwrap();
        let victims = [groups[0][1], groups[0][3], groups[1][0]];
        let bs = fs.block_size();
        let mut before = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut before).unwrap();
        for (i, &v) in victims.iter().enumerate() {
            smash(&fs, v, i as u8);
        }
        assert_eq!(
            repair(&fs, &keys, &obj).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 3 }
        );
        let mut after = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut after).unwrap();
        assert_eq!(before, after, "rebuilt shares must be byte-identical");
        assert_eq!(read(&fs, &keys, &obj).unwrap(), data);
        assert_eq!(repair(&fs, &keys, &obj).unwrap(), RepairOutcome::Intact);
    }

    #[test]
    fn repair_fails_closed_when_unrecoverable() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "dead");
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![9u8; 3 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        let groups = share_extents(&fs, &keys, &obj).unwrap();
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        smash(&fs, groups[0][2], 3);
        let bs = fs.block_size();
        let mut before = vec![0u8; 3 * bs];
        fs.read_raw_blocks_into(&groups[0], &mut before).unwrap();
        assert_eq!(
            repair(&fs, &keys, &obj).unwrap(),
            RepairOutcome::Lost { groups_lost: 1 }
        );
        // Fail closed: a lost object is left exactly as found.
        let mut after = vec![0u8; 3 * bs];
        fs.read_raw_blocks_into(&groups[0], &mut after).unwrap();
        assert_eq!(before, after, "lost repair must not write");
    }

    #[test]
    fn coded_write_range_patches_and_updates_checksums() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "patch2");
        let data: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 256) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let free_before = fs.free_data_blocks();
        // Patch across a group boundary (groups are m * bs = 2 KB here).
        write_range(&fs, &keys, &mut obj, 1500, &[0xcc; 2000]).unwrap();
        let mut expected = data.clone();
        expected[1500..3500].copy_from_slice(&[0xcc; 2000]);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), expected);
        assert_eq!(fs.free_data_blocks(), free_before, "no allocation");
        // The checksums the chain now records match the new shares: repair
        // sees an intact object, and damage within tolerance still heals.
        assert_eq!(repair(&fs, &keys, &obj).unwrap(), RepairOutcome::Intact);
        let groups = share_extents(&fs, &keys, &obj).unwrap();
        smash(&fs, groups[0][1], 7);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), expected);
    }

    #[test]
    fn coded_patch_reinstalls_its_extent_list_and_only_invalidates_on_failure() {
        let policy = Policy::Disperse { m: 2, n: 3 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "warm-patch");
        let data: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 253) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let cache = ReadCache::new(64);
        assert_eq!(read_cached(&fs, &keys, &obj, &cache).unwrap(), data);

        // A patch drops the object's decoded blocks but leaves its extent
        // list installed, carrying the checksums of the rewritten shares:
        // the next read misses no extent lookup and verifies every share.
        write_range_cached(&fs, &keys, &mut obj, 1000, &[0xee; 3000], &cache).unwrap();
        let mut expected = data.clone();
        expected[1000..4000].copy_from_slice(&[0xee; 3000]);
        let misses = cache.stats().extent_misses;
        assert_eq!(read_cached(&fs, &keys, &obj, &cache).unwrap(), expected);
        assert_eq!(
            cache.stats().extent_misses,
            misses,
            "patched object went cold"
        );
        let (_, walked, walked_csums) = read_chain(&fs, &keys, &obj, None).unwrap();
        let (_, cached) = cached_chain(&fs, &keys, &obj, &cache, None).unwrap();
        assert_eq!(cached.chain_blocks, walked);
        assert_eq!(cached.share_csums, walked_csums);

        // A patch that fails closed leaves no entry behind.
        let groups = share_extents(&fs, &keys, &obj).unwrap();
        smash(&fs, groups[0][0], 1);
        smash(&fs, groups[0][1], 2);
        assert!(write_range_cached(&fs, &keys, &mut obj, 10, &[1; 10], &cache).is_err());
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
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        resize(&fs, &keys, &mut obj, 1500, &params, &mut rng).unwrap();
        assert_eq!(read(&fs, &keys, &obj).unwrap(), &data[..1500]);
        resize(&fs, &keys, &mut obj, 4000, &params, &mut rng).unwrap();
        let got = read(&fs, &keys, &obj).unwrap();
        assert_eq!(&got[..1500], &data[..1500]);
        assert!(got[1500..].iter().all(|&b| b == 0));
        // An absurd growth request fails cleanly before materialising.
        assert!(matches!(
            resize(&fs, &keys, &mut obj, u64::MAX / 4, &params, &mut rng),
            Err(StegError::NoSpace)
        ));
        assert_eq!(obj.size(), 4000);
    }

    #[test]
    fn coded_cached_reads_survive_damage_after_invalidation() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "warm");
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 239) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let cache = ReadCache::new(64);
        assert_eq!(read_cached(&fs, &keys, &obj, &cache).unwrap(), data);
        // Damage within tolerance, then serve warm: the cache still holds
        // the decoded logical blocks, so the read never sees the damage.
        let groups = share_extents(&fs, &keys, &obj).unwrap();
        for (g, group) in groups.iter().enumerate() {
            smash(&fs, group[0], g as u8);
        }
        assert_eq!(read_cached(&fs, &keys, &obj, &cache).unwrap(), data);
        // Cold again: the decode path falls back through surviving shares.
        cache.invalidate(keys.signature());
        assert_eq!(read_cached(&fs, &keys, &obj, &cache).unwrap(), data);
    }

    #[test]
    fn coded_delete_returns_all_blocks() {
        let policy = Policy::Disperse { m: 3, n: 5 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "bye");
        // The object holds its pool plus one header block per metadata copy
        // (n - m + 1 = 3 for this policy); all of them must come back.
        let free_before =
            fs.free_data_blocks() + params.free_blocks_max as u64 + policy.meta_copies() as u64;
        write(
            &fs,
            &keys,
            &mut obj,
            &vec![4u8; 9 * 1024],
            &params,
            &mut rng,
        )
        .unwrap();
        delete(&fs, &keys, &obj, &mut rng).unwrap();
        assert_eq!(fs.free_data_blocks(), free_before);
        assert!(open(&fs, "bye", &keys, &params).unwrap_err().is_not_found());
    }

    #[test]
    fn header_survives_replica_losses_and_flags_degraded() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "hdr");
        let data: Vec<u8> = (0..4 * 1024u32).map(|i| (i % 251) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let replicas = obj.header.header_replicas.clone();
        assert_eq!(replicas.len(), policy.meta_copies());
        assert_eq!(replicas[0], obj.header_block);

        // Kill the primary and one replica: n - m = 2 losses, still open.
        smash(&fs, replicas[0], 1);
        smash(&fs, replicas[1], 2);
        let health = ReadHealth::new();
        let found = open_observed(&fs, "hdr", &keys, &params, Some(&health)).unwrap();
        assert_eq!(found.header_block, replicas[2], "served by the survivor");
        assert!(health.is_degraded());
        assert_eq!(read(&fs, &keys, &found).unwrap(), data);

        // One more loss kills the object: no replica left to probe.
        smash(&fs, replicas[2], 3);
        assert!(open(&fs, "hdr", &keys, &params).unwrap_err().is_not_found());
    }

    #[test]
    fn chain_survives_replica_losses_and_fails_closed_beyond() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "chn");
        let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 239) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let head = obj.header.inode_chain;
        let spares = obj.header.chain_replicas.clone();
        assert_eq!(spares.len(), policy.meta_copies() - 1);

        smash(&fs, head, 1);
        smash(&fs, spares[0], 2);
        let health = ReadHealth::new();
        let cache = ReadCache::disabled();
        assert_eq!(
            read_cached_observed(&fs, &keys, &obj, cache, Some(&health)).unwrap(),
            data,
            "chain served by its last replica"
        );
        assert!(health.is_degraded());

        smash(&fs, spares[1], 3);
        let err = read(&fs, &keys, &obj).unwrap_err();
        assert!(err.to_string().contains("live"), "fails closed: {err}");
    }

    #[test]
    fn healthy_reads_do_not_flag_degraded() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "ok");
        let data = vec![7u8; 3 * 1024];
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let health = ReadHealth::new();
        let found = open_observed(&fs, "ok", &keys, &params, Some(&health)).unwrap();
        let cache = ReadCache::disabled();
        assert_eq!(
            read_cached_observed(&fs, &keys, &found, cache, Some(&health)).unwrap(),
            data
        );
        assert!(!health.is_degraded());
    }

    #[test]
    fn repair_rebuilds_metadata_replicas_byte_identically() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "meta-fix");
        let data: Vec<u8> = (0..5 * 1024u32).map(|i| (i % 211) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        let groups = share_extents(&fs, &keys, &obj).unwrap();
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
            repair(&fs, &keys, &obj).unwrap(),
            RepairOutcome::Repaired { shares_rebuilt: 3 }
        );
        let mut after = vec![0u8; victims.len() * bs];
        fs.read_raw_blocks_into(&victims, &mut after).unwrap();
        assert_eq!(before, after, "metadata rebuilds must be byte-identical");
        assert_eq!(repair(&fs, &keys, &obj).unwrap(), RepairOutcome::Intact);
        assert_eq!(read(&fs, &keys, &obj).unwrap(), data);
    }

    #[test]
    fn coded_patch_keeps_replicated_chain_consistent() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "patch-r");
        let data: Vec<u8> = (0..9 * 1024u32).map(|i| (i % 223) as u8).collect();
        write(&fs, &keys, &mut obj, &data, &params, &mut rng).unwrap();
        write_range(&fs, &keys, &mut obj, 4000, &[0xbe; 1500]).unwrap();
        let mut expected = data.clone();
        expected[4000..5500].fill(0xbe);
        // The handle's refreshed header and a fresh keyed open must both walk
        // the cascaded chain cleanly.
        assert_eq!(read(&fs, &keys, &obj).unwrap(), expected);
        let reopened = open(&fs, "patch-r", &keys, &params).unwrap();
        assert_eq!(read(&fs, &keys, &reopened).unwrap(), expected);
        assert_eq!(
            repair(&fs, &keys, &reopened).unwrap(),
            RepairOutcome::Intact
        );
        // And the patch still tolerates losing any chain replica afterwards.
        smash(&fs, reopened.header.inode_chain, 9);
        assert_eq!(read(&fs, &keys, &reopened).unwrap(), expected);
    }

    #[test]
    fn owned_blocks_cover_every_metadata_replica() {
        let policy = Policy::Disperse { m: 2, n: 4 };
        let (fs, keys, params, mut rng, mut obj) = coded_fixture(policy, "own");
        write(&fs, &keys, &mut obj, &[5u8; 4096], &params, &mut rng).unwrap();
        let owned = owned_blocks(&fs, &keys, &obj).unwrap();
        for &b in obj
            .header
            .header_replicas
            .iter()
            .chain(obj.header.chain_replicas.iter())
            .chain(std::iter::once(&obj.header.inode_chain))
        {
            assert!(owned.contains(&b), "replica {b} missing from owned set");
        }
    }
}
