//! Keyed pseudorandom location of hidden-object headers.
//!
//! Creation: StegFS feeds a hash of the object's physical name and access key
//! into a pseudorandom block-number generator and "checks each successive
//! generated block number against the bitmap until the file system finds a
//! free block to store the header" (§3.1).
//!
//! Retrieval: the same sequence is walked again, this time looking "for the
//! first block number that is marked as assigned in the bitmap and contains a
//! matching file signature".  Earlier candidates may have been unavailable at
//! creation time (or may have been allocated to someone else since), which is
//! exactly why the signature is needed to confirm the match.
//!
//! A practical addition over the paper: only the first few AES blocks of a
//! candidate are decrypted to test the signature, so walking past allocated
//! blocks that belong to other objects stays cheap.

use crate::crypt::{ObjectKeys, SIGNATURE_LEN};
use crate::error::{StegError, StegResult};
use crate::header::HiddenHeader;
use crate::scratch::Scratch;
use stegfs_blockdev::BlockDevice;
use stegfs_crypto::prng::BlockLocator;
use stegfs_fs::PlainFs;

/// Number of leading bytes decrypted to test a candidate's signature.
/// Must cover the signature; rounded up to a whole AES block.
const PROBE_PREFIX: usize = SIGNATURE_LEN.next_multiple_of(16);

/// Build the candidate sequence for `(physical_name, keys)` over a volume of
/// `total_blocks` blocks.
pub fn candidate_sequence(
    physical_name: &str,
    keys: &ObjectKeys,
    total_blocks: u64,
) -> BlockLocator {
    BlockLocator::new(physical_name.as_bytes(), keys.locator_seed(), total_blocks)
}

/// Outcome of a successful header search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Located {
    /// Physical block number of the header.
    pub block: u64,
    /// Parsed header contents.
    pub header: HiddenHeader,
    /// How many candidates were examined before the header was found
    /// (reported by the ablation benchmarks).
    pub probes: usize,
}

/// Walk the candidate sequence until a *free data-region* block is found to
/// hold a new header.  Returns `(block, probes)`.
pub fn find_free_header_slot<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    max_probes: usize,
) -> StegResult<(u64, usize)> {
    let sb = fs.superblock().clone();
    let mut locator = candidate_sequence(physical_name, keys, sb.total_blocks);
    for probe in 1..=max_probes {
        let candidate = locator.next_candidate();
        if sb.in_data_region(candidate) && !fs.is_block_allocated(candidate) {
            return Ok((candidate, probe));
        }
    }
    // Either the volume is effectively full or max_probes is far too small.
    Err(StegError::NoSpace)
}

/// Walk the candidate sequence looking for an allocated block whose decrypted
/// signature matches `keys`.  Returns the parsed header.
///
/// Failure is reported as [`StegError::NotFound`] — indistinguishable from
/// "no such object", by design.
pub fn locate_header<D: BlockDevice>(
    fs: &PlainFs<D>,
    physical_name: &str,
    keys: &ObjectKeys,
    max_probes: usize,
) -> StegResult<Located> {
    let sb = fs.superblock().clone();
    let block_size = fs.block_size();
    let mut locator = candidate_sequence(physical_name, keys, sb.total_blocks);
    for probe in 1..=max_probes {
        let candidate = locator.next_candidate();
        if !fs.is_block_allocated(candidate) {
            continue;
        }
        // The probe walk is the locator's hot loop: the candidate block goes
        // into a pooled scratch buffer and the signature test runs on a
        // stack-allocated prefix, so walking past other objects' blocks
        // allocates nothing.
        let mut raw = Scratch::take(block_size);
        fs.read_raw_blocks_into(&[candidate], &mut raw)?;
        // Cheap first pass: decrypt only the signature prefix.
        let take = PROBE_PREFIX.min(block_size);
        let mut prefix = [0u8; PROBE_PREFIX];
        prefix[..take].copy_from_slice(&raw[..take]);
        keys.decrypt_block(candidate, &mut prefix[..take]);
        if !stegfs_crypto::ct::ct_eq(&prefix[..SIGNATURE_LEN], keys.signature()) {
            continue;
        }
        // Full decrypt and parse.
        keys.decrypt_block(candidate, &mut raw);
        let header = HiddenHeader::parse_if_match(&raw, keys.signature(), sb.total_blocks);
        if let Some(header) = header {
            return Ok(Located {
                block: candidate,
                header,
                probes: probe,
            });
        }
    }
    Err(StegError::NotFound(physical_name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjectKind;
    use stegfs_blockdev::MemBlockDevice;
    use stegfs_fs::{FormatOptions, PlainFs};

    fn test_fs() -> PlainFs<MemBlockDevice> {
        PlainFs::format(MemBlockDevice::new(1024, 4096), FormatOptions::default()).unwrap()
    }

    fn write_header_at(
        fs: &PlainFs<MemBlockDevice>,
        block: u64,
        keys: &ObjectKeys,
        kind: ObjectKind,
    ) {
        let mut header = HiddenHeader::new(*keys.signature(), kind);
        header.header_replicas = vec![block];
        let mut buf = header.serialize(fs.block_size());
        keys.encrypt_block(block, &mut buf);
        assert!(fs.try_allocate_specific_block(block).unwrap());
        fs.device().write_block(block, &buf).unwrap();
    }

    #[test]
    fn free_slot_is_deterministic_for_same_name_and_key() {
        let fs = test_fs();
        let keys = ObjectKeys::derive("u1:/secret", b"key");
        let (a, probes_a) = find_free_header_slot(&fs, "u1:/secret", &keys, 1000).unwrap();
        let (b, probes_b) = find_free_header_slot(&fs, "u1:/secret", &keys, 1000).unwrap();
        assert_eq!(a, b);
        assert_eq!(probes_a, probes_b);
        assert!(fs.superblock().in_data_region(a));
    }

    #[test]
    fn free_slot_skips_allocated_candidates() {
        let fs = test_fs();
        let keys = ObjectKeys::derive("obj", b"key");
        let (first, _) = find_free_header_slot(&fs, "obj", &keys, 1000).unwrap();
        assert!(fs.try_allocate_specific_block(first).unwrap());
        let (second, probes) = find_free_header_slot(&fs, "obj", &keys, 1000).unwrap();
        assert_ne!(first, second);
        assert!(probes >= 2);
    }

    #[test]
    fn locate_finds_header_written_at_free_slot() {
        let fs = test_fs();
        let keys = ObjectKeys::derive("u1:/budget", b"fak");
        let (slot, _) = find_free_header_slot(&fs, "u1:/budget", &keys, 1000).unwrap();
        write_header_at(&fs, slot, &keys, ObjectKind::File);
        let located = locate_header(&fs, "u1:/budget", &keys, 1000).unwrap();
        assert_eq!(located.block, slot);
        assert_eq!(located.header.kind, ObjectKind::File);
        assert!(located.probes >= 1);
    }

    #[test]
    fn locate_with_wrong_key_reports_not_found() {
        let fs = test_fs();
        let keys = ObjectKeys::derive("u1:/budget", b"fak");
        let (slot, _) = find_free_header_slot(&fs, "u1:/budget", &keys, 1000).unwrap();
        write_header_at(&fs, slot, &keys, ObjectKind::File);

        let wrong = ObjectKeys::derive("u1:/budget", b"not the fak");
        let err = locate_header(&fs, "u1:/budget", &wrong, 2000).unwrap_err();
        assert!(err.is_not_found());

        // And a completely different name with the right key also fails.
        let other = ObjectKeys::derive("u1:/other", b"fak");
        assert!(locate_header(&fs, "u1:/other", &other, 2000)
            .unwrap_err()
            .is_not_found());
    }

    #[test]
    fn locate_survives_earlier_candidates_becoming_allocated() {
        // The scenario that motivates the signature (§3.1): after creation,
        // blocks earlier in the candidate sequence get allocated to other
        // (plain or hidden) data.  Lookup must skip them and still find the
        // right header.
        let fs = test_fs();
        let keys = ObjectKeys::derive("obj", b"key");
        let (slot, _) = find_free_header_slot(&fs, "obj", &keys, 1000).unwrap();
        write_header_at(&fs, slot, &keys, ObjectKind::File);

        // Allocate every candidate that precedes the header in the sequence
        // and fill it with unrelated data.
        let total = fs.superblock().total_blocks;
        let mut seq = candidate_sequence("obj", &keys, total);
        loop {
            let c = seq.next_candidate();
            if c == slot {
                break;
            }
            if fs.superblock().in_data_region(c) && !fs.is_block_allocated(c) {
                assert!(fs.try_allocate_specific_block(c).unwrap());
                fs.device().write_block(c, &vec![0x11; 1024]).unwrap();
            }
        }

        let located = locate_header(&fs, "obj", &keys, 10_000).unwrap();
        assert_eq!(located.block, slot);
        assert!(located.probes >= 1);
    }

    #[test]
    fn exhausted_probe_budget_reports_errors() {
        let fs = test_fs();
        let keys = ObjectKeys::derive("missing", b"key");
        assert!(locate_header(&fs, "missing", &keys, 5)
            .unwrap_err()
            .is_not_found());
        // With a pathologically small budget creation also gives up cleanly.
        assert!(matches!(
            find_free_header_slot(&fs, "missing", &keys, 0),
            Err(StegError::NoSpace)
        ));
    }

    #[test]
    fn different_objects_get_different_slots() {
        let fs = test_fs();
        let mut slots = std::collections::HashSet::new();
        for i in 0..20 {
            let name = format!("user:/file-{i}");
            let keys = ObjectKeys::derive(&name, b"key");
            let (slot, _) = find_free_header_slot(&fs, &name, &keys, 1000).unwrap();
            assert!(fs.try_allocate_specific_block(slot).unwrap());
            slots.insert(slot);
        }
        assert_eq!(slots.len(), 20, "collisions are avoided by probing");
    }
}
