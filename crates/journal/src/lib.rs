//! # stegfs-journal
//!
//! Crash consistency for the StegFS reproduction: a block-granular
//! write-ahead intent journal living in a reserved on-device region, designed
//! so that durability never costs deniability.
//!
//! The paper's stack (and this reproduction before this crate) had no
//! `fsync`, no replay, and a strictly write-through cache: a crash in the
//! middle of a multi-block hidden-file rewrite — header, inode chain,
//! bitmap — could leave the published header pointing at torn extents, which
//! breaks the *availability* half of the paper's promise.  The journal closes
//! that gap with a classic redo protocol (intent → payload → commit →
//! checkpoint, see [`Journal`]) while preserving the *undetectability* half:
//!
//! * every slot is one block, encrypted, and fixed-size — the region is
//!   uniform high-entropy bytes with no plaintext structure, like the random
//!   fill around it;
//! * records carry no hidden/plain tag, and hidden-object payloads are staged
//!   as object-key ciphertext, so a record of a hidden update is structurally
//!   identical to a record of a plain update (its target list, though, is
//!   readable under the volume-public key: see [`JournalKeys`]);
//! * replay needs no user keys, and after a crash plus replay a wrong-key
//!   lookup remains exactly as unanswerable as a lookup for an object that
//!   never existed.
//!
//! See [`record`] for the on-disk format and [`journal`] (the [`Journal`]
//! type) for the commit/replay protocol, the group-commit gate, and the
//! crate's lock and flush ordering rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod record;

pub use journal::{
    Journal, JournalError, JournalGeometry, JournalResult, ReplayReport, Reservation, RingScan,
    SlotUse, StagedTx, Tx,
};
pub use record::{JournalKeys, ANCHOR_SLOTS};
