//! # stegfs-core
//!
//! A faithful reproduction of **StegFS** (Pang, Tan, Zhou — "StegFS: A
//! Steganographic File System", ICDE 2003) as a user-space Rust library.
//!
//! StegFS lets users *hide* selected files and directories so that, without
//! the corresponding access keys, an adversary cannot establish that they
//! exist — even with complete knowledge of the file-system implementation and
//! raw access to the disk.  The key mechanisms, all implemented here:
//!
//! * **No central record of hidden objects.**  A hidden object's metadata
//!   lives in a *header block* inside the object itself
//!   ([`header::HiddenHeader`]); the central directory of the plain file
//!   system never mentions it.  Only the block bitmap shows its blocks as
//!   allocated.
//! * **Keyed pseudorandom location.**  The header block's address is found by
//!   recursively hashing a seed derived from the object's physical name and
//!   access key ([`locator`]); a 256-bit *signature* stored in the header
//!   confirms a match.
//! * **Indistinguishability.**  The volume is formatted with random fill;
//!   every block of a hidden object is encrypted (AES-256) so that allocated
//!   hidden blocks, *abandoned blocks* and *dummy hidden files* all look the
//!   same ([`stegfs::StegFs::format`]).
//! * **Internal free-block pools** inside each hidden file defeat
//!   bitmap-snapshot differencing ([`hidden`]).
//! * **One object-I/O surface.**  Every operation on a hidden object —
//!   create, open, read, write, resize, repair, delete — is one method of
//!   one borrowed context, [`hidden::ObjectIo`]; "uncached" and
//!   "unobserved" are values that context is handed, not variants of the
//!   functions.
//! * **UAK/FAK key hierarchy and sharing.**  Each hidden file is protected by
//!   its own random File Access Key; per-User Access Key directories map
//!   names to FAKs and are themselves hidden files ([`keys`], [`sharing`]).
//! * **Backup and recovery** that images only allocated-but-unaccounted
//!   blocks and copies plain files by content ([`backup`]).
//!
//! The public entry point is [`StegFs`]; the `steg_*` methods mirror the API
//! listed in Section 4 of the paper.
//!
//! ```
//! use stegfs_blockdev::MemBlockDevice;
//! use stegfs_core::{StegFs, StegParams, ObjectKind};
//!
//! // (StegParams::default() matches the paper's Table 1 — 1 MB dummy files,
//! // random fill — which wants a gigabyte-class volume; the test preset keeps
//! // this example snappy.)
//! let dev = MemBlockDevice::new(1024, 8192);
//! let fs = StegFs::format(dev, StegParams::for_tests()).unwrap();
//!
//! // A plain file, visible to everyone.
//! fs.write_plain("/readme.txt", b"nothing to see here").unwrap();
//!
//! // A hidden file, invisible without the user access key.
//! fs.steg_create("budget-2026", "correct horse battery staple", ObjectKind::File).unwrap();
//! fs.write_hidden_with_key("budget-2026", "correct horse battery staple", b"the real numbers").unwrap();
//!
//! let data = fs.read_hidden_with_key("budget-2026", "correct horse battery staple").unwrap();
//! assert_eq!(data, b"the real numbers");
//!
//! // With the wrong key the object cannot even be shown to exist.
//! assert!(fs.read_hidden_with_key("budget-2026", "wrong key").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod coding;
pub mod crypt;
pub mod error;
pub mod header;
pub mod hidden;
pub mod keys;
pub mod locator;
pub mod params;
pub mod readcache;
mod scratch;
pub mod session;
pub mod sharing;
pub mod stegfs;

pub use backup::BackupImage;
pub use coding::Policy;
pub use error::{StegError, StegResult};
pub use header::{HiddenHeader, ObjectKind};
pub use hidden::RepairOutcome;
pub use keys::{AccessHierarchy, DirectoryEntry, UakDirectory};
pub use params::StegParams;
pub use readcache::CacheStats;
pub use sharing::ShareEnvelope;
pub use stegfs::{HiddenHandle, SpaceReport, StegFs};
