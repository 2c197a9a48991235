//! # stegfs-fs
//!
//! The plain (non-steganographic) file-system substrate that StegFS is built
//! on, corresponding to the "central directory", bitmap and plain files of
//! Figure 1 in the paper.
//!
//! The layer provides:
//!
//! * an on-disk layout (superblock, block bitmap, inode table, data region),
//! * a **central directory** — the inode table plus a hierarchical directory
//!   tree — through which every *plain* file is reachable,
//! * whole-file and positional read/write with direct, single-indirect and
//!   double-indirect block mapping,
//! * pluggable [`AllocPolicy`] block-allocation policies.  `Contiguous`
//!   reproduces the paper's *CleanDisk* baseline (freshly formatted volume,
//!   contiguous files), `Fragmented { run: 8 }` reproduces *FragDisk*
//!   (well-used volume, 8-block fragments), and `Random` is what StegFS uses
//!   for hidden data blocks,
//! * raw bitmap and raw block access for the StegFS layer, which allocates
//!   blocks for hidden objects **without** registering them in the central
//!   directory.
//!
//! The crate deliberately contains no encryption and no hiding; those live in
//! `stegfs-core`.  Keeping the plain layer separate also gives the evaluation
//! its CleanDisk / FragDisk baselines "for free", on exactly the same device
//! and disk model as StegFS itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod bitmap;
pub mod dir;
pub mod error;
pub mod fs;
pub mod inode;
pub mod layout;
pub mod rmw;
pub mod txn;

pub use alloc::AllocPolicy;
pub use error::{FsError, FsResult};
pub use fs::{Fill, FormatOptions, PlainFs, PlainGuards};
pub use inode::{FileKind, Inode, InodeId};
pub use layout::Superblock;
pub use txn::FsTxn;
