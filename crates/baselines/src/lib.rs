//! # stegfs-baselines
//!
//! The prior steganographic storage schemes that the StegFS paper benchmarks
//! against (Section 2 and Section 5), implemented over the same
//! [`stegfs_blockdev::BlockDevice`] abstraction so they can be driven by the
//! same workloads and the same disk timing model:
//!
//! * [`stegcover::StegCover`] — Anderson, Needham and Shamir's first scheme:
//!   a hidden file is embedded as the exclusive-or of a password-selected
//!   subset of large random *cover files*; every read or write touches the
//!   whole subset (16 cover files in the paper's configuration).
//! * [`stegrand::StegRand`] — their second scheme: file blocks are written to
//!   absolute disk addresses produced by a keyed pseudorandom process,
//!   replicated to reduce (but never eliminate) the risk that a later file
//!   overwrites every copy of a block.
//!
//! Hand and Roscoe's Mnemosyne, which replaces StegRand's replication with
//! Rabin's (m, n) information dispersal, is not a baseline here: dispersal
//! is the production `Disperse` policy of `stegfs-core`, on the codec in
//! `stegfs_crypto::ida`.
//!
//! None of these schemes maintain a bitmap or a central directory — that is
//! precisely the property that makes them deniable and, as the paper shows,
//! impractical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stegcover;
pub mod stegrand;

pub use stegcover::StegCover;
/// The dispersal codec under its old path: the gating benchmark's ladder
/// (`benchmark/src/ladder.rs`) names it `stegfs_baselines::Ida`, and the
/// benchmark changes only in a change of its own.
pub use stegfs_crypto::ida::Ida;
pub use stegrand::{StegRand, StegRandSpaceModel};

/// Error type shared by the baseline schemes.
#[derive(Debug, PartialEq)]
pub enum BaselineError {
    /// The named object could not be found or reconstructed with this
    /// password (deliberately indistinguishable cases, as in StegFS).
    NotFound(String),
    /// A stored object was found but some of its blocks have been overwritten
    /// beyond recovery — the failure mode StegRand is prone to.
    DataLoss {
        /// Object name.
        name: String,
        /// Index of the first unrecoverable block.
        lost_block: u64,
    },
    /// The store is out of capacity (cover slots or address space).
    NoSpace,
    /// The object is too large for this store's configuration.
    TooLarge {
        /// Requested size in bytes.
        requested: u64,
        /// Maximum supported size in bytes.
        maximum: u64,
    },
    /// Invalid configuration or argument.
    Invalid(String),
    /// Error from the underlying block device.
    Block(stegfs_blockdev::BlockError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::NotFound(n) => write!(f, "object not found (or wrong password): {n}"),
            BaselineError::DataLoss { name, lost_block } => {
                write!(f, "object {name} lost block {lost_block} to overwriting")
            }
            BaselineError::NoSpace => write!(f, "no capacity left"),
            BaselineError::TooLarge { requested, maximum } => {
                write!(f, "object of {requested} bytes exceeds maximum {maximum}")
            }
            BaselineError::Invalid(msg) => write!(f, "invalid argument: {msg}"),
            BaselineError::Block(e) => write!(f, "block device error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<stegfs_blockdev::BlockError> for BaselineError {
    fn from(e: stegfs_blockdev::BlockError) -> Self {
        BaselineError::Block(e)
    }
}

/// Result alias for the baseline schemes.
pub type BaselineResult<T> = Result<T, BaselineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BaselineError::NotFound("x".into())
            .to_string()
            .contains("wrong password"));
        assert!(BaselineError::DataLoss {
            name: "f".into(),
            lost_block: 3
        }
        .to_string()
        .contains("lost block 3"));
        assert!(BaselineError::NoSpace.to_string().contains("capacity"));
        assert!(BaselineError::TooLarge {
            requested: 10,
            maximum: 5
        }
        .to_string()
        .contains("exceeds"));
        assert!(BaselineError::Invalid("bad".into())
            .to_string()
            .contains("bad"));
    }
}
