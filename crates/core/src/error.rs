//! Error type for StegFS operations.
//!
//! A deliberate design point: looking up a hidden object with a wrong key and
//! looking up an object that never existed return the **same** error variant,
//! [`StegError::NotFound`].  Distinguishing the two would hand an adversary
//! exactly the oracle the system is built to deny.

use stegfs_blockdev::BlockError;
use stegfs_fs::FsError;

/// Result alias for StegFS operations.
pub type StegResult<T> = Result<T, StegError>;

/// Errors reported by [`crate::StegFs`].
#[derive(Debug)]
pub enum StegError {
    /// The hidden object was not found.  Returned both when no such object
    /// exists and when the supplied access key is wrong — the two cases are
    /// intentionally indistinguishable.
    NotFound(String),
    /// An object with this name already exists in the target UAK directory.
    AlreadyExists(String),
    /// The volume has no free space for the requested operation.
    NoSpace,
    /// A parameter is outside its allowed range (see [`crate::StegParams`]).
    InvalidParameter(String),
    /// The object name is syntactically invalid.
    InvalidName(String),
    /// The sharing envelope could not be decrypted or parsed.
    InvalidShareEnvelope,
    /// A backup image failed authentication or parsing.
    InvalidBackup(String),
    /// The operation requires a regular hidden file but found a directory, or
    /// vice versa.
    WrongObjectKind {
        /// Name of the offending object.
        name: String,
        /// Kind that was expected.
        expected: crate::header::ObjectKind,
    },
    /// Error from the plain file-system layer.
    Fs(FsError),
}

impl std::fmt::Display for StegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StegError::NotFound(name) => {
                write!(f, "hidden object not found (or wrong access key): {name}")
            }
            StegError::AlreadyExists(name) => write!(f, "hidden object already exists: {name}"),
            StegError::NoSpace => write!(f, "no space left on volume"),
            StegError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            StegError::InvalidName(name) => write!(f, "invalid object name: {name}"),
            StegError::InvalidShareEnvelope => write!(f, "invalid or corrupted share envelope"),
            StegError::InvalidBackup(msg) => write!(f, "invalid backup image: {msg}"),
            StegError::WrongObjectKind { name, expected } => {
                write!(f, "{name} is not a hidden {expected:?}")
            }
            StegError::Fs(e) => write!(f, "file system error: {e}"),
        }
    }
}

impl std::error::Error for StegError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StegError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for StegError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NoSpace => StegError::NoSpace,
            other => StegError::Fs(other),
        }
    }
}

impl From<BlockError> for StegError {
    fn from(e: BlockError) -> Self {
        StegError::Fs(FsError::Block(e))
    }
}

impl StegError {
    /// True if the error is the deniable "not found / wrong key" case.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StegError::NotFound(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjectKind;

    #[test]
    fn display_messages() {
        assert!(StegError::NotFound("x".into())
            .to_string()
            .contains("wrong access key"));
        assert!(StegError::AlreadyExists("x".into())
            .to_string()
            .contains("already exists"));
        assert!(StegError::NoSpace.to_string().contains("no space"));
        assert!(StegError::InvalidParameter("p".into())
            .to_string()
            .contains("invalid parameter"));
        assert!(StegError::InvalidName("n".into())
            .to_string()
            .contains("invalid object name"));
        assert!(StegError::InvalidShareEnvelope
            .to_string()
            .contains("share envelope"));
        assert!(StegError::InvalidBackup("b".into())
            .to_string()
            .contains("backup"));
        assert!(StegError::WrongObjectKind {
            name: "d".into(),
            expected: ObjectKind::File
        }
        .to_string()
        .contains("not a hidden"));
    }

    #[test]
    fn fs_no_space_maps_to_steg_no_space() {
        let e: StegError = FsError::NoSpace.into();
        assert!(matches!(e, StegError::NoSpace));
        let e: StegError = FsError::NotFound("/x".into()).into();
        assert!(matches!(e, StegError::Fs(_)));
    }

    #[test]
    fn not_found_helper() {
        assert!(StegError::NotFound("a".into()).is_not_found());
        assert!(!StegError::NoSpace.is_not_found());
    }
}
