//! Error types for file-system operations.

use std::error::Error;
use std::fmt;

use crate::ids::{DirId, Ino};

/// Errors returned by the FFS simulator.
///
/// These mirror the errno values the BSD kernel would produce (`ENOSPC`,
/// `ENOENT`, ...), but carry enough context to debug a failed aging run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// The file system has no free block or fragment run large enough for
    /// the request (`ENOSPC`).
    NoSpace {
        /// Bytes the caller asked for when allocation failed.
        wanted_bytes: u64,
    },
    /// Every cylinder group's inode table is full (`ENOSPC` on create).
    NoInodes,
    /// The requested file would exceed the maximum size addressable with
    /// twelve direct, one single-indirect, and one double-indirect block
    /// (`EFBIG`).
    FileTooLarge {
        /// Requested file size in bytes.
        size: u64,
        /// Largest supported file size in bytes.
        max: u64,
    },
    /// The inode does not name a live file (`ENOENT`).
    NoSuchFile(Ino),
    /// The directory identifier is unknown (`ENOENT`).
    NoSuchDir(DirId),
    /// The caller passed an argument outside the legal range (`EINVAL`).
    InvalidArg(&'static str),
    /// On-disk state failed a consistency or format check and could not
    /// be interpreted — a checkpoint that does not parse, a snapshot
    /// naming a fragment outside the volume, and the like.
    Corrupt(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace { wanted_bytes } => {
                write!(f, "no space left on device (wanted {wanted_bytes} bytes)")
            }
            FsError::NoInodes => write!(f, "no free inodes"),
            FsError::FileTooLarge { size, max } => {
                write!(f, "file size {size} exceeds maximum {max}")
            }
            FsError::NoSuchFile(ino) => write!(f, "no such file: {ino:?}"),
            FsError::NoSuchDir(dir) => write!(f, "no such directory: {dir:?}"),
            FsError::InvalidArg(what) => write!(f, "invalid argument: {what}"),
            FsError::Corrupt(what) => write!(f, "corrupt on-disk state: {what}"),
        }
    }
}

impl Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = FsError::NoSpace { wanted_bytes: 8192 };
        assert!(e.to_string().contains("8192"));
        let e = FsError::FileTooLarge { size: 1, max: 0 };
        assert!(e.to_string().contains("exceeds"));
        assert!(FsError::NoSuchFile(Ino(3)).to_string().contains("ino#3"));
        assert!(FsError::NoSuchDir(DirId(2)).to_string().contains("dir#2"));
        assert!(FsError::InvalidArg("x").to_string().contains('x'));
        assert!(FsError::NoInodes.to_string().contains("inode"));
    }

    #[test]
    fn io_and_corrupt_display_their_context() {
        let e = FsError::Corrupt("bad checkpoint header".into());
        assert!(e.to_string().contains("bad checkpoint header"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FsError::NoInodes, FsError::NoInodes);
        assert_ne!(FsError::NoInodes, FsError::NoSpace { wanted_bytes: 1 });
    }
}
