//! Shared vocabulary for the FFS allocation-policy study.
//!
//! This crate defines the identifier newtypes, parameter sets, and error
//! types used by every other crate in the workspace. The parameter sets
//! mirror Table 1 of Smith & Seltzer, *A Comparison of FFS Disk Allocation
//! Policies* (USENIX 1996): a 502 MB file system with 8 KB blocks and 1 KB
//! fragments on a Seagate 32430N disk.

pub mod error;
pub mod ids;
pub mod params;
pub mod record;
pub mod units;

pub use error::FsError;
pub use ids::{CgIdx, Daddr, DirId, Ino, Lbn};
pub use params::{DiskParams, FsParams};
pub use units::{GB, KB, MB};

/// Convenience result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;
