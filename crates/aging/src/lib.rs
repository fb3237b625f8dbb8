//! File-system aging: synthetic workload generation and replay.
//!
//! This crate reproduces Section 3 of Smith & Seltzer (USENIX 1996): it
//! generates a ten-month workload mixing long-lived files (the paper's
//! file-server snapshots) with short-lived, same-day files (the paper's
//! NFS traces), and replays it against a fresh [`ffs::Filesystem`] to age
//! it, recording the aggregate layout score day by day.
//!
//! The original data sets are not available; DESIGN.md documents how the
//! synthetic models are calibrated to the totals the paper reports.
//!
//! # Examples
//!
//! ```
//! use aging::{generate, replay, AgingConfig, ReplayOptions};
//! use ffs::AllocPolicy;
//! use ffs_types::FsParams;
//!
//! let params = FsParams::small_test();
//! let config = AgingConfig::small_test(5, 42);
//! let w = generate(&config, params.ncg, params.data_capacity_bytes());
//! let aged = replay(&w, &params, AllocPolicy::Realloc,
//!                   ReplayOptions::default()).unwrap();
//! assert_eq!(aged.daily.len(), 5);
//! ```

pub mod cancel;
pub mod checkpoint;
pub mod config;
pub mod livemap;
pub mod profiles;
pub mod replay;
pub mod sizes;
pub mod snapshot;
pub mod stats;
pub mod workload;

pub use cancel::CancelToken;
pub use checkpoint::{take_checkpoint, Checkpoint};
pub use config::{AgingConfig, SizeDist};
pub use livemap::LiveMap;
pub use profiles::Profile;
pub use replay::{
    replay, replay_tapped, resume, CrashReport, DayStats, DayTap, Replay, ReplayOptions,
    ReplayResult,
};
pub use snapshot::{diff_to_workload, take_snapshot, Snapshot, SnapshotDiffer, SnapshotEntry};
pub use stats::{workload_stats, WorkloadStats};
pub use workload::{generate, DayLog, Days, FileId, Lifetime, Op, Workload};
