//! I/O benchmark engines: the performance half of the paper (Section 5).
//!
//! Two benchmarks run against aged file systems:
//!
//! * [`sequential`]: the sequential create/write + read sweep over file
//!   sizes from 16 KB to 32 MB (Figures 4 and 5), including the
//!   synchronous metadata updates that dominate small-file creates;
//! * [`hotfiles`]: reading and overwriting the files modified in the last
//!   month of the aging run (Table 2 and Figure 6).
//!
//! Both convert the simulator's block addresses to disk LBAs via
//! [`map::FsDiskMap`] and drive the [`disk::Device`] timing model with
//! clustered transfers.

pub mod hotfiles;
pub mod map;
pub mod sequential;

pub use hotfiles::{run_hot_files, sort_by_directory, HotFilesResult};
pub use map::{FsDiskMap, IoEngine};
pub use sequential::{paper_file_sizes, run_point, SeqBenchConfig, SeqPoint};
