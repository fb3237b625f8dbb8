//! # ffs-aging
//!
//! A full reproduction of Smith & Seltzer, *A Comparison of FFS Disk
//! Allocation Policies* (USENIX 1996), as a deterministic Rust
//! simulation.
//!
//! The paper asks one question: does the 4.4BSD block-reallocation
//! policy (`ffs_reallocblks`, "realloc") keep a file system less
//! fragmented than the traditional one-block-at-a-time FFS allocator as
//! the file system ages — and does that translate into throughput?
//! Answering it requires three systems, all provided here:
//!
//! * [`ffs`] — a block-layer FFS simulator: cylinder groups, fragments,
//!   inodes, directories, the indirect-block cylinder-group switch, and
//!   both allocation policies ([`ffs::AllocPolicy`]).
//! * [`aging`] — the paper's file-system aging methodology: a synthetic
//!   ten-month workload (long-lived snapshot files plus short-lived
//!   NFS-trace files) and a replayer that ages a file system and records
//!   the aggregate layout score day by day.
//! * [`disk`] — a timing model of the paper's Seagate ST32430N disk:
//!   seek curve, rotational position, track-buffer read-ahead, and the
//!   64 KB maximum transfer size, so layout quality becomes throughput
//!   exactly as in Section 5.
//!
//! [`iobench`] ties them together with the paper's two benchmarks
//! (sequential I/O sweep and the hot-file benchmark), and the `harness`
//! binary regenerates every table and figure (`harness all`).
//!
//! # Quickstart
//!
//! Age two file systems with the same workload and compare fragmentation:
//!
//! ```
//! use ffs_aging::prelude::*;
//!
//! let params = FsParams::small_test();        // 16 MB test geometry
//! let config = AgingConfig::small_test(10, 42); // 10 days, seed 42
//! let w = generate(&config, params.ncg, params.data_capacity_bytes());
//!
//! let orig = replay(&w, &params, AllocPolicy::Orig,
//!                   ReplayOptions::default()).unwrap();
//! let re = replay(&w, &params, AllocPolicy::Realloc,
//!                 ReplayOptions::default()).unwrap();
//!
//! let s_orig = orig.daily.last().unwrap().layout_score;
//! let s_re = re.daily.last().unwrap().layout_score;
//! assert!(s_re >= s_orig, "realloc should age at least as well");
//! ```
//!
//! The paper-scale experiment is the same code with
//! [`FsParams::paper_502mb`](ffs_types::FsParams::paper_502mb) and
//! [`AgingConfig::paper`](aging::AgingConfig::paper) — see `harness fig2`
//! and DESIGN.md.

pub use aging;
pub use disk;
pub use ffs;
pub use ffs_types;
pub use iobench;

/// The most common imports, re-exported in one place.
pub mod prelude {
    pub use aging::{
        generate, replay, resume, workload_stats, AgingConfig, Checkpoint, ReplayOptions,
        ReplayResult, Workload,
    };
    pub use disk::{raw_read_throughput, raw_write_throughput, Device, IoKind};
    pub use ffs::{
        assert_consistent, check, free_space_stats, inject_metadata_damage, layout_by_size, repair,
        size_bins_paper, AllocPolicy, Filesystem, RepairReport, Violation,
    };
    pub use ffs_types::{DiskParams, FsParams, KB, MB};
    pub use iobench::{run_hot_files, run_point, SeqBenchConfig};
}
