//! The generator's op streams, pinned byte for byte.
//!
//! Every simulated result downstream (the `results/` TSVs, the
//! `ffsbench` fingerprints) starts from these streams, so a change that
//! moves one op, one size or one tie's order fails here on its own,
//! before any replay is needed to show it.

use aging::{generate, profiles, AgingConfig, Lifetime, Op, Workload};
use ffs_types::record::fnv1a;
use ffs_types::FsParams;

/// FNV-1a over every op of `w` in replay order: a tag byte, then the
/// fields little-endian. Returns the digest and the op count.
fn digest(w: &Workload) -> (u64, usize) {
    let mut bytes = Vec::new();
    for day in &w.days {
        for op in &day.ops {
            match *op {
                Op::Create {
                    file,
                    cg,
                    size,
                    kind,
                } => {
                    bytes.push(match kind {
                        Lifetime::Long => b'L',
                        Lifetime::Short => b'S',
                    });
                    bytes.extend(file.0.to_le_bytes());
                    bytes.extend(cg.0.to_le_bytes());
                    bytes.extend(size.to_le_bytes());
                }
                Op::Delete { file } => {
                    bytes.push(b'D');
                    bytes.extend(file.0.to_le_bytes());
                }
                Op::Rewrite { file } => {
                    bytes.push(b'R');
                    bytes.extend(file.0.to_le_bytes());
                }
            }
        }
    }
    let ops = w.days.iter().map(|d| d.ops.len()).sum();
    (fnv1a(&bytes), ops)
}

#[test]
fn paper_workload_stream_is_pinned() {
    let params = FsParams::paper_502mb();
    let config = AgingConfig::paper(1996);
    assert_eq!(config.days, 300);
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    assert_eq!(digest(&w), (0xb1e4_2963_8e3e_5735, 1_039_628));
}

#[test]
fn smallfile_stream_is_pinned() {
    // The spool profile as `ffsbench`'s `age-smallfile` generates it:
    // dense inodes, 120 days, the lowered utilization plateau.
    let params = FsParams {
        bytes_per_inode: 2048,
        ..FsParams::paper_502mb()
    };
    let spool = profiles::smallfile(1996).swap_remove(0);
    assert_eq!(spool.name, "spool");
    let mut config = spool.config;
    config.days = 120;
    config.ramp_days = 40;
    config.plateau_util = 0.72;
    config.peak_util = 0.80;
    let w = generate(&config, params.ncg, params.data_capacity_bytes());
    assert_eq!(digest(&w), (0x3080_df33_bb82_cc6f, 1_144_581));
}
