#![allow(missing_docs)] // criterion_group! expands undocumented items.
//! Microbenchmarks of the fragment-granularity machinery: the
//! `cg_frsum`-guided searches and the incremental summary maintenance
//! against their byte-at-a-time references from [`ffs::naive`], on a
//! paper-geometry group churned into a realistic mix of partial blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use ffs::{naive, CylGroup};
use ffs_types::{CgIdx, FsParams};
use std::hint::black_box;

/// A paper-geometry group (2920 blocks, 8 frags/block) driven by a
/// deterministic churn of whole-block and sub-block allocations to the
/// state a small-file workload leaves behind: most blocks full or free,
/// a few hundred partial ones with assorted hole sizes.
fn fragmented_group() -> CylGroup {
    let params = FsParams::paper_502mb();
    let mut cg = CylGroup::new(&params, CgIdx(1));
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    let fpb = cg.frags_per_block();
    let full = cg.full_lane();
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    for _ in 0..4 * n {
        let b = m + step() % (n - m);
        let byte = cg.map_byte(b);
        if byte == 0 {
            if step() % 10 < 6 {
                cg.alloc_block(b);
            } else {
                let frag = step() % fpb;
                cg.alloc_frags(b, frag, 1 + step() % (fpb - frag));
            }
        } else if byte == full {
            if step() % 10 < 3 {
                cg.free_block(b);
            }
        } else {
            let frag = step() % fpb;
            if byte & (1 << frag) == 0 {
                cg.alloc_frags(b, frag, 1);
            } else {
                cg.free_frag_run(b, frag, 1);
            }
        }
    }
    cg
}

fn sweep_firstfit(cg: &CylGroup) -> u64 {
    let mut acc = 0u64;
    for from in (0..cg.nblocks()).step_by(53) {
        for len in 1..8 {
            if let Some(r) = cg.find_frag_run(from, len) {
                acc = acc.wrapping_add((r.block * 8 + r.frag) as u64);
            }
        }
    }
    acc
}

fn sweep_firstfit_naive(cg: &CylGroup) -> u64 {
    let mut acc = 0u64;
    for from in (0..cg.nblocks()).step_by(53) {
        for len in 1..8 {
            if let Some((b, f)) = naive::find_frag_run(cg, from, len) {
                acc = acc.wrapping_add((b * 8 + f) as u64);
            }
        }
    }
    acc
}

fn sweep_bestfit(cg: &CylGroup) -> u64 {
    let mut acc = 0u64;
    for from in (0..cg.nblocks()).step_by(53) {
        for len in 1..8 {
            if let Some(r) = cg.find_frag_run_bestfit(from, len) {
                acc = acc.wrapping_add((r.block * 8 + r.frag) as u64);
            }
        }
    }
    acc
}

fn sweep_bestfit_naive(cg: &CylGroup) -> u64 {
    let mut acc = 0u64;
    for from in (0..cg.nblocks()).step_by(53) {
        for len in 1..8 {
            if let Some((b, f)) = naive::find_frag_run_bestfit(cg, from, len) {
                acc = acc.wrapping_add((b * 8 + f) as u64);
            }
        }
    }
    acc
}

/// Fragment churn through the public mutators: every alloc/free pays
/// the incremental `frsum` accounting this measures.
fn churn_frags(cg: &mut CylGroup) -> u64 {
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    let mut acc = 0u64;
    for b in (m..n).step_by(3) {
        if cg.map_byte(b) == 0 {
            cg.alloc_frags(b, 0, 3);
            acc = acc.wrapping_add(1);
        }
    }
    for b in (m..n).step_by(3) {
        if cg.map_byte(b) == 0b0000_0111 {
            cg.free_frag_run(b, 0, 3);
        }
    }
    acc
}

fn bench(c: &mut Criterion) {
    let cg = fragmented_group();
    // Identical answers are the frag oracle's job; asserting here too
    // keeps the bench honest if it outlives a behavior change.
    assert_eq!(sweep_firstfit(&cg), sweep_firstfit_naive(&cg));
    assert_eq!(sweep_bestfit(&cg), sweep_bestfit_naive(&cg));
    assert_eq!(
        cg.derived_drift(),
        [],
        "derived state must match its recount before timing anything"
    );
    let mut g = c.benchmark_group("micro_frag");
    g.bench_function("frag_firstfit", |b| {
        b.iter(|| sweep_firstfit(black_box(&cg)))
    });
    g.bench_function("frag_firstfit_naive", |b| {
        b.iter(|| sweep_firstfit_naive(black_box(&cg)))
    });
    g.bench_function("frag_bestfit_frsum", |b| {
        b.iter(|| sweep_bestfit(black_box(&cg)))
    });
    g.bench_function("frag_bestfit_naive", |b| {
        b.iter(|| sweep_bestfit_naive(black_box(&cg)))
    });
    g.bench_function("frag_churn_incremental", |b| {
        // The clone is part of every iteration (the shimmed criterion
        // has no iter_batched); it is the same for any allocator, so
        // the regression gate still sees frsum-accounting drift.
        b.iter(|| {
            let mut g = black_box(&cg).clone();
            churn_frags(&mut g)
        })
    });
    g.bench_function("derived_recount_naive", |b| {
        b.iter(|| naive::recount_derived(black_box(&cg)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
