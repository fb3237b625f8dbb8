//! Differential oracle for the word-level free-space search.
//!
//! `crates/ffs/src/cg.rs` answers every free-space query from two derived
//! structures (a packed free-block bitmap and an incrementally maintained
//! cluster summary table); the 4.4BSD reference (`bsd/mod.rs`) answers
//! the same queries from the group's `struct cg` bytes alone. These
//! tests drive both over randomized allocation states and randomized
//! queries — including the wraparound, past-the-end, and
//! longer-than-the-group edge cases — and assert they are bit-for-bit
//! identical, and that the summary table always equals a from-scratch
//! recount.

mod bsd;

use bsd::{Cg, Sb};
use ffs::CylGroup;
use ffs_types::{CgIdx, FsParams, KB, MB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A geometry whose groups are not a multiple of 64 blocks (426 and 428),
/// so runs and searches straddle partial trailing words.
fn odd_params() -> FsParams {
    FsParams {
        size_bytes: 10 * MB,
        ncg: 3,
        ..FsParams::small_test()
    }
}

/// `cg` of a volume of `params` as the reference decodes it.
fn reference(params: &FsParams, cg: &CylGroup) -> Cg {
    Cg::encode(&Sb::new(params), cg)
}

/// Builds a randomly fragmented group by replaying `ops` random public
/// mutations (whole-block and fragment-level allocations and frees).
fn random_group(params: &FsParams, cg_idx: u32, rng: &mut StdRng, ops: usize) -> CylGroup {
    let mut cg = CylGroup::new(params, CgIdx(cg_idx));
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    for _ in 0..ops {
        let b = rng.gen_range(m..n);
        let byte = cg.map_byte(b);
        if byte == 0 {
            // Bias toward whole-block allocation: block-level churn is what
            // shapes the free bitmap and summary.
            if rng.gen_bool(0.8) {
                cg.alloc_block(b);
            } else {
                let frag = rng.gen_range(0u32..8);
                let len = rng.gen_range(1u32..=8 - frag);
                cg.alloc_frags(b, frag, len);
            }
        } else if byte == 0xFF {
            cg.free_block(b);
        } else {
            let frag = rng.gen_range(0u32..8);
            if byte & (1 << frag) == 0 {
                cg.alloc_frags(b, frag, 1);
            } else {
                cg.free_frag_run(b, frag, 1);
            }
        }
    }
    cg
}

/// Draws a query position: usually in range, sometimes past the end or at
/// the `u32::MAX` extreme (both must reset the scan to the metadata edge).
fn draw_from(rng: &mut StdRng, n: u32) -> u32 {
    match rng.gen_range(0u32..10) {
        0 => n + rng.gen_range(0u32..100),
        1 => u32::MAX,
        _ => rng.gen_range(0..n),
    }
}

/// Draws a cluster length: usually within `maxcontig`, sometimes beyond it
/// (the pooled summary bucket), sometimes longer than the whole group.
fn draw_len(rng: &mut StdRng, n: u32) -> u32 {
    match rng.gen_range(0u32..8) {
        0 => n + rng.gen_range(1u32..10),
        1 => rng.gen_range(8u32..=64.min(n.max(8))),
        _ => rng.gen_range(1u32..=7),
    }
}

/// Asserts every search function agrees with the reference for
/// `queries` random `(from, len, window)` triples, and that the derived
/// state matches a from-scratch recount.
fn assert_oracle(params: &FsParams, cg: &CylGroup, rng: &mut StdRng, queries: usize) {
    let (n, r) = (cg.nblocks(), reference(params, cg));
    assert_eq!(cg.derived_drift(), [], "derived state drifted from the map");
    let runs: Vec<(u32, u32)> = cg.free_runs().collect();
    assert_eq!(
        runs.iter().map(|&(_, r)| r).sum::<u32>(),
        cg.free_blocks(),
        "free runs do not cover the free blocks"
    );
    for &(s, r) in &runs {
        assert!(s + r <= n, "run ({s}, {r}) extends past the group");
        assert!(cg.is_cluster_free(s, r));
        assert!(!cg.is_cluster_free(s, r + 1), "run ({s}, {r}) not maximal");
    }
    for _ in 0..queries {
        let from = draw_from(rng, n);
        let len = draw_len(rng, n);
        let window = match rng.gen_range(0u32..6) {
            0 => 0,
            1 => u32::MAX,
            2 => n + rng.gen_range(0u32..50),
            _ => rng.gen_range(1..n.max(2)),
        };
        assert_eq!(
            cg.find_free_block(from),
            r.mapsearch_block(from),
            "find_free_block(from={from})"
        );
        assert_eq!(
            cg.find_free_cluster(from, len),
            r.clusteralloc(from, len),
            "find_free_cluster(from={from}, len={len})"
        );
        assert_eq!(
            cg.find_free_cluster_bestfit(len),
            r.cluster_near(0, len, u32::MAX),
            "find_free_cluster_bestfit(len={len})"
        );
        assert_eq!(
            cg.is_cluster_free(from, len),
            r.is_cluster_free(from, len),
            "is_cluster_free(from={from}, len={len})"
        );
        assert_eq!(
            cg.find_free_cluster_near(from, len, window),
            r.cluster_near(from, len, window),
            "find_free_cluster_near(from={from}, len={len}, window={window})"
        );
        // The word-at-a-time neighbor-run scans feeding the cluster
        // summary, vs the reference's per-bit walks. Uncapped-ish caps too,
        // so whole-word runs and the group edge both get exercised.
        let b = rng.gen_range(0..n);
        let cap = match rng.gen_range(0u32..4) {
            0 => rng.gen_range(1..=7u32),
            1 => n + 1,
            _ => rng.gen_range(1..=200.min(n)),
        };
        assert_eq!(
            cg.free_len_before(b, cap),
            r.free_len_before(b, cap),
            "free_len_before(block={b}, cap={cap})"
        );
        assert_eq!(
            cg.free_len_after(b, cap),
            r.free_len_after(b, cap),
            "free_len_after(block={b}, cap={cap})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Small paper geometry (512-block groups, a multiple of 64): random
    /// churn, then every search vs its reference.
    #[test]
    fn searches_match_naive_small(seed in any::<u64>()) {
        let params = FsParams::small_test();
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = rng.gen_range(0usize..1200);
        let cg = random_group(&params, 1, &mut rng, ops);
        assert_oracle(&params, &cg, &mut rng, 64);
    }

    /// The paper's 502 MB geometry: 2920-block groups, NOT a multiple of
    /// 64, so every scan ends inside a partial trailing word.
    #[test]
    fn searches_match_naive_paper(seed in any::<u64>()) {
        let params = FsParams::paper_502mb();
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = rng.gen_range(0usize..4000);
        let cg = random_group(&params, 3, &mut rng, ops);
        assert_oracle(&params, &cg, &mut rng, 32);
    }

    /// Odd geometry (426/428-block groups) including the oversized final
    /// group that absorbs the division remainder.
    #[test]
    fn searches_match_naive_odd_geometry(seed in any::<u64>()) {
        let params = odd_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let cg_idx = rng.gen_range(0u32..params.ncg);
        let ops = rng.gen_range(0usize..1000);
        let cg = random_group(&params, cg_idx, &mut rng, ops);
        assert_oracle(&params, &cg, &mut rng, 48);
    }

    /// The incremental summary stays exact after *every* single mutation,
    /// not just at the end of a burst: equal to our recount and, as
    /// `struct cg` bytes, to the reference's.
    #[test]
    fn summary_tracks_every_mutation(seed in any::<u64>()) {
        let params = FsParams::small_test();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cg = random_group(&params, 2, &mut rng, 64);
        let (m, n) = (cg.meta_blocks(), cg.nblocks());
        for _ in 0..96 {
            let b = rng.gen_range(m..n);
            match cg.map_byte(b) {
                0 => cg.alloc_block(b),
                0xFF => cg.free_block(b),
                byte => {
                    // Complete the partial block, flipping it to fully
                    // free or fully allocated at random.
                    let free_bits: Vec<u32> = (0..8).filter(|i| byte & (1 << i) == 0).collect();
                    if rng.gen_bool(0.5) {
                        for &f in &free_bits {
                            cg.alloc_frags(b, f, 1);
                        }
                    } else {
                        for f in (0..8).filter(|i| byte & (1 << i) != 0) {
                            cg.free_frag_run(b, f, 1);
                        }
                    }
                }
            }
            prop_assert_eq!(cg.derived_drift(), []);
            let r = reference(&params, &cg);
            prop_assert_eq!(r.summary(), r.recount());
        }
    }
}

#[test]
fn from_past_the_end_restarts_at_metadata() {
    let params = FsParams::small_test();
    let mut cg = CylGroup::new(&params, CgIdx(0));
    let m = cg.meta_blocks();
    let n = cg.nblocks();
    cg.alloc_block(m); // Metadata edge allocated: the answer is m + 1.
    let r = reference(&params, &cg);
    for from in [n, n + 1, n + 513, u32::MAX] {
        assert_eq!(cg.find_free_block(from), Some(m + 1));
        assert_eq!(cg.find_free_cluster(from, 3), Some(m + 1));
        assert_eq!(cg.find_free_cluster_near(from, 3, 8), Some(m + 1));
        assert_eq!(cg.find_free_block(from), r.mapsearch_block(from));
        assert_eq!(cg.find_free_cluster(from, 3), r.clusteralloc(from, 3));
        assert_eq!(
            cg.find_free_cluster_near(from, 3, 8),
            r.cluster_near(from, 3, 8)
        );
    }
}

#[test]
fn requests_longer_than_the_group_are_rejected() {
    let params = FsParams::small_test();
    let cg = CylGroup::new(&params, CgIdx(0));
    let (data, r) = (cg.nblocks() - cg.meta_blocks(), reference(&params, &cg));
    // The whole data area is one free run: exactly `data` fits, more than
    // `data` does not, no matter how absurd the request.
    assert_eq!(cg.find_free_cluster(0, data), Some(cg.meta_blocks()));
    for len in [data + 1, cg.nblocks(), cg.nblocks() + 7, u32::MAX] {
        assert_eq!(cg.find_free_cluster(0, len), None);
        assert_eq!(cg.find_free_cluster_bestfit(len), None);
        assert_eq!(cg.find_free_cluster_near(0, len, 64), None);
        assert_eq!(cg.find_free_cluster(0, len), r.clusteralloc(0, len));
    }
}

#[test]
fn exhausted_group_returns_none_everywhere() {
    let params = FsParams::small_test();
    let mut cg = CylGroup::new(&params, CgIdx(1));
    for b in cg.meta_blocks()..cg.nblocks() {
        cg.alloc_block(b);
    }
    assert_eq!(cg.free_blocks(), 0);
    assert!(cg.cluster_summary().iter().all(|&c| c == 0));
    assert_eq!(cg.find_free_block(0), None);
    assert_eq!(cg.find_free_cluster(7, 1), None);
    assert_eq!(cg.find_free_cluster_bestfit(1), None);
    assert_eq!(cg.find_free_cluster_near(100, 2, 50), None);
    assert_eq!(cg.free_runs().count(), 0);
    let r = reference(&params, &cg);
    assert_eq!(r.mapsearch_block(0), None);
    assert_eq!(r.clusteralloc(7, 1), None);
    assert_eq!(r.cluster_near(0, 1, u32::MAX), None);
    assert_eq!(r.cluster_near(100, 2, 50), None);
}

#[test]
fn wrap_margin_covers_runs_crossing_the_start() {
    let params = FsParams::small_test();
    let mut cg = CylGroup::new(&params, CgIdx(0));
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    // Free exactly [s-2, s+2]; everything else allocated.
    let s = m + 100;
    for b in m..n {
        if !(s - 2..=s + 2).contains(&b) {
            cg.alloc_block(b);
        }
    }
    // A 5-cluster search from inside the run sees only its tail going
    // forward. `ffs_clusteralloc` stops at the group's end there; the
    // windowed search wraps, and its wrap pass must re-scan far enough
    // past `from` to see the full run.
    let r = reference(&params, &cg);
    assert_eq!(cg.find_free_cluster(s + 1, 5), None);
    assert_eq!(cg.find_free_cluster(s + 1, 5), r.clusteralloc(s + 1, 5));
    assert_eq!(cg.find_free_cluster_near(s + 1, 5, 10), Some(s - 2));
    assert_eq!(cg.find_free_cluster_near(s + 1, 6, 10), None);
    assert_eq!(
        cg.find_free_cluster_near(s + 1, 5, 10),
        r.cluster_near(s + 1, 5, 10)
    );
}

#[test]
fn window_extremes_match_naive() {
    let params = FsParams::small_test();
    let mut rng = StdRng::seed_from_u64(47);
    let cg = random_group(&params, 1, &mut rng, 600);
    let (n, r) = (cg.nblocks(), reference(&params, &cg));
    for from in [0, n / 2, n - 1] {
        for len in [1, 3, 7] {
            for window in [0, 1, n, u32::MAX] {
                assert_eq!(
                    cg.find_free_cluster_near(from, len, window),
                    r.cluster_near(from, len, window),
                    "near(from={from}, len={len}, window={window})"
                );
            }
        }
    }
}

/// The windowed search visits only the run starts its per-word mask
/// leaves standing, so hold it to the run-by-run reference wherever the
/// mask has an edge: a start inside a run (the run counts from there), a
/// start on a word boundary, a window limit that falls inside a run (the
/// run starts in the window or not by its first block alone), every
/// length around `maxcontig` and around the 64/65-block reach of the
/// mask, an empty window and one wider than the group — on groups whose
/// bitmaps end mid-word.
#[test]
fn near_search_matches_naive_at_every_mask_edge() {
    let params = odd_params();
    let lens = (1..=params.maxcontig + 2).chain([63, 64, 65, 66, 67, 130]);
    let lens: Vec<u32> = lens.collect();
    for (seed, ops) in [(1u64, 0usize), (2, 40), (3, 200), (4, 600), (5, 1500)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let cg = random_group(&params, seed as u32 % params.ncg, &mut rng, ops);
        let (n, r) = (cg.nblocks(), reference(&params, &cg));
        assert_ne!(n % 64, 0);
        let near = |from: u32, len: u32, window: u32| {
            assert_eq!(
                cg.find_free_cluster_near(from, len, window),
                r.cluster_near(from, len, window),
                "near(from={from}, len={len}, window={window}) seed {seed}"
            );
        };
        for (s, run) in cg.free_runs().collect::<Vec<_>>() {
            let inside = s + run / 2;
            // Before the run, on the word boundary below it, at its first
            // block, inside it, at its last block.
            for from in [s.saturating_sub(70), s - s % 64, s, inside, s + run - 1] {
                for &len in &lens {
                    // The limit on the run's first block, inside the run,
                    // one past its end; no window; more than the group.
                    for lim in [s, inside, s + run] {
                        near(from, len, lim.saturating_sub(from));
                    }
                    near(from, len, 0);
                    near(from, len, n + 3);
                }
            }
        }
        for from in (0..n).step_by(64).chain([n - 1, n, u32::MAX]) {
            for &len in &lens {
                for window in [0, 1, 63, 64, 65, 512, n, u32::MAX] {
                    near(from, len, window);
                }
            }
        }
    }
    // One long run in an otherwise full group, starting on the last and
    // on the first bit of a word: the requests the mask's 128 bits just
    // reach, and the ones they do not.
    let mut full = CylGroup::new(&params, CgIdx(0));
    full.alloc_block_run(full.meta_blocks(), full.nblocks() - full.meta_blocks());
    for start in [63, 64, 127, 128] {
        for run in [63, 64, 65, 66, 67, 130] {
            let mut cg = full.clone();
            cg.free_block_run(start, run);
            let r = reference(&params, &cg);
            for len in run - 1..=run + 1 {
                for (from, window) in [(0, 0), (0, 512), (start, 1), (start + 1, 512)] {
                    assert_eq!(
                        cg.find_free_cluster_near(from, len, window),
                        r.cluster_near(from, len, window),
                        "run {start}+{run}: near(from={from}, len={len}, window={window})"
                    );
                }
            }
        }
    }
}

#[test]
fn is_cluster_free_handles_boundaries() {
    let params = odd_params();
    let mut cg = CylGroup::new(&params, CgIdx(params.ncg - 1));
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    assert!(
        n % 64 != 0,
        "geometry must exercise a partial trailing word"
    );
    // Zero-length requests are vacuously free; anything touching a block
    // at or past `nblocks` is not.
    assert!(cg.is_cluster_free(0, 0));
    assert!(cg.is_cluster_free(n, 0));
    assert!(!cg.is_cluster_free(n, 1));
    assert!(!cg.is_cluster_free(n - 1, 2));
    assert!(cg.is_cluster_free(n - 1, 1));
    assert!(cg.is_cluster_free(m, n - m));
    assert!(!cg.is_cluster_free(m, n - m + 1));
    // The tail run is clipped at the group end even mid-word.
    for b in m..n - 3 {
        cg.alloc_block(b);
    }
    assert_eq!(cg.find_free_cluster(0, 3), Some(n - 3));
    assert_eq!(cg.find_free_cluster(0, 4), None);
    assert_eq!(
        cg.find_free_cluster(0, 3),
        reference(&params, &cg).clusteralloc(0, 3)
    );
}

/// A run of `n` blocks from `b` given back (`free`) or taken in one
/// transition, against the reference moving them a block at a time
/// (`ffs_clusteracct` per block, so the summary and `cg_clustersfree`
/// follow, and the rotors stay).
fn assert_run(params: &FsParams, cg: &CylGroup, b: u32, n: u32, free: bool) {
    let (mut ours, mut r) = (cg.clone(), reference(params, cg));
    match free {
        true => ours.free_block_run(b, n),
        false => ours.alloc_block_run(b, n),
    }
    r.blocks(b, n, free);
    let diff = reference(params, &ours).diff(&r);
    assert_eq!(diff, None, "blocks {b}+{n} free={free}");
}

#[test]
fn summary_pools_long_runs_in_the_last_bucket() {
    let params = FsParams::small_test();
    let mut cg = CylGroup::new(&params, CgIdx(0));
    let cap = cg.cluster_summary().len();
    assert_eq!(cap, params.maxcontig as usize);
    // Fresh group: one run much longer than maxcontig, pooled at the top.
    let mut expect = vec![0u32; cap];
    expect[cap - 1] = 1;
    assert_eq!(cg.cluster_summary(), &expect[..]);
    // Splitting it once yields two pooled runs.
    cg.alloc_block(cg.meta_blocks() + 64);
    expect[cap - 1] = 2;
    assert_eq!(cg.cluster_summary(), &expect[..]);
    // Carve a hole bounded by short runs and check exact short counts.
    let m = cg.meta_blocks();
    for b in m + 1..m + 4 {
        cg.alloc_block(b); // Leaves run [m, m] of length 1.
    }
    assert_eq!(cg.derived_drift(), []);
    assert_eq!(cg.cluster_summary()[0], 1);
    // Run transitions on full groups of both sizes ending in a partial
    // trailing word: inside a word and across one and two word
    // boundaries, from the first data block and up to the last block,
    // with free neighbours on either side absent, under the pooling cap,
    // at it and over it.
    let params = odd_params();
    for g in [0, 2] {
        let mut full = CylGroup::new(&params, CgIdx(g));
        let (m, end, cap) = (full.meta_blocks(), full.nblocks(), params.maxcontig);
        full.alloc_block_run(m, end - m);
        for n in [1, 2, 7, 8, 9, 63, 64, 65, 129, 130] {
            for b in [m, 40, 60, 63, 64, 65, 127, 128, 200, end - n] {
                for (left, right) in [0, 3, cap, cap + 5].into_iter().zip([0, cap, cap + 6, 2]) {
                    if b < m + left || b + n + right > end {
                        continue;
                    }
                    let mut cg = full.clone();
                    for (at, len) in [(b - left, left), (b + n, right)] {
                        if len > 0 {
                            cg.free_block_run(at, len);
                        }
                    }
                    assert_run(&params, &cg, b, n, true);
                    cg.free_block_run(b, n);
                    assert_run(&params, &cg, b, n, false);
                }
            }
        }
        assert_run(&params, &full, m, end - m, true);
    }
}

#[test]
fn odd_geometry_is_actually_odd() {
    let p = odd_params();
    assert_eq!(p.bsize, 8 * KB as u32);
    assert_ne!(p.cg_nblocks(CgIdx(0)) % 64, 0);
    assert_ne!(p.cg_nblocks(CgIdx(p.ncg - 1)) % 64, 0);
    assert!(p.cg_nblocks(CgIdx(p.ncg - 1)) > p.cg_nblocks(CgIdx(0)));
}
