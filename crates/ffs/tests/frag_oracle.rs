//! Differential oracle for the fragment-granularity free-space
//! machinery.
//!
//! `crates/ffs/src/cg.rs` keeps the fragment allocation map packed into
//! `u64` words with an incrementally maintained fragment summary
//! (`cg_frsum`), and answers fragment searches from them;
//! the 4.4BSD reference (`bsd/mod.rs`) answers them from the group's
//! `struct cg` bytes, a block to a map byte. These tests drive both
//! over random small-file churn on 426- and 428-block groups (each
//! leaving a non-multiple-of-64 trailing fragment word) and assert that
//! the fragment searches, and beside them the whole-block search and the
//! capped free runs, are bit-for-bit identical and that the summary always
//! equals a from-scratch recount, after *every* mutation. Beside the
//! random maps, four constructed ones pin the shapes the searches branch
//! on — loose fragments but no fitting run, only fully free blocks, only
//! partial blocks, the sole fit below the starting block — against the
//! reference for every `(from, len)` there is.

mod bsd;

use bsd::{Cg, Sb};
use ffs::CylGroup;
use ffs_types::{CgIdx, FsParams, MB};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 10 MB / 3-group geometry. The groups are 426 and 428 blocks, so
/// the packed fragment map ends inside a partial trailing word
/// (426 * 8 % 64 = 16) and boundary bugs cannot hide.
fn geometry() -> FsParams {
    FsParams {
        size_bytes: 10 * MB,
        ncg: 3,
        ..FsParams::small_test()
    }
}

/// `cg`, a group of [`geometry`], as the reference decodes it.
fn reference(cg: &CylGroup) -> Cg {
    Cg::encode(&Sb::new(&geometry()), cg)
}

/// One random public mutation on the group, mimicking small-file churn:
/// whole-block and fragment-run allocations, single-fragment flips, and
/// the frees (including the last-fragment promotion) they imply.
fn churn_once(cg: &mut CylGroup, rng: &mut StdRng) {
    let b = rng.gen_range(cg.meta_blocks()..cg.nblocks());
    let byte = cg.map_byte(b);
    if byte == 0 {
        if rng.gen_bool(0.4) {
            cg.alloc_block(b);
        } else {
            // Split the block with a sub-block run (a small file's
            // tail); a full-lane draw degenerates to a whole-block
            // allocation through the fragment path, also worth hitting.
            let frag = rng.gen_range(0u32..8);
            let len = rng.gen_range(1..=8 - frag);
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

/// The derived state and free counters vs their from-scratch recounts,
/// ours and the reference's.
fn assert_summary_exact(cg: &CylGroup) {
    assert_eq!(cg.frag_summary().len(), 7);
    assert_eq!(cg.derived_drift(), [], "derived state drifted");
    let r = reference(cg);
    assert_eq!(r.summary(), r.recount(), "summaries vs recount");
    let free_frags: u32 = (0..cg.nblocks())
        .map(|b| cg.map_byte(b).count_zeros())
        .sum();
    assert_eq!(cg.free_frags(), free_frags, "free-fragment counter drifted");
    let free_blocks = (0..cg.nblocks()).filter(|&b| cg.map_byte(b) == 0).count();
    assert_eq!(
        cg.free_blocks() as usize,
        free_blocks,
        "free-block counter drifted"
    );
}

/// Draws a search position: usually in range, sometimes past the end or
/// at the `u32::MAX` extreme (both reset the scan to the metadata edge).
fn draw_from(rng: &mut StdRng, n: u32) -> u32 {
    match rng.gen_range(0u32..10) {
        0 => n + rng.gen_range(0u32..100),
        1 => u32::MAX,
        _ => rng.gen_range(0..n),
    }
}

/// Both fragment searches vs the reference, `r`, for one query:
/// fragment first fit, and `ffs_alloccg`'s `cg_frsum`-guided best fit.
fn assert_query_matches(cg: &CylGroup, r: &Cg, from: u32, len: u32) {
    assert_eq!(
        cg.find_frag_run(from, len).map(|f| (f.block, f.frag)),
        r.frag_first_fit(from, len),
        "find_frag_run(from={from}, len={len})"
    );
    assert_eq!(
        cg.find_frag_run_bestfit(from, len)
            .map(|f| (f.block, f.frag)),
        r.frag_best_fit(from, len),
        "find_frag_run_bestfit(from={from}, len={len})"
    );
}

/// The whole-block search from `from` and the capped free runs on
/// either side of it vs the reference, `r`: the block-level answers on
/// a map that fragments share.
fn assert_block_queries_match(cg: &CylGroup, r: &Cg, from: u32) {
    let n = cg.nblocks();
    assert_eq!(
        cg.find_free_block(from),
        r.mapsearch_block(from),
        "find_free_block(from={from})"
    );
    for cap in [1, 7, 64, n + 1].into_iter().filter(|_| from < n) {
        let ours = (cg.free_len_before(from, cap), cg.free_len_after(from, cap));
        let want = (r.free_len_before(from, cap), r.free_len_after(from, cap));
        assert_eq!(ours, want, "free_len_before/after(block={from}, cap={cap})");
    }
}

/// The block-level queries and both fragment searches vs the reference
/// for `queries` random `(from, len)` pairs.
fn assert_searches_match(cg: &CylGroup, rng: &mut StdRng, queries: usize) {
    let r = reference(cg);
    for _ in 0..queries {
        let from = draw_from(rng, cg.nblocks());
        assert_block_queries_match(cg, &r, from);
        let len = rng.gen_range(1u32..8);
        assert_query_matches(cg, &r, from, len);
        if let Some(r) = cg.find_frag_run_bestfit(from, len) {
            assert!(cg.is_run_free(r.block, r.frag, r.len));
            assert_eq!(r.len, len, "best fit returns the requested length");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random churn on any of the three groups, then the summary recount
    /// and both searches vs the reference.
    #[test]
    fn frag_machinery_matches_naive_on_every_geometry(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = geometry();
        let cg_idx = rng.gen_range(0u32..params.ncg);
        let mut cg = CylGroup::new(&params, CgIdx(cg_idx));
        let ops = rng.gen_range(0usize..1500);
        for _ in 0..ops {
            churn_once(&mut cg, &mut rng);
        }
        assert_summary_exact(&cg);
        assert_searches_match(&cg, &mut rng, 24);
    }

    /// The incremental summary stays exact after *every* single mutation,
    /// not just at the end of a burst — the differential-oracle property
    /// the fsck drift check depends on.
    #[test]
    fn summary_tracks_every_mutation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cg = CylGroup::new(&geometry(), CgIdx(1));
        for _ in 0..160 {
            churn_once(&mut cg, &mut rng);
            prop_assert_eq!(cg.derived_drift(), []);
        }
        assert_searches_match(&cg, &mut rng, 8);
    }
}

#[test]
fn every_geometry_has_an_odd_trailing_frag_word() {
    let params = geometry();
    for g in 0..params.ncg {
        let frag_bits = params.cg_nblocks(CgIdx(g)) * 8;
        assert_ne!(
            frag_bits % 64,
            0,
            "group {g}: the trailing word must be partial"
        );
    }
}

#[test]
fn last_block_round_trips_on_every_geometry() {
    // The final block's lane lives in the partial trailing word; alloc,
    // split, and promotion there must behave exactly like anywhere else.
    let params = geometry();
    let mut cg = CylGroup::new(&params, CgIdx(params.ncg - 1));
    let last = cg.nblocks() - 1;
    cg.alloc_block(last);
    assert!(!cg.is_block_free(last));
    cg.free_block(last);
    assert!(cg.is_block_free(last));
    cg.alloc_frags(last, 0, 7);
    assert_eq!(cg.frag_summary()[0], 1, "one 1-frag run left");
    cg.free_frag_run(last, 0, 7);
    assert!(cg.is_block_free(last), "promotion at the group edge");
    assert_summary_exact(&cg);
}

#[test]
fn bestfit_never_splits_while_a_partial_run_fits() {
    // The frsum-guided search must consume partial blocks before the
    // caller falls back to splitting a free one.
    let mut cg = CylGroup::new(&geometry(), CgIdx(0));
    let m = cg.meta_blocks();
    // One partial block far from the search origin with a 1-frag hole.
    cg.alloc_frags(m + 50, 0, 7);
    let r = cg.find_frag_run_bestfit(m, 1).expect("hole exists");
    assert_eq!((r.block, r.frag), (m + 50, 7));
    assert_eq!(reference(&cg).frag_best_fit(m, 1), Some((m + 50, 7)));
    // Fill the hole: nothing partial remains, the search reports so.
    cg.alloc_frags(m + 50, 7, 1);
    assert!(cg.find_frag_run_bestfit(m, 1).is_none());
    assert!(reference(&cg).frag_best_fit(m, 1).is_none());
}

/// Group 1 of the geometry with every data block fully allocated.
fn full_group() -> CylGroup {
    let mut cg = CylGroup::new(&geometry(), CgIdx(1));
    let m = cg.meta_blocks();
    cg.alloc_block_run(m, cg.nblocks() - m);
    assert_eq!(cg.free_frags(), 0);
    cg
}

/// The block-level queries and both fragment searches vs the reference
/// for every starting block (the two past-the-end resets included) and
/// every length.
fn assert_every_query_matches(cg: &CylGroup) {
    let r = reference(cg);
    assert_summary_exact(cg);
    for from in (0..=cg.nblocks() + 1).chain([u32::MAX]) {
        assert_block_queries_match(cg, &r, from);
        for len in 1..8 {
            assert_query_matches(cg, &r, from, len);
        }
    }
}

#[test]
fn loose_fragments_without_a_fitting_run_are_refused() {
    // A one-fragment hole in every third block: plenty of free
    // fragments, no two of them adjacent. The free-fragment count alone
    // cannot refuse this group; the summary must.
    let mut cg = full_group();
    for b in (cg.meta_blocks()..cg.nblocks()).step_by(3) {
        cg.free_frag_run(b, b % 8, 1);
    }
    for len in 2..8 {
        assert!(cg.free_frags() >= len);
        assert_eq!(cg.find_frag_run(cg.meta_blocks(), len), None);
        assert_eq!(cg.find_frag_run_bestfit(cg.meta_blocks(), len), None);
    }
    assert_every_query_matches(&cg);
}

#[test]
fn only_fully_free_blocks() {
    let mut cg = full_group();
    let (m, n) = (cg.meta_blocks(), cg.nblocks());
    for b in [m + 1, m + 70, m + 71, n - 1] {
        cg.free_block(b);
    }
    // No partial block: the fragment summary counts no run at all.
    assert!(cg.frag_summary().iter().all(|&c| c == 0));
    assert_every_query_matches(&cg);
}

#[test]
fn only_partial_blocks() {
    // Holes of every length from 1 to 7 at varying offsets, every fifth
    // block; no block is fully free.
    let mut cg = full_group();
    for (i, b) in (cg.meta_blocks()..cg.nblocks()).step_by(5).enumerate() {
        let len = 1 + i as u32 % 7;
        cg.free_frag_run(b, (3 * i as u32) % (8 - len + 1), len);
    }
    assert_eq!(cg.free_blocks(), 0);
    assert!(cg.frag_summary().iter().all(|&c| c > 0));
    assert_every_query_matches(&cg);
}

#[test]
fn sole_fit_below_the_starting_block_is_found_by_wrapping() {
    let mut cg = full_group();
    let hole = cg.meta_blocks() + 3;
    cg.free_frag_run(hole, 1, 7);
    for len in 1..8 {
        let r = cg.find_frag_run(cg.nblocks() - 10, len).expect("wraps");
        assert_eq!((r.block, r.frag), (hole, 1));
    }
    assert_every_query_matches(&cg);
}
