//! Property tests for the cylinder-group allocation maps: the data
//! structure every policy decision rests on.

use ffs::cg::CylGroup;
use ffs_types::{CgIdx, FsParams, MB};
use proptest::prelude::*;

/// A scripted bitmap operation.
#[derive(Clone, Debug)]
enum MapOp {
    AllocBlock { pick: u16 },
    FreeBlock { pick: u16 },
    AllocFrags { pick: u16, frag: u8, len: u8 },
    FreeFrags { pick: u16 },
}

fn ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u16>()).prop_map(|pick| MapOp::AllocBlock { pick }),
            (any::<u16>()).prop_map(|pick| MapOp::FreeBlock { pick }),
            (any::<u16>(), 0u8..8, 1u8..7)
                .prop_map(|(pick, frag, len)| { MapOp::AllocFrags { pick, frag, len } }),
            (any::<u16>()).prop_map(|pick| MapOp::FreeFrags { pick }),
        ],
        1..200,
    )
}

/// A shadow model: per-block byte map, same as the group should hold.
struct Shadow {
    bytes: Vec<u8>,
    meta: u32,
}

impl Shadow {
    fn free_frags(&self) -> u32 {
        self.bytes[self.meta as usize..]
            .iter()
            .map(|b| b.count_zeros())
            .sum()
    }
    fn free_blocks(&self) -> u32 {
        self.bytes[self.meta as usize..]
            .iter()
            .filter(|&&b| b == 0)
            .count() as u32
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The group's counters always agree with a shadow model replaying
    /// the same operations.
    #[test]
    fn counters_match_shadow_model(script in ops()) {
        let params = FsParams::small_test();
        let mut cg = CylGroup::new(&params, CgIdx(0));
        let n = cg.nblocks();
        let meta = cg.meta_blocks();
        let mut shadow = Shadow {
            bytes: {
                let mut v = vec![0u8; n as usize];
                for b in v.iter_mut().take(meta as usize) {
                    *b = 0xFF;
                }
                v
            },
            meta,
        };
        // Track fragment runs we allocated so frees are well-formed.
        let mut frag_runs: Vec<(u32, u32, u32)> = Vec::new();
        for op in &script {
            match *op {
                MapOp::AllocBlock { pick } => {
                    let b = meta + pick as u32 % (n - meta);
                    if cg.is_block_free(b) {
                        cg.alloc_block(b);
                        shadow.bytes[b as usize] = 0xFF;
                    }
                }
                MapOp::FreeBlock { pick } => {
                    let b = meta + pick as u32 % (n - meta);
                    if shadow.bytes[b as usize] == 0xFF
                        && !frag_runs.iter().any(|r| r.0 == b)
                    {
                        cg.free_block(b);
                        shadow.bytes[b as usize] = 0;
                    }
                }
                MapOp::AllocFrags { pick, frag, len } => {
                    let b = meta + pick as u32 % (n - meta);
                    let frag = frag as u32 % 8;
                    let len = (len as u32).min(8 - frag);
                    if len > 0 && cg.is_run_free(b, frag, len) {
                        cg.alloc_frags(b, frag, len);
                        for i in frag..frag + len {
                            shadow.bytes[b as usize] |= 1 << i;
                        }
                        frag_runs.push((b, frag, len));
                    }
                }
                MapOp::FreeFrags { pick } => {
                    if !frag_runs.is_empty() {
                        let idx = pick as usize % frag_runs.len();
                        let (b, frag, len) = frag_runs.swap_remove(idx);
                        cg.free_frag_run(b, frag, len);
                        for i in frag..frag + len {
                            shadow.bytes[b as usize] &= !(1 << i);
                        }
                    }
                }
            }
            prop_assert_eq!(cg.free_frags(), shadow.free_frags());
            prop_assert_eq!(cg.free_blocks(), shadow.free_blocks());
        }
        for b in 0..n {
            prop_assert_eq!(cg.map_byte(b), shadow.bytes[b as usize], "block {}", b);
        }
    }

    /// Every searcher returns genuinely free space of the requested
    /// shape, and `None` only when the map truly has none.
    #[test]
    fn searches_are_sound_and_complete(
        script in ops(),
        from in any::<u16>(),
        len in 1u32..7,
        clen in 1u32..12,
    ) {
        let params = FsParams::small_test();
        let mut cg = CylGroup::new(&params, CgIdx(0));
        let n = cg.nblocks();
        let meta = cg.meta_blocks();
        // Apply only the allocation half of the script to mix the map.
        for op in &script {
            if let MapOp::AllocBlock { pick } = *op {
                let b = meta + pick as u32 % (n - meta);
                if cg.is_block_free(b) {
                    cg.alloc_block(b);
                }
            }
            if let MapOp::AllocFrags { pick, frag, len } = *op {
                let b = meta + pick as u32 % (n - meta);
                let frag = frag as u32 % 8;
                let len = (len as u32).min(8 - frag);
                if len > 0 && cg.is_run_free(b, frag, len) {
                    cg.alloc_frags(b, frag, len);
                }
            }
        }
        let from = from as u32 % n;
        // find_free_block: result is free; None implies no free block.
        match cg.find_free_block(from) {
            Some(b) => prop_assert!(cg.is_block_free(b)),
            None => prop_assert_eq!(cg.free_blocks(), 0),
        }
        // find_free_cluster: the run is entirely free.
        if let Some(start) = cg.find_free_cluster(from, clen) {
            for b in start..start + clen {
                prop_assert!(cg.is_block_free(b), "cluster block {} not free", b);
            }
        }
        // Best-fit agrees with existence: it fails only if no run of the
        // length exists anywhere.
        let exists = (0..n).any(|s| {
            s + clen <= n && (s..s + clen).all(|b| cg.is_block_free(b))
        });
        prop_assert_eq!(cg.find_free_cluster_bestfit(clen).is_some(), exists);
        // Windowed search: sound, and at least as available as best fit.
        match cg.find_free_cluster_near(from, clen, 64) {
            Some(start) => {
                for b in start..start + clen {
                    prop_assert!(cg.is_block_free(b));
                }
            }
            None => prop_assert!(!exists),
        }
        // find_frag_run: the run is free and inside one block.
        if let Some(run) = cg.find_frag_run(from, len) {
            prop_assert!(run.frag + run.len <= 8);
            prop_assert!(cg.is_run_free(run.block, run.frag, run.len));
        }
    }

    /// Best fit returns the smallest adequate run.
    #[test]
    fn bestfit_is_minimal(script in ops(), clen in 1u32..10) {
        let params = FsParams::small_test();
        let mut cg = CylGroup::new(&params, CgIdx(0));
        let n = cg.nblocks();
        let meta = cg.meta_blocks();
        for op in &script {
            if let MapOp::AllocBlock { pick } = *op {
                let b = meta + pick as u32 % (n - meta);
                if cg.is_block_free(b) {
                    cg.alloc_block(b);
                }
            }
        }
        if let Some(start) = cg.find_free_cluster_bestfit(clen) {
            // Measure the maximal run containing `start`.
            let mut end = start;
            while end < n && cg.is_block_free(end) {
                end += 1;
            }
            let got = end - start;
            prop_assert!(got >= clen);
            // No strictly smaller adequate run may exist anywhere.
            let mut run = 0u32;
            let mut smallest = u32::MAX;
            for b in 0..=n {
                if b < n && cg.is_block_free(b) {
                    run += 1;
                } else {
                    if run >= clen {
                        smallest = smallest.min(run);
                    }
                    run = 0;
                }
            }
            prop_assert_eq!(got, smallest);
        }
    }
}

/// 426/428-block groups (a 10 MB, 3-group layout): neither size is a
/// multiple of 64, so both maps end mid-word.
fn mid_geometry() -> FsParams {
    FsParams {
        size_bytes: 10 * MB,
        ncg: 3,
        ..FsParams::small_test()
    }
}

/// Holds one run transition to `n` single-block ones: frees the
/// allocated blocks `b .. b + n` of `cg` as a run and one at a time, then
/// takes them back both ways, and wants `==` groups (map, every derived
/// table, counters, rotors) and no drift from a recount each time; a
/// run leaves the rotors where they were.
fn assert_run_equals_singles(cg: &CylGroup, b: u32, n: u32) {
    let what = format!("blocks {b}+{n} of {}", cg.nblocks());
    let (mut run, mut singles) = (cg.clone(), cg.clone());
    run.free_block_run(b, n);
    for i in b..b + n {
        singles.free_block(i);
    }
    assert_eq!(run, singles, "freeing {what}");
    assert_eq!(run.derived_drift(), [], "freeing {what}");
    run.alloc_block_run(b, n);
    for i in b..b + n {
        singles.alloc_block(i);
    }
    assert_eq!(run, singles, "allocating {what}");
    assert_eq!(run.derived_drift(), [], "allocating {what}");
    assert_eq!((run.rotor(), run.frotor()), (cg.rotor(), cg.frotor()));
}

/// The run forms of the two block transitions against their one-block
/// case, case by case: runs inside a word and across one and two word
/// boundaries of both bitmaps, runs
/// touching the first data block and the last block of a 426- and a
/// 428-block group, and on each side a free neighbour that is absent,
/// shorter than the summary's cap, exactly the cap, and longer.
#[test]
fn run_transitions_equal_single_block_transitions() {
    let params = mid_geometry();
    for g in [0, params.ncg - 1] {
        let mut full = CylGroup::new(&params, CgIdx(g));
        let (m, n_blocks) = (full.meta_blocks(), full.nblocks());
        assert!(n_blocks == 426 || n_blocks == 428);
        for b in m..n_blocks {
            full.alloc_block(b);
        }
        let cap = params.maxcontig;
        let starts = [m, 40, 60, 63, 64, 65, 127, 128, 200];
        for n in [1, 2, 7, 8, 9, 63, 64, 65, 129, 130] {
            let at_end = n_blocks - n;
            for b in starts.into_iter().chain([at_end]) {
                for left in [0, 3, cap, cap + 5] {
                    for right in [0, 2, cap, cap + 6] {
                        if b < m + left || b + n + right > n_blocks {
                            continue;
                        }
                        let mut cg = full.clone();
                        for i in (b - left..b).chain(b + n..b + n + right) {
                            cg.free_block(i);
                        }
                        assert_run_equals_singles(&cg, b, n);
                    }
                }
            }
        }
        // The whole data area as one run.
        assert_run_equals_singles(&full, m, n_blocks - m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The same on randomly churned maps: any allocated stretch, wherever
    /// it starts and whatever surrounds it.
    #[test]
    fn run_transitions_equal_singles_on_churned_maps(
        script in ops(),
        picks in proptest::collection::vec((any::<u16>(), 1u32..140), 1..12),
    ) {
        let params = mid_geometry();
        let mut cg = CylGroup::new(&params, CgIdx(params.ncg - 1));
        let (m, n) = (cg.meta_blocks(), cg.nblocks());
        for op in &script {
            if let MapOp::AllocBlock { pick } | MapOp::FreeBlock { pick } = *op {
                let b = m + pick as u32 % (n - m);
                if cg.is_block_free(b) {
                    cg.alloc_block(b);
                }
            }
        }
        for (pick, want) in picks {
            // The allocated stretch at `b`, up to `want` blocks of it.
            let b = m + pick as u32 % (n - m);
            let len = (b..n.min(b + want)).take_while(|&i| !cg.is_block_free(i)).count() as u32;
            if len > 0 {
                assert_run_equals_singles(&cg, b, len);
                cg.free_block_run(b, len);
            }
        }
    }
}
