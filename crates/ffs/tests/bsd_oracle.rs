//! Our allocator held to an independent 4.4BSD reference (`bsd/mod.rs`)
//! that sees every cylinder group only as `struct cg` bytes: a 30-day
//! `small_test` aging replay, op by op, under the original policy and
//! under realloc with the first-fit and the best-fit fragment search.
//! Both sides start each op from the same bytes; after it the file, the
//! bytes (rotors and summaries included) and the allocation counts must
//! be equal. The queries are held to the same reference in
//! `scan_oracle`, `frag_oracle` and `stats_oracle`, the create/remove
//! streams under all four policy variants in `extent_oracle`. The
//! reference follows ours only where its allowlist says so, and every
//! allowlist entry must be live.

mod bsd;

use bsd::pair::{stream, tiny_blocks, variant, Pair};
use bsd::{Cg, Divergence, Sb, ALLOWLIST};
use ffs::CylGroup;
use ffs_types::{CgIdx, FsParams};

#[test]
fn small_test_replay_matches_the_reference() {
    let params = FsParams::small_test();
    let config = aging::AgingConfig::small_test(30, 1996);
    for i in [0, 1, 3] {
        let mut p = Pair::new(&params, variant(i), ALLOWLIST.to_vec());
        let mut live = std::collections::HashMap::new();
        for day in aging::Days::new(&config, params.ncg, params.data_capacity_bytes()) {
            for op in &day.ops {
                let res = match *op {
                    aging::Op::Create { file, cg, size, .. } => {
                        let ino = p.create(cg.0 as usize, size.into(), day.day);
                        ino.map(|ino| live.extend(ino.map(|ino| (file, ino))))
                    }
                    aging::Op::Delete { file } => {
                        live.remove(&file).map_or(Ok(()), |ino| p.remove(ino))
                    }
                    aging::Op::Rewrite { .. } => Ok(()),
                };
                res.unwrap_or_else(|e| {
                    panic!("variant {i} {:?}, day {}: {e}", variant(i), day.day)
                });
            }
        }
        assert!(p.ops > 1000, "the replay ran {} ops", p.ops);
    }
}

/// Without any one allowlist entry the reference reads 4.4BSD there,
/// and comes out differently. `OneRotor` and `InodeRotor` show in an op
/// of the streams, on [`tiny_blocks`] or else on the 16 MB unit-test
/// volume, of 140 ops or else of 400. No create searches first fit, so
/// `ClusterWrap` shows in the query that still does (the defragmenter's
/// `find_free_cluster`), from inside a free run with nothing free after
/// it. Each is printed.
#[test]
fn every_allowlist_entry_is_live() {
    let volumes = [tiny_blocks(), FsParams::small_test()];
    for d in ALLOWLIST {
        let mut allow = ALLOWLIST.to_vec();
        allow.retain(|&x| x != d);
        let op = match d {
            Divergence::ClusterWrap => cluster_wrap_witness(&allow),
            _ => volumes.iter().enumerate().find_map(|(v, params)| {
                [140, 400].into_iter().find_map(|ops| {
                    (0..4).find_map(|i| {
                        let seed = (1996 + u64::from(i), ops);
                        let res = stream(params, i, seed, allow.clone(), &mut [0; 3]);
                        res.err()
                            .map(|e| format!("volume {v}, variant {i}, {ops} ops, {e}"))
                    })
                })
            }),
        };
        let op = op.unwrap_or_else(|| panic!("{d:?} is not live"));
        eprintln!("without {d:?}: {op}");
    }
}

/// A group of the 16 MB volume with only `s - 2 ..= s + 2` free: ours
/// and the reference under `allow` asked for 5 blocks from `s + 1`,
/// where they differ.
fn cluster_wrap_witness(allow: &[Divergence]) -> Option<String> {
    let params = FsParams::small_test();
    let mut cg = CylGroup::new(&params, CgIdx(0));
    let s = cg.meta_blocks() + 100;
    for b in (cg.meta_blocks()..cg.nblocks()).filter(|b| !(s - 2..=s + 2).contains(b)) {
        cg.alloc_block(b);
    }
    let from = s + 1;
    let ours = cg.find_free_cluster(from, 5);
    let theirs = Cg::encode(&Sb::new(&params), &cg).clusteralloc(from, 5, allow);
    (ours != theirs).then(|| {
        format!("find_free_cluster(from={from}, len=5): {ours:?} vs {theirs:?} (ours vs ref)")
    })
}
