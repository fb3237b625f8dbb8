//! Our allocator held to an independent 4.4BSD reference (`bsd/mod.rs`)
//! that sees every cylinder group only as `struct cg` bytes: a 30-day
//! `small_test` aging replay, op by op, under the original policy and
//! under realloc with the first-fit and the best-fit fragment search.
//! Both sides start each op from the same bytes; after it the file, the
//! bytes (rotors and summaries included) and the allocation counts must
//! be equal. The queries are held to the same reference in
//! `scan_oracle`, `frag_oracle` and `stats_oracle`, the create/remove
//! streams under all four policy variants in `extent_oracle`.

mod bsd;

use bsd::pair::{variant, Pair};
use ffs_types::FsParams;

#[test]
fn small_test_replay_matches_the_reference() {
    let params = FsParams::small_test();
    let config = aging::AgingConfig::small_test(30, 1996);
    for i in [0, 1, 3] {
        let mut p = Pair::new(&params, variant(i));
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
