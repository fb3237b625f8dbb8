//! The generator's counted work: the exact number of ledger entries its
//! cohort searches read and of ops its day merges order, published
//! through `obs` once per day. The counts are deterministic, so they pin
//! the work itself where a wall-clock time could not.

use aging::{generate, AgingConfig};
use ffs_types::FsParams;

#[test]
fn paper_generation_reads_only_its_cohorts() {
    obs::set_enabled(true);
    let params = FsParams::paper_502mb();
    let w = generate(
        &AgingConfig::paper(1996),
        params.ncg,
        params.data_capacity_bytes(),
    );
    obs::set_enabled(false);
    let count = |name| obs::registry().counter(name).get();
    let ops: usize = w.days.iter().map(|d| d.ops.len()).sum();
    assert_eq!(count("aging.ops_merged"), ops as u64);
    // 1 871 cohort searches, about 42 entries each: the members of the
    // anchor's five (group, birth day) buckets. Scanning the whole
    // ledger per search read 16 084 251.
    assert_eq!(count("aging.cohort_entries_examined"), 79_410);
}
