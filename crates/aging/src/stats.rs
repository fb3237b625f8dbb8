//! Workload summary statistics, used to validate the synthetic workload
//! against the totals reported in Section 3.1 of the paper.

use std::collections::HashMap;

use crate::workload::{DayLog, FileId, Lifetime, Op, Workload};

/// Aggregate statistics of a generated workload, accumulated a day at a
/// time ([`WorkloadStats::day`]) so a streamed workload can be summarized
/// without being kept.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadStats {
    /// Total operations (creates + deletes).
    pub total_ops: u64,
    /// Create operations.
    pub creates: u64,
    /// Delete operations.
    pub deletes: u64,
    /// Creates of short-lived (same-day) files.
    pub short_creates: u64,
    /// Creates of long-lived files.
    pub long_creates: u64,
    /// In-place rewrite operations.
    pub rewrites: u64,
    /// Total bytes written by creates and rewrites.
    pub bytes_written: u64,
    /// Files still live at the end of the workload.
    pub live_at_end: u64,
    /// Bytes still live at the end of the workload.
    pub live_bytes_at_end: u64,
    /// Sizes of the files live after the days counted so far.
    sizes: HashMap<FileId, u64>,
}

impl WorkloadStats {
    /// Counts one more day of the workload.
    pub fn day(&mut self, day: &DayLog) {
        for op in &day.ops {
            self.total_ops += 1;
            match *op {
                Op::Create {
                    file, size, kind, ..
                } => {
                    self.creates += 1;
                    let size = u64::from(size);
                    self.bytes_written += size;
                    match kind {
                        Lifetime::Short => self.short_creates += 1,
                        Lifetime::Long => self.long_creates += 1,
                    }
                    self.sizes.insert(file, size);
                    self.live_bytes_at_end += size;
                }
                Op::Delete { file } => {
                    self.deletes += 1;
                    self.live_bytes_at_end -=
                        self.sizes.remove(&file).expect("delete of unknown file");
                }
                Op::Rewrite { file } => {
                    self.rewrites += 1;
                    // Workload invariant: a rewrite always targets a file
                    // that is live at this point in the op stream. The
                    // generator picks rewrite victims from the ledger
                    // *after* the day's deletes are scheduled, and a
                    // same-day rewrite is timestamped strictly after its
                    // create — so a missing entry is a generator bug, not
                    // a case to paper over with zero bytes.
                    self.bytes_written += *self
                        .sizes
                        .get(&file)
                        .expect("rewrite of a file not live at that point in the workload");
                }
            }
        }
        self.live_at_end = self.sizes.len() as u64;
    }
}

/// Computes summary statistics by walking the workload once.
pub fn workload_stats(w: &Workload) -> WorkloadStats {
    let mut s = WorkloadStats::default();
    for day in &w.days {
        s.day(day);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgingConfig;
    use crate::workload::generate;
    use ffs_types::CgIdx;

    fn hand_built(ops: Vec<Op>) -> Workload {
        Workload {
            config: AgingConfig::small_test(1, 0),
            ncg: 4,
            capacity_bytes: 14 << 20,
            days: vec![DayLog { day: 0, ops }],
        }
    }

    #[test]
    fn rewrite_after_create_counts_its_bytes() {
        let f = FileId(0);
        let w = hand_built(vec![
            Op::Create {
                file: f,
                cg: CgIdx(0),
                size: 4096,
                kind: Lifetime::Short,
            },
            Op::Rewrite { file: f },
            Op::Delete { file: f },
        ]);
        let s = workload_stats(&w);
        assert_eq!(s.rewrites, 1);
        assert_eq!(s.bytes_written, 2 * 4096, "rewrite bytes must be counted");
        assert_eq!(s.live_at_end, 0);
    }

    #[test]
    #[should_panic(expected = "rewrite of a file not live")]
    fn rewrite_of_dead_file_is_a_generator_bug() {
        let f = FileId(0);
        let w = hand_built(vec![
            Op::Create {
                file: f,
                cg: CgIdx(0),
                size: 4096,
                kind: Lifetime::Short,
            },
            Op::Delete { file: f },
            Op::Rewrite { file: f },
        ]);
        workload_stats(&w);
    }

    #[test]
    fn stats_balance() {
        let w = generate(&AgingConfig::small_test(12, 3), 4, 14 << 20);
        let s = workload_stats(&w);
        assert_eq!(s.total_ops, s.creates + s.deletes + s.rewrites);
        assert_eq!(s.creates, s.short_creates + s.long_creates);
        assert_eq!(s.live_at_end, s.creates - s.deletes);
        assert!(s.bytes_written > 0);
        assert!(s.live_bytes_at_end <= s.bytes_written);
    }

    #[test]
    fn short_lived_files_dominate_op_count() {
        // As in the trace studies the paper cites, most files live less
        // than a day. Checked at paper scale (the tiny test config caps
        // some per-day minima, distorting the mix).
        let mut c = AgingConfig::paper(3);
        c.days = 30;
        c.ramp_days = 10;
        let w = generate(&c, 22, 440 << 20);
        let s = workload_stats(&w);
        assert!(
            s.short_creates * 2 > s.creates,
            "short {} of {} creates",
            s.short_creates,
            s.creates
        );
    }
}
