//! Pieces every workload shares: the simulated-state fingerprint, what a
//! rep reports, the benchmark's own seed stream, and process probes.

use std::path::{Path, PathBuf};

use aging::Workload;
use disk::DeviceStats;
use ffs::{AllocStats, Filesystem};

use crate::trace::Tracer;

/// Threads a workload may load the box with: `min(2, nproc)`. A
/// constant of the benchmark (recorded in every result), not an option.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Operations in a generated workload.
pub fn ops_of(w: &Workload) -> u64 {
    w.days.iter().map(|d| d.ops.len() as u64).sum()
}

/// FNV-1a over everything simulated that a rep produced. Two reps, two
/// runs or two commits with equal fingerprints computed the same
/// simulated results; host timings never enter it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one float in at full precision.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds an aged image in: its state digest, its layout aggregate at
    /// full precision, and its allocator counters.
    pub fn image(&mut self, fs: &Filesystem) {
        self.u64(fs.digest());
        let agg = fs.aggregate_layout();
        self.u64(agg.opt);
        self.u64(agg.scored);
        self.f64(agg.score());
        self.alloc(fs.alloc_stats());
    }

    /// Folds allocator counters in.
    pub fn alloc(&mut self, s: &AllocStats) {
        for v in [
            s.block_allocs,
            s.pref_hits,
            s.frag_allocs,
            s.frag_splits,
            s.cg_spills,
            s.realloc_windows,
            s.realloc_moves,
            s.realloc_blocks_moved,
            s.realloc_failures,
            s.frag_extends,
            s.frag_moves,
            s.realloc_already_contig,
            s.relocations,
        ] {
            self.u64(v);
        }
    }

    /// Folds simulated-device totals in.
    pub fn device(&mut self, s: &DeviceStats) {
        for v in [
            s.reads,
            s.writes,
            s.sectors_read,
            s.sectors_written,
            s.buffer_hits,
            s.seeks,
        ] {
            self.u64(v);
        }
        for v in [s.seek_time_us, s.rot_wait_us, s.stream_time_us] {
            self.f64(v);
        }
    }

    /// 16 hex digits, as written to result files.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one rep of a workload did.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Work units completed (the numerator of `ops_per_s`).
    pub units: u64,
    /// Operations that failed: skipped creates, jobs, shards or exhibits
    /// that did not end `ok`, `iobench` errors.
    pub failed: u64,
    /// Bytes persisted through checkpoints, snapshots and `exp::store`.
    pub artifact_bytes: u64,
    /// Everything simulated, folded.
    pub fingerprint: Fingerprint,
    /// Simulated results by `paper_refs.tsv` key.
    pub sim: Vec<(&'static str, f64)>,
}

/// One benchmark workload after set-up: inputs generated, directories
/// made, ready to run reps.
pub trait Bench {
    /// Runs one rep. With a recording tracer, spans go around the calls
    /// into each layer.
    fn rep(&mut self, tr: &mut Tracer) -> Result<RepOut, String>;

    /// Checks the final state the last rep left behind (fsck-clean
    /// images), outside the timed region. Workloads that leave nothing
    /// behind, or check it inside the rep, keep the default.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The benchmark's own seed stream (splitmix64), for probe positions
/// and anything else derived from `--seed` outside the simulator.
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for `seed`, separated by `salt` from other uses.
    pub fn new(seed: u64, salt: u64) -> SeedStream {
        SeedStream(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }
}

/// Restarts the kernel's peak-RSS mark at the current RSS, so that the
/// next [`peak_rss_mb`] reads the peak since this call. Where the kernel
/// refuses, the mark simply keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory under the results directory, emptied on creation
/// and removed on drop. The benchmark writes nowhere else.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<out>/work/<name>-<pid>` afresh.
    pub fn new(out: &Path, name: &str) -> Result<WorkDir, String> {
        let dir = out
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Empties and recreates subdirectory `name`, returning its path.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `work/` behind once the last run is done.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_depends_on_every_folded_value_and_order() {
        let mut a = Fingerprint::default();
        a.u64(1);
        a.f64(0.5);
        let mut b = Fingerprint::default();
        b.f64(0.5);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.u64(1);
        c.f64(0.5);
        assert_eq!(a, c);
        assert_eq!(a.hex().len(), 16);
        // The next representable float changes the fingerprint.
        let mut d = Fingerprint::default();
        d.u64(1);
        d.f64(f64::from_bits(0.5f64.to_bits() + 1));
        assert_ne!(a, d);
    }

    #[test]
    fn seed_stream_is_reproducible_and_salted() {
        let draw = |seed, salt| {
            let mut s = SeedStream::new(seed, salt);
            (0..4).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1996, 1), draw(1996, 1));
        assert_ne!(draw(1996, 1), draw(1996, 2));
        assert_ne!(draw(1996, 1), draw(7, 1));
        let mut s = SeedStream::new(7, 3);
        assert!((0..1000).all(|_| s.below(22) < 22));
    }

    #[test]
    fn peak_rss_is_positive_and_survives_a_reset() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
