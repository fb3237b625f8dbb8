//! Structured run records: one JSON object per executed job.
//!
//! Records are written as JSON lines (`runs.jsonl`) so they survive a
//! partial run and append cleanly from other tooling. The environment is
//! offline (no serde), so [`RunRecord::to_json`] emits a fixed field
//! order by hand; strings are escaped, and lines read back, by the
//! workspace's one JSON codec, [`obs::json`].

use std::fmt::Write as _;

use disk::DeviceStats;
use obs::json::{self, push_str};

/// Whether a job's expensive artifact came from the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// A valid artifact was loaded; the work was skipped.
    Hit,
    /// No artifact existed; the work ran and the result was stored.
    Miss,
    /// An artifact existed but failed validation; it was discarded and
    /// the work re-ran (then overwrote the bad artifact).
    Corrupt,
    /// Caching was disabled for this run.
    Disabled,
}

impl CacheStatus {
    /// The string stored in the `cache` field of the run record.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Corrupt => "corrupt",
            CacheStatus::Disabled => "disabled",
        }
    }
}

/// Job-reported measurements, merged into the engine's [`RunRecord`].
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Artifact-cache outcome, for jobs that consult the store.
    pub cache: Option<CacheStatus>,
    /// Content-address of the job's artifact, when cached.
    pub key: Option<String>,
    /// Workload operations replayed (0 when the work was skipped on a
    /// cache hit).
    pub ops: Option<u64>,
    /// Simulated-device counters accumulated by the job's benchmarks.
    pub device: Option<DeviceStats>,
    /// Free-form `key=value` annotations.
    pub notes: Vec<(String, String)>,
}

impl Metrics {
    /// Adds a free-form annotation.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Accumulates device counters from one benchmark phase.
    pub fn add_device(&mut self, stats: &DeviceStats) {
        match &mut self.device {
            Some(d) => d.merge(stats),
            None => self.device = Some(stats.clone()),
        }
    }
}

/// One line of `runs.jsonl`: what a job did and what it cost.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Job identifier (e.g. `age:ffs`, `fig2`).
    pub job: String,
    /// Identifiers of the jobs this one consumed.
    pub deps: Vec<String>,
    /// `ok`, `failed`, `panicked`, or `skipped`.
    pub status: String,
    /// Error message for jobs that did not succeed.
    pub error: Option<String>,
    /// Wall-clock seconds spent running the job.
    pub wall_s: f64,
    /// Inert: nothing reads it and [`RunRecord::to_json`] never writes
    /// it. Kept, like `backoff_units`, only because a struct literal in
    /// the frozen `benchmark/` spells both (ROADMAP item 1 g).
    pub attempts: u32,
    /// Inert; see `attempts`.
    pub backoff_units: u64,
    /// Job-reported measurements.
    pub metrics: Metrics,
}

fn device_json(d: &DeviceStats) -> String {
    format!(
        "{{\"reads\":{},\"writes\":{},\"sectors_read\":{},\"sectors_written\":{},\
         \"buffer_hits\":{},\"seeks\":{},\"seek_time_us\":{},\"rot_wait_us\":{},\
         \"stream_time_us\":{}}}",
        d.reads,
        d.writes,
        d.sectors_read,
        d.sectors_written,
        d.buffer_hits,
        d.seeks,
        d.seek_time_us,
        d.rot_wait_us,
        d.stream_time_us
    )
}

impl RunRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"job\":");
        push_str(&mut s, &self.job);
        s.push_str(",\"deps\":[");
        for (i, d) in self.deps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str(&mut s, d);
        }
        s.push_str("],\"status\":");
        push_str(&mut s, &self.status);
        if let Some(e) = &self.error {
            s.push_str(",\"error\":");
            push_str(&mut s, e);
        }
        let _ = write!(s, ",\"wall_s\":{:.6}", self.wall_s);
        if let Some(c) = self.metrics.cache {
            s.push_str(",\"cache\":");
            push_str(&mut s, c.as_str());
        }
        if let Some(k) = &self.metrics.key {
            s.push_str(",\"key\":");
            push_str(&mut s, k);
        }
        if let Some(ops) = self.metrics.ops {
            let _ = write!(s, ",\"ops\":{ops}");
        }
        if let Some(d) = &self.metrics.device {
            let _ = write!(s, ",\"device\":{}", device_json(d));
        }
        for (k, v) in &self.metrics.notes {
            s.push(',');
            push_str(&mut s, k);
            s.push(':');
            push_str(&mut s, v);
        }
        s.push('}');
        s
    }

    /// The string value of the top-level `field` of a line produced by
    /// [`RunRecord::to_json`]. Returns `None` when absent.
    pub fn field_str(line: &str, field: &str) -> Option<String> {
        Some(json::parse(line).ok()?.get(field)?.as_str()?.to_string())
    }

    /// The numeric value of the top-level `field`.
    pub fn field_num(line: &str, field: &str) -> Option<f64> {
        json::parse(line).ok()?.get(field)?.as_f64()
    }
}

/// A journal line in the older format that carried retry bookkeeping at
/// the top level and a 13-key `device` object. Readers must keep
/// accepting it — unknown keys are ignored, never an error.
#[cfg(test)]
pub(crate) const RETRY_ERA_LINE: &str = "{\"job\":\"fig4\",\"deps\":[\"age:ffs\",\"age:realloc\"],\
    \"status\":\"ok\",\"wall_s\":1.250000,\"attempts\":3,\"backoff_units\":11,\"ops\":1234,\
    \"device\":{\"reads\":10,\"writes\":4,\"sectors_read\":160,\"sectors_written\":64,\
    \"buffer_hits\":3,\"seeks\":5,\"seek_time_us\":1200.5,\"rot_wait_us\":800,\
    \"stream_time_us\":950.25,\"transient_errors\":2,\"retries\":2,\"remaps\":0,\
    \"retry_time_us\":22222.2}}";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut metrics = Metrics {
            cache: Some(CacheStatus::Miss),
            key: Some("00ff00ff00ff00ff".into()),
            ops: Some(1234),
            device: None,
            notes: Vec::new(),
        };
        metrics.note("days", 300u32);
        metrics.add_device(&DeviceStats {
            reads: 10,
            writes: 4,
            ..DeviceStats::default()
        });
        RunRecord {
            job: "age:ffs".into(),
            deps: vec!["table1".into()],
            status: "ok".into(),
            error: None,
            wall_s: 1.5,
            attempts: 0,
            backoff_units: 0,
            metrics,
        }
    }

    #[test]
    fn json_round_trips_the_fields_the_report_reads() {
        let line = sample().to_json();
        assert_eq!(RunRecord::field_str(&line, "job").unwrap(), "age:ffs");
        assert_eq!(RunRecord::field_str(&line, "status").unwrap(), "ok");
        assert_eq!(RunRecord::field_str(&line, "cache").unwrap(), "miss");
        assert_eq!(RunRecord::field_num(&line, "wall_s").unwrap(), 1.5);
        assert_eq!(RunRecord::field_num(&line, "ops").unwrap(), 1234.0);
        // Accessors are top-level: nested device counters do not leak out.
        assert!(line.contains("\"device\":{\"reads\":10,"), "{line}");
        assert!(RunRecord::field_num(&line, "reads").is_none());
        assert_eq!(RunRecord::field_str(&line, "days").unwrap(), "300");
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = sample();
        r.error = Some("bad \"quote\"\nand \\slash".into());
        r.status = "failed".into();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(
            RunRecord::field_str(&line, "error").unwrap(),
            "bad \"quote\"\nand \\slash"
        );
        // Escaped content cannot shadow a real field.
        let mut r = sample();
        r.error = Some("\"status\":\"ok\" impostor".into());
        let line = r.to_json();
        assert_eq!(RunRecord::field_str(&line, "status").unwrap(), "ok");
    }

    #[test]
    fn device_counters_accumulate() {
        let mut m = Metrics::default();
        m.add_device(&DeviceStats {
            reads: 3,
            seek_time_us: 1.5,
            ..DeviceStats::default()
        });
        m.add_device(&DeviceStats {
            reads: 4,
            seek_time_us: 2.5,
            ..DeviceStats::default()
        });
        let d = m.device.unwrap();
        assert_eq!(d.reads, 7);
        assert_eq!(d.seek_time_us, 4.0);
    }

    #[test]
    fn absent_fields_read_as_none() {
        let r = RunRecord {
            job: "fig1".into(),
            deps: vec![],
            status: "ok".into(),
            error: None,
            wall_s: 0.0,
            attempts: 3,
            backoff_units: 11,
            metrics: Metrics::default(),
        };
        let line = r.to_json();
        assert!(RunRecord::field_str(&line, "cache").is_none());
        assert!(RunRecord::field_num(&line, "ops").is_none());
        assert!(
            !line.contains("attempts") && !line.contains("backoff_units"),
            "the inert fields are never written: {line}"
        );
    }
}
