//! The untraced run of one workload: set-up cycles, timed reps, the
//! in-run correctness checks, and the result file.

use std::path::Path;
use std::time::Instant;

use crate::catalog::{MIN_REPS, SETUP_CYCLES};
use crate::common::{nproc, peak_rss_mb, reset_peak_rss, threads, Bench, RepOut};
use crate::json::Value;
use crate::refs::{paper_err_pct, paper_refs};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::make;

/// Schema tag of result files.
pub const SCHEMA: &str = "ffsbench-result-v1";

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Directory for result files and scratch space.
    pub out: String,
}

/// An object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One metric of a result file: its unit and its summary.
pub fn metric(unit: &str, s: &Summary) -> Value {
    let mut m = vec![("unit".to_string(), Value::Str(unit.to_string()))];
    if let Value::Obj(rest) = s.to_json() {
        m.extend(rest);
    }
    Value::Obj(m)
}

/// Header members every result file starts with.
pub fn header(args: &RunArgs, trace: bool) -> Vec<(&'static str, Value)> {
    vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Bool(trace)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("nproc", Value::Num(nproc() as f64)),
        ("threads", Value::Num(threads() as f64)),
    ]
}

/// Runs `args.workload` untraced and writes `<out>/<workload>.json`.
pub fn run_untraced(args: &RunArgs) -> Result<(), String> {
    let out = Path::new(&args.out);
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut off = Tracer::off();

    // Set-up, several times over: everything from nothing to a warmed-up
    // workload. The last cycle's workload is the one that gets timed.
    let mut setup_s = Vec::with_capacity(SETUP_CYCLES);
    let mut ready: Option<(Box<dyn Bench>, RepOut)> = None;
    for _ in 0..SETUP_CYCLES {
        // Two live workloads would share one scratch directory.
        drop(ready.take());
        let t = Instant::now();
        let mut bench = make(&args.workload, args.seed, out)?;
        let warm = bench.rep(&mut off)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((bench, warm));
    }
    let (mut bench, warm) = ready.expect("SETUP_CYCLES is at least one");

    let mut ops_per_s = Vec::new();
    let mut rep_ms = Vec::new();
    let mut rss_mb = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    while ops_per_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds as f64 {
        reset_peak_rss();
        let t = Instant::now();
        let rep = bench.rep(&mut off)?;
        let dt = t.elapsed().as_secs_f64();
        rss_mb.push(peak_rss_mb()?);
        if rep.fingerprint != warm.fingerprint {
            return Err(format!(
                "{}: rep {} computed sim_fingerprint {} but the warm-up computed {}",
                args.workload,
                ops_per_s.len() + 1,
                rep.fingerprint.hex(),
                warm.fingerprint.hex()
            ));
        }
        if (rep.units, rep.failed, rep.artifact_bytes)
            != (warm.units, warm.failed, warm.artifact_bytes)
        {
            return Err(format!("{}: work done differs between reps", args.workload));
        }
        ops_per_s.push(rep.units as f64 / dt);
        rep_ms.push(dt * 1e3);
        attempted += rep.units + rep.failed;
        failed += rep.failed;
    }
    bench.verify()?;

    let mut exact = vec![(
        "failed_ops_share",
        Value::Num(warm.failed as f64 / (warm.units + warm.failed).max(1) as f64),
    )];
    if let Some(e) = paper_err_pct(&paper_refs()?, &args.workload, &warm.sim)? {
        exact.push(("paper_err_pct", Value::Num(e)));
    }
    if warm.artifact_bytes > 0 {
        exact.push((
            "artifact_kb",
            Value::Num(warm.artifact_bytes as f64 / 1024.0),
        ));
    }

    let mut doc = header(args, false);
    doc.extend([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("units_per_rep", Value::Num(warm.units as f64)),
        ("sim_fingerprint", Value::Str(warm.fingerprint.hex())),
        (
            "metrics",
            obj(vec![
                ("ops_per_s", metric("1/s", &Summary::of(&ops_per_s))),
                ("peak_rss_mb", metric("MB", &Summary::of(&rss_mb))),
                ("setup_s", metric("s", &Summary::of(&setup_s))),
            ]),
        ),
        ("rep_ms", metric("ms", &Summary::of(&rep_ms))),
        (
            "rep_ms_each",
            Value::Arr(rep_ms.iter().map(|&v| Value::Num(v)).collect()),
        ),
        ("exact", obj(exact)),
        (
            "sim",
            Value::Obj(
                warm.sim
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    let path = out.join(format!("{}.json", args.workload));
    std::fs::write(&path, format!("{}\n", obj(doc))).map_err(|e| format!("{}: {e}", path.display()))
}
