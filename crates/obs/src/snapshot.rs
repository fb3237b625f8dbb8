//! Point-in-time snapshots of the registry and span tree, with sinks.
//!
//! [`Snapshot::to_json`] writes `metrics.json` with a fixed field order
//! and [`Snapshot::from_json`] reads it back, both through the shared
//! [`crate::json`] codec (the one `exp`'s `runs.jsonl` uses too). Sorted
//! metric names and name-ordered span paths make the serialization
//! deterministic up to the wall-time values themselves.

use std::fmt::Write as _;

use crate::json::{self, push_str, Value};
use crate::metrics::Registry;
use crate::span;

/// Schema tag written into every `metrics.json`.
pub const SCHEMA: &str = "obs-metrics-v1";

/// Deepest span nesting [`Snapshot::from_json`] accepts. Recorded trees
/// nest a handful of levels; [`Snapshot::render`] indents by depth and
/// `format!` widths stop at `u16::MAX`, so a parsed depth must be bounded.
const MAX_SPAN_DEPTH: u64 = 1024;

/// One histogram, frozen.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper-inclusive bucket bounds.
    pub bounds: Vec<u64>,
    /// Bucket counts (`bounds.len() + 1`, overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Mean observation, when any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One span-tree node, frozen, addressed by its `/`-joined path.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-joined path from the root, e.g. `job:age:ffs/age_day`.
    pub path: String,
    /// Nesting depth (top-level spans are depth 0).
    pub depth: usize,
    /// Completed calls.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub wall_ns: u64,
}

impl SpanSnapshot {
    /// Total wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// The final segment of the path.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Everything recorded since the last reset.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram, sorted by name.
    pub hists: Vec<HistSnapshot>,
    /// The span tree, flattened depth-first with children in name
    /// order.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Freezes the registry and the shared span tree.
    pub fn capture(reg: &Registry) -> Snapshot {
        Snapshot {
            counters: reg.counter_values(),
            hists: reg
                .histogram_handles()
                .into_iter()
                .map(|(name, h)| HistSnapshot {
                    name,
                    bounds: h.bounds().to_vec(),
                    buckets: h.bucket_counts(),
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                })
                .collect(),
            spans: span::flattened()
                .into_iter()
                .map(|(path, depth, calls, wall_ns)| SpanSnapshot {
                    path,
                    depth,
                    calls,
                    wall_ns,
                })
                .collect(),
        }
    }

    /// The value of counter `name`, when registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The histogram named `name`, when registered.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The span at `path`, when present.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Wall time the span at `index` spent in its own code: `wall_ns`
    /// minus the total of its *immediate* children (grandchildren are
    /// already inside their parents' totals). Clamped at zero — a child
    /// running on another thread can outlast its parent's exclusive
    /// window.
    pub fn span_self_ns(&self, index: usize) -> u64 {
        let sp = &self.spans[index];
        let mut child_sum = 0u64;
        // The list is depth-first, so this span's subtree is exactly the
        // run of deeper entries that follows it.
        for c in &self.spans[index + 1..] {
            if c.depth <= sp.depth {
                break;
            }
            if c.depth == sp.depth + 1 {
                child_sum = child_sum.saturating_add(c.wall_ns);
            }
        }
        sp.wall_ns.saturating_sub(child_sum)
    }

    /// Serializes the snapshot as one JSON object — the `metrics.json`
    /// sink.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":");
        push_str(&mut s, SCHEMA);
        s.push_str(",\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str(&mut s, n);
            let _ = write!(s, ":{v}");
        }
        s.push('}');
        s.push_str(",\"histograms\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_str(&mut s, &h.name);
            s.push_str(",\"bounds\":");
            push_u64_array(&mut s, &h.bounds);
            s.push_str(",\"buckets\":");
            push_u64_array(&mut s, &h.buckets);
            let _ = write!(
                s,
                ",\"count\":{},\"sum\":{},\"max\":{}}}",
                h.count, h.sum, h.max
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"path\":");
            push_str(&mut s, &sp.path);
            let _ = write!(
                s,
                ",\"depth\":{},\"calls\":{},\"wall_ns\":{}}}",
                sp.depth, sp.calls, sp.wall_ns
            );
        }
        s.push_str("]}");
        s
    }

    /// Parses a snapshot from the output of [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = json::parse(text)?;
        if doc.as_obj().is_none() {
            return Err("metrics.json: top level is not an object".into());
        }
        match doc.get("schema").and_then(Value::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported metrics schema {s:?}")),
            None => return Err("metrics.json: missing schema".into()),
        }
        let counters = doc.get("counters").and_then(Value::as_obj);
        let counters = (counters.unwrap_or_default().iter())
            .map(|(n, v)| Ok((n.clone(), v.as_u64().ok_or("bad counters value")?)))
            .collect::<Result<_, String>>()?;
        let entries = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap_or_default();
        let mut snap = Snapshot {
            counters,
            ..Snapshot::default()
        };
        for h in entries("histograms") {
            snap.hists.push(HistSnapshot {
                name: str_field(h, "name")?,
                bounds: u64_array(h, "bounds")?,
                buckets: u64_array(h, "buckets")?,
                count: u64_field(h, "count")?,
                sum: u64_field(h, "sum")?,
                max: u64_field(h, "max")?,
            });
        }
        for sp in entries("spans") {
            snap.spans.push(SpanSnapshot {
                path: str_field(sp, "path")?,
                depth: match u64_field(sp, "depth")? {
                    d if d <= MAX_SPAN_DEPTH => d as usize,
                    d => return Err(format!("span depth {d} out of range")),
                },
                calls: u64_field(sp, "calls")?,
                wall_ns: u64_field(sp, "wall_ns")?,
            });
        }
        Ok(snap)
    }

    /// Renders the snapshot for humans: the indented span tree, then
    /// counters, then histograms — the `harness report --profile` view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "profile (span tree):");
        if self.spans.is_empty() {
            let _ = writeln!(out, "  (no spans recorded)");
        }
        for (i, sp) in self.spans.iter().enumerate() {
            let per_call = if sp.calls > 0 {
                sp.wall_ms() / sp.calls as f64
            } else {
                0.0
            };
            // "self" excludes time attributed to child spans, so a hot
            // parent with fully-instrumented children reads ~0 and the
            // real cost shows where it is spent.
            let self_ms = self.span_self_ns(i) as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {:indent$}{:<width$} {:>8} calls {:>12.3} ms  self {:>12.3} ms  ({:.3} ms/call)",
                "",
                sp.name(),
                sp.calls,
                sp.wall_ms(),
                self_ms,
                per_call,
                indent = sp.depth * 2,
                width = 28usize.saturating_sub(sp.depth * 2),
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (n, v) in &self.counters {
                let _ = writeln!(out, "  {n:<36} {v}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for h in &self.hists {
                let mean = h.mean().map_or("-".to_string(), |m| format!("{m:.1}"));
                let _ = writeln!(
                    out,
                    "  {:<36} count {}  mean {}  max {}",
                    h.name, h.count, mean, h.max
                );
                let mut row = String::from("   ");
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    match h.bounds.get(i) {
                        Some(b) => {
                            let _ = write!(row, " <={b}:{c}");
                        }
                        None => {
                            let _ = write!(row, " >{}:{c}", h.bounds.last().unwrap_or(&0));
                        }
                    }
                }
                if row.trim().is_empty() {
                    row.push_str(" (empty)");
                }
                let _ = writeln!(out, "{row}");
            }
        }
        out
    }
}

fn push_u64_array(out: &mut String, v: &[u64]) {
    out.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

fn str_field(entry: &Value, key: &str) -> Result<String, String> {
    let s = entry.get(key).and_then(Value::as_str);
    Ok(s.ok_or_else(|| format!("missing string field {key:?}"))?
        .to_string())
}

fn u64_field(entry: &Value, key: &str) -> Result<u64, String> {
    let n = entry.get(key).and_then(Value::as_u64);
    n.ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn u64_array(entry: &Value, key: &str) -> Result<Vec<u64>, String> {
    let arr = entry.get(key).and_then(Value::as_arr);
    arr.ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("non-numeric entry in {key:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                ("ffs.block_allocs".into(), 42),
                ("ffs.realloc_moves".into(), 7),
            ],
            hists: vec![HistSnapshot {
                name: "disk.seek_cyls".into(),
                bounds: vec![0, 1, 2, 4],
                buckets: vec![5, 1, 0, 2, 3],
                count: 11,
                sum: 99,
                max: 4000,
            }],
            spans: vec![
                SpanSnapshot {
                    path: "job:age:ffs".into(),
                    depth: 0,
                    calls: 1,
                    wall_ns: 1_500_000,
                },
                SpanSnapshot {
                    path: "job:age:ffs/age_day".into(),
                    depth: 1,
                    calls: 30,
                    wall_ns: 1_200_000,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        let parsed = Snapshot::from_json(&s.to_json()).expect("parse back");
        assert_eq!(parsed, s);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot::default();
        let parsed = Snapshot::from_json(&s.to_json()).expect("parse back");
        assert_eq!(parsed, s);
    }

    #[test]
    fn escaped_names_survive() {
        let mut s = Snapshot::default();
        s.counters.push(("weird \"name\"\twith\nstuff".into(), 3));
        let parsed = Snapshot::from_json(&s.to_json()).expect("parse back");
        assert_eq!(parsed.counters[0].0, "weird \"name\"\twith\nstuff");
    }

    #[test]
    fn bad_input_is_rejected_not_misread() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("[]").is_err());
        assert!(Snapshot::from_json("{\"schema\":\"other-v9\"}").is_err());
        assert!(Snapshot::from_json("{\"schema\":\"obs-metrics-v1\"} trailing").is_err());
    }

    #[test]
    fn unbounded_nesting_is_an_error_not_a_stack_overflow() {
        let e = Snapshot::from_json(&"[".repeat(2_000_000)).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        // What the writer emits is nowhere near the cap.
        assert!(Snapshot::from_json(&sample().to_json()).is_ok());
    }

    #[test]
    fn a_two_megabyte_document_parses_in_linear_time() {
        // The reader this replaced re-validated the rest of the document
        // per string character: quadratic, minutes at this size.
        let mut s = Snapshot::default();
        for i in 0..40_000u64 {
            let name = format!("fleet.shard.{i:05}.ffs.alloc.cluster_search_length");
            s.counters.push((name, i));
        }
        let text = s.to_json();
        assert!(text.len() > 2_000_000, "{}", text.len());
        let t0 = std::time::Instant::now();
        assert_eq!(Snapshot::from_json(&text).expect("parse back"), s);
        assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
    }

    #[test]
    fn out_of_range_span_depth_is_rejected() {
        let doc = |depth: u64| {
            format!(
                "{{\"schema\":\"obs-metrics-v1\",\"spans\":[{{\"path\":\"a\",\
                 \"depth\":{depth},\"calls\":1,\"wall_ns\":1}}]}}"
            )
        };
        let e = Snapshot::from_json(&doc(40_000_000_000)).unwrap_err();
        assert!(e.contains("depth"), "{e}");
        // The largest accepted depth still renders.
        let ok = Snapshot::from_json(&doc(MAX_SPAN_DEPTH)).expect("in range");
        assert!(ok.render().contains('a'));
    }

    #[test]
    fn accessors_find_by_name() {
        let s = sample();
        assert_eq!(s.counter("ffs.realloc_moves"), Some(7));
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.hist("disk.seek_cyls").unwrap().count, 11);
        assert_eq!(s.span("job:age:ffs/age_day").unwrap().calls, 30);
        assert_eq!(s.span("job:age:ffs/age_day").unwrap().name(), "age_day");
        assert!((s.hist("disk.seek_cyls").unwrap().mean().unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn render_shows_tree_and_histograms() {
        let text = sample().render();
        assert!(text.contains("age_day"), "{text}");
        assert!(text.contains("ffs.block_allocs"), "{text}");
        assert!(text.contains("<=0:5"), "{text}");
        assert!(text.contains(">4:3"), "{text}");
        // Self time of the root excludes its only child: 1.5 - 1.2 ms.
        assert!(text.contains("self        0.300 ms"), "{text}");
    }

    #[test]
    fn self_time_subtracts_immediate_children_only() {
        let mut s = sample();
        // A grandchild inside age_day: already counted in age_day's
        // total, so the root's self time must not subtract it twice.
        s.spans.push(SpanSnapshot {
            path: "job:age:ffs/age_day/replay_ops".into(),
            depth: 2,
            calls: 30,
            wall_ns: 900_000,
        });
        // A second top-level span ends the first subtree.
        s.spans.push(SpanSnapshot {
            path: "job:other".into(),
            depth: 0,
            calls: 1,
            wall_ns: 50_000,
        });
        assert_eq!(s.span_self_ns(0), 300_000);
        assert_eq!(s.span_self_ns(1), 300_000);
        assert_eq!(s.span_self_ns(2), 900_000);
        assert_eq!(s.span_self_ns(3), 50_000);
        // Overlapping concurrent children clamp instead of underflowing.
        s.spans[1].wall_ns = 2_000_000;
        assert_eq!(s.span_self_ns(0), 0);
    }
}
