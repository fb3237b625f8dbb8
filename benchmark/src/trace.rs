//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory until the run ends and are then written as one
//! JSON object per line. A span is `{id, parent, name, workload, rep,
//! start_ns, end_ns, calls}`; `parent` 0 means a root. A span with
//! `calls > 1` is an *aggregate*: that many calls made under its parent
//! (per-op file-system calls inside one replayed day, for instance),
//! laid end to end from the parent's start so that its duration is the
//! calls' total busy time. Recording one span per replayed op would
//! cost a hundred megabytes per rep.
//!
//! A span's self time is its duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based identifier, unique within a trace.
    pub id: u32,
    /// Identifier of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Layer-qualified name (`ffs.create`, `aging.replay`, ...).
    pub name: String,
    /// Workload whose stage recorded the span.
    pub workload: String,
    /// Rep index within the stage (0 = warm-up).
    pub rep: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Calls the span stands for (1 unless it is an aggregate).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Num(self.id as f64)),
            ("parent".into(), Value::Num(self.parent as f64)),
            ("name".into(), Value::Str(self.name.clone())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("rep".into(), Value::Num(self.rep as f64)),
            ("start_ns".into(), Value::Num(self.start_ns as f64)),
            ("end_ns".into(), Value::Num(self.end_ns as f64)),
            ("calls".into(), Value::Num(self.calls as f64)),
        ])
    }

    #[cfg(test)]
    fn from_json(v: &Value) -> Result<Span, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("span lacks {k}"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("span lacks {k}"))
        };
        Ok(Span {
            id: num("id")? as u32,
            parent: num("parent")? as u32,
            name: text("name")?,
            workload: text("workload")?,
            rep: num("rep")? as u32,
            start_ns: num("start_ns")? as u64,
            end_ns: num("end_ns")? as u64,
            calls: num("calls")? as u64,
        })
    }
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Parses [`to_jsonl`]'s output.
#[cfg(test)]
pub fn from_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Span::from_json(&Value::parse(l)?))
        .collect()
}

/// Self time of every span, in input order: duration minus the union of
/// the children's intervals, each clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(edge);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total and self time per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Calls (aggregates count all the calls they stand for).
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Folds `spans` matching `keep` into per-name totals.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if keep(s) {
            let t = out.entry(s.name.clone()).or_default();
            t.calls += s.calls;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Records spans on one thread. A disabled tracer records nothing and
/// reads no clock, so untraced reps run the same code path for free.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Next free start position for aggregate children, per open span.
    agg_edge: Vec<u64>,
    workload: &'static str,
    rep: u32,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            agg_edge: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Labels subsequent spans with their workload stage and rep.
    pub fn set_context(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of whichever span
    /// is open.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name: name.to_string(),
            workload: self.workload.to_string(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.stack.push(id);
        self.agg_edge.push(start_ns);
        let r = f(self);
        self.stack.pop();
        self.agg_edge.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        r
    }

    /// Records `calls` calls that together kept the layer busy for
    /// `busy_ns`, as one aggregate child of the open span.
    pub fn aggregate(&mut self, name: &str, calls: u64, busy_ns: u64) {
        if !self.on || calls == 0 {
            return;
        }
        let start_ns = match self.agg_edge.last_mut() {
            Some(edge) => {
                let s = *edge;
                *edge += busy_ns;
                s
            }
            None => self.now_ns().saturating_sub(busy_ns),
        };
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent: self.stack.last().copied().unwrap_or(0),
            name: name.to_string(),
            workload: self.workload.to_string(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            workload: "w".into(),
            rep: 1,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 40, 70),
            span(4, 3, "b.inner", 45, 55),
            span(5, 0, "other", 100, 120),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two workers' spans overlap in time; a straggler overruns the
        // parent's recorded end.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "w0", 10, 60),
            span(3, 1, "w1", 40, 80),
            span(4, 1, "late", 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn totals_fold_by_name_and_count_aggregate_calls() {
        let mut spans = vec![
            span(1, 0, "day", 0, 100),
            span(2, 1, "ffs.create", 0, 60),
            span(3, 0, "day", 100, 150),
            span(4, 3, "ffs.create", 100, 120),
        ];
        spans[1].calls = 6;
        spans[3].calls = 2;
        let t = totals_by_name(&spans, |_| true);
        assert_eq!(
            t["ffs.create"],
            NameTotals {
                calls: 8,
                total_ns: 80,
                self_ns: 80
            }
        );
        assert_eq!(t["day"].self_ns, 40 + 30);
        assert!(totals_by_name(&spans, |s| s.name == "none").is_empty());
    }

    #[test]
    fn tracer_nests_spans_and_lays_aggregates_end_to_end() {
        let mut t = Tracer::on();
        t.set_context("age-paper", 2);
        t.span("rep", |t| {
            t.span("day", |t| {
                t.aggregate("ffs.create", 5, 300);
                t.aggregate("ffs.remove", 3, 200);
                t.aggregate("ffs.rewrite", 0, 0);
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4, "an empty aggregate records nothing");
        assert_eq!((s[0].name.as_str(), s[0].parent), ("rep", 0));
        assert_eq!((s[1].name.as_str(), s[1].parent), ("day", 1));
        assert_eq!((s[2].parent, s[2].calls, s[2].dur_ns()), (2, 5, 300));
        assert_eq!(s[3].start_ns, s[2].end_ns, "aggregates do not overlap");
        assert_eq!(s[2].start_ns, s[1].start_ns);
        assert!(s.iter().all(|x| x.workload == "age-paper" && x.rep == 2));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("rep", |t| {
            t.aggregate("x", 3, 10);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty() && !t.enabled());
    }

    #[test]
    fn jsonl_round_trips() {
        let mut spans = vec![span(1, 0, "a \"quoted\" name", 5, 9), span(2, 1, "b", 6, 7)];
        spans[1].calls = 1_039_628;
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(from_jsonl(&text).unwrap(), spans);
        assert!(from_jsonl("{\"id\":1}\n").is_err());
    }
}
