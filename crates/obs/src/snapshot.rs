//! Point-in-time snapshots of the registry and span tree, with sinks.
//!
//! The environment is offline (no serde), so the writer emits JSON by
//! hand with a fixed field order, and [`Snapshot::from_json`] is a
//! small recursive-descent parser that accepts standard JSON — enough
//! to read back exactly what [`Snapshot::to_json`] and
//! [`Snapshot::to_jsonl`] write (the same arrangement `exp`'s
//! `runs.jsonl` uses). Sorted metric names and name-ordered span paths
//! make the serialization deterministic up to the wall-time values
//! themselves.

use std::fmt::Write as _;

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
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
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
            gauges: reg.gauge_values(),
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
        push_json_str(&mut s, SCHEMA);
        s.push_str(",\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, n);
            let _ = write!(s, ":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, n);
            let _ = write!(s, ":{v}");
        }
        s.push_str("},\"histograms\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &h.name);
            let _ = write!(
                s,
                ",\"bounds\":{},\"buckets\":{},\"count\":{},\"sum\":{},\"max\":{}}}",
                num_array(&h.bounds),
                num_array(&h.buckets),
                h.count,
                h.sum,
                h.max
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"path\":");
            push_json_str(&mut s, &sp.path);
            let _ = write!(
                s,
                ",\"depth\":{},\"calls\":{},\"wall_ns\":{}}}",
                sp.depth, sp.calls, sp.wall_ns
            );
        }
        s.push_str("]}");
        s
    }

    /// Serializes the snapshot as JSON lines — one object per metric
    /// and span, in the extractor-friendly style of `runs.jsonl`, for
    /// appending observability data alongside run records.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (n, v) in &self.counters {
            s.push_str("{\"kind\":\"counter\",\"name\":");
            push_json_str(&mut s, n);
            let _ = writeln!(s, ",\"value\":{v}}}");
        }
        for (n, v) in &self.gauges {
            s.push_str("{\"kind\":\"gauge\",\"name\":");
            push_json_str(&mut s, n);
            let _ = writeln!(s, ",\"value\":{v}}}");
        }
        for h in &self.hists {
            s.push_str("{\"kind\":\"histogram\",\"name\":");
            push_json_str(&mut s, &h.name);
            let _ = writeln!(
                s,
                ",\"bounds\":{},\"buckets\":{},\"count\":{},\"sum\":{},\"max\":{}}}",
                num_array(&h.bounds),
                num_array(&h.buckets),
                h.count,
                h.sum,
                h.max
            );
        }
        for sp in &self.spans {
            s.push_str("{\"kind\":\"span\",\"path\":");
            push_json_str(&mut s, &sp.path);
            let _ = writeln!(
                s,
                ",\"depth\":{},\"calls\":{},\"wall_ns\":{}}}",
                sp.depth, sp.calls, sp.wall_ns
            );
        }
        s
    }

    /// Parses a snapshot from the output of [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text)?;
        let obj = v
            .as_obj()
            .ok_or("metrics.json: top level is not an object")?;
        match json::get(obj, "schema").and_then(|s| s.as_str()) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported metrics schema {s:?}")),
            None => return Err("metrics.json: missing schema".into()),
        }
        let mut snap = Snapshot::default();
        if let Some(c) = json::get(obj, "counters").and_then(|v| v.as_obj()) {
            for (n, v) in c {
                snap.counters
                    .push((n.clone(), v.as_u64().ok_or("bad counter value")?));
            }
        }
        if let Some(g) = json::get(obj, "gauges").and_then(|v| v.as_obj()) {
            for (n, v) in g {
                snap.gauges
                    .push((n.clone(), v.as_u64().ok_or("bad gauge value")?));
            }
        }
        if let Some(hs) = json::get(obj, "histograms").and_then(|v| v.as_arr()) {
            for h in hs {
                let o = h.as_obj().ok_or("histogram entry is not an object")?;
                snap.hists.push(HistSnapshot {
                    name: json::get(o, "name")
                        .and_then(|v| v.as_str())
                        .ok_or("histogram missing name")?
                        .to_string(),
                    bounds: json::u64_array(o, "bounds")?,
                    buckets: json::u64_array(o, "buckets")?,
                    count: json::u64_field(o, "count")?,
                    sum: json::u64_field(o, "sum")?,
                    max: json::u64_field(o, "max")?,
                });
            }
        }
        if let Some(sp) = json::get(obj, "spans").and_then(|v| v.as_arr()) {
            for e in sp {
                let o = e.as_obj().ok_or("span entry is not an object")?;
                snap.spans.push(SpanSnapshot {
                    path: json::get(o, "path")
                        .and_then(|v| v.as_str())
                        .ok_or("span missing path")?
                        .to_string(),
                    depth: match json::u64_field(o, "depth")? {
                        d if d <= MAX_SPAN_DEPTH => d as usize,
                        d => return Err(format!("span depth {d} out of range")),
                    },
                    calls: json::u64_field(o, "calls")?,
                    wall_ns: json::u64_field(o, "wall_ns")?,
                });
            }
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
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (n, v) in &self.gauges {
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

fn num_array<T: std::fmt::Display>(v: &[T]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A minimal JSON reader: just enough of the grammar to parse what this
/// module writes (objects, arrays, strings with the escapes the writer
/// emits, and non-negative decimal numbers with optional fraction).
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// A number (kept as f64; integral values round-trip below
        /// 2^53, far beyond any bucket count this crate records).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn u64_field(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
        get(obj, key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
    }

    pub fn u64_array(obj: &[(String, Value)], key: &str) -> Result<Vec<u64>, String> {
        get(obj, key)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("missing array field {key:?}"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("non-numeric entry in {key:?}"))
            })
            .collect()
    }

    /// Deepest array/object nesting [`parse`] follows before giving up;
    /// the writer nests four levels, and the descent is recursive, so
    /// unbounded input depth would be unbounded stack.
    const MAX_DEPTH: usize = 32;

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
        }
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut obj = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(obj));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    obj.push((key, value(b, pos, depth + 1)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(obj));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(arr));
                }
                loop {
                    arr.push(value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(arr));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                if b[*pos] == b'-' {
                    *pos += 1;
                }
                while *pos < b.len()
                    && (b[*pos].is_ascii_digit()
                        || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => Err(format!("unexpected input at byte {}", *pos)),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(v).ok_or("bad \\u codepoint")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
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
            gauges: vec![("aging.live_files".into(), 1234)],
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

    #[test]
    fn jsonl_lines_carry_kind_and_name() {
        let lines: Vec<String> = sample().to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2 + 1 + 1 + 2);
        assert!(lines[0].contains("\"kind\":\"counter\""));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"histogram\"")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"span\"")));
        // Each line is independently parseable by the extractor style
        // used on runs.jsonl: no embedded newlines, one object per line.
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
