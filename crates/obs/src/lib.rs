//! Deterministic, zero-cost-when-disabled observability for the
//! simulation stack.
//!
//! Three layers:
//!
//! * [`metrics`] — a lock-free-ish registry of named monotonic
//!   [`metrics::Counter`]s and fixed-bucket [`metrics::Histogram`]s. Registration (first use of a name) takes a
//!   mutex once; every increment after that is a relaxed atomic
//!   operation on a handle cached at the call site.
//! * [`mod@span`] — hierarchical timing spans. `let _s = obs::span!("x");`
//!   opens a span until end of scope; nested spans build a per-run
//!   profile tree (wall time and call counts per path), aggregated
//!   across threads (each thread nests independently, all threads share
//!   one tree).
//! * [`snapshot`] — a point-in-time [`snapshot::Snapshot`] of
//!   everything recorded, with a `metrics.json` sink
//!   ([`snapshot::Snapshot::to_json`]), its reader
//!   ([`snapshot::Snapshot::from_json`]), and a human profile view
//!   ([`snapshot::Snapshot::render`]).
//!
//! Beside them, [`json`] is the workspace's one JSON reader and string
//! escaper; `metrics.json` here and `runs.jsonl` in `exp` both go
//! through it.
//!
//! # Determinism and cost
//!
//! Recording is globally off by default. Every macro compiles to a load
//! of one static `AtomicBool` and a branch; when the flag is false no
//! registration, allocation, clock read, or lock happens, so
//! instrumented code paths produce byte-identical outputs with
//! observability on or off — the instrumentation only *observes*.
//! Counter and histogram values are deterministic for a deterministic
//! workload (atomic increments commute); span wall times are wall-clock
//! measurements and naturally vary run to run.
//!
//! # Example
//!
//! ```
//! obs::reset();
//! obs::set_enabled(true);
//! {
//!     let _s = obs::span!("work");
//!     obs::counter!("example.items", 3);
//!     obs::hist!("example.sizes", &[1, 2, 4, 8], 3);
//! }
//! let snap = obs::take_snapshot();
//! assert_eq!(snap.counter("example.items"), Some(3));
//! obs::set_enabled(false);
//! ```

pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use metrics::Registry;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// Whether recording is globally enabled. All macros check this first;
/// when false they do no other work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Off (the default) makes every macro a
/// single static load and branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metric registry. Created on first use; metric
/// registrations persist for the life of the process ([`reset`] zeroes
/// values but keeps registrations so call-site handle caches stay
/// valid).
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Zeroes every registered counter and histogram and clears the
/// span tree, so the next enabled region records from a clean slate.
/// Metric registrations (and the `&'static` handles cached at call
/// sites) survive. Not meaningful while spans are open on other
/// threads.
pub fn reset() {
    if let Some(r) = REGISTRY.get() {
        r.zero();
    }
    span::reset_tree();
}

/// Captures a [`snapshot::Snapshot`] of every registered metric and the
/// current span tree.
pub fn take_snapshot() -> snapshot::Snapshot {
    snapshot::Snapshot::capture(registry())
}

/// Observability for one run, the one switch every binary flips: with a
/// `metrics.json` path, [`Capture::start`] resets the registry and turns
/// recording on, and [`Capture::finish`] turns it off and writes the
/// snapshot. Dropping an unfinished capture (an early `?` return) turns
/// recording off too, so a failed run never leaves the global switch on.
/// Without a path the capture is inert.
pub struct Capture {
    path: Option<String>,
}

impl Capture {
    /// Starts recording from a clean slate when `path` is set.
    pub fn start(path: Option<&str>) -> Capture {
        if path.is_some() {
            reset();
            set_enabled(true);
        }
        Capture {
            path: path.map(str::to_string),
        }
    }

    /// Stops recording and writes the snapshot as JSON to the path given
    /// to [`Capture::start`]; does nothing when inert.
    pub fn finish(mut self) -> Result<(), String> {
        let Some(path) = self.path.take() else {
            return Ok(());
        };
        set_enabled(false);
        std::fs::write(&path, take_snapshot().to_json()).map_err(|e| format!("write {path}: {e}"))
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if self.path.is_some() {
            set_enabled(false);
        }
    }
}

/// Adds `$n` to the monotonic counter `$name` when recording is
/// enabled; otherwise a branch on a static.
///
/// The counter handle is registered once and cached in a per-call-site
/// static, so the steady-state cost is one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    }};
}

/// Records `$v` into the fixed-bucket histogram `$name` (registered on
/// first use with upper-inclusive bucket `$bounds`, a `&[u64]`) when
/// recording is enabled. Values above the last bound land in the
/// overflow bucket.
#[macro_export]
macro_rules! hist {
    ($name:expr, $bounds:expr, $v:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().histogram($name, $bounds))
                .observe($v as u64);
        }
    }};
}

/// Opens a timing span named `$name` until the returned guard leaves
/// scope: `let _s = obs::span!("age_day");`. Nested spans become
/// children in the profile tree. When recording is disabled the guard
/// is inert and nothing is locked or timed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Common histogram bucket layouts, shared so the same quantity is
/// bucketed identically everywhere it is observed.
pub mod bounds {
    /// Powers of two up to 32768 — seek distances in cylinders, scan
    /// lengths in blocks.
    pub const POW2: &[u64] = &[
        0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
    ];
    /// Request service times in microseconds, 100 µs to 100 ms.
    pub const TIME_US: &[u64] = &[
        100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    ];
    /// Small linear sizes (1–16) — realloc windows, cluster lengths.
    pub const LINEAR_16: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
}
