//! The traced run: every workload's stage with spans around the calls
//! into each layer, then probe loops that call layer functions directly
//! on the aged images at seed-derived positions.
//!
//! A traced run measures every layer whatever `--workload` names — the
//! name only labels the output files — because each traced run has to
//! report every per-layer metric. Each stage is one untraced warm-up and
//! one traced rep (`paper-all`, cold by construction, has no warm-up)
//! followed by the stage's probes. Sizes are constants; `--seconds` does
//! not apply.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use aging::{replay, replay_tapped, take_checkpoint, take_snapshot, ReplayOptions, Workload};
use defrag::{DefragPolicy, DefragRunner, DefragSpec};
use disk::{Device, IoKind, TraceEvent};
use exp::{age_cached, ArtifactStore, CacheStatus, JobSpec, RunRecord};
use ffs::{AllocPolicy, AllocStats, BlockList, CylGroup, Filesystem, Slab};
use ffs_types::{CgIdx, Daddr, Ino};
use fleet::accum::FleetAccum;
use fleet::shard::run_shard;
use fleet::spec::FleetSpec;
use iobench::{paper_file_sizes, run_point, sort_by_directory, FsDiskMap, IoEngine};

use crate::catalog::PER_LAYER;
use crate::common::{ops_of, threads, Bench, RepOut, SeedStream};
use crate::json::Value;
use crate::replayloop::{bare_replay, livemap_only};
use crate::runner::{header, metric, obj, RunArgs};
use crate::stats::{median, percentile, Summary};
use crate::trace::{to_jsonl, totals_by_name, NameTotals, Tracer};
use crate::workloads::{
    read_journal, AgePaper, AgeSmallfile, FleetJobs, IobenchAged, NightlyJobs, PaperAll, POLICIES,
};

/// Probe calls per search function.
const PROBES: usize = 20_000;
/// Lookahead window the allocator passes to `find_free_cluster_near`.
const NEAR_WINDOW: u32 = 512;

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Mean seconds per call of `f` over `n` calls.
fn mean_secs(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// What the suite has measured so far.
#[derive(Default)]
struct Suite {
    metrics: BTreeMap<&'static str, Summary>,
    /// `(claim, holds, measured)` for the interaction-table rows a
    /// trace can check.
    checks: Vec<(&'static str, bool, String)>,
    attempted: u64,
    failed: u64,
}

impl Suite {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, Summary::exact(v));
    }

    fn check(&mut self, claim: &'static str, holds: bool, measured: String) {
        self.checks.push((claim, holds, measured));
    }

    fn count(&mut self, rep: &RepOut) {
        self.attempted += rep.units + rep.failed;
        self.failed += rep.failed;
    }
}

/// One traced rep of `bench` under `workload`'s context, after an
/// untraced warm-up unless the workload is cold by construction. Both
/// must compute the same fingerprint. Returns the traced rep's output.
fn stage_rep(
    workload: &'static str,
    bench: &mut dyn Bench,
    warm_up: bool,
    tr: &mut Tracer,
    suite: &mut Suite,
) -> Result<RepOut, String> {
    let warm = if warm_up {
        Some(bench.rep(&mut Tracer::off())?)
    } else {
        None
    };
    tr.set_context(workload, 1);
    let out = tr.span("rep", |tr| bench.rep(tr))?;
    tr.set_context(workload, 0);
    suite.count(&out);
    if let Some(w) = warm.filter(|w| w.fingerprint != out.fingerprint) {
        return Err(format!(
            "{workload}: the traced rep computed sim_fingerprint {} but the warm-up computed {}",
            out.fingerprint.hex(),
            w.fingerprint.hex()
        ));
    }
    bench.verify()?;
    Ok(out)
}

/// Per-name span totals of `workload`'s traced rep.
fn stage_totals(tr: &Tracer, workload: &str) -> BTreeMap<String, NameTotals> {
    totals_by_name(tr.spans(), |s| s.workload == workload && s.rep > 0)
}

fn total_s(t: &BTreeMap<String, NameTotals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |n| n.total_ns as f64 / 1e9)
}

fn self_s(t: &BTreeMap<String, NameTotals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |n| n.self_ns as f64 / 1e9)
}

fn mean_ms(t: &BTreeMap<String, NameTotals>, name: &str) -> Result<f64, String> {
    t.get(name)
        .filter(|n| n.calls > 0)
        .map(|n| n.total_ns as f64 / 1e6 / n.calls as f64)
        .ok_or_else(|| format!("trace has no {name} span"))
}

// --- age-paper and the probes on its images -------------------------------

fn stage_age_paper(seed: u64, tr: &mut Tracer, s: &mut Suite) -> Result<AgePaper, String> {
    tr.set_context("age-paper", 0);
    let (mut b, gen_s) = secs(|| AgePaper::setup(seed));
    let ops = ops_of(&b.w) as f64;
    s.set("aging.generate.ms", gen_s * 1e3);
    s.set("aging.generate.ops_per_s", ops / gen_s);

    let rep = stage_rep("age-paper", &mut b, true, tr, s)?;

    // The library's replay, per policy, with a clock on the day tap.
    let mut lib_s = [0.0f64; 2];
    let mut day_ms: Vec<f64> = Vec::new();
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let t0 = Instant::now();
        let mut ends: Vec<f64> = Vec::with_capacity(b.w.days.len());
        let r = tr
            .span("aging.replay.lib", |_| {
                replay_tapped(
                    &b.w,
                    &b.params,
                    policy,
                    ReplayOptions::default(),
                    Some(&mut |_, _| ends.push(t0.elapsed().as_secs_f64())),
                )
            })
            .map_err(|e| format!("library replay: {e}"))?;
        lib_s[i] = t0.elapsed().as_secs_f64();
        if r.fs.digest() != b.last[i].fs.digest() {
            return Err(format!(
                "the benchmark's replay loop ended at digest {:016x}, aging::replay at {:016x} ({policy:?})",
                b.last[i].fs.digest(),
                r.fs.digest()
            ));
        }
        let mut prev = 0.0;
        for e in ends {
            day_ms.push((e - prev) * 1e3);
            prev = e;
        }
    }
    s.set("aging.replay.orig_ops_per_s", ops / lib_s[0]);
    s.set("aging.replay.realloc_ops_per_s", ops / lib_s[1]);
    s.set("aging.replay.day_p50_ms", median(&day_ms));
    s.set("aging.replay.day_p99_ms", percentile(&day_ms, 99));
    s.set("ffs.realloc.pass_share", (lib_s[1] - lib_s[0]) / lib_s[1]);

    // The same loop with no clock in it: what the library adds on top,
    // and what the clock costs the traced rep.
    let ((), bare_s) = secs(|| {
        for policy in POLICIES {
            let r = bare_replay(&b.w, &b.params, policy, false, &mut Tracer::off(), None);
            std::hint::black_box(r.map(|r| r.skipped).unwrap_or(0));
        }
    });
    let t = stage_totals(tr, "age-paper");
    let traced_rep_s = total_s(&t, "rep");
    s.set(
        "aging.replay.overhead_pct",
        (lib_s[0] + lib_s[1] - bare_s) / bare_s * 100.0,
    );
    s.set(
        "bench.trace_overhead_pct",
        (traced_rep_s - bare_s) / bare_s * 100.0,
    );
    let (lm_ops, lm_s) = secs(|| livemap_only(&b.w));
    s.set("aging.livemap.ns_per_op", lm_s * 1e9 / lm_ops as f64);

    // The traced rep's two replays fed the op clock.
    let ot = &b.op_times;
    let creates: Vec<f64> = ot.create_ns.iter().map(|&n| n as f64).collect();
    s.set(
        "ffs.create.ns",
        ot.create_total_ns() as f64 / creates.len() as f64,
    );
    s.set("ffs.create.p99_us", percentile(&creates, 99) / 1e3);
    s.set("ffs.create.count", creates.len() as f64);
    s.set(
        "ffs.remove.ns",
        ot.remove_ns as f64 / ot.remove_calls as f64,
    );
    s.set("ffs.remove.count", ot.remove_calls as f64);
    s.set(
        "ffs.rewrite.ns",
        ot.rewrite_ns as f64 / ot.rewrite_calls as f64,
    );
    s.set("ffs.rewrite.count", ot.rewrite_calls as f64);

    let re = b.last[1].fs.alloc_stats();
    let windows = re.realloc_windows.max(1) as f64;
    s.set("ffs.realloc.windows", re.realloc_windows as f64);
    s.set("ffs.realloc.move_ratio", re.realloc_moves as f64 / windows);
    s.set(
        "ffs.realloc.failure_ratio",
        re.realloc_failures as f64 / windows,
    );
    s.set("ffs.realloc.blocks_moved", re.realloc_blocks_moved as f64);

    let sim = |k: &str| {
        rep.sim
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    s.set("sim.layout_day300_ffs", sim("layout_day300_ffs"));
    s.set("sim.layout_day300_realloc", sim("layout_day300_realloc"));
    s.set(
        "sim.layout_day1_gap",
        sim("layout_day1_realloc") - sim("layout_day1_ffs"),
    );

    let op_share = (self_s(&t, "ffs.create") + self_s(&t, "ffs.remove")) / total_s(&t, "rep");
    s.check(
        "create + remove self time is at least 85 % of an age-paper rep",
        op_share >= 0.85,
        format!("{:.1} %", op_share * 100.0),
    );
    Ok(b)
}

/// Seed-derived `(group, block)` positions on `fs`.
fn positions(fs: &Filesystem, stream: &mut SeedStream, n: usize) -> Vec<(usize, u32)> {
    (0..n)
        .map(|_| {
            let g = stream.below(fs.ncg());
            (g as usize, stream.below(fs.cg(CgIdx(g)).nblocks()))
        })
        .collect()
}

/// Search and index-maintenance probes: block-level on the aged `Orig`
/// image, fragment-level on the aged spool image.
fn probe_cg(seed: u64, blocks: &Filesystem, frags: &Filesystem, s: &mut Suite) {
    let mut stream = SeedStream::new(seed, 0xC6);
    let maxcontig = blocks.params().maxcontig;
    let pos = positions(blocks, &mut stream, PROBES);
    let cg = |g: usize| blocks.cg(CgIdx(g as u32));
    let bb = std::hint::black_box::<Option<u32>>;

    let t = mean_secs(PROBES, |i| {
        bb(cg(pos[i].0).find_free_block(pos[i].1));
    });
    s.set("ffs.cg.find_free_block.ns", t * 1e9);
    let mut hits = 0usize;
    let t = mean_secs(PROBES, |i| {
        hits += usize::from(bb(cg(pos[i].0).find_free_cluster(pos[i].1, maxcontig)).is_some());
    });
    s.set("ffs.cg.find_free_cluster.ns", t * 1e9);
    s.set("ffs.cg.cluster_hit_ratio", hits as f64 / PROBES as f64);
    let t = mean_secs(PROBES, |i| {
        bb(cg(pos[i].0).find_free_cluster_near(pos[i].1, maxcontig, NEAR_WINDOW));
    });
    s.set("ffs.cg.find_free_cluster_near.ns", t * 1e9);
    // Best fit scans the whole group: a tenth of the calls.
    let t = mean_secs(PROBES / 10, |i| {
        bb(cg(pos[i].0).find_free_cluster_bestfit(1 + pos[i].1 % maxcontig));
    });
    s.set("ffs.cg.find_free_cluster_bestfit.ns", t * 1e9);

    // Mutating calls go to clones. A block toggle frees and re-takes a
    // fully allocated data block, which walks all five derived indexes
    // twice and leaves the group as it was.
    let mut groups: Vec<CylGroup> = (0..blocks.ncg())
        .map(|g| blocks.cg(CgIdx(g)).clone())
        .collect();
    let full: Vec<(usize, u32)> = pos
        .iter()
        .filter_map(|&(g, from)| {
            let c = &groups[g];
            (from.max(c.meta_blocks())..c.nblocks())
                .find(|&b| c.map_byte(b) == c.full_lane())
                .map(|b| (g, b))
        })
        .collect();
    let t = mean_secs(full.len(), |i| {
        let (g, b) = full[i];
        groups[g].free_block(b);
        groups[g].alloc_block(b);
    });
    s.set("ffs.cg.block_toggle.ns", t * 1e9);
    let t = mean_secs(PROBES, |i| {
        let c = &mut groups[pos[i].0];
        if let Some(slot) = c.alloc_inode() {
            c.free_inode(slot);
        }
    });
    s.set("ffs.cg.alloc_inode.ns", t * 1e9);

    let fpb = frags.params().frags_per_block();
    let fpos: Vec<(usize, u32, u32)> = positions(frags, &mut stream, PROBES)
        .into_iter()
        .map(|(g, from)| (g, from, 1 + stream.below(fpb - 1)))
        .collect();
    let fcg = |g: usize| frags.cg(CgIdx(g as u32));
    let t = mean_secs(PROBES, |i| {
        std::hint::black_box(fcg(fpos[i].0).find_frag_run(fpos[i].1, fpos[i].2));
    });
    s.set("ffs.cg.find_frag_run.ns", t * 1e9);
    let t = mean_secs(PROBES, |i| {
        std::hint::black_box(fcg(fpos[i].0).find_frag_run_bestfit(fpos[i].1, fpos[i].2));
    });
    s.set("ffs.cg.find_frag_run_bestfit.ns", t * 1e9);
    let mut fgroups: Vec<CylGroup> = (0..frags.ncg())
        .map(|g| frags.cg(CgIdx(g)).clone())
        .collect();
    let runs: Vec<(usize, ffs::FragRun)> = fpos
        .iter()
        .filter_map(|&(g, from, len)| fgroups[g].find_frag_run(from, len).map(|r| (g, r)))
        .collect();
    let t = mean_secs(runs.len(), |i| {
        let (g, r) = runs[i];
        fgroups[g].alloc_frags(r.block, r.frag, r.len);
        fgroups[g].free_frag_run(r.block, r.frag, r.len);
    });
    s.set("ffs.cg.frag_toggle.ns", t * 1e9);

    // File tables: a block list growing past its inline capacity into
    // the shared spill, and keyed slab churn over a populated table.
    const LIST_LEN: u32 = 64;
    let t = mean_secs(PROBES / LIST_LEN as usize, |_| {
        let mut list = BlockList::new();
        for i in 0..LIST_LEN {
            list.push(Daddr(i * fpb));
        }
        std::hint::black_box(list.as_slice().len());
    });
    s.set("ffs.table.blocklist_push.ns", t * 1e9 / LIST_LEN as f64);
    const SLAB_LIVE: u32 = 10_000;
    let mut slab: Slab<Ino, u64> = Slab::new();
    for i in 0..SLAB_LIVE {
        slab.insert(Ino(i), i as u64);
    }
    let keys: Vec<Ino> = (0..PROBES)
        .map(|_| Ino(SLAB_LIVE + stream.below(SLAB_LIVE)))
        .collect();
    let t = mean_secs(PROBES, |i| {
        slab.insert(keys[i], i as u64);
        std::hint::black_box(slab.remove(&keys[i]));
    });
    s.set("ffs.table.slab_insert_remove.ns", t * 1e9);
}

/// Analytics, recovery, defrag and the parallel-replay flag, on the aged
/// `Orig` image.
fn probe_analytics(seed: u64, aged: &AgePaper, s: &mut Suite) -> Result<(), String> {
    let fs = &aged.last[0].fs;
    // The fleet's per-shard-day tap passes this histogram bound.
    let t = mean_secs(200, |_| {
        std::hint::black_box(ffs::free_space_stats(fs, 32).free_blocks);
    });
    s.set("ffs.freespace.free_stats.us", t * 1e6);
    let t = mean_secs(200, |_| {
        std::hint::black_box(ffs::frag_space_stats(fs).partial_blocks);
    });
    s.set("ffs.freespace.frag_stats.us", t * 1e6);
    let bins = ffs::size_bins_paper();
    let t = mean_secs(5, |_| {
        std::hint::black_box(ffs::layout_by_size(fs, &bins, |_| true).len());
    });
    s.set("ffs.layout.by_size.ms", t * 1e3);
    let t = mean_secs(5, |_| {
        std::hint::black_box(ffs::recompute_aggregate(fs));
    });
    s.set("ffs.layout.recompute.ms", t * 1e3);
    let t = mean_secs(3, |_| {
        std::hint::black_box(ffs::check(fs).len());
    });
    s.set("ffs.check.ms", t * 1e3);
    let t = mean_secs(10, |_| {
        std::hint::black_box(fs.clone().nfiles());
    });
    s.set("ffs.fs.clone.ms", t * 1e3);
    let t = mean_secs(10, |_| {
        std::hint::black_box(fs.digest());
    });
    s.set("ffs.fs.digest.ms", t * 1e3);

    let mut damaged = fs.clone();
    ffs::inject_metadata_damage(&mut damaged, seed, 8);
    let (report, t) = secs(|| ffs::repair(&mut damaged));
    s.set("ffs.repair.ms", t * 1e3);
    if !report.files_removed.is_empty() || damaged.digest() != fs.digest() {
        return Err("ffs::repair after derived-state damage did not restore the image".into());
    }

    let mut healing = fs.clone();
    let mut runner = DefragRunner::new(&DefragSpec::new(DefragPolicy::Greedy, 200));
    let (moves, t) = secs(|| {
        (0..5)
            .map(|_| runner.run_pass(&mut healing).moves)
            .sum::<u64>()
    });
    s.set("defrag.pass.us_per_move", t * 1e6 / moves.max(1) as f64);
    s.set("defrag.pass.moves", moves as f64);

    // `threads 2` against the inline loop on the first 30 days. Kept a
    // layer metric on purpose: it is far too noisy for an end-to-end
    // bound, and the fix-or-delete decision reads this row's min/max.
    let first30 = Workload {
        config: aged.w.config.clone(),
        ncg: aged.w.ncg,
        capacity_bytes: aged.w.capacity_bytes,
        days: aged.w.days[..30].to_vec(),
    };
    let mut speedups = Vec::new();
    for _ in 0..5 {
        let mut t = [0.0f64; 2];
        for (i, threads) in [1usize, 2].into_iter().enumerate() {
            let options = ReplayOptions {
                threads,
                ..ReplayOptions::default()
            };
            let (r, dt) = secs(|| replay(&first30, &aged.params, AllocPolicy::Realloc, options));
            r.map_err(|e| format!("threads {threads} replay: {e}"))?;
            t[i] = dt;
        }
        speedups.push(t[0] / t[1]);
    }
    s.metrics
        .insert("ffs.parallel.t2_speedup", Summary::of(&speedups));

    // The obs layer switched on against off, three alternating pairs:
    // a single pair is at the mercy of the box's second-scale noise.
    let realloc = || {
        replay(
            &aged.w,
            &aged.params,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
    };
    let mut cost_pct = Vec::new();
    for _ in 0..3 {
        let (r, off_s) = secs(realloc);
        r.map_err(|e| format!("obs-off replay: {e}"))?;
        obs::reset();
        obs::set_enabled(true);
        let (r, on_s) = secs(realloc);
        obs::set_enabled(false);
        r.map_err(|e| format!("obs-on replay: {e}"))?;
        cost_pct.push((on_s - off_s) / off_s * 100.0);
    }
    s.metrics.insert("obs.on_cost_pct", Summary::of(&cost_pct));
    let snap = obs::take_snapshot();
    let t = mean_secs(5, |_| {
        std::hint::black_box(snap.to_json().len());
    });
    s.set("obs.snapshot.to_json.ms", t * 1e3);
    obs::reset();
    Ok(())
}

// --- age-smallfile ----------------------------------------------------------

fn stage_smallfile(seed: u64, tr: &mut Tracer, s: &mut Suite) -> Result<AgeSmallfile, String> {
    tr.set_context("age-smallfile", 0);
    let mut b = AgeSmallfile::setup(seed);
    stage_rep("age-smallfile", &mut b, true, tr, s)?;

    let (name, spool) = &b.workloads[0];
    debug_assert_eq!(*name, "spool");
    let mut t = [0.0f64; 2];
    for (i, frag_bestfit) in [false, true].into_iter().enumerate() {
        let options = ReplayOptions {
            frag_bestfit,
            ..ReplayOptions::default()
        };
        let (r, dt) = secs(|| replay(spool, &b.params, AllocPolicy::Realloc, options));
        r.map_err(|e| format!("spool replay: {e}"))?;
        t[i] = dt;
    }
    s.set("ffs.frag.bestfit_cost_ratio", t[1] / t[0]);

    let st = b.last[0].alloc_stats();
    s.check(
        "frag_allocs exceed 10 x block_allocs on age-smallfile's spool profile",
        st.frag_allocs > 10 * st.block_allocs,
        format!("{} vs {}", st.frag_allocs, st.block_allocs),
    );
    Ok(b)
}

/// `ffs.alloc.*` over every replay of the two aging stages.
fn alloc_metrics(paper: &AgePaper, small: &AgeSmallfile, s: &mut Suite) {
    let mut all = AllocStats::default();
    for fs in paper.last.iter().map(|a| &a.fs).chain(&small.last) {
        all.merge(fs.alloc_stats());
    }
    s.set("ffs.alloc.block_allocs", all.block_allocs as f64);
    s.set("ffs.alloc.frag_allocs", all.frag_allocs as f64);
    s.set(
        "ffs.alloc.pref_hit_ratio",
        all.pref_hits as f64 / all.block_allocs.max(1) as f64,
    );
    s.set(
        "ffs.alloc.cg_spill_ratio",
        all.cg_spills as f64 / (all.block_allocs + all.frag_allocs).max(1) as f64,
    );
    s.set(
        "ffs.alloc.frag_split_ratio",
        all.frag_splits as f64 / all.frag_allocs.max(1) as f64,
    );
}

// --- nightly-jobs -------------------------------------------------------------

fn stage_nightly(seed: u64, out: &Path, tr: &mut Tracer, s: &mut Suite) -> Result<(), String> {
    tr.set_context("nightly-jobs", 0);
    let mut b = NightlyJobs::setup(seed, out)?;
    stage_rep("nightly-jobs", &mut b, true, tr, s)?;
    let t = stage_totals(tr, "nightly-jobs");
    for (metric, span) in [
        ("aging.snapshot.to_text.ms", "aging.snapshot.to_text"),
        ("aging.snapshot.from_text.ms", "aging.snapshot.from_text"),
        (
            "aging.snapshot.diff_to_workload.ms",
            "aging.snapshot.diff_to_workload",
        ),
        ("aging.checkpoint.to_text.ms", "aging.checkpoint.to_text"),
        (
            "aging.checkpoint.from_text.ms",
            "aging.checkpoint.from_text",
        ),
        ("aging.checkpoint.restore.ms", "aging.checkpoint.restore"),
        ("exp.store.save.ms", "exp.store.save"),
        ("exp.store.load.ms", "exp.store.load"),
    ] {
        s.set(metric, mean_ms(&t, span)?);
    }

    let r = b.last.as_ref().ok_or("nightly-jobs left no aged run")?;
    let day = NightlyJobs::DAYS - 1;
    let take = mean_secs(20, |_| {
        std::hint::black_box(take_snapshot(&r.fs, day).entries.len());
    });
    s.set("aging.snapshot.take.ms", take * 1e3);
    s.set(
        "aging.snapshot.bytes",
        take_snapshot(&r.fs, day).to_text().len() as f64,
    );
    s.set(
        "aging.snapshot.nightly_share",
        take * r.snapshots.len() as f64 / total_s(&t, "aging.replay.nightly"),
    );
    let take = mean_secs(5, |_| {
        std::hint::black_box(take_checkpoint(&r.fs, &r.live, day, 0).files.len());
    });
    s.set("aging.checkpoint.take.ms", take * 1e3);
    s.set(
        "aging.checkpoint.bytes",
        take_checkpoint(&r.fs, &r.live, day, 0).to_text().len() as f64,
    );

    // The rep left its artifact in the store: a cache hit end to end.
    let store = ArtifactStore::new(b.work.path().join("store"));
    s.set(
        "exp.store.aged_bytes",
        crate::common::dir_bytes(store.dir()) as f64,
    );
    let mut hit = Vec::new();
    for _ in 0..3 {
        let (run, dt) = secs(|| {
            age_cached(
                Some(&store),
                &b.params,
                &b.config,
                AllocPolicy::Orig,
                NightlyJobs::options(),
            )
        });
        let run = run.map_err(|e| format!("age_cached: {e:?}"))?;
        if run.cache != CacheStatus::Hit || run.result.fs.digest() != r.fs.digest() {
            return Err("age_cached did not hit the artifact the rep saved".into());
        }
        hit.push(dt * 1e3);
    }
    s.set("exp.age_cached.hit.ms", median(&hit));

    // The issue takes foreground op replay as twice the derived-workload
    // replay. The derived workload has lost the same-day churn, so that
    // flatters the claim; a plain replay of the original workload plus
    // the derived replay is the stricter reading. Both must hold.
    let rep_s = total_s(&t, "rep");
    let derived_s = total_s(&t, "aging.replay.derived");
    let (plain, plain_s) =
        secs(|| replay(&b.w, &b.params, AllocPolicy::Orig, ReplayOptions::default()));
    plain.map_err(|e| format!("plain nightly replay: {e}"))?;
    let by_issue = 1.0 - 2.0 * derived_s / rep_s;
    let by_plain = 1.0 - (plain_s + derived_s) / rep_s;
    s.check(
        "background work and round trips are over half of a nightly-jobs rep",
        by_issue > 0.5 && by_plain > 0.5,
        format!(
            "{:.1} % taking twice the derived replay as foreground, {:.1} % taking a plain replay of the same workload",
            by_issue * 100.0,
            by_plain * 100.0
        ),
    );
    Ok(())
}

// --- iobench-aged -------------------------------------------------------------

/// The requests one read-then-overwrite pass over `img`'s hot set puts to
/// the device, captured with the device's own request trace.
fn capture_requests(b: &IobenchAged) -> Vec<TraceEvent> {
    let img = &b.images[1];
    let fs = &img.run.fs;
    let params = fs.params();
    let mut dev = Device::new(b.disk.clone());
    dev.enable_trace(1 << 22);
    let map = FsDiskMap::new(params, b.disk.sector_size, 0);
    let order = sort_by_directory(fs, img.hot.clone());
    for kind in [IoKind::Read, IoKind::Write] {
        for ino in &order {
            if let Some(meta) = fs.file(*ino) {
                IoEngine::new(&mut dev, params, map).transfer_file(kind, meta, params);
            }
        }
    }
    dev.trace()
        .map(|t| t.events().copied().collect())
        .unwrap_or_default()
}

fn stage_iobench(seed: u64, tr: &mut Tracer, s: &mut Suite) -> Result<(), String> {
    tr.set_context("iobench-aged", 0);
    let mut b = IobenchAged::setup(seed)?;
    let rep = stage_rep("iobench-aged", &mut b, true, tr, s)?;
    let t = stage_totals(tr, "iobench-aged");
    let point_ms: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|sp| sp.workload == "iobench-aged" && sp.rep > 0 && sp.name == "iobench.seq.point")
        .map(|sp| sp.dur_ns() as f64 / 1e6)
        .collect();
    s.set("iobench.seq.point_p50_ms", median(&point_ms));
    s.set("iobench.hot.ms", mean_ms(&t, "iobench.hot")?);

    // One more sweep, clocked against its own set-up: the clone of the
    // aged image plus the creates `run_point` does before any I/O.
    let (mut sweep_s, mut setup_s, mut sim_req) = (0.0, 0.0, 0u64);
    for img in &b.images {
        for size in paper_file_sizes() {
            let (p, dt) = secs(|| run_point(&img.run.fs, &b.seq, size));
            let p = p.map_err(|e| format!("run_point: {e}"))?;
            sweep_s += dt;
            sim_req += p.device.reads + p.device.writes;
            let ((), dt) = secs(|| {
                let mut fs = img.run.fs.clone();
                let nfiles = (b.seq.total_bytes / size).max(1) as u32;
                let dirs: Vec<_> = (0..nfiles.div_ceil(b.seq.files_per_dir))
                    .filter_map(|_| fs.mkdir().ok())
                    .collect();
                for i in 0..nfiles {
                    let dir = dirs[(i / b.seq.files_per_dir) as usize];
                    std::hint::black_box(fs.create(dir, size, 0).is_ok());
                }
            });
            setup_s += dt;
        }
    }
    s.set("iobench.seq.setup_share", setup_s / sweep_s);
    s.set("iobench.seq.sim_req", sim_req as f64);

    // The device model alone: the captured requests re-issued on fresh
    // devices, reads and writes apart.
    let events = capture_requests(&b);
    let mut sim_us = 0.0;
    let mut stats = disk::DeviceStats::default();
    for (metric, reads) in [
        ("disk.device.read_req_per_s", true),
        ("disk.device.write_req_per_s", false),
    ] {
        let reqs: Vec<&TraceEvent> = events.iter().filter(|e| e.is_read == reads).collect();
        if reqs.is_empty() {
            return Err("the request capture is empty".into());
        }
        let mut dev = Device::new(b.disk.clone());
        let ((), dt) = secs(|| {
            for e in &reqs {
                std::hint::black_box(if reads {
                    dev.read(e.lba, e.sectors)
                } else {
                    dev.write(e.lba, e.sectors)
                });
            }
        });
        s.set(metric, reqs.len() as f64 / dt);
        sim_us += dev.now();
        stats.merge(dev.stats());
    }
    s.set("disk.device.sim_us_per_req", sim_us / events.len() as f64);
    s.set(
        "disk.device.buffer_hit_ratio",
        stats.buffer_hits as f64 / stats.reads.max(1) as f64,
    );
    s.set("disk.device.seek_share", stats.seek_time_us / sim_us);
    s.set("disk.device.rot_share", stats.rot_wait_us / sim_us);

    let sim = |k: &str| {
        rep.sim
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    s.set("sim.table2_read_gain_pct", sim("table2_read_gain_pct"));
    s.set("sim.table2_write_gain_pct", sim("table2_write_gain_pct"));
    s.set("sim.hot_set_share_pct", sim("hot_set_share_pct"));
    s.set("sim.raw_read_mb_s", sim("raw_read_mb_s"));
    s.set("sim.raw_write_mb_s", sim("raw_write_mb_s"));

    let covered = [
        "iobench.seq.point",
        "iobench.hot",
        "disk.raw.read",
        "disk.raw.write",
    ]
    .iter()
    .map(|n| total_s(&t, n))
    .sum::<f64>()
        / total_s(&t, "rep");
    s.check(
        "disk.* and iobench.* spans cover at least 90 % of an iobench-aged rep",
        covered >= 0.9,
        format!("{:.1} %", covered * 100.0),
    );
    Ok(())
}

// --- fleet-jobs and the engine ------------------------------------------------

fn stage_fleet(seed: u64, out: &Path, tr: &mut Tracer, s: &mut Suite) -> Result<(), String> {
    tr.set_context("fleet-jobs", 0);
    let mut b = FleetJobs::setup(seed, out)?;
    stage_rep("fleet-jobs", &mut b, true, tr, s)?;
    let t = stage_totals(tr, "fleet-jobs");
    s.set("fleet.warm_rerun.ms", mean_ms(&t, "fleet.run.warm")?);

    let dir = b.work.fresh("jobs1")?;
    let (r, one_s) = secs(|| fleet::driver::run_fleet(&b.options(&dir, 1)));
    r.map_err(|e| format!("jobs 1 fleet run: {e}"))?;
    s.set("fleet.jobs2_speedup", one_s / total_s(&t, "fleet.run.cold"));

    let spec = FleetSpec::new(FleetJobs::SHARDS, seed, FleetJobs::DAYS);
    let mut shard_ms = Vec::new();
    let mut sample = None;
    for i in 0..128 {
        let shard = spec.shard(i);
        let (o, dt) = secs(|| run_shard(None, &shard, None));
        let o = o.map_err(|e| format!("run_shard {i}: {e:?}"))?;
        shard_ms.push(dt * 1e3);
        sample.get_or_insert((shard.policy, o));
    }
    s.set("fleet.shard.p50_ms", median(&shard_ms));
    s.set("fleet.shard.p99_ms", percentile(&shard_ms, 99));
    let (policy, o) = sample.ok_or("no shard ran")?;
    let accum = FleetAccum::new(FleetJobs::DAYS);
    let fold = mean_secs(1000, |_| {
        accum.fold(fleet::accum::policy_index(policy), &o.samples, o.ops);
    });
    s.set("fleet.accum.fold.us", fold * 1e6);

    // The engine with nothing to do: 1,000 no-op jobs.
    const JOBS: usize = 1000;
    let jobs: Vec<JobSpec<()>> = (0..JOBS)
        .map(|i| JobSpec::new(&format!("noop:{i:04}"), &[], |_| Ok(())))
        .collect();
    let (run, dt) = secs(|| exp::run_jobs(jobs, threads()));
    let run = run.map_err(|e| format!("no-op jobs: {e}"))?;
    s.set("exp.engine.us_per_job", dt * 1e6 / JOBS as f64);
    if run.records.iter().any(|r| r.status != "ok") {
        return Err("a no-op job did not end ok".into());
    }
    // A record shaped like the fleet journal's: cache outcome, content
    // address, op count and two notes.
    let record = RunRecord {
        job: "shard:0000".into(),
        deps: Vec::new(),
        status: "ok".into(),
        error: None,
        wall_s: 0.001_234_5,
        attempts: 1,
        backoff_units: 0,
        metrics: exp::Metrics {
            cache: Some(CacheStatus::Miss),
            key: Some(spec.shard(0).key_hex()),
            ops: Some(o.ops),
            device: None,
            notes: vec![
                ("policy".into(), "realloc".into()),
                ("defrag".into(), "greedy/200".into()),
            ],
        },
    };
    let to_json = mean_secs(PROBES, |_| {
        std::hint::black_box(record.to_json().len());
    });
    s.set("exp.record.to_json.us", to_json * 1e6);
    Ok(())
}

// --- paper-all ----------------------------------------------------------------

/// The aged runs an exhibit waits for (`harness::driver`'s DAG).
fn exhibit_deps(name: &str) -> &'static [&'static str] {
    match name {
        "fig1" => &["age:ffs", "age:realref"],
        "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "table2" | "freespace" => {
            &["age:ffs", "age:realloc"]
        }
        _ => &[],
    }
}

fn stage_harness(seed: u64, out: &Path, tr: &mut Tracer, s: &mut Suite) -> Result<(), String> {
    tr.set_context("paper-all", 0);
    let mut b = PaperAll::setup(seed, out)?;
    stage_rep("paper-all", &mut b, false, tr, s)?;
    let dir = b.last_out.clone().ok_or("paper-all left no output")?;
    let journal = read_journal(&dir)?;
    let wall = |job: &str| {
        journal
            .iter()
            .find(|j| j.job == job)
            .map_or(0.0, |j| j.wall_s)
    };
    for (metric, job) in [
        ("harness.job.age_ffs_s", "age:ffs"),
        ("harness.job.age_realloc_s", "age:realloc"),
        ("harness.job.age_realref_s", "age:realref"),
        ("harness.job.profiles_s", "profiles"),
        ("harness.job.snapval_s", "snapval"),
        ("harness.job.fig4_s", "fig4"),
        ("harness.job.fig5_s", "fig5"),
    ] {
        s.set(metric, wall(job));
    }
    let critical = harness::driver::EXHIBITS
        .iter()
        .map(|e| wall(e) + exhibit_deps(e).iter().map(|d| wall(d)).fold(0.0, f64::max))
        .fold(0.0, f64::max);
    let t = stage_totals(tr, "paper-all");
    s.set("harness.critical_path_share", critical / total_s(&t, "rep"));

    // The same command again, on the cache the cold run filled.
    let (r, warm_s) = secs(|| harness::driver::run(&b.options(&dir), harness::driver::EXHIBITS));
    let summary = r.map_err(|e| format!("warm harness run: {e}"))?;
    if !summary.all_ok() {
        return Err(format!("warm harness run: {}", summary.degradation_line()));
    }
    s.set("harness.all_warm_s", warm_s);
    Ok(())
}

/// A fixed integer loop: if this moves between two runs, the box got
/// noisier or slower, not the commit.
fn host_spin_ms() -> f64 {
    let ((), dt) = secs(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..50_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    });
    dt * 1e3
}

/// Runs the layer suite and writes `<out>/<workload>.layers.json` and
/// `<out>/<workload>.trace.jsonl`.
pub fn run_traced(args: &RunArgs) -> Result<(), String> {
    let out = Path::new(&args.out);
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut tr = Tracer::on();
    let mut s = Suite::default();
    let seed = args.seed;

    s.set("bench.host_spin_ms", host_spin_ms());
    let paper = stage_age_paper(seed, &mut tr, &mut s)?;
    let small = stage_smallfile(seed, &mut tr, &mut s)?;
    alloc_metrics(&paper, &small, &mut s);
    probe_cg(seed, &paper.last[0].fs, &small.last[0], &mut s);
    probe_analytics(seed, &paper, &mut s)?;
    drop((paper, small));
    stage_nightly(seed, out, &mut tr, &mut s)?;
    stage_iobench(seed, &mut tr, &mut s)?;
    stage_fleet(seed, out, &mut tr, &mut s)?;
    stage_harness(seed, out, &mut tr, &mut s)?;

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let v = s
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("the layer suite did not measure {}", m.name))?;
        if !v.median.is_finite() {
            return Err(format!("{} is not a number", m.name));
        }
        metrics.push((m.name.to_string(), metric(m.unit, v)));
    }
    if let Some(stray) = s
        .metrics
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("{stray} is measured but not in the catalog"));
    }

    let trace_path = out.join(format!("{}.trace.jsonl", args.workload));
    std::fs::write(&trace_path, to_jsonl(tr.spans()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut doc = header(args, true);
    doc.extend([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(s.attempted as f64)),
        ("failed", Value::Num(s.failed as f64)),
        ("spans", Value::Num(tr.spans().len() as f64)),
        ("metrics", Value::Obj(metrics)),
        (
            "checks",
            Value::Arr(
                s.checks
                    .iter()
                    .map(|(claim, holds, measured)| {
                        Value::Obj(vec![
                            ("claim".into(), Value::Str(claim.to_string())),
                            ("holds".into(), Value::Bool(*holds)),
                            ("measured".into(), Value::Str(measured.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    for (claim, holds, measured) in &s.checks {
        eprintln!(
            "ffsbench: interaction check {}: {claim} ({measured})",
            if *holds { "holds" } else { "FAILS" }
        );
    }
    let path = out.join(format!("{}.layers.json", args.workload));
    std::fs::write(&path, format!("{}\n", obj(doc))).map_err(|e| format!("{}: {e}", path.display()))
}
