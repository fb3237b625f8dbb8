//! One function per paper exhibit. Each is a pure function of its
//! inputs (the shared parameters and the aged runs it consumes) that
//! returns the exhibit's TSV block — the engine decides scheduling and
//! the driver decides where the bytes go, so `--jobs N` cannot change a
//! single byte of output. Functions that drive the simulated disk also
//! report op counts and [`disk::DeviceStats`] into their job's
//! [`Metrics`] for the structured run record.

use std::fmt::Write as _;

use aging::{
    generate, profiles, AgingConfig, Days, Profile, Replay, ReplayOptions, ReplayResult, Snapshot,
    SnapshotDiffer, Workload,
};
use disk::{raw_read_throughput, raw_write_throughput};
use exp::Metrics;
use ffs::{free_space_stats, layout_by_size, size_bins_paper, AllocPolicy, Filesystem};
use ffs_types::units::fmt_bytes;
use ffs_types::{FsParams, Ino, KB, MB};
use iobench::{paper_file_sizes, run_hot_files, run_point, SeqBenchConfig};

use crate::ctx::{paper_config, Shared};

/// Days of the aging run whose modified files form the "hot" set
/// (Section 5.2: "the last month").
const HOT_DAYS: u32 = 30;

/// Table 1: the benchmark configuration.
pub fn table1(sh: &Shared) -> Result<String, String> {
    let p = &sh.params;
    let d = &sh.disk;
    let mut s = String::new();
    let _ = writeln!(s, "# Table 1: Benchmark Configuration");
    let _ = writeln!(s, "param\tvalue");
    let _ = writeln!(s, "disk.type\tSeagate ST32430N (model)");
    let _ = writeln!(s, "disk.capacity_bytes\t{}", d.capacity_bytes());
    let _ = writeln!(s, "disk.rpm\t{}", d.rpm);
    let _ = writeln!(s, "disk.cylinders\t{}", d.cylinders);
    let _ = writeln!(s, "disk.heads\t{}", d.heads);
    let _ = writeln!(s, "disk.sectors_per_track\t{}", d.sectors_per_track);
    let _ = writeln!(s, "disk.sector_bytes\t{}", d.sector_size);
    let _ = writeln!(
        s,
        "disk.track_buffer\t{}",
        fmt_bytes(d.track_buffer_bytes as u64)
    );
    let _ = writeln!(s, "disk.avg_seek_ms\t{}", d.avg_seek_ms);
    let _ = writeln!(
        s,
        "disk.max_transfer\t{}",
        fmt_bytes(d.max_transfer_bytes as u64)
    );
    let _ = writeln!(s, "disk.rev_time_ms\t{:.3}", d.rev_time_us() / 1000.0);
    let _ = writeln!(s, "disk.media_rate_mb_s\t{:.2}", d.media_mb_per_sec());
    let _ = writeln!(s, "fs.size\t{}", fmt_bytes(p.size_bytes));
    let _ = writeln!(s, "fs.block\t{}", fmt_bytes(p.bsize as u64));
    let _ = writeln!(s, "fs.fragment\t{}", fmt_bytes(p.fsize as u64));
    let _ = writeln!(
        s,
        "fs.max_cluster\t{}",
        fmt_bytes((p.maxcontig * p.bsize) as u64)
    );
    let _ = writeln!(s, "fs.cylinder_groups\t{}", p.ncg);
    let _ = writeln!(s, "fs.rotational_gap\t0");
    let _ = writeln!(s, "fs.minfree_pct\t{}", p.minfree_pct);
    Ok(s)
}

fn layout_series_tsv(title: &str, series: &[(&str, &ReplayResult)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let mut header = String::from("day");
    for (name, _) in series {
        let _ = write!(header, "\t{name}");
    }
    let _ = writeln!(s, "{header}");
    let days = series[0].1.daily.len();
    for i in 0..days {
        let _ = write!(s, "{}", series[0].1.daily[i].day);
        for (_, r) in series {
            let _ = write!(s, "\t{:.4}", r.daily[i].layout_score);
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 1: aggregate layout score over time, real vs simulated, by
/// the paper's own validation method (Section 3.1). The "real" file
/// system replays the generated history under FFS — the same replay as
/// `age:ffs`, so its column equals Figure 2's `ffs`. It is snapshotted
/// nightly, a workload is derived from the snapshot diffs (with the
/// same information loss the paper's had: same-day files vanish and a
/// modify reads as delete plus create), and the "simulated" column
/// replays that derived workload into a second file system.
///
/// The whole pipeline advances one day at a time — generate, replay,
/// snapshot, diff against last night, replay the derived day — so it
/// holds two file systems, one snapshot and one day of operations,
/// never a workload or a snapshot series. Each night is taken with
/// [`Snapshot::next`] from the one before, so only changed files
/// allocate an entry.
pub fn fig1(sh: &Shared, m: &mut Metrics) -> Result<String, String> {
    let config = paper_config(sh.seed, sh.days);
    let params = &sh.params;
    let fresh = || {
        Replay::new(params, AllocPolicy::Orig, ReplayOptions::default()).map_err(|e| e.to_string())
    };
    let (mut real, mut simulated) = (fresh()?, fresh()?);
    let mut differ = SnapshotDiffer::new(&config, params.ncg);
    let mut last_night = Snapshot::default();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Figure 1: Aggregate Layout Score Over Time: Real vs. Simulated"
    );
    let _ = writeln!(s, "day\treal\tsimulated");
    let mut days = Days::new(&config, params.ncg, params.data_capacity_bytes());
    while let Some(day) = {
        let _s = obs::span!("gen_workload");
        days.next()
    } {
        real.day(&day).map_err(|e| e.to_string())?;
        let derived_day = {
            let _s = obs::span!("derive_workload");
            last_night = last_night.next(real.fs(), day.day);
            differ.push(&last_night)
        };
        simulated.day(&derived_day).map_err(|e| e.to_string())?;
        if let (Some(a), Some(b)) = (real.last(), simulated.last()) {
            let _ = writeln!(s, "{}\t{:.4}\t{:.4}", a.day, a.layout_score, b.layout_score);
        }
    }
    m.ops = Some(real.ops() + simulated.ops());
    Ok(s)
}

/// Figure 2: aggregate layout score over time, FFS vs realloc.
pub fn fig2(orig: &ReplayResult, realloc: &ReplayResult) -> Result<String, String> {
    Ok(layout_series_tsv(
        "Figure 2: Aggregate Layout Score Over Time: FFS vs. realloc",
        &[("ffs", orig), ("ffs_realloc", realloc)],
    ))
}

fn by_size_tsv(title: &str, sets: &[(&str, &Filesystem, Option<&[Ino]>)]) -> String {
    let bins = size_bins_paper();
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let mut header = String::from("size");
    for (name, _, _) in sets {
        let _ = write!(header, "\t{name}\t{name}_files");
    }
    let _ = writeln!(s, "{header}");
    let per_set: Vec<Vec<ffs::SizeBinScore>> = sets
        .iter()
        .map(|(_, fs, filter)| match filter {
            Some(inos) => {
                let set: std::collections::BTreeSet<Ino> = inos.iter().copied().collect();
                layout_by_size(fs, &bins, |ino| set.contains(&ino))
            }
            None => layout_by_size(fs, &bins, |_| true),
        })
        .collect();
    for (i, &hi) in bins.iter().enumerate() {
        let _ = write!(s, "{}", fmt_bytes(hi));
        for set in &per_set {
            match set[i].score() {
                Some(v) => {
                    let _ = write!(s, "\t{:.4}\t{}", v, set[i].scored_files);
                }
                None => {
                    let _ = write!(s, "\t-\t0");
                }
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 3: layout score as a function of file size on the aged file
/// systems.
pub fn fig3(orig: &ReplayResult, realloc: &ReplayResult) -> Result<String, String> {
    Ok(by_size_tsv(
        "Figure 3: Layout Score as a Function of File Size (aged fs)",
        &[("ffs", &orig.fs, None), ("ffs_realloc", &realloc.fs, None)],
    ))
}

/// Figure 4: sequential read/write throughput vs file size, plus the raw
/// device baselines. (Figure 5 re-runs the same deterministic sweep for
/// its layout column; the two jobs are independent in the DAG.)
pub fn fig4(
    sh: &Shared,
    orig: &ReplayResult,
    realloc: &ReplayResult,
    m: &mut Metrics,
) -> Result<String, String> {
    let config = SeqBenchConfig {
        disk: sh.disk.clone(),
        ..SeqBenchConfig::default()
    };
    let raw_r = raw_read_throughput(&sh.disk, 32 * MB).mb_per_sec;
    let raw_w = raw_write_throughput(&sh.disk, 32 * MB).mb_per_sec;
    let mut s = String::new();
    let _ = writeln!(s, "# Figure 4: Sequential I/O Performance (MB/s)");
    let _ = writeln!(s, "# raw_read\t{raw_r:.3}");
    let _ = writeln!(s, "# raw_write\t{raw_w:.3}");
    let _ = writeln!(s, "size\tffs_read\tffs_write\trealloc_read\trealloc_write");
    for size in paper_file_sizes() {
        let po = run_point(&orig.fs, &config, size).map_err(|e| e.to_string())?;
        let pr = run_point(&realloc.fs, &config, size).map_err(|e| e.to_string())?;
        m.add_device(&po.device);
        m.add_device(&pr.device);
        let _ = writeln!(
            s,
            "{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
            fmt_bytes(size),
            po.read_mb_s,
            po.write_mb_s,
            pr.read_mb_s,
            pr.write_mb_s
        );
    }
    Ok(s)
}

/// Figure 5: layout score of the files created by the sequential
/// benchmark, as a function of file size.
pub fn fig5(
    sh: &Shared,
    orig: &ReplayResult,
    realloc: &ReplayResult,
    m: &mut Metrics,
) -> Result<String, String> {
    let config = SeqBenchConfig {
        disk: sh.disk.clone(),
        ..SeqBenchConfig::default()
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Figure 5: File Fragmentation During Sequential I/O Benchmark"
    );
    let _ = writeln!(s, "size\tffs\tffs_realloc");
    for size in paper_file_sizes() {
        let po = run_point(&orig.fs, &config, size).map_err(|e| e.to_string())?;
        let pr = run_point(&realloc.fs, &config, size).map_err(|e| e.to_string())?;
        m.add_device(&po.device);
        m.add_device(&pr.device);
        let _ = writeln!(
            s,
            "{}\t{:.4}\t{:.4}",
            fmt_bytes(size),
            po.layout_score(),
            pr.layout_score()
        );
    }
    Ok(s)
}

/// Figure 6: layout score of the hot files vs file size, alongside the
/// sequential-benchmark layout for comparison.
pub fn fig6(orig: &ReplayResult, realloc: &ReplayResult) -> Result<String, String> {
    let hot_o = orig.hot_files(HOT_DAYS);
    let hot_r = realloc.hot_files(HOT_DAYS);
    Ok(by_size_tsv(
        "Figure 6: Layout Score of Hot Files (see fig5 for the sequential curves)",
        &[
            ("ffs_hot", &orig.fs, Some(&hot_o)),
            ("realloc_hot", &realloc.fs, Some(&hot_r)),
        ],
    ))
}

/// Table 2: performance of recently modified files.
pub fn table2(
    sh: &Shared,
    orig: &ReplayResult,
    realloc: &ReplayResult,
    m: &mut Metrics,
) -> Result<String, String> {
    let mut s = String::new();
    let _ = writeln!(s, "# Table 2: Performance of Recently Modified Files");
    let _ = writeln!(s, "metric\tffs\tffs_realloc\trealloc_advantage");
    let hot_o = orig.hot_files(HOT_DAYS);
    let hot_r = realloc.hot_files(HOT_DAYS);
    let ro = run_hot_files(&orig.fs, &hot_o, &sh.disk);
    let rr = run_hot_files(&realloc.fs, &hot_r, &sh.disk);
    m.add_device(&ro.device);
    m.add_device(&rr.device);
    let _ = writeln!(
        s,
        "layout_score\t{:.3}\t{:.3}\t{:+.1}%",
        ro.layout_score(),
        rr.layout_score(),
        (rr.layout_score() / ro.layout_score() - 1.0) * 100.0
    );
    let _ = writeln!(
        s,
        "read_mb_s\t{:.3}\t{:.3}\t{:+.1}%",
        ro.read_mb_s,
        rr.read_mb_s,
        (rr.read_mb_s / ro.read_mb_s - 1.0) * 100.0
    );
    let _ = writeln!(
        s,
        "write_mb_s\t{:.3}\t{:.3}\t{:+.1}%",
        ro.write_mb_s,
        rr.write_mb_s,
        (rr.write_mb_s / ro.write_mb_s - 1.0) * 100.0
    );
    let _ = writeln!(s, "hot_files\t{}\t{}\t", ro.nfiles, rr.nfiles);
    let _ = writeln!(
        s,
        "hot_bytes_mb\t{:.1}\t{:.1}\t",
        ro.bytes as f64 / MB as f64,
        rr.bytes as f64 / MB as f64
    );
    let (o, r) = (&orig.fs, &realloc.fs);
    let _ = writeln!(s, "live_files\t{}\t{}\t", o.nfiles(), r.nfiles());
    let gb = |fs: &Filesystem| fs.bytes_written() as f64 / (1u64 << 30) as f64;
    let _ = writeln!(s, "gb_written\t{:.2}\t{:.2}\t", gb(o), gb(r));
    Ok(s)
}

/// Extension: free-space cluster analysis of the aged file systems (the
/// Smith94 observation motivating the paper).
pub fn freespace(orig: &ReplayResult, realloc: &ReplayResult) -> Result<String, String> {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Free-space clusters on the aged file systems (extension)"
    );
    let _ = writeln!(s, "policy\tfree_blocks\tclusterable_fraction\tlongest_run");
    for (name, fs) in [("ffs", &orig.fs), ("ffs_realloc", &realloc.fs)] {
        let st = free_space_stats(fs, 512);
        let _ = writeln!(
            s,
            "{name}\t{}\t{:.3}\t{}",
            st.free_blocks,
            st.clusterable_fraction(),
            st.longest_run
        );
        let head: Vec<String> = st.hist[..16].iter().map(|n| n.to_string()).collect();
        let _ = writeln!(s, "# {name} run-length hist 1..16: {}", head.join(" "));
    }
    Ok(s)
}

/// One usage profile's workload at the length the `profiles` exhibit
/// ages it.
pub fn profile_config(sh: &Shared, profile: &Profile) -> AgingConfig {
    let mut config = profile.config.clone();
    config.days = sh.days.min(120);
    config.ramp_days = (config.days / 3).max(1);
    config
}

/// One row of the `profiles` exhibit: `profile`'s workload, generated
/// once and fed a day at a time to an FFS and a realloc file system in
/// lockstep — the paper's method, the same day applied to both.
pub fn profile_row(sh: &Shared, profile: &Profile, m: &mut Metrics) -> Result<String, String> {
    let config = profile_config(sh, profile);
    let fresh = |policy| {
        Replay::new(&sh.params, policy, ReplayOptions::default()).map_err(|e| e.to_string())
    };
    let mut pair = [fresh(AllocPolicy::Orig)?, fresh(AllocPolicy::Realloc)?];
    for day in Days::new(&config, sh.params.ncg, sh.params.data_capacity_bytes()) {
        for r in &mut pair {
            r.day(&day).map_err(|e| e.to_string())?;
        }
    }
    m.ops = Some(pair.iter().map(Replay::ops).sum());
    let [ffs, realloc] = pair.map(|r| r.last().map_or(1.0, |d| d.layout_score));
    Ok(format!(
        "{}	{ffs:.4}	{realloc:.4}	{:+.4}\n",
        profile.name,
        realloc - ffs
    ))
}

/// Extension (Section 6 future work): aging under different usage
/// profiles — news spool, database, personal computing — compared with
/// the paper's home-directory workload, under both policies. `rows` are
/// the [`profile_row`]s in [`profiles::all`] order.
pub fn profiles(sh: &Shared, rows: &[&str]) -> Result<String, String> {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Aging by usage profile ({} days): final aggregate layout score",
        sh.days.min(120)
    );
    let _ = writeln!(s, "profile	ffs	ffs_realloc	gap");
    for row in rows {
        s.push_str(row);
    }
    Ok(s)
}

/// Replays a workload several variants share and adds the operations it
/// applied to `ops`.
fn replay_counted(
    w: &Workload,
    params: &FsParams,
    policy: AllocPolicy,
    options: ReplayOptions,
    ops: &mut u64,
) -> Result<ReplayResult, String> {
    let mut r = Replay::new(params, policy, options).map_err(|e| e.to_string())?;
    for day in &w.days {
        r.day(day).map_err(|e| e.to_string())?;
    }
    *ops += r.ops();
    Ok(r.finish())
}

/// Marker line separating the pareto exhibit's frontier table from its
/// per-day layout series; the driver writes everything before it to
/// `pareto_frontier.tsv` as well.
pub const PARETO_SPLIT: &str = "# Per-day layout series";

/// Extension: the layout-vs-moves Pareto frontier of online
/// defragmentation. Each aged run is one point: how good the final
/// layout is, how many block moves the defragmenter spent getting
/// there, what those moves cost on the disk model, and what the hot-file
/// read benchmark gains over the undefragmented FFS baseline. The first
/// entry must be the `ffs` baseline (the delta reference); a `realloc`
/// run rides along as the paper's allocation-time alternative.
pub fn pareto(
    sh: &Shared,
    runs: &[(String, &ReplayResult)],
    m: &mut Metrics,
) -> Result<String, String> {
    if runs.first().map(|(n, _)| n.as_str()) != Some("ffs") {
        return Err("pareto needs the ffs baseline as its first run".into());
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Pareto: final layout quality vs defragmentation effort ({} days)",
        sh.days
    );
    let _ = writeln!(
        s,
        "policy\tbudget\tlayout_score\tmoves\tcost_s\tread_mb_s\tread_delta_pct"
    );
    let mut ops = 0u64;
    let mut base_read = 0.0f64;
    for (name, r) in runs {
        let (policy, budget) = match name.split_once('/') {
            Some((p, b)) => (p, b),
            None => (name.as_str(), "-"),
        };
        let hot = r.hot_files(HOT_DAYS);
        let bench = run_hot_files(&r.fs, &hot, &sh.disk);
        m.add_device(&bench.device);
        ops += bench.device.reads + bench.device.writes;
        if name == "ffs" {
            base_read = bench.read_mb_s;
        }
        let moves: u64 = r.daily.iter().map(|d| d.defrag_moves).sum();
        let cost_us: u64 = r.daily.iter().map(|d| d.defrag_cost_us).sum();
        let _ = writeln!(
            s,
            "{policy}\t{budget}\t{:.4}\t{moves}\t{:.3}\t{:.3}\t{:+.1}%",
            r.daily.last().map_or(1.0, |d| d.layout_score),
            cost_us as f64 / 1e6,
            bench.read_mb_s,
            (bench.read_mb_s / base_read - 1.0) * 100.0
        );
    }
    m.ops = Some(ops);
    let _ = writeln!(s);
    let series: Vec<(&str, &ReplayResult)> = runs.iter().map(|(n, r)| (n.as_str(), *r)).collect();
    // layout_series_tsv prefixes the title with "# ", completing the
    // split marker the driver looks for.
    s.push_str(&layout_series_tsv(&PARETO_SPLIT[2..], &series));
    Ok(s)
}

/// Extension: fragment-packing efficiency on small-file workloads.
///
/// Ages the small-file profile family (news spool, maildir, build tree —
/// sizes skewed below one block) on a small `fpb = 8` volume across a
/// utilization sweep, under both allocation policies × both fragment
/// placement strategies (historical first fit vs the `cg_frsum`-guided
/// best fit). Each row reports how well sub-block allocations pack:
/// partial blocks, mean fill, free fragments stranded per live file,
/// block splits, and the final aggregate layout score.
pub fn smallfile(sh: &Shared, m: &mut Metrics) -> Result<String, String> {
    use ffs::frag_space_stats;

    /// Plateau utilizations swept; the peak rides three points above
    /// (capped below the generator's hard ceiling).
    const UTILS: [f64; 4] = [0.60, 0.75, 0.85, 0.95];
    /// Variant label × allocation policy × best-fit fragment placement.
    const VARIANTS: [(&str, AllocPolicy, bool); 4] = [
        ("ffs", AllocPolicy::Orig, false),
        ("ffs_bf", AllocPolicy::Orig, true),
        ("realloc", AllocPolicy::Realloc, false),
        ("realloc_bf", AllocPolicy::Realloc, true),
    ];

    let days = sh.days.min(120);
    // Fragment packing is a sub-block phenomenon, so the 16 MB test
    // geometry (same 8 KB / 1 KB block/fragment split as the paper's
    // volume) shows it at a fraction of the replay cost; the per-day
    // rates scale by the same capacity ratio AgingConfig::small_test
    // uses. Small-file servers are newfs'd with dense inodes (a news
    // spool's classic `-i 2048`): one inode per KB keeps thousands of
    // sub-block files from exhausting the inode table before the space
    // sweep even starts.
    let params = FsParams {
        bytes_per_inode: KB as u32,
        ..FsParams::small_test()
    };
    let mut ops = 0u64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Small-file fragment packing ({days} days, {} fs, {} frags/block)",
        fmt_bytes(params.size_bytes),
        params.frags_per_block()
    );
    let _ = writeln!(
        s,
        "profile\tutil\tvariant\tfiles\tpartial_blocks\tmean_fill\twasted_per_file\t\
         frag_allocs\tfrag_splits\tlayout_score"
    );
    for p in profiles::smallfile(sh.seed) {
        for util in UTILS {
            let mut config = p.config.clone();
            config.days = days;
            config.ramp_days = (days / 3).max(1);
            config.scale_rates(1.0 / 31.0);
            config.plateau_util = util;
            config.peak_util = (util + 0.03).min(0.97);
            let w = generate(&config, params.ncg, params.data_capacity_bytes());
            for (label, policy, bestfit) in VARIANTS {
                let options = ReplayOptions {
                    frag_bestfit: bestfit,
                    ..ReplayOptions::default()
                };
                let r = replay_counted(&w, &params, policy, options, &mut ops)?;
                let fr = frag_space_stats(&r.fs);
                let al = r.fs.alloc_stats();
                let files = r.live.len().max(1) as f64;
                let _ = writeln!(
                    s,
                    "{}\t{:.2}\t{label}\t{}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{:.4}",
                    p.name,
                    util,
                    r.live.len(),
                    fr.partial_blocks,
                    fr.mean_fill(),
                    fr.free_frags_in_partial as f64 / files,
                    al.frag_allocs,
                    al.frag_splits,
                    r.daily.last().map_or(1.0, |d| d.layout_score)
                );
            }
        }
    }
    m.ops = Some(ops);
    Ok(s)
}

/// Extension: the ablations exhibit, one generated workload aged under
/// the realloc policy at each cluster size (`maxcontig`).
pub fn sweep(sh: &Shared, m: &mut Metrics) -> Result<String, String> {
    let config = paper_config(sh.seed, sh.days.min(120));
    let w = generate(&config, sh.params.ncg, sh.params.data_capacity_bytes());
    let mut ops = 0u64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Ablation: final aggregate layout score vs maxcontig (realloc)"
    );
    let _ = writeln!(s, "maxcontig\tlayout_score");
    for maxcontig in [1u32, 2, 4, 7, 14, 28] {
        let mut params = sh.params.clone();
        params.maxcontig = maxcontig;
        let options = ReplayOptions::default();
        let r = replay_counted(&w, &params, AllocPolicy::Realloc, options, &mut ops)?;
        let score = r.daily.last().map_or(1.0, |d| d.layout_score);
        let _ = writeln!(s, "{maxcontig}\t{score:.4}");
    }
    m.ops = Some(ops);
    Ok(s)
}
