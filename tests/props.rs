//! Property-based integration tests: random operation sequences against
//! the file system must preserve every invariant the consistency checker
//! knows about, under both allocation policies.

use ffs_aging::prelude::*;
use ffs_types::{CgIdx, Ino};
use proptest::prelude::*;

/// A scripted operation for the property tests.
#[derive(Clone, Debug)]
enum PropOp {
    Create { dir: u8, size: u64 },
    Remove { pick: u16 },
    Rewrite { pick: u16 },
    Modify { pick: u16, size: u64 },
}

fn op_strategy() -> impl Strategy<Value = PropOp> {
    prop_oneof![
        4 => (0u8..4, 1u64..400 * KB)
            .prop_map(|(dir, size)| PropOp::Create { dir, size }),
        2 => any::<u16>().prop_map(|pick| PropOp::Remove { pick }),
        1 => any::<u16>().prop_map(|pick| PropOp::Rewrite { pick }),
        4 => (any::<u16>(), 1u64..400 * KB)
            .prop_map(|(pick, size)| PropOp::Modify { pick, size }),
    ]
}

fn apply(fs: &mut Filesystem, live: &mut Vec<Ino>, op: &PropOp, dirs: &[ffs_types::DirId]) {
    match *op {
        PropOp::Create { dir, size } => {
            if let Ok(ino) = fs.create(dirs[dir as usize % dirs.len()], size, 0) {
                live.push(ino);
            }
        }
        PropOp::Remove { pick } => {
            if !live.is_empty() {
                let ino = live.swap_remove(pick as usize % live.len());
                fs.remove(ino).expect("live file removes cleanly");
            }
        }
        PropOp::Rewrite { pick } => {
            if !live.is_empty() {
                let ino = live[pick as usize % live.len()];
                fs.rewrite(ino, 1).expect("live file rewrites cleanly");
            }
        }
        PropOp::Modify { pick, size } => {
            // A file that changed size is removed, then created afresh in
            // its directory, as `diff_to_workload` replays it.
            if !live.is_empty() {
                let ino = live.swap_remove(pick as usize % live.len());
                let dir = fs.file(ino).expect("live").dir;
                fs.remove(ino).expect("live file removes cleanly");
                if let Ok(ino) = fs.create(dir, size, 2) {
                    live.push(ino);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// After any operation sequence, the file system is internally
    /// consistent: maps match files, counters match maps, and the
    /// incremental layout aggregate matches a recomputation.
    #[test]
    fn any_op_sequence_leaves_fs_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        realloc in any::<bool>(),
    ) {
        let policy = if realloc {
            AllocPolicy::Realloc
        } else {
            AllocPolicy::Orig
        };
        let mut fs = Filesystem::new(FsParams::small_test(), policy);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply(&mut fs, &mut live, op, &dirs);
        }
        assert_consistent(&fs);
        prop_assert_eq!(fs.nfiles(), live.len());
    }

    /// Deleting everything returns the file system to its pristine free
    /// space, no matter the interleaving.
    #[test]
    fn space_is_conserved(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut fs =
            Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let dirs = fs.mkdir_per_cg().unwrap();
        let free0 = fs.free_frags();
        let blocks0 = fs.free_blocks();
        let mut live = Vec::new();
        for op in &ops {
            apply(&mut fs, &mut live, op, &dirs);
        }
        for ino in live {
            fs.remove(ino).unwrap();
        }
        prop_assert_eq!(fs.free_frags(), free0);
        prop_assert_eq!(fs.free_blocks(), blocks0);
        assert_consistent(&fs);
    }

    /// The two policies always agree on *what* is stored (sizes, counts,
    /// utilization) — they may only disagree on *where*.
    #[test]
    fn policies_agree_on_logical_state(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut results = Vec::new();
        for policy in [AllocPolicy::Orig, AllocPolicy::Realloc] {
            let mut fs = Filesystem::new(FsParams::small_test(), policy);
            let dirs = fs.mkdir_per_cg().unwrap();
            let mut live = Vec::new();
            for op in &ops {
                apply(&mut fs, &mut live, op, &dirs);
            }
            let mut sizes: Vec<u64> = fs.files().map(|f| f.size).collect();
            sizes.sort_unstable();
            results.push((fs.nfiles(), fs.bytes_written(), sizes));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// Aggregate layout scores always lie in the unit interval and the
    /// size-binned scores partition the live files.
    #[test]
    fn layout_analysis_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut fs =
            Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply(&mut fs, &mut live, op, &dirs);
        }
        let agg = fs.aggregate_layout().score();
        prop_assert!((0.0..=1.0).contains(&agg));
        let bins = layout_by_size(&fs, &size_bins_paper(), |_| true);
        let binned: u64 = bins.iter().map(|b| b.files).sum();
        prop_assert_eq!(binned as usize, fs.nfiles());
        for b in &bins {
            if let Some(s) = b.score() {
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    /// Free-space statistics are consistent with the group maps after any
    /// operation sequence.
    #[test]
    fn free_space_stats_match_counters(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut fs =
            Filesystem::new(FsParams::small_test(), AllocPolicy::Realloc);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut live = Vec::new();
        for op in &ops {
            apply(&mut fs, &mut live, op, &dirs);
        }
        let st = free_space_stats(&fs, 4096);
        prop_assert_eq!(st.free_blocks, fs.free_blocks());
        let from_hist: u64 = st
            .hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n as u64)
            .sum();
        prop_assert_eq!(from_hist, st.free_blocks);
        // Per-group block counters agree with a direct map walk.
        for g in 0..fs.ncg() {
            let cg = fs.cg(CgIdx(g));
            let walked = (0..cg.nblocks())
                .filter(|&b| cg.is_block_free(b))
                .count() as u32;
            prop_assert_eq!(walked, cg.free_blocks());
        }
    }
}

// ----------------------------------------------------------------------
// Every text parser is total: hostile input is `Err`, never a panic.
// ----------------------------------------------------------------------

/// One text format: a valid document, inputs that once crashed its
/// reader, and the reader composed with everything downstream that
/// trusts a parsed value (re-serialization, rendering).
struct Format {
    name: &'static str,
    valid: String,
    hostile: Vec<String>,
    reparse: fn(&str) -> Result<String, String>,
}

/// The content address of the aged run [`formats`] serializes.
fn props_aged_key() -> exp::AgedKey {
    exp::aged_key(
        &FsParams::small_test(),
        &AgingConfig::small_test(4, 42),
        AllocPolicy::Realloc,
        &ReplayOptions::default(),
    )
}

fn formats() -> &'static [Format] {
    static FORMATS: std::sync::OnceLock<Vec<Format>> = std::sync::OnceLock::new();
    FORMATS.get_or_init(|| {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(4, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let options = ReplayOptions {
            snapshot_every_days: 4,
            checkpoint_every_days: 4,
            ..ReplayOptions::default()
        };
        let aged = replay(&w, &params, AllocPolicy::Realloc, options).expect("replay");
        let metrics = obs::snapshot::Snapshot {
            counters: vec![
                ("ffs.block_allocs".into(), 42),
                ("aging.live \"files\"".into(), 7),
            ],
            hists: vec![obs::snapshot::HistSnapshot {
                name: "disk.seek_cyls".into(),
                bounds: vec![0, 1, 2],
                buckets: vec![5, 0, 2, 3],
                count: 10,
                sum: 99,
                max: 4000,
            }],
            spans: vec![
                obs::snapshot::SpanSnapshot {
                    path: "job:age:ffs".into(),
                    depth: 0,
                    calls: 1,
                    wall_ns: 1_500_000,
                },
                obs::snapshot::SpanSnapshot {
                    path: "job:age:ffs/age_day".into(),
                    depth: 1,
                    calls: 4,
                    wall_ns: 1_200_000,
                },
            ],
        };
        // The two sealed artifacts and one journal line, rendered from
        // the same aged run.
        let key = props_aged_key();
        let shard = fleet::FleetSpec::new(4, 21, 4).shard(2);
        let samples: Vec<fleet::ShardSample> = aged
            .daily
            .iter()
            .map(|d| fleet::ShardSample {
                day: d.day,
                layout: d.layout_score,
                freefrag: 1.0 - d.layout_score,
                util: d.utilization,
            })
            .collect();
        let mut run_metrics = exp::Metrics {
            cache: Some(exp::CacheStatus::Corrupt),
            key: Some(key.hex.clone()),
            ops: Some(1234),
            ..exp::Metrics::default()
        };
        run_metrics.note("quarantined", "cache/quarantine/\"odd\"\tname.aged");
        run_metrics.add_device(&ffs_aging::disk::DeviceStats::default());
        let run_record = exp::RunRecord {
            job: "age:realloc".into(),
            deps: vec!["table1".into()],
            status: "failed".into(),
            error: Some("line 1\nline 2 \\ \"quoted\"".into()),
            wall_s: 0.074642,
            attempts: 0,
            backoff_units: 0,
            metrics: run_metrics,
        };
        // The journal's readers: every accessor the report and the
        // resume scan use, then the whole line.
        let reparse_record: fn(&str) -> Result<String, String> = |t| {
            for field in ["job", "status", "cache", "quarantined", "error"] {
                let _ = exp::RunRecord::field_str(t, field);
            }
            for field in ["wall_s", "ops"] {
                let _ = exp::RunRecord::field_num(t, field);
            }
            let _ = exp::summarize(t);
            exp::RunRecord::field_str(t, "job")
                .map(|_| t.to_string())
                .ok_or_else(|| "not a run record".to_string())
        };
        let ck_text = aged.checkpoints[0].to_text();
        let snap_text = aged.snapshots[0].to_text();
        vec![
            Format {
                name: "exp .aged",
                valid: exp::render_aged(&key, &aged).expect("render"),
                hostile: vec![],
                reparse: |t| {
                    let key = props_aged_key();
                    let params = FsParams::small_test();
                    let r = exp::parse_aged(t, &key, &params, AllocPolicy::Realloc)
                        .map_err(|e| e.to_string())?;
                    exp::render_aged(&key, &r)
                },
            },
            Format {
                name: "fleet .shard",
                valid: fleet::shard::render_artifact(&shard, &samples, 3),
                hostile: vec![],
                reparse: |t| {
                    let shard = fleet::FleetSpec::new(4, 21, 4).shard(2);
                    fleet::shard::parse_artifact(&shard, t).map(|(samples, skipped)| {
                        fleet::shard::render_artifact(&shard, &samples, skipped)
                    })
                },
            },
            Format {
                name: "exp::RunRecord",
                valid: run_record.to_json(),
                hostile: vec![],
                reparse: reparse_record,
            },
            Format {
                // A line as PR 21 and earlier wrote it: retry bookkeeping
                // and a 13-key `device` object, all ignored today.
                name: "exp::RunRecord (PR 21 journal)",
                valid: "{\"job\":\"fig4\",\"deps\":[\"age:ffs\",\"age:realloc\"],\
                    \"status\":\"ok\",\"wall_s\":1.250000,\"attempts\":3,\
                    \"backoff_units\":11,\"ops\":1234,\"device\":{\"reads\":10,\
                    \"writes\":4,\"sectors_read\":160,\"sectors_written\":64,\
                    \"buffer_hits\":3,\"seeks\":5,\"seek_time_us\":1200.5,\
                    \"rot_wait_us\":800,\"stream_time_us\":950.25,\"transient_errors\":2,\
                    \"retries\":2,\"remaps\":0,\"retry_time_us\":22222.2}}"
                    .into(),
                hostile: vec![],
                reparse: reparse_record,
            },
            Format {
                name: "aging::Checkpoint",
                valid: ck_text.clone(),
                // A well-formed checkpoint that records one inode, or one
                // directory, twice: restore must refuse it, not keep the
                // later record and drop the earlier one's claims.
                hostile: ["file ", "dir "]
                    .map(|tag| {
                        let line = ck_text.lines().find(|l| l.starts_with(tag)).expect(tag);
                        format!("{ck_text}{line}\n")
                    })
                    .into(),
                reparse: |t| {
                    let c = Checkpoint::from_text(t)?;
                    c.restore(FsParams::small_test(), AllocPolicy::Realloc)
                        .map_err(|e| e.to_string())?;
                    Ok(c.to_text())
                },
            },
            Format {
                name: "aging::Snapshot",
                valid: snap_text.clone(),
                // The same file listed twice: it would re-id the file in
                // the snapshot differ.
                hostile: {
                    let line = snap_text.lines().nth(1).expect("a file line");
                    vec![snap_text.replacen(line, &format!("{line}\n{line}"), 1)]
                },
                reparse: |t| aging::Snapshot::from_text(t).map(|s| s.to_text()),
            },
            Format {
                name: "aging::DayStats",
                valid: aged.daily[3].to_record(),
                hostile: vec![],
                reparse: |t| aging::DayStats::from_record(t).map(|d| d.to_record()),
            },
            Format {
                name: "obs::Snapshot",
                valid: metrics.to_json(),
                hostile: vec![
                    "[".repeat(2_000_000),
                    "{\"schema\":\"obs-metrics-v1\",\"spans\":[{\"path\":\"a\",\
                     \"depth\":40000000000,\"calls\":1,\"wall_ns\":1}]}"
                        .into(),
                ],
                reparse: |t| {
                    obs::snapshot::Snapshot::from_json(t).map(|s| {
                        let _ = s.render();
                        s.to_json()
                    })
                },
            },
        ]
    })
}

#[test]
fn every_text_format_round_trips_and_rejects_its_known_crashers() {
    for f in formats() {
        assert_eq!(
            (f.reparse)(&f.valid).as_ref(),
            Ok(&f.valid),
            "{} does not round-trip",
            f.name
        );
        for h in &f.hostile {
            assert!((f.reparse)(h).is_err(), "{} accepted a crasher", f.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// A valid document truncated at a random byte, with one byte
    /// replaced, or with a printable line spliced in parses to `Ok` or
    /// `Err` — the call returning at all is the property.
    #[test]
    fn damaged_documents_never_panic_a_parser(
        which in 0usize..8,
        damage in 0u8..3,
        at in any::<u32>(),
        byte in any::<u8>(),
        line in proptest::collection::vec(0x20u8..0x7f, 0..40),
    ) {
        let f = &formats()[which];
        let mut doc = f.valid.clone().into_bytes();
        let at = at as usize % doc.len();
        match damage {
            0 => doc.truncate(at),
            1 => doc[at] = byte,
            _ => {
                // Splice after the line `at` falls in (or at the end).
                let cut = doc[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(doc.len(), |i| at + i + 1);
                let mut spliced = line;
                spliced.push(b'\n');
                doc.splice(cut..cut, spliced);
            }
        }
        let _ = (f.reparse)(&String::from_utf8_lossy(&doc));
    }

    /// The two sealed artifacts authenticate every byte: a one-byte
    /// substitution anywhere is `Err`, never `Ok` with other content.
    #[test]
    fn sealed_artifacts_reject_any_one_byte_substitution(
        which in 0usize..2,
        at in any::<u32>(),
        byte in 0x20u8..0x7f,
    ) {
        let f = &formats()[which];
        prop_assert!(f.name.starts_with("exp .aged") || f.name.starts_with("fleet .shard"));
        let mut doc = f.valid.clone().into_bytes();
        let at = at as usize % doc.len();
        if doc[at] != byte {
            doc[at] = byte;
            let doc = String::from_utf8(doc).expect("ascii in, ascii out");
            prop_assert!((f.reparse)(&doc).is_err(), "{} accepted byte {at} = {byte:#x}", f.name);
        }
    }
}
