//! The 4.4BSD reference (`bsd/mod.rs`) at the paper's scale: the 502 MB
//! volume aged for the 300 days of `AgingConfig::paper(1996)`, under the
//! original policy and under realloc, at our default switches. The
//! reference runs on its own bytes from mkfs to the last day — it makes
//! the replay's one directory per group itself and is never
//! resynchronised with ours, as `bsd_oracle`'s op-by-op replay is — next
//! to the replay `harness all` runs. The directories and the day-0
//! layout scores must be equal, and at day 299 so must every live file
//! (blocks, indirects and tail), every group's `struct cg` bytes and the
//! allocation counts. Then both sides run `run_point`'s directory
//! pattern on the day-299 free space for Figure 4's point with the most
//! directories: its `mkdir`s, each placed by `ffs_dirpref`, and the
//! creates into them; every directory, file and group must be equal
//! again.
//!
//! Ignored in the debug tier, where the two take about 45 s on two
//! cores; CI `smoke` runs both in release:
//! `cargo test --release -p ffs --test bsd_scale -- --ignored`.

mod bsd;

use std::collections::HashMap;

use aging::{AgingConfig, Days, Op, Replay, ReplayOptions};
use bsd::{encode_fs, RefFile, RefFs, Sb, Switches};
use ffs::{AllocPolicy, Filesystem};
use ffs_types::FsParams;
use iobench::{paper_file_sizes, SeqBenchConfig};

/// Fragments per block: a block follows another `FPB` addresses on.
const FPB: u32 = 8;

/// The aggregate layout score over `files` (Section 3.3): the chunks
/// that follow their predecessor, over all chunks after the first, of
/// every file with two or more.
fn layout_score<'a>(files: impl Iterator<Item = &'a RefFile>) -> f64 {
    let (mut opt, mut scored) = (0u64, 0u64);
    for f in files {
        let chunks: Vec<u32> = f
            .blocks
            .iter()
            .copied()
            .chain(f.tail.map(|t| t.0))
            .collect();
        if chunks.len() >= 2 {
            opt += chunks.windows(2).filter(|w| w[1] == w[0] + FPB).count() as u64;
            scored += chunks.len() as u64 - 1;
        }
    }
    if scored == 0 {
        1.0
    } else {
        opt as f64 / scored as f64
    }
}

fn replay_matches_the_reference(policy: AllocPolicy) {
    let params = FsParams::paper_502mb();
    let config = AgingConfig::paper(1996);
    let mut ours = Replay::new(&params, policy, ReplayOptions::default()).unwrap();
    let (sb, ipg) = (Sb::new(&params), params.inodes_per_cg());
    let sw = Switches {
        realloc: policy == AllocPolicy::Realloc,
        frag_bestfit: false,
    };
    let mkfs = Filesystem::new(params.clone(), policy);
    let mut r = RefFs {
        sb: &sb,
        cgs: encode_fs(&sb, &mkfs),
        sw,
        stats: mkfs.alloc_stats().clone(),
    };
    // One directory per group, in the order ops name them.
    let made: Vec<RefFile> = (0..params.ncg).map(|g| r.mkdir(g).unwrap()).collect();
    let replayed = ours.fs().dirs().map(|d| RefFile::of_dir(d, ipg));
    assert!(replayed.eq(made.iter().cloned()), "{policy:?}: directories");
    let dirs: Vec<u32> = made.iter().map(|d| d.ino).collect();
    let mut live = HashMap::new();
    for day in Days::new(&config, params.ncg, params.data_capacity_bytes()) {
        for op in &day.ops {
            match *op {
                Op::Create { file, cg, size, .. } => {
                    if let Ok(f) = r.create(dirs[cg.0 as usize], size.into()) {
                        live.insert(file, f);
                    }
                }
                Op::Delete { file } => {
                    if let Some(f) = live.remove(&file) {
                        r.remove(&f);
                    }
                }
                Op::Rewrite { .. } => {}
            }
        }
        ours.day(&day).unwrap();
        if day.day == 0 {
            let got = ours.last().unwrap().layout_score;
            assert_eq!(got, layout_score(live.values()), "{policy:?}: day-0 score");
        }
    }
    let what = format!("{policy:?}, day {}", config.days - 1);
    let end = ours.finish();
    assert_eq!(end.live.len(), live.len(), "{what}: live files");
    for (file, ino) in end.live.iter() {
        let ours = RefFile::of(end.fs.file(ino).unwrap());
        assert!(live.get(&file) == Some(&ours), "{what}: {file:?} differs");
    }
    for (g, (a, b)) in encode_fs(&sb, &end.fs).iter().zip(&r.cgs).enumerate() {
        assert_eq!(a.diff(b), None, "{what}: group {g} (ours vs ref)");
    }
    assert_eq!(*end.fs.alloc_stats(), r.stats, "{what}: alloc stats");
    point_dirs_match_the_reference(&end.fs, r, &what);
}

/// `run_point`'s directory pattern on `aged`'s free space, ours and the
/// reference's `r` (at `aged`'s bytes): one `mkdir` per
/// `files_per_dir` files, then the files, in order, into them, at
/// Figure 4's smallest size, the point with the most directories.
fn point_dirs_match_the_reference(aged: &Filesystem, mut r: RefFs, what: &str) {
    let (config, size) = (SeqBenchConfig::default(), paper_file_sizes()[0]);
    let nfiles = (config.total_bytes / size) as u32;
    let ndirs = nfiles.div_ceil(config.files_per_dir);
    let mut fs = aged.copy_free_space();
    let ipg = fs.params().inodes_per_cg();
    let mut dirs = Vec::new();
    for i in 0..ndirs {
        let id = fs.mkdir().unwrap();
        let ours = RefFile::of_dir(fs.dir(id).unwrap(), ipg);
        let want = r.mkdir(r.dirpref()).unwrap();
        assert_eq!(ours.diff(&want), None, "{what}: point directory {i}");
        dirs.push((id, want.ino));
    }
    for i in 0..nfiles {
        let (id, dir_ino) = dirs[(i / config.files_per_dir) as usize];
        let ino = fs.create(id, size, 0).unwrap();
        let ours = RefFile::of(fs.file(ino).unwrap());
        let want = r.create(dir_ino, size).unwrap();
        assert_eq!(ours.diff(&want), None, "{what}: point file {i}");
    }
    for (g, (a, b)) in encode_fs(r.sb, &fs).iter().zip(&r.cgs).enumerate() {
        assert_eq!(a.diff(b), None, "{what}: point, group {g} (ours vs ref)");
    }
    assert_eq!(*fs.alloc_stats(), r.stats, "{what}: point, alloc stats");
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn orig_replay_matches_the_reference_at_paper_scale() {
    replay_matches_the_reference(AllocPolicy::Orig);
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn realloc_replay_matches_the_reference_at_paper_scale() {
    replay_matches_the_reference(AllocPolicy::Realloc);
}
