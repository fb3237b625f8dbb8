//! Nightly file-system snapshots and snapshot-diff workload derivation —
//! the paper's actual data-collection methodology (Section 3.1).
//!
//! The paper's workload was not a trace: it was reconstructed from
//! *nightly snapshots* of a file server. Each snapshot records, for every
//! file, "the file's inode number, inode change time, file type, file
//! size, and a list of the disk blocks allocated to the file". Diffing
//! successive snapshots yields the day's creates, deletes, and modifies —
//! with the paper's heuristics papering over the missing information:
//! creates are stamped with the inode change time, a modify is replayed
//! as a delete plus a re-create, and deletions get times spread across
//! the day.
//!
//! This module implements the same pipeline against the simulator:
//! [`take_snapshot`] captures a file system ([`Snapshot::next`] captures
//! it as the night after an earlier capture, sharing every entry that
//! did not change), [`Snapshot::aggregate_layout`]
//! recomputes the fragmentation metric from the recorded block lists
//! (exactly how the paper scored its snapshots), and [`diff_to_workload`]
//! turns a snapshot series back into a replayable [`Workload`]. The
//! derivation is deliberately lossy in the same way the paper's was:
//! files created and deleted between snapshots vanish, so a derived
//! workload under-fragments relative to the original — the gap Figure 1
//! quantifies.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ffs_types::record::{push_addrs, push_num, push_tail, records};
use ffs_types::{CgIdx, Daddr, FsParams, Ino};

use ffs::fs::LayoutAgg;
use ffs::{BlockList, Filesystem};

use crate::config::AgingConfig;
use crate::workload::{DayLog, DayOps, FileId, Lifetime, Op, Workload};

/// One file's record in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// The file's inode number at snapshot time.
    pub ino: Ino,
    /// Inode change time, in workload days (the snapshot's only clock).
    pub ctime_day: u32,
    /// File size in bytes.
    pub size: u64,
    /// Cylinder group the file's inode belongs to.
    pub cg: CgIdx,
    /// Physical addresses of the file's full blocks, in logical order.
    /// Shares the live file's spilled block list copy-on-write, so taking
    /// a snapshot never copies a long file's addresses.
    pub blocks: BlockList,
    /// Tail fragment run, if any.
    pub tail: Option<(Daddr, u32)>,
}

/// A point-in-time capture of every live file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Day the snapshot was taken (end of that day).
    pub day: u32,
    /// Entries sorted by inode number. A sorted vector rather than a
    /// map: snapshots are built once and then only scanned (scoring,
    /// serialization) or merge-joined against their neighbor
    /// ([`diff_to_workload`]), so the flat layout wins on every access
    /// path and point lookups fall back to [`Snapshot::get`]'s binary
    /// search. Each entry is shared: a snapshot taken with
    /// [`Snapshot::next`] holds the previous night's entry for every
    /// file that did not change, so a series costs what changed.
    pub entries: Vec<Arc<SnapshotEntry>>,
}

/// Captures a snapshot of the file system, as the paper's nightly job
/// did: [`Snapshot::next`] against an empty night, so every entry is
/// new.
pub fn take_snapshot(fs: &Filesystem, day: u32) -> Snapshot {
    Snapshot::default().next(fs, day)
}

impl Snapshot {
    /// Captures `fs` at the end of `day` as the night after `self`. A
    /// file whose inode change time, size, block list and tail all equal
    /// its entry in `self` shares that entry; every other file gets a
    /// new one. The result equals [`take_snapshot`]`(fs, day)` for any
    /// earlier snapshot of the same volume as `self` (an inode's group is
    /// not compared) — sharing changes what a series costs, never a
    /// value.
    ///
    /// The file table iterates in inode order, so `self` is walked
    /// beside it with one advancing cursor (a merge-join).
    pub fn next(&self, fs: &Filesystem, day: u32) -> Snapshot {
        let geom = fs.geometry();
        let mut prev = self.entries.iter().peekable();
        let mut entries: Vec<Arc<SnapshotEntry>> = Vec::with_capacity(fs.nfiles());
        let mut shared = 0u64;
        for f in fs.files() {
            while prev.next_if(|e| e.ino < f.ino).is_some() {}
            let unchanged = prev.next_if(|e| {
                e.ino == f.ino
                    && e.ctime_day == f.mtime_day
                    && e.size == f.size
                    && e.tail == f.tail
                    && e.blocks == f.blocks
            });
            entries.push(match unchanged {
                Some(e) => {
                    shared += 1;
                    Arc::clone(e)
                }
                None => Arc::new(SnapshotEntry {
                    ino: f.ino,
                    ctime_day: f.mtime_day,
                    size: f.size,
                    cg: geom.itog(f.ino).0,
                    blocks: f.blocks.clone(),
                    tail: f.tail,
                }),
            });
        }
        obs::counter!("aging.snapshot.entries_shared", shared);
        obs::counter!("aging.snapshot.entries_new", entries.len() as u64 - shared);
        Snapshot { day, entries }
    }

    /// Looks up the entry for `ino`, if that file was live.
    pub fn get(&self, ino: Ino) -> Option<&SnapshotEntry> {
        self.entries
            .binary_search_by_key(&ino, |e| e.ino)
            .ok()
            .map(|i| &*self.entries[i])
    }

    /// Recomputes the aggregate layout score from the snapshot's block
    /// lists — the paper's offline scoring of its nightly snapshots.
    pub fn aggregate_layout(&self, params: &FsParams) -> LayoutAgg {
        let fpb = params.frags_per_block();
        let mut agg = LayoutAgg::default();
        for e in &self.entries {
            let nchunks = e.blocks.len() + usize::from(e.tail.is_some());
            if nchunks < 2 {
                continue;
            }
            let mut prev: Option<Daddr> = None;
            let chunks = e.blocks.iter().copied().chain(e.tail.map(|(d, _)| d));
            for addr in chunks {
                if let Some(p) = prev {
                    if addr.0 == p.0 + fpb {
                        agg.opt += 1;
                    }
                }
                prev = Some(addr);
            }
            agg.scored += (nchunks - 1) as u64;
        }
        agg
    }

    /// Total bytes stored at snapshot time.
    pub fn live_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Serializes the snapshot to the line-based text format used by the
    /// `harness` tooling (one file per line).
    pub fn to_text(&self) -> String {
        let mut s = String::from("# snapshot day ");
        push_num(&mut s, self.day.into());
        s.push('\n');
        for e in &self.entries {
            for n in [e.ino.0.into(), e.ctime_day.into(), e.size, e.cg.0.into()] {
                push_num(&mut s, n);
                s.push(' ');
            }
            push_addrs(&mut s, &e.blocks);
            s.push(' ');
            push_tail(&mut s, e.tail);
            s.push('\n');
        }
        s
    }

    /// Parses the text format produced by [`Snapshot::to_text`]. Files
    /// must come in strictly ascending inode order, as `to_text` writes
    /// them: a repeated or out-of-order inode is an error naming it and
    /// its line.
    pub fn from_text(text: &str) -> Result<Snapshot, String> {
        let mut lines = records(text);
        let mut header = lines.next().ok_or("empty snapshot")?;
        header.tag("# snapshot day")?;
        let day = header.num("day")?;
        header.end()?;
        let mut entries: Vec<Arc<SnapshotEntry>> = Vec::new();
        for mut f in lines {
            let ino = Ino(f.num("ino")?);
            match entries.last().map(|e| e.ino) {
                Some(prev) if ino == prev => {
                    return Err(f.err(format_args!("repeated inode {}", ino.0)));
                }
                Some(prev) if ino < prev => {
                    let what = format_args!("inode {} out of order after {}", ino.0, prev.0);
                    return Err(f.err(what));
                }
                _ => {}
            }
            entries.push(Arc::new(SnapshotEntry {
                ino,
                ctime_day: f.num("ctime")?,
                // Below 4 GiB, as every file size is: the differ turns it
                // into an `Op::Create` size without a failure path.
                size: f.num::<u32>("size")?.into(),
                cg: CgIdx(f.num("cg")?),
                blocks: f.addrs("block")?,
                tail: f.tail("tail")?,
            }));
            f.end()?;
        }
        Ok(Snapshot { day, entries })
    }
}

/// What the differ remembers of a previous-night file: the three fields
/// the paper's heuristics compare, without the block lists, and the
/// workload id the file was last created under.
struct PrevEntry {
    ino: Ino,
    ctime_day: u32,
    size: u64,
    id: FileId,
}

/// Derives one day of replayable workload from each nightly snapshot as
/// it is taken, using the paper's heuristics:
///
/// * a file present in snapshot *n+1* but not *n* was **created**, at its
///   inode change time;
/// * a file present in *n* but not *n+1* was **deleted**, at a random
///   time within the day;
/// * a file present in both whose change time or size moved was
///   **modified**, replayed as a delete followed by a re-create;
/// * the first snapshot seeds the initial population (every file in it
///   is new against the empty night before).
///
/// Files that lived and died between snapshots are invisible — the
/// information loss the paper supplements with NFS traces, and the reason
/// a derived workload ages a file system more gently than the original.
///
/// Each snapshot is diffed against the previous night's only, so that is
/// all the differ holds — and the workload ids ride in it: every file
/// the previous night had carries the id its ops use, so the merge-join
/// that pairs the two nights also supplies the id, with no map from
/// inode to id. [`diff_to_workload`] is this pushed over a slice.
pub struct SnapshotDiffer {
    rng: StdRng,
    ncg: u32,
    next_id: u64,
    /// The previous night's files in ascending inode order (empty before
    /// the first night).
    prev: Vec<PrevEntry>,
    /// Tonight's ops as they are found; its buffers are reused nightly.
    ops: DayOps,
}

impl SnapshotDiffer {
    /// A differ for a volume of `ncg` cylinder groups; `config` seeds the
    /// within-day timestamps.
    pub fn new(config: &AgingConfig, ncg: u32) -> SnapshotDiffer {
        SnapshotDiffer {
            rng: StdRng::seed_from_u64(config.seed ^ 0x5AAD_5047),
            ncg,
            next_id: 0,
            prev: Vec::new(),
            ops: DayOps::default(),
        }
    }

    /// The operations that turn the previous snapshot's population into
    /// `snap`'s, as the workload day `snap.day`.
    ///
    /// `snap.entries` must be in strictly ascending inode order, as
    /// [`take_snapshot`] and [`Snapshot::from_text`] guarantee: the
    /// merge-join pairs a file with its previous night by position.
    pub fn push(&mut self, snap: &Snapshot) -> DayLog {
        debug_assert!(
            snap.entries.windows(2).all(|w| w[0].ino < w[1].ino),
            "snapshot entries must be in strictly ascending inode order"
        );
        let SnapshotDiffer {
            rng,
            ncg,
            next_id,
            prev,
            ops,
        } = self;
        let mut fresh = || {
            let id = FileId(
                u32::try_from(*next_id)
                    .expect("a derived workload issues fewer than 2^32 file ids"),
            );
            *next_id += 1;
            id
        };
        let create = |id: FileId, e: &SnapshotEntry| Op::Create {
            file: id,
            cg: CgIdx(e.cg.0 % *ncg),
            size: u32::try_from(e.size.max(1)).expect(
                "snapshot sizes are below 4 GiB: Filesystem::create and Snapshot::from_text \
                 reject larger",
            ),
            kind: Lifetime::Long,
        };
        let mut tonight: Vec<PrevEntry> = Vec::with_capacity(snap.entries.len());
        // Both nights are ino-sorted, so each pass walks the other with
        // an advancing cursor (a merge-join). The two-pass shape is
        // load-bearing: op emission — and with it the RNG draw sequence —
        // is creates and modifies in tonight's order, then deletes in the
        // previous night's.
        let mut j = 0usize;
        for e in &snap.entries {
            while prev.get(j).is_some_and(|o| o.ino < e.ino) {
                j += 1;
            }
            let id = match prev.get(j).filter(|o| o.ino == e.ino) {
                None => {
                    // Created since the last snapshot.
                    let id = fresh();
                    ops.push(rng.gen(), create(id, e));
                    id
                }
                Some(old) if old.ctime_day != e.ctime_day || old.size != e.size => {
                    // Modified: deleted and rewritten.
                    let t: f64 = rng.gen();
                    ops.push(t, Op::Delete { file: old.id });
                    let id = fresh();
                    ops.push(t + 1e-6, create(id, e));
                    id
                }
                Some(old) => old.id,
            };
            tonight.push(PrevEntry {
                ino: e.ino,
                ctime_day: e.ctime_day,
                size: e.size,
                id,
            });
        }
        let mut k = 0usize;
        for old in prev.iter() {
            while tonight.get(k).is_some_and(|e| e.ino < old.ino) {
                k += 1;
            }
            if tonight.get(k).is_none_or(|e| e.ino != old.ino) {
                // Deleted; the snapshot gives no hint when.
                ops.push(rng.gen(), Op::Delete { file: old.id });
            }
        }
        *prev = tonight;
        DayLog {
            day: snap.day,
            ops: ops.take_sorted(),
        }
    }
}

/// Derives a replayable workload from a series of nightly snapshots:
/// [`SnapshotDiffer`] pushed over the slice.
pub fn diff_to_workload(
    snapshots: &[Snapshot],
    config: &AgingConfig,
    ncg: u32,
    capacity_bytes: u64,
) -> Workload {
    let mut differ = SnapshotDiffer::new(config, ncg);
    Workload {
        config: config.clone(),
        ncg,
        capacity_bytes,
        days: snapshots.iter().map(|s| differ.push(s)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, ReplayOptions};
    use crate::workload::generate;
    use ffs::AllocPolicy;
    use ffs_types::KB;

    fn aged() -> (FsParams, crate::replay::ReplayResult, Vec<Snapshot>) {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(8, 77);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        // Replay day by day, snapshotting nightly like the paper's
        // collection job.
        let mut fs = Filesystem::new(params.clone(), AllocPolicy::Orig);
        let dirs = fs.mkdir_per_cg().unwrap();
        let mut live = std::collections::HashMap::new();
        let mut snaps = Vec::new();
        for day in &w.days {
            for op in &day.ops {
                match *op {
                    Op::Create { file, cg, size, .. } => {
                        if let Ok(ino) = fs.create(dirs[cg.0 as usize], size, day.day) {
                            live.insert(file, ino);
                        }
                    }
                    Op::Delete { file } => {
                        if let Some(ino) = live.remove(&file) {
                            fs.remove(ino).unwrap();
                        }
                    }
                    Op::Rewrite { file } => {
                        if let Some(&ino) = live.get(&file) {
                            fs.rewrite(ino, day.day).unwrap();
                        }
                    }
                }
            }
            snaps.push(take_snapshot(&fs, day.day));
        }
        let full = replay(&w, &params, AllocPolicy::Orig, ReplayOptions::default()).unwrap();
        (params, full, snaps)
    }

    #[test]
    fn snapshot_layout_matches_live_fs() {
        let (params, full, snaps) = aged();
        let last = snaps.last().unwrap();
        assert_eq!(
            last.aggregate_layout(&params),
            full.fs.aggregate_layout(),
            "snapshot scoring must agree with the live aggregate"
        );
        assert_eq!(last.entries.len(), full.fs.nfiles());
    }

    #[test]
    fn snapshot_entry_fits_sixty_four_bytes() {
        // `ffsbench nightly-jobs` holds 120 nights of snapshots, one new
        // entry per changed file per night, in its `peak_rss_mb`.
        assert!(std::mem::size_of::<SnapshotEntry>() <= 64);
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let (_, _, snaps) = aged();
        for snap in &snaps {
            let text = snap.to_text();
            let parsed = Snapshot::from_text(&text).expect("parse");
            assert_eq!(&parsed, snap);
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Snapshot::from_text("").is_err());
        assert!(Snapshot::from_text("nonsense").is_err());
        assert!(Snapshot::from_text("# snapshot day 3\n1 2 not-a-size 0 - -").is_err());
        // A repeated inode would re-id the file in the differ; one out of
        // order would pair it with the wrong previous-night file.
        let e = Snapshot::from_text("# snapshot day 3\n5 2 9 0 - -\n5 2 9 0 - -\n").unwrap_err();
        assert_eq!(e, "line 3: repeated inode 5");
        let e = Snapshot::from_text("# snapshot day 3\n5 2 9 0 - -\n\n4 2 9 0 - -").unwrap_err();
        assert_eq!(e, "line 4: inode 4 out of order after 5");
        // A size past 4 GiB would have no `Op::Create` to become: the
        // record is rejected by name, so the differ never meets it.
        let top = Snapshot::from_text("# snapshot day 3\n5 2 4294967295 0 - -\n").unwrap();
        assert_eq!(top.entries[0].size, u64::from(u32::MAX));
        let e = Snapshot::from_text("# snapshot day 3\n5 2 4294967296 0 - -\n").unwrap_err();
        assert_eq!(
            e,
            "line 2: bad size: number too large to fit in target type"
        );
    }

    #[test]
    fn derived_workload_is_replayable_and_gentler() {
        let (params, full, snaps) = aged();
        let config = AgingConfig::small_test(8, 77);
        let derived = diff_to_workload(&snaps, &config, params.ncg, params.data_capacity_bytes());
        let re = replay(
            &derived,
            &params,
            AllocPolicy::Orig,
            ReplayOptions {
                verify_every_days: 4,
                ..ReplayOptions::default()
            },
        )
        .expect("derived workload replays");
        // Same population at the end...
        assert_eq!(re.fs.nfiles(), full.fs.nfiles());
        // ...with the same total bytes stored...
        assert_eq!(
            re.fs.files().map(|f| f.size).sum::<u64>(),
            full.fs.files().map(|f| f.size).sum::<u64>()
        );
        // ...but the derived run misses the short-lived churn, so it
        // fragments no more than the original (the Figure 1 gap).
        let s_full = full.daily.last().unwrap().layout_score;
        let s_derived = re.daily.last().unwrap().layout_score;
        assert!(
            s_derived >= s_full - 0.02,
            "derived {s_derived:.3} vs original {s_full:.3}"
        );
    }

    #[test]
    fn diff_detects_modifies() {
        // A hand-built pair of snapshots: one file grows, one dies, one
        // appears.
        let params = FsParams::small_test();
        let mut fs = Filesystem::new(params.clone(), AllocPolicy::Orig);
        let d = fs.mkdir_in(CgIdx(0)).unwrap();
        let stays = fs.create(d, 8 * KB, 0).unwrap();
        let grows = fs.create(d, 8 * KB, 0).unwrap();
        let dies = fs.create(d, 8 * KB, 0).unwrap();
        let s0 = take_snapshot(&fs, 0);
        fs.remove(dies).unwrap();
        let born = fs.create(d, 4 * KB, 1).unwrap();
        let mut s1 = take_snapshot(&fs, 1);
        // No op grows a live file, so the grown file is written into the
        // night's snapshot directly.
        let grown = s1.entries.iter_mut().find(|e| e.ino == grows).unwrap();
        let grown = Arc::make_mut(grown);
        grown.size += 8 * KB;
        grown.ctime_day = 1;
        let config = AgingConfig::small_test(2, 1);
        let w = diff_to_workload(&[s0, s1], &config, params.ncg, params.data_capacity_bytes());
        // Day 1: one modify (delete+create), one delete, one create.
        let day1 = &w.days[1];
        let creates = day1
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Create { .. }))
            .count();
        let deletes = day1
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Delete { .. }))
            .count();
        assert_eq!(creates, 2, "modify re-create + new file");
        assert_eq!(deletes, 2, "modify delete + real delete");
        let _ = (stays, born);
    }
}
