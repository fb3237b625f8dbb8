//! Budgeted online defragmentation.
//!
//! The paper's `realloc` policy only relocates dirty buffers at write
//! time, so layout quality is capped by how much data the workload
//! happens to rewrite. This crate adds the next rung: *online
//! defragmenters* that spend a bounded number of block moves per
//! simulated day (an idle-time pass in the aging loop) and are charted
//! as a layout-score-vs-move-cost Pareto frontier against
//! `orig`/`realloc`.
//!
//! The design splits policy from mechanism:
//!
//! * a planner **plans**: given a read-only view of the file system and
//!   a move budget, it returns a list of [`BlockMove`]s. Three policies
//!   ship — [`DefragPolicy::Greedy`] (worst-file-first),
//!   [`DefragPolicy::Threshold`] (cost-oblivious rebuild-on-threshold,
//!   after *Cost-Oblivious Storage Reallocation*, arXiv 1404.2019), and
//!   [`DefragPolicy::Scrub`] (an scfs-style background sweep that
//!   round-robins cylinder groups);
//! * a [`DefragRunner`] **executes**: each move goes through the safe
//!   [`ffs`] primitive `Filesystem::relocate_block` (fsck-clean by
//!   construction) and is charged honestly to a simulated
//!   [`disk::Device`] — one block read at the old address, one block
//!   write at the new one, seek and rotation included — so the frontier
//!   reports real mechanical cost, not just move counts.
//!
//! Everything is deterministic: planners iterate files in canonical
//! inode order, tie-break by inode number, and coordinate targets
//! through an explicit claimed-set, so the same image and spec always
//! produce the same plan.

use std::collections::BTreeSet;

use disk::Device;
use ffs::{realloc_windows, FileMeta, Filesystem};
use ffs_types::{Daddr, DiskParams, FsParams, Ino};

/// One planned relocation: move data block `index` of file `ino` from
/// `from` to the free block at `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMove {
    /// File whose block moves.
    pub ino: Ino,
    /// Index into the file's block list.
    pub index: u32,
    /// The block's current address (for cost accounting and sanity
    /// checks; the executor verifies it against the live file).
    pub from: Daddr,
    /// The free block the data moves to.
    pub to: Daddr,
}

/// The shipped planner policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefragPolicy {
    /// Worst-file-first: files with the lowest per-file layout score are
    /// re-laid contiguously first.
    Greedy,
    /// Cost-oblivious rebuild-on-threshold (arXiv 1404.2019): a file is
    /// left alone until its extent count exceeds a multiplicative
    /// threshold of the unavoidable minimum, then rebuilt whole.
    Threshold,
    /// Background scrub: sweeps cylinder groups round-robin, one group
    /// per pass (continuing into later groups while budget remains).
    Scrub,
}

impl DefragPolicy {
    /// Short label used in exhibits, cache keys, and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            DefragPolicy::Greedy => "greedy",
            DefragPolicy::Threshold => "thresh",
            DefragPolicy::Scrub => "scrub",
        }
    }

    /// Every shipped policy, in exhibit order.
    pub fn all() -> [DefragPolicy; 3] {
        [
            DefragPolicy::Greedy,
            DefragPolicy::Threshold,
            DefragPolicy::Scrub,
        ]
    }

    /// Parses a label produced by [`DefragPolicy::label`].
    pub fn parse(s: &str) -> Option<DefragPolicy> {
        DefragPolicy::all().into_iter().find(|p| p.label() == s)
    }
}

/// A complete defragmentation configuration: which policy plans, how
/// many moves each daily pass may spend, and the disk the moves are
/// costed against.
#[derive(Clone, Debug, PartialEq)]
pub struct DefragSpec {
    /// Planner policy.
    pub policy: DefragPolicy,
    /// Per-pass (per-day) move budget. Zero makes every pass a no-op,
    /// byte-identical to running without defragmentation.
    pub moves_per_day: u32,
    /// Disk the per-move cost model charges (reads the old block,
    /// writes the new one).
    pub disk: DiskParams,
}

impl DefragSpec {
    /// A spec on the paper's disk.
    pub fn new(policy: DefragPolicy, moves_per_day: u32) -> DefragSpec {
        DefragSpec {
            policy,
            moves_per_day,
            disk: DiskParams::seagate_32430n(),
        }
    }

    /// Exhibit label: `greedy/200`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.policy.label(), self.moves_per_day)
    }

    /// Stable provenance fragment for content-addressed cache keys.
    pub fn fingerprint(&self) -> String {
        format!(
            "policy={} budget={}",
            self.policy.label(),
            self.moves_per_day
        )
    }
}

/// What one executed pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Relocations executed.
    pub moves: u64,
    /// Mechanical time the moves cost on the simulated disk, in
    /// microseconds (rounded).
    pub cost_us: u64,
    /// Planned moves the executor skipped because the file system had
    /// changed under them (deterministic planners never trigger this;
    /// counted for honesty).
    pub skipped: u64,
}

/// Plans and executes budgeted passes against a live file system,
/// charging each move to a persistent simulated disk so cumulative cost
/// is honest across passes.
pub struct DefragRunner {
    spec: DefragSpec,
    /// The group the next scrub pass starts from; advances one group per
    /// pass. Unused by the other policies.
    scrub_cursor: u32,
    device: Device,
}

impl DefragRunner {
    /// Builds a runner (planner state plus cost-model disk) for a spec.
    pub fn new(spec: &DefragSpec) -> DefragRunner {
        DefragRunner {
            spec: spec.clone(),
            scrub_cursor: 0,
            device: Device::new(spec.disk.clone()),
        }
    }

    /// Plans one pass of at most `budget` moves under the spec's policy.
    /// The returned moves target distinct free blocks; the executor
    /// skips (and counts) any move invalidated by the time it runs.
    fn plan(&mut self, fs: &Filesystem, budget: u32) -> Vec<BlockMove> {
        match self.spec.policy {
            DefragPolicy::Greedy => plan_greedy(fs, budget),
            DefragPolicy::Threshold => plan_threshold(fs, budget),
            DefragPolicy::Scrub => {
                let plan = plan_scrub(fs, budget, self.scrub_cursor);
                self.scrub_cursor = (self.scrub_cursor + 1) % fs.ncg().max(1);
                plan
            }
        }
    }

    /// Runs one budgeted pass: plan, then execute each move through
    /// `Filesystem::relocate_block`, charging a block read at the old
    /// address and a block write at the new one to the disk model. A
    /// zero budget returns without touching anything.
    pub fn run_pass(&mut self, fs: &mut Filesystem) -> PassStats {
        if self.spec.moves_per_day == 0 {
            return PassStats::default();
        }
        let _sp = obs::span!("defrag.pass");
        let budget = self.spec.moves_per_day;
        let plan = self.plan(fs, budget);
        debug_assert!(plan.len() as u64 <= budget as u64);
        let params = fs.params().clone();
        let sectors_per_frag = (params.fsize / self.spec.disk.sector_size) as u64;
        let block_sectors = params.bsize / self.spec.disk.sector_size;
        let t0 = self.device.now();
        let mut stats = PassStats::default();
        for m in plan {
            match fs.relocate_block(m.ino, m.index, m.to) {
                Ok(old) => {
                    debug_assert_eq!(old, m.from);
                    self.device
                        .read(old.0 as u64 * sectors_per_frag, block_sectors);
                    self.device
                        .write(m.to.0 as u64 * sectors_per_frag, block_sectors);
                    stats.moves += 1;
                    obs::counter!("defrag.moves", 1);
                    obs::hist!(
                        "defrag.move_distance_frags",
                        obs::bounds::POW2,
                        u64::from(m.to.0.abs_diff(m.from.0))
                    );
                }
                Err(_) => stats.skipped += 1,
            }
        }
        stats.cost_us = (self.device.now() - t0).round() as u64;
        obs::counter!("defrag.cost_us", stats.cost_us);
        stats
    }
}

// ----------------------------------------------------------------------
// Shared planning machinery.
// ----------------------------------------------------------------------

/// Free-cluster searches retried past claimed targets before giving up
/// on a window (bounds worst-case planning time; the search is
/// deterministic either way).
const CLAIM_PROBES: u32 = 32;

/// Plans relocations that re-lay one file's blocks contiguously,
/// window by window (windows mirror the realloc pass: at most
/// `maxcontig` blocks, never spanning an indirect-block boundary).
///
/// For each non-contiguous window the planner first tries to move the
/// whole window into a free cluster near its current location; when no
/// such cluster exists (or the budget cannot afford the whole window)
/// it falls back to healing single discontinuities in place. `claimed`
/// coordinates targets across files within one pass so plans never
/// collide. Returns the number of moves planned.
fn relayout_file(
    fs: &Filesystem,
    meta: &FileMeta,
    budget_left: u32,
    claimed: &mut BTreeSet<u32>,
    out: &mut Vec<BlockMove>,
) -> u32 {
    let params = fs.params();
    let geom = fs.geometry();
    let fpb = geom.frags_per_block();
    let nfull = meta.blocks.len() as u32;
    let mut planned = 0u32;
    for (s, e) in realloc_windows(nfull, params.maxcontig, params.nindir()) {
        if planned >= budget_left {
            break;
        }
        let len = e - s;
        if len < 2 {
            continue;
        }
        let addrs = &meta.blocks[s as usize..e as usize];
        if addrs.windows(2).all(|w| w[1].0 == w[0].0 + fpb) {
            continue;
        }
        // Whole-window gathering stays within one group, like the
        // realloc pass; split windows fall through to in-place healing.
        let g = geom.dtog(addrs[0]);
        let whole = addrs.iter().all(|&a| geom.dtog(a) == g) && planned + len <= budget_left;
        if whole {
            let cg = fs.cg(g);
            let from = cg.daddr_to_block(addrs[0]).0;
            if let Some(run) = find_unclaimed_cluster(cg, from, len, fpb, claimed) {
                for i in 0..len {
                    let to = cg.block_daddr(run + i);
                    claimed.insert(to.0);
                    out.push(BlockMove {
                        ino: meta.ino,
                        index: s + i,
                        from: addrs[i as usize],
                        to,
                    });
                }
                planned += len;
                continue;
            }
        }
        planned += heal_in_place(fs, meta, (s, e), budget_left - planned, claimed, out);
    }
    planned
}

/// Re-lays `files` in the order given, one [`relayout_file`] each, until
/// `budget` moves are planned; targets are claimed across the whole pass.
fn relayout_files<'a>(
    fs: &Filesystem,
    budget: u32,
    files: impl Iterator<Item = &'a FileMeta>,
) -> Vec<BlockMove> {
    let mut out = Vec::new();
    let mut claimed = BTreeSet::new();
    let mut left = budget;
    for meta in files {
        if left == 0 {
            break;
        }
        left -= relayout_file(fs, meta, left, &mut claimed, &mut out);
    }
    out
}

/// First-fit free-cluster search that also avoids targets claimed by
/// earlier plans in the same pass.
fn find_unclaimed_cluster(
    cg: &ffs::CylGroup,
    from: u32,
    len: u32,
    fpb: u32,
    claimed: &BTreeSet<u32>,
) -> Option<u32> {
    let mut b = from;
    for _ in 0..CLAIM_PROBES {
        let run = cg.find_free_cluster(b, len)?;
        let lo = cg.block_daddr(run).0;
        let hi = cg.block_daddr(run + len - 1).0 + fpb;
        if claimed.range(lo..hi).next().is_none() {
            return Some(run);
        }
        if run + len >= cg.nblocks() {
            return None;
        }
        b = run + 1;
    }
    None
}

/// Fallback relayout: walk a window and move each block that breaks the
/// chain to the address right after its (possibly just-planned)
/// predecessor, when that block is free and unclaimed.
fn heal_in_place(
    fs: &Filesystem,
    meta: &FileMeta,
    window: (u32, u32),
    budget_left: u32,
    claimed: &mut BTreeSet<u32>,
    out: &mut Vec<BlockMove>,
) -> u32 {
    let geom = fs.geometry();
    let fpb = geom.frags_per_block();
    let (s, e) = window;
    let mut planned = 0u32;
    let mut cur = meta.blocks[s as usize];
    for i in s + 1..e {
        if planned >= budget_left {
            break;
        }
        let a = meta.blocks[i as usize];
        let want = Daddr(cur.0 + fpb);
        if a == want {
            cur = a;
            continue;
        }
        let g = geom.dtog(want);
        if geom.is_block(want) && g == geom.dtog(cur) {
            let cg = fs.cg(g);
            let (wb, woff) = cg.daddr_to_block(want);
            if woff == 0 && cg.is_block_free(wb) && !claimed.contains(&want.0) {
                claimed.insert(want.0);
                out.push(BlockMove {
                    ino: meta.ino,
                    index: i,
                    from: a,
                    to: want,
                });
                planned += 1;
                cur = want;
                continue;
            }
        }
        cur = a;
    }
    planned
}

// ----------------------------------------------------------------------
// Policies.
// ----------------------------------------------------------------------

/// Worst-file-first: sorts scoreable files by per-file layout score
/// (ascending, inode-number tie-break) and re-lays them in that order
/// until the budget runs out.
fn plan_greedy(fs: &Filesystem, budget: u32) -> Vec<BlockMove> {
    let fpb = fs.geometry().frags_per_block();
    let mut worst: Vec<(f64, Ino)> = fs
        .files()
        .filter_map(|f| {
            // The per-file layout score, below 1 exactly when some
            // chunk is out of place.
            let (opt, scored) = f.layout_counts_at(fpb)?;
            (opt < scored).then(|| (opt as f64 / scored as f64, f.ino))
        })
        .collect();
    worst.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
    let files = worst
        .into_iter()
        .map(|(_, ino)| fs.file(ino).expect("planned over live files"));
    relayout_files(fs, budget, files)
}

/// Multiplicative slack of the threshold policy: a file is rebuilt once
/// its extent count reaches this many times the unavoidable minimum.
const THRESHOLD_FACTOR: u32 = 2;

/// Whether `meta`'s fragmentation reaches the rebuild threshold: its
/// extent count is at least [`THRESHOLD_FACTOR`] times the unavoidable
/// minimum (one extent per cylinder-group region, plus the tail).
fn over_threshold(params: &FsParams, meta: &FileMeta) -> bool {
    if meta.nchunks() < 2 {
        return false;
    }
    let nfull = meta.blocks.len() as u32;
    let min_extents =
        params.cg_switch_lbns(nfull).len() as u32 + 1 + u32::from(meta.tail.is_some());
    let actual = meta.extents(params).count() as u32;
    actual >= THRESHOLD_FACTOR * min_extents
}

/// Cost-oblivious rebuild-on-threshold (arXiv 1404.2019): re-lays, in
/// inode order, only the files [`over_threshold`]. Files below it are
/// never touched, so quiescent layouts cost nothing.
fn plan_threshold(fs: &Filesystem, budget: u32) -> Vec<BlockMove> {
    let files = fs.files().filter(|meta| over_threshold(fs.params(), meta));
    relayout_files(fs, budget, files)
}

/// Background scrub: sweeps cylinder groups round-robin from `cursor`,
/// re-laying the files anchored (first data block) in each group,
/// continuing into subsequent groups while budget remains. The caller
/// advances the cursor exactly one group per pass regardless of how far
/// the budget reached, so every group is eventually visited.
fn plan_scrub(fs: &Filesystem, budget: u32, cursor: u32) -> Vec<BlockMove> {
    let geom = fs.geometry();
    let ncg = fs.ncg();
    // Files by anchor group, inode order within each: one walk of the
    // file table instead of one per group visited.
    let mut anchored: Vec<Vec<&FileMeta>> = vec![Vec::new(); ncg as usize];
    for meta in fs.files() {
        if let Some(&b) = meta.blocks.first() {
            anchored[geom.dtog(b).0 as usize].push(meta);
        }
    }
    let files =
        (0..ncg).flat_map(|step| anchored[((cursor + step) % ncg) as usize].iter().copied());
    relayout_files(fs, budget, files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::check::check;
    use ffs::{recompute_aggregate, AllocPolicy};
    use ffs_types::{CgIdx, FsParams, KB};

    /// An aged small file system: churn scatters some files across
    /// small holes, then later deletions open large contiguous holes —
    /// fragmented files *and* room to re-lay them.
    fn fragmented_fs() -> Filesystem {
        let mut f = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = f.mkdir_in(CgIdx(0)).unwrap();
        // Fill group 0 so new allocations must reuse holes...
        let mut small = Vec::new();
        while f.cg(CgIdx(0)).free_blocks() > 0 {
            small.push(f.create(d, 16 * KB, 0).unwrap());
        }
        // ...open scattered two-block holes early in the group...
        for i in (0..120).step_by(3) {
            f.remove(small[i]).unwrap();
        }
        // ...that the next generation of files fragments across...
        for _ in 0..12 {
            f.create(d, 40 * KB, 1).unwrap();
        }
        // ...then retire a run of adjacent survivors, leaving the
        // multi-block free clusters a defragmenter can gather into.
        let n = small.len();
        for &ino in &small[n - 20..] {
            f.remove(ino).unwrap();
        }
        f
    }

    fn run_days(fs: &mut Filesystem, spec: &DefragSpec, days: u32) -> Vec<PassStats> {
        let mut runner = DefragRunner::new(spec);
        (0..days).map(|_| runner.run_pass(fs)).collect()
    }

    #[test]
    fn zero_budget_is_a_byte_exact_no_op() {
        for policy in DefragPolicy::all() {
            let mut fs = fragmented_fs();
            let before = fs.digest();
            let stats = run_days(&mut fs, &DefragSpec::new(policy, 0), 5);
            assert!(stats.iter().all(|s| *s == PassStats::default()));
            assert_eq!(fs.digest(), before, "{policy:?} must not touch the image");
        }
    }

    #[test]
    fn every_policy_improves_layout_and_stays_fsck_clean() {
        let baseline = fragmented_fs().aggregate_layout().score();
        for policy in DefragPolicy::all() {
            let mut fs = fragmented_fs();
            let stats = run_days(&mut fs, &DefragSpec::new(policy, 50), 8);
            let moved: u64 = stats.iter().map(|s| s.moves).sum();
            assert!(moved > 0, "{policy:?} never moved a block");
            assert!(
                stats.iter().all(|s| s.moves <= 50),
                "{policy:?} overspent its budget"
            );
            assert!(
                stats.iter().all(|s| s.skipped == 0),
                "{policy:?} planned colliding moves"
            );
            assert!(
                fs.aggregate_layout().score() > baseline,
                "{policy:?} did not improve layout: {} vs {baseline}",
                fs.aggregate_layout().score()
            );
            assert!(
                check(&fs).is_empty(),
                "{policy:?} left an inconsistent image"
            );
            assert_eq!(
                fs.aggregate_layout(),
                recompute_aggregate(&fs),
                "{policy:?} drifted the incremental aggregate"
            );
        }
    }

    #[test]
    fn passes_are_deterministic() {
        for policy in DefragPolicy::all() {
            let spec = DefragSpec::new(policy, 75);
            let mut a = fragmented_fs();
            let mut b = fragmented_fs();
            let sa = run_days(&mut a, &spec, 6);
            let sb = run_days(&mut b, &spec, 6);
            assert_eq!(sa, sb, "{policy:?} pass stats diverged");
            assert_eq!(a.digest(), b.digest(), "{policy:?} images diverged");
        }
    }

    #[test]
    fn moves_carry_honest_disk_cost() {
        let mut fs = fragmented_fs();
        let mut runner = DefragRunner::new(&DefragSpec::new(DefragPolicy::Greedy, 100));
        let stats = runner.run_pass(&mut fs);
        assert!(stats.moves > 0);
        assert!(stats.cost_us > 0, "moves must cost mechanical time");
        let dev = runner.device.stats();
        assert_eq!(dev.reads, stats.moves);
        assert_eq!(dev.writes, stats.moves);
        assert!(runner.device.now() >= stats.cost_us as f64 - 1.0);
    }

    #[test]
    fn threshold_policy_leaves_healthy_files_alone() {
        // A freshly written file system is contiguous: nothing is over
        // the 2x threshold, so the pass plans nothing.
        let mut fs = Filesystem::new(FsParams::small_test(), AllocPolicy::Orig);
        let d = fs.mkdir_in(CgIdx(0)).unwrap();
        for _ in 0..10 {
            fs.create(d, 32 * KB, 0).unwrap();
        }
        assert!(
            plan_threshold(&fs, 1000).is_empty(),
            "healthy files must not be rebuilt"
        );
        let digest = fs.digest();
        let stats = run_days(&mut fs, &DefragSpec::new(DefragPolicy::Threshold, 1000), 3);
        assert!(stats.iter().all(|s| s.moves == 0));
        assert_eq!(fs.digest(), digest);
    }

    #[test]
    fn scrub_cursor_round_robins_groups() {
        let fs = fragmented_fs();
        let mut runner = DefragRunner::new(&DefragSpec::new(DefragPolicy::Scrub, 1));
        let ncg = fs.ncg();
        for expect in 1..=ncg {
            runner.plan(&fs, 1);
            assert_eq!(runner.scrub_cursor, expect % ncg);
        }
    }

    #[test]
    fn spec_labels_and_fingerprints_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for policy in DefragPolicy::all() {
            assert_eq!(DefragPolicy::parse(policy.label()), Some(policy));
            for budget in [0u32, 50, 200, 1000] {
                let spec = DefragSpec::new(policy, budget);
                assert!(seen.insert(spec.fingerprint()));
                assert_eq!(spec.label(), format!("{}/{budget}", policy.label()));
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn planned_moves_respect_the_budget_exactly() {
        let fs = fragmented_fs();
        for budget in [1u32, 3, 7, 25] {
            let plan = plan_greedy(&fs, budget);
            assert!(plan.len() as u32 <= budget);
            // Targets are distinct.
            let targets: BTreeSet<u32> = plan.iter().map(|m| m.to.0).collect();
            assert_eq!(targets.len(), plan.len());
        }
    }
}
