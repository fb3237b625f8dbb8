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
//! * a [`Defragmenter`] **plans**: given a read-only view of the file
//!   system and a [`MoveBudget`], it returns a list of [`BlockMove`]s.
//!   Three policies ship — [`DefragPolicy::Greedy`] (worst-file-first),
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

/// How many moves a single defragmentation pass may spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveBudget {
    /// Maximum number of single-block relocations.
    pub moves: u32,
}

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

/// A defragmentation policy: plans at most `budget.moves` relocations
/// against a read-only snapshot of the file system.
///
/// Planners may keep state across passes (the scrub policy keeps its
/// round-robin cursor), hence `&mut self`.
pub trait Defragmenter {
    /// Short policy name used in exhibits and provenance strings.
    fn name(&self) -> &'static str;
    /// Plans one pass. The returned moves must target distinct free
    /// blocks; the executor skips (and counts) any move invalidated by
    /// the time it runs.
    fn plan(&mut self, fs: &Filesystem, budget: MoveBudget) -> Vec<BlockMove>;
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

    /// Builds the planner this spec names.
    pub fn planner(&self) -> Box<dyn Defragmenter + Send> {
        match self.policy {
            DefragPolicy::Greedy => Box::new(GreedyWorstFile),
            DefragPolicy::Threshold => Box::new(RebuildOnThreshold::default()),
            DefragPolicy::Scrub => Box::new(ScrubSweep::default()),
        }
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

/// Executes planned moves against a live file system, charging each to
/// a persistent simulated disk so cumulative cost is honest across
/// passes.
pub struct DefragRunner {
    spec: DefragSpec,
    planner: Box<dyn Defragmenter + Send>,
    device: Device,
}

impl DefragRunner {
    /// Builds a runner (planner plus cost-model disk) for a spec.
    pub fn new(spec: &DefragSpec) -> DefragRunner {
        DefragRunner {
            planner: spec.planner(),
            device: Device::new(spec.disk.clone()),
            spec: spec.clone(),
        }
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &DefragSpec {
        &self.spec
    }

    /// Cumulative mechanical cost across all passes, in microseconds.
    pub fn total_cost_us(&self) -> f64 {
        self.device.now()
    }

    /// The cost-model device's counters.
    pub fn device_stats(&self) -> &disk::DeviceStats {
        self.device.stats()
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
        let budget = MoveBudget {
            moves: self.spec.moves_per_day,
        };
        let plan = self.planner.plan(fs, budget);
        debug_assert!(plan.len() as u64 <= budget.moves as u64);
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
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyWorstFile;

impl Defragmenter for GreedyWorstFile {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn plan(&mut self, fs: &Filesystem, budget: MoveBudget) -> Vec<BlockMove> {
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
        let mut out = Vec::new();
        let mut claimed = BTreeSet::new();
        let mut left = budget.moves;
        for (_, ino) in worst {
            if left == 0 {
                break;
            }
            let meta = fs.file(ino).expect("planned over live files");
            left -= relayout_file(fs, meta, left, &mut claimed, &mut out);
        }
        out
    }
}

/// Cost-oblivious rebuild-on-threshold (arXiv 1404.2019): a file is
/// only rebuilt once its extent count reaches `factor` times the
/// unavoidable minimum (one extent per cylinder-group region, plus the
/// tail). Files below threshold are never touched, so quiescent layouts
/// cost nothing.
#[derive(Clone, Copy, Debug)]
pub struct RebuildOnThreshold {
    /// Multiplicative slack before a rebuild triggers.
    pub factor: u32,
}

impl Default for RebuildOnThreshold {
    fn default() -> Self {
        RebuildOnThreshold { factor: 2 }
    }
}

impl RebuildOnThreshold {
    /// Whether `meta`'s fragmentation exceeds the rebuild threshold.
    fn over_threshold(&self, params: &FsParams, meta: &FileMeta) -> bool {
        if meta.nchunks() < 2 {
            return false;
        }
        let nfull = meta.blocks.len() as u32;
        let min_extents =
            params.cg_switch_lbns(nfull).len() as u32 + 1 + u32::from(meta.tail.is_some());
        let actual = meta.extents(params).len() as u32;
        actual >= self.factor * min_extents
    }
}

impl Defragmenter for RebuildOnThreshold {
    fn name(&self) -> &'static str {
        "thresh"
    }

    fn plan(&mut self, fs: &Filesystem, budget: MoveBudget) -> Vec<BlockMove> {
        let params = fs.params();
        let mut out = Vec::new();
        let mut claimed = BTreeSet::new();
        let mut left = budget.moves;
        for meta in fs.files() {
            if left == 0 {
                break;
            }
            if self.over_threshold(params, meta) {
                left -= relayout_file(fs, meta, left, &mut claimed, &mut out);
            }
        }
        out
    }
}

/// Background scrub: sweeps cylinder groups round-robin, re-laying the
/// files anchored (first data block) in the group under the cursor,
/// continuing into subsequent groups while budget remains. The cursor
/// advances exactly one group per pass regardless of how far the budget
/// reached, so every group is eventually visited.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScrubSweep {
    cursor: u32,
}

impl ScrubSweep {
    /// The group the next pass starts from (for tests).
    pub fn cursor(&self) -> u32 {
        self.cursor
    }
}

impl Defragmenter for ScrubSweep {
    fn name(&self) -> &'static str {
        "scrub"
    }

    fn plan(&mut self, fs: &Filesystem, budget: MoveBudget) -> Vec<BlockMove> {
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
        let mut out = Vec::new();
        let mut claimed = BTreeSet::new();
        let mut left = budget.moves;
        'sweep: for step in 0..ncg {
            let g = (self.cursor + step) % ncg;
            for meta in &anchored[g as usize] {
                if left == 0 {
                    break 'sweep;
                }
                left -= relayout_file(fs, meta, left, &mut claimed, &mut out);
            }
        }
        self.cursor = (self.cursor + 1) % ncg.max(1);
        out
    }
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
        let dev = runner.device_stats();
        assert_eq!(dev.reads, stats.moves);
        assert_eq!(dev.writes, stats.moves);
        assert!(runner.total_cost_us() >= stats.cost_us as f64 - 1.0);
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
        let mut planner = RebuildOnThreshold::default();
        let plan = planner.plan(&fs, MoveBudget { moves: 1000 });
        assert!(plan.is_empty(), "healthy files must not be rebuilt");
        let digest = fs.digest();
        let stats = run_days(&mut fs, &DefragSpec::new(DefragPolicy::Threshold, 1000), 3);
        assert!(stats.iter().all(|s| s.moves == 0));
        assert_eq!(fs.digest(), digest);
    }

    #[test]
    fn scrub_cursor_round_robins_groups() {
        let fs = fragmented_fs();
        let mut planner = ScrubSweep::default();
        let ncg = fs.ncg();
        for expect in 1..=ncg {
            planner.plan(&fs, MoveBudget { moves: 1 });
            assert_eq!(planner.cursor(), expect % ncg);
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
            let mut planner = GreedyWorstFile;
            let plan = planner.plan(&fs, MoveBudget { moves: budget });
            assert!(plan.len() as u32 <= budget);
            // Targets are distinct.
            let targets: BTreeSet<u32> = plan.iter().map(|m| m.to.0).collect();
            assert_eq!(targets.len(), plan.len());
        }
    }
}
