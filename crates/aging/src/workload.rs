//! Synthetic aging-workload generation (Section 3.1 of the paper).
//!
//! The generator merges two models, mirroring the paper's two data
//! sources:
//!
//! * a **snapshot model** of long-lived files — per-day creates, deletes,
//!   and modifies (replayed as delete + re-create, following the paper's
//!   heuristic that files are rewritten rather than edited), driven by a
//!   utilization trajectory that ramps from 9 % to the mid-70s and then
//!   wobbles below a 90 % peak, with occasional burst days;
//! * an **NFS model** of short-lived files — create/delete pairs that
//!   live less than a day, placed in the cylinder groups with the most
//!   long-lived churn that day, time-shifted to overlap its peak.
//!
//! Every file carries the cylinder group it belongs to: the paper's aging
//! tool cannot know pathnames, so it creates one directory per group and
//! places each file by the inode number it had on the original system.
//! Our generator produces the group directly.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ffs_types::CgIdx;

use crate::config::AgingConfig;
use crate::sizes::{sample_count, sample_size, std_normal, weighted_index, weighted_index_summed};

/// Stable identifier for a workload file, independent of the inode number
/// the replayed file system will assign. Ids are issued sequentially from
/// zero, one per create: a `u32` outlasts any run by orders of magnitude
/// (the 300-day paper workload issues about half a million).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Whether a file comes from the snapshot (long-lived) or NFS
/// (short-lived) model. Reported in workload statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifetime {
    /// Survives at least one snapshot interval.
    Long,
    /// Created and deleted within the same day.
    Short,
}

/// One workload operation: 16 bytes, because a held workload is millions
/// of them. The fields of [`Op::Create`] take 13 bytes and the variant
/// tag lives in [`Lifetime`]'s spare byte values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Create a file of `size` bytes in the directory of cylinder group
    /// `cg`.
    Create {
        /// Stable file identifier.
        file: FileId,
        /// Target cylinder group.
        cg: CgIdx,
        /// File size in bytes (below 4 GiB, as every file size is:
        /// [`ffs::Filesystem::create`] rejects larger).
        size: u32,
        /// Long- or short-lived provenance.
        kind: Lifetime,
    },
    /// Delete a previously created file.
    Delete {
        /// Stable file identifier.
        file: FileId,
    },
    /// Rewrite a file in place (same size, same blocks). Contributes
    /// write volume and freshens the modification time without changing
    /// the allocation — the NFS traces' overwrite traffic.
    Rewrite {
        /// Stable file identifier.
        file: FileId,
    },
}

/// All operations of one simulated day, in replay order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DayLog {
    /// Day index, starting at 0.
    pub day: u32,
    /// Operations in time order.
    pub ops: Vec<Op>,
}

/// A complete aging workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The generating configuration.
    pub config: AgingConfig,
    /// Number of cylinder groups files are spread over.
    pub ncg: u32,
    /// Capacity (bytes) the utilization trajectory was computed against.
    pub capacity_bytes: u64,
    /// Per-day operation logs.
    pub days: Vec<DayLog>,
}

/// A live file in the generator's ledger.
#[derive(Clone, Copy, Debug)]
struct LiveFile {
    id: FileId,
    /// Bytes, as the file's [`Op::Create`] carries them.
    size: u32,
    born_day: u32,
    /// Day the file was last created, modified, or rewritten; activity
    /// concentrates on recently touched files (Satyanarayanan81,
    /// Ousterhout85: old files are seldom accessed).
    last_touch: u32,
    cg: CgIdx,
    /// Where this file's ledger position sits in its bucket of the
    /// [`Ledger`] index; the ledger sets it as it files the position.
    slot: u32,
}

/// The generator's ledger of live long-lived files, with an index from
/// (cylinder group, birth day) to ledger positions, so a cohort search
/// reads only its own buckets.
///
/// `files` is what [`pick_hot`] and [`pick_victim`] draw positions from:
/// its order is set by [`Ledger::push`], [`Ledger::swap_remove`] and
/// [`Ledger::replace`] alone, exactly as a bare `Vec` would order it, and
/// the index follows. Bucket `cg * days + born_day` holds the positions
/// of that group's files born that day, in no particular order, and each
/// file's `slot` is where its position sits in its bucket, so each
/// update is O(1).
#[derive(Default)]
struct Ledger {
    files: Vec<LiveFile>,
    buckets: Vec<Vec<u32>>,
    days: u32,
    /// Ledger entries read by [`Ledger::cohort`] since the last take.
    examined: u64,
}

impl Ledger {
    fn new(ncg: u32, days: u32) -> Ledger {
        Ledger {
            files: Vec::new(),
            buckets: vec![Vec::new(); ncg as usize * days as usize],
            days,
            examined: 0,
        }
    }

    fn len(&self) -> usize {
        self.files.len()
    }

    fn bucket(&self, cg: CgIdx, born_day: u32) -> usize {
        cg.0 as usize * self.days as usize + born_day as usize
    }

    /// Files position `pos` under its file's bucket.
    fn link(&mut self, pos: usize) {
        let f = self.files[pos];
        let b = self.bucket(f.cg, f.born_day);
        let bucket = &mut self.buckets[b];
        self.files[pos].slot = bucket.len() as u32;
        bucket.push(pos as u32);
    }

    /// Takes position `pos` out of its file's bucket.
    fn unlink(&mut self, pos: usize) {
        let f = self.files[pos];
        let b = self.bucket(f.cg, f.born_day);
        let bucket = &mut self.buckets[b];
        bucket.swap_remove(f.slot as usize);
        if let Some(&moved) = bucket.get(f.slot as usize) {
            self.files[moved as usize].slot = f.slot;
        }
    }

    fn push(&mut self, f: LiveFile) {
        self.files.push(f);
        self.link(self.files.len() - 1);
    }

    /// `Vec::swap_remove`: the last file moves into `pos`.
    fn swap_remove(&mut self, pos: usize) -> LiveFile {
        self.unlink(pos);
        let f = self.files.swap_remove(pos);
        if let Some(&moved) = self.files.get(pos) {
            let b = self.bucket(moved.cg, moved.born_day);
            self.buckets[b][moved.slot as usize] = pos as u32;
        }
        f
    }

    /// Puts `f` at position `pos` in place of the file there.
    fn replace(&mut self, pos: usize, f: LiveFile) {
        self.unlink(pos);
        self.files[pos] = f;
        self.link(pos);
    }

    /// The positions of group `cg`'s files born within two days of
    /// `born_day`, ascending.
    fn cohort(&mut self, cg: CgIdx, born_day: u32) -> Vec<usize> {
        let lo = self.bucket(cg, born_day.saturating_sub(2));
        let hi = self.bucket(cg, (born_day + 2).min(self.days - 1));
        let mut idxs: Vec<usize> = self.buckets[lo..=hi]
            .iter()
            .flatten()
            .map(|&p| p as usize)
            .collect();
        self.examined += idxs.len() as u64;
        idxs.sort_unstable();
        idxs
    }
}

/// One simulated day's operations in push order, each with its within-day
/// timestamp, to be put in time order at day end — by the generator and
/// by the snapshot differ.
///
/// The order contract is a stable sort by timestamp over all pushes —
/// ties keep push order. Each push's key is the timestamp's bits, mapped
/// so unsigned order is `f64::total_cmp` order; [`DayOps::take_sorted`]
/// radix-sorts positions by those keys, so push order breaks ties
/// without being part of the key, and no `Op` moves until the final
/// gather. The buffers keep their capacity from one day to the next.
#[derive(Default)]
pub(crate) struct DayOps {
    ops: Vec<Op>,
    keys: Vec<u64>,
    /// The sort's two buffers of `prefix << 32 | position`.
    sorted: Vec<u64>,
    scratch: Vec<u64>,
}

/// Bits per radix digit. The sort reads two digits, the 22 highest bits
/// in which a day's keys differ: 2 048 counters per digit, against a
/// day's few thousand keys.
const DIGIT_BITS: u32 = 11;
const RADIX: usize = 1 << DIGIT_BITS;

impl DayOps {
    pub(crate) fn push(&mut self, t: f64, op: Op) {
        let bits = t.to_bits();
        // Negative values reverse their order, positive ones sort above
        // every negative one: the `total_cmp` order as an unsigned key.
        let ordered = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        self.keys.push(ordered);
        self.ops.push(op);
    }

    /// Creates pushed so far, counted per cylinder group.
    fn create_counts(&self, ncg: u32) -> Vec<u32> {
        let mut counts = vec![0u32; ncg as usize];
        for op in &self.ops {
            if let Op::Create { cg, .. } = *op {
                counts[cg.0 as usize] += 1;
            }
        }
        counts
    }

    /// The ops in time order, ties in push order.
    ///
    /// Bits above the highest one in which the day's smallest and
    /// largest keys differ are the same in every key, so the sort skips
    /// them: it reads `key - min`, whose top 22 bits (the prefix) order
    /// the keys up to ties. A stable LSD radix sort over the prefix's two
    /// digits, carrying each push's position beside its prefix in one
    /// `u64`, orders the positions by prefix with ties in push order.
    /// Where the prefix dropped low bits, each run of equal prefixes —
    /// timestamps too close for the prefix to tell apart, as a modify's
    /// delete and re-create 1e-6 later often are — is then ordered by
    /// its full keys, push order breaking ties. Leaves `self` empty for the next day.
    pub(crate) fn take_sorted(&mut self) -> Vec<Op> {
        let DayOps {
            ops,
            keys,
            sorted,
            scratch,
        } = self;
        let n = keys.len();
        assert!(u32::try_from(n).is_ok(), "a day has fewer than 2^32 ops");
        obs::counter!("aging.ops_merged", n);
        let (min, max) = keys
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let dropped =
            (u64::BITS - max.saturating_sub(min).leading_zeros()).saturating_sub(2 * DIGIT_BITS);
        let mut counts = [[0u32; RADIX]; 2];
        sorted.clear();
        for (p, &k) in keys.iter().enumerate() {
            let prefix = (k - min) >> dropped;
            counts[0][prefix as usize % RADIX] += 1;
            counts[1][(prefix >> DIGIT_BITS) as usize % RADIX] += 1;
            sorted.push(prefix << 32 | p as u64);
        }
        scratch.resize(n, 0);
        for (d, c) in counts.iter_mut().enumerate() {
            let shift = 32 + d as u32 * DIGIT_BITS;
            let digit = |e: u64| (e >> shift) as usize % RADIX;
            if sorted.first().is_none_or(|&e| c[digit(e)] as usize == n) {
                continue;
            }
            let mut sum = 0;
            for x in c.iter_mut() {
                (*x, sum) = (sum, sum + *x);
            }
            for &e in sorted.iter() {
                let at = &mut c[digit(e)];
                scratch[*at as usize] = e;
                *at += 1;
            }
            std::mem::swap(sorted, scratch);
        }
        let pos = |e: u64| e as u32 as usize;
        if dropped > 0 {
            for run in sorted.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
                if run.len() > 1 {
                    run.sort_unstable_by_key(|&e| (keys[pos(e)], pos(e)));
                }
            }
        }
        let out = sorted.iter().map(|&e| ops[pos(e)]).collect();
        ops.clear();
        keys.clear();
        out
    }
}

/// The create time of every long-lived file created so far today.
///
/// Today's ids are issued consecutively from the day's first, and each
/// long-lived create is recorded as soon as its id is issued, so the
/// times sit in a dense vector indexed by `id − first`. Short-lived pairs
/// take their ids after the day's last long-lived create and are never
/// looked up; an id from an earlier day falls below `first`.
struct CreatedToday {
    first: u64,
    times: Vec<f64>,
}

impl CreatedToday {
    fn new(first: u64) -> Self {
        CreatedToday {
            first,
            times: Vec::new(),
        }
    }

    fn insert(&mut self, id: FileId, t: f64) {
        debug_assert_eq!(u64::from(id.0), self.first + self.times.len() as u64);
        self.times.push(t);
    }

    fn get(&self, id: FileId) -> Option<f64> {
        let i = usize::try_from(u64::from(id.0).checked_sub(self.first)?).ok()?;
        self.times.get(i).copied()
    }
}

/// The aging workload as a stream: one [`DayLog`] per simulated day, in
/// day order, for a file system with `ncg` cylinder groups and
/// `capacity_bytes` of allocatable space.
///
/// The generator's state between days is its RNG and the ledger of live
/// long-lived files, so a consumer that replays each day as it arrives
/// ([`crate::Replay::day`]) never holds more of the workload than one
/// day. [`generate`] is `collect()` over this iterator: same draws, same
/// ops.
pub struct Days {
    config: AgingConfig,
    ncg: u32,
    capacity_bytes: u64,
    rng: StdRng,
    next_id: u64,
    /// Static cylinder-group base weights (Zipf-ish, shuffled so the
    /// busy groups are not simply the low-numbered ones).
    base_w: Vec<f64>,
    live: Ledger,
    live_bytes: u64,
    day: u32,
    /// Today's pushes; its buffers are reused every day.
    ops: DayOps,
}

impl Days {
    /// Starts the stream at day 0.
    pub fn new(config: &AgingConfig, ncg: u32, capacity_bytes: u64) -> Days {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut base_w: Vec<f64> = (0..ncg)
            .map(|g| 1.0 / ((g + 1) as f64).powf(config.cg_skew))
            .collect();
        for i in (1..base_w.len()).rev() {
            base_w.swap(i, rng.gen_range(0..=i));
        }
        Days {
            config: config.clone(),
            ncg,
            capacity_bytes,
            rng,
            next_id: 0,
            base_w,
            live: Ledger::new(ncg, config.days),
            live_bytes: 0,
            day: 0,
            ops: DayOps::default(),
        }
    }
}

impl Iterator for Days {
    type Item = DayLog;

    fn next(&mut self) -> Option<DayLog> {
        if self.day == self.config.days {
            return None;
        }
        // The day works on locals and stores them back at the end, so
        // the RNG state and the ledger are not behind `self` for the
        // thousands of draws a day makes.
        let (config, base_w) = (&self.config, &self.base_w);
        let (ncg, capacity_bytes, day) = (self.ncg, self.capacity_bytes, self.day);
        let mut rng = self.rng.clone();
        let mut next_id = self.next_id;
        let mut live = std::mem::take(&mut self.live);
        let mut live_bytes = self.live_bytes;
        let fresh = |n: &mut u64| {
            let id = FileId(u32::try_from(*n).expect("a workload issues fewer than 2^32 file ids"));
            *n += 1;
            id
        };
        let mut ops = std::mem::take(&mut self.ops);
        // Create time of every long-lived file created today, so a
        // same-day delete can never be scheduled before the create it
        // depends on.
        let mut created_today = CreatedToday::new(next_id);
        // Timestamp for deleting `file`, respecting same-day creates.
        let delete_t = |created: &CreatedToday, file: FileId, t: f64| match created.get(file) {
            Some(ct) => ct.max(t) + 1e-6,
            None => t,
        };
        // Slow per-day activity drift on top of the base weights.
        let day_w: Vec<f64> = base_w
            .iter()
            .map(|&w| w * (1.0 + 0.5 * std_normal(&mut rng)).clamp(0.2, 3.0))
            .collect();
        let day_w_total: f64 = day_w.iter().sum();
        let target = (util_target(config, day, &mut rng) * capacity_bytes as f64) as u64;
        // --- Long-lived modifies: delete + recreate at a related size.
        let n_mod = if day == 0 {
            0
        } else {
            sample_count(&mut rng, config.long_modifies_per_day).min(live.len() as u32 / 2)
        };
        for _ in 0..n_mod {
            let idx = pick_hot(&mut rng, &live.files);
            let old = live.files[idx];
            let scale = (0.6 + 1.2 * rng.gen::<f64>()).max(0.1);
            let new_size = op_size(
                ((f64::from(old.size) * scale) as u64)
                    .clamp(config.long_sizes.min, config.long_sizes.max),
            );
            let dt = delete_t(&created_today, old.id, rng.gen::<f64>());
            ops.push(dt, Op::Delete { file: old.id });
            let id = fresh(&mut next_id);
            created_today.insert(id, dt + 1e-6);
            ops.push(
                dt + 1e-6,
                Op::Create {
                    file: id,
                    cg: old.cg,
                    size: new_size,
                    kind: Lifetime::Long,
                },
            );
            live_bytes = live_bytes - u64::from(old.size) + u64::from(new_size);
            live.replace(
                idx,
                LiveFile {
                    id,
                    size: new_size,
                    born_day: day,
                    last_touch: day,
                    cg: old.cg,
                    slot: 0,
                },
            );
        }
        // --- Long-lived creates: baseline count, plus growth pressure
        // toward the utilization target (day 0 is the initial population).
        let mean_long = config.long_sizes.mean();
        let base_creates = if day == 0 {
            (target as f64 / mean_long) as u32
        } else {
            let growth = target.saturating_sub(live_bytes) as f64;
            sample_count(&mut rng, config.long_creates_per_day) + (0.5 * growth / mean_long) as u32
        };
        // Each group's activity peaks at a different time of day; files
        // created together in a directory land near each other on disk.
        let peaks: Vec<f64> = (0..ncg).map(|_| rng.gen()).collect();
        for _ in 0..base_creates {
            let cg = CgIdx(weighted_index_summed(&mut rng, &day_w, day_w_total) as u32);
            let size = op_size(sample_size(&mut rng, &config.long_sizes));
            let id = fresh(&mut next_id);
            let t = (peaks[cg.0 as usize] + 0.06 * std_normal(&mut rng)).rem_euclid(1.0);
            created_today.insert(id, t);
            ops.push(
                t,
                Op::Create {
                    file: id,
                    cg,
                    size,
                    kind: Lifetime::Long,
                },
            );
            live.push(LiveFile {
                id,
                size,
                born_day: day,
                last_touch: day,
                cg,
                slot: 0,
            });
            live_bytes += u64::from(size);
        }
        // --- Burst days: a bulk cleanup or a bulk install.
        if day > 0 && rng.gen::<f64>() < config.burst_prob {
            if rng.gen::<bool>() && live.len() > 50 {
                // Cleanup: drop 4-10 % of stored bytes.
                let goal = (live_bytes as f64 * rng.gen_range(0.04..0.10)) as u64;
                let mut freed = 0u64;
                while freed < goal && live.len() > 10 {
                    let got = delete_cohort(
                        &mut rng,
                        &mut live,
                        day,
                        config.delete_age_bias,
                        goal - freed,
                        &created_today,
                        &mut ops,
                    );
                    if got == 0 {
                        break;
                    }
                    freed += got;
                    live_bytes -= got;
                }
            } else {
                // Install: a batch of files into one or two groups.
                let batch = rng.gen_range(30..120);
                let g1 = CgIdx(weighted_index_summed(&mut rng, &day_w, day_w_total) as u32);
                let g2 = CgIdx(weighted_index_summed(&mut rng, &day_w, day_w_total) as u32);
                let t0 = rng.gen::<f64>() * 0.8;
                for i in 0..batch {
                    let cg = if rng.gen::<f64>() < 0.7 { g1 } else { g2 };
                    let size = op_size(sample_size(&mut rng, &config.long_sizes));
                    let id = fresh(&mut next_id);
                    created_today.insert(id, t0 + 0.2 * (i as f64 / batch as f64));
                    ops.push(
                        t0 + 0.2 * (i as f64 / batch as f64),
                        Op::Create {
                            file: id,
                            cg,
                            size,
                            kind: Lifetime::Long,
                        },
                    );
                    live.push(LiveFile {
                        id,
                        size,
                        born_day: day,
                        last_touch: day,
                        cg,
                        slot: 0,
                    });
                    live_bytes += u64::from(size);
                }
            }
        }
        // --- Long-lived deletes: shed whatever the target does not
        // cover. Deletion is cohort-correlated: files created around the
        // same time in the same group tend to die together (project
        // cleanups), which is what keeps large free clusters reappearing
        // on real file systems.
        while live_bytes > target && live.len() > 10 {
            let goal = live_bytes - target;
            let freed = if rng.gen::<f64>() < config.scatter_deletes {
                // A lone, uncorrelated victim (the real-FS reference
                // model's extra fragmentation source).
                let idx = pick_victim(&mut rng, &live.files, day, config.delete_age_bias);
                let f = live.swap_remove(idx);
                let t = delete_t(&created_today, f.id, rng.gen());
                ops.push(t, Op::Delete { file: f.id });
                u64::from(f.size)
            } else {
                delete_cohort(
                    &mut rng,
                    &mut live,
                    day,
                    config.delete_age_bias,
                    goal,
                    &created_today,
                    &mut ops,
                )
            };
            live_bytes -= freed;
            if freed == 0 {
                break;
            }
        }
        // --- Short-lived pairs, placed in the day's most active groups
        // and time-shifted to overlap its activity.
        let n_short = sample_count(&mut rng, config.short_pairs_per_day);
        let hot = hottest_groups(&ops.create_counts(ncg), 4);
        for _ in 0..n_short {
            let cg = hot[weighted_index(&mut rng, &[0.5, 0.3, 0.15, 0.05])];
            let size = sample_size(&mut rng, &config.short_sizes);
            let id = fresh(&mut next_id);
            let t = rng.gen::<f64>() * 0.97;
            let dt = 0.002 + 0.03 * rng.gen::<f64>();
            ops.push(
                t,
                Op::Create {
                    file: id,
                    cg,
                    size: op_size(size),
                    kind: Lifetime::Short,
                },
            );
            ops.push(t + dt, Op::Delete { file: id });
        }
        // --- In-place rewrites of existing files: write volume and
        // mtime freshness without reallocation.
        let n_rw = if day == 0 {
            0
        } else {
            sample_count(&mut rng, config.rewrites_per_day).min(live.len() as u32)
        };
        for _ in 0..n_rw {
            let idx = pick_hot(&mut rng, &live.files);
            live.files[idx].last_touch = day;
            let f = live.files[idx];
            // Only rewrite files that exist before today's sort; same-day
            // creations are handled by ordering after their create time.
            let t = match created_today.get(f.id) {
                Some(ct) => ct + 1e-6,
                None => rng.gen(),
            };
            ops.push(t, Op::Rewrite { file: f.id });
        }
        obs::counter!(
            "aging.cohort_entries_examined",
            std::mem::take(&mut live.examined)
        );
        self.rng = rng;
        self.next_id = next_id;
        self.live = live;
        self.live_bytes = live_bytes;
        self.day += 1;
        // Merge into time order. Ties cannot reorder a file's delete
        // before its create because each pair is strictly ordered.
        let sorted = ops.take_sorted();
        self.ops = ops;
        Some(DayLog { day, ops: sorted })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.days - self.day) as usize;
        (left, Some(left))
    }
}

/// `size`, drawn from one of the configuration's
/// [`SizeDist`](crate::config::SizeDist)s, as an
/// [`Op::Create`] size. Every profile's distribution tops out far below
/// 4 GiB; one that does not is a configuration error, named as such.
fn op_size(size: u64) -> u32 {
    u32::try_from(size).expect("a size distribution's max is below 4 GiB (Op::Create holds a u32)")
}

/// Generates the aging workload for a file system with `ncg` cylinder
/// groups and `capacity_bytes` of allocatable space.
pub fn generate(config: &AgingConfig, ncg: u32, capacity_bytes: u64) -> Workload {
    Workload {
        config: config.clone(),
        ncg,
        capacity_bytes,
        days: Days::new(config, ncg, capacity_bytes).collect(),
    }
}

/// The utilization trajectory: ramp from the initial value to the
/// plateau, then a slow wobble capped at the peak.
fn util_target(config: &AgingConfig, day: u32, rng: &mut StdRng) -> f64 {
    let noise = 0.01 * std_normal(rng);
    let u = if day < config.ramp_days {
        let x = (day as f64 + 1.0) / config.ramp_days as f64;
        // Smoothstep ramp.
        let s = x * x * (3.0 - 2.0 * x);
        config.initial_util + (config.plateau_util - config.initial_util) * s
    } else if day + 40 >= config.days {
        // A bulk cleanup shortly before the end brings the file system
        // down to its measured end state (~8.8k files in roughly 60 % of
        // the disk, from Table 2's hot-set accounting); the final month
        // then runs at that occupancy.
        let left = ((config.days - day) as f64 / 40.0 - 0.5).max(0.0) * 2.0;
        0.63 + (config.plateau_util - 0.63) * left.min(1.0)
    } else {
        // High occupancy for the body of the run ("greater than 70 % for
        // most of the ten month period"), with a brief crunch to the 90 %
        // high-water mark about two thirds of the way through.
        let x = (day - config.ramp_days) as f64;
        let spike = {
            let d = (x - 110.0).abs();
            if d < 12.0 {
                0.14 * (1.0 - d / 12.0)
            } else {
                0.0
            }
        };
        config.plateau_util + spike + config.wobble * (std::f64::consts::TAU * x / 130.0).sin()
    };
    (u + noise).clamp(0.02, config.peak_util)
}

/// Activity targeting for modifies and rewrites: a tournament of several
/// uniform candidates won by the most recently touched one. This
/// concentrates re-activity on a small working set, so the "hot" file
/// set (files modified in the last month) stays near the paper's 10 % of
/// files rather than smearing across everything.
fn pick_hot(rng: &mut StdRng, live: &[LiveFile]) -> usize {
    debug_assert!(!live.is_empty());
    let mut best = rng.gen_range(0..live.len());
    for _ in 0..11 {
        let c = rng.gen_range(0..live.len());
        if live[c].last_touch > live[best].last_touch {
            best = c;
        }
    }
    // A small minority of touches still hit cold files.
    if rng.gen::<f64>() < 0.06 {
        rng.gen_range(0..live.len())
    } else {
        best
    }
}

/// Victim selection for deletes: tournament of three uniform candidates,
/// preferring the youngest in proportion to `age_bias` (trace studies
/// show young files die first).
fn pick_victim(rng: &mut StdRng, live: &[LiveFile], today: u32, age_bias: f64) -> usize {
    debug_assert!(!live.is_empty());
    let mut best = rng.gen_range(0..live.len());
    if age_bias <= 0.0 {
        return best;
    }
    // Tournament sized by the bias: stronger bias compares more
    // candidates and keeps the youngest, producing the steep infant
    // mortality the trace studies report.
    let rounds = (3.0 * age_bias).round() as u32;
    let age = |i: usize| today - live[i].born_day;
    for _ in 0..rounds {
        let c = rng.gen_range(0..live.len());
        if age(c) < age(best) {
            best = c;
        }
    }
    best
}

/// Deletes a cohort of files — the victim plus a random subset of its
/// contemporaries (same group, created within a couple of days) — until
/// roughly `goal_bytes` are freed. Returns the bytes actually freed.
#[allow(clippy::too_many_arguments)]
fn delete_cohort(
    rng: &mut StdRng,
    live: &mut Ledger,
    today: u32,
    age_bias: f64,
    goal_bytes: u64,
    created_today: &CreatedToday,
    ops: &mut DayOps,
) -> u64 {
    if live.files.is_empty() {
        return 0;
    }
    let at = pick_victim(rng, &live.files, today, age_bias);
    let anchor = live.files[at];
    let mut idxs = live.cohort(anchor.cg, anchor.born_day);
    // Keep a random 60-100 % of the cohort as victims: directory
    // cleanups mostly take whole project trees with them.
    let keep = 0.6 + 0.4 * rng.gen::<f64>();
    idxs.retain(|_| rng.gen::<f64>() < keep);
    if idxs.is_empty() {
        idxs.push(at);
    }
    // Delete from the highest index down so swap_remove stays valid.
    idxs.sort_unstable_by(|a, b| b.cmp(a));
    let base_t: f64 = rng.gen();
    let mut freed = 0u64;
    for idx in idxs {
        if freed >= goal_bytes {
            break;
        }
        let f = live.swap_remove(idx);
        freed += u64::from(f.size);
        let t = match created_today.get(f.id) {
            Some(ct) => ct.max(base_t) + 1e-6,
            None => (base_t + 0.01 * rng.gen::<f64>()).min(1.5),
        };
        ops.push(t, Op::Delete { file: f.id });
    }
    freed
}

/// The `k` groups with the most creates in `counts` (ties broken toward
/// lower indices), padded with round-robin groups when fewer are active.
fn hottest_groups(counts: &[u32], k: usize) -> Vec<CgIdx> {
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(counts[g]));
    (0..k)
        .map(|i| CgIdx(order[i % order.len()] as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small() -> Workload {
        let c = AgingConfig::small_test(20, 11);
        generate(&c, 4, 14 << 20)
    }

    /// Merges `times` (op `i` pushed at `times[i]`) and checks the result
    /// against a stable sort by `total_cmp` over the pushes — the scheme
    /// the generator used first.
    fn assert_merge_is_stable_sort(times: &[f64]) {
        let mut day = DayOps::default();
        let mut reference: Vec<(f64, Op)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let op = Op::Rewrite {
                file: FileId(i as u32),
            };
            day.push(t, op);
            reference.push((t, op));
        }
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expect: Vec<Op> = reference.into_iter().map(|(_, op)| op).collect();
        assert_eq!(day.take_sorted(), expect);
        // The buffers are left empty for the next day.
        assert_eq!(day.take_sorted(), Vec::new());
    }

    #[test]
    fn merge_matches_stable_sort_reference() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        // Coarse timestamps force plenty of ties, and the negative,
        // signed-zero and past-one values the key mapping must order as
        // `total_cmp` does.
        let coarse: Vec<f64> = (0..800)
            .map(|_| match rng.gen_range(0..8) {
                0 => -(rng.gen_range(0..4) as f64) / 3.0,
                1 => -0.0,
                2 => 0.0,
                3 => 1.0 + rng.gen_range(0..4) as f64 / 7.0,
                _ => rng.gen_range(0..50) as f64 / 25.0,
            })
            .collect();
        assert_merge_is_stable_sort(&coarse);
        // A day's shape: uniform times, each sometimes followed by one
        // 1e-6 later (a modify's delete and re-create) or by an exact
        // repeat. The pairs share their 22-bit prefix but not their key.
        let mut day = Vec::new();
        for _ in 0..3000 {
            let t: f64 = rng.gen();
            day.push(t);
            match rng.gen_range(0..4) {
                0 => day.push(t + 1e-6),
                1 => day.push(t),
                _ => {}
            }
        }
        assert_merge_is_stable_sort(&day);
        // Keys differing only in bits the prefix drops: one long run,
        // ordered entirely by the full keys.
        let ulps: Vec<f64> = (0..500)
            .map(|_| f64::from_bits(0.5f64.to_bits() + rng.gen_range(0..1u64 << 30)))
            .chain([1.0e-300, 1.0e300])
            .collect();
        assert_merge_is_stable_sort(&ulps);
        // A span narrower than the prefix: no bit dropped, no run pass.
        let narrow: Vec<f64> = (0..500)
            .map(|_| f64::from_bits(0.25f64.to_bits() + rng.gen_range(0..64u64)))
            .collect();
        assert_merge_is_stable_sort(&narrow);
        for edge in [
            &[][..],
            &[0.5],
            &[0.5, 0.5, 0.5],
            &[f64::NAN, -f64::NAN, 0.0],
        ] {
            assert_merge_is_stable_sort(edge);
        }
    }

    /// Checks every (group, birth day) window of `ledger` against the
    /// linear filter the index replaced, and the index's own pointers.
    fn assert_index_matches_scan(ledger: &mut Ledger, ncg: u32, days: u32) {
        for (b, bucket) in ledger.buckets.iter().enumerate() {
            for (slot, &p) in bucket.iter().enumerate() {
                let f = ledger.files[p as usize];
                assert_eq!(
                    ledger.bucket(f.cg, f.born_day),
                    b,
                    "position {p} in the wrong bucket"
                );
                assert_eq!(f.slot as usize, slot, "position {p}'s back-pointer");
            }
        }
        let indexed: usize = ledger.buckets.iter().map(Vec::len).sum();
        assert_eq!(indexed, ledger.len(), "every live file is indexed once");
        for cg in (0..ncg).map(CgIdx) {
            for born in 0..days {
                let scan: Vec<usize> = ledger
                    .files
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.cg == cg && f.born_day.abs_diff(born) <= 2)
                    .map(|(i, _)| i)
                    .collect();
                let before = ledger.examined;
                assert_eq!(
                    ledger.cohort(cg, born),
                    scan,
                    "cohort of {cg:?} around day {born}"
                );
                assert_eq!(ledger.examined - before, scan.len() as u64);
            }
        }
    }

    #[test]
    fn cohort_index_matches_the_linear_scan() {
        let (ncg, days) = (3, 9);
        let mut rng = StdRng::seed_from_u64(0x1ED6E2);
        let mut ledger = Ledger::new(ncg, days);
        let mut next = 0u32;
        let mut file = |rng: &mut StdRng| {
            next += 1;
            LiveFile {
                id: FileId(next),
                size: 1,
                born_day: rng.gen_range(0..days),
                last_touch: 0,
                cg: CgIdx(rng.gen_range(0..ncg)),
                slot: 0,
            }
        };
        for step in 0..600 {
            match rng.gen_range(0..6) {
                0 | 1 => ledger.push(file(&mut rng)),
                2 if ledger.len() > 0 => {
                    let pos = rng.gen_range(0..ledger.len());
                    ledger.swap_remove(pos);
                }
                3 if ledger.len() > 0 => {
                    // The last entry: nothing moves into its place.
                    let last = ledger.files[ledger.len() - 1];
                    assert_eq!(ledger.swap_remove(ledger.len() - 1).id, last.id);
                }
                4 if ledger.len() > 0 => {
                    // A modify: a new file, usually born in another bucket.
                    let pos = rng.gen_range(0..ledger.len());
                    let f = file(&mut rng);
                    ledger.replace(pos, f);
                    assert_eq!(ledger.files[pos].id, f.id);
                }
                _ => {
                    let pos = rng.gen_range(0..ledger.len().max(1));
                    if let Some(f) = ledger.files.get_mut(pos) {
                        f.last_touch = step;
                    }
                }
            }
            assert_index_matches_scan(&mut ledger, ncg, days);
        }
        // Drain it through the middle, then the ends.
        while ledger.len() > 0 {
            let pos = [0, ledger.len() / 2, ledger.len() - 1][ledger.len() % 3];
            ledger.swap_remove(pos);
            assert_index_matches_scan(&mut ledger, ncg, days);
        }
    }

    #[test]
    fn op_is_sixteen_bytes() {
        // `ffsbench age-smallfile` holds six workloads, 4.7 M ops: each
        // byte here is 4.7 MB of its `peak_rss_mb`.
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = AgingConfig::small_test(10, 5);
        let a = generate(&c, 4, 14 << 20);
        let b = generate(&c, 4, 14 << 20);
        assert_eq!(a.days.len(), b.days.len());
        for (x, y) in a.days.iter().zip(&b.days) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&AgingConfig::small_test(5, 1), 4, 14 << 20);
        let b = generate(&AgingConfig::small_test(5, 2), 4, 14 << 20);
        assert_ne!(a.days[1], b.days[1]);
    }

    #[test]
    fn deletes_follow_creates() {
        let w = small();
        let mut created = BTreeSet::new();
        let mut deleted = BTreeSet::new();
        for d in &w.days {
            for op in &d.ops {
                match *op {
                    Op::Create { file, size, .. } => {
                        assert!(created.insert(file), "file reused: {file:?}");
                        assert!(size >= 1);
                    }
                    Op::Delete { file } => {
                        assert!(created.contains(&file), "delete before create");
                        assert!(deleted.insert(file), "double delete: {file:?}");
                    }
                    Op::Rewrite { file } => {
                        assert!(created.contains(&file), "rewrite before create");
                    }
                }
            }
        }
        assert!(!created.is_empty());
    }

    #[test]
    fn short_lived_files_die_same_day() {
        let w = small();
        for d in &w.days {
            let mut open: BTreeSet<FileId> = BTreeSet::new();
            for op in &d.ops {
                match *op {
                    Op::Create {
                        file,
                        kind: Lifetime::Short,
                        ..
                    } => {
                        open.insert(file);
                    }
                    Op::Delete { file } => {
                        open.remove(&file);
                    }
                    _ => {}
                }
            }
            assert!(
                open.is_empty(),
                "day {}: short-lived files survived: {open:?}",
                d.day
            );
        }
    }

    #[test]
    fn utilization_ledger_stays_under_peak() {
        let w = small();
        let mut live = 0i64;
        let mut sizes = std::collections::BTreeMap::new();
        let cap = w.capacity_bytes as f64;
        for d in &w.days {
            for op in &d.ops {
                match *op {
                    Op::Create { file, size, .. } => {
                        live += size as i64;
                        sizes.insert(file, size);
                    }
                    Op::Delete { file } => {
                        live -= sizes[&file] as i64;
                    }
                    Op::Rewrite { .. } => {}
                }
            }
            let util = live as f64 / cap;
            assert!(
                util < w.config.peak_util + 0.12,
                "day {} utilization {util:.2} exceeds bound",
                d.day
            );
        }
    }

    #[test]
    fn utilization_ramps_up() {
        let w = small();
        let mut live = 0i64;
        let mut sizes = std::collections::BTreeMap::new();
        let mut series = Vec::new();
        for d in &w.days {
            for op in &d.ops {
                match *op {
                    Op::Create { file, size, .. } => {
                        live += size as i64;
                        sizes.insert(file, size);
                    }
                    Op::Delete { file } => {
                        live -= sizes[&file] as i64;
                    }
                    Op::Rewrite { .. } => {}
                }
            }
            series.push(live as f64 / w.capacity_bytes as f64);
        }
        // Day 0 near the initial utilization; the end well above it.
        assert!(series[0] < 0.25, "day-0 util {}", series[0]);
        assert!(
            series.last().unwrap() > &0.45,
            "final util {}",
            series.last().unwrap()
        );
    }

    #[test]
    fn ops_touch_every_group() {
        let w = small();
        let mut groups = BTreeSet::new();
        for d in &w.days {
            for op in &d.ops {
                if let Op::Create { cg, .. } = *op {
                    groups.insert(cg.0);
                }
            }
        }
        assert_eq!(groups.len(), 4, "groups touched: {groups:?}");
    }

    #[test]
    fn day_count_matches_config() {
        let w = small();
        assert_eq!(w.days.len(), 20);
        for (i, d) in w.days.iter().enumerate() {
            assert_eq!(d.day as usize, i);
        }
    }
}
