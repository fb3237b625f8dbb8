//! Our allocator and the reference side by side, op by op: the
//! create/remove streams and the aging replay of the decision oracles.

use super::{Cg, RefFile, RefFs, Sb, Switches};
use ffs::{free_space_stats, recompute_aggregate, AllocPolicy, AllocStats, CylGroup, Filesystem};
use ffs_types::{CgIdx, DirId, FsError, FsParams, Ino, KB, MB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The policy and the placement switch of variant `i` of 4.
pub fn variant(i: u32) -> Switches {
    Switches {
        realloc: i & 1 != 0,
        frag_bestfit: i & 2 != 0,
    }
}

/// A volume and its reference, op by op.
pub struct Pair {
    pub fs: Filesystem,
    sb: Sb,
    sw: Switches,
    pub dirs: Vec<DirId>,
    /// Our groups as the last op left them, and their bytes: the
    /// reference's next start.
    groups: Vec<CylGroup>,
    cgs: Vec<Cg>,
    pub ops: u32,
}

impl Pair {
    /// A fresh volume and its reference, on which the reference makes
    /// `mkdir_per_cg`'s directories, one per group in group order.
    pub fn new(params: &FsParams, sw: Switches) -> Pair {
        let policy = [AllocPolicy::Orig, AllocPolicy::Realloc][usize::from(sw.realloc)];
        let mut fs = Filesystem::new(params.clone(), policy);
        fs.set_frag_bestfit(sw.frag_bestfit);
        let sb = Sb::new(params);
        let groups: Vec<_> = (0..params.ncg).map(|g| fs.cg(CgIdx(g)).clone()).collect();
        let cgs = groups.iter().map(|cg| Cg::encode(&sb, cg)).collect();
        let mut p = Pair {
            fs,
            sb,
            sw,
            dirs: Vec::new(),
            groups,
            cgs,
            ops: 0,
        };
        for g in 0..params.ncg {
            p.make_dir(Some(g)).unwrap_or_else(|e| panic!("{e}"));
        }
        p
    }

    /// After op `what` both sides hold the same bytes and have counted
    /// the same allocation decisions. Every group the op changed holds
    /// derived tables equal to our recount and, after a remove,
    /// summaries equal to the reference's; the layout aggregate equals
    /// its recount, and after a remove the volume statistics agree too.
    /// Ours become the next op's start.
    fn settle(
        &mut self,
        what: &str,
        r: (Vec<Cg>, AllocStats),
        removed: bool,
    ) -> Result<(), String> {
        let at = format!("op {} ({what})", self.ops);
        for (g, b) in r.0.iter().enumerate() {
            // A group equal to its state before the op encodes as then.
            let cg = self.fs.cg(CgIdx(g as u32));
            if *cg != self.groups[g] {
                self.groups[g] = cg.clone();
                self.cgs[g] = Cg::encode(&self.sb, cg);
                assert_eq!(cg.derived_drift(), [], "{at}: group {g}");
                let a = &self.cgs[g];
                if removed {
                    assert_eq!(a.summary(), a.recount(), "{at}: group {g}");
                }
            }
            if let Some(d) = self.cgs[g].diff(b) {
                return Err(format!("{at}: group {g}: {d} (ours vs ref)"));
            }
        }
        if *self.fs.alloc_stats() != r.1 {
            let (a, b) = (self.fs.alloc_stats(), &r.1);
            return Err(format!("{at}: alloc stats {a:?} vs {b:?} (ours vs ref)"));
        }
        let agg = recompute_aggregate(&self.fs);
        assert_eq!(self.fs.aggregate_layout(), agg, "{at}: layout aggregate");
        let hist = [0, 8, 64, 4096][self.ops as usize % 4];
        let want = removed.then(|| super::free_space_stats(&self.sb, &self.cgs, hist));
        let got = removed.then(|| free_space_stats(&self.fs, hist));
        assert_eq!(got, want, "{at}");
        self.ops += 1;
        Ok(())
    }

    /// The reference at our state before the op: the groups' bytes and
    /// the decision counts.
    fn reference(&self) -> RefFs<'_> {
        RefFs {
            sb: &self.sb,
            cgs: self.cgs.clone(),
            sw: self.sw,
            stats: self.fs.alloc_stats().clone(),
        }
    }

    /// Whether our outcome of op `what` is the reference's.
    fn same(
        &self,
        what: &str,
        ours: Result<RefFile, &FsError>,
        want: &Result<RefFile, &str>,
    ) -> Result<(), String> {
        let differs = match (ours, want) {
            (Ok(a), Ok(b)) => a.diff(b),
            (Err(FsError::NoSpace { .. }), Err("no space")) => None,
            (Err(FsError::NoInodes), Err("no inodes")) => None,
            (Ok(a), Err(e)) => Some(format!("inode {} vs {e}", a.ino)),
            (Err(e), Ok(b)) => Some(format!("{e} vs inode {}", b.ino)),
            (Err(e), Err(w)) => Some(format!("{e} vs {w}")),
        };
        match differs {
            Some(d) => Err(format!("op {} ({what}): {d} (ours vs ref)", self.ops)),
            None => Ok(()),
        }
    }

    /// Makes a directory on both sides, in group `pin` or, with none,
    /// where `ffs_dirpref` puts it, and appends it to `dirs`.
    fn make_dir(&mut self, pin: Option<u32>) -> Result<(), String> {
        let mut r = self.reference();
        let g = pin.unwrap_or_else(|| r.dirpref());
        let want = r.mkdir(g);
        let after = (r.cgs, r.stats);
        let got = match pin {
            Some(g) => self.fs.mkdir_in(CgIdx(g)),
            None => self.fs.mkdir(),
        };
        let ipg = self.fs.params().inodes_per_cg();
        let ours = got
            .as_ref()
            .map(|&id| RefFile::of_dir(self.fs.dir(id).unwrap(), ipg));
        let what = format!("mkdir with ipref in group {g}");
        self.same(&what, ours, &want)?;
        self.settle(&what, after, false)?;
        self.dirs.extend(got.ok());
        Ok(())
    }

    /// `mkdir`: a directory where `ffs_dirpref` puts it.
    pub fn mkdir(&mut self) -> Result<(), String> {
        self.make_dir(None)
    }

    pub fn create(&mut self, dir: usize, size: u64, day: u32) -> Result<Option<Ino>, String> {
        let what = format!("create of {size} bytes in directory {dir}");
        let d = self.fs.dir(self.dirs[dir]).unwrap().clone();
        let dir_ino = d.cg.0 * self.fs.params().inodes_per_cg() + d.ino_slot;
        let mut r = self.reference();
        let want = r.create(dir_ino, size);
        let after = (r.cgs, r.stats);
        let got = self.fs.create(d.id, size, day);
        let ours = got.as_ref().map(|&i| RefFile::of(self.fs.file(i).unwrap()));
        self.same(&what, ours, &want)?;
        self.settle(&what, after, false)?;
        Ok(got.ok())
    }

    pub fn remove(&mut self, ino: Ino) -> Result<(), String> {
        let mut r = self.reference();
        r.remove(&RefFile::of(self.fs.file(ino).unwrap()));
        let after = (r.cgs, r.stats);
        self.fs.remove(ino).unwrap();
        self.settle(&format!("remove {ino:?}"), after, true)
    }
}

/// 12 MB of 1 KB blocks in four groups: `nindir` is 256, so mid-sized
/// files cross the single and double indirect switches.
pub fn tiny_blocks() -> FsParams {
    FsParams {
        size_bytes: 12 * MB,
        bsize: KB as u32,
        fsize: (KB / 8) as u32,
        ncg: 4,
        bytes_per_inode: 16 * KB as u32,
        ..FsParams::small_test()
    }
}

/// `ops` random creates, removes and `mkdir`s of variant `i`, drawn
/// from `seed`, on a nearly full volume: small files with tails, files
/// across the indirect switches and the write chunk, creates too big for
/// what is left (they roll back), and now and then a directory where
/// `ffs_dirpref` puts it, which half the creates after it go into.
/// Counts into `reached` the creates that failed for space, reached a
/// double indirect and crossed a write chunk.
pub fn stream(
    params: &FsParams,
    i: u32,
    (seed, ops): (u64, u32),
    reached: &mut [u32; 3],
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pair::new(params, variant(i));
    let bsize = params.bsize as u64;
    let chunk = (4 * MB / bsize).max(params.maxcontig as u64);
    let mut live: Vec<Ino> = Vec::new();
    for day in 0..ops {
        if !live.is_empty() && rng.gen_bool(0.3 + 0.4 * p.fs.utilization()) {
            p.remove(live.swap_remove(rng.gen_range(0..live.len())))?;
            continue;
        }
        if rng.gen_bool(1.0 / 16.0) {
            p.mkdir()?;
            continue;
        }
        let blocks = match rng.gen_range(0u32..20) {
            0..=7 => rng.gen_range(0u64..12),
            8..=14 => rng.gen_range(12..320),
            15..=16 => rng.gen_range(320..1500),
            17..=18 => rng.gen_range(chunk - 40..chunk + 300),
            _ => p.fs.free_blocks() + rng.gen_range(1u64..50),
        };
        let size = blocks * bsize + rng.gen_range(0..bsize);
        let newest = p.dirs.len() - 1;
        let dir = match rng.gen_bool(0.5) {
            true => newest,
            false => rng.gen_range(0..p.dirs.len()),
        };
        let Some(ino) = p.create(dir, size, day)? else {
            reached[0] += 1;
            continue;
        };
        live.push(ino);
        reached[1] += u32::from(p.fs.file(ino).unwrap().indirects().len() >= 3);
        reached[2] += u32::from(blocks > chunk);
    }
    Ok(())
}
