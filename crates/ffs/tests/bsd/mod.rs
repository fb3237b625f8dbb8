//! A 4.4BSD reference for the allocator, for tests only (DESIGN.md,
//! "The 4.4BSD reference"). It sees a cylinder group only as its
//! on-disk `struct cg` bytes, which [`Cg::encode`] alone builds from a
//! group's public accessors, and works on them with the kernel's idioms:
//! `ffs_isblock` on a whole map byte, `setbit`, `ffs_fragacct`,
//! `ffs_clusteracct`. It answers every free-space query and recount, and
//! ([`RefFs`]) places directories by `ffs_dirpref` and `ufs_mkdir`,
//! creates files block by block in `ffs_balloc` order and removes them
//! through `ffs_blkfree` / `ffs_vfree`. It has one reading
//! of each: 4.4BSD-Lite's, with our placement switch (`frag_bestfit`).
//! [`pair`] runs ours and the reference side by side.

// Each test binary that declares this module uses only part of it.
#![allow(dead_code)]

pub mod pair;

use ffs::geom::DIR_FRAGS;
use ffs::{AllocStats, CylGroup, DirMeta, FileMeta, Filesystem, FreeSpaceStats};
use ffs_types::{CgIdx, FsParams};

const NDADDR: u32 = 12;
/// `sizeof (struct dirtemplate)`: the `.` and `..` entries `ufs_mkdir`
/// writes into a new directory.
const DIRTEMPLATE: u64 = 24;
/// `fs_frag`: a block is one byte of `cg_blksfree`, as on every volume
/// ours builds.
const FS_FRAG: u32 = 8;

// `struct cg` header offsets.
const CS_NDIR: usize = 24;
const CS_NBFREE: usize = 28;
const CS_NIFREE: usize = 32;
const CS_NFFREE: usize = 36;
const ROTOR: usize = 40;
const FROTOR: usize = 44;
const IROTOR: usize = 48;
const FRSUM: usize = 52;
const NCLUSTERBLKS: usize = 112;
const SPACE: usize = 168;
/// The header's 32-bit fields before `cg_frsum`, as `struct cg` names
/// them, one per four bytes.
const FIELDS: &str = "cg_firstfield cg_magic cg_time cg_cgx cg_ncyl cg_ndblk cs_ndir cs_nbfree \
                      cs_nifree cs_nffree cg_rotor cg_frotor cg_irotor";

/// The superblock constants the reference reads.
#[derive(Clone, Debug)]
pub struct Sb {
    ncg: u32,
    fpg: u32,
    ipg: u32,
    pub maxcontig: u32,
    /// Pointers per indirect block, also `fs_maxbpg`'s default.
    nindir: u32,
    bsize: u64,
    fsize: u64,
    /// Blocks per application write: the realloc flush period.
    chunk: u32,
}

impl Sb {
    pub fn new(p: &FsParams) -> Sb {
        Sb {
            ncg: p.ncg,
            fpg: p.blocks_per_cg() * FS_FRAG,
            ipg: p.inodes_per_cg(),
            maxcontig: p.maxcontig.max(1),
            nindir: p.bsize / 4,
            bsize: p.bsize.into(),
            fsize: p.fsize.into(),
            chunk: ((4 << 20) / p.bsize).max(p.maxcontig),
        }
    }

    fn dtog(&self, d: u32) -> u32 {
        (d / self.fpg).min(self.ncg - 1)
    }

    /// Block `h` of group `g` as a fragment address, and back.
    fn daddr(&self, g: u32, h: u32) -> u32 {
        g * self.fpg + h * FS_FRAG
    }

    fn block(&self, g: u32, d: u32) -> u32 {
        (d - g * self.fpg) / FS_FRAG
    }
}

/// One cylinder group as `struct cg` bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cg {
    bytes: Vec<u8>,
    meta: u32,
    ipg: u32,
    cap: u32,
    /// `cg_freeoff`, `cg_clustersumoff` and `cg_clusteroff`.
    freeoff: usize,
    sumoff: usize,
    clusteroff: usize,
}

/// Every summary a group stores, or its recount: `cg_cs` less `cs_ndir`,
/// `cg_frsum[1..fs_frag]`, `cg_clustersum[1..]` and `cg_clustersfree`.
#[derive(Debug, PartialEq, Eq)]
pub struct Summary {
    nbfree: u32,
    nffree: u32,
    nifree: u32,
    frsum: Vec<u32>,
    clustersum: Vec<u32>,
    clustersfree: Vec<u8>,
}

impl Cg {
    /// The group's `struct cg`, from its public accessors alone.
    pub fn encode(sb: &Sb, cg: &CylGroup) -> Cg {
        let (n, cap) = (cg.nblocks(), sb.maxcontig);
        let freeoff = SPACE + sb.ipg.div_ceil(8) as usize;
        let nfrags = (n * FS_FRAG) as usize;
        let sumoff = (freeoff + nfrags.div_ceil(8)).next_multiple_of(4);
        let clusteroff = sumoff + 4 * (cap as usize + 1);
        let end = clusteroff + n.div_ceil(8) as usize;
        let mut c = Cg {
            bytes: vec![0; end],
            meta: cg.meta_blocks(),
            ipg: sb.ipg,
            cap,
            freeoff,
            sumoff,
            clusteroff,
        };
        let nffree = cg.free_frags().wrapping_sub(cg.free_blocks() * FS_FRAG);
        let header = [
            (4, 0x0009_0255), // CG_MAGIC
            (12, cg.idx().0),
            (20, n * FS_FRAG),
            (CS_NDIR, cg.ndirs()),
            (CS_NBFREE, cg.free_blocks()),
            (CS_NIFREE, cg.free_inodes()),
            (CS_NFFREE, nffree),
            (ROTOR, cg.rotor() * FS_FRAG),
            (FROTOR, cg.frotor() * FS_FRAG),
            (IROTOR, cg.irotor()),
            (92, SPACE as u32), // cg_iusedoff
            (96, freeoff as u32),
            (100, end as u32), // cg_nextfreeoff
            (104, sumoff as u32),
            (108, clusteroff as u32),
            (NCLUSTERBLKS, n),
        ];
        header.into_iter().for_each(|(off, v)| c.set(off, v));
        for (k, &v) in cg.frag_summary().iter().enumerate() {
            c.set(FRSUM + 4 * (k + 1), v);
        }
        for (k, &v) in cg.cluster_summary().iter().enumerate() {
            c.set(sumoff + 4 * (k + 1), v);
        }
        // `cg_blksfree` is the complement of our map, byte for byte.
        let free = cg.frag_words().iter().flat_map(|w| (!w).to_le_bytes());
        let map = &mut c.bytes[freeoff..freeoff + nfrags.div_ceil(8)];
        map.iter_mut().zip(free).for_each(|(b, f)| *b = f);
        map[nfrags / 8..]
            .iter_mut()
            .for_each(|b| *b &= !(0xff << (nfrags % 8)));
        (0..sb.ipg).for_each(|s| c.put(SPACE, s, cg.inode_used(s)));
        for (s, r) in cg.free_runs() {
            (s..s + r).for_each(|h| c.put(clusteroff, h, true));
        }
        c
    }

    fn get(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    fn set(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn add(&mut self, off: usize, d: i32) {
        self.set(off, self.get(off).wrapping_add_signed(d));
    }

    /// `isset` on the map at `at`.
    fn bit(&self, at: usize, i: u32) -> bool {
        self.bytes[at + (i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// `setbit` (`on`) or `clrbit` on the map at `at`.
    fn put(&mut self, at: usize, i: u32, on: bool) {
        let (b, m) = (&mut self.bytes[at + (i / 8) as usize], 1 << (i % 8));
        *b = if on { *b | m } else { *b & !m };
    }

    /// Block `h`'s bit in `cg_clustersfree`.
    fn free(&self, h: u32) -> bool {
        self.bit(self.clusteroff, h)
    }

    pub fn nblocks(&self) -> u32 {
        self.get(NCLUSTERBLKS)
    }

    /// `blkmap`: block `h`'s byte of `cg_blksfree`, fragment `i` free at
    /// bit `i`.
    fn blkmap(&self, h: u32) -> u32 {
        u32::from(self.bytes[self.freeoff + h as usize])
    }

    /// `ffs_isblock`: every fragment of block `h` is free.
    pub fn isblock(&self, h: u32) -> bool {
        self.blkmap(h) == 0xff
    }

    /// `ffs_setblock` (`free`) or `ffs_clrblock`.
    fn setblock(&mut self, h: u32, free: bool) {
        self.bytes[self.freeoff + h as usize] = if free { 0xff } else { 0 };
    }

    fn clustersum(&self, k: u32) -> usize {
        self.sumoff + 4 * k as usize
    }

    /// The summaries as stored.
    pub fn summary(&self) -> Summary {
        Summary {
            nbfree: self.get(CS_NBFREE),
            nffree: self.get(CS_NFFREE),
            nifree: self.get(CS_NIFREE),
            frsum: (1..FS_FRAG)
                .map(|k| self.get(FRSUM + 4 * k as usize))
                .collect(),
            clustersum: (1..=self.cap)
                .map(|k| self.get(self.clustersum(k)))
                .collect(),
            clustersfree: self.bytes[self.clusteroff..].to_vec(),
        }
    }

    /// Every summary recounted from `cg_blksfree` and the inode map.
    pub fn recount(&self) -> Summary {
        let n = self.nblocks();
        let mut s = Summary {
            nbfree: 0,
            nffree: 0,
            nifree: (0..self.ipg).filter(|&i| !self.bit(SPACE, i)).count() as u32,
            frsum: vec![0; FS_FRAG as usize],
            clustersum: vec![0; self.cap as usize + 1],
            clustersfree: vec![0; n.div_ceil(8) as usize],
        };
        let mut run = 0;
        for h in 0..=n {
            if h < n && self.isblock(h) {
                s.nbfree += 1;
                s.clustersfree[(h / 8) as usize] |= 1 << (h % 8);
                run += 1;
                continue;
            }
            if run > 0 {
                s.clustersum[run.min(self.cap) as usize] += 1;
                run = 0;
            }
            if h < n {
                s.nffree += self.blkmap(h).count_ones();
                fragacct(self.blkmap(h), |siz| s.frsum[siz as usize] += 1);
            }
        }
        s.frsum.remove(0);
        s.clustersum.remove(0);
        s
    }

    /// The first field where the two differ, by its `struct cg` name.
    pub fn diff(&self, other: &Cg) -> Option<String> {
        if self.bytes == other.bytes {
            return None;
        }
        let o = (0..self.bytes.len()).find(|&o| self.bytes[o] != other.bytes[o])?;
        let (a, b, k) = (self.bytes[o], other.bytes[o], o & !3);
        let word = format!("{} vs {}", self.get(k), other.get(k));
        Some(match o {
            o if o < FRSUM => format!("{}: {word}", FIELDS.split_whitespace().nth(o / 4).unwrap()),
            o if o < FRSUM + 32 => format!("cg_frsum[{}]: {word}", (o - FRSUM) / 4),
            o if o < SPACE => format!("header offset {k}: {word}"),
            o if o < self.freeoff => format!(
                "cg_iused, slots {}..: {a:#04x} vs {b:#04x}",
                (o - SPACE) * 8
            ),
            o if o < self.sumoff => {
                let f = (o - self.freeoff) as u32 * 8;
                format!(
                    "cg_blksfree, frags {f}.. (block {}): {a:#04x} vs {b:#04x}",
                    f / FS_FRAG
                )
            }
            o if o < self.clusteroff => format!("cg_clustersum[{}]: {word}", (o - self.sumoff) / 4),
            o => format!(
                "cg_clustersfree, blocks {}..: {a:#04x} vs {b:#04x}",
                (o - self.clusteroff) * 8
            ),
        })
    }

    // ---- Queries ------------------------------------------------------

    /// Where a search from `from` starts: `from`, or the front of the
    /// data area past the group's end.
    fn start(&self, from: u32) -> u32 {
        if from < self.nblocks() {
            from
        } else {
            self.meta
        }
    }

    /// `ffs_mapsearch` for a whole block: the first free block from the
    /// start, wrapping once.
    pub fn mapsearch_block(&self, from: u32) -> Option<u32> {
        let s = self.start(from);
        (s..self.nblocks()).chain(0..s).find(|&h| self.isblock(h))
    }

    /// `cg_clustersum` has a run of `len` or more (the last bucket
    /// pools every run of `contigsumsize` or more).
    fn clustersum_fits(&self, len: u32) -> bool {
        (len.min(self.cap)..=self.cap).any(|k| self.get(self.clustersum(k)) > 0)
    }

    /// `ffs_clusteralloc`'s scan of `cg_clustersfree`: the first run of
    /// `len` in `[lo, hi)`, a run clipped at both ends.
    fn cluster_scan(&self, lo: u32, hi: u32, len: u32) -> Option<u32> {
        let mut run = 0;
        for got in lo..hi.min(self.nblocks()) {
            run = (run + 1) * u32::from(self.free(got));
            if run == len {
                return Some(got + 1 - len);
            }
        }
        None
    }

    pub fn is_cluster_free(&self, h: u32, len: u32) -> bool {
        let n = self.nblocks();
        len == 0 || (h < n && n - h >= len && (h..h + len).all(|b| self.free(b)))
    }

    /// `ffs_clusteralloc`: the first run of `len` free blocks from the
    /// start to the group's end.
    pub fn clusteralloc(&self, from: u32, len: u32) -> Option<u32> {
        let n = self.nblocks();
        if len == 0 || n == 0 || !self.clustersum_fits(len) {
            return None;
        }
        self.cluster_scan(self.start(from), n, len)
    }

    /// The maximal runs of `cg_clustersfree` from `lo` on, a run across
    /// `lo` counted from it.
    fn runs_from(&self, lo: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut h = lo;
        std::iter::from_fn(move || {
            while h < self.nblocks() && !self.free(h) {
                let byte = self.bytes[self.clusteroff + h as usize / 8];
                h += if h.is_multiple_of(8) && byte == 0 {
                    8
                } else {
                    1
                };
            }
            (h < self.nblocks()).then(|| {
                let run = (h, self.free_len_after(h, u32::MAX) + 1);
                h += run.1;
                run
            })
        })
    }

    /// The smallest of `runs` of at least `len` (ties toward lower
    /// addresses, an exact fit at once); a fitting run at or past `lim`
    /// ends the search with what came before it, or itself.
    fn best_fit(runs: impl Iterator<Item = (u32, u32)>, len: u32, lim: u32) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None;
        for (rs, rl) in runs.filter(|r| r.1 >= len) {
            if rs >= lim {
                return Some(best.map_or(rs, |b| b.1));
            }
            if rl == len {
                return Some(rs);
            }
            if best.is_none_or(|b| rl < b.0) {
                best = Some((rl, rs));
            }
        }
        best.map(|b| b.1)
    }

    /// Our windowed best fit (`find_free_cluster_near`, which no
    /// placement calls): the best-fitting run starting within `window`
    /// blocks of the start, else the first fit beyond, else the first fit
    /// from the front (runs across the start too). From block 0 with no
    /// limit it is the group-wide best fit.
    pub fn cluster_near(&self, from: u32, len: u32, window: u32) -> Option<u32> {
        let n = self.nblocks();
        if len == 0 || n == 0 || !self.clustersum_fits(len) {
            return None;
        }
        let s = self.start(from);
        let lim = s.saturating_add(window).min(n);
        Self::best_fit(self.runs_from(s), len, lim)
            .or_else(|| self.cluster_scan(0, s + len.min(n) - 1, len))
    }

    /// Our first-fit fragment search: the first block from the start,
    /// wrapping once, with `len` free fragments in a row (a free block
    /// too), and the first such run in it.
    pub fn frag_first_fit(&self, from: u32, len: u32) -> Option<(u32, u32)> {
        let (s, want) = (self.start(from), (1 << len) - 1);
        let blocks = (s..self.nblocks()).chain(0..s).filter(|&h| h >= self.meta);
        blocks.map(|h| (h, self.blkmap(h))).find_map(|(h, map)| {
            let p = (0..=FS_FRAG - len).find(|&p| map >> p & want == want);
            p.map(|p| (h, p))
        })
    }

    /// `ffs_alloccg`'s `allocsiz` loop over `cg_frsum`, then
    /// `ffs_mapsearch` for a run of exactly that size, bounded by used
    /// fragments or the block's edges (`around` / `inside`). `None` when
    /// no partial block has a run of `len` or more.
    pub fn frag_best_fit(&self, from: u32, len: u32) -> Option<(u32, u32)> {
        let allocsiz = (len..FS_FRAG).find(|&k| self.get(FRSUM + 4 * k as usize) > 0)?;
        let s = self.start(from);
        let (around, inside) = ((1u32 << (allocsiz + 2)) - 1, ((1u32 << allocsiz) - 1) << 1);
        let blocks = (s..self.nblocks()).chain(0..s);
        blocks
            .flat_map(|h| (0..=FS_FRAG - allocsiz).map(move |p| (h, p)))
            .find(|&(h, p)| (self.blkmap(h) << 1) & (around << p) == inside << p)
    }

    /// `ffs_clusteracct`'s backward scan: free blocks right below `h`, at
    /// most `cap`.
    pub fn free_len_before(&self, h: u32, cap: u32) -> u32 {
        let end = h.saturating_sub(cap);
        (end..h).rev().take_while(|&i| self.free(i)).count() as u32
    }

    /// `ffs_clusteracct`'s forward scan: free blocks right above `h`, at
    /// most `cap` (a whole free map byte at a time, as `scanc` goes).
    pub fn free_len_after(&self, h: u32, cap: u32) -> u32 {
        let start = h.saturating_add(1);
        let (end, mut i) = (start.saturating_add(cap).min(self.nblocks()), start);
        while i < end && self.free(i) {
            let byte = self.bytes[self.clusteroff + i as usize / 8];
            let whole = i.is_multiple_of(8) && end - i >= 8 && byte == 0xff;
            i += if whole { 8 } else { 1 };
        }
        i - start
    }

    // ---- Mutations ----------------------------------------------------

    /// `ffs_clusteracct`: block `h` joins (`cnt` 1) or leaves (-1) the
    /// free clusters.
    fn clusteracct(&mut self, h: u32, cnt: i32) {
        self.put(self.clusteroff, h, cnt > 0);
        let forw = self.free_len_after(h, self.cap);
        let back = self.free_len_before(h, self.cap);
        self.add(self.clustersum((back + forw + 1).min(self.cap)), cnt);
        for side in [back, forw].into_iter().filter(|&r| r > 0) {
            self.add(self.clustersum(side), -cnt);
        }
    }

    /// `ffs_fragacct` of block `h`'s map into `cg_frsum`.
    fn fragacct(&mut self, h: u32, cnt: i32) {
        let map = self.blkmap(h);
        fragacct(map, |siz| self.add(FRSUM + 4 * siz as usize, cnt));
    }

    /// `ffs_alloccgblk` from `gotit:` (`free` false), or `ffs_blkfree`
    /// of a whole block.
    fn block(&mut self, h: u32, free: bool) {
        self.setblock(h, free);
        self.clusteracct(h, if free { 1 } else { -1 });
        self.add(CS_NBFREE, if free { 1 } else { -1 });
    }

    /// Block `h` became whole (`cnt` 1) or stopped being whole: its
    /// fragments move between `cs_nffree` and `cs_nbfree`.
    fn whole(&mut self, h: u32, cnt: i32) {
        self.add(CS_NFFREE, -cnt * FS_FRAG as i32);
        self.clusteracct(h, cnt);
        self.add(CS_NBFREE, cnt);
    }

    /// Fragments `p .. p + len` of block `h` taken (`ffs_alloccg`, a free
    /// block split) or given back (`ffs_blkfree`, a whole block
    /// reassembled).
    fn frags(&mut self, h: u32, p: u32, len: u32, free: bool) {
        let was_whole = self.isblock(h);
        self.fragacct(h, -1);
        (p..p + len).for_each(|i| self.put(self.freeoff, h * FS_FRAG + i, free));
        self.add(CS_NFFREE, if free { len as i32 } else { -(len as i32) });
        if was_whole {
            self.whole(h, -1);
        }
        if self.isblock(h) {
            self.whole(h, 1);
        }
        self.fragacct(h, 1);
    }

    /// Blocks `b .. b + n` given back or taken one at a time
    /// (`ffs_blkfree`, `ffs_alloccgblk` from `gotit:`); the rotors stay.
    pub fn blocks(&mut self, b: u32, n: u32, free: bool) {
        (b..b + n).for_each(|h| self.block(h, free));
    }

    /// `ffs_mapsearch` leaves `cg_frotor` on the found map byte.
    fn set_frotor(&mut self, h: u32) {
        self.set(FROTOR, h * FS_FRAG);
    }
}

/// `ffs_fragacct`'s census: `f(siz)` for every maximal run of free
/// fragments shorter than a block in the free-bit lane `map`.
fn fragacct(map: u32, mut f: impl FnMut(u32)) {
    let mut run = 0;
    for i in (0..=FS_FRAG).filter(|_| map != 0) {
        if i < FS_FRAG && map & (1 << i) != 0 {
            run += 1;
            continue;
        }
        if run > 0 && run < FS_FRAG {
            f(run);
        }
        run = 0;
    }
}

/// Every group of `fs` as `struct cg` bytes.
pub fn encode_fs(sb: &Sb, fs: &Filesystem) -> Vec<Cg> {
    (0..fs.ncg())
        .map(|g| Cg::encode(sb, fs.cg(CgIdx(g))))
        .collect()
}

/// A volume's free-space statistics, counted off `cg_blksfree`.
pub fn free_space_stats(sb: &Sb, cgs: &[Cg], hist_max: usize) -> FreeSpaceStats {
    let mut s = FreeSpaceStats {
        hist: vec![0; hist_max],
        free_blocks: 0,
        clusterable_blocks: 0,
        longest_run: 0,
    };
    for cg in cgs {
        let mut run = 0u32;
        for h in 0..=cg.nblocks() {
            if h < cg.nblocks() && cg.isblock(h) {
                run += 1;
                continue;
            }
            if run > 0 {
                if hist_max > 0 {
                    s.hist[(run as usize - 1).min(hist_max - 1)] += 1;
                }
                s.free_blocks += u64::from(run);
                s.clusterable_blocks += u64::from(if run >= sb.maxcontig { run } else { 0 });
                s.longest_run = s.longest_run.max(run);
            }
            run = 0;
        }
    }
    s
}

/// Whether the policy runs the realloc pass, and our one placement
/// switch.
#[derive(Clone, Copy, Debug)]
pub struct Switches {
    pub realloc: bool,
    pub frag_bestfit: bool,
}

/// A file as both sides describe it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefFile {
    pub ino: u32,
    pub blocks: Vec<u32>,
    pub indirects: Vec<u32>,
    pub tail: Option<(u32, u32)>,
}

impl RefFile {
    pub fn of(f: &FileMeta) -> RefFile {
        RefFile {
            ino: f.ino.0,
            blocks: f.blocks.iter().map(|d| d.0).collect(),
            indirects: f.indirects().iter().map(|d| d.0).collect(),
            tail: f.tail.map(|(d, n)| (d.0, n)),
        }
    }

    /// A directory as a file: its inode and its fragment run, on a
    /// volume of `ipg` inodes per group.
    pub fn of_dir(d: &DirMeta, ipg: u32) -> RefFile {
        RefFile {
            ino: d.cg.0 * ipg + d.ino_slot,
            tail: Some((d.block.0, DIR_FRAGS)),
            ..RefFile::default()
        }
    }

    /// Where the two first differ: the inode, the first differing index
    /// of the blocks or indirects with both addresses (`-` past a
    /// list's end), or the tail.
    pub fn diff(&self, other: &RefFile) -> Option<String> {
        if self.ino != other.ino {
            return Some(format!("inode {} vs {}", self.ino, other.ino));
        }
        let at = |v: &[u32], i: usize| v.get(i).map_or("-".into(), u32::to_string);
        for (name, a, b) in [
            ("blocks", &self.blocks, &other.blocks),
            ("indirects", &self.indirects, &other.indirects),
        ] {
            if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
                return Some(format!("{name}[{i}]: {} vs {}", at(a, i), at(b, i)));
            }
        }
        (self.tail != other.tail).then(|| format!("tail: {:?} vs {:?}", self.tail, other.tail))
    }
}

/// The reference file system: decoded groups, the decisions on them,
/// and the counts of those decisions, kept as ours keeps them.
pub struct RefFs<'a> {
    pub sb: &'a Sb,
    pub cgs: Vec<Cg>,
    pub sw: Switches,
    pub stats: AllocStats,
}

impl RefFs<'_> {
    /// `ffs_hashalloc`: the preferred group, the quadratic rehash, then
    /// a sweep from `start + 2`. A success after the first probe is a
    /// spill.
    fn hashalloc<T>(
        &mut self,
        start: u32,
        mut f: impl FnMut(&mut Self, u32) -> Option<T>,
    ) -> Option<T> {
        let ncg = self.sb.ncg;
        let mut g = start;
        let rehash = (0..).map(|k| 1 << k).take_while(|&i| i < ncg).map(|i| {
            g = (g + i) % ncg;
            g
        });
        let sweep = (2..ncg).map(|i| (start + i) % ncg);
        let probes = std::iter::once(start).chain(rehash).chain(sweep);
        let (spilled, t) = probes
            .enumerate()
            .find_map(|(i, g)| f(self, g).map(|t| (i > 0, t)))?;
        self.stats.cg_spills += u64::from(spilled);
        Some(t)
    }

    /// `ffs_valloc` → `ffs_hashalloc` → `ffs_nodealloccg`: the
    /// directory's slot if free, else the first free slot from the byte
    /// that holds `cg_irotor`, which then points at it.
    fn valloc(&mut self, dir_ino: u32) -> Option<u32> {
        let ipg = self.sb.ipg;
        self.hashalloc(dir_ino / ipg, |fs, g| {
            let cg = &mut fs.cgs[g as usize];
            if cg.get(CS_NIFREE) == 0 {
                return None;
            }
            let ipref = dir_ino % ipg;
            let slot = if !cg.bit(SPACE, ipref) {
                ipref
            } else {
                let s = cg.get(IROTOR) - cg.get(IROTOR) % 8;
                let slot = (s..ipg).chain(0..s).find(|&i| !cg.bit(SPACE, i))?;
                cg.set(IROTOR, slot);
                slot
            };
            cg.put(SPACE, slot, true);
            cg.add(CS_NIFREE, -1);
            Some(g * ipg + slot)
        })
    }

    /// `ffs_vfree`: a slot below `cg_irotor` lowers it.
    fn vfree(&mut self, ino: u32) {
        let slot = ino % self.sb.ipg;
        let cg = &mut self.cgs[(ino / self.sb.ipg) as usize];
        cg.put(SPACE, slot, false);
        cg.add(CS_NIFREE, 1);
        if slot < cg.get(IROTOR) {
            cg.set(IROTOR, slot);
        }
    }

    /// `ffs_alloccgblk` in group `g`: the preferred block if free, else a
    /// map search from it, or from `cg_rotor` (`cg_frotor` while that is
    /// 0), which leaves both rotors on the block found.
    fn alloccgblk(&mut self, g: u32, pref: u32) -> Option<u32> {
        let sb = self.sb;
        let cg = &mut self.cgs[g as usize];
        if cg.get(CS_NBFREE) == 0 {
            return None;
        }
        let want = (sb.dtog(pref) == g).then(|| sb.block(g, pref));
        let h = match want {
            Some(h) if h < cg.nblocks() && cg.isblock(h) => h,
            _ => {
                let rotor = match cg.get(ROTOR) {
                    0 => cg.get(FROTOR),
                    r => r,
                };
                let h = cg.mapsearch_block(want.unwrap_or(rotor / FS_FRAG))?;
                cg.set_frotor(h);
                cg.set(ROTOR, h * FS_FRAG);
                h
            }
        };
        cg.block(h, false);
        Some(sb.daddr(g, h))
    }

    /// `ffs_alloc` of a whole block; taking the preferred one is a hit.
    fn alloc(&mut self, pref: u32) -> Option<u32> {
        let d = self.hashalloc(self.sb.dtog(pref), |fs, g| fs.alloccgblk(g, pref))?;
        self.stats.block_allocs += 1;
        self.stats.pref_hits += u64::from(d == pref);
        Some(d)
    }

    /// `ffs_alloc` of `len` fragments: `ffs_alloccg`'s fragment path,
    /// or our first fit, from the preference's offset in every group.
    /// Taking them from a whole free block is a split.
    fn alloc_frags(&mut self, len: u32, pref: u32) -> Option<u32> {
        let sb = self.sb;
        let from = sb.block(sb.dtog(pref), pref);
        let d = self.hashalloc(sb.dtog(pref), |fs, g| {
            let cg = &mut fs.cgs[g as usize];
            let found = match fs.sw.frag_bestfit {
                true => cg.frag_best_fit(from, len),
                false => cg.frag_first_fit(from, len),
            };
            if let Some((h, p)) = found {
                fs.stats.frag_splits += u64::from(cg.isblock(h));
                cg.set_frotor(h);
                cg.frags(h, p, len, false);
                return Some(sb.daddr(g, h) + p);
            }
            if !fs.sw.frag_bestfit {
                return None;
            }
            // No partial block fits: split a whole one.
            let d = fs.alloccgblk(g, pref)?;
            let (cg, h) = (&mut fs.cgs[g as usize], sb.block(g, d));
            cg.frags(h, len, FS_FRAG - len, true);
            fs.stats.frag_splits += 1;
            Some(d)
        })?;
        self.stats.frag_allocs += 1;
        Some(d)
    }

    /// `ffs_blkpref` for block `lbn` of inode `ino` after `prev`: the
    /// block after `prev`, except where `lbn` opens an indirect region —
    /// there the front of the first group with at least the average free
    /// blocks from `ino_to_cg + lbn / maxbpg` — and the front of the
    /// inode's group for a first block.
    fn blkpref(&self, ino: u32, lbn: u32, prev: Option<u32>) -> u32 {
        let (ncg, sb) = (self.sb.ncg, self.sb);
        let g = match prev {
            Some(p) if !opens_region(lbn, sb.nindir) => return p + FS_FRAG,
            Some(_) => {
                let nbfree = |g: u32| u64::from(self.cgs[g as usize].get(CS_NBFREE));
                let avg = (0..ncg).map(nbfree).sum::<u64>() / u64::from(ncg);
                let startcg = (ino / sb.ipg + lbn / sb.nindir) % ncg;
                let mut scan = (startcg..ncg).chain(0..startcg);
                scan.find(|&g| nbfree(g) >= avg).unwrap()
            }
            None => ino / sb.ipg,
        };
        sb.daddr(g, 1)
    }

    /// `ffs_dirpref`: the first group with the fewest directories
    /// (`cs_ndir`) among those with at least the average free inodes
    /// (`cs_nifree`).
    pub fn dirpref(&self) -> u32 {
        let (ncg, field) = (self.sb.ncg, |g: u32, off| self.cgs[g as usize].get(off));
        let total: u64 = (0..ncg).map(|g| u64::from(field(g, CS_NIFREE))).sum();
        let avgifree = total / u64::from(ncg);
        let (mut minndir, mut mincg) = (self.sb.ipg, 0);
        for g in 0..ncg {
            if field(g, CS_NDIR) < minndir && u64::from(field(g, CS_NIFREE)) >= avgifree {
                (minndir, mincg) = (field(g, CS_NDIR), g);
            }
        }
        mincg
    }

    /// `ufs_mkdir` with `ipref` = group `g`'s first inode: `ffs_valloc`
    /// (the group the inode lands in counts it in `cs_ndir`), then the
    /// template's `ffs_balloc` at lbn 0, which allocates `fragroundup` of
    /// the write at `ffs_blkpref`'s preference. On failure the inode is
    /// given back. The directory as a file: its inode and that run.
    pub fn mkdir(&mut self, g: u32) -> Result<RefFile, &'static str> {
        let ino = self.valloc(g * self.sb.ipg).ok_or("no inodes")?;
        let frags = DIRTEMPLATE.div_ceil(self.sb.fsize) as u32;
        let Some(d) = self.alloc_frags(frags, self.blkpref(ino, 0, None)) else {
            self.vfree(ino);
            return Err("no space");
        };
        self.cgs[(ino / self.sb.ipg) as usize].add(CS_NDIR, 1);
        let tail = Some((d, frags));
        Ok(RefFile {
            ino,
            tail,
            ..RefFile::default()
        })
    }

    /// Creates a file of `size` bytes for the directory with inode
    /// `dir_ino`, block by block in `ffs_balloc` order; on failure
    /// everything taken is given back.
    pub fn create(&mut self, dir_ino: u32, size: u64) -> Result<RefFile, &'static str> {
        let ino = self.valloc(dir_ino).ok_or("no inodes")?;
        let mut f = RefFile {
            ino,
            ..RefFile::default()
        };
        if self.write(&mut f, size).is_none() {
            self.remove(&f);
            return Err("no space");
        }
        Ok(f)
    }

    /// Removes a file: `ffs_blkfree` of all it holds, then `ffs_vfree`.
    pub fn remove(&mut self, f: &RefFile) {
        for &d in f.blocks.iter().chain(&f.indirects) {
            self.blkfree(d, None);
        }
        if let Some((d, n)) = f.tail {
            self.blkfree(d, Some(n));
        }
        self.vfree(f.ino);
    }

    /// `ffs_blkfree` of the block at `d`, or of `frags` fragments there.
    fn blkfree(&mut self, d: u32, frags: Option<u32>) {
        let g = self.sb.dtog(d);
        let (h, p) = (self.sb.block(g, d), d % FS_FRAG);
        let cg = &mut self.cgs[g as usize];
        match frags {
            None => cg.block(h, true),
            Some(n) => cg.frags(h, p, n, true),
        }
    }

    fn write(&mut self, f: &mut RefFile, size: u64) -> Option<()> {
        let sb = self.sb;
        let nindir = sb.nindir;
        // Only a direct-block file keeps a fragment tail, and a tail of a
        // whole block is a block.
        let (mut nfull, mut tail) = ((size / sb.bsize) as u32, 0);
        if !size.is_multiple_of(sb.bsize) {
            tail = (size % sb.bsize).div_ceil(sb.fsize) as u32;
            if nfull >= NDADDR || tail == FS_FRAG {
                (nfull, tail) = (nfull + 1, 0);
            }
        }
        let realloc = self.sw.realloc && size >= 2 * sb.bsize;
        let windows = windows(if realloc { nfull } else { 0 }, sb.maxcontig, nindir);
        let mut windows = windows.into_iter().peekable();
        for lbn in 0..nfull {
            if opens_region(lbn, nindir) {
                let ipref = self.blkpref(f.ino, lbn, f.blocks.last().copied());
                // The double indirect's root comes with its first child.
                for _ in 0..1 + u32::from(lbn == NDADDR + nindir) {
                    f.indirects.push(self.alloc(ipref)?);
                }
            }
            let d = self.alloc(self.blkpref(f.ino, lbn, f.blocks.last().copied()))?;
            f.blocks.push(d);
            let done = lbn + 1;
            if realloc && (done % sb.chunk == 0 || done == nfull) {
                while let Some((s, e)) = windows.next_if(|w| w.1 <= done) {
                    let prev = s.checked_sub(1).map(|i| f.blocks[i as usize]);
                    let wpref = self.blkpref(f.ino, s, prev);
                    self.reallocblks(f, (s, e), wpref);
                }
            }
        }
        if tail > 0 {
            let pref = self.blkpref(f.ino, nfull, f.blocks.last().copied());
            f.tail = Some((self.alloc_frags(tail, pref)?, tail));
        }
        Some(())
    }

    /// The cluster search for a window of `len` in group `g`:
    /// `ffs_clusteralloc` from the preference's block, or from the front
    /// when the preference lies in another group.
    fn cluster_in(&self, g: u32, pref: u32, len: u32) -> Option<u32> {
        let (sb, cg) = (self.sb, &self.cgs[g as usize]);
        let from = (sb.dtog(pref) == g).then(|| sb.block(g, pref));
        cg.clusteralloc(from.unwrap_or(0), len)
    }

    /// `ffs_reallocblks` over logical blocks `s .. e`: move them into one
    /// free cluster, or leave them where they are.
    fn reallocblks(&mut self, f: &mut RefFile, (s, e): (u32, u32), pref: u32) {
        let (sb, len) = (self.sb, e - s);
        let addrs = &f.blocks[s as usize..e as usize];
        if len < 2 {
            return;
        }
        self.stats.realloc_windows += 1;
        if addrs.windows(2).all(|w| w[1] == w[0] + FS_FRAG) {
            self.stats.realloc_already_contig += 1;
            return;
        }
        if sb.dtog(addrs[len as usize - 1]) != sb.dtog(addrs[0]) {
            return;
        }
        let found = self.hashalloc(sb.dtog(pref), |fs, g| {
            fs.cluster_in(g, pref, len).map(|h| (g, h))
        });
        let Some((g, run)) = found else {
            self.stats.realloc_failures += 1;
            return;
        };
        for i in s..e {
            self.blkfree(f.blocks[i as usize], None);
        }
        self.cgs[g as usize].blocks(run, len, false);
        for (i, h) in (s..e).zip(run..) {
            f.blocks[i as usize] = sb.daddr(g, h);
        }
        self.stats.realloc_moves += 1;
        self.stats.realloc_blocks_moved += u64::from(len);
    }
}

/// Whether data block `lbn` opens an indirect region.
fn opens_region(lbn: u32, nindir: u32) -> bool {
    lbn >= NDADDR && (lbn - NDADDR).is_multiple_of(nindir)
}

/// The realloc windows of a file of `nfull` blocks: runs of at most
/// `maxcontig` blocks, restarting at every indirect region.
fn windows(nfull: u32, maxcontig: u32, nindir: u32) -> Vec<(u32, u32)> {
    let (mut out, mut s, mut region_end) = (Vec::new(), 0, NDADDR.min(nfull));
    while s < nfull {
        if s == region_end {
            region_end = (region_end + nindir).min(nfull);
        }
        out.push((s, (s + maxcontig).min(region_end)));
        s = out.last().unwrap().1;
    }
    out
}
