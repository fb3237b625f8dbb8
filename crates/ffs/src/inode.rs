//! Per-file metadata: the simulator's inode.

use ffs_types::{Daddr, DirId, FsParams, Ino};

use crate::table::BlockList;

/// A file's allocation state. The block list is kept flat (rather than as
/// direct/indirect pointer trees) because the simulator only needs the
/// physical address of each logical block; the indirect *blocks* are still
/// tracked because they consume space and force the cylinder-group switch
/// described in footnote 1 of the paper.
///
/// At most 64 bytes: an aged image holds tens of thousands of these.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// The file's inode number.
    pub ino: Ino,
    /// Directory the file lives in (determines its cylinder group).
    pub dir: DirId,
    /// File size in bytes.
    pub size: u64,
    /// Physical address of each full data block, in logical order.
    /// Inline up to [`BlockList::INLINE`] blocks, copy-on-write beyond;
    /// the spill also holds the indirect-block addresses
    /// ([`FileMeta::indirects`]).
    pub blocks: BlockList,
    /// Tail fragment run `(address, length_in_frags)` when the last
    /// partial block is fragment-allocated.
    pub tail: Option<(Daddr, u32)>,
    /// Day (or other tick) the file was last written; used by the aging
    /// study to select the "hot" file set.
    pub mtime_day: u32,
}

impl PartialEq for FileMeta {
    fn eq(&self, other: &Self) -> bool {
        // `BlockList` equality covers the data blocks only, so the
        // indirect addresses are compared here.
        let FileMeta {
            ino,
            dir,
            size,
            blocks,
            tail,
            mtime_day,
        } = self;
        *ino == other.ino
            && *dir == other.dir
            && *size == other.size
            && *blocks == other.blocks
            && blocks.indirects() == other.blocks.indirects()
            && *tail == other.tail
            && *mtime_day == other.mtime_day
    }
}

impl FileMeta {
    /// Addresses of indirect (metadata) blocks, in allocation order.
    pub fn indirects(&self) -> &[Daddr] {
        self.blocks.indirects()
    }

    /// Number of scored chunks: full blocks plus the tail run. The layout
    /// score is defined over these (Section 3.3).
    pub fn nchunks(&self) -> usize {
        self.blocks.len() + usize::from(self.tail.is_some())
    }

    /// Iterates the file's data chunks as `(address, frags)` pairs in
    /// logical order.
    pub fn chunks<'a>(&'a self, params: &'a FsParams) -> impl Iterator<Item = (Daddr, u32)> + 'a {
        let fpb = params.frags_per_block();
        self.blocks
            .iter()
            .map(move |&d| (d, fpb))
            .chain(self.tail.iter().map(|&(d, n)| (d, n)))
    }

    /// Total fragments occupied by data (blocks plus tail), excluding
    /// indirect blocks.
    pub fn data_frags(&self, params: &FsParams) -> u64 {
        self.data_frags_at(params.frags_per_block())
    }

    /// [`FileMeta::data_frags`] at `fpb` fragments per block.
    pub(crate) fn data_frags_at(&self, fpb: u32) -> u64 {
        self.blocks.len() as u64 * fpb as u64 + self.tail.map_or(0, |(_, n)| n as u64)
    }

    /// Per-file layout score: the fraction of chunks after the first that
    /// are physically contiguous with their predecessor. `None` for files
    /// with fewer than two chunks, for which the score is undefined.
    pub fn layout_score(&self, params: &FsParams) -> Option<f64> {
        let (opt, scored) = self.layout_counts(params)?;
        Some(opt as f64 / scored as f64)
    }

    /// `(optimal, scored)` chunk counts feeding the aggregate layout
    /// score. `None` when fewer than two chunks exist.
    pub fn layout_counts(&self, params: &FsParams) -> Option<(u64, u64)> {
        self.layout_counts_at(params.frags_per_block())
    }

    /// [`FileMeta::layout_counts`] at `fpb` fragments per block (as
    /// [`crate::Geometry::frags_per_block`] gives it, with no division):
    /// every adjacent pair of blocks, then the tail against the last
    /// block.
    pub fn layout_counts_at(&self, fpb: u32) -> Option<(u64, u64)> {
        if self.nchunks() < 2 {
            return None;
        }
        let blocks = self.blocks.as_slice();
        let follows = |p: Daddr, d: Daddr| d.0 == p.0 + fpb;
        let mut opt = blocks.windows(2).filter(|w| follows(w[0], w[1])).count();
        if let (Some(&last), Some((tail, _))) = (blocks.last(), self.tail) {
            opt += usize::from(follows(last, tail));
        }
        Some((opt as u64, (self.nchunks() - 1) as u64))
    }

    /// Merges logically consecutive, physically contiguous chunks into
    /// extents `(address, frags)` — the unit a clustered I/O pass reads or
    /// writes with one disk request stream. Walked lazily, so a pass over
    /// a file allocates nothing.
    pub fn extents<'a>(&'a self, params: &'a FsParams) -> impl Iterator<Item = (Daddr, u32)> + 'a {
        let fpb = params.frags_per_block();
        let mut chunks = self.chunks(params).peekable();
        std::iter::from_fn(move || {
            let (start, mut len) = chunks.next()?;
            while let Some(&(addr, frags)) = chunks.peek() {
                if start.0 + len != addr.0 || len % fpb != 0 {
                    break;
                }
                len += frags;
                chunks.next();
            }
            Some((start, len))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FsParams {
        FsParams::paper_502mb()
    }

    fn meta(blocks: Vec<u32>, tail: Option<(u32, u32)>) -> FileMeta {
        FileMeta {
            ino: Ino(1),
            dir: DirId(0),
            size: 0,
            blocks: blocks.into_iter().map(Daddr).collect(),
            tail: tail.map(|(d, n)| (Daddr(d), n)),
            mtime_day: 0,
        }
    }

    #[test]
    fn file_meta_fits_sixty_four_bytes() {
        // An aged image holds one per file: `ffsbench age-smallfile`'s
        // six final images hold 365 k of them in its `peak_rss_mb`.
        assert!(std::mem::size_of::<FileMeta>() <= 64);
    }

    #[test]
    fn equality_covers_the_indirect_blocks() {
        let a = meta((0..13).map(|i| 100 + 8 * i).collect(), None);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.blocks.push_indirect(Daddr(4000));
        assert_ne!(a, b);
        assert_eq!(b.indirects(), [Daddr(4000)]);
    }

    #[test]
    fn perfect_layout_scores_one() {
        let m = meta(vec![100, 108, 116, 124], None);
        assert_eq!(m.layout_score(&params()), Some(1.0));
    }

    #[test]
    fn fully_fragmented_scores_zero() {
        let m = meta(vec![100, 200, 300], None);
        assert_eq!(m.layout_score(&params()), Some(0.0));
    }

    #[test]
    fn single_chunk_is_unscored() {
        assert_eq!(meta(vec![100], None).layout_score(&params()), None);
        assert_eq!(meta(vec![], Some((100, 3))).layout_score(&params()), None);
        assert_eq!(meta(vec![], None).layout_score(&params()), None);
    }

    #[test]
    fn tail_counts_as_final_chunk() {
        // Block at 100, tail right after it: optimal.
        let m = meta(vec![100], Some((108, 3)));
        assert_eq!(m.layout_score(&params()), Some(1.0));
        // Tail elsewhere: non-optimal.
        let m = meta(vec![100], Some((200, 3)));
        assert_eq!(m.layout_score(&params()), Some(0.0));
    }

    #[test]
    fn layout_counts_first_chunk_excluded() {
        let m = meta(vec![100, 108, 300, 308], None);
        // Pairs: (100,108) opt, (108,300) no, (300,308) opt.
        assert_eq!(m.layout_counts(&params()), Some((2, 3)));
    }

    #[test]
    fn extents_merge_contiguous_chunks() {
        let m = meta(vec![100, 108, 300], Some((308, 2)));
        let e: Vec<_> = m.extents(&params()).collect();
        assert_eq!(e, vec![(Daddr(100), 16), (Daddr(300), 10)]);
    }

    #[test]
    fn data_frags_counts_blocks_and_tail() {
        let m = meta(vec![100, 108], Some((300, 5)));
        assert_eq!(m.data_frags(&params()), 21);
        assert_eq!(m.nchunks(), 3);
    }
}
