//! Compact, deterministic metadata tables for the replay hot path.
//!
//! Two structures live here, both replacing node-based collections whose
//! pointer-chasing dominated the aging replay once the free-space scans
//! went word-level:
//!
//! * [`Slab`] — live values packed in a vector the size of the live set,
//!   found through a `key → slot` index over the externally assigned
//!   keys ([`Ino`] or [`DirId`]) and walked in ascending key order
//!   through a packed occupancy bitmap. Iteration order equals
//!   `BTreeMap` key order, so digests, checkpoints, and golden outputs
//!   are byte-identical to the map-based implementation it replaces,
//!   while a clone copies the live values plus four bytes per key up to
//!   the largest in use — not one value-sized slot per inode number.
//! * [`BlockList`] — a file's block addresses in a `SmallVec`-style
//!   inline-then-spill layout: up to [`BlockList::INLINE`] addresses live
//!   inside the inode itself (short-lived files — the majority, per the
//!   paper's trace analysis — never touch the heap), longer files spill
//!   into a shared, copy-on-write `Arc` so cloning a block list for a
//!   nightly snapshot is O(1). The spill also holds the file's indirect
//!   block addresses, which only a long file has.
//!
//! The slab's ground truth is the packed values and the key recorded
//! beside each one; the `key → slot` index and the occupancy bitmap are
//! *derived* state in the fsck sense. [`Slab::index_violation`] /
//! [`Slab::rebuild_index`] give the checker and the repairer the same
//! detect/rebuild treatment the cylinder-group bitmaps get: a torn index
//! is detected and rebuilt losslessly without touching any value.

use std::marker::PhantomData;
use std::sync::Arc;

use ffs_types::{Daddr, DirId, Ino};

/// Index entry of a key that holds no value.
const NIL: u32 = u32::MAX;

/// Keys that index a [`Slab`] directly: a dense, externally assigned
/// integer identity.
pub trait SlabKey: Copy + Eq + std::fmt::Debug {
    /// The index entry this key addresses.
    fn slab_index(self) -> usize;
    /// The key addressing index entry `i` (inverse of
    /// [`SlabKey::slab_index`]).
    fn from_slab_index(i: usize) -> Self;
}

impl SlabKey for Ino {
    fn slab_index(self) -> usize {
        self.0 as usize
    }
    fn from_slab_index(i: usize) -> Self {
        Ino(i as u32)
    }
}

impl SlabKey for DirId {
    fn slab_index(self) -> usize {
        self.0 as usize
    }
    fn from_slab_index(i: usize) -> Self {
        DirId(i as u32)
    }
}

/// A table keyed by an externally assigned dense id, sized by its live
/// entries.
///
/// Unlike an arena, the slab never *chooses* keys: the file system
/// assigns inode numbers from the per-group inode bitmaps and directory
/// ids sequentially. Values sit packed in `values`, each with its key in
/// the parallel `keys`; a remove swaps the last value into the hole, so
/// slot order records insert/remove history and is never observable —
/// every ordered view goes through the bitmap in ascending key order,
/// and equality compares those views.
#[derive(Clone, Debug)]
pub struct Slab<K, V> {
    /// Live values, packed. Ground truth, with `keys`.
    values: Vec<V>,
    /// `keys[s]` is the slab index of the key whose value is `values[s]`.
    keys: Vec<u32>,
    /// Derived: `index[k]` is the slot holding key `k`'s value, `NIL`
    /// when `k` is vacant. Four bytes per key up to the largest ever
    /// inserted.
    index: Vec<u32>,
    /// Derived occupancy bitmap: bit `k` set iff `index[k]` is not
    /// `NIL`. Iteration scans this, so walking the slab is
    /// O(live + words).
    present: Vec<u64>,
    _key: PhantomData<fn() -> K>,
}

impl<K: SlabKey, V> Default for Slab<K, V> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<K: SlabKey, V> Slab<K, V> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            values: Vec::new(),
            keys: Vec::new(),
            index: Vec::new(),
            present: Vec::new(),
            _key: PhantomData,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The slot holding `i`'s value. Believes the index only where the
    /// ground truth agrees, so a torn entry reads as vacant rather than
    /// as another key's value.
    fn slot_of(&self, i: usize) -> Option<usize> {
        let s = *self.index.get(i)? as usize;
        (*self.keys.get(s)? as usize == i).then_some(s)
    }

    /// Looks up the value stored at `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.slot_of(k.slab_index()).map(|s| &self.values[s])
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.slot_of(k.slab_index()).map(|s| &mut self.values[s])
    }

    /// True when a value is stored at `k`.
    pub fn contains_key(&self, k: &K) -> bool {
        self.slot_of(k.slab_index()).is_some()
    }

    /// Stores `v` at `k`, returning the previous value if the key was
    /// live (map semantics).
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let i = k.slab_index();
        if let Some(s) = self.slot_of(i) {
            return Some(std::mem::replace(&mut self.values[s], v));
        }
        if self.index.len() <= i {
            self.index.resize(i + 1, NIL);
            self.present.resize(self.index.len().div_ceil(64), 0);
        }
        self.index[i] = self.values.len() as u32;
        self.present[i / 64] |= 1 << (i % 64);
        self.values.push(v);
        self.keys.push(i as u32);
        None
    }

    /// Removes and returns the value stored at `k`; the last slot's
    /// value moves into the hole.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let i = k.slab_index();
        let s = self.slot_of(i)?;
        self.index[i] = NIL;
        self.present[i / 64] &= !(1 << (i % 64));
        self.keys.swap_remove(s);
        if let Some(&moved) = self.keys.get(s) {
            self.index[moved as usize] = s as u32;
        }
        Some(self.values.swap_remove(s))
    }

    /// Iterates live values in ascending key order.
    pub fn values(&self) -> SlabValues<'_, V> {
        SlabValues {
            values: &self.values,
            index: &self.index,
            bits: BitIter::new(&self.present),
        }
    }

    /// Iterates live values mutably, in slot order — use only where the
    /// order cannot matter.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.values.iter_mut()
    }

    /// Iterates live keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        BitIter::new(&self.present).map(|i| K::from_slab_index(i))
    }

    // ------------------------------------------------------------------
    // Derived-state maintenance (fsck integration).
    // ------------------------------------------------------------------

    /// Checks the `key → slot` index and the occupancy bitmap against
    /// the packed keys, returning a description of the first
    /// inconsistency. The values and their keys are ground truth;
    /// everything verified here is derived and rebuildable by
    /// [`Slab::rebuild_index`].
    pub fn index_violation(&self) -> Option<String> {
        let words = self.index.len().div_ceil(64);
        if self.present.len() != words {
            return Some(format!(
                "occupancy bitmap has {} words for {} keys",
                self.present.len(),
                self.index.len()
            ));
        }
        for (s, &k) in self.keys.iter().enumerate() {
            if self.index.get(k as usize) != Some(&(s as u32)) {
                return Some(format!(
                    "slot {s} holds key {k}, which the index does not map to it"
                ));
            }
        }
        // One word at a time: the bits the index implies (none past its
        // end) against the bits stored.
        let mut mapped = 0usize;
        for (w, (entries, &stored)) in self.index.chunks(64).zip(&self.present).enumerate() {
            let implied =
                (entries.iter().enumerate()).fold(0u64, |m, (b, &s)| m | u64::from(s != NIL) << b);
            if implied != stored {
                let k = w * 64 + (implied ^ stored).trailing_zeros() as usize;
                return Some(format!(
                    "key {k}: occupancy bit disagrees with index entry {:?}",
                    self.index.get(k)
                ));
            }
            mapped += implied.count_ones() as usize;
        }
        if mapped != self.len() {
            return Some(format!(
                "index maps {mapped} keys for {} values",
                self.len()
            ));
        }
        None
    }

    /// Rebuilds the `key → slot` index and the occupancy bitmap from the
    /// packed keys. Lossless: no value moves. The repairer's counterpart
    /// to [`Slab::index_violation`].
    pub fn rebuild_index(&mut self) {
        let n = self.keys.iter().max().map_or(0, |&k| k as usize + 1);
        self.index.clear();
        self.index.resize(n, NIL);
        self.present.clear();
        self.present.resize(n.div_ceil(64), 0);
        for (s, &k) in self.keys.iter().enumerate() {
            self.index[k as usize] = s as u32;
            self.present[k as usize / 64] |= 1 << (k % 64);
        }
    }

    /// Tears the derived index with the caller's random values — the
    /// damage model for a torn slab-index update: every vacant key's
    /// entry is pointed at a random live slot, or, when no key is
    /// vacant, one live key's occupancy bit is cleared. Values and their
    /// keys are never touched, so [`Slab::rebuild_index`] restores
    /// everything. Returns `true` if anything was perturbed.
    pub fn scramble_index(&mut self, mut next_random: impl FnMut(u32) -> u32) -> bool {
        if self.index.is_empty() {
            return false;
        }
        let live = self.len() as u32;
        if self.index.len() > self.len() {
            for entry in self.index.iter_mut().filter(|e| **e == NIL) {
                *entry = next_random(live.max(1));
            }
        } else {
            // No vacant key to tear: clear a live key's occupancy bit
            // instead (the bit, not the value — still derived-only
            // damage).
            let i = next_random(live) as usize;
            self.present[i / 64] &= !(1u64 << (i % 64));
        }
        true
    }
}

impl<K: SlabKey, V: PartialEq> PartialEq for Slab<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (BitIter::new(&self.present).zip(self.values()))
                .eq(BitIter::new(&other.present).zip(other.values()))
    }
}

impl<K: SlabKey, V> std::ops::Index<&K> for Slab<K, V> {
    type Output = V;
    fn index(&self, k: &K) -> &V {
        self.get(k).expect("no entry found for key")
    }
}

/// Iterator over the set bits of a packed `u64` bitmap, ascending.
struct BitIter<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl<'a> BitIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitIter {
            words,
            wi: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.wi * 64 + bit)
    }
}

/// Iterator over a slab's live values in ascending key order.
pub struct SlabValues<'a, V> {
    values: &'a [V],
    index: &'a [u32],
    bits: BitIter<'a>,
}

impl<'a, V> Iterator for SlabValues<'a, V> {
    type Item = &'a V;
    /// A set bit whose index entry leads nowhere (a torn index) ends the
    /// walk instead of panicking.
    fn next(&mut self) -> Option<&'a V> {
        let slot = *self.index.get(self.bits.next()?)?;
        self.values.get(slot as usize)
    }
}

// ----------------------------------------------------------------------
// BlockList
// ----------------------------------------------------------------------

/// A file's data-block addresses in logical order, inline up to
/// [`BlockList::INLINE`] entries and copy-on-write shared beyond — and,
/// in the shared spill, the file's indirect-block addresses.
///
/// Dereferences to `&[Daddr]` (and `&mut [Daddr]`, which triggers the
/// copy-on-write), so slice indexing, iteration, and `windows` work as
/// they did on the `Vec` it replaces. `Clone` never copies a spilled
/// vector — it bumps the `Arc` — which is what makes nightly snapshots
/// zero-copy; the first mutation after a share pays the copy instead.
///
/// 32 bytes: the inline addresses share their space with the spill
/// pointer, and the inline length's spare values tell the two apart.
#[derive(Clone)]
pub struct BlockList {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// The first `len` addresses in place; no indirect block.
    Inline(InlineLen, [Daddr; BlockList::INLINE]),
    /// Everything on the heap, shared copy-on-write.
    Spill(Arc<Spill>),
}

/// A spilled list. An indirect block only exists once a file has more
/// than `NDADDR` (12) blocks, so a file that has one is always spilled,
/// and its addresses ride here instead of in a field of every inode.
#[derive(Clone)]
struct Spill {
    blocks: Vec<Daddr>,
    indirects: Vec<Daddr>,
}

/// An inline list's length, `0..=INLINE`. An enum rather than an
/// integer so that its other byte values are free to tag [`Repr`]: that
/// is what fits a [`BlockList`] in 32 bytes.
#[derive(Clone, Copy)]
#[repr(u8)]
enum InlineLen {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
}

impl InlineLen {
    /// `n` as an inline length; `n` is at most [`BlockList::INLINE`].
    fn new(n: usize) -> InlineLen {
        use InlineLen::*;
        [L0, L1, L2, L3, L4, L5, L6, L7][n]
    }
}

impl BlockList {
    /// Addresses stored inline before spilling to the heap: one
    /// `maxcontig` cluster, 56 KB at the paper's 8 KB block size, which
    /// holds the short-lived majority of the aging workload.
    pub const INLINE: usize = 7;

    /// An empty block list.
    pub fn new() -> Self {
        BlockList {
            repr: Repr::Inline(InlineLen::L0, [Daddr(0); Self::INLINE]),
        }
    }

    /// The inline list of `blocks`, which holds at most
    /// [`BlockList::INLINE`] addresses.
    fn inline(blocks: &[Daddr]) -> Self {
        let mut inline = [Daddr(0); Self::INLINE];
        inline[..blocks.len()].copy_from_slice(blocks);
        BlockList {
            repr: Repr::Inline(InlineLen::new(blocks.len()), inline),
        }
    }

    /// The spilled list of `blocks`, with no indirect block.
    fn spilled(blocks: Vec<Daddr>) -> Self {
        let indirects = Vec::new();
        BlockList {
            repr: Repr::Spill(Arc::new(Spill { blocks, indirects })),
        }
    }

    /// The addresses as a slice.
    pub fn as_slice(&self) -> &[Daddr] {
        match &self.repr {
            Repr::Inline(len, inline) => &inline[..*len as usize],
            Repr::Spill(s) => &s.blocks,
        }
    }

    /// The addresses as a mutable slice (copies a shared spill first).
    pub fn as_mut_slice(&mut self) -> &mut [Daddr] {
        match &mut self.repr {
            Repr::Inline(len, inline) => &mut inline[..*len as usize],
            Repr::Spill(s) => &mut Arc::make_mut(s).blocks,
        }
    }

    /// The file's indirect-block addresses, in allocation order.
    pub fn indirects(&self) -> &[Daddr] {
        match &self.repr {
            Repr::Inline(..) => &[],
            Repr::Spill(s) => &s.indirects,
        }
    }

    /// Appends an indirect-block address, spilling the list if it is
    /// still inline.
    pub fn push_indirect(&mut self, d: Daddr) {
        if let Repr::Inline(..) = self.repr {
            *self = Self::spilled(self.as_slice().to_vec());
        }
        if let Repr::Spill(s) = &mut self.repr {
            Arc::make_mut(s).indirects.push(d);
        }
    }

    /// Appends an address: the one-entry case of [`BlockList::push_run`].
    pub fn push(&mut self, d: Daddr) {
        self.push_run(d, 1, 0);
    }

    /// Appends the `n` addresses `first, first + stride, ..` — an extent
    /// of `n` blocks `stride` fragments apart — paying the copy-on-write
    /// check (and a spill, if the list outgrows the inode) once for the
    /// lot.
    pub fn push_run(&mut self, first: Daddr, n: u32, stride: u32) {
        let run = (0..n).map(|i| Daddr(first.0 + i * stride));
        match &mut self.repr {
            Repr::Spill(s) => Arc::make_mut(s).blocks.extend(run),
            Repr::Inline(len, inline) => {
                let (at, total) = (*len as usize, *len as usize + n as usize);
                if total <= Self::INLINE {
                    for (slot, d) in inline[at..total].iter_mut().zip(run) {
                        *slot = d;
                    }
                    *len = InlineLen::new(total);
                } else {
                    let mut v = Vec::with_capacity(total.max(Self::INLINE * 2));
                    v.extend_from_slice(&inline[..at]);
                    v.extend(run);
                    *self = Self::spilled(v);
                }
            }
        }
    }

    /// Removes and returns the last address. A spilled list with no
    /// indirect block that shrinks back to [`BlockList::INLINE`]
    /// addresses moves back inline.
    pub fn pop(&mut self) -> Option<Daddr> {
        match &mut self.repr {
            Repr::Inline(len, inline) => {
                let n = (*len as usize).checked_sub(1)?;
                *len = InlineLen::new(n);
                Some(inline[n])
            }
            Repr::Spill(s) => {
                let s = Arc::make_mut(s);
                let d = s.blocks.pop()?;
                if s.blocks.len() <= Self::INLINE && s.indirects.is_empty() {
                    *self = Self::inline(&s.blocks);
                }
                Some(d)
            }
        }
    }
}

impl Default for BlockList {
    fn default() -> Self {
        BlockList::new()
    }
}

impl std::ops::Deref for BlockList {
    type Target = [Daddr];
    fn deref(&self) -> &[Daddr] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for BlockList {
    fn deref_mut(&mut self) -> &mut [Daddr] {
        self.as_mut_slice()
    }
}

impl PartialEq for BlockList {
    /// Compares the data-block addresses. The indirect addresses in the
    /// spill are the inode's, compared by `FileMeta`: a snapshot entry
    /// shares a live file's spill, and one parsed back from text has
    /// none.
    fn eq(&self, other: &Self) -> bool {
        // A nightly snapshot shares an unchanged long file's spill with
        // the live file, so the check that decides whether the next
        // night may share the entry usually finds one `Arc` on both sides.
        match (&self.repr, &other.repr) {
            (Repr::Spill(a), Repr::Spill(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl std::fmt::Debug for BlockList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()?;
        match self.indirects() {
            [] => Ok(()),
            ind => {
                f.write_str(" indirect ")?;
                f.debug_list().entries(ind).finish()
            }
        }
    }
}

impl From<Vec<Daddr>> for BlockList {
    fn from(v: Vec<Daddr>) -> Self {
        if v.len() <= Self::INLINE {
            BlockList::inline(&v)
        } else {
            BlockList::spilled(v)
        }
    }
}

impl FromIterator<Daddr> for BlockList {
    /// Fills the inline slots, then moves them into a spill that takes
    /// the rest of the iterator in one `extend`: no per-element
    /// copy-on-write check.
    fn from_iter<I: IntoIterator<Item = Daddr>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut inline = [Daddr(0); Self::INLINE];
        for (n, slot) in inline.iter_mut().enumerate() {
            match iter.next() {
                Some(d) => *slot = d,
                None => return BlockList::inline(&inline[..n]),
            }
        }
        let Some(next) = iter.next() else {
            return BlockList::inline(&inline);
        };
        let mut v = Vec::with_capacity(Self::INLINE * 2);
        v.extend_from_slice(&inline);
        v.push(next);
        v.extend(iter);
        BlockList::spilled(v)
    }
}

impl<'a> IntoIterator for &'a BlockList {
    type Item = &'a Daddr;
    type IntoIter = std::slice::Iter<'a, Daddr>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type FileSlab = Slab<Ino, u64>;

    #[test]
    fn slab_insert_get_remove_round_trip() {
        let mut s = FileSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(Ino(5), 50), None);
        assert_eq!(s.insert(Ino(2), 20), None);
        assert_eq!(s.insert(Ino(9), 90), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(&Ino(5)), Some(&50));
        assert_eq!(s.get(&Ino(4)), None);
        assert!(s.contains_key(&Ino(2)));
        assert_eq!(s.insert(Ino(5), 55), Some(50));
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(&Ino(2)), Some(20));
        assert_eq!(s.remove(&Ino(2)), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s[&Ino(9)], 90);
        assert_eq!(s.index_violation(), None);
    }

    #[test]
    fn slab_iterates_in_ascending_key_order() {
        let mut s = FileSlab::new();
        for &i in &[200u32, 3, 64, 65, 0, 127] {
            s.insert(Ino(i), i as u64);
        }
        s.remove(&Ino(64));
        let keys: Vec<u32> = s.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![0, 3, 65, 127, 200]);
        let vals: Vec<u64> = s.values().copied().collect();
        assert_eq!(vals, vec![0, 3, 65, 127, 200]);
    }

    #[test]
    fn slab_equality_ignores_slot_history() {
        // Same live entries, different insert/remove history — so
        // different slot orders.
        let mut a = FileSlab::new();
        a.insert(Ino(1), 1);
        a.insert(Ino(7), 7);
        let mut b = FileSlab::new();
        b.insert(Ino(7), 7);
        b.insert(Ino(3), 3);
        b.insert(Ino(1), 1);
        b.remove(&Ino(3));
        let mut b2 = b.clone();
        b2.remove(&Ino(1));
        b2.insert(Ino(1), 1);
        assert_eq!(b, b2);
        // a vs b: same entries → equal despite different capacity.
        assert_eq!(a.keys().map(|k| k.0).collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(b.keys().map(|k| k.0).collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn slab_index_survives_churn() {
        let mut s = FileSlab::new();
        let mut model = std::collections::BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = Ino(((x >> 33) % 257) as u32);
            if (x >> 13).is_multiple_of(3) {
                assert_eq!(s.remove(&k), model.remove(&k));
            } else {
                assert_eq!(s.insert(k, x), model.insert(k, x));
            }
            assert_eq!(s.len(), model.len());
        }
        assert_eq!(s.index_violation(), None);
        let got: Vec<(u32, u64)> = s.keys().map(|k| k.0).zip(s.values().copied()).collect();
        let want: Vec<(u32, u64)> = model.iter().map(|(k, v)| (k.0, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scrambled_index_is_detected_and_rebuilt() {
        let mut s = FileSlab::new();
        for i in 0..40 {
            s.insert(Ino(i), i as u64);
        }
        for i in (0..40).step_by(3) {
            s.remove(&Ino(i));
        }
        let pristine = s.clone();
        let mut x = 99u32;
        let hit = s.scramble_index(|bound| {
            x = x.wrapping_mul(747796405).wrapping_add(2891336453);
            (x >> 16) % bound.max(1)
        });
        assert!(hit);
        assert!(s.index_violation().is_some(), "scramble went undetected");
        s.rebuild_index();
        assert_eq!(s.index_violation(), None);
        assert_eq!(s, pristine, "rebuild lost data");
        // And the rebuilt slab keeps working.
        s.insert(Ino(3), 333);
        s.remove(&Ino(1));
        assert_eq!(s.index_violation(), None);
    }

    #[test]
    fn footprint_follows_the_live_set() {
        // Ten files with inode numbers near a million cost ten value
        // slots (rounded up by `Vec` growth), not a million.
        let mut s = FileSlab::new();
        for i in 0..10 {
            s.insert(Ino(999_000 + 97 * i), i as u64);
        }
        assert_eq!(s.values.len(), 10);
        assert!(s.values.capacity() <= 16, "{}", s.values.capacity());
        assert_eq!(s.index_violation(), None);
        for i in 0..10 {
            assert_eq!(s.remove(&Ino(999_000 + 97 * i)), Some(i as u64));
        }
        assert_eq!((s.values.len(), s.keys.len()), (0, 0));
        assert_eq!(s.keys().next(), None);
        assert_eq!(s.index_violation(), None);
    }

    #[test]
    fn accessors_stay_total_on_a_torn_index() {
        let mut s = FileSlab::new();
        for i in [2u32, 5, 9, 70] {
            s.insert(Ino(i), i as u64);
        }
        // Every entry torn the same way — to a live slot, past the last
        // slot, to `NIL` — under a bitmap that claims every key.
        for torn in [0u32, 3, 4, 1 << 20, NIL] {
            let mut t = s.clone();
            t.index.fill(torn);
            t.present.fill(u64::MAX);
            assert!(t.index_violation().is_some());
            // A lookup never serves another key's value...
            for k in 0..80 {
                assert!(t.get(&Ino(k)).is_none_or(|&v| v == k as u64));
            }
            // ...and iteration ends instead of panicking.
            let _ = (t.values().count(), t.keys().count());
            t.rebuild_index();
            assert_eq!(t.index_violation(), None);
            assert_eq!(t, s);
        }
    }

    fn is_spilled(b: &BlockList) -> bool {
        matches!(b.repr, Repr::Spill(_))
    }

    #[test]
    fn block_list_is_thirty_two_bytes() {
        // Every `FileMeta` and every `SnapshotEntry` holds one: a byte
        // here is 365 k bytes of `ffsbench age-smallfile`'s
        // `peak_rss_mb` (its six final images) and a byte per live file
        // per night of `nightly-jobs`'.
        assert_eq!(std::mem::size_of::<BlockList>(), 32);
    }

    #[test]
    fn block_list_stays_inline_then_spills() {
        let mut b = BlockList::new();
        assert!(b.is_empty());
        for i in 0..BlockList::INLINE {
            b.push(Daddr(i as u32 * 8));
        }
        assert_eq!(b.len(), BlockList::INLINE);
        assert!(!is_spilled(&b), "inline capacity should not spill");
        b.push(Daddr(999));
        assert!(is_spilled(&b));
        assert_eq!(b.len(), BlockList::INLINE + 1);
        assert_eq!(b[BlockList::INLINE], Daddr(999));
        // Popping back under the inline limit drops the spill.
        assert_eq!(b.pop(), Some(Daddr(999)));
        assert!(!is_spilled(&b));
        assert_eq!(b.pop(), Some(Daddr(48)));
        assert_eq!(b.len(), BlockList::INLINE - 1);
    }

    #[test]
    fn indirects_ride_in_the_spill() {
        let mut b: BlockList = (0..3u32).map(|i| Daddr(i * 8)).collect();
        assert_eq!(b.indirects(), []);
        b.push_indirect(Daddr(4000));
        assert!(is_spilled(&b), "an indirect block spills the list");
        assert_eq!(b.as_slice(), [Daddr(0), Daddr(8), Daddr(16)]);
        assert_eq!(b.indirects(), [Daddr(4000)]);
        // A spill holding indirects never moves back inline, and block
        // equality ignores them.
        assert_eq!(b.pop(), Some(Daddr(16)));
        assert_eq!(b.indirects(), [Daddr(4000)]);
        assert_eq!(b, BlockList::from(vec![Daddr(0), Daddr(8)]));
        // A clone shares them; a write to the clone does not leak back.
        let mut c = b.clone();
        c.push_indirect(Daddr(4008));
        assert_eq!(b.indirects(), [Daddr(4000)]);
        assert_eq!(c.indirects(), [Daddr(4000), Daddr(4008)]);
        assert!(
            format!("{c:?}").ends_with("indirect [d4000, d4008]"),
            "{c:?}"
        );
    }

    #[test]
    fn block_list_clone_shares_spill_and_cow_unshares() {
        let big: BlockList = (0..20u32).map(|i| Daddr(i * 8)).collect();
        let snap = big.clone();
        let is_shared = |b: &BlockList| match &b.repr {
            Repr::Spill(a) => Arc::strong_count(a) > 1,
            Repr::Inline(..) => false,
        };
        assert!(is_shared(&big) && is_shared(&snap));
        let mut writable = big.clone();
        writable[0] = Daddr(4096); // triggers the copy
        assert_eq!(snap[0], Daddr(0));
        assert_eq!(writable[0], Daddr(4096));
        assert!(!is_shared(&writable));
    }

    #[test]
    fn block_list_behaves_like_vec() {
        let mut b = BlockList::new();
        let mut v: Vec<Daddr> = Vec::new();
        let mut x = 7u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(4) {
                assert_eq!(b.pop(), v.pop());
            } else {
                let d = Daddr((x >> 40) as u32);
                b.push(d);
                v.push(d);
            }
            assert_eq!(b.as_slice(), v.as_slice());
        }
        let from: BlockList = v.clone().into();
        assert_eq!(from.as_slice(), v.as_slice());
        let collected: BlockList = v.iter().copied().collect();
        assert_eq!(collected, from);
    }
}
