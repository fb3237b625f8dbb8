//! The replay's `FileId -> Ino` ledger as a dense direct map.
//!
//! The workload generator hands out [`FileId`]s sequentially from zero
//! and never reuses one, so the id space is compact by construction and
//! a flat vector indexed by id replaces the hash map the replay hot loop
//! used to probe on every operation. A dead file leaves a tombstone
//! behind; in debug builds, inserting over a tombstone panics, turning a
//! violated no-reuse assumption into a loud failure instead of silent
//! aliasing (the "generation check" — with sequential ids a single
//! tombstone bit is a full generation's worth of information).

use ffs_types::Ino;

use crate::workload::FileId;

/// Slot value for "never created".
const EMPTY: u32 = u32::MAX;
/// Slot value for "created, then deleted" — must never be re-inserted.
const TOMB: u32 = u32::MAX - 1;

/// Dense map from workload file ids to the inodes of still-live files.
///
/// Equality and iteration consider only live `(FileId, Ino)` pairs, so
/// maps with different tombstone histories or trailing capacity compare
/// equal — the same logical-state contract the slab tables follow.
#[derive(Clone, Debug, Default)]
pub struct LiveMap {
    slots: Vec<u32>,
    len: usize,
}

impl LiveMap {
    /// An empty map.
    pub fn new() -> Self {
        LiveMap::default()
    }

    /// Number of live files.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no file is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The inode of `file`, if it is live.
    pub fn get(&self, file: &FileId) -> Option<Ino> {
        match self.slots.get(file.0 as usize) {
            Some(&i) if i != EMPTY && i != TOMB => Some(Ino(i)),
            _ => None,
        }
    }

    /// Records `file -> ino`, returning the previous inode if the file
    /// was already live. Debug builds panic when `file` was deleted
    /// before: the workload generator never reuses an id, and an insert
    /// over a tombstone means that invariant — which this map's density
    /// relies on — has been broken upstream.
    pub fn insert(&mut self, file: FileId, ino: Ino) -> Option<Ino> {
        debug_assert!(
            ino.0 != EMPTY && ino.0 != TOMB,
            "inode {} collides with a LiveMap sentinel",
            ino.0
        );
        let i = file.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, EMPTY);
        }
        let prev = std::mem::replace(&mut self.slots[i], ino.0);
        debug_assert!(prev != TOMB, "file id {} reused after deletion", file.0);
        if prev == EMPTY || prev == TOMB {
            self.len += 1;
            None
        } else {
            Some(Ino(prev))
        }
    }

    /// Removes `file`, returning its inode if it was live. The slot is
    /// tombstoned, never reusable.
    pub fn remove(&mut self, file: &FileId) -> Option<Ino> {
        let i = file.0 as usize;
        match self.slots.get_mut(i) {
            Some(s) if *s != EMPTY && *s != TOMB => {
                let ino = Ino(*s);
                *s = TOMB;
                self.len -= 1;
                Some(ino)
            }
            _ => None,
        }
    }

    /// Iterates live `(FileId, Ino)` pairs in ascending file-id order —
    /// exactly the order a checkpoint records them in.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Ino)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != EMPTY && s != TOMB)
            // Slots are indexed by `u32` ids, so every index fits one.
            .map(|(i, &s)| (FileId(i as u32), Ino(s)))
    }
}

impl PartialEq for LiveMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<(FileId, Ino)> for LiveMap {
    fn from_iter<I: IntoIterator<Item = (FileId, Ino)>>(iter: I) -> Self {
        let mut m = LiveMap::new();
        for (f, i) in iter {
            m.insert(f, i);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_map_tracks_inserts_and_removes() {
        let mut m = LiveMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(FileId(3), Ino(30)), None);
        assert_eq!(m.insert(FileId(0), Ino(10)), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&FileId(3)), Some(Ino(30)));
        assert_eq!(m.get(&FileId(1)), None);
        assert_eq!(m.insert(FileId(3), Ino(31)), Some(Ino(30)));
        assert_eq!(m.remove(&FileId(3)), Some(Ino(31)));
        assert_eq!(m.remove(&FileId(3)), None);
        assert_eq!(m.get(&FileId(3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_in_file_id_order() {
        let mut m = LiveMap::new();
        for &(f, i) in &[(9u32, 90u32), (2, 20), (5, 50)] {
            m.insert(FileId(f), Ino(i));
        }
        m.remove(&FileId(5));
        let pairs: Vec<(u32, u32)> = m.iter().map(|(f, i)| (f.0, i.0)).collect();
        assert_eq!(pairs, vec![(2, 20), (9, 90)]);
    }

    #[test]
    fn equality_ignores_tombstones_and_capacity() {
        let mut a = LiveMap::new();
        a.insert(FileId(1), Ino(11));
        let mut b = LiveMap::new();
        b.insert(FileId(1), Ino(11));
        b.insert(FileId(40), Ino(44));
        b.remove(&FileId(40));
        assert_eq!(a, b);
        b.insert(FileId(2), Ino(22));
        assert_ne!(a, b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reused after deletion")]
    fn reusing_a_dead_file_id_panics_in_debug() {
        let mut m = LiveMap::new();
        m.insert(FileId(7), Ino(1));
        m.remove(&FileId(7));
        m.insert(FileId(7), Ino(2));
    }
}
