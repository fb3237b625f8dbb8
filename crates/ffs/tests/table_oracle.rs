//! Differential oracle for the slab-backed file tables.
//!
//! `ffs::Slab` answers keyed lookups from packed values plus derived
//! indices (key → slot entries, occupancy bitmap); [`RefTable`] here is
//! the `BTreeMap` layout it replaced, kept as the slow, obviously correct
//! model. These tests drive both through identical
//! randomized op sequences — keyed inserts (including re-insert over a
//! live key), removes of live and dead keys, in-place mutation through
//! `get_mut` — and assert the canonical state stays identical, the
//! slab's derived indices stay sound at every step, and the slot order
//! its swap-removes leave behind never shows.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use ffs::{BlockList, Slab, SlabKey};
use ffs_types::{Daddr, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference keyed file table: a `BTreeMap` keyed by slab index behind
/// the same externally-assigned-key API as [`Slab`].
#[derive(Clone, Debug, Default)]
struct RefTable<K: SlabKey, V> {
    map: BTreeMap<usize, V>,
    _key: PhantomData<fn() -> K>,
}

impl<K: SlabKey, V> RefTable<K, V> {
    fn new() -> Self {
        RefTable {
            map: BTreeMap::new(),
            _key: PhantomData,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(&key.slab_index())
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(&key.slab_index())
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(&key.slab_index())
    }

    /// Stores `value` under the externally assigned `key`, returning the
    /// previous value if the key was live.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key.slab_index(), value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(&key.slab_index())
    }

    /// Live keys in ascending order — the canonical iteration order
    /// shared with the slab.
    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys().map(|&i| K::from_slab_index(i))
    }

    /// Live values in ascending key order.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }
}

/// Asserts the two tables agree on every observable: size, membership,
/// canonical iteration order, and per-key lookups.
fn assert_same<V: PartialEq + std::fmt::Debug>(
    slab: &Slab<Ino, V>,
    reference: &RefTable<Ino, V>,
    key_space: u32,
) {
    assert_eq!(slab.len(), reference.len());
    assert_eq!(slab.is_empty(), reference.is_empty());
    let sk: Vec<Ino> = slab.keys().collect();
    let rk: Vec<Ino> = reference.keys().collect();
    assert_eq!(sk, rk, "canonical key order diverged");
    assert!(slab.values().eq(reference.values()), "values diverged");
    for i in 0..key_space {
        let key = Ino(i);
        assert_eq!(slab.contains_key(&key), reference.contains_key(&key));
        assert_eq!(slab.get(&key), reference.get(&key), "lookup of {key:?}");
    }
    if let Some(v) = slab.index_violation() {
        panic!("slab index violation after valid ops: {v}");
    }
}

#[test]
fn slab_matches_map_reference_under_random_ops() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x7AB1E + seed);
        let mut slab: Slab<Ino, u64> = Slab::new();
        let mut reference: RefTable<Ino, u64> = RefTable::new();
        // A small key space forces heavy slot reuse: every key gets
        // inserted, removed, and re-inserted many times, so values keep
        // moving between slots under the index.
        let key_space = 48u32;
        for step in 0..3000u64 {
            let key = Ino(rng.gen_range(0..key_space));
            match rng.gen_range(0..10) {
                0..=4 => {
                    let value = step;
                    assert_eq!(slab.insert(key, value), reference.insert(key, value));
                }
                5..=7 => {
                    assert_eq!(slab.remove(&key), reference.remove(&key));
                }
                _ => {
                    let a = slab.get_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    let b = reference.get_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(a, b);
                }
            }
            if step % 16 == 0 {
                assert_same(&slab, &reference, key_space);
            }
        }
        assert_same(&slab, &reference, key_space);
    }
}

#[test]
fn slab_matches_map_reference_with_block_lists() {
    // Same drill with `BlockList` values mutated in place, so spill,
    // copy-back, and copy-on-write sharing all run under the oracle.
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut slab: Slab<Ino, BlockList> = Slab::new();
    let mut reference: RefTable<Ino, BlockList> = RefTable::new();
    let key_space = 24u32;
    let mut snapshots: Vec<(Slab<Ino, BlockList>, RefTable<Ino, BlockList>)> = Vec::new();
    for step in 0..1500u64 {
        let key = Ino(rng.gen_range(0..key_space));
        match rng.gen_range(0..10) {
            0..=3 => {
                let blocks: BlockList = (0..rng.gen_range(0..20u32))
                    .map(|b| Daddr(step as u32 * 32 + b))
                    .collect();
                assert_eq!(
                    slab.insert(key, blocks.clone()),
                    reference.insert(key, blocks)
                );
            }
            4..=5 => {
                assert_eq!(slab.remove(&key), reference.remove(&key));
            }
            6..=8 => {
                // Grow or shrink in place; clones taken below must not
                // observe these writes (copy-on-write isolation).
                let a = slab.get_mut(&key).map(|v| {
                    if step % 3 == 0 {
                        v.pop();
                    } else {
                        v.push(Daddr(step as u32));
                    }
                    v.len()
                });
                let b = reference.get_mut(&key).map(|v| {
                    if step % 3 == 0 {
                        v.pop();
                    } else {
                        v.push(Daddr(step as u32));
                    }
                    v.len()
                });
                assert_eq!(a, b);
            }
            _ => {
                if snapshots.len() < 8 {
                    snapshots.push((slab.clone(), reference.clone()));
                }
            }
        }
        if step % 16 == 0 {
            assert_same(&slab, &reference, key_space);
        }
    }
    assert_same(&slab, &reference, key_space);
    // Every snapshot pair must still agree with each other: shared block
    // lists were unshared on write, never mutated through the clone.
    for (s, r) in &snapshots {
        assert_same(s, r, key_space);
    }
}

#[test]
fn sparse_slab_matches_map_reference_at_paper_volume_shape() {
    // The paper volume's shape: inode numbers from 0..131 072, at most
    // 8 000 of them live, churned in batches of inserts, removes (live
    // and dead keys), re-inserts over live keys, in-place edits and
    // clones.
    const KEY_SPACE: u32 = 131_072;
    const MAX_LIVE: usize = 8_000;
    let mut rng = StdRng::seed_from_u64(0x5BA5E);
    let mut slab: Slab<Ino, u64> = Slab::new();
    let mut reference: RefTable<Ino, u64> = RefTable::new();
    let mut live: Vec<Ino> = Vec::new();
    for batch in 0..16u64 {
        for step in 0..3000u64 {
            let value = batch << 32 | step;
            let pick = rng.gen_range(0..live.len().max(1));
            match rng.gen_range(0..10) {
                0..=4 if live.len() < MAX_LIVE => {
                    let key = Ino(rng.gen_range(0..KEY_SPACE));
                    let old = reference.insert(key, value);
                    assert_eq!(slab.insert(key, value), old);
                    if old.is_none() {
                        live.push(key);
                    }
                }
                0..=6 if !live.is_empty() => {
                    let key = live.swap_remove(pick);
                    assert_eq!(slab.remove(&key), reference.remove(&key));
                }
                7 => {
                    let key = Ino(rng.gen_range(0..KEY_SPACE));
                    let gone = reference.remove(&key);
                    assert_eq!(slab.remove(&key), gone);
                    if gone.is_some() {
                        live.retain(|&k| k != key);
                    }
                }
                8 if !live.is_empty() => {
                    let key = live[pick];
                    assert_eq!(slab.insert(key, value), reference.insert(key, value));
                }
                _ if !live.is_empty() => {
                    let key = live[pick];
                    *slab.get_mut(&key).expect("live") ^= value;
                    *reference.get_mut(&key).expect("live") ^= value;
                }
                _ => {}
            }
        }
        assert_eq!(slab.len(), live.len());
        assert_same(&slab, &reference, KEY_SPACE);

        // The same entries reached by another history — ascending
        // inserts, so another slot order — are the same table.
        let mut rebuilt: Slab<Ino, u64> = Slab::new();
        for (k, &v) in reference.keys().zip(reference.values()) {
            rebuilt.insert(k, v);
        }
        assert_eq!(rebuilt, slab, "batch {batch}: slot order leaked");
        assert!(rebuilt.keys().eq(slab.keys()) && rebuilt.values().eq(slab.values()));
        let copy = slab.clone();
        assert_eq!(copy, slab);
        assert_eq!(copy.index_violation(), None);

        // A torn index is seen, rebuilt without loss, and usable after.
        let mut torn = copy;
        assert!(torn.scramble_index(|bound| rng.gen_range(0..bound)));
        assert!(
            torn.index_violation().is_some(),
            "batch {batch}: tear unseen"
        );
        torn.rebuild_index();
        assert_eq!(torn.index_violation(), None);
        assert_eq!(torn, slab, "batch {batch}: rebuild lost data");
        if let Some(&key) = live.first() {
            assert_eq!(torn.remove(&key), reference.get(&key).copied());
            assert_eq!(torn.insert(Ino(KEY_SPACE), 1), None);
            assert_eq!(torn.len(), slab.len());
            assert_eq!(torn.index_violation(), None);
        }
    }
    assert!(slab.len() > 4000, "churn never filled the table");
}
