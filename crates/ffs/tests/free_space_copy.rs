//! Differential test of [`Filesystem::copy_free_space`].
//!
//! The copy promises to be `clone()` minus the file table: no allocation
//! decision reads the file table, so the same `mkdir` / `create`
//! sequence must return the same ids and leave the same free space on
//! both. This suite ages small volumes under both policies (and with
//! every placement switch flipped), then drives a clone and a copy of
//! each through one sequence that crosses the fragment, direct-block,
//! indirect-block and write-chunk boundaries and ends in a create that
//! runs out of space and rolls back. After every operation the two must
//! agree on the result, the new inode's `FileMeta`, every directory,
//! every cylinder group, the rotors, utilization, the layout aggregate,
//! the write counter and the allocator statistics — and the copy must
//! list exactly the files created on it.

use ffs::{AllocPolicy, Filesystem};
use ffs_types::{CgIdx, DirId, FsError, FsParams, Ino, KB, MB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An image of [`FsParams::small_test`] aged by a create/remove stream
/// to about half full, with its directories.
fn aged(policy: AllocPolicy, switches: bool, seed: u64) -> (Filesystem, Vec<DirId>) {
    let mut fs = Filesystem::new(FsParams::small_test(), policy);
    fs.set_cluster_first_fit(switches);
    fs.set_realloc_no_split(switches);
    fs.set_frag_bestfit(switches);
    let mut dirs = fs.mkdir_per_cg().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Ino> = Vec::new();
    for day in 0..1500 {
        if day % 400 == 0 {
            dirs.push(fs.mkdir().unwrap());
        }
        let p_remove = if fs.utilization() > 0.45 { 0.7 } else { 0.3 };
        if !live.is_empty() && rng.gen_bool(p_remove) {
            let ino = live.swap_remove(rng.gen_range(0..live.len()));
            fs.remove(ino).unwrap();
        } else {
            let size = match rng.gen_range(0u32..10) {
                0..=5 => rng.gen_range(0..16 * KB),
                6..=8 => rng.gen_range(16 * KB..200 * KB),
                _ => rng.gen_range(200 * KB..MB),
            };
            let dir = dirs[rng.gen_range(0..dirs.len())];
            live.push(fs.create(dir, size, day).unwrap());
        }
    }
    assert!(fs.utilization() > 0.3, "aging left the volume nearly empty");
    (fs, dirs)
}

/// Everything the contract says the two must agree on.
fn assert_same_free_space(clone: &Filesystem, copy: &Filesystem, ctx: &str) {
    for g in (0..clone.ncg()).map(CgIdx) {
        assert_eq!(clone.cg(g), copy.cg(g), "{g:?} after {ctx}");
    }
    assert_eq!(clone.rotors(), copy.rotors(), "rotors after {ctx}");
    assert!(clone.dirs().eq(copy.dirs()), "directories after {ctx}");
    assert_eq!(clone.utilization(), copy.utilization(), "{ctx}");
    assert_eq!(clone.aggregate_layout(), copy.aggregate_layout(), "{ctx}");
    assert_eq!(clone.bytes_written(), copy.bytes_written(), "{ctx}");
    assert_eq!(clone.alloc_stats(), copy.alloc_stats(), "{ctx}");
}

/// Sizes on both sides of every boundary a create crosses at 8 KB
/// blocks: fragment tails, the last direct block (96 KB), the first
/// indirect block (104 KB), a cluster, and the 4 MB write chunk.
fn sizes() -> Vec<u64> {
    vec![
        0,
        KB,
        3 * KB,
        7 * KB + 1,
        8 * KB,
        15 * KB + 512,
        16 * KB,
        56 * KB,
        95 * KB,
        96 * KB,
        97 * KB,
        104 * KB,
        112 * KB,
        MB,
        4 * MB + 24 * KB + 3 * KB,
        20 * KB,
    ]
}

/// Runs the sequence on a clone and a copy of `aged`, comparing after
/// every operation.
fn run(aged: &Filesystem, old_dirs: &[DirId], ctx: &str) {
    let mut clone = aged.clone();
    let mut copy = aged.copy_free_space();
    assert_eq!(copy.nfiles(), 0, "{ctx}: the copy starts with no files");
    assert_same_free_space(&clone, &copy, &format!("copying ({ctx})"));

    let mkdir = |clone: &mut Filesystem, copy: &mut Filesystem| {
        let (a, b) = (clone.mkdir(), copy.mkdir());
        assert_eq!(a, b, "{ctx}: mkdir");
        a.unwrap()
    };
    let mut new_dirs = vec![mkdir(&mut clone, &mut copy)];
    let mut created: Vec<Ino> = Vec::new();
    let mut create = |clone: &mut Filesystem, copy: &mut Filesystem, dir, size| {
        let what = format!("create of {size} bytes in {dir:?} ({ctx})");
        let (a, b) = (clone.create(dir, size, 7), copy.create(dir, size, 7));
        assert_eq!(a, b, "{what}");
        if let Ok(ino) = a {
            assert_eq!(clone.file(ino), copy.file(ino), "{what}");
            created.push(ino);
        }
        assert_same_free_space(clone, copy, &what);
        let listed: Vec<Ino> = copy.files().map(|f| f.ino).collect();
        let mut want = created.clone();
        want.sort_unstable();
        assert_eq!(listed, want, "{what}: the copy lists only its own files");
        assert_eq!(copy.nfiles(), created.len(), "{what}");
        assert_eq!(clone.nfiles(), aged.nfiles() + created.len(), "{what}");
        a
    };

    for (i, size) in sizes().into_iter().enumerate() {
        if i == 8 {
            new_dirs.push(mkdir(&mut clone, &mut copy));
        }
        // Alternate between the new directories and the aged image's.
        let dir = if i % 2 == 0 {
            new_dirs[i / 2 % new_dirs.len()]
        } else {
            old_dirs[i % old_dirs.len()]
        };
        create(&mut clone, &mut copy, dir, size)
            .unwrap_or_else(|e| panic!("{ctx}: create of {size} bytes: {e:?}"));
    }

    // More than is free: runs out well past the indirect switch, and
    // both roll back to the same state.
    let too_big = (copy.free_blocks() + 3) * copy.params().bsize as u64;
    let err = create(&mut clone, &mut copy, old_dirs[0], too_big).unwrap_err();
    assert!(matches!(err, FsError::NoSpace { .. }), "{ctx}: {err:?}");
    // And the state the roll-back left allocates alike.
    create(&mut clone, &mut copy, new_dirs[0], 40 * KB).unwrap();
}

#[test]
fn copy_allocates_as_the_clone_does() {
    for (i, policy) in [AllocPolicy::Orig, AllocPolicy::Realloc]
        .into_iter()
        .enumerate()
    {
        for switches in [false, true] {
            let seed = 1996 + i as u64 * 2 + u64::from(switches);
            let (fs, dirs) = aged(policy, switches, seed);
            run(&fs, &dirs, &format!("{policy:?}, switches {switches}"));
        }
    }
}

#[test]
fn the_copy_leaves_the_original_alone() {
    let (fs, dirs) = aged(AllocPolicy::Realloc, false, 7);
    let digest = fs.digest();
    let mut copy = fs.copy_free_space();
    copy.create(dirs[0], 200 * KB, 1).unwrap();
    assert_eq!(fs.digest(), digest);
    // The files it left out are not the copy's to read or remove.
    let old = fs.files().next().unwrap().ino;
    assert!(copy.file(old).is_none());
    assert_eq!(copy.remove(old), Err(FsError::NoSuchFile(old)));
    // Their space is allocated to no inode the copy has.
    assert!(!ffs::check(&copy).is_empty());
}
