//! Differential oracle for the precomputed volume geometry.
//!
//! [`ffs::Geometry`] caches what [`FsParams`] derives on demand — `dtog`
//! becomes one divide where the parameter set takes five, `itog` one where
//! it takes three — and
//! [`ffs::CylGroup`] turns blocks into addresses and back with a shift.
//! The `FsParams` helpers are the slow, obviously correct reference; this
//! suite holds the two equal where they could part ways: at block-aligned
//! addresses within one block of every group boundary, at and past the
//! volume's end, on the first and last blocks and inodes of every group, over
//! every shape of volume the rest of the test suite builds.

use ffs::{AllocPolicy, CylGroup, Filesystem, Geometry};
use ffs_types::{CgIdx, Daddr, FsParams, Ino, KB, MB};

/// The paper volume, the unit-test volume, dense inodes, a single group,
/// and a last group that absorbs a remainder (426/426/428 blocks).
fn geometries() -> [FsParams; 5] {
    let small = FsParams::small_test();
    [
        FsParams::paper_502mb(),
        small.clone(),
        FsParams {
            bytes_per_inode: 2048,
            ..FsParams::paper_502mb()
        },
        FsParams {
            ncg: 1,
            ..small.clone()
        },
        FsParams {
            size_bytes: 10 * MB,
            ncg: 3,
            ..small
        },
    ]
}

#[test]
fn geometry_equals_the_parameter_helpers() {
    for p in geometries() {
        let geom = Geometry::new(&p);
        let fpb = p.frags_per_block();
        assert_eq!((fpb, geom.frags_per_block()), (8, 8));
        assert_eq!(geom.total_data_blocks(), p.total_data_blocks(), "{p:?}");
        let last = CgIdx(p.ncg - 1);
        let limit = p.cg_base(last).0 + p.cg_nblocks(last) * fpb;
        assert_eq!(geom.frag_limit(), limit, "{p:?}");
        // The first, second and last inode of every group, and the one
        // past the volume's last.
        let per = p.inodes_per_cg();
        assert_eq!(geom.inodes_per_cg(), per, "{p:?}");
        for g in 0..p.ncg {
            for ino in [g * per, g * per + 1, (g + 1) * per - 1, (g + 1) * per] {
                assert_eq!(
                    geom.itog(Ino(ino)),
                    p.ino_to_cg(Ino(ino)),
                    "itog({ino}) {p:?}"
                );
            }
        }
        assert_eq!(
            Filesystem::new(p.clone(), AllocPolicy::Orig).geometry(),
            geom
        );
        // Every block-aligned address within a block of a group boundary,
        // of the volume's end, and of the end of the address space.
        let bases = (0..p.ncg).map(|g| p.cg_base(CgIdx(g)).0);
        let edges = bases.chain([limit, (u32::MAX / fpb - 1) * fpb]);
        for edge in edges {
            for d in [edge.saturating_sub(fpb), edge, edge + fpb] {
                assert_eq!(geom.dtog(Daddr(d)), p.dtog(Daddr(d)), "dtog({d}) {p:?}");
            }
        }
    }
}

#[test]
fn groups_convert_blocks_and_addresses_like_the_parameters() {
    for p in geometries() {
        let fpb = p.frags_per_block();
        let geom = Geometry::new(&p);
        for g in (0..p.ncg).map(CgIdx) {
            let cg = CylGroup::new(&p, g);
            assert_eq!(cg.nblocks(), p.cg_nblocks(g));
            let n = cg.nblocks();
            for b in [0, 1, cg.meta_blocks(), n / 2, n - 2, n - 1] {
                let d = Daddr(p.cg_base(g).0 + b * fpb);
                assert_eq!(cg.block_daddr(b), d, "block {b} of {g:?} {p:?}");
                assert_eq!(geom.dtog(d), g);
                for off in 0..fpb {
                    assert_eq!(cg.daddr_to_block(Daddr(d.0 + off)), (b, off));
                }
            }
        }
    }
}

#[test]
fn fewer_than_eight_fragments_per_block_is_refused() {
    for fsize in [2 * KB, 4 * KB, 8 * KB].map(|f| f as u32) {
        let p = FsParams {
            fsize,
            ..FsParams::small_test()
        };
        let err = std::panic::catch_unwind(|| Geometry::new(&p)).expect_err("accepted");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        let geometry = format!("8192 B blocks of {fsize} B fragments");
        assert!(msg.contains(&geometry), "{msg}");
    }
}
