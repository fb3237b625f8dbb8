//! Property tests for the disk timing model.

use disk::{Device, Geometry, IoKind};
use ffs_types::DiskParams;
use proptest::prelude::*;

/// A scripted device request.
#[derive(Clone, Debug)]
enum Req {
    Read { lba: u64, sectors: u32 },
    Write { lba: u64, sectors: u32 },
    Think { us: u32 },
    Transfer { lba: u64, bytes: u32, write: bool },
}

fn reqs() -> impl Strategy<Value = Vec<Req>> {
    let total = 3992u64 * 9 * 116;
    let lba = 0..total - 2048;
    proptest::collection::vec(
        prop_oneof![
            (lba.clone(), 1u32..256).prop_map(|(lba, sectors)| Req::Read { lba, sectors }),
            (lba.clone(), 1u32..256).prop_map(|(lba, sectors)| Req::Write { lba, sectors }),
            (0u32..50_000).prop_map(|us| Req::Think { us }),
            (lba, 512u32..512 * 1024, any::<bool>())
                .prop_map(|(lba, bytes, write)| Req::Transfer { lba, bytes, write }),
        ],
        1..60,
    )
}

/// Physical upper bound on one request's latency: max seek, two
/// revolutions, the streaming, and a generous switch allowance.
fn latency_bound(params: &DiskParams, sectors: u32) -> f64 {
    params.max_seek_ms * 1000.0
        + 2.0 * params.rev_time_us()
        + sectors as f64 * params.sector_time_us()
        + sectors as f64 / 100.0 * 3000.0
        + 10_000.0
}

/// A grid of drive shapes around Table 1's: spindle speed, sectors per
/// track, heads, cylinders.
fn drives() -> impl Strategy<Value = DiskParams> {
    (3600u32..15_001, 16u32..400, 1u32..32, 100u32..10_000).prop_map(
        |(rpm, sectors_per_track, heads, cylinders)| DiskParams {
            rpm,
            sectors_per_track,
            heads,
            cylinders,
            ..DiskParams::seagate_32430n()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Time only moves forward; every latency, read or write, is
    /// non-negative and bounded by physics (seek + rotation + streaming +
    /// switches); every mechanical request waits less than one
    /// revolution for its sector.
    #[test]
    fn time_is_monotone_and_bounded(script in reqs()) {
        let params = DiskParams::seagate_32430n();
        let rev = params.rev_time_us();
        let mut dev = Device::new(params.clone());
        let mut prev = dev.now();
        for r in &script {
            let rot_before = dev.stats().rot_wait_us;
            let hits_before = dev.stats().buffer_hits;
            match *r {
                Req::Read { lba, sectors } => {
                    let lat = dev.read(lba, sectors);
                    prop_assert!(lat >= 0.0);
                    let bound = latency_bound(&params, sectors);
                    prop_assert!(lat <= bound, "read latency {lat} > {bound}");
                }
                Req::Write { lba, sectors } => {
                    let lat = dev.write(lba, sectors);
                    prop_assert!(lat >= 0.0);
                    let bound = latency_bound(&params, sectors);
                    prop_assert!(lat <= bound, "write latency {lat} > {bound}");
                }
                Req::Think { us } => dev.advance(us as f64),
                Req::Transfer { lba, bytes, write } => {
                    let kind = if write { IoKind::Write } else { IoKind::Read };
                    let lat = dev.transfer(kind, lba, bytes as u64);
                    prop_assert!(lat > 0.0);
                }
            }
            let mechanical = match *r {
                Req::Read { .. } => dev.stats().buffer_hits == hits_before,
                Req::Write { .. } => true,
                _ => false,
            };
            if mechanical {
                let rot = dev.stats().rot_wait_us - rot_before;
                prop_assert!((0.0..rev).contains(&rot), "rotational wait {rot} outside [0, {rev})");
            }
            prop_assert!(dev.now() >= prev, "clock moved backwards");
            prev = dev.now();
        }
    }

    /// The constants `Geometry` caches are the ones `DiskParams` derives,
    /// bit for bit.
    #[test]
    fn geometry_caches_the_params_constants(params in drives()) {
        let g = Geometry::new(params.clone());
        prop_assert_eq!(g.rev_time_us().to_bits(), params.rev_time_us().to_bits());
        prop_assert_eq!(g.sector_time_us().to_bits(), params.sector_time_us().to_bits());
        prop_assert_eq!(g.sectors_per_cyl(), params.sectors_per_cyl());
        prop_assert_eq!(
            g.total_sectors(),
            params.cylinders as u64 * params.sectors_per_cyl() as u64
        );
    }

    /// The streaming walk ends on the cylinder of the transfer's last
    /// sector.
    #[test]
    fn stream_ends_on_the_last_sectors_cylinder(
        params in drives(),
        at in 0.0f64..1.0,
        sectors in 1u32..4096,
    ) {
        let g = Geometry::new(params);
        let sectors = (sectors as u64).min(g.total_sectors()) as u32;
        let lba = (at * (g.total_sectors() - sectors as u64) as f64) as u64;
        let (_, end_cyl) = g.stream_time_us(g.lba_to_chs(lba), sectors);
        prop_assert_eq!(end_cyl, g.lba_to_chs(lba + sectors as u64 - 1).cyl);
    }

    /// The device is deterministic: the same script produces the same
    /// clock and statistics.
    #[test]
    fn device_is_deterministic(script in reqs()) {
        let params = DiskParams::seagate_32430n();
        let mut a = Device::new(params.clone());
        let mut b = Device::new(params);
        for r in &script {
            match *r {
                Req::Read { lba, sectors } => {
                    a.read(lba, sectors);
                    b.read(lba, sectors);
                }
                Req::Write { lba, sectors } => {
                    a.write(lba, sectors);
                    b.write(lba, sectors);
                }
                Req::Think { us } => {
                    a.advance(us as f64);
                    b.advance(us as f64);
                }
                Req::Transfer { lba, bytes, write } => {
                    let kind = if write { IoKind::Write } else { IoKind::Read };
                    a.transfer(kind, lba, bytes as u64);
                    b.transfer(kind, lba, bytes as u64);
                }
            }
        }
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Statistics account for every sector moved, and hits never exceed
    /// reads.
    #[test]
    fn stats_account_for_all_sectors(script in reqs()) {
        let params = DiskParams::seagate_32430n();
        let mut dev = Device::new(params);
        let mut exp_read = 0u64;
        let mut exp_written = 0u64;
        for r in &script {
            match *r {
                Req::Read { lba, sectors } => {
                    dev.read(lba, sectors);
                    exp_read += sectors as u64;
                }
                Req::Write { lba, sectors } => {
                    dev.write(lba, sectors);
                    exp_written += sectors as u64;
                }
                Req::Think { us } => dev.advance(us as f64),
                Req::Transfer { lba, bytes, write } => {
                    let kind = if write { IoKind::Write } else { IoKind::Read };
                    dev.transfer(kind, lba, bytes as u64);
                    let sectors = (bytes as u64).div_ceil(512);
                    if write {
                        exp_written += sectors;
                    } else {
                        exp_read += sectors;
                    }
                }
            }
        }
        let s = dev.stats();
        prop_assert_eq!(s.sectors_read, exp_read);
        prop_assert_eq!(s.sectors_written, exp_written);
        prop_assert!(s.buffer_hits <= s.reads);
        prop_assert!(s.seeks <= s.reads + s.writes);
    }

    /// Re-reading data that was just read is always at least as fast
    /// (the buffer can only help).
    #[test]
    fn rereads_never_slower(lba in 0u64..1_000_000, sectors in 1u32..128) {
        let params = DiskParams::seagate_32430n();
        let mut dev = Device::new(params);
        let first = dev.read(lba, sectors);
        let second = dev.read(lba, sectors);
        prop_assert!(
            second <= first + 1.0,
            "re-read {second} slower than first {first}"
        );
    }
}
