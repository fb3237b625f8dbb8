//! The disk model's arithmetic is exact.
//!
//! `Geometry::rot_phase_us` replaces the `fmod` behind `rem_euclid` with
//! a floored quotient and one fused multiply-add, corrected by one step
//! when the quotient is off; it must equal `rem_euclid` bit for bit.
//! And a device golden: a fixed script of requests whose final clock and
//! every `DeviceStats` field are pinned bit for bit to the values of the
//! `fmod` model. The script mixes reads, writes, byte `transfer`s, host
//! think time, buffer-hit continuations, gap skips, and transfers that
//! cross a track or a cylinder boundary, and runs long enough that the
//! clock passes a million revolutions, where the rotational phase has
//! the fewest spare bits.

use disk::{Device, Geometry, IoKind};
use ffs_types::DiskParams;

/// SplitMix64: a fixed, dependency-free input stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn geometry(rpm: u32) -> Geometry {
    Geometry::new(DiskParams {
        rpm,
        ..DiskParams::seagate_32430n()
    })
}

/// Multiples of a revolution `k·rev` for `k` up to 10^9 — every `k` up
/// to 10^5, each power of ten, and 10^5 random `k` — each with its two
/// one-ulp neighbours.
fn multiples(rev: f64, rng: &mut Mix) -> Vec<f64> {
    let mut ks: Vec<u64> = (0..=100_000).collect();
    ks.extend((0..=9).map(|e| 10u64.pow(e)));
    ks.extend((0..100_000).map(|_| 1 + rng.next() % 1_000_000_000));
    let mut ts = Vec::with_capacity(ks.len() * 3);
    for k in ks {
        let t = k as f64 * rev;
        ts.push(t);
        if t > 0.0 {
            ts.push(f64::from_bits(t.to_bits() - 1));
            ts.push(f64::from_bits(t.to_bits() + 1));
        }
    }
    ts
}

#[test]
fn rot_phase_is_rem_euclid_bit_for_bit() {
    let mut rng = Mix(5411);
    // Times where the floored quotient overshoots, so the `q - 1` step
    // is what makes the result exact.
    let mut corrected = 0u64;
    for rpm in [3600, 5411, 7200, 15000] {
        let g = geometry(rpm);
        let rev = g.rev_time_us();
        let mut ts = vec![0.0, rev];
        ts.extend(multiples(rev, &mut rng));
        ts.extend((0..1_000_000).map(|_| rng.unit() * 1.0e12));
        for t in ts {
            let want = t.rem_euclid(rev);
            let got = g.rot_phase_us(t);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "rpm {rpm}: phase of {t:e} is {got:e}, rem_euclid says {want:e}"
            );
            if (-(t / rev).floor()).mul_add(rev, t) < 0.0 {
                corrected += 1;
            }
        }
    }
    assert!(corrected > 0, "no input exercised the quotient correction");
}

fn run_script(steps: u32) -> Device {
    let params = DiskParams::seagate_32430n();
    let spt = params.sectors_per_track as u64;
    let spc = params.sectors_per_cyl() as u64;
    let host = params.host_overhead_us;
    let mut dev = Device::new(params);
    let total = dev.geometry().total_sectors();
    let mut rng = Mix(1996);
    // Exclusive end of the last request: where a continuation starts.
    let mut next = 0u64;
    for _ in 0..steps {
        let r = rng.next();
        let sectors = 1 + (r >> 8) as u32 % 128;
        let (lba, write) = match r % 10 {
            // Continuation of the last request after host overhead: a
            // buffer hit when the last request was a read.
            0 | 1 => {
                dev.advance(host);
                (next, false)
            }
            // A gap skip of one to three sectors past the last request.
            2 => (next + 1 + (r >> 20) % 3, false),
            // Ends a few sectors before a track boundary.
            3 => {
                let track = (r >> 24) % (total / spt);
                ((track + 1) * spt - 1 - (r >> 16) % 8, (r >> 40) & 1 == 1)
            }
            // Ends a few sectors before a cylinder boundary.
            4 => {
                let cyl = (r >> 24) % (total / spc);
                ((cyl + 1) * spc - 1 - (r >> 16) % 4, (r >> 40) & 1 == 1)
            }
            5 => ((r >> 24) % total, false),
            6 => ((r >> 24) % total, true),
            7 => {
                let lba = (r >> 24) % (total - 1024);
                let bytes = 1 + (r >> 12) % (256 * 1024);
                let kind = if (r >> 40) & 1 == 1 {
                    IoKind::Write
                } else {
                    IoKind::Read
                };
                dev.transfer(kind, lba, bytes);
                next = lba + bytes.div_ceil(512);
                continue;
            }
            // Think time: long enough that the clock runs far.
            _ => {
                dev.advance(rng.unit() * 6.0e6);
                continue;
            }
        };
        let lba = if lba + sectors as u64 > total {
            lba % (total - sectors as u64)
        } else {
            lba
        };
        if write {
            dev.write(lba, sectors);
        } else {
            dev.read(lba, sectors);
        }
        next = lba + sectors as u64;
    }
    dev
}

#[test]
fn script_lands_on_the_pinned_clock_and_counters() {
    let dev = run_script(40_000);
    let rev = dev.geometry().params().rev_time_us();
    assert!(
        dev.now() / rev > 1.0e6,
        "the script must pass a million revolutions, ran {}",
        dev.now() / rev
    );
    let s = dev.stats();
    let got = (
        dev.now().to_bits(),
        s.reads,
        s.writes,
        s.sectors_read,
        s.sectors_written,
        s.buffer_hits,
        s.seeks,
        s.seek_time_us.to_bits(),
        s.rot_wait_us.to_bits(),
        s.stream_time_us.to_bits(),
    );
    assert_eq!(
        got,
        (
            4_762_266_755_796_889_798,
            24_980,
            13_173,
            1_799_734,
            1_052_725,
            8_529,
            20_064,
            4_731_152_775_814_509_442,
            4_729_718_581_021_973_929,
            4_732_305_308_870_147_888,
        )
    );
}
