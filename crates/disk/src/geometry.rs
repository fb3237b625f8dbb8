//! Logical-block to cylinder/head/sector mapping and media streaming time.
//!
//! The ST32430N is a zoned drive; following Table 1 we model it with the
//! average track length (116 sectors) on every track. Track and cylinder
//! skew are assumed ideal: a sequential transfer that crosses a track or
//! cylinder boundary pays the switch time but never an extra rotation.

use ffs_types::DiskParams;

/// A decoded physical position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chs {
    /// Cylinder index.
    pub cyl: u32,
    /// Head (track within the cylinder).
    pub head: u32,
    /// Sector within the track.
    pub sector: u32,
}

/// Disk geometry helper: derived constants plus address arithmetic.
///
/// Every constant a request needs is worked out once, in [`Geometry::new`],
/// by the same expression [`DiskParams`] uses, so the cached values are
/// bit-identical to deriving them per call.
#[derive(Clone, Debug)]
pub struct Geometry {
    params: DiskParams,
    spc: u64,
    total_sectors: u64,
    rev_us: f64,
    sector_us: f64,
    cyl_switch_us: f64,
}

impl Geometry {
    /// Builds a geometry from disk parameters.
    pub fn new(params: DiskParams) -> Geometry {
        let spc = params.sectors_per_cyl() as u64;
        Geometry {
            spc,
            total_sectors: params.cylinders as u64 * spc,
            rev_us: params.rev_time_us(),
            sector_us: params.sector_time_us(),
            cyl_switch_us: params.min_seek_ms * 1000.0,
            params,
        }
    }

    /// The underlying parameter set.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Total addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Sectors per cylinder ([`DiskParams::sectors_per_cyl`]).
    pub fn sectors_per_cyl(&self) -> u32 {
        self.spc as u32
    }

    /// One revolution in microseconds ([`DiskParams::rev_time_us`]).
    pub fn rev_time_us(&self) -> f64 {
        self.rev_us
    }

    /// One sector under the head in microseconds
    /// ([`DiskParams::sector_time_us`]).
    pub fn sector_time_us(&self) -> f64 {
        self.sector_us
    }

    /// Decodes an LBA into cylinder, head, and sector.
    pub fn lba_to_chs(&self, lba: u64) -> Chs {
        let spt = self.params.sectors_per_track as u64;
        let cyl = (lba / self.spc) as u32;
        let within = lba % self.spc;
        Chs {
            cyl,
            head: (within / spt) as u32,
            sector: (within % spt) as u32,
        }
    }

    /// Encodes cylinder/head/sector back into an LBA.
    pub fn chs_to_lba(&self, chs: Chs) -> u64 {
        chs.cyl as u64 * self.spc
            + chs.head as u64 * self.params.sectors_per_track as u64
            + chs.sector as u64
    }

    /// Angular slot of a sector on its track, in microseconds from a
    /// fixed rotational reference; always in `[0, rev)`.
    ///
    /// The ST32430N is zoned: sectors per track varies across the disk,
    /// so the angular position of an LBA is effectively decorrelated
    /// between tracks (Table 1's 116 sectors/track is an average). We
    /// keep the uniform geometry for capacity and streaming, but give
    /// each track a pseudorandom skew so that cross-track jumps pay a
    /// realistic (uniformly distributed) rotational delay while
    /// same-track gaps stay cheap. Strictly sequential streaming never
    /// consults this — the stream model assumes ideal skew.
    pub fn angular_offset_us(&self, chs: Chs) -> f64 {
        let track = chs.cyl as u64 * self.params.heads as u64 + chs.head as u64;
        let spt = self.params.sectors_per_track as u64;
        // Both terms are below `spt`, so one subtraction wraps the sum.
        let mut slot = chs.sector as u64 + track_hash(track) % spt;
        if slot >= spt {
            slot -= spt;
        }
        slot as f64 * self.sector_us
    }

    /// Rotational phase of simulated time `t`: `t.rem_euclid(rev)`,
    /// bit for bit, without the `fmod` call.
    ///
    /// The true remainder `t - q·rev` of a float by a float is always
    /// representable, so one fused multiply-add from the right quotient
    /// `q` rounds to it exactly. `(t / rev).floor()` is that quotient or
    /// off by one either way (the result's sign or its reaching `rev`
    /// says which) while `t / rev < 2^52`: about 1.6 million simulated
    /// years at 5411 rpm. Past that the quotient can be off by more, so
    /// the domain is asserted.
    pub fn rot_phase_us(&self, t: f64) -> f64 {
        let rev = self.rev_us;
        let q = (t / rev).floor();
        debug_assert!(
            t >= 0.0 && q < (1u64 << 52) as f64,
            "rotational phase of {t} us is outside the exact domain"
        );
        let r = (-q).mul_add(rev, t);
        if r < 0.0 {
            (1.0 - q).mul_add(rev, t)
        } else if r >= rev {
            (-1.0 - q).mul_add(rev, t)
        } else {
            r
        }
    }

    /// Time to stream `sectors` sectors starting at `start` once the
    /// head is positioned — media rotation plus head/cylinder switch
    /// times — and the cylinder the transfer ends on. Skew is assumed to
    /// exactly hide switch latency, so no extra rotations are charged.
    pub fn stream_time_us(&self, start: Chs, sectors: u32) -> (f64, u32) {
        let mut remaining = sectors;
        let mut pos = start;
        let mut t = 0.0;
        while remaining > 0 {
            let on_track = (self.params.sectors_per_track - pos.sector).min(remaining);
            t += on_track as f64 * self.sector_us;
            remaining -= on_track;
            if remaining > 0 {
                // Advance to the next track.
                if pos.head + 1 < self.params.heads {
                    pos = Chs {
                        cyl: pos.cyl,
                        head: pos.head + 1,
                        sector: 0,
                    };
                    t += self.params.head_switch_us;
                } else {
                    pos = Chs {
                        cyl: pos.cyl + 1,
                        head: 0,
                        sector: 0,
                    };
                    t += self.cyl_switch_us;
                }
            }
        }
        (t, pos.cyl)
    }
}

/// SplitMix64-style track hash used for the per-track rotational skew.
fn track_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(DiskParams::seagate_32430n())
    }

    #[test]
    fn chs_round_trip() {
        let g = geom();
        for lba in [0u64, 1, 115, 116, 1043, 1044, 1_000_000] {
            let chs = g.lba_to_chs(lba);
            assert_eq!(g.chs_to_lba(chs), lba, "lba {lba}");
        }
    }

    #[test]
    fn track_and_cylinder_boundaries() {
        let g = geom();
        // Sector 116 is head 1 sector 0.
        assert_eq!(
            g.lba_to_chs(116),
            Chs {
                cyl: 0,
                head: 1,
                sector: 0
            }
        );
        // Sector 1044 (9 tracks x 116) is cylinder 1.
        assert_eq!(
            g.lba_to_chs(1044),
            Chs {
                cyl: 1,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn total_capacity_matches_params() {
        let g = geom();
        assert_eq!(g.total_sectors(), 3992 * 9 * 116);
    }

    #[test]
    fn stream_time_single_track() {
        let g = geom();
        let st = g.params().sector_time_us();
        // 10 sectors within one track: pure rotation.
        let t = g.stream_time_us(g.lba_to_chs(0), 10).0;
        assert!((t - 10.0 * st).abs() < 1e-6);
    }

    #[test]
    fn stream_time_charges_head_switch() {
        let g = geom();
        let st = g.params().sector_time_us();
        // Crossing one track boundary adds exactly one head switch.
        let t = g.stream_time_us(g.lba_to_chs(110), 12).0;
        let expected = 12.0 * st + g.params().head_switch_us;
        assert!((t - expected).abs() < 1e-6);
    }

    #[test]
    fn stream_time_charges_cylinder_switch() {
        let g = geom();
        let st = g.params().sector_time_us();
        // Crossing the cylinder boundary (after head 8) costs a
        // single-cylinder seek instead of a head switch.
        let start = 1043; // Last sector of cylinder 0.
        let (t, end_cyl) = g.stream_time_us(g.lba_to_chs(start), 2);
        let expected = 2.0 * st + g.params().min_seek_ms * 1000.0;
        assert!((t - expected).abs() < 1e-6);
        assert_eq!(end_cyl, 1);
    }

    #[test]
    fn angular_offset_preserves_same_track_spacing() {
        let g = geom();
        let st = g.params().sector_time_us();
        let rev = g.params().rev_time_us();
        // Within one track, consecutive sectors are one sector time
        // apart (modulo a revolution).
        let d = (g.angular_offset_us(g.lba_to_chs(6)) - g.angular_offset_us(g.lba_to_chs(5)))
            .rem_euclid(rev);
        assert!((d - st).abs() < 1e-9);
        // Offsets always lie within one revolution.
        for lba in [0u64, 115, 116, 1044, 999_999] {
            let a = g.angular_offset_us(g.lba_to_chs(lba));
            assert!((0.0..rev).contains(&a), "offset {a} for lba {lba}");
        }
    }

    #[test]
    fn angular_offset_decorrelates_across_tracks() {
        // Different tracks get different pseudorandom skews (zoned
        // geometry): at least some consecutive track pairs must differ.
        let g = geom();
        let mut distinct = 0;
        for t in 0..20u64 {
            let a = g.angular_offset_us(g.lba_to_chs(t * 116));
            let b = g.angular_offset_us(g.lba_to_chs((t + 1) * 116));
            if (a - b).abs() > 1e-6 {
                distinct += 1;
            }
        }
        assert!(distinct > 10, "only {distinct} of 20 pairs differ");
    }
}
