//! The simulated disk device: a clock, a head position, and a track
//! buffer.
//!
//! All service times are computed from first principles: seek (distance
//! curve), rotational positioning (angular slot of the target sector at
//! the time the head arrives), and media streaming (sectors passing under
//! the head, plus head/cylinder switch times). Reads feed a 512 KB
//! read-ahead buffer that continues streaming while the host thinks;
//! writes are unbuffered, so a back-to-back sequential write stream loses
//! most of a rotation per request.

use ffs_types::DiskParams;

use crate::geometry::{Chs, Geometry};
use crate::seek::SeekCurve;
use crate::trace::{IoTrace, TraceEvent};

/// Direction of a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// A read from media (or the track buffer).
    Read,
    /// A write to media.
    Write,
}

/// Aggregate counters kept by the device, for tests and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Sectors read.
    pub sectors_read: u64,
    /// Sectors written.
    pub sectors_written: u64,
    /// Read requests satisfied (at least partly) by the track buffer.
    pub buffer_hits: u64,
    /// Requests that required a non-zero seek.
    pub seeks: u64,
    /// Total time spent seeking, in microseconds.
    pub seek_time_us: f64,
    /// Total rotational-positioning wait, in microseconds.
    pub rot_wait_us: f64,
    /// Total media streaming time, in microseconds.
    pub stream_time_us: f64,
}

impl DeviceStats {
    /// Adds every counter of `other` into `self`, so the totals of
    /// several independent device runs can be reported as one.
    /// Counts saturate at `u64::MAX` rather than wrapping.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads = self.reads.saturating_add(other.reads);
        self.writes = self.writes.saturating_add(other.writes);
        self.sectors_read = self.sectors_read.saturating_add(other.sectors_read);
        self.sectors_written = self.sectors_written.saturating_add(other.sectors_written);
        self.buffer_hits = self.buffer_hits.saturating_add(other.buffer_hits);
        self.seeks = self.seeks.saturating_add(other.seeks);
        self.seek_time_us += other.seek_time_us;
        self.rot_wait_us += other.rot_wait_us;
        self.stream_time_us += other.stream_time_us;
    }
}

/// Read-ahead state: the drive keeps streaming sequentially from the last
/// media read, bounded by the track-buffer capacity ahead of the furthest
/// sector the host has consumed.
#[derive(Clone, Debug)]
struct ReadAhead {
    /// First LBA still held in the buffer.
    buf_start: u64,
    /// Exclusive end of the data read from media so far.
    frontier: u64,
    /// Simulated time at which `frontier` was reached.
    frontier_time: f64,
    /// Furthest LBA (exclusive) the host has consumed; the frontier may
    /// run at most one buffer-length ahead of this.
    consumed: u64,
}

/// The simulated disk.
///
/// Everything a request derives from [`DiskParams`] is worked out once in
/// [`Device::new`] (here, in [`Geometry`] and in [`SeekCurve`]), and a
/// mechanical request decodes its LBA once.
#[derive(Clone, Debug)]
pub struct Device {
    geom: Geometry,
    seek: SeekCurve,
    now: f64,
    cur_cyl: u32,
    ra: Option<ReadAhead>,
    stats: DeviceStats,
    buffer_sectors: u64,
    /// Bus rate in bytes per microsecond.
    bus_rate: f64,
    /// Bytes per sector, for the bus time.
    sector_bytes: f64,
    /// Largest request `transfer` issues, in sectors.
    max_sectors: u64,
    trace: Option<IoTrace>,
}

impl Device {
    /// Creates a device at time zero with the head parked at cylinder 0.
    pub fn new(params: DiskParams) -> Device {
        let seek = SeekCurve::new(&params);
        let buffer_sectors = (params.track_buffer_bytes / params.sector_size) as u64;
        let bus_rate = params.bus_mb_per_sec * 1024.0 * 1024.0 / 1e6;
        let sector_bytes = params.sector_size as f64;
        let max_sectors = (params.max_transfer_bytes as u64 / params.sector_size as u64).max(1);
        Device {
            geom: Geometry::new(params),
            seek,
            now: 0.0,
            cur_cyl: 0,
            ra: None,
            stats: DeviceStats::default(),
            buffer_sectors,
            bus_rate,
            sector_bytes,
            max_sectors,
            trace: None,
        }
    }

    /// Enables request tracing with a bounded event buffer; pass 0 to
    /// disable again.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = if capacity == 0 {
            None
        } else {
            Some(IoTrace::new(capacity))
        };
    }

    /// The request trace, when enabled.
    pub fn trace(&self) -> Option<&IoTrace> {
        self.trace.as_ref()
    }

    /// Current simulated time in microseconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The device's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Counters accumulated since creation.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Advances the clock by host think time (the read-ahead engine keeps
    /// streaming during it).
    pub fn advance(&mut self, us: f64) {
        debug_assert!(us >= 0.0);
        self.now += us;
    }

    /// Rotational wait from time `t` until the angular slot of `target`
    /// arrives under the head; in `[0, rev)`.
    fn rot_wait(&self, t: f64, target: Chs) -> f64 {
        // Both terms lie in [0, rev), so one add wraps the difference.
        let d = self.geom.angular_offset_us(target) - self.geom.rot_phase_us(t);
        if d < 0.0 {
            d + self.geom.rev_time_us()
        } else {
            d
        }
    }

    /// Moves the read-ahead frontier forward to account for streaming that
    /// happened up to time `t`.
    fn advance_frontier(&mut self, t: f64) {
        let st = self.geom.sector_time_us();
        let total = self.geom.total_sectors();
        if let Some(ra) = &mut self.ra {
            let cap = (ra.consumed + self.buffer_sectors).min(total);
            if ra.frontier >= cap || t <= ra.frontier_time {
                return;
            }
            let by_time = ((t - ra.frontier_time) / st).floor() as u64;
            let n = by_time.min(cap - ra.frontier);
            ra.frontier += n;
            ra.frontier_time += n as f64 * st;
        }
    }

    /// Services a read of `sectors` sectors at `lba`; returns the request
    /// latency in microseconds and advances the clock to completion.
    pub fn read(&mut self, lba: u64, sectors: u32) -> f64 {
        debug_assert!(sectors > 0);
        debug_assert!(lba + sectors as u64 <= self.geom.total_sectors());
        let start = self.now;
        self.advance_frontier(start);
        let end_lba = lba + sectors as u64;
        // The track buffer serves a request only when it continues the
        // *consumed* stream (or re-reads buffered data). The prefetcher
        // keeps filling the buffer while the host thinks — that is what
        // lets strictly sequential reads run at the media rate — but
        // mid-1990s firmware does not bridge gaps: a request that skips
        // even one sector past the consumed stream repositions
        // mechanically, paying seek plus rotation. This is the mechanism
        // that makes fragmented files slow and contiguous files fast
        // (Section 5.1).
        let hit = match &self.ra {
            Some(ra) => {
                lba >= ra.buf_start
                    && lba <= ra.consumed
                    && end_lba <= ra.frontier + self.buffer_sectors
            }
            None => false,
        };
        if hit {
            self.read_from_buffer(lba, sectors);
        } else {
            self.read_from_media(lba, sectors);
        }
        self.stats.reads = self.stats.reads.saturating_add(1);
        self.stats.sectors_read = self.stats.sectors_read.saturating_add(sectors as u64);
        let latency = self.now - start;
        obs::hist!("disk.read_us", obs::bounds::TIME_US, latency);
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent {
                issued_at: start,
                is_read: true,
                lba,
                sectors,
                latency_us: latency,
                buffer_hit: hit,
            });
        }
        latency
    }

    /// Completion time if the request is served from the read-ahead
    /// stream (no state change).
    fn buffered_completion(&self, lba: u64, sectors: u32) -> f64 {
        let end_lba = lba + sectors as u64;
        let bytes = sectors as f64 * self.sector_bytes;
        let bus_done = self.now + bytes / self.bus_rate;
        let ra = self.ra.as_ref().expect("candidate requires read-ahead");
        let media_done = if end_lba <= ra.frontier {
            self.now
        } else {
            let need = (end_lba - ra.frontier) as u32;
            let from = self.geom.lba_to_chs(ra.frontier);
            ra.frontier_time + self.geom.stream_time_us(from, need).0
        };
        bus_done.max(media_done)
    }

    /// Positions the head for a fresh mechanical access starting now and
    /// streams the transfer: charges seek, rotational wait and streaming
    /// to the stats, leaves the head on the transfer's last cylinder, and
    /// returns `(seek, rot, stream)` for the caller to add to the clock.
    fn mechanical(&mut self, lba: u64, sectors: u32) -> (f64, f64, f64) {
        let target = self.geom.lba_to_chs(lba);
        obs::hist!(
            "disk.seek_cyls",
            obs::bounds::POW2,
            target.cyl.abs_diff(self.cur_cyl)
        );
        let sk = self.seek.seek_us(self.cur_cyl, target.cyl);
        if sk > 0.0 {
            self.stats.seeks = self.stats.seeks.saturating_add(1);
        }
        let rot = self.rot_wait(self.now + sk, target);
        let (stream, end_cyl) = self.geom.stream_time_us(target, sectors);
        self.stats.seek_time_us += sk;
        self.stats.rot_wait_us += rot;
        self.stats.stream_time_us += stream;
        self.cur_cyl = end_cyl;
        (sk, rot, stream)
    }

    fn read_from_buffer(&mut self, lba: u64, sectors: u32) {
        let end_lba = lba + sectors as u64;
        let done = self.buffered_completion(lba, sectors);
        let ra = self.ra.as_mut().expect("hit requires read-ahead state");
        if end_lba > ra.frontier {
            ra.frontier = end_lba;
            ra.frontier_time = done;
        }
        ra.consumed = ra.consumed.max(end_lba);
        // Data older than one buffer length behind the consumer is evicted.
        ra.buf_start = ra
            .buf_start
            .max(ra.consumed.saturating_sub(self.buffer_sectors));
        let frontier = ra.frontier;
        self.stats.buffer_hits = self.stats.buffer_hits.saturating_add(1);
        self.now = done.max(self.now);
        self.cur_cyl = self
            .geom
            .lba_to_chs(frontier.min(self.geom.total_sectors() - 1))
            .cyl;
    }

    fn read_from_media(&mut self, lba: u64, sectors: u32) {
        let (sk, rot, stream) = self.mechanical(lba, sectors);
        // A read sums its parts before adding them to the clock (a write
        // adds them one by one); the two orders round differently, and
        // the device golden pins both.
        let t = self.now + (sk + rot + stream);
        let end_lba = lba + sectors as u64;
        self.ra = Some(ReadAhead {
            buf_start: lba,
            frontier: end_lba,
            frontier_time: t,
            consumed: end_lba,
        });
        self.now = t;
    }

    /// Services a write of `sectors` sectors at `lba`; returns the request
    /// latency in microseconds and advances the clock to completion.
    ///
    /// Writes invalidate the read-ahead buffer and always pay full
    /// mechanical positioning: the drive has no write cache, which is what
    /// makes back-to-back sequential writes lose a rotation (Section 5.1).
    pub fn write(&mut self, lba: u64, sectors: u32) -> f64 {
        debug_assert!(sectors > 0);
        debug_assert!(lba + sectors as u64 <= self.geom.total_sectors());
        let start = self.now;
        self.ra = None;
        let (sk, rot, stream) = self.mechanical(lba, sectors);
        self.now = self.now + sk + rot + stream;
        self.stats.writes = self.stats.writes.saturating_add(1);
        self.stats.sectors_written = self.stats.sectors_written.saturating_add(sectors as u64);
        let latency = self.now - start;
        obs::hist!("disk.write_us", obs::bounds::TIME_US, latency);
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent {
                issued_at: start,
                is_read: false,
                lba,
                sectors,
                latency_us: latency,
                buffer_hit: false,
            });
        }
        latency
    }

    /// Performs a byte-addressed transfer, splitting it into requests no
    /// larger than the controller's maximum transfer size and charging
    /// host overhead before each request — the I/O path the Section 5
    /// benchmarks exercise.
    pub fn transfer(&mut self, kind: IoKind, lba: u64, bytes: u64) -> f64 {
        debug_assert!(bytes > 0);
        let start = self.now;
        let total_sectors = bytes.div_ceil(self.geom.params().sector_size as u64);
        let host_us = self.geom.params().host_overhead_us;
        let mut off = 0u64;
        while off < total_sectors {
            let n = (total_sectors - off).min(self.max_sectors) as u32;
            self.advance(host_us);
            match kind {
                IoKind::Read => self.read(lba + off, n),
                IoKind::Write => self.write(lba + off, n),
            };
            off += n as u64;
        }
        self.now - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_types::units::mb_per_sec;
    use ffs_types::MB;

    fn dev() -> Device {
        Device::new(DiskParams::seagate_32430n())
    }

    #[test]
    fn sequential_reads_hit_the_track_buffer() {
        let mut d = dev();
        d.read(0, 128);
        assert_eq!(d.stats().buffer_hits, 0);
        d.read(128, 128);
        d.read(256, 128);
        assert_eq!(d.stats().buffer_hits, 2);
    }

    #[test]
    fn sequential_read_throughput_approaches_media_rate() {
        let mut d = dev();
        let total = 8 * MB;
        let t0 = d.now();
        d.transfer(IoKind::Read, 0, total);
        let mbs = mb_per_sec(total, d.now() - t0);
        let media = d.geometry().params().media_mb_per_sec();
        assert!(
            mbs > media * 0.80 && mbs <= media * 1.01,
            "sequential read {mbs:.2} MB/s vs media {media:.2}"
        );
    }

    #[test]
    fn sequential_write_loses_rotations() {
        // Raw sequential writes in 64 KB chunks should run at roughly half
        // the media rate: each chunk waits almost a full revolution.
        let mut d = dev();
        let total = 8 * MB;
        let t0 = d.now();
        d.transfer(IoKind::Write, 0, total);
        let mbs = mb_per_sec(total, d.now() - t0);
        let media = d.geometry().params().media_mb_per_sec();
        assert!(
            mbs > media * 0.35 && mbs < media * 0.65,
            "sequential write {mbs:.2} MB/s vs media {media:.2}"
        );
    }

    #[test]
    fn write_invalidates_read_ahead() {
        let mut d = dev();
        d.read(0, 128);
        d.write(10_000, 16);
        // Re-reading the previously buffered range must miss.
        let hits_before = d.stats().buffer_hits;
        d.read(128, 128);
        assert_eq!(d.stats().buffer_hits, hits_before);
    }

    #[test]
    fn random_small_reads_are_seek_dominated() {
        let mut d = dev();
        let t0 = d.now();
        let mut lba = 7;
        let n = 100;
        for _ in 0..n {
            // A crude LCG spreads requests across the disk.
            lba = (lba * 1_103_515_245 + 12_345) % (d.geometry().total_sectors() - 16);
            d.read(lba, 16); // 8 KB.
        }
        let per_req_ms = (d.now() - t0) / n as f64 / 1000.0;
        // Seek (~8-11 ms) + half rotation (~5.5 ms) + transfer (~1.5 ms).
        assert!(
            per_req_ms > 8.0 && per_req_ms < 25.0,
            "random 8 KB read cost {per_req_ms:.2} ms"
        );
    }

    #[test]
    fn buffer_hit_is_bus_speed_for_cached_data() {
        let mut d = dev();
        d.read(0, 256);
        let lat = d.read(0, 16); // Still in buffer; no mechanical delay.
                                 // 8 KB at 10 MB/s is ~780 us.
        assert!(lat < 1_000.0, "cached read took {lat} us");
    }

    #[test]
    fn read_latency_advances_clock_by_latency() {
        let mut d = dev();
        let before = d.now();
        let lat = d.read(1_000_000, 16);
        assert!((d.now() - before - lat).abs() < 1e-9);
        assert!(lat > 0.0);
    }

    #[test]
    fn transfer_splits_at_max_transfer_size() {
        let mut d = dev();
        d.transfer(IoKind::Write, 0, 256 * 1024);
        // 256 KB at 64 KB per request = 4 writes.
        assert_eq!(d.stats().writes, 4);
        assert_eq!(d.stats().sectors_written, 512);
    }

    #[test]
    fn advance_moves_clock_without_io() {
        let mut d = dev();
        d.advance(1234.5);
        assert!((d.now() - 1234.5).abs() < 1e-9);
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn skip_ahead_misses_the_buffer() {
        // Mid-90s firmware does not bridge gaps: a forward skip is a
        // fresh mechanical access even though the data would have
        // streamed past shortly.
        let mut d = dev();
        d.read(0, 128);
        let hits = d.stats().buffer_hits;
        d.read(256, 128);
        assert_eq!(d.stats().buffer_hits, hits);
    }

    #[test]
    fn continuation_after_think_time_hits_buffer() {
        // While the host thinks, the drive keeps prefetching: the exact
        // continuation of the consumed stream is served from the buffer.
        let mut d = dev();
        d.read(0, 16);
        d.advance(d.geometry().params().host_overhead_us);
        let hits = d.stats().buffer_hits;
        let lat = d.read(16, 16);
        assert_eq!(d.stats().buffer_hits, hits + 1);
        assert!(lat < 2_500.0, "continuation served in {lat:.0} us");
    }

    #[test]
    fn gap_skip_is_never_bridged() {
        // A request that skips past the consumed stream repositions
        // mechanically even though the prefetcher passed the data — the
        // firmware does not serve arbitrary offsets from the buffer.
        let mut d = dev();
        d.read(0, 16);
        d.advance(d.geometry().params().host_overhead_us);
        let hits = d.stats().buffer_hits;
        let lat = d.read(18, 2);
        assert_eq!(d.stats().buffer_hits, hits);
        assert!(
            lat > 500.0,
            "gap skip served suspiciously fast: {lat:.0} us"
        );
    }

    #[test]
    fn trace_records_requests_with_hit_flags() {
        let mut d = dev();
        d.enable_trace(8);
        d.read(0, 128);
        d.read(128, 128); // Sequential continuation: buffer hit.
        d.write(4_000, 16);
        let t = d.trace().expect("trace enabled");
        assert_eq!(t.len(), 3);
        let evs: Vec<_> = t.events().collect();
        assert!(evs[0].is_read && !evs[0].buffer_hit);
        assert!(evs[1].is_read && evs[1].buffer_hit);
        assert!(!evs[2].is_read);
        assert!(t.mean_latency_us().unwrap() > 0.0);
        // The slowest event is one of the mechanical accesses.
        assert!(!t.slowest().unwrap().buffer_hit);
        d.enable_trace(0);
        assert!(d.trace().is_none());
    }

    #[test]
    fn far_jump_misses_buffer() {
        let mut d = dev();
        d.read(0, 128);
        let hits = d.stats().buffer_hits;
        d.read(2_000_000, 128);
        assert_eq!(d.stats().buffer_hits, hits);
        assert!(d.stats().seeks >= 1);
    }
}
