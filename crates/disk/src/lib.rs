//! A parametric disk timing model.
//!
//! The paper measures file-system throughput on a Seagate ST32430N behind a
//! BusLogic 946C controller (Table 1). This crate reproduces that I/O path
//! as a deterministic simulation with the three timing effects the paper's
//! performance analysis depends on:
//!
//! 1. **Seek and rotation dominate small transfers.** The PCI/SCSI bus is
//!    much faster than the media, so reducing seeks (better layout) shows
//!    up almost 1:1 in throughput — the reason the realloc policy wins by
//!    more here than on the SparcStation of earlier studies.
//! 2. **Sequential writes lose a rotation between back-to-back requests.**
//!    The drive has no write buffer; by the time the host issues the next
//!    sequential write, the target sector has passed under the head
//!    (Section 5.1's explanation of the write-throughput drop past 64 KB
//!    and of raw-write throughput being roughly half of raw-read).
//! 3. **The track buffer hides that rotation for reads.** A 512 KB
//!    read-ahead buffer keeps streaming while the host thinks, so
//!    sequential reads of contiguous data run at the media rate.
//!
//! Time is simulated in microseconds; nothing here touches real hardware
//! or the wall clock.
//!
//! # Examples
//!
//! ```
//! use disk::Device;
//! use ffs_types::DiskParams;
//!
//! let mut dev = Device::new(DiskParams::seagate_32430n());
//! // Read 64 KB at LBA 0, then the next 64 KB: the second read is served
//! // from the track buffer's read-ahead.
//! dev.read(0, 128);
//! let before = dev.stats().buffer_hits;
//! dev.read(128, 128);
//! assert_eq!(dev.stats().buffer_hits, before + 1);
//! ```

pub mod device;
pub mod geometry;
pub mod raw;
pub mod seek;
pub mod trace;

pub use device::{Device, DeviceStats, IoKind};
pub use geometry::{Chs, Geometry};
pub use raw::{raw_read_throughput, raw_write_throughput, RawSweep};
pub use seek::SeekCurve;
pub use trace::{IoTrace, TraceEvent};
