//! Checkpoint and resume for long aging runs.
//!
//! A ten-month replay at paper scale is long enough to want restarts: the
//! checkpoint extends the nightly-[`Snapshot`](crate::snapshot::Snapshot)
//! idea with exactly the extra state a *resume* needs that offline scoring
//! does not — directory metadata, indirect-block addresses, the workload's
//! `FileId -> Ino` live map, and the cumulative byte counter. Everything
//! else (fragment maps, bitmaps, free counters, the layout aggregate) is
//! derived state that [`Filesystem::restore`] rebuilds and re-verifies, so
//! a checkpoint is small, textual, and cannot silently smuggle in an
//! inconsistent map: a tampered or truncated file surfaces as
//! [`FsError::Corrupt`] at restore time, never as a bad replay.

use ffs_types::record::{push_addrs, push_num, push_tail, records};
use ffs_types::{CgIdx, Daddr, DirId, FsError, FsParams, FsResult, Ino};

use ffs::{AllocPolicy, DirMeta, FileMeta, Filesystem};

use crate::livemap::LiveMap;
use crate::workload::FileId;

/// Everything a replay needs to continue from the end of a day.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Last completed workload day.
    pub day: u32,
    /// Cumulative bytes written since mkfs.
    pub bytes_written: u64,
    /// Creates skipped for lack of space before the checkpoint.
    pub skipped_creates: u64,
    /// Directory metadata, in id order.
    pub dirs: Vec<DirMeta>,
    /// File metadata, in inode order.
    pub files: Vec<FileMeta>,
    /// Workload file ids of still-live files, in id order.
    pub live: Vec<(FileId, Ino)>,
    /// Per-group `(rotor, inode_rotor, frag_rotor)` allocator search
    /// positions, in group order. Rotors are hints rather than derived
    /// state, so they must travel with the checkpoint for a resume to
    /// make the same allocation decisions the uninterrupted run would.
    /// Empty means "unknown": restore then keeps the fresh-volume
    /// defaults.
    pub rotors: Vec<(u32, u32, u32)>,
}

/// Captures a checkpoint at the end of `day`.
pub fn take_checkpoint(
    fs: &Filesystem,
    live: &LiveMap,
    day: u32,
    skipped_creates: u64,
) -> Checkpoint {
    // LiveMap iterates in ascending file-id order, so the checkpoint's
    // canonical ordering comes for free.
    let live: Vec<(FileId, Ino)> = live.iter().collect();
    Checkpoint {
        day,
        bytes_written: fs.bytes_written(),
        skipped_creates,
        dirs: fs.dirs().cloned().collect(),
        files: fs.files().cloned().collect(),
        live,
        rotors: fs.rotors(),
    }
}

impl Checkpoint {
    /// Serializes the checkpoint to a line-based text format, one record
    /// per line (`dir`, `file`, and `live` lines after a short header).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.push_text(&mut s);
        s
    }

    /// Appends [`Checkpoint::to_text`]'s bytes to `out`: the form an
    /// artifact that embeds a checkpoint writes it in.
    pub fn push_text(&self, out: &mut String) {
        let line = |out: &mut String, tag: &str, nums: &[u64]| {
            out.push_str(tag);
            for &n in nums {
                out.push(' ');
                push_num(out, n);
            }
            out.push('\n');
        };
        line(out, "# checkpoint day", &[self.day.into()]);
        line(out, "bytes", &[self.bytes_written]);
        line(out, "skipped", &[self.skipped_creates]);
        for d in &self.dirs {
            let dir = [d.id.0, d.cg.0, d.block.0, d.ino_slot, d.nfiles];
            line(out, "dir", &dir.map(u64::from));
        }
        for f in &self.files {
            out.push_str("file ");
            for n in [f.ino.0.into(), f.dir.0.into(), f.size, f.mtime_day.into()] {
                push_num(out, n);
                out.push(' ');
            }
            push_addrs(out, &f.blocks);
            out.push(' ');
            push_tail(out, f.tail);
            out.push(' ');
            push_addrs(out, f.indirects());
            out.push('\n');
        }
        for (fid, ino) in &self.live {
            line(out, "live", &[fid.0.into(), ino.0.into()]);
        }
        // The fragment rotor is written only where it left the block
        // rotor, so a checkpoint from before the two split reads back
        // and re-serializes byte for byte.
        for &(rotor, irotor, frotor) in &self.rotors {
            let nums = [rotor.into(), irotor.into(), frotor.into()];
            line(out, "rotor", &nums[..2 + usize::from(frotor != rotor)]);
        }
    }

    /// Parses the text format produced by [`Checkpoint::to_text`].
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut lines = records(text);
        let mut header = lines.next().ok_or("empty checkpoint")?;
        header.tag("# checkpoint day")?;
        let day = header.num("day")?;
        header.end()?;
        let mut bytes_written = None;
        let mut skipped_creates = None;
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        let mut live = Vec::new();
        let mut rotors = Vec::new();
        for mut f in lines {
            match f.word("record")? {
                "bytes" => f.once(&mut bytes_written, "bytes")?,
                "skipped" => f.once(&mut skipped_creates, "skipped")?,
                "dir" => dirs.push(DirMeta {
                    id: DirId(f.num("dir id")?),
                    cg: CgIdx(f.num("cg")?),
                    block: Daddr(f.num("block")?),
                    ino_slot: f.num("ino slot")?,
                    nfiles: f.num("nfiles")?,
                }),
                "file" => {
                    let mut meta = FileMeta {
                        ino: Ino(f.num("ino")?),
                        dir: DirId(f.num("dir")?),
                        // Every file size is below 4 GiB (`Filesystem::create`
                        // rejects larger), and a workload op holds it as a
                        // `u32`: a bigger one is damage.
                        size: f.num::<u32>("size")?.into(),
                        mtime_day: f.num("mtime")?,
                        blocks: f.addrs("block")?,
                        tail: f.tail("tail")?,
                    };
                    for d in f.addrs::<Vec<Daddr>>("indirect")? {
                        meta.blocks.push_indirect(d);
                    }
                    files.push(meta);
                }
                "live" => live.push((FileId(f.num("file id")?), Ino(f.num("ino")?))),
                "rotor" => {
                    let (rotor, irotor) = (f.num("rotor")?, f.num("inode rotor")?);
                    let frotor = match f.clone().end() {
                        Ok(()) => rotor,
                        Err(_) => f.num("frag rotor")?,
                    };
                    rotors.push((rotor, irotor, frotor));
                }
                other => return Err(f.err(format_args!("unknown record {other:?}"))),
            }
            f.end()?;
        }
        Ok(Checkpoint {
            day,
            bytes_written: bytes_written.ok_or("missing bytes line")?,
            skipped_creates: skipped_creates.ok_or("missing skipped line")?,
            dirs,
            files,
            live,
            rotors,
        })
    }

    /// Rebuilds a file system and live-file map from the checkpoint.
    ///
    /// Only inode-level state is trusted; every allocation map, bitmap,
    /// and counter is rebuilt by [`Filesystem::restore`] and re-verified
    /// with the consistency checker, so a damaged checkpoint is rejected
    /// with [`FsError::Corrupt`] rather than replayed.
    pub fn restore(
        &self,
        params: FsParams,
        policy: AllocPolicy,
    ) -> FsResult<(Filesystem, LiveMap)> {
        let mut fs = Filesystem::restore(
            params,
            policy,
            self.dirs.clone(),
            self.files.clone(),
            self.bytes_written,
        )?;
        if !self.rotors.is_empty() {
            fs.set_rotors(&self.rotors)?;
        }
        // A live file id indexes the dense map directly, so cap it:
        // a tampered checkpoint must surface as `Corrupt`, not as a
        // multi-gigabyte allocation. Real ids are issued sequentially
        // per create — even a years-long paper-scale run stays orders
        // of magnitude below this.
        const MAX_LIVE_FILE_ID: u32 = 1 << 28;
        let mut live = LiveMap::new();
        for &(fid, ino) in &self.live {
            if fid.0 >= MAX_LIVE_FILE_ID {
                return Err(FsError::Corrupt(format!(
                    "live map file id {} implausibly large",
                    fid.0
                )));
            }
            if fs.file(ino).is_none() {
                return Err(FsError::Corrupt(format!(
                    "live map references missing inode {}",
                    ino.0
                )));
            }
            if live.insert(fid, ino).is_some() {
                return Err(FsError::Corrupt(format!(
                    "live map repeats file id {}",
                    fid.0
                )));
            }
        }
        Ok((fs, live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgingConfig;
    use crate::replay::{replay, ReplayOptions};
    use crate::workload::generate;
    use ffs::check;

    fn checkpointed() -> (FsParams, Checkpoint) {
        let params = FsParams::small_test();
        let config = AgingConfig::small_test(10, 42);
        let w = generate(&config, params.ncg, params.data_capacity_bytes());
        let r = replay(
            &w,
            &params,
            AllocPolicy::Realloc,
            ReplayOptions {
                checkpoint_every_days: 5,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        (params.clone(), r.checkpoints.last().unwrap().clone())
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let (_, ck) = checkpointed();
        let parsed = Checkpoint::from_text(&ck.to_text()).expect("parse");
        assert_eq!(parsed, ck);
    }

    #[test]
    fn restore_rebuilds_a_consistent_fs() {
        let (params, ck) = checkpointed();
        let (fs, live) = ck.restore(params, AllocPolicy::Realloc).expect("restore");
        assert!(check(&fs).is_empty());
        assert_eq!(fs.nfiles(), ck.files.len());
        assert_eq!(live.len(), ck.live.len());
        assert_eq!(fs.bytes_written(), ck.bytes_written);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("nonsense").is_err());
        assert!(Checkpoint::from_text("# checkpoint day 3\nbytes nope").is_err());
        // Missing the mandatory bytes/skipped lines.
        assert!(Checkpoint::from_text("# checkpoint day 3\n").is_err());
        // File ids and file sizes are `u32`s in a workload op: a record
        // one past that range is an error naming the field, never a
        // wrapped value.
        let head = "# checkpoint day 3\nbytes 0\nskipped 0\n";
        let ok = format!("{head}live 4294967295 7\n");
        assert_eq!(
            Checkpoint::from_text(&ok).unwrap().live,
            [(FileId(u32::MAX), Ino(7))]
        );
        let e = Checkpoint::from_text(&format!("{head}live 4294967296 7\n")).unwrap_err();
        assert!(e.contains("line 4: bad file id"), "{e}");
        let file = |size: u64| format!("{head}file 5 0 {size} 0 - - -\n");
        assert_eq!(
            Checkpoint::from_text(&file(u32::MAX.into())).unwrap().files[0].size,
            u32::MAX.into()
        );
        let e = Checkpoint::from_text(&file(1 << 32)).unwrap_err();
        assert!(e.contains("line 4: bad size"), "{e}");
    }

    #[test]
    fn tampered_checkpoint_is_rejected_at_restore() {
        let (params, ck) = checkpointed();
        // Point a file's first block outside the volume.
        let mut bad = ck.clone();
        if let Some(f) = bad.files.iter_mut().find(|f| !f.blocks.is_empty()) {
            f.blocks[0] = Daddr(u32::MAX - 7);
        }
        let e = bad
            .restore(params.clone(), AllocPolicy::Realloc)
            .unwrap_err();
        assert!(matches!(e, FsError::Corrupt(_)), "got {e:?}");
        // Duplicate a block claim across two files.
        let mut dup = ck.clone();
        let stolen = dup
            .files
            .iter()
            .find(|f| !f.blocks.is_empty())
            .expect("a file with blocks")
            .blocks[0];
        let victim = dup
            .files
            .iter_mut()
            .rfind(|f| !f.blocks.is_empty() && f.blocks[0] != stolen)
            .expect("a second file with blocks");
        victim.blocks[0] = stolen;
        let e = dup
            .restore(params.clone(), AllocPolicy::Realloc)
            .unwrap_err();
        assert!(matches!(e, FsError::Corrupt(_)), "got {e:?}");
        // Dangling live-map entry.
        let mut dangle = ck.clone();
        dangle.live.push((FileId(u32::MAX), Ino(u32::MAX)));
        let e = dangle.restore(params, AllocPolicy::Realloc).unwrap_err();
        assert!(matches!(e, FsError::Corrupt(_)), "got {e:?}");
    }
}
