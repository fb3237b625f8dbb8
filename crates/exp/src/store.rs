//! The content-addressed artifact store for aged file systems.
//!
//! Aging is the expensive step of every experiment (two to three
//! multi-month replays per harness invocation), and its product is a
//! pure function of its inputs — exactly the profile of an artifact
//! worth persisting. The store keeps one text file per [`AgedKey`], in
//! the workspace's line-record grammar ([`ffs_types::record`]):
//!
//! ```text
//! # exp aged artifact v3
//! key <16-hex content address>
//! policy <orig|realloc>
//! fsdigest <Filesystem::digest of the saved image>
//! skipped <creates skipped for lack of space>
//! daily <day> <layout> <util> <nfiles> <bytes> <moves> <cost_us>   (days 0..=N)
//! # checkpoint day <N>
//! <the allocation-exact aging::Checkpoint text>
//! checksum <16-hex FNV-1a of every byte above>
//! ```
//!
//! Loading **trusts nothing**. The checksum trailer is verified before a
//! single record is parsed, so damage anywhere — the day series Figures
//! 1 and 2 are drawn from as much as the image — is caught; the
//! checkpoint restore path then rebuilds all derived allocation state
//! and re-verifies it with the consistency checker, and the restored
//! image's [`ffs::Filesystem::digest`] must match the recorded one. Any
//! damage — truncation, bit rot, a file under the wrong key, hand
//! editing — surfaces as [`FsError::Corrupt`] and the caller re-ages
//! transparently instead of trusting the artifact. Writes go through a
//! temporary file and an atomic rename so a crashed writer can never
//! leave a half-written artifact under a valid name.

use std::path::{Path, PathBuf};

use aging::{
    take_checkpoint, AgingConfig, Checkpoint, DayStats, Days, Replay, ReplayOptions, ReplayResult,
};
use ffs::AllocPolicy;
use ffs_types::record::{push_num, records, seal, unseal};
use ffs_types::{FsError, FsParams, FsResult};

use crate::engine::JobError;
use crate::key::{aged_key, AgedKey, FORMAT_VERSION};
use crate::record::CacheStatus;

/// Artifact extension of aged images.
const AGED: &str = "aged";

/// A directory of cached aged-file-system artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// The product of [`age_cached`]: the aged run plus its provenance.
pub struct AgedRun {
    /// The aged file system and its day-by-day series.
    pub result: ReplayResult,
    /// Whether the image came from the store.
    pub cache: CacheStatus,
    /// The content address of the artifact.
    pub key: AgedKey,
    /// Workload operations replayed to produce the image (0 on a hit).
    pub ops: u64,
    /// Where a damaged artifact was preserved, when the load found one.
    pub quarantined: Option<PathBuf>,
}

impl ArtifactStore {
    /// Opens (or designates) a store rooted at `dir`. The directory is
    /// created lazily on first save.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the text artifact `<stem>.<ext>`. Aged images use
    /// `ext = "aged"`; the fleet's per-shard sample checkpoints bring
    /// their own extension, so both share the directory, the atomic
    /// install and the quarantine flow without colliding.
    fn path(&self, stem: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{stem}.{ext}"))
    }

    /// The raw text of `<stem>.<ext>`: `Ok(None)` when no artifact
    /// exists, [`FsError::Corrupt`] when one exists but cannot be read.
    fn read(&self, stem: &str, ext: &str) -> FsResult<Option<String>> {
        let path = self.path(stem, ext);
        match std::fs::read_to_string(&path) {
            Ok(t) => Ok(Some(t)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(FsError::Corrupt(format!(
                "unreadable artifact {}: {e}",
                path.display()
            ))),
        }
    }

    /// Looks up `<stem>.<ext>` and validates it with `parse`, trusting
    /// nothing: `Ok` is a hit; `Err` carries the outcome a run record
    /// reports — [`CacheStatus::Miss`] when no artifact exists, or
    /// [`CacheStatus::Corrupt`] when one could not be read or parsed,
    /// with the path it was quarantined to (the bytes moved to
    /// `quarantine/` beside a `<stem>.reason` file naming the error).
    /// Either way the caller recomputes and saves over the old name.
    pub fn lookup<T, E: std::fmt::Display>(
        &self,
        stem: &str,
        ext: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, (CacheStatus, Option<PathBuf>)> {
        let reason = match self.read(stem, ext) {
            Ok(None) => return Err((CacheStatus::Miss, None)),
            Ok(Some(text)) => match parse(&text) {
                Ok(found) => return Ok(found),
                Err(e) => e.to_string(),
            },
            Err(e) => e.to_string(),
        };
        Err((CacheStatus::Corrupt, self.quarantine(stem, ext, &reason)))
    }

    /// Atomically installs `text` as the artifact `<stem>.<ext>`
    /// (temporary file + rename, so a crashed writer can never leave a
    /// half-written artifact under a valid name).
    pub fn save_named(&self, stem: &str, ext: &str, text: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        let path = self.path(stem, ext);
        let tmp = self
            .dir
            .join(format!("{stem}.{ext}.tmp{}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("installing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Moves `<stem>.<ext>` into `quarantine/`, preserving the bytes for
    /// post-mortem instead of silently overwriting them, and drops a
    /// `<stem>.reason` side file naming why. Returns the quarantined
    /// path, or `None` when nothing could be preserved (the artifact
    /// vanished, or the move itself failed — in either case the caller
    /// proceeds to rebuild; quarantine is best-effort forensics, never a
    /// correctness dependency).
    fn quarantine(&self, stem: &str, ext: &str, reason: &str) -> Option<PathBuf> {
        let src = self.path(stem, ext);
        let qdir = self.quarantine_dir();
        if std::fs::create_dir_all(&qdir).is_err() {
            return None;
        }
        let dst = qdir.join(format!("{stem}.{ext}"));
        if std::fs::rename(&src, &dst).is_err() {
            return None;
        }
        let _ = std::fs::write(qdir.join(format!("{stem}.reason")), format!("{reason}\n"));
        obs::counter!("store.quarantined", 1);
        Some(dst)
    }

    /// Loads and validates the artifact for `key`.
    ///
    /// Returns `Ok(None)` when no artifact exists, and
    /// [`FsError::Corrupt`] when one exists but fails any validation
    /// step — the caller should discard it and recompute.
    pub fn load(
        &self,
        key: &AgedKey,
        params: &FsParams,
        policy: AllocPolicy,
    ) -> FsResult<Option<ReplayResult>> {
        match self.read(&key.hex, AGED)? {
            Some(text) => parse_aged(&text, key, params, policy).map(Some),
            None => Ok(None),
        }
    }

    /// The directory damaged artifacts are moved to.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Persists an aged run under `key` (atomic replace).
    pub fn save(&self, key: &AgedKey, result: &ReplayResult) -> Result<PathBuf, String> {
        self.save_named(&key.hex, AGED, &render_aged(key, result)?)
    }
}

/// Renders an aged run as the text of the `.aged` artifact stored under
/// `key`. The day series must be the whole run, days `0..=last`;
/// [`parse_aged`] rejects anything else.
pub fn render_aged(key: &AgedKey, result: &ReplayResult) -> Result<String, String> {
    let last = result
        .daily
        .last()
        .ok_or("cannot cache a zero-day aging run")?;
    let ck = take_checkpoint(&result.fs, &result.live, last.day, result.skipped_creates);
    let mut text = format!(
        "# exp aged artifact v{FORMAT_VERSION}\nkey {}\npolicy {}\nfsdigest ",
        key.hex,
        result.fs.policy().name()
    );
    push_num(&mut text, result.fs.digest());
    text.push_str("\nskipped ");
    push_num(&mut text, result.skipped_creates);
    text.push('\n');
    for d in &result.daily {
        text.push_str("daily ");
        d.push_record(&mut text);
        text.push('\n');
    }
    ck.push_text(&mut text);
    seal(&mut text);
    Ok(text)
}

/// Parses and validates the text of the `.aged` artifact stored under
/// `key`: a pure function of its arguments. Every failure is
/// [`FsError::Corrupt`].
pub fn parse_aged(
    text: &str,
    key: &AgedKey,
    params: &FsParams,
    policy: AllocPolicy,
) -> FsResult<ReplayResult> {
    let corrupt = |what: String| FsError::Corrupt(format!("aged artifact: {what}"));
    let (head, ck) = read_aged(text, key).map_err(corrupt)?;
    // Restore rebuilds and re-verifies all derived allocation state;
    // a tampered inode table is caught here...
    let (fs, live) = ck.restore(params.clone(), policy)?;
    // ...and the digest pins the rest (rotors, counters, identity).
    let digest = fs.digest();
    if digest != head.fsdigest {
        return Err(corrupt(format!(
            "digest mismatch: restored {digest}, recorded {}",
            head.fsdigest
        )));
    }
    Ok(ReplayResult {
        daily: head.daily,
        fs,
        live,
        skipped_creates: head.skipped,
        snapshots: Vec::new(),
        checkpoints: Vec::new(),
        crash: None,
    })
}

/// The records of an `.aged` artifact above its checkpoint section.
struct Head {
    fsdigest: u64,
    skipped: u64,
    daily: Vec<DayStats>,
}

/// The text-level half of [`parse_aged`]: seal, records, key echo and
/// day series. No file system is built.
fn read_aged(text: &str, key: &AgedKey) -> Result<(Head, Checkpoint), String> {
    let body = unseal(text)?;
    let (head, checkpoint) = body
        .find("\n# checkpoint day ")
        .map(|at| body.split_at(at + 1))
        .ok_or("no checkpoint section")?;
    let mut lines = records(head);
    let mut header = lines.next().ok_or("empty file")?;
    header.tag(&format!("# exp aged artifact v{FORMAT_VERSION}"))?;
    header.end()?;
    let mut stored_key: Option<String> = None;
    let mut fsdigest = None;
    let mut skipped = None;
    let mut daily: Vec<DayStats> = Vec::new();
    for mut f in lines {
        match f.word("record")? {
            "key" => f.once(&mut stored_key, "key")?,
            // Informational; the digest check is the authoritative
            // policy validation.
            "policy" => drop(f.word("policy")?),
            "fsdigest" => f.once(&mut fsdigest, "fsdigest")?,
            "skipped" => f.once(&mut skipped, "skipped")?,
            "daily" => {
                let d = DayStats::from_fields(&mut f)?;
                if d.day as usize != daily.len() {
                    let want = daily.len();
                    return Err(f.err(format_args!("day {} where day {want} belongs", d.day)));
                }
                daily.push(d);
            }
            other => return Err(f.err(format_args!("unknown record {other:?}"))),
        }
        f.end()?;
    }
    let stored_key = stored_key.ok_or("missing key line")?;
    if stored_key != key.hex {
        return Err(format!(
            "key mismatch: file says {stored_key}, wanted {}",
            key.hex
        ));
    }
    let ck = Checkpoint::from_text(checkpoint).map_err(|e| format!("checkpoint: {e}"))?;
    let last_day = daily.last().ok_or("no daily series")?.day;
    if ck.day != last_day {
        return Err(format!(
            "checkpoint day {} disagrees with daily series end {last_day}",
            ck.day
        ));
    }
    let head = Head {
        fsdigest: fsdigest.ok_or("missing fsdigest line")?,
        skipped: skipped.ok_or("missing skipped line")?,
        daily,
    };
    Ok((head, ck))
}

/// Ages a file system, going through the artifact store when one is
/// given: a valid cached image is reused (`cache: hit`), a missing one
/// is built and saved (`miss`), and a damaged one is moved to
/// `quarantine/` and rebuilt (`corrupt`) — never trusted, never
/// silently destroyed. A replay or save error is [`JobError::Fatal`].
pub fn age_cached(
    store: Option<&ArtifactStore>,
    params: &FsParams,
    config: &AgingConfig,
    policy: AllocPolicy,
    options: ReplayOptions,
) -> Result<AgedRun, JobError> {
    let key = aged_key(params, config, policy, &options);
    let found = store.map(|s| s.lookup(&key.hex, AGED, |t| parse_aged(t, &key, params, policy)));
    let (cache, quarantined) = match found {
        Some(Ok(result)) => {
            return Ok(AgedRun {
                result,
                cache: CacheStatus::Hit,
                key,
                ops: 0,
                quarantined: None,
            })
        }
        Some(Err(missed)) => missed,
        None => (CacheStatus::Disabled, None),
    };
    let mut replay = Replay::new(params, policy, options)?;
    for day in Days::new(config, params.ncg, params.data_capacity_bytes()) {
        replay.day(&day)?;
    }
    let ops = replay.ops();
    let result = replay.finish();
    if let Some(store) = store {
        if !result.daily.is_empty() {
            store.save(&key, &result).map_err(JobError::Fatal)?;
        }
    }
    Ok(AgedRun {
        result,
        cache,
        key,
        ops,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small() -> (FsParams, AgingConfig) {
        (FsParams::small_test(), AgingConfig::small_test(8, 42))
    }

    /// Damage that carries a valid seal, so the checks behind the
    /// checksum are the ones exercised.
    fn resealed(original: &str, edit: impl FnOnce(&str) -> String) -> String {
        let mut text = edit(unseal(original).expect("a sealed artifact"));
        seal(&mut text);
        text
    }

    #[test]
    fn miss_then_hit_reproduces_the_run_exactly() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let (params, config) = small();
        let cold = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(cold.cache, CacheStatus::Miss);
        assert!(cold.ops > 0);
        assert!(store.path(&cold.key.hex, AGED).exists());
        let warm = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(warm.cache, CacheStatus::Hit);
        assert_eq!(warm.ops, 0);
        assert_eq!(warm.key, cold.key);
        assert_eq!(warm.result.daily, cold.result.daily, "day series bit-exact");
        assert_eq!(warm.result.fs.digest(), cold.result.fs.digest());
        assert_eq!(warm.result.live, cold.result.live);
        assert_eq!(warm.result.skipped_creates, cold.result.skipped_creates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_run_reports_disabled() {
        let (params, config) = small();
        let run = age_cached(
            None,
            &params,
            &config,
            AllocPolicy::Orig,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(run.cache, CacheStatus::Disabled);
        assert!(run.ops > 0);
    }

    #[test]
    fn distinct_policies_store_distinct_artifacts() {
        let dir = tmpdir("policies");
        let store = ArtifactStore::new(&dir);
        let (params, config) = small();
        let o = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Orig,
            ReplayOptions::default(),
        )
        .unwrap();
        let r = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_ne!(o.key.hex, r.key.hex);
        assert_eq!(o.cache, CacheStatus::Miss);
        assert_eq!(r.cache, CacheStatus::Miss);
        assert!(store.path(&o.key.hex, AGED).exists() && store.path(&r.key.hex, AGED).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_are_rejected_and_rebuilt() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::new(&dir);
        let (params, config) = small();
        let cold = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        let path = store.path(&cold.key.hex, AGED);
        let original = std::fs::read_to_string(&path).unwrap();

        // Truncation: cut the artifact mid-checkpoint.
        std::fs::write(&path, &original[..original.len() / 2]).unwrap();
        let e = store
            .load(&cold.key, &params, AllocPolicy::Realloc)
            .unwrap_err();
        assert!(matches!(e, FsError::Corrupt(_)), "got {e:?}");

        // The checks behind the seal still hold when the damage carries
        // a valid checksum (a buggy writer, a hand edit that re-sealed).
        for (bad, why) in [
            // Tampering: steal a block address inside a file record.
            (
                resealed(&original, |t| t.replacen("file ", "file 999999 ", 1)),
                "checkpoint: line",
            ),
            // A wrong-key artifact under the right name is a collision,
            // not a hit.
            (
                resealed(&original, |t| {
                    t.replacen(&format!("key {}", cold.key.hex), "key 0000000000000000", 1)
                }),
                "key mismatch",
            ),
            (
                resealed(&original, |t| {
                    t.replacen("skipped ", "skipped 1\nskipped ", 1)
                }),
                "repeated skipped record",
            ),
            (
                resealed(&original, |t| t.replacen("\ndaily 3 ", "\ndaily 4 ", 1)),
                "day 4 where day 3 belongs",
            ),
            // A live file id one past the `u32` a workload op holds is
            // rejected by name, never wrapped onto a real id.
            (
                resealed(&original, |t| {
                    t.replacen("\nlive ", "\nlive 4294967296 1\nlive ", 1)
                }),
                "bad file id: number too large",
            ),
        ] {
            let e = parse_aged(&bad, &cold.key, &params, AllocPolicy::Realloc).unwrap_err();
            assert!(matches!(e, FsError::Corrupt(_)), "got {e:?}");
            assert!(e.to_string().contains(why), "wanted {why:?}, got {e}");
        }

        // age_cached treats all of that as "quarantine, re-age".
        std::fs::write(&path, &original[..original.len() / 3]).unwrap();
        let healed = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(healed.cache, CacheStatus::Corrupt);
        assert!(healed.ops > 0, "the image was rebuilt, not trusted");
        assert_eq!(healed.result.daily, cold.result.daily);
        // The damaged bytes were preserved for post-mortem, not lost.
        let qpath = healed.quarantined.expect("damaged artifact quarantined");
        assert!(qpath.starts_with(store.quarantine_dir()));
        assert_eq!(
            std::fs::read_to_string(&qpath).unwrap(),
            &original[..original.len() / 3]
        );
        let reason = store
            .quarantine_dir()
            .join(format!("{}.reason", cold.key.hex));
        assert!(std::fs::read_to_string(reason).unwrap().contains("corrupt"));
        // The store healed: next call hits.
        let warm = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(warm.cache, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_day_series_is_quarantined_and_re_aged() {
        // The day series is what Figures 1 and 2 are drawn from, and the
        // image digest does not cover it: before the artifact was sealed
        // a rewritten layout score loaded as a hit.
        let dir = tmpdir("daily");
        let store = ArtifactStore::new(&dir);
        let (params, config) = small();
        let age = || {
            age_cached(
                Some(&store),
                &params,
                &config,
                AllocPolicy::Realloc,
                ReplayOptions::default(),
            )
            .unwrap()
        };
        let cold = age();
        let path = store.path(&cold.key.hex, AGED);
        let original = std::fs::read_to_string(&path).unwrap();
        let day2 = original
            .lines()
            .find(|l| l.starts_with("daily 2 "))
            .expect("a day-2 record");
        // One digit of one record: the line's last.
        let flipped = if day2.ends_with('7') { '8' } else { '7' };
        let edited = format!("{}{flipped}", &day2[..day2.len() - 1]);
        let one_digit = original.replacen(day2, &edited, 1);
        let line_deleted = original.replacen(&format!("{day2}\n"), "", 1);
        // A deleted line under a valid seal leaves a gap in the days.
        let deleted_and_resealed = resealed(&original, |t| t.replacen(&format!("{day2}\n"), "", 1));
        for (bad, why) in [
            (one_digit, "checksum mismatch"),
            (line_deleted, "checksum mismatch"),
            (deleted_and_resealed, "day 3 where day 2 belongs"),
        ] {
            assert_ne!(bad, original);
            std::fs::write(&path, &bad).unwrap();
            let healed = age();
            assert_eq!(healed.cache, CacheStatus::Corrupt, "{why}");
            assert_eq!(healed.result.daily, cold.result.daily);
            let qpath = healed.quarantined.expect("damaged artifact quarantined");
            assert!(qpath.starts_with(store.quarantine_dir()));
            assert_eq!(std::fs::read_to_string(&qpath).unwrap(), bad);
            let reason = store
                .quarantine_dir()
                .join(format!("{}.reason", cold.key.hex));
            let reason = std::fs::read_to_string(reason).unwrap();
            assert!(reason.contains(why), "wanted {why:?}, got {reason}");
            assert_eq!(age().cache, CacheStatus::Hit, "the store healed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_artifacts_round_trip_and_quarantine() {
        let dir = tmpdir("named");
        let store = ArtifactStore::new(&dir);
        let text = |t: &str| Ok::<String, String>(t.to_string());
        assert_eq!(
            store.lookup("00ff", "shard", text),
            Err((CacheStatus::Miss, None))
        );
        let path = store.save_named("00ff", "shard", "hello\n").unwrap();
        assert_eq!(path, store.path("00ff", "shard"));
        assert_eq!(store.lookup("00ff", "shard", text).unwrap(), "hello\n");
        // Saving again atomically replaces.
        store.save_named("00ff", "shard", "world\n").unwrap();
        assert_eq!(store.lookup("00ff", "shard", text).unwrap(), "world\n");
        // A parse failure quarantines: the bytes are preserved and the
        // reason file records why.
        let reject = |_: &str| Err::<String, _>("checksum mismatch");
        let (cache, q) = store.lookup("00ff", "shard", reject).unwrap_err();
        assert_eq!(cache, CacheStatus::Corrupt);
        let q = q.unwrap();
        assert!(q.starts_with(store.quarantine_dir()));
        assert_eq!(std::fs::read_to_string(&q).unwrap(), "world\n");
        assert!(
            std::fs::read_to_string(store.quarantine_dir().join("00ff.reason"))
                .unwrap()
                .contains("checksum")
        );
        assert_eq!(
            store.lookup("00ff", "shard", text),
            Err((CacheStatus::Miss, None))
        );
        // Quarantining a vanished artifact preserves nothing, calmly.
        assert!(store.quarantine("00ff", "shard", "again").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_image_ages_on_identically() {
        // The point of the cache: continuing work on a restored image is
        // indistinguishable from continuing on the original.
        let dir = tmpdir("continue");
        let store = ArtifactStore::new(&dir);
        let (params, config) = small();
        let cold = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        let warm = age_cached(
            Some(&store),
            &params,
            &config,
            AllocPolicy::Realloc,
            ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(warm.cache, CacheStatus::Hit);
        let mut a = cold.result.fs.clone();
        let mut b = warm.result.fs.clone();
        let da = a.mkdir().unwrap();
        let db = b.mkdir().unwrap();
        let ia = a.create(da, 100 * 1024u64, 99).unwrap();
        let ib = b.create(db, 100 * 1024u64, 99).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(
            a.file(ia).unwrap().blocks,
            b.file(ib).unwrap().blocks,
            "allocation decisions must match block for block"
        );
        assert_eq!(a.digest(), b.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
