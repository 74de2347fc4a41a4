//! Persistent, content-addressed run store under `target/ramp-store/`.
//!
//! Every completed simulation is persisted under a key derived from
//! *everything that determines its outcome*: the full
//! [`SystemConfig::canonical_bytes`] encoding, the run kind, the workload
//! name, the policy/scheme label, plus the wire-format version and a
//! code-version salt ([`STORE_SALT`]). Change any input — or the
//! simulator itself, by bumping the salt — and the run lands in a fresh
//! slot instead of serving a stale result.
//!
//! Writes are atomic: the entry is written to a unique temp file in the
//! store directory and `rename`d into place, so concurrent experiment
//! binaries sharing one store never observe a torn entry — and every
//! write is read back and byte-compared before it counts as persisted.
//! Reads that hit a corrupt, truncated or version-skewed file count as
//! misses (and bump the `invalid` metric); the offending file is
//! **quarantined** — renamed `*.quarantine` next to a `*.reason` file
//! recording the decode error — so bad bytes are preserved for autopsy
//! instead of being silently overwritten. [`RunStore::scrub`] walks a
//! store offline, removes stale temp files and quarantines every entry
//! that no longer decodes (exposed as the `ramp-store scrub`
//! subcommand). The store never panics on bad bytes and never trusts
//! them.
//!
//! Under `RAMP_CHAOS` (see [`ramp_sim::chaos`]) the store injects its
//! own faults at three sites — `store.read` (read I/O error),
//! `store.write` (failed write) and `store.corrupt` (post-write bit
//! rot) — which is how the resilience test matrix exercises the
//! quarantine and degraded-mode paths deterministically.
//!
//! **Backends.** The description above is the default one-file-per-run
//! backend. `RAMP_STORE_MODE=wal` selects the append-only WAL backend
//! ([`crate::wal`]): the same content-addressed API, but entries become
//! checksummed records batched into segment files with a
//! generation-numbered manifest, replay-on-open crash recovery, and
//! explicit compaction (`ramp-store compact`). File mode supports
//! concurrent writer processes; WAL mode is single-process (the
//! multi-worker server shares one handle). Both modes are covered by
//! [`RunStore::verify`] (read-only validation) and [`RunStore::scrub`]
//! (healing walk, which also reclaims orphaned checkpoint trails whose
//! base run entry is missing or quarantined).
//!
//! **Summary reads.** [`RunStore::load_head`] answers the server's warm
//! lookups with only the summary fields of an entry
//! ([`wire::RunHead`]). In file mode it streams the file through one
//! 64 KiB buffer, hashing the per-page table without keeping it; in WAL
//! mode it decodes the head from the value. It accepts, rejects,
//! counts and quarantines exactly as [`RunStore::load_run`] does, so a
//! warm answer is as trustworthy as a full decode at a fraction of its
//! memory.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::system::{RunResult, CHECKPOINT_KIND, CHECKPOINT_VERSION};
use ramp_sim::chaos::{self, Chaos, FaultKind};
use ramp_sim::codec::{decode_framed, fnv1a64_seeded, ByteWriter, CodecError};
use ramp_sim::telemetry::StatRegistry;

use crate::wal::{self, AppendError, ReplayReport, ValueKind, Wal};
use crate::wire::{self, WIRE_VERSION};

/// Bump to invalidate every existing store entry after a simulator
/// behaviour change that [`WIRE_VERSION`] (format only) doesn't capture.
pub const STORE_SALT: u32 = 1;

/// Environment variable that disables (`off`/`0`) the store.
pub const ENV_STORE: &str = "RAMP_STORE";
/// Environment variable overriding the store directory.
pub const ENV_STORE_DIR: &str = "RAMP_STORE_DIR";
/// Environment variable selecting the backend: `files` (default) or
/// `wal`. Unknown values degrade to `files`.
pub const ENV_STORE_MODE: &str = "RAMP_STORE_MODE";
/// Default store directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/ramp-store";

/// Which backend a [`RunStore`] persists through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// One file per entry, atomic tmp+rename writes (the default).
    #[default]
    Files,
    /// Append-only WAL segments with manifest + replay ([`crate::wal`]).
    Wal,
}

impl StoreMode {
    /// Stable lower-case label (the `RAMP_STORE_MODE` value).
    pub fn label(self) -> &'static str {
        match self {
            StoreMode::Files => "files",
            StoreMode::Wal => "wal",
        }
    }
}

/// The four kinds of runs the store distinguishes.
///
/// The kind participates in the key so e.g. a profile run and a static
/// run of the same workload can never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// A DDR-only profiling run (produces the per-page stats table).
    Profile,
    /// A static placement run under some [`PlacementPolicy`] label.
    ///
    /// [`PlacementPolicy`]: ramp_core::placement::PlacementPolicy
    Static,
    /// A dynamic migration run under some [`MigrationScheme`] label.
    ///
    /// [`MigrationScheme`]: ramp_core::migration::MigrationScheme
    Migration,
    /// A programmer-annotated run (result + annotation set).
    Annotated,
}

impl RunKind {
    fn tag(self) -> u8 {
        match self {
            RunKind::Profile => 0,
            RunKind::Static => 1,
            RunKind::Migration => 2,
            RunKind::Annotated => 3,
        }
    }

    /// Stable lower-case label, used in server responses.
    pub fn label(self) -> &'static str {
        match self {
            RunKind::Profile => "profile",
            RunKind::Static => "static",
            RunKind::Migration => "migration",
            RunKind::Annotated => "annotated",
        }
    }
}

/// Computes the content-addressed key of one run as 32 lowercase hex
/// digits (two seeded FNV-1a passes over the canonical input encoding).
pub fn run_key(cfg: &SystemConfig, kind: RunKind, workload: &str, policy: &str) -> String {
    let mut w = ByteWriter::new();
    w.u32(WIRE_VERSION);
    w.u32(STORE_SALT);
    let cfg_bytes = cfg.canonical_bytes();
    w.u32(cfg_bytes.len() as u32);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&cfg_bytes);
    let mut tail = ByteWriter::new();
    tail.u8(kind.tag());
    tail.str(workload);
    tail.str(policy);
    bytes.extend_from_slice(tail.bytes());
    let a = fnv1a64_seeded(0xcbf2_9ce4_8422_2325, &bytes);
    let b = fnv1a64_seeded(a ^ 0x9e37_79b9_7f4a_7c15, &bytes);
    format!("{a:016x}{b:016x}")
}

/// Hit/miss/write counters of one store handle.
///
/// These are *process-observability* numbers, not simulation results:
/// they differ between cold and warm runs, so they are exported only
/// into volatile-style side channels (the harness `RAMP_STATS=table`
/// epilogue, the server `/stats` document) and never into
/// [`RunResult::telemetry`].
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Entries served from disk.
    pub hits: AtomicU64,
    /// Lookups that found no (valid) entry.
    pub misses: AtomicU64,
    /// Entries persisted (write + read-back verify both succeeded).
    pub writes: AtomicU64,
    /// Entries that existed but failed to decode (counted in `misses` too).
    pub invalid: AtomicU64,
    /// Undecodable entries renamed `*.quarantine` (by reads or scrub).
    pub quarantined: AtomicU64,
    /// Writes that failed at the I/O layer (real or injected).
    pub write_failures: AtomicU64,
    /// Writes whose read-back did not match what was written.
    pub verify_failures: AtomicU64,
}

/// A handle on one on-disk store directory.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    metrics: StoreMetrics,
    tmp_counter: AtomicU64,
    chaos: Option<Arc<Chaos>>,
    /// `Some` in WAL mode; `None` in file mode.
    wal: Option<Wal>,
    /// What replay-on-open found (WAL mode only).
    replay: Option<ReplayReport>,
}

impl RunStore {
    /// Opens (creating if needed) a file-mode store rooted at `dir`,
    /// with no fault injection attached.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        RunStore::open_mode(dir, StoreMode::Files)
    }

    /// Opens (creating if needed) a WAL-mode store rooted at `dir`:
    /// segments live under `<dir>/wal/` and every live record is
    /// replayed into memory before the handle is returned.
    pub fn open_wal(dir: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        RunStore::open_mode(dir, StoreMode::Wal)
    }

    /// Opens a store rooted at `dir` with an explicit backend.
    pub fn open_mode(dir: impl Into<PathBuf>, mode: StoreMode) -> std::io::Result<RunStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let (wal, replay) = match mode {
            StoreMode::Files => (None, None),
            StoreMode::Wal => {
                let (wal, replay) = Wal::open(dir.join("wal"), None, wal::seg_bytes_from_env())?;
                (Some(wal), Some(replay))
            }
        };
        Ok(RunStore {
            dir,
            metrics: StoreMetrics::default(),
            tmp_counter: AtomicU64::new(0),
            chaos: None,
            wal,
            replay,
        })
    }

    /// Attaches a fault-injection registry: subsequent reads and writes
    /// roll the `store.read` / `store.write` / `store.corrupt` sites
    /// (file mode) and the `wal.*` sites (WAL mode).
    pub fn with_chaos(mut self, chaos: Option<Arc<Chaos>>) -> Self {
        if let Some(wal) = &mut self.wal {
            wal.set_chaos(chaos.clone());
        }
        self.chaos = chaos;
        self
    }

    fn chaos_roll(&self, site: &str) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|c| c.roll(FaultKind::Io, site))
    }

    /// Opens the store configured by the environment: `RAMP_STORE=off`
    /// (or `0`) disables it, `RAMP_STORE_DIR` overrides the directory,
    /// `RAMP_STORE_MODE=wal` selects the WAL backend, and the default
    /// is `target/ramp-store` in file mode (store **on**).
    ///
    /// Returns `None` when disabled or when the directory cannot be
    /// created (a read-only checkout should degrade to cold runs, not
    /// fail).
    pub fn from_env() -> Option<RunStore> {
        match std::env::var(ENV_STORE) {
            Ok(v) if v.eq_ignore_ascii_case("off") || v == "0" => return None,
            _ => {}
        }
        let mode = match std::env::var(ENV_STORE_MODE) {
            Ok(v) if v.eq_ignore_ascii_case("wal") => StoreMode::Wal,
            _ => StoreMode::Files,
        };
        let dir = std::env::var(ENV_STORE_DIR).unwrap_or_else(|_| DEFAULT_DIR.to_string());
        RunStore::open_mode(dir, mode)
            .ok()
            .map(|s| s.with_chaos(chaos::global()))
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Which backend this handle persists through.
    pub fn mode(&self) -> StoreMode {
        if self.wal.is_some() {
            StoreMode::Wal
        } else {
            StoreMode::Files
        }
    }

    /// What replay-on-open found and repaired (WAL mode only).
    pub fn replay_report(&self) -> Option<&ReplayReport> {
        self.replay.as_ref()
    }

    /// Rewrites the live WAL records into fresh segments and retires
    /// the old ones (see [`Wal::compact`]). In file mode there is
    /// nothing to compact and `None` is returned.
    pub fn compact(&self) -> Option<Result<wal::CompactReport, wal::AppendError>> {
        self.wal.as_ref().map(|w| w.compact())
    }

    /// Live hit/miss/write counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn path_for(&self, key: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{key}.{ext}"))
    }

    fn load_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        if self.chaos_roll("store.read") {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None; // injected read I/O error: a clean miss
        }
        match fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(_) => {
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Quarantines the undecodable file at `path`: renames it
    /// `<name>.quarantine` and records `why` in `<name>.reason`, so the
    /// bad bytes survive for autopsy and never serve another read.
    fn quarantine(&self, path: &Path, why: &str) {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return;
        };
        let jail = path.with_file_name(format!("{name}.quarantine"));
        if fs::rename(path, &jail).is_ok() {
            let reason = path.with_file_name(format!("{name}.reason"));
            let _ = fs::write(&reason, format!("{name}: {why}\n"));
            self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_invalid(&self, path: &Path, why: &str) {
        self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        self.quarantine(path, why);
    }

    /// Atomically persists `bytes` under `path` and verifies the write
    /// by reading it back. Returns `false` (best effort: a full disk or
    /// read-only store degrades to a cold cache, never an abort) when
    /// the entry did not durably land.
    fn store_bytes(&self, path: &Path, bytes: &[u8]) -> bool {
        if self.chaos_roll("store.write") {
            self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            return false; // injected write failure
        }
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("tmp-{}-{n}", std::process::id()));
        let ok = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(bytes))
            .and_then(|_| fs::rename(&tmp, path));
        if ok.is_err() {
            let _ = fs::remove_file(&tmp);
            self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Read-back verify: the entry only counts once the bytes on disk
        // are the bytes we meant to write.
        match fs::read(path) {
            Ok(back) if back == bytes => {}
            _ => {
                let _ = fs::remove_file(path);
                self.metrics.verify_failures.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        self.metrics.writes.fetch_add(1, Ordering::Relaxed);
        if self.chaos_roll("store.corrupt") {
            // Injected post-write bit rot (after verify, so the write
            // itself succeeded): future reads must quarantine this entry.
            let mut rotted = bytes.to_vec();
            if rotted.len() % 2 == 0 {
                rotted.truncate(rotted.len() / 2);
            } else {
                let mid = rotted.len() / 2;
                rotted[mid] ^= 0x40;
            }
            let _ = fs::write(path, &rotted);
        }
        true
    }

    /// Loads raw value bytes from the WAL index, with the same
    /// chaos-read and miss accounting file mode applies.
    fn wal_load(&self, wal: &Wal, kind: ValueKind, key: &str) -> Option<Vec<u8>> {
        if self.chaos_roll("store.read") {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None; // injected read I/O error: a clean miss
        }
        match wal.get(kind, key) {
            Some(bytes) => Some(bytes),
            None => {
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A replayed WAL value failed to decode at the wire layer (version
    /// skew, foreign bytes): preserve it for autopsy and evict the slot
    /// so it becomes a miss, mirroring file-mode quarantine.
    fn wal_invalid(&self, wal: &Wal, kind: ValueKind, key: &str, label: &str, why: &str) {
        self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(bytes) = wal.evict(kind, key) {
            wal.quarantine_value(label, &bytes, why);
            self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Maps one WAL append outcome onto the store metrics.
    fn wal_count_put(&self, outcome: Result<(), AppendError>) -> bool {
        match outcome {
            Ok(()) => {
                self.metrics.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(AppendError::Verify) => {
                self.metrics.verify_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
            Err(_) => {
                self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Reads the `kind` entry of `key` and decodes it, with the chaos
    /// roll, hit/miss accounting and quarantine every load shares.
    fn load_entry<T>(
        &self,
        key: &str,
        kind: ValueKind,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let ext = match kind {
            ValueKind::Run => "run",
            ValueKind::Annotated => "ann",
        };
        if let Some(wal) = &self.wal {
            let bytes = self.wal_load(wal, kind, key)?;
            return match decode(&bytes) {
                Ok(value) => {
                    self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                    Some(value)
                }
                Err(e) => {
                    self.wal_invalid(wal, kind, key, &format!("{key}.{ext}"), &format!("{e:?}"));
                    None
                }
            };
        }
        let path = self.path_for(key, ext);
        let bytes = self.load_bytes(&path)?;
        match decode(&bytes) {
            Ok(value) => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(e) => {
                self.note_invalid(&path, &format!("{e:?}"));
                None
            }
        }
    }

    /// Loads the run stored under `key`, if present and valid.
    /// Undecodable entries are quarantined and count as misses.
    pub fn load_run(&self, key: &str) -> Option<RunResult> {
        self.load_entry(key, ValueKind::Run, wire::decode_run)
    }

    /// Loads the annotated run stored under `key`, if present and valid.
    /// Undecodable entries are quarantined and count as misses.
    pub fn load_annotated(&self, key: &str) -> Option<(RunResult, AnnotationSet)> {
        self.load_entry(key, ValueKind::Annotated, wire::decode_annotated)
    }

    /// Loads only the summary fields ([`wire::RunHead`]) of the entry
    /// `kind` keys under `key`: the `.ann` entry for
    /// [`RunKind::Annotated`], the `.run` entry otherwise.
    ///
    /// Accepts and rejects exactly the entries [`RunStore::load_run`] /
    /// [`RunStore::load_annotated`] do, with the same bookkeeping: one
    /// `store.read` chaos roll, hits, misses, invalids and quarantines
    /// counted alike, and an I/O error a plain miss. File mode streams
    /// the entry through one fixed buffer ([`wire::read_head`]); WAL
    /// mode decodes the head from the value. Neither builds the page
    /// table.
    pub fn load_head(&self, key: &str, kind: RunKind) -> Option<wire::RunHead> {
        let (value_kind, ext, frame_kind) = match kind {
            RunKind::Annotated => (ValueKind::Annotated, "ann", wire::KIND_ANNOTATED),
            _ => (ValueKind::Run, "run", wire::KIND_RUN),
        };
        if self.wal.is_some() {
            return self.load_entry(key, value_kind, |bytes| {
                wire::decode_head(bytes, frame_kind)
            });
        }
        if self.chaos_roll("store.read") {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None; // injected read I/O error: a clean miss
        }
        let path = self.path_for(key, ext);
        let read = fs::File::open(&path)
            .and_then(|f| Ok((f.metadata()?.len(), f)))
            .map_err(wire::HeadError::Io)
            .and_then(|(len, f)| wire::read_head(f, len, frame_kind));
        match read {
            Ok(head) => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                Some(head)
            }
            Err(wire::HeadError::Io(_)) => {
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(wire::HeadError::Codec(e)) => {
                self.note_invalid(&path, &format!("{e:?}"));
                None
            }
        }
    }

    /// Persists `run` under `key`; `true` once it is verified on disk.
    pub fn store_run(&self, key: &str, run: &RunResult) -> bool {
        if let Some(wal) = &self.wal {
            return self.wal_count_put(wal.put(ValueKind::Run, key, &wire::encode_run(run)));
        }
        self.store_bytes(&self.path_for(key, "run"), &wire::encode_run(run))
    }

    /// Persists an annotated run under `key`; `true` once it is
    /// verified on disk.
    pub fn store_annotated(&self, key: &str, run: &RunResult, set: &AnnotationSet) -> bool {
        if let Some(wal) = &self.wal {
            return self.wal_count_put(wal.put(
                ValueKind::Annotated,
                key,
                &wire::encode_annotated(run, set),
            ));
        }
        self.store_bytes(
            &self.path_for(key, "ann"),
            &wire::encode_annotated(run, set),
        )
    }

    fn checkpoint_path(&self, key: &str, epoch: u64) -> PathBuf {
        // Zero-padded epochs keep lexicographic file order equal to
        // numeric epoch order (handy for humans listing the directory).
        self.dir.join(format!("{key}-e{epoch:08}.ckpt"))
    }

    /// Persists a checkpoint blob for epoch `epoch` of run `key`;
    /// `true` once it is verified on disk. Earlier checkpoints of the
    /// same run are kept: they are the fallback when this one turns out
    /// torn or corrupt on resume.
    pub fn store_checkpoint(&self, key: &str, epoch: u64, bytes: &[u8]) -> bool {
        if let Some(wal) = &self.wal {
            return self.wal_count_put(wal.put_ckpt(key, epoch, bytes));
        }
        self.store_bytes(&self.checkpoint_path(key, epoch), bytes)
    }

    /// Lists the checkpoint segments of run `key`, ascending by epoch.
    ///
    /// In WAL mode checkpoints live inside log segments, not per-epoch
    /// files; the path reported there is the WAL directory itself.
    pub fn list_checkpoints(&self, key: &str) -> Vec<(u64, PathBuf)> {
        if let Some(wal) = &self.wal {
            return wal
                .ckpt_epochs(key)
                .into_iter()
                .map(|e| (e, wal.dir().to_path_buf()))
                .collect();
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .map(|e| e.path())
            .filter_map(|path| {
                let name = path.file_name()?.to_string_lossy().into_owned();
                let (k, epoch) = parse_checkpoint_name(&name)?;
                (k == key).then_some((epoch, path))
            })
            .collect();
        found.sort();
        found
    }

    /// Loads the newest *valid* checkpoint of run `key`.
    ///
    /// Walks the segments newest-first: a torn or corrupt tail (the
    /// typical kill-during-write artifact) is quarantined and the walk
    /// falls back to the previous segment, so a resume never sees
    /// garbage — at worst it restarts from an older epoch or cold.
    pub fn load_latest_checkpoint(&self, key: &str) -> Option<(u64, Vec<u8>)> {
        if let Some(wal) = &self.wal {
            for epoch in wal.ckpt_epochs(key).into_iter().rev() {
                if self.chaos_roll("store.read") {
                    self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                    continue; // injected read error: fall back one epoch
                }
                let Some(bytes) = wal.get_ckpt(key, epoch) else {
                    continue;
                };
                match decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
                    Ok(_) => {
                        self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                        return Some((epoch, bytes));
                    }
                    Err(e) => self.quarantine_checkpoint(key, epoch, &format!("{e:?}")),
                }
            }
            return None;
        }
        for (epoch, path) in self.list_checkpoints(key).into_iter().rev() {
            let Some(bytes) = self.load_bytes(&path) else {
                continue;
            };
            match decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
                Ok(_) => {
                    self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                    return Some((epoch, bytes));
                }
                Err(e) => self.note_invalid(&path, &format!("{e:?}")),
            }
        }
        None
    }

    /// Lists every checkpoint segment in the store as
    /// `(key, epoch, size_bytes)`, sorted by key then epoch (the
    /// `ramp-store ckpt` listing).
    pub fn all_checkpoints(&self) -> Vec<(String, u64, u64)> {
        if let Some(wal) = &self.wal {
            return wal.ckpts_all();
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(String, u64, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_string_lossy().into_owned();
                let (key, epoch) = parse_checkpoint_name(&name)?;
                let len = fs::metadata(&path).ok()?.len();
                Some((key.to_string(), epoch, len))
            })
            .collect();
        found.sort();
        found
    }

    /// Quarantines one checkpoint segment whose *payload* failed to
    /// restore (the frame decoded, but the state inside was rejected —
    /// e.g. a checkpoint from a different run landing under this key).
    pub fn quarantine_checkpoint(&self, key: &str, epoch: u64, why: &str) {
        if let Some(wal) = &self.wal {
            self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            // Log the delete best-effort, but evict unconditionally:
            // resume must never spin on a checkpoint it just rejected.
            let _ = wal.del_ckpt(key, epoch);
            if let Some(bytes) = wal.evict_ckpt(key, epoch) {
                wal.quarantine_value(&format!("{key}-e{epoch:08}"), &bytes, why);
                self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        self.note_invalid(&self.checkpoint_path(key, epoch), why);
    }

    /// Deletes every checkpoint segment of run `key` (a completed run
    /// no longer needs its resume trail). Returns how many were removed.
    pub fn remove_checkpoints(&self, key: &str) -> usize {
        if let Some(wal) = &self.wal {
            // Log the trail delete best-effort; evict unconditionally so
            // this process stops seeing the trail either way. If the
            // delete record did not land, replay resurrects a stale
            // trail — harmless, since the completed run is served warm
            // ahead of any resume attempt.
            let before = wal.ckpt_epochs(key).len();
            if before == 0 {
                return 0;
            }
            let _ = wal.del_ckpt_trail(key);
            wal.evict_ckpt_trail(key);
            return before;
        }
        let mut removed = 0;
        for (_, path) in self.list_checkpoints(key) {
            if fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Walks the whole store, removing stale temp files, quarantining
    /// every entry that no longer decodes, and reclaiming **orphaned
    /// checkpoint trails** — `{key}-e*.ckpt` segments whose base run
    /// entry is missing or quarantined. A trail only outlives its run
    /// when the run died and was never resumed (completed runs delete
    /// their trail); scrub is the explicit offline maintenance pass, so
    /// it treats such trails as abandoned and removes them rather than
    /// letting them accumulate. Deterministic order (sorted by file
    /// name); never panics on foreign files.
    pub fn scrub(&self) -> ScrubReport {
        if let Some(wal) = &self.wal {
            return self.scrub_wal(wal);
        }
        let mut report = ScrubReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        // Base keys with a valid run/annotated entry, and the surviving
        // checkpoint files, for the orphan-trail pass below.
        let mut bases: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut ckpt_files: Vec<(String, PathBuf)> = Vec::new();
        for path in paths {
            if !path.is_file() {
                continue;
            }
            report.scanned += 1;
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if name.starts_with("tmp-") {
                // An interrupted write that never got renamed into place.
                let _ = fs::remove_file(&path);
                report.tmp_removed += 1;
            } else if name.ends_with(".quarantine") || name.ends_with(".reason") {
                report.already_quarantined += 1;
            } else if let Some(stem) = name.strip_suffix(".run") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        wire::decode_run(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        bases.insert(stem.to_string());
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else if let Some(stem) = name.strip_suffix(".ann") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        wire::decode_annotated(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        bases.insert(stem.to_string());
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else if name.ends_with(".ckpt") {
                match fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|bytes| {
                        decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    }) {
                    Ok(()) => {
                        report.valid += 1;
                        if let Some((key, _)) = parse_checkpoint_name(&name) {
                            ckpt_files.push((key.to_string(), path.clone()));
                        }
                    }
                    Err(why) => {
                        self.quarantine(&path, &why);
                        report.quarantined += 1;
                    }
                }
            } else {
                report.unknown += 1;
            }
        }
        for (key, path) in ckpt_files {
            if !bases.contains(&key) && fs::remove_file(&path).is_ok() {
                report.orphaned += 1;
            }
        }
        report
    }

    /// The WAL-mode scrub: validates every live index value, reclaims
    /// orphaned checkpoint trails, and sweeps stale manifest temp files.
    /// (Segment-level damage is healed by replay-on-open, so a live
    /// handle only ever scrubs whole records.)
    fn scrub_wal(&self, wal: &Wal) -> ScrubReport {
        let mut report = ScrubReport::default();
        for kind in [ValueKind::Run, ValueKind::Annotated] {
            for key in wal.value_keys(kind) {
                report.scanned += 1;
                let Some(bytes) = wal.get(kind, &key) else {
                    continue;
                };
                let (label, decoded) = match kind {
                    ValueKind::Run => (
                        format!("{key}.run"),
                        wire::decode_run(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}")),
                    ),
                    ValueKind::Annotated => (
                        format!("{key}.ann"),
                        wire::decode_annotated(&bytes)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}")),
                    ),
                };
                match decoded {
                    Ok(()) => report.valid += 1,
                    Err(why) => {
                        wal.evict(kind, &key);
                        wal.quarantine_value(&label, &bytes, &why);
                        self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
                        report.quarantined += 1;
                    }
                }
            }
        }
        for (key, epoch, _) in wal.ckpts_all() {
            report.scanned += 1;
            let Some(bytes) = wal.get_ckpt(&key, epoch) else {
                continue;
            };
            match decode_framed(&bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
                Ok(_) => report.valid += 1,
                Err(e) => {
                    let _ = wal.del_ckpt(&key, epoch);
                    wal.evict_ckpt(&key, epoch);
                    wal.quarantine_value(&format!("{key}-e{epoch:08}"), &bytes, &format!("{e:?}"));
                    self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
                    report.quarantined += 1;
                }
            }
        }
        // Orphaned trails: checkpoints whose base entry is gone. Count
        // before deleting — the logged delete already empties the index.
        for key in wal.ckpt_keys() {
            if wal.get(ValueKind::Run, &key).is_none()
                && wal.get(ValueKind::Annotated, &key).is_none()
            {
                let trail = wal.ckpt_epochs(&key).len() as u64;
                let _ = wal.del_ckpt_trail(&key);
                wal.evict_ckpt_trail(&key);
                report.orphaned += trail;
            }
        }
        // Quarantine artifacts and stale manifest temps in the WAL dir.
        if let Ok(entries) = fs::read_dir(wal.dir()) {
            let mut names: Vec<String> = entries
                .flatten()
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .collect();
            names.sort();
            for name in names {
                if name.ends_with(".quarantine") || name.ends_with(".reason") {
                    report.scanned += 1;
                    report.already_quarantined += 1;
                } else if name.starts_with("MANIFEST.tmp-") {
                    report.scanned += 1;
                    if fs::remove_file(wal.dir().join(&name)).is_ok() {
                        report.tmp_removed += 1;
                    }
                }
            }
        }
        report
    }

    /// Read-only validation of the whole store: decodes every entry
    /// (file mode) or re-scans the manifest and every segment from disk
    /// (WAL mode) without repairing anything. A clean store reports no
    /// errors; the `ramp-store verify` subcommand exits non-zero
    /// otherwise.
    pub fn verify(&self) -> VerifyReport {
        if let Some(wal) = &self.wal {
            let w = wal.verify();
            return VerifyReport {
                mode: StoreMode::Wal,
                entries: w.records,
                valid: w.records,
                segments: w.segments,
                errors: w.errors,
            };
        }
        let mut report = VerifyReport {
            mode: StoreMode::Files,
            ..VerifyReport::default()
        };
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if !path.is_file() {
                continue;
            }
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            let decoded = if name.ends_with(".run") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        wire::decode_run(&b)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else if name.ends_with(".ann") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        wire::decode_annotated(&b)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else if name.ends_with(".ckpt") {
                fs::read(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|b| {
                        decode_framed(&b, CHECKPOINT_KIND, CHECKPOINT_VERSION)
                            .map(|_| ())
                            .map_err(|e| format!("{e:?}"))
                    })
            } else {
                continue; // temp/quarantine/foreign files are scrub's business
            };
            report.entries += 1;
            match decoded {
                Ok(()) => report.valid += 1,
                Err(why) => report.errors.push(format!("{name}: {why}")),
            }
        }
        report
    }

    /// Counts what the store holds on disk right now, plus this
    /// handle's live hit/miss/write counters — the one-line answer to
    /// "did that sweep actually reuse the store?". Read-only.
    pub fn stats(&self) -> StoreStats {
        let m = &self.metrics;
        let mut stats = StoreStats {
            mode: self.mode(),
            hits: m.hits.load(Ordering::Relaxed),
            misses: m.misses.load(Ordering::Relaxed),
            writes: m.writes.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        if let Some(wal) = &self.wal {
            stats.runs = wal.value_keys(wal::ValueKind::Run).len() as u64;
            stats.annotated = wal.value_keys(wal::ValueKind::Annotated).len() as u64;
            stats.checkpoints = wal.ckpt_keys().len() as u64;
            return stats;
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".run") {
                stats.runs += 1;
            } else if name.ends_with(".ann") {
                stats.annotated += 1;
            } else if name.ends_with(".ckpt") {
                stats.checkpoints += 1;
            } else if name.ends_with(".quarantine") {
                stats.quarantined += 1;
            }
        }
        stats
    }

    /// Exports the hit/miss/write/invalid counters into `scope` of `reg`.
    ///
    /// The caller chooses the exposure context; these counters must never
    /// reach a deterministic document (see [`StoreMetrics`]).
    pub fn export_telemetry(&self, reg: &mut StatRegistry, scope: &str) {
        let m = &self.metrics;
        reg.counter_add(scope, "hits", m.hits.load(Ordering::Relaxed));
        reg.counter_add(scope, "misses", m.misses.load(Ordering::Relaxed));
        reg.counter_add(scope, "writes", m.writes.load(Ordering::Relaxed));
        reg.counter_add(scope, "invalid", m.invalid.load(Ordering::Relaxed));
        reg.counter_add(scope, "quarantined", m.quarantined.load(Ordering::Relaxed));
        reg.counter_add(
            scope,
            "write_failures",
            m.write_failures.load(Ordering::Relaxed),
        );
        reg.counter_add(
            scope,
            "verify_failures",
            m.verify_failures.load(Ordering::Relaxed),
        );
    }
}

/// Parses a `<key>-e<epoch>.ckpt` checkpoint file name.
fn parse_checkpoint_name(name: &str) -> Option<(&str, u64)> {
    let stem = name.strip_suffix(".ckpt")?;
    let (key, epoch) = stem.rsplit_once("-e")?;
    Some((key, epoch.parse().ok()?))
}

/// What [`RunStore::scrub`] found and repaired in one walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files examined.
    pub scanned: u64,
    /// Entries that decoded cleanly.
    pub valid: u64,
    /// Undecodable entries quarantined by this walk.
    pub quarantined: u64,
    /// Quarantine artifacts (`*.quarantine` / `*.reason`) from earlier.
    pub already_quarantined: u64,
    /// Stale `tmp-*` files removed (interrupted writes).
    pub tmp_removed: u64,
    /// Foreign files left untouched.
    pub unknown: u64,
    /// Orphaned checkpoint segments removed (trails whose base run
    /// entry is missing or quarantined).
    pub orphaned: u64,
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned={} valid={} quarantined={} already={} tmp={} unknown={} orphaned={}",
            self.scanned,
            self.valid,
            self.quarantined,
            self.already_quarantined,
            self.tmp_removed,
            self.unknown,
            self.orphaned
        )
    }
}

/// What [`RunStore::stats`] counted: durable contents plus the calling
/// handle's volatile hit/miss/write counters.
///
/// The `Display` form is the greppable `[stats]`-line payload the
/// `ramp-store stats` subcommand prints — CI asserts "warm re-sweep
/// performed zero simulations" from it rather than from wall-clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Which backend was counted.
    pub mode: StoreMode,
    /// Durable run entries (`.run` files / live WAL run records).
    pub runs: u64,
    /// Durable annotated entries.
    pub annotated: u64,
    /// Checkpoint trails (file mode counts segments, WAL mode counts
    /// keys with a live checkpoint).
    pub checkpoints: u64,
    /// Quarantined entries (file mode only; WAL quarantines live
    /// outside the segment set).
    pub quarantined: u64,
    /// This handle's cache hits since open (volatile).
    pub hits: u64,
    /// This handle's cache misses since open (volatile).
    pub misses: u64,
    /// This handle's completed writes since open (volatile).
    pub writes: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mode={} runs={} annotated={} checkpoints={} quarantined={} hits={} misses={} writes={}",
            self.mode.label(),
            self.runs,
            self.annotated,
            self.checkpoints,
            self.quarantined,
            self.hits,
            self.misses,
            self.writes
        )
    }
}

/// What [`RunStore::verify`] found (read-only; nothing repaired).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Which backend was verified.
    pub mode: StoreMode,
    /// Entries (file mode) or WAL records examined.
    pub entries: u64,
    /// How many decoded cleanly.
    pub valid: u64,
    /// Live WAL segments (0 in file mode).
    pub segments: u64,
    /// Every defect, one human-readable line each. Empty == clean.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// `true` when the store is defect-free.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mode={} entries={} valid={} segments={} errors={}",
            self.mode.label(),
            self.entries,
            self.valid,
            self.segments,
            self.errors.len()
        )
    }
}

/// Test-only store fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique per-test store directory (no env vars, no external
    /// tempdir crate).
    pub(crate) fn test_store() -> RunStore {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ramp-store-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    /// Like [`test_store`] but WAL-backed.
    pub(crate) fn test_store_wal() -> RunStore {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ramp-store-wal-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open_wal(dir).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::test_store;
    use super::*;
    use crate::wire::testutil::sample_run;

    fn hits(s: &RunStore) -> u64 {
        s.metrics().hits.load(Ordering::Relaxed)
    }
    fn misses(s: &RunStore) -> u64 {
        s.metrics().misses.load(Ordering::Relaxed)
    }

    #[test]
    fn keys_are_stable_and_discriminating() {
        let cfg = SystemConfig::smoke_test();
        let k = run_key(&cfg, RunKind::Static, "lbm", "perf-focused");
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(k, run_key(&cfg, RunKind::Static, "lbm", "perf-focused"));
        // Every key ingredient discriminates.
        assert_ne!(k, run_key(&cfg, RunKind::Profile, "lbm", "perf-focused"));
        assert_ne!(k, run_key(&cfg, RunKind::Static, "mcf", "perf-focused"));
        assert_ne!(k, run_key(&cfg, RunKind::Static, "lbm", "rel-focused"));
        let other = SystemConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        };
        assert_ne!(k, run_key(&other, RunKind::Static, "lbm", "perf-focused"));
    }

    #[test]
    fn round_trip_and_counters() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        assert!(store.load_run(&key).is_none());
        assert_eq!(misses(&store), 1);
        store.store_run(&key, &run);
        let back = store.load_run(&key).expect("stored entry loads");
        assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(hits(&store), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn corrupt_entries_are_clean_misses() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        store.store_run(&key, &run);
        let path = store.path_for(&key, "run");
        let good = fs::read(&path).unwrap();

        // Truncated.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load_run(&key).is_none());
        // Bit flip in the payload (checksum catches it).
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load_run(&key).is_none());
        // Version skew.
        let mut skewed = good.clone();
        skewed[8] ^= 0xff; // version field lives right after the magic
        fs::write(&path, &skewed).unwrap();
        assert!(store.load_run(&key).is_none());
        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(store.load_run(&key).is_none());

        assert_eq!(store.metrics().invalid.load(Ordering::Relaxed), 4);
        // Every bad read quarantined the file instead of leaving it.
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 4);
        assert!(!path.exists());
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(path.with_file_name(format!("{name}.quarantine")).exists());
        let reason = fs::read_to_string(path.with_file_name(format!("{name}.reason"))).unwrap();
        assert!(
            reason.contains(&name),
            "reason file names the entry: {reason}"
        );
        // A rewrite heals the slot.
        store.store_run(&key, &run);
        assert!(store.load_run(&key).is_some());
    }

    #[test]
    fn scrub_repairs_a_damaged_store() {
        let store = test_store();
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        let good_key = run_key(&cfg, RunKind::Static, "lbm", "x");
        let bad_key = run_key(&cfg, RunKind::Static, "mcf", "x");
        store.store_run(&good_key, &run);
        store.store_run(&bad_key, &run);
        // Damage one entry, drop a stale temp file and a foreign file.
        let bad_path = store.path_for(&bad_key, "run");
        let good_bytes = fs::read(&bad_path).unwrap();
        fs::write(&bad_path, &good_bytes[..good_bytes.len() / 3]).unwrap();
        fs::write(store.dir().join("tmp-999-0"), b"interrupted").unwrap();
        fs::write(store.dir().join("notes.txt"), b"not ours").unwrap();

        let report = store.scrub();
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.unknown, 1);
        assert_eq!(report.scanned, 4);
        assert!(!store.dir().join("tmp-999-0").exists());
        assert!(!bad_path.exists());
        assert!(store.load_run(&good_key).is_some());
        assert!(store.load_run(&bad_key).is_none());

        // A second walk finds the store clean, with the quarantine
        // artifacts (entry + reason) accounted separately.
        let again = store.scrub();
        assert_eq!(again.quarantined, 0);
        assert_eq!(again.valid, 1);
        assert_eq!(again.already_quarantined, 2);
        assert_eq!(
            report.to_string(),
            "scanned=4 valid=1 quarantined=1 already=0 tmp=1 unknown=1 orphaned=0"
        );
    }

    #[test]
    fn injected_write_failure_degrades_to_a_cold_cache() {
        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(3, "io=1.0").unwrap());
        let store = test_store().with_chaos(Some(chaos));
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        assert!(!store.store_run(&key, &run)); // every write injected to fail
        assert!(!store.path_for(&key, "run").exists());
        assert_eq!(store.metrics().write_failures.load(Ordering::Relaxed), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 0);
        assert!(store.load_run(&key).is_none()); // injected read error: a miss
    }

    #[test]
    fn store_chaos_classifies_every_fault_and_never_serves_garbage() {
        // io=0.5 exercises all three sites (failed writes, read errors,
        // post-write rot) across 40 write+read pairs. The invariants:
        // never panic, never a wrong payload, every load is exactly one
        // of hit/miss, and some of every failure class fires.
        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(5, "io=0.5").unwrap());
        let store = test_store().with_chaos(Some(chaos));
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        for i in 0..40 {
            let key = run_key(&cfg, RunKind::Static, &format!("wl{i}"), "x");
            store.store_run(&key, &run);
            if let Some(back) = store.load_run(&key) {
                // A served entry is bit-correct, chaos or not.
                assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
                assert_eq!(back.telemetry, run.telemetry);
            }
        }
        let m = store.metrics();
        let hits = m.hits.load(Ordering::Relaxed);
        let misses = m.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 40, "each load is exactly one of hit/miss");
        assert!(m.write_failures.load(Ordering::Relaxed) > 0);
        assert!(m.quarantined.load(Ordering::Relaxed) > 0);
        assert_eq!(
            m.quarantined.load(Ordering::Relaxed),
            m.invalid.load(Ordering::Relaxed),
            "every undecodable entry was quarantined"
        );
    }

    #[test]
    fn annotated_round_trip() {
        let store = test_store();
        let run = sample_run();
        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Lbm, "grid".into())],
            pinned: [ramp_sim::PageId(3)].into_iter().collect(),
        };
        let key = run_key(
            &SystemConfig::smoke_test(),
            RunKind::Annotated,
            "lbm",
            "annotations",
        );
        assert!(store.load_annotated(&key).is_none());
        store.store_annotated(&key, &run, &set);
        let (_, back_set) = store.load_annotated(&key).unwrap();
        assert_eq!(back_set.pinned, set.pinned);
        // A `.run` entry can never be read back as annotated.
        store.store_run(&key, &run);
        assert!(store.load_annotated(&key).is_some()); // different extension
    }

    #[test]
    fn checkpoint_namespace_round_trip_and_fallback() {
        let store = test_store();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "lbm", "x");
        assert!(store.load_latest_checkpoint(&key).is_none());

        let blob = |epoch: u8| {
            ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[epoch; 32])
        };
        assert!(store.store_checkpoint(&key, 2, &blob(2)));
        assert!(store.store_checkpoint(&key, 4, &blob(4)));
        assert!(store.store_checkpoint(&key, 10, &blob(10)));
        assert_eq!(
            store
                .list_checkpoints(&key)
                .iter()
                .map(|(e, _)| *e)
                .collect::<Vec<_>>(),
            vec![2, 4, 10]
        );
        // Another run's checkpoints don't alias.
        let other = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "mcf", "x");
        assert!(store.store_checkpoint(&other, 7, &blob(7)));
        assert_eq!(store.list_checkpoints(&key).len(), 3);

        let (epoch, bytes) = store.load_latest_checkpoint(&key).unwrap();
        assert_eq!(epoch, 10);
        assert_eq!(bytes, blob(10));

        // Tear the newest segment: the load quarantines it and falls
        // back to epoch 4, never serving garbage.
        let torn = store.checkpoint_path(&key, 10);
        let good = fs::read(&torn).unwrap();
        fs::write(&torn, &good[..good.len() - 5]).unwrap();
        let (epoch, bytes) = store.load_latest_checkpoint(&key).unwrap();
        assert_eq!(epoch, 4);
        assert_eq!(bytes, blob(4));
        assert!(!torn.exists());
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 1);

        // Completed runs clean up their trail.
        assert_eq!(store.remove_checkpoints(&key), 2);
        assert!(store.load_latest_checkpoint(&key).is_none());
        assert_eq!(store.list_checkpoints(&other).len(), 1);
    }

    #[test]
    fn scrub_validates_checkpoint_segments() {
        let store = test_store();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Migration, "lbm", "x");
        // A live base entry keeps the trail from counting as orphaned.
        store.store_run(&key, &sample_run());
        let good = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[9; 16]);
        store.store_checkpoint(&key, 1, &good);
        store.store_checkpoint(&key, 2, &good);
        let bad = store.checkpoint_path(&key, 2);
        fs::write(&bad, &good[..good.len() / 2]).unwrap();

        let report = store.scrub();
        assert_eq!(report.valid, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned, 0);
        assert!(!bad.exists());
        assert_eq!(store.load_latest_checkpoint(&key).unwrap().0, 1);
    }

    #[test]
    fn scrub_reclaims_orphaned_checkpoint_trails() {
        let store = test_store();
        let cfg = SystemConfig::smoke_test();
        let live = run_key(&cfg, RunKind::Migration, "lbm", "x");
        let dead = run_key(&cfg, RunKind::Migration, "mcf", "x");
        let blob = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[7; 16]);
        store.store_run(&live, &sample_run());
        store.store_checkpoint(&live, 1, &blob);
        // `dead` has a trail but no base entry (the run died and was
        // never resumed): scrub reclaims it.
        store.store_checkpoint(&dead, 1, &blob);
        store.store_checkpoint(&dead, 2, &blob);

        let report = store.scrub();
        assert_eq!(report.orphaned, 2);
        assert!(store.list_checkpoints(&dead).is_empty());
        assert_eq!(store.list_checkpoints(&live).len(), 1);

        // A quarantined base also orphans its trail.
        let base = store.path_for(&live, "run");
        let bytes = fs::read(&base).unwrap();
        fs::write(&base, &bytes[..bytes.len() / 2]).unwrap();
        let report = store.scrub();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned, 1);
        assert!(store.list_checkpoints(&live).is_empty());
    }

    #[test]
    fn wal_mode_round_trips_and_reopens() {
        let store = super::testutil::test_store_wal();
        assert_eq!(store.mode(), StoreMode::Wal);
        assert_eq!(store.replay_report().unwrap(), &ReplayReport::default());
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        let key = run_key(&cfg, RunKind::Static, "lbm", "x");
        assert!(store.load_run(&key).is_none());
        assert!(store.store_run(&key, &run));
        let back = store.load_run(&key).expect("stored entry loads");
        assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
        assert_eq!(back.telemetry, run.telemetry);
        assert_eq!(hits(&store), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 1);

        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Lbm, "grid".into())],
            pinned: [ramp_sim::PageId(3)].into_iter().collect(),
        };
        assert!(store.store_annotated(&key, &run, &set));
        let blob = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[5; 16]);
        assert!(store.store_checkpoint(&key, 1, &blob));
        assert!(store.store_checkpoint(&key, 3, &blob));
        assert_eq!(store.load_latest_checkpoint(&key).unwrap().0, 3);
        assert_eq!(store.all_checkpoints().len(), 2);

        // Reopen the same directory: everything replays.
        let dir = store.dir().to_path_buf();
        drop(store);
        let store = RunStore::open_wal(&dir).unwrap();
        assert_eq!(store.replay_report().unwrap().records, 4);
        let back = store.load_run(&key).expect("replayed entry loads");
        assert_eq!(wire::encode_run(&back), wire::encode_run(&run));
        let (_, back_set) = store.load_annotated(&key).unwrap();
        assert_eq!(back_set.pinned, set.pinned);
        assert_eq!(store.load_latest_checkpoint(&key).unwrap().0, 3);
        assert_eq!(store.remove_checkpoints(&key), 2);
        assert!(store.list_checkpoints(&key).is_empty());
        assert!(store.verify().ok());
    }

    #[test]
    fn wal_mode_chaos_classifies_every_fault() {
        // Mirror of the file-mode chaos invariants: every load is
        // exactly one of hit/miss, served entries are bit-correct, and
        // injected faults land in the failure counters — plus the WAL
        // handle survives a torn-append poisoning without panicking.
        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(5, "io=0.5").unwrap());
        let store = super::testutil::test_store_wal().with_chaos(Some(chaos));
        let run = sample_run();
        let cfg = SystemConfig::smoke_test();
        for i in 0..40 {
            let key = run_key(&cfg, RunKind::Static, &format!("wl{i}"), "x");
            store.store_run(&key, &run);
            if let Some(back) = store.load_run(&key) {
                assert_eq!(back.ipc.to_bits(), run.ipc.to_bits());
                assert_eq!(back.telemetry, run.telemetry);
            }
        }
        let m = store.metrics();
        let hits = m.hits.load(Ordering::Relaxed);
        let misses = m.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 40, "each load is exactly one of hit/miss");
        assert!(m.write_failures.load(Ordering::Relaxed) > 0);

        // Reopen without chaos: every acked write (and only those)
        // replays; the store verifies clean after the heal.
        let dir = store.dir().to_path_buf();
        let acked = m.writes.load(Ordering::Relaxed);
        drop(store);
        let store = RunStore::open_wal(&dir).unwrap();
        let replay = store.replay_report().unwrap().clone();
        assert!(replay.records >= acked, "acked {acked}, replayed {replay}");
        assert!(store.verify().ok(), "{}", store.verify());
    }

    #[test]
    fn wal_scrub_reclaims_orphaned_trails() {
        let store = super::testutil::test_store_wal();
        let cfg = SystemConfig::smoke_test();
        let live = run_key(&cfg, RunKind::Migration, "lbm", "x");
        let dead = run_key(&cfg, RunKind::Migration, "mcf", "x");
        let blob = ramp_sim::codec::encode_framed(CHECKPOINT_KIND, CHECKPOINT_VERSION, &[7; 16]);
        store.store_run(&live, &sample_run());
        store.store_checkpoint(&live, 1, &blob);
        store.store_checkpoint(&dead, 1, &blob);
        store.store_checkpoint(&dead, 2, &blob);

        let report = store.scrub();
        assert_eq!(report.orphaned, 2);
        assert_eq!(report.quarantined, 0);
        assert!(store.list_checkpoints(&dead).is_empty());
        assert_eq!(store.list_checkpoints(&live).len(), 1);
        // The reclamation is durable: a reopen agrees.
        let dir = store.dir().to_path_buf();
        drop(store);
        let store = RunStore::open_wal(&dir).unwrap();
        assert!(store.list_checkpoints(&dead).is_empty());
        assert_eq!(store.list_checkpoints(&live).len(), 1);
    }

    #[test]
    fn verify_is_read_only_and_classifies_damage() {
        let store = test_store();
        let run = sample_run();
        let key = run_key(&SystemConfig::smoke_test(), RunKind::Static, "lbm", "x");
        store.store_run(&key, &run);
        assert!(store.verify().ok());
        let path = store.path_for(&key, "run");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let report = store.verify();
        assert_eq!(report.mode, StoreMode::Files);
        assert_eq!(report.entries, 1);
        assert_eq!(report.valid, 0);
        assert_eq!(report.errors.len(), 1);
        // Read-only: the damaged file is still in place (scrub heals).
        assert!(path.exists());
    }

    #[test]
    fn from_env_respects_off_switch() {
        // Can't mutate env safely in parallel tests; just exercise the
        // default path, which must yield a usable store or None.
        if let Some(store) = RunStore::from_env() {
            assert!(store.dir().to_string_lossy().contains("ramp-store"));
        }
    }

    /// Fills a fresh store with runs and annotated runs, damages every
    /// third `.run` entry, then reads it back in a fixed script under
    /// `io=0.25` chaos through [`RunStore::load_head`] (`heads`) or the
    /// full decode. Returns every read's outcome, the store metrics and
    /// the chaos roll and injection counts.
    fn scripted_reads(wal: bool, heads: bool) -> (Vec<bool>, [u64; 4], (u64, u64)) {
        let store = if wal {
            super::testutil::test_store_wal()
        } else {
            test_store()
        };
        let run = sample_run();
        let set = AnnotationSet {
            structures: vec![(ramp_trace::Benchmark::Lbm, "grid".into())],
            pinned: [ramp_sim::PageId(3)].into_iter().collect(),
        };
        let cfg = SystemConfig::smoke_test();
        let keys: Vec<(String, String)> = (0..30)
            .map(|i| {
                let key = run_key(&cfg, RunKind::Static, "lbm", &format!("p{i}"));
                let ann = run_key(&cfg, RunKind::Annotated, "lbm", &format!("p{i}"));
                assert!(store.store_run(&key, &run));
                assert!(store.store_annotated(&ann, &run, &set));
                if i % 3 == 0 {
                    // A foreign value in WAL mode, a flipped byte on disk.
                    match &store.wal {
                        Some(wal) => wal
                            .put(ValueKind::Run, &key, &wire::encode_annotated(&run, &set))
                            .unwrap(),
                        None => {
                            let path = store.path_for(&key, "run");
                            let mut bytes = fs::read(&path).unwrap();
                            let at = bytes.len() / 3;
                            bytes[at] ^= 0x10;
                            fs::write(&path, bytes).unwrap();
                        }
                    }
                }
                (key, ann)
            })
            .collect();

        let chaos = Arc::new(ramp_sim::chaos::Chaos::from_spec(11, "io=0.25").unwrap());
        let store = store.with_chaos(Some(Arc::clone(&chaos)));
        let want = wire::RunHead::from(&run);
        let read = |key: &str, kind: RunKind| -> bool {
            if !heads {
                return match kind {
                    RunKind::Annotated => store.load_annotated(key).is_some(),
                    _ => store.load_run(key).is_some(),
                };
            }
            let got = store.load_head(key, kind);
            if let Some(got) = &got {
                assert_eq!(got.workload, want.workload);
                assert_eq!(got.ipc.to_bits(), want.ipc.to_bits());
                assert_eq!(got.migrations, want.migrations);
            }
            got.is_some()
        };
        let mut seen = Vec::new();
        for (i, (key, ann)) in keys.iter().enumerate() {
            let absent = run_key(&cfg, RunKind::Static, "mcf", &format!("p{i}"));
            seen.push(read(&absent, RunKind::Static));
            seen.push(read(key, RunKind::Static));
            seen.push(read(ann, RunKind::Annotated));
            seen.push(read(key, RunKind::Annotated)); // no `.ann` entry
            seen.push(read(ann, RunKind::Profile)); // no `.run` entry
            seen.push(read(key, RunKind::Static)); // after any quarantine
        }
        let m = store.metrics();
        let counts = [
            m.hits.load(Ordering::Relaxed),
            m.misses.load(Ordering::Relaxed),
            m.invalid.load(Ordering::Relaxed),
            m.quarantined.load(Ordering::Relaxed),
        ];
        let io = ramp_sim::chaos::FaultKind::Io;
        (seen, counts, (chaos.rolls(io), chaos.injected(io)))
    }

    #[test]
    fn load_head_keeps_load_run_bookkeeping_in_both_modes() {
        for wal in [false, true] {
            let full = scripted_reads(wal, false);
            let heads = scripted_reads(wal, true);
            assert_eq!(heads, full, "wal={wal}: load_head must match load_run");
            let (_, [hits, misses, invalid, quarantined], (_, injected)) = full;
            assert!(hits > 0 && misses > 0 && injected > 0, "wal={wal}");
            assert!(invalid > 0, "wal={wal}: the script must hit damage");
            assert_eq!(quarantined, invalid, "wal={wal}");
        }
    }

    #[test]
    fn load_head_quarantines_a_corrupt_file_and_misses_an_unreadable_one() {
        let store = test_store();
        let cfg = SystemConfig::smoke_test();
        let key = run_key(&cfg, RunKind::Static, "lbm", "x");
        store.store_run(&key, &sample_run());
        let path = store.path_for(&key, "run");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1; // checksum byte
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_head(&key, RunKind::Static).is_none());
        assert!(!path.exists());
        assert!(path
            .with_file_name(format!("{key}.run.quarantine"))
            .exists());
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 1);

        // A directory where the entry should be cannot be read: a plain
        // miss, for the full decode and the head read alike.
        let dir_key = run_key(&cfg, RunKind::Static, "mcf", "x");
        let dir_path = store.path_for(&dir_key, "run");
        fs::create_dir(&dir_path).unwrap();
        let before = misses(&store);
        assert!(store.load_run(&dir_key).is_none());
        assert!(store.load_head(&dir_key, RunKind::Static).is_none());
        assert_eq!(misses(&store), before + 2);
        assert_eq!(store.metrics().invalid.load(Ordering::Relaxed), 1);
        assert_eq!(store.metrics().quarantined.load(Ordering::Relaxed), 1);
        assert!(
            dir_path.is_dir(),
            "an unreadable entry is never quarantined"
        );
    }
}
