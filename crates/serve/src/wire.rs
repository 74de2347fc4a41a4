//! The on-disk wire format of the run store: versioned, checksummed
//! encodings of [`RunResult`] and annotated runs.
//!
//! Built on the generic `ramp_sim::codec` primitives. The format is
//! little-endian, length-prefixed, and framed by
//! [`ramp_sim::codec::encode_framed`] (magic + [`WIRE_VERSION`] + payload
//! kind + checksum), so any truncation, corruption or version skew
//! decodes to a clean [`CodecError`] that the store maps to a cache miss
//! — never a panic, never a stale result.
//!
//! `f64` fields travel as IEEE-754 bit patterns: a decoded result is
//! *bit-identical* to the encoded one, which is what lets a warm-started
//! experiment binary produce byte-identical stdout.
//!
//! **Summary reads.** A run payload opens with the scalar fields a
//! summary shows ([`RunHead`]), then the per-page ACE/AVF table — 48
//! bytes a page, 98–99% of a stored run — then the telemetry snapshot
//! (and, for annotated runs, the annotation set). [`read_head`] streams
//! one entry through a single [`HEAD_BUF_BYTES`] buffer: it parses the
//! head, feeds the table bytes to the checksum without keeping them,
//! then parses and validates the tail and compares the checksum. It
//! accepts exactly the entries [`decode_run`] / [`decode_annotated`]
//! accept, so a summary never trusts bytes a full decode would reject,
//! and it never builds the page table.

use std::collections::HashSet;
use std::io::{self, Read};

use ramp_avf::{PageStats, StatsTable};
use ramp_core::annotate::AnnotationSet;
use ramp_core::system::RunResult;
use ramp_sim::codec::{
    decode_framed, encode_framed, fnv1a64, fnv1a64_seeded, read_frame_header, ByteReader,
    ByteWriter, CodecError, FRAME_HEADER_BYTES,
};
use ramp_sim::telemetry::{BinHistogram, Snapshot, Stat};
use ramp_sim::units::PageId;
use ramp_trace::Benchmark;

/// Format version of every store entry; bump on any layout change so
/// stale entries become misses instead of misreads.
pub const WIRE_VERSION: u32 = 1;

/// Frame kind tag for a plain [`RunResult`].
pub const KIND_RUN: u8 = 1;
/// Frame kind tag for an annotated run (result + annotation set).
pub const KIND_ANNOTATED: u8 = 2;
// Kind 3 is a simulation checkpoint (`ramp_core::system::CHECKPOINT_KIND`).
/// Frame kind tag for one WAL segment record (see [`crate::wal`]).
pub const KIND_WAL_RECORD: u8 = 4;
/// Frame kind tag for the WAL manifest (see [`crate::wal`]).
pub const KIND_WAL_MANIFEST: u8 = 5;

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;
const TAG_RATIO: u8 = 3;

fn write_snapshot(w: &mut ByteWriter, snap: &Snapshot) {
    let scopes: Vec<_> = snap.scopes().collect();
    w.u32(scopes.len() as u32);
    for (scope, stats) in scopes {
        w.str(scope);
        w.u32(stats.len() as u32);
        for (name, stat) in stats {
            w.str(name);
            match stat {
                Stat::Counter(v) => {
                    w.u8(TAG_COUNTER);
                    w.u64(*v);
                }
                Stat::Gauge(v) => {
                    w.u8(TAG_GAUGE);
                    w.f64(*v);
                }
                Stat::Histogram(h) => {
                    w.u8(TAG_HISTOGRAM);
                    w.f64(h.lo());
                    w.f64(h.hi());
                    w.u32(h.counts().len() as u32);
                    for &c in h.counts() {
                        w.u64(c);
                    }
                }
                Stat::Ratio { num, den } => {
                    w.u8(TAG_RATIO);
                    w.u64(*num);
                    w.u64(*den);
                }
            }
        }
    }
}

fn read_snapshot(r: &mut ByteReader) -> Result<Snapshot, CodecError> {
    let mut snap = Snapshot::default();
    let n_scopes = r.seq_len(4)?;
    for _ in 0..n_scopes {
        let scope = r.str()?;
        let n_stats = r.seq_len(5)?;
        for _ in 0..n_stats {
            let name = r.str()?;
            let stat = match r.u8()? {
                TAG_COUNTER => Stat::Counter(r.u64()?),
                TAG_GAUGE => Stat::Gauge(r.f64()?),
                TAG_HISTOGRAM => {
                    let lo = r.f64()?;
                    let hi = r.f64()?;
                    let bins = r.seq_len(8)?;
                    let counts = (0..bins).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                    Stat::Histogram(
                        BinHistogram::from_parts(lo, hi, counts)
                            .ok_or(CodecError::Malformed("bad histogram geometry"))?,
                    )
                }
                TAG_RATIO => Stat::Ratio {
                    num: r.u64()?,
                    den: r.u64()?,
                },
                _ => return Err(CodecError::Malformed("unknown stat tag")),
            };
            snap.insert(&scope, name, stat);
        }
    }
    Ok(snap)
}

fn write_table(w: &mut ByteWriter, table: &StatsTable) {
    w.u64(table.total_cycles());
    w.u32(table.pages().len() as u32);
    for s in table.pages() {
        w.u64(s.page.0);
        w.u64(s.reads);
        w.u64(s.writes);
        w.u64(s.ace_hbm);
        w.u64(s.ace_ddr);
        w.f64(s.avf);
    }
}

fn read_table(r: &mut ByteReader) -> Result<StatsTable, CodecError> {
    let total_cycles = r.u64()?;
    let n = r.seq_len(48)?;
    let mut stats = Vec::with_capacity(n);
    for _ in 0..n {
        stats.push(PageStats {
            page: PageId(r.u64()?),
            reads: r.u64()?,
            writes: r.u64()?,
            ace_hbm: r.u64()?,
            ace_ddr: r.u64()?,
            avf: r.f64()?,
        });
    }
    Ok(StatsTable::from_stats(stats, total_cycles))
}

fn write_run_payload(w: &mut ByteWriter, run: &RunResult) {
    w.str(&run.workload);
    w.str(&run.policy);
    w.f64(run.ipc);
    w.u32(run.per_core_ipc.len() as u32);
    for &v in &run.per_core_ipc {
        w.f64(v);
    }
    w.f64(run.ser_fit);
    w.f64(run.ser_ddr_only_fit);
    w.u64(run.cycles);
    w.u64(run.instructions);
    w.f64(run.mpki);
    w.u64(run.hbm_accesses);
    w.u64(run.ddr_accesses);
    w.u64(run.migrations);
    w.f64(run.mean_read_latency.0);
    w.f64(run.mean_read_latency.1);
    write_table(w, &run.table);
    write_snapshot(w, &run.telemetry);
}

fn read_run_payload(r: &mut ByteReader) -> Result<RunResult, CodecError> {
    let workload = r.str()?;
    let policy = r.str()?;
    let ipc = r.f64()?;
    let n_cores = r.seq_len(8)?;
    let per_core_ipc = (0..n_cores)
        .map(|_| r.f64())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        workload,
        policy,
        ipc,
        per_core_ipc,
        ser_fit: r.f64()?,
        ser_ddr_only_fit: r.f64()?,
        cycles: r.u64()?,
        instructions: r.u64()?,
        mpki: r.f64()?,
        hbm_accesses: r.u64()?,
        ddr_accesses: r.u64()?,
        migrations: r.u64()?,
        mean_read_latency: (r.f64()?, r.f64()?),
        table: read_table(r)?,
        telemetry: read_snapshot(r)?,
    })
}

/// Encodes a run result as a framed, checksummed store entry.
pub fn encode_run(run: &RunResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_run_payload(&mut w, run);
    encode_framed(KIND_RUN, WIRE_VERSION, w.bytes())
}

/// Decodes a framed store entry back into a run result.
///
/// Fails cleanly (no panic, no partial result) on truncation, bit flips,
/// wrong kind or version skew.
pub fn decode_run(bytes: &[u8]) -> Result<RunResult, CodecError> {
    let payload = decode_framed(bytes, KIND_RUN, WIRE_VERSION)?;
    let mut r = ByteReader::new(payload);
    let run = read_run_payload(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok(run)
}

/// Encodes an annotated run (result plus its annotation set).
pub fn encode_annotated(run: &RunResult, set: &AnnotationSet) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_run_payload(&mut w, run);
    w.u32(set.structures.len() as u32);
    for (bench, name) in &set.structures {
        w.str(bench.name());
        w.str(name);
    }
    let mut pinned: Vec<u64> = set.pinned.iter().map(|p| p.0).collect();
    pinned.sort_unstable();
    w.u32(pinned.len() as u32);
    for p in pinned {
        w.u64(p);
    }
    encode_framed(KIND_ANNOTATED, WIRE_VERSION, w.bytes())
}

/// Decodes an annotated-run store entry.
pub fn decode_annotated(bytes: &[u8]) -> Result<(RunResult, AnnotationSet), CodecError> {
    let payload = decode_framed(bytes, KIND_ANNOTATED, WIRE_VERSION)?;
    let mut r = ByteReader::new(payload);
    let run = read_run_payload(&mut r)?;
    let set = read_annotations(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok((run, set))
}

fn read_annotations(r: &mut ByteReader) -> Result<AnnotationSet, CodecError> {
    let n_structs = r.seq_len(8)?;
    let mut structures = Vec::with_capacity(n_structs);
    for _ in 0..n_structs {
        let bench = Benchmark::from_name(&r.str()?)
            .ok_or(CodecError::Malformed("unknown benchmark name"))?;
        structures.push((bench, r.str()?));
    }
    let n_pinned = r.seq_len(8)?;
    let pinned: HashSet<PageId> = (0..n_pinned)
        .map(|_| r.u64().map(PageId))
        .collect::<Result<_, _>>()?;
    Ok(AnnotationSet { structures, pinned })
}

/// The scalar fields of a stored run that a summary shows: everything
/// a warm answer needs, none of the per-page table.
#[derive(Clone, Debug)]
pub struct RunHead {
    /// Workload name.
    pub workload: String,
    /// Policy/scheme label.
    pub policy: String,
    /// Aggregate IPC.
    pub ipc: f64,
    /// System soft error rate in FIT.
    pub ser_fit: f64,
    /// SER of the same run with every page in DDR.
    pub ser_ddr_only_fit: f64,
    /// Makespan in cycles.
    pub cycles: u64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Main-memory accesses per kilo-instruction.
    pub mpki: f64,
    /// Demand accesses served by HBM.
    pub hbm_accesses: u64,
    /// Demand accesses served by DDR.
    pub ddr_accesses: u64,
    /// Page migrations performed.
    pub migrations: u64,
}

impl From<&RunResult> for RunHead {
    fn from(run: &RunResult) -> Self {
        RunHead {
            workload: run.workload.clone(),
            policy: run.policy.clone(),
            ipc: run.ipc,
            ser_fit: run.ser_fit,
            ser_ddr_only_fit: run.ser_ddr_only_fit,
            cycles: run.cycles,
            instructions: run.instructions,
            mpki: run.mpki,
            hbm_accesses: run.hbm_accesses,
            ddr_accesses: run.ddr_accesses,
            migrations: run.migrations,
        }
    }
}

/// Bytes of the checksum that closes a frame.
const FRAME_CHECKSUM: u64 = 8;

/// Size of the one buffer [`read_head`] streams an entry through.
pub const HEAD_BUF_BYTES: usize = 64 * 1024;

/// Why [`read_head`] returned no head.
#[derive(Debug)]
pub enum HeadError {
    /// The source failed to read: the entry may be fine, so the store
    /// counts a plain miss.
    Io(io::Error),
    /// The bytes are not a valid entry of the asked kind, exactly when
    /// the full decode would fail.
    Codec(CodecError),
}

impl From<CodecError> for HeadError {
    fn from(e: CodecError) -> Self {
        HeadError::Codec(e)
    }
}

/// A forward-only reader over one framed entry: a fixed buffer, the
/// count of payload bytes not yet consumed (the bound every length
/// check uses, as [`ByteReader::remaining`] does for a full decode) and
/// the running FNV-1a state over the payload consumed so far.
struct Stream<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    left: u64,
    hash: u64,
}

impl<R: Read> Stream<R> {
    /// Makes at least one unread byte available; the source ending
    /// early is a truncated entry.
    fn fill(&mut self) -> Result<(), HeadError> {
        while self.pos == self.end {
            match self.src.read(&mut self.buf) {
                Ok(0) => return Err(CodecError::Truncated.into()),
                Ok(n) => (self.pos, self.end) = (0, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(HeadError::Io(e)),
            }
        }
        Ok(())
    }

    /// Consumes `n` bytes, passing them to `sink` piece by piece; payload
    /// bytes are bounded by [`Stream::left`] and fed to the checksum.
    fn consume(
        &mut self,
        n: u64,
        payload: bool,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), HeadError> {
        if payload {
            if n > self.left {
                return Err(CodecError::Truncated.into());
            }
            self.left -= n;
        }
        let mut todo = n;
        while todo > 0 {
            self.fill()?;
            let take = (self.end - self.pos).min(usize::try_from(todo).unwrap_or(usize::MAX));
            let piece = &self.buf[self.pos..self.pos + take];
            if payload {
                self.hash = fnv1a64_seeded(self.hash, piece);
            }
            sink(piece);
            self.pos += take;
            todo -= take as u64;
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self, payload: bool) -> Result<[u8; N], HeadError> {
        let mut out = [0u8; N];
        let mut at = 0;
        self.consume(N as u64, payload, |piece| {
            out[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        })?;
        Ok(out)
    }

    fn skip(&mut self, n: u64) -> Result<(), HeadError> {
        self.consume(n, true, |_| {})
    }

    fn u32(&mut self) -> Result<u32, HeadError> {
        Ok(u32::from_le_bytes(self.array(true)?))
    }

    fn u64(&mut self) -> Result<u64, HeadError> {
        Ok(u64::from_le_bytes(self.array(true)?))
    }

    fn f64(&mut self) -> Result<f64, HeadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// [`ByteReader::str`] over the stream.
    fn str(&mut self) -> Result<String, HeadError> {
        let len = self.u32()?;
        let mut bytes = Vec::new();
        self.consume(u64::from(len), true, |piece| bytes.extend_from_slice(piece))?;
        String::from_utf8(bytes).map_err(|_| CodecError::Malformed("non-UTF-8 string").into())
    }

    /// Skips a sequence of a `u32` count and `elem_bytes`-byte elements,
    /// bounded by the payload as [`ByteReader::seq_len`] bounds it.
    fn skip_seq(&mut self, elem_bytes: u64) -> Result<(), HeadError> {
        let n = self.u32()?;
        self.skip(u64::from(n) * elem_bytes)
    }
}

/// Reads the [`RunHead`] of one framed entry of `kind` ([`KIND_RUN`] or
/// [`KIND_ANNOTATED`]) that is `len` bytes long, streaming it from
/// `src` through one [`HEAD_BUF_BYTES`] buffer.
///
/// Checks the frame header against `len`, parses the head scalars,
/// feeds the per-core IPCs and the per-page table to the checksum
/// without keeping them, parses and validates the tail (snapshot, and
/// the annotation set for `KIND_ANNOTATED`), then compares the
/// checksum. Returns a head exactly when the full decode of the same
/// bytes succeeds, and then it is bit-equal to the decoded run's
/// fields; [`HeadError::Io`] only when `src` itself fails.
pub fn read_head<R: Read>(src: R, len: u64, kind: u8) -> Result<RunHead, HeadError> {
    let cap = usize::try_from(len).map_or(HEAD_BUF_BYTES, |n| n.clamp(1, HEAD_BUF_BYTES));
    let mut s = Stream {
        src,
        buf: vec![0; cap],
        pos: 0,
        end: 0,
        left: 0,
        hash: fnv1a64(&[]),
    };
    let header: [u8; FRAME_HEADER_BYTES] = s.array(false)?;
    let payload_len = read_frame_header(&mut ByteReader::new(&header), kind, WIRE_VERSION)?;
    let body = len.saturating_sub(FRAME_HEADER_BYTES as u64);
    if payload_len > body || body - payload_len < FRAME_CHECKSUM {
        return Err(CodecError::Truncated.into());
    }
    if body - payload_len > FRAME_CHECKSUM {
        return Err(CodecError::Malformed("trailing bytes after checksum").into());
    }
    s.left = payload_len;

    let workload = s.str()?;
    let policy = s.str()?;
    let ipc = s.f64()?;
    s.skip_seq(8)?; // per-core IPCs
    let head = RunHead {
        workload,
        policy,
        ipc,
        ser_fit: s.f64()?,
        ser_ddr_only_fit: s.f64()?,
        cycles: s.u64()?,
        instructions: s.u64()?,
        mpki: s.f64()?,
        hbm_accesses: s.u64()?,
        ddr_accesses: s.u64()?,
        migrations: s.u64()?,
    };
    s.skip(16)?; // mean read latency (HBM, DDR)
    s.skip(8)?; // table: total cycles
    s.skip_seq(48)?; // table: pages

    let mut tail = Vec::with_capacity(usize::try_from(s.left).unwrap_or(0));
    s.consume(s.left, true, |piece| tail.extend_from_slice(piece))?;
    let mut r = ByteReader::new(&tail);
    read_snapshot(&mut r)?;
    if kind == KIND_ANNOTATED {
        read_annotations(&mut r)?;
    }
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing payload bytes").into());
    }
    let checksum = u64::from_le_bytes(s.array(false)?);
    if checksum != s.hash {
        return Err(CodecError::BadChecksum.into());
    }
    Ok(head)
}

/// [`read_head`] over an in-memory entry (a WAL value).
pub fn decode_head(bytes: &[u8], kind: u8) -> Result<RunHead, CodecError> {
    read_head(bytes, bytes.len() as u64, kind).map_err(|e| match e {
        HeadError::Codec(e) => e,
        HeadError::Io(e) => unreachable!("reading a byte slice cannot fail: {e}"),
    })
}

/// Test-only fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small but fully-populated result exercising every field.
    pub(crate) fn sample_run() -> RunResult {
        let mut telemetry = Snapshot::default();
        telemetry.insert("system", "instructions", Stat::Counter(42_000));
        telemetry.insert("system", "ipc", Stat::Gauge(1.25));
        telemetry.insert("dram.hbm", "row_hit_ratio", Stat::Ratio { num: 3, den: 7 });
        let mut h = BinHistogram::new(0.0, 16.0, 4);
        h.observe(1.0);
        h.observe(15.0);
        telemetry.insert("core.c00", "outstanding_misses", Stat::Histogram(h));
        RunResult {
            workload: "lbm".into(),
            policy: "perf-focused".into(),
            ipc: 1.25,
            per_core_ipc: vec![1.0, 1.5, f64::MIN_POSITIVE],
            ser_fit: 287.5,
            ser_ddr_only_fit: 1.0,
            cycles: 33_600,
            instructions: 42_000,
            mpki: 12.5,
            hbm_accesses: 400,
            ddr_accesses: 125,
            migrations: 3,
            mean_read_latency: (81.5, 210.25),
            table: StatsTable::from_stats(
                vec![
                    PageStats {
                        page: PageId(7),
                        reads: 10,
                        writes: 2,
                        ace_hbm: 100,
                        ace_ddr: 50,
                        avf: 0.25,
                    },
                    PageStats {
                        page: PageId(9),
                        reads: 0,
                        writes: 0,
                        ace_hbm: 0,
                        ace_ddr: 0,
                        avf: 0.0,
                    },
                ],
                33_600,
            ),
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample_run;
    use super::*;

    fn assert_runs_equal(a: &RunResult, b: &RunResult) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
        assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
        for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.ser_fit.to_bits(), b.ser_fit.to_bits());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.table.pages(), b.table.pages());
        assert_eq!(a.table.total_cycles(), b.table.total_cycles());
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn run_round_trips_bit_exactly() {
        let run = sample_run();
        let bytes = encode_run(&run);
        let back = decode_run(&bytes).unwrap();
        assert_runs_equal(&run, &back);
        assert_eq!(run.telemetry.to_json(), back.telemetry.to_json());
    }

    #[test]
    fn annotated_round_trips() {
        let run = sample_run();
        let set = AnnotationSet {
            structures: vec![
                (Benchmark::Lbm, "lattice_a".into()),
                (Benchmark::Mcf, "nodes".into()),
            ],
            pinned: [PageId(1), PageId(99)].into_iter().collect(),
        };
        let bytes = encode_annotated(&run, &set);
        let (back, back_set) = decode_annotated(&bytes).unwrap();
        assert_runs_equal(&run, &back);
        assert_eq!(back_set.structures, set.structures);
        assert_eq!(back_set.pinned, set.pinned);
    }

    #[test]
    fn kind_confusion_is_a_clean_error() {
        let run = sample_run();
        let bytes = encode_run(&run);
        assert!(matches!(
            decode_annotated(&bytes),
            Err(CodecError::WrongKind { .. })
        ));
    }
}
