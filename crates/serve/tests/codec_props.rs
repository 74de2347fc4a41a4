//! Property tests for the store wire format: randomized run results must
//! round-trip bit-exactly, and *any* single-byte corruption, truncation
//! or version skew must decode to a clean error — the store treats those
//! as cache misses, so a panic or a silently-wrong result here would
//! poison every downstream experiment.

use ramp_avf::{PageStats, StatsTable};
use ramp_core::annotate::AnnotationSet;
use ramp_core::system::RunResult;
use std::io::Read;

use ramp_serve::wire::{
    decode_annotated, decode_head, decode_run, encode_annotated, encode_run, read_head, HeadError,
    RunHead, HEAD_BUF_BYTES, KIND_ANNOTATED, KIND_RUN, WIRE_VERSION,
};
use ramp_sim::check::{check, check_n, Gen};
use ramp_sim::codec::{decode_framed, encode_framed, CodecError};
use ramp_sim::telemetry::{BinHistogram, Snapshot, Stat};
use ramp_sim::PageId;
use ramp_trace::{Benchmark, Workload};

fn gen_string(g: &mut Gen) -> String {
    let pool = [
        "lbm",
        "mcf",
        "frac-hottest-0.50",
        "perf-fc",
        "",
        "caf\u{e9}/\"x\"",
    ];
    (*g.pick(&pool)).to_string()
}

fn gen_stat(g: &mut Gen) -> Stat {
    match g.u64_below(4) {
        0 => Stat::Counter(g.u64()),
        1 => Stat::Gauge(g.f64_in(-1e12, 1e12)),
        2 => {
            let bins = g.usize_in(1, 9);
            let lo = g.f64_in(-100.0, 100.0);
            let hi = lo + g.f64_in(0.5, 1000.0);
            let mut h = BinHistogram::new(lo, hi, bins);
            for _ in 0..g.usize_in(0, 20) {
                h.observe(g.f64_in(lo - 10.0, hi + 10.0));
            }
            Stat::Histogram(h)
        }
        _ => Stat::Ratio {
            num: g.u64_below(1 << 40),
            den: g.u64_below(1 << 40),
        },
    }
}

fn gen_snapshot(g: &mut Gen) -> Snapshot {
    let mut snap = Snapshot::default();
    for s in 0..g.usize_in(0, 4) {
        for n in 0..g.usize_in(1, 5) {
            snap.insert(&format!("scope{s}"), &format!("stat{n}"), gen_stat(g));
        }
    }
    snap
}

fn gen_run(g: &mut Gen) -> RunResult {
    let pages = g.vec(0, 12, |g| PageStats {
        page: PageId(g.u64_below(1 << 48)),
        reads: g.u64_below(1 << 32),
        writes: g.u64_below(1 << 32),
        ace_hbm: g.u64_below(1 << 40),
        ace_ddr: g.u64_below(1 << 40),
        avf: g.f64_in(0.0, 1.0),
    });
    RunResult {
        workload: gen_string(g),
        policy: gen_string(g),
        ipc: g.f64_in(0.0, 16.0),
        per_core_ipc: g.vec(0, 16, |g| g.f64_in(0.0, 4.0)),
        ser_fit: g.f64_in(0.0, 1e6),
        ser_ddr_only_fit: g.f64_in(1e-9, 1e4),
        cycles: g.u64(),
        instructions: g.u64(),
        mpki: g.f64_in(0.0, 500.0),
        hbm_accesses: g.u64_below(1 << 48),
        ddr_accesses: g.u64_below(1 << 48),
        migrations: g.u64_below(1 << 32),
        mean_read_latency: (g.f64_in(0.0, 1e4), g.f64_in(0.0, 1e4)),
        table: StatsTable::from_stats(pages, g.u64_below(1 << 48)),
        telemetry: gen_snapshot(g),
    }
}

fn assert_bit_equal(a: &RunResult, b: &RunResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
    assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
    for (x, y) in a.per_core_ipc.iter().zip(&b.per_core_ipc) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.ser_fit.to_bits(), b.ser_fit.to_bits());
    assert_eq!(a.ser_ddr_only_fit.to_bits(), b.ser_ddr_only_fit.to_bits());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.mpki.to_bits(), b.mpki.to_bits());
    assert_eq!(a.hbm_accesses, b.hbm_accesses);
    assert_eq!(a.ddr_accesses, b.ddr_accesses);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(
        a.mean_read_latency.0.to_bits(),
        b.mean_read_latency.0.to_bits()
    );
    assert_eq!(
        a.mean_read_latency.1.to_bits(),
        b.mean_read_latency.1.to_bits()
    );
    assert_eq!(a.table.pages(), b.table.pages());
    assert_eq!(a.table.total_cycles(), b.table.total_cycles());
    assert_eq!(a.telemetry, b.telemetry);
}

#[test]
fn random_runs_round_trip_bit_exactly() {
    check("wire: run round trip", |g| {
        let run = gen_run(g);
        let bytes = ramp_serve::wire::encode_run(&run);
        let back = ramp_serve::wire::decode_run(&bytes).expect("round trip decodes");
        assert_bit_equal(&run, &back);
        // The deterministic JSON document must also be unchanged.
        assert_eq!(run.telemetry.to_json(), back.telemetry.to_json());
    });
}

fn gen_set(g: &mut Gen) -> AnnotationSet {
    let benches = Benchmark::ALL;
    AnnotationSet {
        structures: g.vec(0, 5, |g| {
            (*g.pick(&benches), format!("structure{}", g.u64_below(10)))
        }),
        pinned: g
            .vec(0, 20, |g| PageId(g.u64_below(1 << 30)))
            .into_iter()
            .collect(),
    }
}

#[test]
fn random_annotated_runs_round_trip() {
    check("wire: annotated round trip", |g| {
        let run = gen_run(g);
        let set = gen_set(g);
        let bytes = ramp_serve::wire::encode_annotated(&run, &set);
        let (back, back_set) = ramp_serve::wire::decode_annotated(&bytes).unwrap();
        assert_bit_equal(&run, &back);
        assert_eq!(back_set.structures, set.structures);
        assert_eq!(back_set.pinned, set.pinned);
    });
}

#[test]
fn any_single_byte_corruption_is_a_clean_error() {
    check("wire: corruption detected", |g| {
        let run = gen_run(g);
        let good = ramp_serve::wire::encode_run(&run);
        // Flip one random bit somewhere in the frame.
        let mut bad = good.clone();
        let at = g.usize_in(0, bad.len());
        bad[at] ^= 1 << g.u64_below(8);
        match ramp_serve::wire::decode_run(&bad) {
            Err(_) => {}
            // Only a bit-exact reproduction may decode (never happens
            // with a real flip, but keeps the property honest).
            Ok(back) => assert_bit_equal(&run, &back),
        }
    });
}

#[test]
fn any_truncation_is_a_clean_error() {
    check("wire: truncation detected", |g| {
        let run = gen_run(g);
        let good = ramp_serve::wire::encode_run(&run);
        let cut = g.usize_in(0, good.len()); // strictly shorter
        assert!(
            ramp_serve::wire::decode_run(&good[..cut]).is_err(),
            "decode of {cut}/{} bytes must fail",
            good.len()
        );
    });
}

#[test]
fn version_and_kind_skew_are_clean_misses() {
    let run = gen_run(&mut test_gen());
    let good = ramp_serve::wire::encode_run(&run);
    let mut skewed = good.clone();
    skewed[8] ^= 0x01; // first byte of the little-endian version field
    assert!(matches!(
        ramp_serve::wire::decode_run(&skewed),
        Err(CodecError::WrongVersion { .. })
    ));
    assert!(matches!(
        ramp_serve::wire::decode_annotated(&good),
        Err(CodecError::WrongKind { .. })
    ));
}

/// An in-memory source that hands out at most `max` bytes per `read`,
/// so the streamed head reader refills its buffer at arbitrary offsets.
struct Chunky<'a> {
    bytes: &'a [u8],
    max: usize,
}

impl Read for Chunky<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.max).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn streamed_head(bytes: &[u8], kind: u8, max: usize) -> Result<RunHead, CodecError> {
    match read_head(Chunky { bytes, max }, bytes.len() as u64, kind) {
        Ok(head) => Ok(head),
        Err(HeadError::Codec(e)) => Err(e),
        Err(HeadError::Io(e)) => panic!("an in-memory source cannot fail: {e}"),
    }
}

fn assert_heads_bit_equal(a: &RunHead, b: &RunHead) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
    assert_eq!(a.ser_fit.to_bits(), b.ser_fit.to_bits());
    assert_eq!(a.ser_ddr_only_fit.to_bits(), b.ser_ddr_only_fit.to_bits());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.mpki.to_bits(), b.mpki.to_bits());
    assert_eq!(a.hbm_accesses, b.hbm_accesses);
    assert_eq!(a.ddr_accesses, b.ddr_accesses);
    assert_eq!(a.migrations, b.migrations);
}

/// Both head readers — over the slice, and streamed `chunk` bytes per
/// read — must fail exactly when the full decode of `bytes` as `kind`
/// fails, and otherwise return the decoded run's head bit for bit.
fn assert_heads_agree(bytes: &[u8], kind: u8, chunk: usize) {
    let full = if kind == KIND_ANNOTATED {
        decode_annotated(bytes).map(|(run, _)| RunHead::from(&run))
    } else {
        decode_run(bytes).map(|run| RunHead::from(&run))
    };
    let heads = [decode_head(bytes, kind), streamed_head(bytes, kind, chunk)];
    for (reader, got) in ["slice", "streamed"].iter().zip(&heads) {
        match (&full, got) {
            (Ok(want), Ok(got)) => assert_heads_bit_equal(want, got),
            (Err(_), Err(_)) => {}
            (want, got) => panic!(
                "{reader} head reader disagrees with the full decode of {} bytes (kind {kind}, \
                 chunk {chunk}): full {:?}, head {:?}",
                bytes.len(),
                want.as_ref().err(),
                got.as_ref().err()
            ),
        }
    }
}

/// A random run entry and its kind: plain or annotated.
fn gen_entry(g: &mut Gen, run: &RunResult) -> (Vec<u8>, u8) {
    if g.bool() {
        (encode_run(run), KIND_RUN)
    } else {
        (encode_annotated(run, &gen_set(g)), KIND_ANNOTATED)
    }
}

/// Every damage the equivalence properties apply to `good`, a `kind`
/// entry: each single-byte corruption, each truncation, appended bytes
/// and the version field skewed. Each payload byte is also corrupted
/// under a recomputed checksum, so the parsers, not the checksum, must
/// reject those.
fn damaged_copies(g: &mut Gen, good: &[u8], kind: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for at in 0..good.len() {
        let mut bad = good.to_vec();
        bad[at] ^= g.u8_in_inclusive(1, 255);
        out.push(bad);
    }
    for cut in 0..good.len() {
        out.push(good[..cut].to_vec());
    }
    for extra in [1, 8, 9] {
        let mut long = good.to_vec();
        long.extend(std::iter::repeat_n(0u8, extra));
        out.push(long);
    }
    let mut skewed = good.to_vec();
    skewed[8] ^= 0x01; // first byte of the little-endian version field
    out.push(skewed);
    let payload = decode_framed(good, kind, WIRE_VERSION).expect("a fresh entry decodes");
    for at in 0..payload.len() {
        let mut bad = payload.to_vec();
        bad[at] ^= g.u8_in_inclusive(1, 255);
        out.push(encode_framed(kind, WIRE_VERSION, &bad));
    }
    out
}

fn other_kind(kind: u8) -> u8 {
    if kind == KIND_RUN {
        KIND_ANNOTATED
    } else {
        KIND_RUN
    }
}

#[test]
fn head_readers_accept_exactly_what_the_full_decode_accepts() {
    check_n("wire: head readers match the full decode", 48, |g| {
        let run = gen_run(g);
        let (good, kind) = gen_entry(g, &run);
        let chunk = g.usize_in(1, 40);
        assert_heads_agree(&good, kind, chunk);
        let head = decode_head(&good, kind).expect("a fresh entry has a head");
        assert_heads_bit_equal(&head, &RunHead::from(&run));
        for bad in damaged_copies(g, &good, kind) {
            assert_heads_agree(&bad, kind, chunk);
        }
        // Kind skew: each kind read as the other, and each payload
        // framed as the other kind under a valid checksum.
        let other = other_kind(kind);
        assert_heads_agree(&good, other, chunk);
        assert!(decode_head(&good, other).is_err());
        let payload = decode_framed(&good, kind, WIRE_VERSION).unwrap();
        let reframed = encode_framed(other, WIRE_VERSION, payload);
        assert_heads_agree(&reframed, other, chunk);
        assert!(decode_head(&reframed, other).is_err());
    });
}

/// A run whose head and table are larger than the streaming buffer.
fn gen_big_run(g: &mut Gen) -> RunResult {
    let mut run = gen_run(g);
    match g.u64_below(3) {
        0 => run.workload = "w".repeat(g.usize_in(HEAD_BUF_BYTES - 64, 2 * HEAD_BUF_BYTES)),
        1 => run.per_core_ipc = vec![1.5; g.usize_in(HEAD_BUF_BYTES / 8, HEAD_BUF_BYTES / 4)],
        _ => {}
    }
    let pages: Vec<PageStats> = (0..g.usize_in(HEAD_BUF_BYTES / 48, 3 * HEAD_BUF_BYTES / 48))
        .map(|i| PageStats {
            page: PageId(i as u64),
            reads: g.u64_below(1 << 20),
            writes: g.u64_below(1 << 20),
            ace_hbm: g.u64(),
            ace_ddr: g.u64(),
            avf: g.f64_in(0.0, 1.0),
        })
        .collect();
    run.table = StatsTable::from_stats(pages, g.u64());
    run
}

#[test]
fn head_readers_match_across_buffer_boundaries() {
    // Long strings, many cores and page tables straddling the buffer
    // boundary, read through the full buffer (the source fills it) and
    // through short reads. Damage is sampled, densest around each
    // buffer boundary.
    check_n("wire: big heads and tables", 12, |g| {
        let run = gen_big_run(g);
        let (good, kind) = gen_entry(g, &run);
        for chunk in [usize::MAX, g.usize_in(1000, 9000)] {
            assert_heads_agree(&good, kind, chunk);
        }
        let mut spots: Vec<usize> = (0..64).map(|_| g.usize_in(0, good.len())).collect();
        for edge in (HEAD_BUF_BYTES..good.len()).step_by(HEAD_BUF_BYTES) {
            spots.extend(edge.saturating_sub(24)..(edge + 24).min(good.len()));
        }
        spots.extend(good.len().saturating_sub(24)..good.len());
        for at in spots {
            let mut bad = good.clone();
            bad[at] ^= g.u8_in_inclusive(1, 255);
            assert_heads_agree(&bad, kind, usize::MAX);
            assert_heads_agree(&good[..at], kind, usize::MAX);
        }
    });
}

#[test]
fn store_survives_random_garbage_files() {
    // Random bytes dropped into the store directory must read as misses.
    let dir = std::env::temp_dir().join(format!("ramp-codec-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ramp_serve::store::RunStore::open(&dir).unwrap();
    let cfg = ramp_core::config::SystemConfig::smoke_test();
    let key = ramp_serve::store::run_key(
        &cfg,
        ramp_serve::store::RunKind::Profile,
        Workload::all()[0].name(),
        "ddr-only",
    );
    check("store: garbage files are misses", |g| {
        let garbage: Vec<u8> = g.vec(0, 200, |g| g.u64() as u8);
        std::fs::write(dir.join(format!("{key}.run")), &garbage).unwrap();
        assert!(store.load_run(&key).is_none());
    });
}

#[test]
fn corrupted_persisted_entries_quarantine_and_never_serve_garbage() {
    // A persisted entry damaged on disk — one flipped bit or a random
    // truncation — must read back as a clean miss AND be quarantined
    // (renamed `*.quarantine` beside a `*.reason` autopsy note). It must
    // never panic and never serve a payload that differs from what was
    // written.
    let dir = std::env::temp_dir().join(format!("ramp-codec-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ramp_serve::store::RunStore::open(&dir).unwrap();
    let cfg = ramp_core::config::SystemConfig::smoke_test();
    let key = ramp_serve::store::run_key(
        &cfg,
        ramp_serve::store::RunKind::Static,
        Workload::all()[0].name(),
        "perf-focused",
    );
    let path = dir.join(format!("{key}.run"));
    let jail = dir.join(format!("{key}.run.quarantine"));
    let reason = dir.join(format!("{key}.run.reason"));
    check("store: damaged entries quarantine", |g| {
        let _ = std::fs::remove_file(&jail);
        let _ = std::fs::remove_file(&reason);
        let run = gen_run(g);
        assert!(store.store_run(&key, &run), "persist a fresh entry");
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        if g.u64_below(2) == 0 {
            let at = g.usize_in(0, bad.len());
            bad[at] ^= 1 << g.u64_below(8);
        } else {
            bad.truncate(g.usize_in(0, bad.len()));
        }
        std::fs::write(&path, &bad).unwrap();
        match store.load_run(&key) {
            None => {
                assert!(!path.exists(), "damaged file must leave the serving path");
                assert!(jail.exists(), "damaged file must be jailed");
                let note = std::fs::read_to_string(&reason).unwrap();
                assert!(note.contains(&format!("{key}.run")), "{note}");
                assert_eq!(
                    std::fs::read(&jail).unwrap(),
                    bad,
                    "jail preserves the bytes"
                );
            }
            // Only a bit-exact reproduction may ever serve.
            Some(back) => assert_bit_equal(&run, &back),
        }
    });
    let quarantined = store
        .metrics()
        .quarantined
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(quarantined > 0, "at least one iteration must quarantine");
}

fn test_gen() -> Gen {
    Gen::from_seed(0x52414d50)
}
