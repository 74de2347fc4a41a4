//! `figures`: the release `all_experiments` binary over a pinned
//! workload subset and instruction budget at two executor threads. Each
//! iteration runs it cold into a fresh store, then warm against that
//! store, and checks that the two stdouts are byte-identical.
//!
//! `all_experiments` pins its own seed, so this workload takes no seed
//! input: `--seed` is accepted and ignored.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ramp_faultsim::{run_monte_carlo, RasConfig};
use ramp_serve::store::RunStore;
use ramp_serve::wire;
use ramp_sim::codec::fnv1a64;
use ramp_sim::SimRng;

use crate::spans::Tracer;
use crate::stats::median;
use crate::{proc, Failure, Opts, Report};

/// Workloads the suite runs (`RAMP_WORKLOADS`).
const WORKLOADS: &str = "astar,mix1";
/// Per-core instruction budget (`RAMP_INSTS`).
const INSTS: u64 = 240_000;
/// Executor threads (`RAMP_THREADS`).
const THREADS: usize = 2;
/// Set-up: warm-up invocations at the floor budget before the first
/// iteration; one more follows each iteration, and `setup_s` is the
/// median of all of them.
const SETUP_REPEATS: usize = 3;
const SETUP_INSTS: u64 = 10_000;
/// FaultSim Monte Carlo trials timed in the traced run.
const MC_TRIALS: u64 = 1_000_000;
/// Prefix of the section headers of the stats dump `RAMP_STATS=table`
/// appends to stdout.
const STATS_HEADER: &str = "=== ";

/// One `all_experiments` invocation.
struct SuiteRun {
    wall_s: f64,
    /// Stdout lines with their arrival time (seconds since spawn).
    out: Vec<(f64, String)>,
    /// Stderr lines with their arrival time.
    err: Vec<(f64, String)>,
}

impl SuiteRun {
    /// Stdout up to the volatile stats dump, if any.
    fn tables(&self) -> String {
        let mut s = String::new();
        for (_, line) in self
            .out
            .iter()
            .take_while(|(_, l)| !l.starts_with(STATS_HEADER))
        {
            s.push_str(line);
            s.push('\n');
        }
        s
    }

    /// The value `name = v` printed under `[scope]` in the stats dump.
    fn stat(&self, scope: &str, name: &str) -> Option<f64> {
        let mut lines = self.out.iter().map(|(_, l)| l.trim());
        lines.find(|l| *l == format!("[{scope}]"))?;
        lines.take_while(|l| !l.starts_with('[')).find_map(|l| {
            l.strip_prefix(name)?
                .trim()
                .strip_prefix('=')?
                .trim()
                .parse()
                .ok()
        })
    }

    /// Arrival time of the first stdout line starting with `prefix`.
    fn out_at(&self, prefix: &str) -> Option<f64> {
        self.out
            .iter()
            .find(|(_, l)| l.starts_with(prefix))
            .map(|(t, _)| *t)
    }
}

fn read_lines(
    stream: impl std::io::Read + Send + 'static,
    start: Instant,
) -> std::thread::JoinHandle<Vec<(f64, String)>> {
    std::thread::spawn(move || {
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .map(|l| (start.elapsed().as_secs_f64(), l))
            .collect()
    })
}

fn run_suite(opts: &Opts, store: &Path, insts: u64, stats: bool) -> Result<SuiteRun, Failure> {
    let mut cmd = Command::new(opts.bin_dir.join("all_experiments"));
    cmd.env("RAMP_STORE_DIR", store)
        .env("RAMP_THREADS", THREADS.to_string())
        .env("RAMP_INSTS", insts.to_string())
        .env("RAMP_WORKLOADS", WORKLOADS)
        .env_remove("RAMP_STORE")
        .env_remove("RAMP_STORE_MODE")
        .env_remove("RAMP_CHAOS")
        .env_remove("RAMP_CKPT_EPOCHS")
        .env_remove("RAMP_STATS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if stats {
        cmd.env("RAMP_STATS", "table");
    }
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let out = read_lines(child.stdout.take().expect("piped stdout"), start);
    let err = read_lines(child.stderr.take().expect("piped stderr"), start);
    let status = child.wait()?;
    let wall_s = start.elapsed().as_secs_f64();
    let out = out.join().expect("stdout reader panicked");
    let err = err.join().expect("stderr reader panicked");
    if !status.success() {
        let tail: Vec<&str> = err.iter().rev().take(5).map(|(_, l)| l.as_str()).collect();
        return Err(Failure::Mismatch(format!(
            "all_experiments exited with {status}: {tail:?}"
        )));
    }
    Ok(SuiteRun { wall_s, out, err })
}

fn fresh_dir(dir: &Path) -> Result<(), Failure> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    std::fs::create_dir_all(dir)?;
    Ok(())
}

/// Store keys of the runs persisted in a file-mode store directory.
fn stored_keys(store: &Path) -> Result<Vec<(String, bool)>, Failure> {
    let mut keys = Vec::new();
    for entry in std::fs::read_dir(store)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(key) = name.strip_suffix(".run") {
            keys.push((key.to_string(), false));
        } else if let Some(key) = name.strip_suffix(".ann") {
            keys.push((key.to_string(), true));
        }
    }
    keys.sort();
    Ok(keys)
}

/// Digest of every persisted run's wire encoding, in key order.
fn store_digests(store: &Path) -> Result<Vec<(String, u64)>, Failure> {
    let rs = RunStore::open(store)?;
    let mut digests = Vec::new();
    for (key, annotated) in stored_keys(store)? {
        let bytes = if annotated {
            rs.load_annotated(&key)
                .map(|(run, set)| wire::encode_annotated(&run, &set))
        } else {
            rs.load_run(&key).map(|run| wire::encode_run(&run))
        }
        .ok_or_else(|| Failure::Mismatch(format!("stored run {key} does not decode")))?;
        digests.push((key, fnv1a64(&bytes)));
    }
    Ok(digests)
}

/// One cold-then-warm iteration.
struct Iteration {
    cold: SuiteRun,
    warm: SuiteRun,
}

fn iteration(
    opts: &Opts,
    store: &Path,
    stats: bool,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Iteration, Failure> {
    fresh_dir(store)?;
    let root = tracer.begin("figures.iteration", req);
    let cold = tracer.span("bench.all_experiments.cold", req, || {
        run_suite(opts, store, INSTS, stats)
    })?;
    let warm = tracer.span("bench.all_experiments.warm", req, || {
        run_suite(opts, store, INSTS, stats)
    })?;
    tracer.end(root);
    if cold.tables() != warm.tables() {
        return Err(Failure::Mismatch(
            "warm all_experiments stdout differs from cold stdout".into(),
        ));
    }
    Ok(Iteration { cold, warm })
}

/// Cold stdout and stored-run digests of the first iteration.
type Expected = (String, Vec<(String, u64)>);

/// Checks an iteration's outputs against the first iteration's.
fn check(it: &Iteration, store: &Path, expect: &mut Option<Expected>) -> Result<(), Failure> {
    let tables = it.cold.tables();
    let digests = store_digests(store)?;
    match expect {
        None => {
            println!("figures: stdout digest {:016x}", fnv1a64(tables.as_bytes()));
            for (key, d) in &digests {
                println!("figures: digest {key} {d:016x}");
            }
            *expect = Some((tables, digests));
            Ok(())
        }
        Some((t, d)) if *t == tables && *d == digests => Ok(()),
        Some(_) => Err(Failure::Mismatch(
            "stdout or stored-run digests changed between iterations".into(),
        )),
    }
}

/// Measures `figures`.
pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Result<(), Failure> {
    println!(
        "figures: all_experiments pins its own seed; --seed {} is not an input",
        opts.seed
    );
    let setup_store = opts.work_dir.join("setup-store");
    let set_up = || -> Result<f64, Failure> {
        fresh_dir(&setup_store)?;
        Ok(run_suite(opts, &setup_store, SETUP_INSTS, false)?.wall_s)
    };
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setup.push(set_up()?);
    }

    let store = opts.work_dir.join("store");
    let mut expect = None;
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut off = Tracer::new(false, Instant::now());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || plain.is_empty() {
        let it = iteration(opts, &store, false, &mut off, 0)?;
        check(&it, &store, &mut expect)?;
        plain.push(it);
        if !opts.trace {
            // Set-up is timed between iterations too, so that `setup_s`
            // samples the host's speed over the whole run as `op_ms` does.
            setup.push(set_up()?);
        } else {
            let it = iteration(opts, &store, true, tracer, traced.len() as u64 + 1)?;
            check(&it, &store, &mut expect)?;
            traced.push(it);
        }
    }
    report.attempted = 2 * (plain.len() + traced.len()) as u64;

    if !opts.trace {
        // One operation is one iteration: the cold run, then the warm one.
        let cold: Vec<f64> = plain.iter().map(|i| i.cold.wall_s).collect();
        let warm: Vec<f64> = plain.iter().map(|i| i.warm.wall_s).collect();
        let walls: Vec<f64> = cold.iter().zip(&warm).map(|(c, w)| (c + w) * 1e3).collect();
        for (name, v) in [("setup", &setup), ("cold", &cold), ("warm", &warm)] {
            crate::stats::print_summary("figures", name, "s", v);
        }
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_ms", median(&walls), "ms");
        let busy: f64 = walls.iter().sum::<f64>() / 1e3;
        report.metric("ops_per_s", plain.len() as f64 / busy, "1/s");
        report.metric("peak_rss_mb", proc::peak_rss_children_mb(), "MiB");
        report.info("suite_cold_s", median(&cold), "s");
        report.info("suite_warm_s", median(&warm), "s");
        return Ok(());
    }

    let pair = |v: &[Iteration]| {
        median(
            &v.iter()
                .map(|i| i.cold.wall_s + i.warm.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "tracing.overhead_ms",
        (pair(&traced) - pair(&plain)) * 1e3,
        "ms",
    );
    harness_metrics(&traced, report)?;
    let last = traced.last().expect("at least one traced iteration");
    for (name, scope, stat, run) in [
        ("serve.store.hits", "store", "hits", &last.warm),
        ("serve.store.misses", "store", "misses", &last.warm),
        ("serve.store.writes", "store", "writes", &last.cold),
    ] {
        let v = run
            .stat(scope, stat)
            .ok_or_else(|| Failure::Mismatch(format!("no [{scope}] {stat} in the stats dump")))?;
        report.metric(name, v, "count");
    }
    report.metric(
        "serve.store.disk_mb",
        dir_bytes(&store)? as f64 / (1 << 20) as f64,
        "MiB",
    );

    faultsim_metrics(tracer, report);
    store_metrics(opts, &store, tracer, report)
}

/// The `[label] 1.23s` line a `StageTimer` prints when its stage ends:
/// the label and the stage's seconds.
fn stage_timer(line: &str) -> Option<(&str, f64)> {
    let (label, secs) = line.strip_prefix('[')?.split_once("] ")?;
    Some((label, secs.strip_suffix('s')?.parse().ok()?))
}

/// Harness-layer figures from the traced iterations' stage timers and
/// stdout timestamps.
fn harness_metrics(traced: &[Iteration], report: &mut Report) -> Result<(), Failure> {
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut busy = Vec::new();
    let mut fig13 = Vec::new();
    let mut fig13_ratio = Vec::new();
    for it in traced {
        let mut per_kind: BTreeMap<&str, f64> = BTreeMap::new();
        let mut prewarm = None;
        for (label, secs) in it.cold.err.iter().filter_map(|(_, l)| stage_timer(l)) {
            let kind = ["profile", "static", "migration", "annotated"]
                .into_iter()
                .find(|k| label.starts_with(&format!("{k} x")));
            if let Some(kind) = kind {
                *per_kind.entry(kind).or_default() += secs;
            } else if label == "prewarm total" {
                prewarm = Some(secs);
            }
        }
        for (kind, s) in per_kind {
            stages.entry(kind).or_default().push(s);
        }
        if let (Some(wall), Some(secs)) = (prewarm, it.cold.stat("exec", "busy_seconds")) {
            busy.push(secs / (wall * THREADS as f64));
        }
        let warm = fig13_section(&it.warm)?;
        fig13.push(warm);
        fig13_ratio.push(warm / fig13_section(&it.cold)?);
    }
    for (metric, kind) in [
        ("profiles", "profile"),
        ("static", "static"),
        ("migration", "migration"),
        ("annotated", "annotated"),
    ] {
        let v = stages.get(kind).map_or(0.0, |v| median(v));
        report.metric(&format!("bench.prewarm_{metric}_s"), v, "s");
    }
    report.metric("bench.fig13_s", median(&fig13), "s");
    report.metric("exec.busy_ratio", median(&busy), "ratio");
    report.metric("bench.fig13_warm_ratio", median(&fig13_ratio), "ratio");
    let sims: Vec<f64> = traced.iter().map(warm_sims).collect();
    report.metric("bench.warm_sims", median(&sims), "count");
    Ok(())
}

/// Wall time of a run's Figure 13 section, from the arrival times of
/// its header and the next section's.
fn fig13_section(r: &SuiteRun) -> Result<f64, Failure> {
    match (r.out_at("## Figure 13"), r.out_at("## Figure 14")) {
        (Some(a), Some(b)) => Ok(b - a),
        _ => Err(Failure::Mismatch("no Figure 13 section in stdout".into())),
    }
}

/// Simulations the warm phase reports: the harness prints one
/// `  [kind ...] workload` line on stderr per simulated run. Figure 13's
/// sweep runs outside the harness and reports none, so
/// `bench.fig13_warm_ratio` stands in for it.
fn warm_sims(it: &Iteration) -> f64 {
    it.warm
        .err
        .iter()
        .filter(|(_, l)| {
            [
                "  [profile]",
                "  [static ",
                "  [migration ",
                "  [annotated]",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .count() as f64
}

fn dir_bytes(dir: &Path) -> Result<u64, Failure> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn faultsim_metrics(tracer: &mut Tracer, report: &mut Report) {
    let ras = RasConfig::hbm_secded();
    let mut rates = Vec::new();
    for i in 0..3 {
        let mut rng = SimRng::from_seed(2018).child_indexed("perfbench", i);
        let t = Instant::now();
        let out = tracer.span("faultsim.run_monte_carlo", 0, || {
            run_monte_carlo(&ras, MC_TRIALS, &mut rng)
        });
        rates.push(out.trials as f64 / t.elapsed().as_secs_f64());
    }
    report.metric("faultsim.trials_per_s", median(&rates), "1/s");
}

/// Codec and store timings over the runs the last cold phase persisted.
fn store_metrics(
    opts: &Opts,
    store: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), Failure> {
    let source = RunStore::open(store)?;
    let runs: Vec<_> = stored_keys(store)?
        .into_iter()
        .filter(|(_, annotated)| !annotated)
        .filter_map(|(key, _)| source.load_run(&key).map(|r| (key, r)))
        .collect();
    if runs.is_empty() {
        return Err(Failure::Mismatch("the cold phase persisted no runs".into()));
    }

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0usize;
    for (_, run) in &runs {
        let t = Instant::now();
        let enc = tracer.span("wire.encode_run", 0, || wire::encode_run(run));
        encode.push(ms(t));
        let t = Instant::now();
        let back = tracer.span("wire.decode_run", 0, || wire::decode_run(&enc));
        decode.push(ms(t));
        if back.map(|b| wire::encode_run(&b)).as_deref() != Ok(enc.as_slice()) {
            return Err(Failure::Mismatch("wire round trip changed a run".into()));
        }
        bytes += enc.len();
    }
    report.metric("serve.wire.encode_ms", median(&encode), "ms");
    report.metric("serve.wire.decode_ms", median(&decode), "ms");
    report.metric("serve.wire.bytes_per_run", (bytes / runs.len()) as f64, "B");

    for mode in ["files", "wal"] {
        let dir: PathBuf = opts.work_dir.join(format!("store-{mode}"));
        fresh_dir(&dir)?;
        let open = |d: &Path| {
            if mode == "wal" {
                RunStore::open_wal(d)
            } else {
                RunStore::open(d)
            }
        };
        let rs = open(&dir)?;
        let mut puts = Vec::new();
        for (key, run) in &runs {
            let t = Instant::now();
            if !tracer.span("store.store_run", 0, || rs.store_run(key, run)) {
                return Err(Failure::Mismatch(format!("{mode} store refused a write")));
            }
            puts.push(ms(t));
        }
        drop(rs);
        let mut opens = Vec::new();
        let mut rs = None;
        for _ in 0..3 {
            let t = Instant::now();
            rs = Some(tracer.span("store.open", 0, || open(&dir))?);
            opens.push(ms(t));
        }
        let rs = rs.expect("opened at least once");
        let mut gets = Vec::new();
        for (key, run) in &runs {
            let t = Instant::now();
            let got = tracer.span("store.load_run", 0, || rs.load_run(key));
            gets.push(ms(t));
            if got.map(|g| wire::encode_run(&g)) != Some(wire::encode_run(run)) {
                return Err(Failure::Mismatch(format!(
                    "{mode} store returned a different run"
                )));
            }
        }
        report.metric(&format!("serve.store.put_ms.{mode}"), median(&puts), "ms");
        report.metric(&format!("serve.store.get_ms.{mode}"), median(&gets), "ms");
        if mode == "wal" {
            report.metric("serve.store.open_ms.wal", median(&opens), "ms");
        }
    }
    Ok(())
}
