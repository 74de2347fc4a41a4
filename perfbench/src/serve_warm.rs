//! `serve_warm`: three `ramp-served` shards, one worker each, behind one
//! `ramp-router`, every shard's store prefilled during set-up with the
//! 64 points of `examples/sweep_fleet.toml`. A closed loop of two client
//! threads, one keep-alive connection each, sends seeded Zipf-skewed
//! warm requests: `GET /runs/{key}`, `POST /runs` and small
//! `POST /submit-batch`. No request simulates.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ramp_core::SystemConfig;
use ramp_serve::client::{scan_counter, ClientError};
use ramp_serve::{Client, RunSpec, RunStore};
use ramp_sim::codec::fnv1a64;
use ramp_sim::SimRng;

use crate::spans::Tracer;
use crate::stats::{median, percentile, summarize, TAIL_SAMPLES};
use crate::{proc, Failure, Opts, Report};

/// Per-core budget the shards run at (`ramp-served --smoke`).
const INSTS: u64 = 20_000;
const WORKLOADS: [&str; 8] = [
    "mcf", "milc", "omnetpp", "astar", "sphinx", "soplex", "gcc", "lbm",
];
/// `(kind, policy)` of the policy axis of `examples/sweep_fleet.toml`.
const POLICIES: [(&str, &str); 8] = [
    ("profile", ""),
    ("static", "perf-focused"),
    ("static", "rel-focused"),
    ("static", "balanced"),
    ("static", "wr-ratio"),
    ("static", "wr2-ratio"),
    ("static", "frac-hottest-0.50"),
    ("migration", "perf-fc"),
];
const SHARDS: usize = 3;
/// Client threads (each holds one keep-alive connection).
const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 0.99;
/// Every `POST_EVERY`-th request of a client is a `POST /runs` and every
/// `BATCH_EVERY`-th a `POST /submit-batch` of `BATCH` specs (at seeded
/// offsets); the rest are `GET /runs/{key}`. No caller in the
/// repository mixes the three, so the shares are assumptions, chosen so
/// that p50 and p99 each sit inside one latency mode: the `GET`s set
/// the median and the `POST`s the tail, with at least ten samples
/// beyond p99 in a run.
const POST_EVERY: u64 = 50;
const BATCH_EVERY: u64 = 400;
/// `ramp-sweep --remote`, the fleet's own client, sends 32 specs per
/// batch by default. Batches that large, even one in 256 requests, move
/// the `GET` median between the 44, 48 and 52 ms clusters the `GET`
/// latencies form, so the mix sends small ones and the traced run times
/// the 32-spec shape on its own.
const BATCH: usize = 4;
/// Batches of the `ramp-sweep --remote` shape timed in the traced run:
/// the points in order, `SWEEP_BATCH` per request.
const SWEEP_BATCHES: usize = 10;
const SWEEP_BATCH: usize = 32;
/// `GET /health` requests timed direct to a shard in the traced run.
const HEALTH_PROBES: usize = 100;

/// One point of the fleet sweep, with what set-up recorded about it.
#[derive(Clone, Debug)]
struct Point {
    workload: &'static str,
    kind: &'static str,
    policy: &'static str,
    key: String,
    /// Aggregate IPC of the run set-up simulated.
    ipc: f64,
}

fn config() -> SystemConfig {
    SystemConfig {
        insts_per_core: INSTS,
        ..SystemConfig::smoke_test()
    }
}

/// Simulates every point once into the first shard's store and copies
/// the results into the others.
fn prefill(stores: &[PathBuf]) -> Result<Vec<(Point, u64)>, Failure> {
    let cfg = config();
    let opened: Vec<RunStore> = stores
        .iter()
        .map(RunStore::open)
        .collect::<Result<_, _>>()?;
    let mut points = Vec::new();
    for workload in WORKLOADS {
        for (kind, policy) in POLICIES {
            let spec = RunSpec::parse(workload, kind, policy).map_err(Failure::Setup)?;
            let key = spec.key(&cfg);
            let run = spec.execute(&cfg, Some(&opened[0]));
            for store in &opened[1..] {
                if !store.store_run(&key, &run) {
                    return Err(Failure::Setup(format!("prefill of {key} failed")));
                }
            }
            let digest = fnv1a64(&ramp_serve::wire::encode_run(&run));
            points.push((
                Point {
                    workload,
                    kind,
                    policy,
                    key,
                    ipc: run.ipc,
                },
                digest,
            ));
        }
    }
    Ok(points)
}

/// The running fleet: shards first, router last.
struct Fleet {
    /// Holds the stores and port files; removed by [`Fleet::stop`].
    dir: PathBuf,
    children: Vec<Child>,
    shard_addrs: Vec<String>,
    router_addr: String,
}

impl Fleet {
    fn start(opts: &Opts, dir: &Path, stores: &[PathBuf]) -> Result<Fleet, Failure> {
        let mut fleet = Fleet {
            dir: dir.to_path_buf(),
            children: Vec::new(),
            shard_addrs: Vec::new(),
            router_addr: String::new(),
        };
        let spawn = |cmd: &mut Command| {
            cmd.env_remove("RAMP_STORE")
                .env_remove("RAMP_STORE_MODE")
                .env_remove("RAMP_CHAOS")
                .env_remove("RAMP_CKPT_EPOCHS")
                .env("RAMP_INSTS", INSTS.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
        };
        for (i, store) in stores.iter().enumerate() {
            let port = dir.join(format!("shard{i}.port"));
            let child = spawn(
                Command::new(opts.bin_dir.join("ramp-served"))
                    .env("RAMP_STORE_DIR", store)
                    .args(["--smoke", "--addr", "127.0.0.1:0", "--workers", "1"])
                    .arg("--port-file")
                    .arg(&port),
            )?;
            fleet.children.push(child);
            let addr =
                proc::wait_port_file(&port, fleet.children.last_mut().expect("just pushed"))?;
            fleet.shard_addrs.push(addr);
        }
        let port = dir.join("router.port");
        let mut router = Command::new(opts.bin_dir.join("ramp-router"));
        router.args(["--addr", "127.0.0.1:0"]);
        for addr in &fleet.shard_addrs {
            router.args(["--shard", addr]);
        }
        let child = spawn(router.arg("--port-file").arg(&port))?;
        fleet.children.push(child);
        fleet.router_addr =
            proc::wait_port_file(&port, fleet.children.last_mut().expect("just pushed"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let router = Client::new(fleet.router_addr.clone());
        loop {
            match router.health() {
                Ok(r)
                    if r.status == 200 && r.fields.get("live").map(String::as_str) == Some("3") =>
                {
                    break
                }
                _ if Instant::now() > deadline => {
                    return Err(Failure::Setup("router never saw three live shards".into()))
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        Ok(fleet)
    }

    /// Summed peak resident memory of the fleet's processes, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, Failure> {
        self.children.iter().map(|c| proc::vm_hwm_mb(c.id())).sum()
    }

    /// Drains the router, then the shards, reaps every process and
    /// removes the fleet's directory.
    fn stop(mut self) -> Result<(), Failure> {
        let mut addrs = vec![self.router_addr.clone()];
        addrs.extend(self.shard_addrs.iter().cloned());
        let mut children: Vec<Child> = std::mem::take(&mut self.children);
        children.rotate_right(1);
        let mut clean = true;
        for (addr, child) in addrs.iter().zip(children.iter_mut()) {
            let drained = Client::new(addr.clone()).with_retries(0).shutdown().is_ok();
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= drained && status.success();
                        break;
                    }
                    Err(_) => {
                        proc::kill(child);
                        clean = false;
                        break;
                    }
                    Ok(None) if Instant::now() > deadline => {
                        proc::kill(child);
                        clean = false;
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        if clean {
            std::fs::remove_dir_all(&self.dir)?;
            Ok(())
        } else {
            Err(Failure::Setup(
                "a fleet process did not drain cleanly".into(),
            ))
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            proc::kill(child);
        }
    }
}

/// Prefills fresh stores and starts the fleet. Returns the points with
/// their expected answers and each prefilled run's digest.
fn setup(opts: &Opts, round: usize) -> Result<(Fleet, Vec<Point>, Vec<u64>), Failure> {
    let dir = opts.work_dir.join(format!("fleet{round}"));
    let stores: Vec<PathBuf> = (0..SHARDS).map(|i| dir.join(format!("store{i}"))).collect();
    for s in &stores {
        std::fs::create_dir_all(s)?;
    }
    let filled = prefill(&stores)?;
    let fleet = Fleet::start(opts, &dir, &stores)?;
    let (points, digests) = filled.into_iter().unzip();
    Ok((fleet, points, digests))
}

/// One request of the generated sequence: indices into the points.
#[derive(Clone, Debug)]
enum Req {
    Get(usize),
    Post(usize),
    Batch(Vec<usize>),
}

impl Req {
    fn kind(&self) -> &'static str {
        match self {
            Req::Get(_) => "client.get_runs",
            Req::Post(_) => "client.post_runs",
            Req::Batch(_) => "client.submit_batch",
        }
    }
}

/// A seeded request source: key popularity is Zipf over a seeded
/// permutation of the points, so the seed picks which keys are hot.
struct Sequence {
    rng: SimRng,
    post_at: u64,
    batch_at: u64,
    sent: u64,
    rank_to_point: Vec<usize>,
    cdf: Vec<f64>,
}

impl Sequence {
    fn new(seed: u64, client: usize, n: usize) -> Sequence {
        let root = SimRng::from_seed(seed);
        let mut perm_rng = root.child("popularity");
        let mut rank_to_point: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = perm_rng.below(i as u64 + 1) as usize;
            rank_to_point.swap(i, j);
        }
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = root.child_indexed("client", client as u64);
        Sequence {
            post_at: rng.below(POST_EVERY),
            batch_at: rng.below(BATCH_EVERY),
            sent: 0,
            rng,
            rank_to_point,
            cdf,
        }
    }

    /// Popularity rank of the next key (0 = hottest).
    fn rank(&mut self) -> usize {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The next request and the popularity ranks of its keys.
    fn next(&mut self) -> (Req, Vec<usize>) {
        let n = self.sent;
        self.sent += 1;
        let batch = n % BATCH_EVERY == self.batch_at;
        let keys = if batch { BATCH } else { 1 };
        let ranks: Vec<usize> = (0..keys).map(|_| self.rank()).collect();
        let points: Vec<usize> = ranks.iter().map(|&r| self.rank_to_point[r]).collect();
        let req = if batch {
            Req::Batch(points)
        } else if n % POST_EVERY == self.post_at {
            Req::Post(points[0])
        } else {
            Req::Get(points[0])
        };
        (req, ranks)
    }
}

/// What one client thread observed.
#[derive(Default)]
struct Load {
    /// `(kind, latency ms)` of every completed request.
    latencies: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    keys_requested: u64,
    keys_hot: u64,
    mismatch: Option<String>,
}

fn expect_fields(p: &Point, fields: &BTreeMap<String, String>) -> Result<(), String> {
    let get = |f: &str| fields.get(f).map(String::as_str);
    let ipc = get("ipc").and_then(|v| v.parse::<f64>().ok());
    if get("key") != Some(p.key.as_str()) || ipc != Some(p.ipc) {
        return Err(format!(
            "{}/{}/{}: expected key {} ipc {}, got key {:?} ipc {:?}",
            p.workload,
            p.kind,
            p.policy,
            p.key,
            p.ipc,
            get("key"),
            get("ipc")
        ));
    }
    Ok(())
}

fn expect_ok(status: u16, what: &str, key: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{what} for {key} answered {status}, not 200"));
    }
    Ok(())
}

/// Sends one request and checks the answer: every key was prefilled, so
/// anything but a warm 200 carrying the set-up `key`/`ipc` is wrong.
/// Returns `false` when the transport failed and `Err` on a wrong
/// answer.
fn send(client: &Client, points: &[Point], req: &Req) -> Result<bool, String> {
    match req {
        Req::Get(i) => {
            let p = &points[*i];
            let Ok(r) = client.run_summary(&p.key) else {
                return Ok(false);
            };
            expect_ok(r.status, "GET /runs", &p.key)?;
            expect_fields(p, &r.fields)?;
        }
        Req::Post(i) => {
            let p = &points[*i];
            let Ok(s) = client.submit(p.workload, p.kind, p.policy) else {
                return Ok(false);
            };
            expect_ok(s.status, "POST /runs", &p.key)?;
            if !s.cached {
                return Err(format!("POST /runs for {} was not answered warm", p.key));
            }
            expect_fields(p, &s.response.fields)?;
        }
        Req::Batch(idx) => {
            let specs: Vec<(String, String, String)> = idx
                .iter()
                .map(|&i| {
                    let p = &points[i];
                    (p.workload.into(), p.kind.into(), p.policy.into())
                })
                .collect();
            // `submit_batch` turns an answer other than a well-formed 200
            // into a protocol error; the other errors are transport ones.
            let answers = match client.submit_batch(&specs) {
                Ok(answers) => answers,
                Err(ClientError::Protocol(msg)) => {
                    return Err(format!("POST /submit-batch: {msg}"))
                }
                Err(_) => return Ok(false),
            };
            for (a, &i) in answers.iter().zip(idx) {
                if a.state != "done" || !a.cached {
                    return Err(format!(
                        "batch spec {} was {} (not warm)",
                        points[i].key, a.state
                    ));
                }
                expect_fields(&points[i], &a.fields)?;
            }
        }
    }
    Ok(true)
}

/// Runs the closed loop against `addr` until `seconds` elapse (or
/// `limit` requests per client are sent), one thread per client.
fn drive(
    addr: &str,
    points: &[Point],
    seed: u64,
    seconds: f64,
    limit: usize,
    tracer: &mut Tracer,
    req_base: u64,
) -> Result<(Load, f64), Failure> {
    let hot = points.len() / 8;
    let start = Instant::now();
    let results: Vec<(Load, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut t = Tracer::new(tracer.enabled(), start);
                scope.spawn(move || {
                    let client = Client::new(addr.to_string());
                    let mut seq = Sequence::new(seed, c, points.len());
                    let mut load = Load::default();
                    let mut n = 0;
                    while start.elapsed().as_secs_f64() < seconds && n < limit {
                        let (req, ranks) = seq.next();
                        load.keys_requested += ranks.len() as u64;
                        load.keys_hot += ranks.iter().filter(|&&r| r < hot).count() as u64;
                        let id = req_base + ((c as u64) << 24) + n as u64;
                        load.attempted += 1;
                        let t0 = Instant::now();
                        let outcome = t.span(req.kind(), id, || send(&client, points, &req));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match outcome {
                            Ok(true) => load.latencies.push((req.kind(), ms)),
                            Ok(false) => load.failed += 1,
                            Err(msg) => {
                                load.mismatch = Some(msg);
                                break;
                            }
                        }
                        n += 1;
                    }
                    (load, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = Load::default();
    for (load, t) in results {
        tracer.absorb(t);
        if let Some(msg) = load.mismatch {
            return Err(Failure::Mismatch(msg));
        }
        total.latencies.extend(load.latencies);
        total.attempted += load.attempted;
        total.failed += load.failed;
        total.keys_requested += load.keys_requested;
        total.keys_hot += load.keys_hot;
    }
    Ok((total, wall))
}

fn latencies(load: &Load, kind: Option<&str>) -> Vec<f64> {
    load.latencies
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| *k == want))
        .map(|(_, ms)| *ms)
        .collect()
}

/// Measures `serve_warm`.
pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Result<(), Failure> {
    let mut setups = Vec::new();
    let mut ready: Option<(Fleet, Vec<Point>)> = None;
    let mut expect: Option<Vec<u64>> = None;
    for round in 0..SETUP_REPEATS {
        if let Some((fleet, _)) = ready.take() {
            fleet.stop()?;
        }
        let t = Instant::now();
        let (fleet, points, digests) = setup(opts, round)?;
        setups.push(t.elapsed().as_secs_f64());
        match &expect {
            None => {
                for (p, d) in points.iter().zip(&digests) {
                    println!(
                        "serve_warm: digest {}/{}/{} {} {d:016x}",
                        p.workload, p.kind, p.policy, p.key
                    );
                }
                expect = Some(digests);
            }
            Some(want) if *want != digests => {
                return Err(Failure::Mismatch(
                    "prefilled run digests changed between set-ups".into(),
                ))
            }
            Some(_) => {}
        }
        ready = Some((fleet, points));
    }
    let (fleet, points) = ready.expect("at least one set-up");

    if !opts.trace {
        let mut off = Tracer::new(false, Instant::now());
        let (load, wall) = drive(
            &fleet.router_addr,
            &points,
            opts.seed,
            opts.seconds,
            usize::MAX,
            &mut off,
            0,
        )?;
        report.attempted = load.attempted;
        report.failed = load.failed;
        let all = latencies(&load, None);
        let s = summarize(&all).ok_or_else(|| Failure::Setup("no request completed".into()))?;
        println!(
            "serve_warm: lookups n={} q1={:.3} median={:.3} q3={:.3} ms, tail p{:?}={:?} ms; hottest eighth of keys took {:.3} of key requests",
            s.n,
            s.q1,
            s.median,
            s.q3,
            s.tail_pct,
            s.tail,
            load.keys_hot as f64 / load.keys_requested.max(1) as f64
        );
        for kind in ["client.get_runs", "client.post_runs", "client.submit_batch"] {
            let v = latencies(&load, Some(kind));
            println!(
                "serve_warm: {kind} n={} p50={:.3} p90={:.3} p99={:.3} max={:.3} ms",
                v.len(),
                percentile(&v, 50.0),
                percentile(&v, 90.0),
                percentile(&v, 99.0),
                percentile(&v, 100.0)
            );
        }
        crate::stats::print_summary("serve_warm", "setup", "s", &setups);
        // One operation is one request through the router.
        let rps = all.len() as f64 / wall;
        report.metric("setup_s", median(&setups), "s");
        report.metric("op_ms", s.median, "ms");
        report.metric("ops_per_s", rps, "1/s");
        report.metric("peak_rss_mb", fleet.peak_rss_mb()?, "MiB");
        report.info("lookup_p50_ms", s.median, "ms");
        if s.tail_pct >= Some(99.0) {
            report.info("lookup_p99_ms", percentile(&all, 99.0), "ms");
        } else {
            println!(
                "serve_warm: {} lookups leave fewer than {TAIL_SAMPLES} samples beyond p99; \
                 lookup_p99_ms not reported",
                s.n
            );
        }
        report.info("lookup_rps", rps, "1/s");
        return fleet.stop();
    }

    // Traced run: the same seeded sequence direct to one shard, then
    // through the router with and without spans.
    let phase = opts.seconds / 3.0;
    let mut off = Tracer::new(false, Instant::now());
    let (routed_plain, plain_wall) = drive(
        &fleet.router_addr,
        &points,
        opts.seed,
        phase,
        usize::MAX,
        &mut off,
        0,
    )?;
    let limit = routed_plain.attempted as usize / CLIENTS;
    let (routed, routed_wall) = drive(
        &fleet.router_addr,
        &points,
        opts.seed,
        f64::MAX,
        limit,
        tracer,
        0,
    )?;
    let (direct, _) = drive(
        &fleet.shard_addrs[0],
        &points,
        opts.seed,
        f64::MAX,
        limit,
        tracer,
        1 << 32,
    )?;

    let shard = Client::new(fleet.shard_addrs[0].clone());
    let mut health = Vec::new();
    for i in 0..HEALTH_PROBES {
        let t0 = Instant::now();
        let r = tracer.span("client.health", (2 << 32) + i as u64, || shard.health());
        if !matches!(r, Ok(ref resp) if resp.status == 200) {
            return Err(Failure::Mismatch("shard health probe failed".into()));
        }
        health.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let router = Client::new(fleet.router_addr.clone());
    let mut sweep = Vec::new();
    let mut sweep_failed = 0;
    for i in 0..SWEEP_BATCHES {
        let first = i * SWEEP_BATCH % points.len();
        let req = Req::Batch((first..first + SWEEP_BATCH).collect());
        let t0 = Instant::now();
        let answered = tracer
            .span(req.kind(), (3 << 32) + i as u64, || {
                send(&router, &points, &req)
            })
            .map_err(Failure::Mismatch)?;
        if answered {
            sweep.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            sweep_failed += 1;
        }
    }

    report.attempted =
        routed_plain.attempted + routed.attempted + direct.attempted + SWEEP_BATCHES as u64;
    report.failed = routed_plain.failed + routed.failed + direct.failed + sweep_failed;
    report.metric(
        "tracing.overhead_ms",
        (routed_wall - plain_wall) * 1e3,
        "ms",
    );
    for kind in ["get_runs", "post_runs"] {
        let v = latencies(&direct, Some(&format!("client.{kind}")));
        report.metric(&format!("serve.http.{kind}_ms_p50"), median(&v), "ms");
        report.metric(
            &format!("serve.http.{kind}_ms_p99"),
            percentile(&v, 99.0),
            "ms",
        );
    }
    report.metric("serve.http.health_ms_p50", median(&health), "ms");
    // `send` aborts the run on any status but 200, so a finished run
    // saw 4xx and 5xx answers zero times.
    let answered = direct.latencies.len() as f64;
    for (class, n) in [("2xx", answered), ("4xx", 0.0), ("5xx", 0.0)] {
        report.metric(&format!("serve.http.status_{class}"), n, "count");
    }
    report.metric(
        "serve.router.added_ms_p50",
        median(&latencies(&routed, None)) - median(&latencies(&direct, None)),
        "ms",
    );
    report.metric("serve.router.sweep_batch_ms_p50", median(&sweep), "ms");
    let stats = router
        .stats()
        .map_err(|e| Failure::Setup(format!("router /stats: {e}")))?;
    for name in ["proxied", "failover"] {
        let v = scan_counter(&stats, name)
            .ok_or_else(|| Failure::Mismatch(format!("router /stats has no {name} counter")))?;
        report.metric(&format!("serve.router.{name}"), v as f64, "count");
    }
    report.metric(
        "serve.load.hot_share",
        routed.keys_hot as f64 / routed.keys_requested.max(1) as f64,
        "ratio",
    );
    fleet.stop()
}
