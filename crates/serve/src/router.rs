//! The shard router: a reverse proxy that spreads run keys over a fleet
//! of `ramp-served` processes with replication and health-checked
//! failover.
//!
//! The router owns a **static shard map** (ordered `host:port` list) and
//! routes every submit/poll/fetch by jump-consistent-hash of the run's
//! routing key to a *replica set*: the primary shard plus the next
//! `R - 1` shards in map order ([`replica_set`]). Requests walk the set
//! in order — a connection failure, timeout, or 5xx on one member
//! retries the next with a deterministic decorrelated-jitter delay
//! ([`failover_delay`]); a dark member (see health, below) is skipped
//! outright. Because every shard simulates the same deterministic
//! system, any replica can answer any request in its set: a dark shard
//! degrades capacity, never correctness, mirroring the two-tier
//! replication-based protection scheme the paper's reliability model is
//! built on.
//!
//! **Writes** (submits) are mirrored best-effort: when a shard accepts a
//! job, the router queues a *hint* — the run spec — for every other
//! member of the replica set. A background handoff thread delivers
//! hints to live shards (warming their stores), and holds them for dark
//! shards until the health prober reports recovery: hinted handoff, so
//! a shard that was down during a write converges once it returns.
//! **Reads** prefer any replica that answers warm: `GET /runs/{key}`
//! scans the key's replica set first, then every remaining live shard.
//!
//! **Health** is an active prober thread: `GET /health` per shard on an
//! interval; [`RouterConfig::fail_threshold`] consecutive failures mark
//! a shard dark, [`RouterConfig::live_threshold`] consecutive successes
//! bring it back. Per-shard state is exported under `router.shard{i}`
//! telemetry scopes in the router's own `/stats`. The degradation
//! ladder: all members live → plain proxying; some dark → serve from
//! the rest and count `router.degraded`; all dark or failing → `503`
//! with `retry-after` and count `router.unavailable`.
//!
//! Jobs are renumbered: the router allocates its own job ids and maps
//! them to `(shard, upstream id)`, so `GET /jobs/{id}` works no matter
//! which shard ran the job — and when the owning shard dies mid-job,
//! the poll transparently **resubmits** the remembered spec to a
//! surviving replica (idempotent by the content-addressed run key) and
//! keeps the same router job id.
//!
//! Both sides of the router use bounded keep-alive connection pools:
//! the listener via [`crate::http::serve_pooled`], and one small
//! persistent-connection pool per upstream shard (request-capped,
//! idle-reaped by the prober).
//!
//! Chaos sites (see [`ramp_sim::chaos`]): `router.upstream` injects
//! upstream request faults (exercising failover), `router.probe`
//! injects probe failures (exercising dark/live transitions), and
//! `router.handoff` injects slow/panicking hint deliveries (exercising
//! the redelivery loop — a handoff panic is caught, counted, and the
//! hint retried).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ramp_sim::chaos::{self, Chaos, FaultKind};
use ramp_sim::codec::fnv1a64;
use ramp_sim::telemetry::StatRegistry;

use crate::http::{
    read_response_full, serve_pooled, write_request, HttpResponse, PoolPolicy, Reply, Request,
};
use crate::json::{error_body, parse_flat, ObjWriter};
use crate::server::MAX_BATCH;
use crate::spec::RunSpec;

/// Chaos site rolled per upstream request attempt (`Net` faults).
pub const SITE_UPSTREAM: &str = "router.upstream";
/// Chaos site rolled per hint delivery (`Slow` delays, `Panic` kills).
pub const SITE_HANDOFF: &str = "router.handoff";
/// Chaos site rolled per health probe (`Net` faults → probe failure).
pub const SITE_PROBE: &str = "router.probe";

/// Requests served per upstream connection before it is re-dialed.
const UPSTREAM_MAX_REQUESTS: u32 = 128;
/// Idle upstream connections older than this are reaped by the prober.
const UPSTREAM_IDLE: Duration = Duration::from_secs(5);
/// Hints held per shard before new mirrors are dropped (best-effort).
const MAX_HINTS: usize = 1024;
/// Delivery attempts per hint before it is dropped.
const MAX_HINT_ATTEMPTS: u32 = 5;

/// Jump consistent hash (Lamping–Veach) of a run key over `buckets`.
/// Deterministic, uniform, and minimally disruptive under growth:
/// going from N to N+1 buckets moves only ~1/(N+1) of the keys. Used
/// both for worker slots inside one server and for shards across the
/// fleet.
pub fn route_shard(key: &str, buckets: usize) -> usize {
    let mut h = fnv1a64(key.as_bytes());
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        h = h.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = ((b.wrapping_add(1) as f64) * ((1u64 << 31) as f64 / (((h >> 33) + 1) as f64))) as i64;
    }
    b as usize
}

/// The ordered replica set for `key`: the jump-hash primary followed by
/// the next `replicas - 1` shards in map order (distinct by
/// construction, clamped to the shard count).
pub fn replica_set(key: &str, shards: usize, replicas: usize) -> Vec<usize> {
    let primary = route_shard(key, shards);
    (0..replicas.clamp(1, shards))
        .map(|i| (primary + i) % shards)
        .collect()
}

/// The deterministic decorrelated-jitter delay before failover attempt
/// `attempt` (1-based) for `key`: jittered over `[base, min(cap,
/// base·3^attempt))` with the jitter hashed from `(key, attempt)` — a
/// replay backs off identically, distinct keys decorrelate.
pub fn failover_delay(key: &str, attempt: u32) -> Duration {
    const BASE_US: u64 = 2_000;
    const CAP_US: u64 = 50_000;
    let mut h = fnv1a64(key.as_bytes()) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    let ceiling = BASE_US
        .saturating_mul(3u64.saturating_pow(attempt))
        .min(CAP_US);
    let span = ceiling.saturating_sub(BASE_US).max(1);
    Duration::from_micros(BASE_US + h % span)
}

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Ordered shard map (`host:port` per shard). Order matters: it
    /// defines replica sets, so every router over the same map agrees.
    pub shards: Vec<String>,
    /// Replication factor R: each key lives on its primary plus R−1
    /// successors. Clamped to the shard count.
    pub replicas: usize,
    /// Health probe interval per shard.
    pub probe_interval: Duration,
    /// Consecutive probe failures before a shard goes dark.
    pub fail_threshold: u32,
    /// Consecutive probe successes before a dark shard is live again.
    pub live_threshold: u32,
    /// Connect/read timeout for one health probe.
    pub probe_timeout: Duration,
    /// Connect/read timeout for one proxied upstream request.
    pub upstream_timeout: Duration,
    /// Listener-side keep-alive pool tuning.
    pub http: PoolPolicy,
    /// Fault-injection registry; defaults to the `RAMP_CHAOS` global.
    pub chaos: Option<Arc<Chaos>>,
}

impl RouterConfig {
    /// Defaults: replication factor 2, 100 ms probes with 2-strike
    /// dark / 2-strike live thresholds, 500 ms probe timeout, 30 s
    /// upstream timeout, default listener pool, environment chaos.
    pub fn new(shards: Vec<String>) -> Self {
        RouterConfig {
            shards,
            replicas: 2,
            probe_interval: Duration::from_millis(100),
            fail_threshold: 2,
            live_threshold: 2,
            probe_timeout: Duration::from_millis(500),
            upstream_timeout: Duration::from_secs(30),
            http: PoolPolicy::default(),
            chaos: chaos::global(),
        }
    }
}

/// An undelivered write mirror: the spec to replay on a replica.
struct Hint {
    workload: String,
    kind: String,
    policy: String,
    attempts: u32,
}

/// One pooled upstream connection.
struct Pooled {
    stream: TcpStream,
    served: u32,
    idle_since: Instant,
}

/// Per-shard health ledger, connection pool, and hint queue.
struct ShardState {
    addr: String,
    live: AtomicBool,
    consec_fail: AtomicU64,
    consec_ok: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    transitions: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    pool: Mutex<Vec<Pooled>>,
    hints: Mutex<VecDeque<Hint>>,
    hints_queued: AtomicU64,
    hints_delivered: AtomicU64,
    hints_dropped: AtomicU64,
}

impl ShardState {
    fn new(addr: String) -> Self {
        ShardState {
            addr,
            // Optimistic start: the first requests race the first probe,
            // and per-request failover covers a shard that is not
            // actually there yet.
            live: AtomicBool::new(true),
            consec_fail: AtomicU64::new(0),
            consec_ok: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            hints: Mutex::new(VecDeque::new()),
            hints_queued: AtomicU64::new(0),
            hints_delivered: AtomicU64::new(0),
            hints_dropped: AtomicU64::new(0),
        }
    }
}

/// What the router remembers about one renumbered job.
#[derive(Clone)]
struct RouterJob {
    shard: usize,
    upstream: u64,
    workload: String,
    kind: String,
    policy: String,
    routing_key: String,
}

struct RouterShared {
    shards: Vec<ShardState>,
    replicas: usize,
    upstream_timeout: Duration,
    chaos: Option<Arc<Chaos>>,
    jobs: Mutex<HashMap<u64, RouterJob>>,
    next_job: AtomicU64,
    proxied: AtomicU64,
    failover: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
    resubmitted: AtomicU64,
    handoff_panics: AtomicU64,
    stop: AtomicBool,
}

impl RouterShared {
    fn live_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.live.load(Ordering::SeqCst))
            .count()
    }

    fn hints_pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.hints.lock().unwrap().len())
            .sum()
    }
}

/// The routing key of a submit: the raw spec triple. Every router over
/// the same shard map routes the same spec identically (the
/// content-addressed store key is not computable without the simulated
/// system's config, which the router deliberately does not own).
fn routing_key(workload: &str, kind: &str, policy: &str) -> String {
    format!("{workload}|{kind}|{policy}")
}

fn connect_shard(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let sa = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))?;
    let stream =
        TcpStream::connect_timeout(&sa, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// The `host` header of every upstream request.
const UPSTREAM_HOST: &str = "shard";

/// One request to shard `idx`, reusing a pooled connection when one is
/// fresh (a stale pooled connection gets one silent fresh-dial retry —
/// the shard may simply have reaped it).
fn upstream_once(
    shared: &RouterShared,
    idx: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    let shard = &shared.shards[idx];
    shard.requests.fetch_add(1, Ordering::SeqCst);
    let pooled = shard.pool.lock().unwrap().pop();
    if let Some(mut p) = pooled {
        if p.idle_since.elapsed() < UPSTREAM_IDLE {
            if let Ok(resp) = exchange(&mut p.stream, method, path, body) {
                repool(shard, p.stream, p.served + 1, &resp);
                return Ok(resp);
            }
        }
        // Stale or broken: drop it and dial fresh below.
    }
    let mut stream = connect_shard(&shard.addr, shared.upstream_timeout)?;
    let _ = stream.set_read_timeout(Some(shared.upstream_timeout));
    let _ = stream.set_write_timeout(Some(shared.upstream_timeout));
    let resp = exchange(&mut stream, method, path, body)?;
    repool(shard, stream, 1, &resp);
    Ok(resp)
}

fn exchange(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    write_request(stream, method, path, UPSTREAM_HOST, body).map_err(|e| format!("send: {e}"))?;
    read_response_full(stream)
}

fn repool(shard: &ShardState, stream: TcpStream, served: u32, resp: &HttpResponse) {
    if resp.keep_alive() && served < UPSTREAM_MAX_REQUESTS {
        shard.pool.lock().unwrap().push(Pooled {
            stream,
            served,
            idle_since: Instant::now(),
        });
    }
}

/// [`upstream_once`] behind the `router.upstream` chaos site: an
/// injected `Net` fault fails the attempt before the network is
/// touched, so failover is exercisable deterministically.
fn upstream(
    shared: &RouterShared,
    idx: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    if let Some(c) = shared.chaos.as_ref() {
        c.maybe_slow(SITE_UPSTREAM);
        if c.roll(FaultKind::Net, SITE_UPSTREAM) {
            return Err("injected upstream fault".into());
        }
    }
    upstream_once(shared, idx, method, path, body)
}

fn is_gateway_error(status: u16) -> bool {
    matches!(status, 500 | 502 | 503 | 504)
}

enum Forward {
    /// A replica answered (any non-5xx status); carries which one.
    Ok { shard: usize, resp: HttpResponse },
    /// Every eligible replica was dark or failed.
    Unavailable,
}

/// Walks `key`'s replica set: skips dark members (and `skip`), retries
/// past failures with jittered delays, and accounts failover (served by
/// a non-first member) and degradation (served while some member was
/// dark).
fn forward(
    shared: &RouterShared,
    key: &str,
    method: &str,
    path: &str,
    body: &str,
    skip: Option<usize>,
) -> Forward {
    let set = replica_set(key, shared.shards.len(), shared.replicas);
    let mut dark = 0usize;
    let mut attempt = 0u32;
    for (pos, &idx) in set.iter().enumerate() {
        if Some(idx) == skip {
            dark += 1;
            continue;
        }
        let shard = &shared.shards[idx];
        if !shard.live.load(Ordering::SeqCst) {
            dark += 1;
            continue;
        }
        if attempt > 0 || pos > 0 {
            std::thread::sleep(failover_delay(key, attempt.max(1)));
        }
        match upstream(shared, idx, method, path, body) {
            Ok(resp) if !is_gateway_error(resp.status) => {
                if pos > 0 {
                    shared.failover.fetch_add(1, Ordering::SeqCst);
                }
                if dark > 0 {
                    shared.degraded.fetch_add(1, Ordering::SeqCst);
                }
                return Forward::Ok { shard: idx, resp };
            }
            Ok(_) | Err(_) => {
                shard.errors.fetch_add(1, Ordering::SeqCst);
                attempt += 1;
            }
        }
    }
    shared.unavailable.fetch_add(1, Ordering::SeqCst);
    Forward::Unavailable
}

fn unavailable_reply() -> Reply {
    let mut reply = Reply::json(503, error_body("no live replica"));
    reply
        .headers
        .push(("retry-after".to_string(), "1".to_string()));
    reply
}

/// Copies a passthrough upstream response into a reply, preserving the
/// `retry-after` hint on shed load.
fn passthrough(resp: HttpResponse) -> Reply {
    let mut reply = Reply::json(resp.status, String::new());
    if let Some(ra) = resp.header("retry-after") {
        reply
            .headers
            .push(("retry-after".to_string(), ra.to_string()));
    }
    reply.body = resp.body;
    reply
}

/// Splices router job id `gid` over the upstream id in a body that
/// starts `{"job":N,...` (every poll response does).
fn rewrite_job_prefix(body: &str, gid: u64) -> String {
    if let Some(rest) = body.strip_prefix("{\"job\":") {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            return format!("{{\"job\":{gid}{}", &rest[digits..]);
        }
    }
    body.to_string()
}

/// Queues write mirrors for every replica of `rk` other than the shard
/// that took the write; the handoff thread delivers them.
fn enqueue_hints(
    shared: &RouterShared,
    rk: &str,
    served_by: usize,
    workload: &str,
    kind: &str,
    policy: &str,
) {
    let set = replica_set(rk, shared.shards.len(), shared.replicas);
    for &idx in &set {
        if idx == served_by {
            continue;
        }
        let shard = &shared.shards[idx];
        let mut q = shard.hints.lock().unwrap();
        if q.len() >= MAX_HINTS {
            shard.hints_dropped.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        q.push_back(Hint {
            workload: workload.to_string(),
            kind: kind.to_string(),
            policy: policy.to_string(),
            attempts: 0,
        });
        shard.hints_queued.fetch_add(1, Ordering::SeqCst);
    }
}

fn submit(shared: &RouterShared, body: &str) -> Reply {
    if shared.stop.load(Ordering::SeqCst) {
        return Reply::json(503, error_body("shutting down"));
    }
    let fields = match parse_flat(body) {
        Ok(f) => f,
        Err(msg) => return Reply::json(400, error_body(&msg)),
    };
    let get = |k: &str| fields.get(k).map(String::as_str).unwrap_or("");
    let (workload, kind, policy) = (get("workload"), get("kind"), get("policy"));
    // Validate locally for a crisp 400 before burning upstream attempts.
    if let Err(msg) = RunSpec::parse(workload, kind, policy) {
        return Reply::json(400, error_body(&msg));
    }
    let rk = routing_key(workload, kind, policy);
    match forward(shared, &rk, "POST", "/runs", body, None) {
        Forward::Unavailable => unavailable_reply(),
        Forward::Ok { shard, resp } if resp.status == 202 => {
            let f = parse_flat(&resp.body).unwrap_or_default();
            let Some(upstream_id) = f.get("job").and_then(|j| j.parse::<u64>().ok()) else {
                return Reply::json(502, error_body("shard 202 without a job id"));
            };
            let key = f.get("key").cloned().unwrap_or_default();
            let gid = shared.next_job.fetch_add(1, Ordering::SeqCst);
            shared.jobs.lock().unwrap().insert(
                gid,
                RouterJob {
                    shard,
                    upstream: upstream_id,
                    workload: workload.to_string(),
                    kind: kind.to_string(),
                    policy: policy.to_string(),
                    routing_key: rk.clone(),
                },
            );
            enqueue_hints(shared, &rk, shard, workload, kind, policy);
            let body = ObjWriter::new()
                .u64("job", gid)
                .str("state", "queued")
                .str("key", &key)
                .finish();
            Reply::json(202, body)
        }
        Forward::Ok { resp, .. } => passthrough(resp),
    }
}

fn submit_batch(shared: &RouterShared, body: &str) -> Reply {
    if shared.stop.load(Ordering::SeqCst) {
        return Reply::json(503, error_body("shutting down"));
    }
    let fields = match parse_flat(body) {
        Ok(f) => f,
        Err(msg) => return Reply::json(400, error_body(&msg)),
    };
    let Some(count) = fields.get("count").and_then(|c| c.parse::<usize>().ok()) else {
        return Reply::json(400, error_body("count is required"));
    };
    if count == 0 || count > MAX_BATCH {
        return Reply::json(400, error_body(&format!("count must be 1..={MAX_BATCH}")));
    }

    /// One re-emitted field of the merged response.
    enum Fv {
        S(String),
        U(u64),
    }
    let mut out: Vec<Vec<(String, Fv)>> = (0..count).map(|_| Vec::new()).collect();

    // Group valid specs by primary shard over the FULL map (not the
    // live subset — failover belongs to `forward`, so routing stays
    // identical whatever the fleet's health).
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut triples: Vec<Option<(String, String, String)>> = Vec::with_capacity(count);
    for (i, out_i) in out.iter_mut().enumerate() {
        let get = |k: &str| {
            fields
                .get(&format!("{i}.{k}"))
                .map(String::as_str)
                .unwrap_or("")
        };
        let (workload, kind, policy) = (get("workload"), get("kind"), get("policy"));
        match RunSpec::parse(workload, kind, policy) {
            Ok(_) => {
                let rk = routing_key(workload, kind, policy);
                groups
                    .entry(route_shard(&rk, shared.shards.len()))
                    .or_default()
                    .push(i);
                triples.push(Some((
                    workload.to_string(),
                    kind.to_string(),
                    policy.to_string(),
                )));
            }
            Err(msg) => {
                out_i.push(("state".to_string(), Fv::S("rejected".to_string())));
                out_i.push(("error".to_string(), Fv::S(msg)));
                triples.push(None);
            }
        }
    }

    for idxs in groups.values() {
        // All group members share a primary, hence a replica set; any
        // member's routing key selects it.
        let rk = {
            let (w, k, p) = triples[idxs[0]].as_ref().expect("grouped spec is valid");
            routing_key(w, k, p)
        };
        let mut sw = ObjWriter::new();
        sw.u64("count", idxs.len() as u64);
        for (sub, &orig) in idxs.iter().enumerate() {
            let (w, k, p) = triples[orig].as_ref().expect("grouped spec is valid");
            sw.str(&format!("{sub}.workload"), w)
                .str(&format!("{sub}.kind"), k);
            if !p.is_empty() {
                sw.str(&format!("{sub}.policy"), p);
            }
        }
        match forward(shared, &rk, "POST", "/submit-batch", &sw.finish(), None) {
            Forward::Ok { shard, resp } if resp.status == 200 => {
                let sub_fields = parse_flat(&resp.body).unwrap_or_default();
                for (sub, &orig) in idxs.iter().enumerate() {
                    merge_batch_item(
                        shared,
                        &sub_fields,
                        sub,
                        shard,
                        &triples[orig],
                        &mut out[orig],
                    );
                }
            }
            Forward::Ok { .. } => {
                for &orig in idxs {
                    out[orig].push(("state".to_string(), Fv::S("rejected".to_string())));
                    out[orig].push(("error".to_string(), Fv::S("upstream rejected batch".into())));
                }
            }
            Forward::Unavailable => {
                for &orig in idxs {
                    out[orig].push(("state".to_string(), Fv::S("rejected".to_string())));
                    out[orig].push(("error".to_string(), Fv::S("no live replica".to_string())));
                }
            }
        }
    }

    let mut w = ObjWriter::new();
    w.u64("count", count as u64);
    for (i, item) in out.iter().enumerate() {
        for (name, v) in item {
            match v {
                Fv::S(s) => w.str(&format!("{i}.{name}"), s),
                Fv::U(u) => w.u64(&format!("{i}.{name}"), *u),
            };
        }
    }
    return Reply::json(200, w.finish());

    /// Copies one sub-batch item to its original index: `queued` items
    /// are renumbered (and mirrored via hints); everything else is
    /// copied field-for-field, values kept in their literal text form
    /// (the flat protocol's clients re-parse by name, not JSON type).
    fn merge_batch_item(
        shared: &RouterShared,
        sub_fields: &BTreeMap<String, String>,
        sub: usize,
        shard: usize,
        triple: &Option<(String, String, String)>,
        out: &mut Vec<(String, Fv)>,
    ) {
        let prefix = format!("{sub}.");
        let get = |k: &str| sub_fields.get(&format!("{sub}.{k}")).map(String::as_str);
        match get("state") {
            Some("queued") => {
                let Some(upstream_id) = get("job").and_then(|j| j.parse::<u64>().ok()) else {
                    out.push(("state".to_string(), Fv::S("rejected".to_string())));
                    out.push((
                        "error".to_string(),
                        Fv::S("shard queued without a job id".to_string()),
                    ));
                    return;
                };
                let (w, k, p) = triple.as_ref().expect("queued spec is valid");
                let rk = routing_key(w, k, p);
                let gid = shared.next_job.fetch_add(1, Ordering::SeqCst);
                shared.jobs.lock().unwrap().insert(
                    gid,
                    RouterJob {
                        shard,
                        upstream: upstream_id,
                        workload: w.clone(),
                        kind: k.clone(),
                        policy: p.clone(),
                        routing_key: rk.clone(),
                    },
                );
                enqueue_hints(shared, &rk, shard, w, k, p);
                out.push(("state".to_string(), Fv::S("queued".to_string())));
                out.push(("job".to_string(), Fv::U(gid)));
                if let Some(key) = get("key") {
                    out.push(("key".to_string(), Fv::S(key.to_string())));
                }
            }
            Some(_) => {
                // done / rejected: copy verbatim, state first.
                if let Some(state) = get("state") {
                    out.push(("state".to_string(), Fv::S(state.to_string())));
                }
                for (k, v) in sub_fields {
                    if let Some(name) = k.strip_prefix(&prefix) {
                        if name != "state" && !name.contains('.') {
                            out.push((name.to_string(), Fv::S(v.clone())));
                        }
                    }
                }
            }
            None => {
                out.push(("state".to_string(), Fv::S("rejected".to_string())));
                out.push((
                    "error".to_string(),
                    Fv::S("shard answered without a state".to_string()),
                ));
            }
        }
    }
}

fn poll(shared: &RouterShared, id_str: &str) -> Reply {
    let Ok(gid) = id_str.parse::<u64>() else {
        return Reply::json(400, error_body("job id must be an integer"));
    };
    let job = shared.jobs.lock().unwrap().get(&gid).cloned();
    let Some(job) = job else {
        return Reply::json(404, error_body("no such job"));
    };
    let path = format!("/jobs/{}", job.upstream);
    let attempt = if shared.shards[job.shard].live.load(Ordering::SeqCst) {
        upstream(shared, job.shard, "GET", &path, "")
    } else {
        Err("owning shard is dark".into())
    };
    match attempt {
        Ok(resp) if resp.status == 200 => Reply::json(200, rewrite_job_prefix(&resp.body, gid)),
        // 404 from the shard means it restarted and lost its job table;
        // gateway errors and a dark owner mean it is gone. Either way
        // the run is idempotent: resubmit the remembered spec to a
        // surviving replica under the same router job id.
        Ok(resp) if resp.status != 404 && !is_gateway_error(resp.status) => passthrough(resp),
        _ => resubmit(shared, gid, &job),
    }
}

/// Re-dispatches a lost job's spec to the surviving replicas; the
/// router job id is stable across the move.
fn resubmit(shared: &RouterShared, gid: u64, job: &RouterJob) -> Reply {
    let mut w = ObjWriter::new();
    w.str("workload", &job.workload).str("kind", &job.kind);
    if !job.policy.is_empty() {
        w.str("policy", &job.policy);
    }
    match forward(
        shared,
        &job.routing_key,
        "POST",
        "/runs",
        &w.finish(),
        Some(job.shard),
    ) {
        Forward::Unavailable => unavailable_reply(),
        Forward::Ok { shard, resp } => match resp.status {
            // Warm on the replica: answer done right now, as a poll body.
            200 => {
                shared.resubmitted.fetch_add(1, Ordering::SeqCst);
                let rewritten = resp.body.replacen(
                    "{\"state\":\"done\",\"cached\":true",
                    &format!("{{\"job\":{gid},\"state\":\"done\""),
                    1,
                );
                Reply::json(200, rewritten)
            }
            // Re-queued: remember the new home, keep polling.
            202 => {
                shared.resubmitted.fetch_add(1, Ordering::SeqCst);
                let f = parse_flat(&resp.body).unwrap_or_default();
                if let Some(upstream_id) = f.get("job").and_then(|j| j.parse::<u64>().ok()) {
                    let mut jobs = shared.jobs.lock().unwrap();
                    if let Some(entry) = jobs.get_mut(&gid) {
                        entry.shard = shard;
                        entry.upstream = upstream_id;
                    }
                }
                Reply::json(
                    200,
                    ObjWriter::new()
                        .u64("job", gid)
                        .str("state", "queued")
                        .finish(),
                )
            }
            // 429: the replica is shedding; report still-queued so the
            // caller polls again instead of failing a live job.
            429 => Reply::json(
                200,
                ObjWriter::new()
                    .u64("job", gid)
                    .str("state", "queued")
                    .finish(),
            ),
            _ => passthrough(resp),
        },
    }
}

fn fetch(shared: &RouterShared, key: &str) -> Reply {
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Reply::json(400, error_body("key must be 32 hex digits"));
    }
    // Prefer-warm scan: the store key's replica set is only a heuristic
    // (submits route by spec, not store key), so fall back to every
    // remaining live shard before answering 404.
    let mut order = replica_set(key, shared.shards.len(), shared.replicas);
    for idx in 0..shared.shards.len() {
        if !order.contains(&idx) {
            order.push(idx);
        }
    }
    let path = format!("/runs/{key}");
    let mut answered_404 = false;
    let mut tried = 0usize;
    for idx in order {
        if !shared.shards[idx].live.load(Ordering::SeqCst) {
            continue;
        }
        tried += 1;
        match upstream(shared, idx, "GET", &path, "") {
            Ok(resp) if resp.status == 200 => return Reply::json(200, resp.body),
            Ok(resp) if resp.status == 404 => answered_404 = true,
            Ok(resp) if !is_gateway_error(resp.status) => return passthrough(resp),
            _ => {
                shared.shards[idx].errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    if answered_404 {
        return Reply::json(404, error_body("no stored run under that key"));
    }
    if tried == 0 {
        shared.unavailable.fetch_add(1, Ordering::SeqCst);
        return unavailable_reply();
    }
    Reply::json(502, error_body("every live shard failed the fetch"))
}

fn health_body(shared: &RouterShared) -> (u16, String) {
    let live = shared.live_count();
    let body = ObjWriter::new()
        .bool("ok", live > 0)
        .u64("shards", shared.shards.len() as u64)
        .u64("live", live as u64)
        .u64("replicas", shared.replicas as u64)
        .finish();
    (if live > 0 { 200 } else { 503 }, body)
}

fn stats_body(shared: &RouterShared) -> String {
    let mut reg = StatRegistry::new();
    reg.counter_add("router", "proxied", shared.proxied.load(Ordering::SeqCst));
    reg.counter_add("router", "failover", shared.failover.load(Ordering::SeqCst));
    reg.counter_add("router", "degraded", shared.degraded.load(Ordering::SeqCst));
    reg.counter_add(
        "router",
        "unavailable",
        shared.unavailable.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "router",
        "resubmitted",
        shared.resubmitted.load(Ordering::SeqCst),
    );
    reg.counter_add(
        "router",
        "handoff_panics",
        shared.handoff_panics.load(Ordering::SeqCst),
    );
    reg.gauge_set("router", "shards", shared.shards.len() as f64);
    reg.gauge_set("router", "live", shared.live_count() as f64);
    reg.gauge_set("router", "replicas", shared.replicas as f64);
    reg.gauge_set("router", "handoff_pending", shared.hints_pending() as f64);
    if let Some(c) = shared.chaos.as_ref() {
        c.export_telemetry(&mut reg, "chaos");
    }
    for (i, shard) in shared.shards.iter().enumerate() {
        let scope = format!("router.shard{i}");
        reg.gauge_set(
            &scope,
            "live",
            if shard.live.load(Ordering::SeqCst) {
                1.0
            } else {
                0.0
            },
        );
        reg.counter_add(&scope, "probes", shard.probes.load(Ordering::SeqCst));
        reg.counter_add(
            &scope,
            "probe_failures",
            shard.probe_failures.load(Ordering::SeqCst),
        );
        reg.counter_add(
            &scope,
            "transitions",
            shard.transitions.load(Ordering::SeqCst),
        );
        reg.counter_add(&scope, "requests", shard.requests.load(Ordering::SeqCst));
        reg.counter_add(&scope, "errors", shard.errors.load(Ordering::SeqCst));
        reg.counter_add(
            &scope,
            "hints_queued",
            shard.hints_queued.load(Ordering::SeqCst),
        );
        reg.counter_add(
            &scope,
            "hints_delivered",
            shard.hints_delivered.load(Ordering::SeqCst),
        );
        reg.counter_add(
            &scope,
            "hints_dropped",
            shard.hints_dropped.load(Ordering::SeqCst),
        );
        reg.gauge_set(&scope, "pool_idle", shard.pool.lock().unwrap().len() as f64);
    }
    reg.snapshot_full().to_json()
}

/// Waits briefly for pending hints to drain (the handoff thread does
/// the delivering), then reports counts and stops the listener.
fn shutdown(shared: &RouterShared) -> Reply {
    let deadline = Instant::now() + Duration::from_secs(2);
    while shared.hints_pending() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    shared.stop.store(true, Ordering::SeqCst);
    let body = ObjWriter::new()
        .bool("drained", true)
        .u64("proxied", shared.proxied.load(Ordering::SeqCst))
        .u64("failover", shared.failover.load(Ordering::SeqCst))
        .u64("resubmitted", shared.resubmitted.load(Ordering::SeqCst))
        .u64("hints_pending", shared.hints_pending() as u64)
        .finish();
    let mut reply = Reply::json(200, body);
    reply.stop = true;
    reply
}

fn route_request(shared: &RouterShared, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let (status, body) = health_body(shared);
            Reply::json(status, body)
        }
        ("GET", "/stats") => Reply::json(200, stats_body(shared)),
        ("POST", "/runs") => {
            shared.proxied.fetch_add(1, Ordering::SeqCst);
            submit(shared, &req.body)
        }
        ("POST", "/submit-batch") => {
            shared.proxied.fetch_add(1, Ordering::SeqCst);
            submit_batch(shared, &req.body)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            shared.proxied.fetch_add(1, Ordering::SeqCst);
            poll(shared, &path["/jobs/".len()..])
        }
        ("GET", path) if path.starts_with("/runs/") => {
            shared.proxied.fetch_add(1, Ordering::SeqCst);
            fetch(shared, &path["/runs/".len()..])
        }
        ("POST", "/shutdown") => shutdown(shared),
        ("GET", _) | ("POST", _) => Reply::json(404, error_body("no such endpoint")),
        _ => Reply::json(405, error_body("method not allowed")),
    }
}

fn probe_once(shard: &ShardState, timeout: Duration) -> bool {
    let Ok(mut s) = connect_shard(&shard.addr, timeout) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(timeout));
    let _ = s.set_write_timeout(Some(timeout));
    if write_request(&mut s, "GET", "/health", UPSTREAM_HOST, "").is_err() {
        return false;
    }
    matches!(read_response_full(&mut s), Ok(resp) if resp.status == 200)
}

fn prober_loop(shared: &RouterShared, cfg: &RouterConfig) {
    while !shared.stop.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            shard.probes.fetch_add(1, Ordering::SeqCst);
            let injected = shared.chaos.as_ref().is_some_and(|c| {
                c.maybe_slow(SITE_PROBE);
                c.roll(FaultKind::Net, SITE_PROBE)
            });
            let ok = !injected && probe_once(shard, cfg.probe_timeout);
            if ok {
                shard.consec_fail.store(0, Ordering::SeqCst);
                let streak = shard.consec_ok.fetch_add(1, Ordering::SeqCst) + 1;
                if !shard.live.load(Ordering::SeqCst) && streak >= u64::from(cfg.live_threshold) {
                    shard.live.store(true, Ordering::SeqCst);
                    shard.transitions.fetch_add(1, Ordering::SeqCst);
                }
            } else {
                shard.probe_failures.fetch_add(1, Ordering::SeqCst);
                shard.consec_ok.store(0, Ordering::SeqCst);
                let streak = shard.consec_fail.fetch_add(1, Ordering::SeqCst) + 1;
                if shard.live.load(Ordering::SeqCst) && streak >= u64::from(cfg.fail_threshold) {
                    shard.live.store(false, Ordering::SeqCst);
                    shard.transitions.fetch_add(1, Ordering::SeqCst);
                    // A dark shard's pooled connections are dead weight.
                    shard.pool.lock().unwrap().clear();
                }
            }
            // Reap idle upstream connections while we're here.
            shard
                .pool
                .lock()
                .unwrap()
                .retain(|p| p.idle_since.elapsed() < UPSTREAM_IDLE);
        }
        std::thread::sleep(cfg.probe_interval);
    }
}

/// Delivers one hint; `true` means the replica has (or will have) the
/// result. Panics injected at `router.handoff` unwind to the caller.
fn deliver_hint(shared: &RouterShared, idx: usize, hint: &Hint) -> bool {
    if let Some(c) = shared.chaos.as_ref() {
        c.maybe_slow(SITE_HANDOFF);
        c.maybe_panic(SITE_HANDOFF);
    }
    let mut w = ObjWriter::new();
    w.str("workload", &hint.workload).str("kind", &hint.kind);
    if !hint.policy.is_empty() {
        w.str("policy", &hint.policy);
    }
    matches!(
        upstream_once(shared, idx, "POST", "/runs", &w.finish()),
        Ok(resp) if resp.status == 200 || resp.status == 202
    )
}

fn handoff_loop(shared: &RouterShared) {
    while !shared.stop.load(Ordering::SeqCst) {
        for (idx, shard) in shared.shards.iter().enumerate() {
            if !shard.live.load(Ordering::SeqCst) {
                continue;
            }
            loop {
                let hint = shard.hints.lock().unwrap().pop_front();
                let Some(mut hint) = hint else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| deliver_hint(shared, idx, &hint)));
                if matches!(outcome, Ok(true)) {
                    shard.hints_delivered.fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                if outcome.is_err() {
                    shared.handoff_panics.fetch_add(1, Ordering::SeqCst);
                }
                hint.attempts += 1;
                if hint.attempts >= MAX_HINT_ATTEMPTS {
                    shard.hints_dropped.fetch_add(1, Ordering::SeqCst);
                } else {
                    shard.hints.lock().unwrap().push_front(hint);
                }
                // Back off this shard until the next sweep.
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
    cfg: RouterConfig,
}

impl Router {
    /// Binds `addr`; fails on an empty shard map.
    pub fn bind(addr: &str, cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "at least one shard is required",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(RouterShared {
            shards: cfg.shards.iter().cloned().map(ShardState::new).collect(),
            replicas: cfg.replicas.clamp(1, cfg.shards.len()),
            upstream_timeout: cfg.upstream_timeout,
            chaos: cfg.chaos.clone(),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            proxied: AtomicU64::new(0),
            failover: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            resubmitted: AtomicU64::new(0),
            handoff_panics: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        Ok(Router {
            listener,
            shared,
            cfg,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Serves requests until a `POST /shutdown`; joins the prober and
    /// handoff threads before returning.
    pub fn run(self) {
        let prober = {
            let shared = Arc::clone(&self.shared);
            let cfg = self.cfg.clone();
            std::thread::spawn(move || prober_loop(&shared, &cfg))
        };
        let handoff = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handoff_loop(&shared))
        };
        let shared = Arc::clone(&self.shared);
        serve_pooled(self.listener, self.cfg.http, move |req: &Request| {
            route_request(&shared, req)
        });
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = prober.join();
        let _ = handoff.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for buckets in [1usize, 2, 3, 8, 17] {
            for i in 0..200 {
                let key = format!("{i:032x}");
                let a = route_shard(&key, buckets);
                assert_eq!(a, route_shard(&key, buckets), "stable for {key}");
                assert!(a < buckets, "{a} out of range for {buckets}");
            }
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_clamped() {
        for shards in 1..=6 {
            for i in 0..50 {
                let set = replica_set(&format!("k{i}"), shards, 3);
                assert_eq!(set.len(), 3.min(shards));
                let mut sorted = set.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), set.len(), "duplicates in {set:?}");
            }
        }
    }

    #[test]
    fn failover_delay_is_deterministic_bounded_and_jittered() {
        let a = failover_delay("mcf|profile|", 1);
        assert_eq!(a, failover_delay("mcf|profile|", 1), "replayable");
        assert!(a >= Duration::from_millis(2), "floor: {a:?}");
        assert!(a <= Duration::from_millis(50), "cap: {a:?}");
        assert_ne!(
            failover_delay("mcf|profile|", 1),
            failover_delay("lbm|profile|", 1),
            "distinct keys decorrelate"
        );
        assert!(failover_delay("x", 10) <= Duration::from_millis(50));
    }

    #[test]
    fn job_prefix_rewrite_splices_the_router_id() {
        assert_eq!(
            rewrite_job_prefix("{\"job\":17,\"state\":\"queued\"}", 900),
            "{\"job\":900,\"state\":\"queued\"}"
        );
        // Not a poll body: returned untouched.
        assert_eq!(
            rewrite_job_prefix("{\"error\":\"x\"}", 1),
            "{\"error\":\"x\"}"
        );
    }
}
