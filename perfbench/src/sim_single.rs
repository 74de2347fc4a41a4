//! `sim_single`: the DDR-only profile of `mix1` at the Table-1 scaled
//! config, then that workload's Cross-Counter migration run, on one
//! thread with no store. Only the simulator layers work here.

use std::hint::black_box;
use std::time::Instant;

use ramp_avf::AvfTracker;
use ramp_cache::Hierarchy;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::runner::{build_migration_sim, build_profile_sim};
use ramp_core::{PageMap, RunHooks, RunResult, SystemConfig, SystemSim};
use ramp_dram::{MemRequest, MemoryKind, MemorySystem};
use ramp_sim::codec::fnv1a64;
use ramp_sim::telemetry::Snapshot;
use ramp_sim::units::Cycle;
use ramp_trace::{MemEvent, MixId, TraceRecord, Workload};

use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{proc, Failure, Opts, Report};

/// Per-core instruction budget of one run (Table 1 runs 5 M).
const INSTS_PER_CORE: u64 = 600_000;
/// Per-core budget of the front-end replays.
const REPLAY_INSTS_PER_CORE: u64 = 150_000;
/// Set-ups before the first pass; one more follows each pass, and
/// `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 3;
/// Per-core budget of the warm-up pass run during set-up.
const WARMUP_INSTS_PER_CORE: u64 = 60_000;
/// Records one core emits before the replay moves to the next core.
const REPLAY_BLOCK: usize = 32;
/// Cycles between DRAM advances in the replay (the simulator's chunk).
const CHUNK: u64 = 128;

fn config(seed: u64) -> SystemConfig {
    SystemConfig {
        insts_per_core: INSTS_PER_CORE,
        seed,
        ..SystemConfig::table1_scaled()
    }
}

/// Digest of a run's wire encoding: any change to a simulated
/// statistic changes it.
fn digest(run: &RunResult) -> u64 {
    fnv1a64(&ramp_serve::wire::encode_run(run))
}

/// Host time of one profile-then-migration pass.
struct Timing {
    wall_s: f64,
    build_s: f64,
    run_s: f64,
    epoch_gaps_ms: Vec<f64>,
    /// Simulated instructions of both runs per host second, in millions.
    mips: f64,
}

/// Runs `sim` to completion; a traced run also returns the host time
/// between consecutive epoch callbacks, in milliseconds.
fn run_sim(sim: SystemSim, traced: bool) -> (RunResult, Vec<f64>) {
    if !traced {
        return (sim.run(), Vec::new());
    }
    let mut last = Instant::now();
    let mut gaps = Vec::new();
    let mut on_epoch = |_: u64| {
        let now = Instant::now();
        gaps.push((now - last).as_secs_f64() * 1e3);
        last = now;
    };
    let run = sim.run_with_hooks(RunHooks {
        on_epoch: Some(&mut on_epoch),
        ..RunHooks::default()
    });
    (run, gaps)
}

fn pass(
    cfg: &SystemConfig,
    wl: &Workload,
    tracer: &mut Tracer,
    req: u64,
) -> (Timing, RunResult, RunResult) {
    let traced = tracer.enabled();
    let start = Instant::now();
    let root = tracer.begin("sim_single.pass", req);

    let t = Instant::now();
    let sim = tracer.span("core.build_profile_sim", req, || build_profile_sim(cfg, wl));
    let mut build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (profile, mut gaps) = tracer.span("core.run_with_hooks", req, || run_sim(sim, traced));
    let mut run_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sim = tracer.span("core.build_migration_sim", req, || {
        build_migration_sim(cfg, wl, MigrationScheme::CrossCounter, &profile.table)
    });
    build_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (cc, cc_gaps) = tracer.span("core.run_with_hooks", req, || run_sim(sim, traced));
    run_s += t.elapsed().as_secs_f64();
    gaps.extend(cc_gaps);

    tracer.end(root);
    let wall_s = start.elapsed().as_secs_f64();
    let timing = Timing {
        wall_s,
        build_s,
        run_s,
        epoch_gaps_ms: gaps,
        mips: (profile.instructions + cc.instructions) as f64 / wall_s / 1e6,
    };
    (timing, profile, cc)
}

/// Checks a pass's runs against the first pass of the run.
fn check(
    runs: (&RunResult, &RunResult),
    cfg: &SystemConfig,
    expect: &mut Option<(u64, u64)>,
) -> Result<(), Failure> {
    let budget = cfg.insts_per_core * cfg.cores as u64;
    for r in [runs.0, runs.1] {
        if r.instructions < budget || r.cycles == 0 {
            return Err(Failure::Mismatch(format!(
                "{} retired {} instructions in {} cycles (budget {budget})",
                r.policy, r.instructions, r.cycles
            )));
        }
    }
    let got = (digest(runs.0), digest(runs.1));
    match expect {
        None => {
            println!(
                "sim_single: digest profile={:016x} cross-counter={:016x}",
                got.0, got.1
            );
            *expect = Some(got);
            Ok(())
        }
        Some(want) if *want == got => Ok(()),
        Some(want) => Err(Failure::Mismatch(format!(
            "run digests changed between repeats of one seed: {want:016x?} then {got:016x?}"
        ))),
    }
}

/// One set-up: build the simulator and warm up on a short pass.
fn set_up(cfg: &SystemConfig, warmup: &SystemConfig, wl: &Workload) -> f64 {
    let t = Instant::now();
    black_box(build_profile_sim(cfg, wl));
    black_box(pass(warmup, wl, &mut Tracer::new(false, t), 0));
    t.elapsed().as_secs_f64()
}

/// Measures `sim_single`.
pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Result<(), Failure> {
    let cfg = config(opts.seed);
    let wl = Workload::Mix(MixId::Mix1);

    // Set-up: build the simulators and warm up on a short pass.
    let warmup = SystemConfig {
        insts_per_core: WARMUP_INSTS_PER_CORE,
        ..cfg.clone()
    };
    let mut setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| set_up(&cfg, &warmup, &wl))
        .collect();

    let mut expect = None;
    let mut untraced: Vec<Timing> = Vec::new();
    let mut traced: Vec<Timing> = Vec::new();
    // Only the last pass's runs stay alive, so memory does not grow with
    // the number of passes.
    let mut last = None;
    let mut off = Tracer::new(false, Instant::now());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || untraced.is_empty() {
        let (t, profile, cc) = pass(&cfg, &wl, &mut off, 0);
        check((&profile, &cc), &cfg, &mut expect)?;
        untraced.push(t);
        if !opts.trace {
            // Set-up is timed between passes too, so that `setup_s`
            // samples the host's speed over the whole run as `op_ms`
            // does, not only during its first second.
            setup.push(set_up(&cfg, &warmup, &wl));
        } else {
            let (t, profile, cc) = pass(&cfg, &wl, tracer, traced.len() as u64 + 1);
            check((&profile, &cc), &cfg, &mut expect)?;
            traced.push(t);
            last = Some((profile, cc));
        }
    }
    report.attempted = (untraced.len() + traced.len()) as u64;

    if !opts.trace {
        // One operation is one profile-then-migration pass.
        let walls: Vec<f64> = untraced.iter().map(|t| t.wall_s * 1e3).collect();
        let rates: Vec<f64> = untraced.iter().map(|t| t.mips).collect();
        crate::stats::print_summary("sim_single", "setup", "s", &setup);
        crate::stats::print_summary("sim_single", "pass", "ms", &walls);
        crate::stats::print_summary("sim_single", "pass", "Minst/s", &rates);
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_ms", median(&walls), "ms");
        let busy: f64 = untraced.iter().map(|t| t.wall_s).sum();
        report.metric("ops_per_s", untraced.len() as f64 / busy, "1/s");
        report.metric("peak_rss_mb", proc::peak_rss_self_mb(), "MiB");
        report.info("sim_mips", median(&rates), "Minst/s");
        return Ok(());
    }

    let wall = |v: &[Timing]| median(&v.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let (untraced_wall, traced_wall) = (wall(&untraced), wall(&traced));
    report.metric(
        "tracing.overhead_ms",
        (traced_wall - untraced_wall) * 1e3,
        "ms",
    );
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.epoch_gaps_ms.clone())
        .collect();
    let (profile, cc) = last.expect("at least one traced pass");
    report.metric(
        "core.build_ms",
        median(&traced.iter().map(|p| p.build_s * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    report.metric(
        "core.run_s",
        median(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>()),
        "s",
    );
    report.metric("core.epoch_ms_p50", median(&gaps), "ms");
    report.metric("core.epoch_ms_max", percentile(&gaps, 100.0), "ms");

    let capacity = cfg.hbm_capacity_pages as usize;
    let mut selects = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        tracer.span("core.select", 0, || {
            black_box(PlacementPolicy::Balanced.select(&profile.table, capacity));
            black_box(PlacementPolicy::Wr2Ratio.select(&profile.table, capacity));
        });
        selects.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("core.select_ms", median(&selects), "ms");

    let t = &cc.telemetry;
    report.metric("core.epochs", counter(t, "system", "epochs"), "count");
    report.metric("core.migrations", cc.migrations as f64, "count");
    report.metric("core.sim_cycles", cc.cycles as f64, "cycles");
    report.metric("core.ipc", cc.ipc, "inst/cycle");
    let (mut l1_hits, mut l1_all) = (0.0, 0.0);
    for core in 0..cfg.hierarchy.cores {
        let scope = format!("cache.l1.core{core:02}");
        let hits = counter(t, &scope, "hits");
        l1_hits += hits;
        l1_all += hits + counter(t, &scope, "misses");
    }
    report.metric("cache.l1_hit_ratio", l1_hits / l1_all, "ratio");
    let l2_misses = counter(t, "cache.l2", "misses");
    report.metric(
        "cache.l2_miss_ratio",
        l2_misses / (l2_misses + counter(t, "cache.l2", "hits")),
        "ratio",
    );
    report.metric(
        "cache.mem_events",
        (cc.hbm_accesses + cc.ddr_accesses) as f64,
        "count",
    );
    for mem in ["hbm", "ddr"] {
        let scope = format!("dram.{mem}");
        let ratio = t
            .get(&scope, "row_hit_ratio")
            .and_then(|s| s.as_ratio())
            .unwrap_or(0.0);
        report.metric(&format!("dram.{mem}.row_hit_ratio"), ratio, "ratio");
        let reads: f64 = t
            .scopes()
            .filter(|(s, _)| s.starts_with(&format!("{scope}.ch")))
            .filter_map(|(_, stats)| stats.get("reads").and_then(|s| s.as_counter()))
            .map(|v| v as f64)
            .sum();
        report.metric(&format!("dram.{mem}.reads"), reads, "count");
    }

    println!("sim_single: trace/cache/dram/avf figures below are replay estimates, not a split of core.run_s");
    replays(&cfg, &wl, tracer, report);
    Ok(())
}

fn counter(t: &Snapshot, scope: &str, name: &str) -> f64 {
    t.get(scope, name).and_then(|s| s.as_counter()).unwrap_or(0) as f64
}

/// Replays the front end layer by layer over the streams
/// `Workload::build_cores` gives the simulator: trace generation, then
/// the cache hierarchy on those records, then DRAM and AVF tracking on
/// the hierarchy's memory events.
fn replays(cfg: &SystemConfig, wl: &Workload, tracer: &mut Tracer, report: &mut Report) {
    let t = Instant::now();
    let records = tracer.span("trace.next", 0, || trace_records(cfg, wl));
    let gen_s = t.elapsed().as_secs_f64();
    report.metric("trace.records", records.len() as f64, "count");
    report.metric(
        "trace.ns_per_record",
        gen_s * 1e9 / records.len() as f64,
        "ns",
    );

    let t = Instant::now();
    let events = tracer.span("cache.access", 0, || {
        let mut h = Hierarchy::new(cfg.hierarchy);
        let mut out = Vec::new();
        let mut events: Vec<MemEvent> = Vec::with_capacity(records.len() / 4);
        for &(core, rec) in &records {
            out.clear();
            h.access(core, rec.addr.line(), rec.kind, &mut out);
            events.extend_from_slice(&out);
        }
        events
    });
    let cache_s = t.elapsed().as_secs_f64();
    report.metric(
        "cache.ns_per_access",
        cache_s * 1e9 / records.len() as f64,
        "ns",
    );

    let mut pagemap = PageMap::new(cfg.hbm_capacity_pages);
    let requests: Vec<MemRequest> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let (_, line) = pagemap.frame_line(ev.line.page(), ev.line.line_in_page());
            MemRequest {
                id: i as u64,
                line,
                kind: ev.kind,
                core: ev.core,
                arrive: Cycle(0),
            }
        })
        .collect();
    let t = Instant::now();
    let completed = tracer.span("dram.enqueue_advance", 0, || {
        replay_dram(MemorySystem::ddr3(), &requests) + replay_dram(MemorySystem::hbm(), &requests)
    });
    let dram_s = t.elapsed().as_secs_f64();
    assert_eq!(completed, 2 * requests.len(), "DRAM replay lost requests");
    report.metric("dram.ns_per_request", dram_s * 1e9 / completed as f64, "ns");

    let t = Instant::now();
    let pages = tracer.span("avf.on_access_finish", 0, || {
        let mut avf = AvfTracker::new(Cycle::ZERO);
        for (i, ev) in events.iter().enumerate() {
            avf.on_access(
                ev.line.page(),
                ev.line.line_in_page(),
                ev.kind,
                Cycle(i as u64 * 4),
                MemoryKind::Ddr,
            );
        }
        avf.finish(Cycle(events.len() as u64 * 4 + 1)).pages().len()
    });
    let avf_s = t.elapsed().as_secs_f64();
    report.metric(
        "avf.ns_per_access",
        avf_s * 1e9 / events.len().max(1) as f64,
        "ns",
    );
    report.metric("avf.pages", pages as f64, "count");
}

fn trace_records(cfg: &SystemConfig, wl: &Workload) -> Vec<(usize, TraceRecord)> {
    let mut gens = wl.build_cores(cfg.seed, REPLAY_INSTS_PER_CORE);
    let mut retired = vec![0u64; gens.len()];
    let mut records = Vec::with_capacity(gens.len() * REPLAY_INSTS_PER_CORE as usize / 2);
    while retired.iter().any(|&r| r < REPLAY_INSTS_PER_CORE) {
        for (core, gen) in gens.iter_mut().enumerate() {
            for _ in 0..REPLAY_BLOCK {
                if retired[core] >= REPLAY_INSTS_PER_CORE {
                    break;
                }
                let rec = gen.next().expect("trace streams are infinite");
                retired[core] += rec.instructions();
                records.push((core, rec));
            }
        }
    }
    records
}

/// Feeds `requests` to `mem` as fast as its queues accept them,
/// advancing one chunk whenever a queue is full, then drains it.
/// Returns the number of completions.
fn replay_dram(mut mem: MemorySystem, requests: &[MemRequest]) -> usize {
    let mut now = 0u64;
    let mut out = Vec::new();
    let mut done = 0;
    for req in requests {
        let mut req = *req;
        loop {
            req.arrive = Cycle(now);
            if mem.enqueue(req).is_ok() {
                break;
            }
            now += CHUNK;
            mem.advance(Cycle(now), &mut out);
            done += out.len();
            out.clear();
        }
    }
    while !mem.is_idle() {
        now += CHUNK;
        mem.advance(Cycle(now), &mut out);
        done += out.len();
        out.clear();
    }
    done
}
