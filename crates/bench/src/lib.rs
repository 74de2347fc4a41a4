//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers).
//!
//! Each figure has its own binary (`cargo run --release -p ramp-bench
//! --bin fig05_perf_static`); `all_experiments` runs the whole suite,
//! sharing profiling passes and baseline runs through [`Harness`].
//!
//! Every simulation is a point: a `(SystemConfig, RunSpec)` pair naming
//! the workload, the run kind and its policy or scheme, and the config.
//! [`Harness::prewarm`] hands a list of points to the store-first batch
//! executor ([`BatchExec`]), which shards the missing runs across cores
//! with [`ramp_sim::exec`] (`-j N`, `--threads N` or `RAMP_THREADS`;
//! default: all cores). The figure code then reads the cached results
//! through the typed accessors and formats them sequentially — stdout is
//! byte-identical at every thread count.
//!
//! The harness is also backed by the persistent `ramp_serve` run store
//! (`target/ramp-store/` by default; `RAMP_STORE=off` disables,
//! `RAMP_STORE_DIR` relocates): the executor resolves store hits before
//! simulating and persists what it simulated, so a second invocation of
//! any experiment binary performs **zero** simulations and prints
//! byte-identical stdout. With the store off, the harness's own run cache
//! still simulates each distinct run once per process. Store hit/miss
//! counters are volatile process observability and surface only in the
//! `RAMP_STATS=table` epilogue, never in the deterministic `json`
//! document.

pub mod microbench;
pub mod scorecard;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ramp_core::annotate::AnnotationSet;
use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::system::RunResult;
use ramp_serve::spec::{BatchExec, Point, PointOutcome, RunAction, RunOutput, RunSpec};
use ramp_serve::store::RunStore;
use ramp_sim::chaos;
use ramp_sim::exec::{ExecMetrics, TaskOptions};
use ramp_sim::telemetry::{render_runs_json, render_runs_table, Snapshot, StatRegistry};
use ramp_trace::Workload;

/// Environment variable overriding the per-core instruction budget.
pub const ENV_INSTS: &str = "RAMP_INSTS";
/// Environment variable overriding the workload list (comma-separated).
pub const ENV_WORKLOADS: &str = "RAMP_WORKLOADS";
/// Environment variable overriding the worker-thread count.
pub const ENV_THREADS: &str = "RAMP_THREADS";
/// Environment variable selecting the telemetry dump appended to a
/// binary's output: `json` (deterministic machine-readable snapshot) or
/// `table` (human-readable, includes volatile executor stats).
pub const ENV_STATS: &str = "RAMP_STATS";

/// Worker threads for the experiment binaries: `-j N` / `-jN` /
/// `--threads N` on the command line, else `RAMP_THREADS`, else all
/// available cores.
pub fn threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "-j" || a == "--threads" {
            if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(rest) = a.strip_prefix("-j") {
            if let Ok(n) = rest.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    ramp_sim::exec::default_threads()
}

/// The experiment configuration: Table 1 scaled, with env overrides.
pub fn experiment_config() -> SystemConfig {
    let mut cfg = SystemConfig::table1_scaled();
    if let Ok(v) = std::env::var(ENV_INSTS) {
        if let Ok(n) = v.parse::<u64>() {
            cfg.insts_per_core = n.max(10_000);
        }
    }
    cfg
}

/// The evaluated workloads (14 by default; `RAMP_WORKLOADS=mix1,lbm` to
/// restrict).
pub fn workloads() -> Vec<Workload> {
    if let Ok(list) = std::env::var(ENV_WORKLOADS) {
        let picked: Vec<Workload> = list
            .split(',')
            .filter_map(|n| Workload::from_name(n.trim()))
            .collect();
        if !picked.is_empty() {
            return picked;
        }
    }
    Workload::all()
}

/// A run cache keyed by run key over the store-first batch executor:
/// multi-figure binaries execute each simulation exactly once, and
/// [`Harness::prewarm`] executes the missing ones in parallel.
#[derive(Debug)]
pub struct Harness {
    /// The system configuration of every run the typed accessors read.
    pub cfg: SystemConfig,
    /// Worker threads of [`Harness::prewarm`].
    pub threads: usize,
    /// Executor counters accumulated across every prewarm (steal counts,
    /// busy time; volatile — table mode only).
    pub metrics: ExecMetrics,
    store: Option<RunStore>,
    failures: Vec<String>,
    /// Every run resolved so far, by run key (any config).
    runs: HashMap<String, RunOutput>,
    /// Telemetry label → run key of each run read through a typed
    /// accessor: the runs the figures show, at [`Harness::cfg`].
    read: BTreeMap<String, String>,
}

impl Harness {
    /// Creates a harness around the (env-adjusted) experiment config,
    /// backed by the environment-configured persistent run store.
    pub fn new() -> Self {
        Self::with_store(RunStore::from_env())
    }

    /// Creates a harness with an explicit store (or none): tests use this
    /// to point at a scratch directory without touching the environment.
    pub fn with_store(store: Option<RunStore>) -> Self {
        Harness {
            cfg: experiment_config(),
            threads: threads(),
            metrics: ExecMetrics::new(),
            store,
            failures: Vec::new(),
            runs: HashMap::new(),
            read: BTreeMap::new(),
        }
    }

    /// The persistent run store backing this harness, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Runs that failed (panicked past the retry budget) during a
    /// prewarm, plus runs skipped because their profile failed.
    /// Empty unless `RAMP_CHAOS` (or a simulator bug) is in play — the
    /// harness isolates such failures per task, reports them in
    /// [`finish`]'s epilogue and keeps going with the runs that survived.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The points `wls × actions` at the experiment config,
    /// workload-major.
    pub fn grid(&self, wls: &[Workload], actions: &[RunAction]) -> Vec<Point> {
        wls.iter()
            .flat_map(|&workload| {
                actions
                    .iter()
                    .map(move |&action| (self.cfg.clone(), RunSpec { workload, action }))
            })
            .collect()
    }

    /// Resolves every point not yet cached through the batch executor:
    /// store hits first, each missing DDR-only profile once (under the
    /// experiment config, whatever the point's own config), then the
    /// remaining runs in parallel, persisting each. Tasks run under the
    /// `RAMP_CHAOS` retry budget and fault injection.
    pub fn prewarm(&mut self, points: &[Point]) {
        self.execute(points, &TaskOptions::from_env());
    }

    fn execute(&mut self, points: &[Point], opts: &TaskOptions) {
        let report = BatchExec {
            threads: self.threads,
            store: self.store.as_ref(),
            metrics: &self.metrics,
            opts,
            profile_cfg: Some(&self.cfg),
        }
        .run(points, &mut self.runs);
        for ((_, spec), outcome) in points.iter().zip(report.outcomes) {
            if let PointOutcome::Failed(e) = outcome {
                let wl = spec.workload.name();
                self.failures.push(format!("{} {wl}: {e}", spec.tag()));
            }
        }
    }

    /// The run of `spec` under `cfg`. A run no prewarm resolved — not
    /// listed, or failed there — runs on the spot with neither retries
    /// nor injected task faults, so a chaos run still reaches the
    /// simulator's own fault sites (`sim.checkpoint`).
    ///
    /// # Panics
    ///
    /// Panics with the failure if the run fails.
    pub fn run(&mut self, cfg: &SystemConfig, spec: RunSpec) -> RunOutput {
        let key = spec.key(cfg);
        if !self.runs.contains_key(&key) {
            self.execute(&[(cfg.clone(), spec)], &TaskOptions::none());
        }
        match self.runs.get(&key) {
            Some(out) => out.clone(),
            None => panic!(
                "{}",
                self.failures
                    .last()
                    .expect("a run missing after execution failed")
            ),
        }
    }

    /// [`Harness::run`] at the experiment config, listed in the telemetry
    /// document as `{kind}/{workload}[/{policy}]`.
    fn read(&mut self, spec: RunSpec) -> RunOutput {
        let cfg = self.cfg.clone();
        let out = self.run(&cfg, spec);
        let (kind, wl) = (spec.kind().label(), spec.workload.name());
        let label = match spec.action {
            RunAction::Static(_) | RunAction::Migration(_) => {
                format!("{kind}/{wl}/{}", spec.policy_label())
            }
            RunAction::Profile | RunAction::Annotated => format!("{kind}/{wl}"),
        };
        self.read.insert(label, spec.key(&cfg));
        out
    }

    /// The DDR-only profiling run for `workload`.
    pub fn profile(&mut self, wl: &Workload) -> Arc<RunResult> {
        self.read(RunSpec::profile(*wl)).run
    }

    /// A static-placement run under `policy`.
    pub fn static_run(&mut self, wl: &Workload, policy: PlacementPolicy) -> Arc<RunResult> {
        self.read(RunSpec {
            workload: *wl,
            action: RunAction::Static(policy),
        })
        .run
    }

    /// A dynamic-migration run under `scheme`.
    pub fn migration_run(&mut self, wl: &Workload, scheme: MigrationScheme) -> Arc<RunResult> {
        self.read(RunSpec {
            workload: *wl,
            action: RunAction::Migration(scheme),
        })
        .run
    }

    /// The annotation run (Section 7) for `workload` and its annotations.
    pub fn annotated_run(&mut self, wl: &Workload) -> (Arc<RunResult>, Arc<AnnotationSet>) {
        let out = self.read(RunSpec {
            workload: *wl,
            action: RunAction::Annotated,
        });
        let set = out.annotations.expect("annotated runs carry their set");
        (out.run, set)
    }

    /// The telemetry snapshot of every run read through a typed accessor,
    /// labelled `profile/{wl}`, `static/{wl}/{policy}`,
    /// `migration/{wl}/{scheme}` or `annotated/{wl}` and sorted by label
    /// (deterministic). Runs only prewarmed, or run under another config,
    /// are not listed.
    pub fn telemetry_runs(&self) -> Vec<(String, Snapshot)> {
        self.read
            .iter()
            .map(|(label, key)| (label.clone(), self.runs[key].run.telemetry.clone()))
            .collect()
    }

    /// Workloads ordered by decreasing MPKI (how Figures 7/8 order their
    /// x-axes: bandwidth-intensive on the left).
    pub fn workloads_by_mpki(&mut self, wls: &[Workload]) -> Vec<Workload> {
        let mut v: Vec<(f64, Workload)> =
            wls.iter().map(|wl| (self.profile(wl).mpki, *wl)).collect();
        v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        v.into_iter().map(|(_, w)| w).collect()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// Figure 13's FC-interval sweep as table rows: each workload's IPC under
/// performance-focused FC migration at each interval. The interval
/// configs are ordinary points, so a warm store serves them like every
/// other run.
pub fn fc_interval_rows(h: &mut Harness, wls: &[Workload], intervals: &[u64]) -> Vec<Vec<String>> {
    // Every interval places pages from the experiment config's profile:
    // read it like any figure input, so the telemetry lists it.
    for wl in wls {
        h.profile(wl);
    }
    let points: Vec<Point> = wls
        .iter()
        .flat_map(|&workload| {
            let base = &h.cfg;
            intervals.iter().map(move |&iv| {
                let cfg = SystemConfig {
                    fc_interval_cycles: iv,
                    ..base.clone()
                };
                let action = RunAction::Migration(MigrationScheme::PerfFc);
                (cfg, RunSpec { workload, action })
            })
        })
        .collect();
    h.prewarm(&points);
    wls.iter()
        .zip(points.chunks(intervals.len()))
        .map(|(wl, row)| {
            let ipcs = row
                .iter()
                .map(|(cfg, spec)| format!("{:.3}", h.run(cfg, *spec).run.ipc));
            std::iter::once(wl.name().to_string()).chain(ipcs).collect()
        })
        .collect()
}

/// The shared epilogue of every experiment binary: dumps the cached
/// runs' telemetry to stdout when `RAMP_STATS` is set.
///
/// `json` emits one deterministic document (byte-identical at any thread
/// count *and* across cold/warm store runs — golden-tested by
/// `tests/golden_stats.rs`); `table` emits human-readable tables plus
/// the volatile process stats: executor counters and, when a store is
/// configured, its hit/miss/write counters (`[store]` section). Call
/// this as the last line of an experiment binary's `main`.
pub fn finish(h: &Harness) {
    // Failed/skipped runs are reported unconditionally (stderr, so the
    // deterministic stdout stays byte-identical), before the RAMP_STATS
    // gate: a chaos run without stats must still account for every task.
    if !h.failures.is_empty() {
        eprintln!(
            "[harness] {} run(s) failed or were skipped:",
            h.failures.len()
        );
        for f in &h.failures {
            eprintln!("  [failed] {f}");
        }
    }
    let Ok(mode) = std::env::var(ENV_STATS) else {
        return;
    };
    let runs = h.telemetry_runs();
    match mode.trim() {
        "json" => {
            // The JSON document must stay byte-identical across thread
            // counts (golden-tested), so the measurement context rides
            // on stderr instead of inside the payload.
            eprintln!(
                "[bench] context: threads={} profile={}",
                h.threads,
                scorecard::build_profile()
            );
            println!("{}", render_runs_json(&runs));
        }
        "table" => {
            print!("{}", render_runs_table(&runs));
            let mut reg = StatRegistry::new();
            h.metrics.export_telemetry(&mut reg, "exec");
            if let Some(store) = h.store() {
                store.export_telemetry(&mut reg, "store");
            }
            if let Some(chaos) = chaos::global() {
                chaos.export_telemetry(&mut reg, "chaos");
            }
            println!("=== harness ===");
            println!(
                "threads = {} | profile = {}",
                h.threads,
                scorecard::build_profile()
            );
            print!("{}", reg.snapshot_full().to_table());
        }
        other => eprintln!("{ENV_STATS}={other}: expected `json` or `table`"),
    }
}

/// A static-policy comparison row: IPC and SER relative to the
/// performance-focused placement (how Figures 7-11 are normalized).
#[derive(Clone, Debug)]
pub struct RelativeRow {
    /// Workload name.
    pub workload: String,
    /// IPC of the policy divided by perf-focused IPC.
    pub ipc_rel: f64,
    /// SER reduction factor: perf-focused SER divided by policy SER.
    pub ser_reduction: f64,
}

/// Runs `policy` against the performance-focused baseline over `wls`.
pub fn static_vs_perf(
    h: &mut Harness,
    wls: &[Workload],
    policy: PlacementPolicy,
) -> Vec<RelativeRow> {
    wls.iter()
        .map(|wl| {
            let base = h.static_run(wl, PlacementPolicy::PerfFocused);
            let run = h.static_run(wl, policy);
            RelativeRow {
                workload: wl.name().to_string(),
                ipc_rel: run.ipc / base.ipc,
                ser_reduction: base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Runs migration `scheme` against the performance-focused migration
/// baseline over `wls` (how Figures 14/15 are normalized).
pub fn migration_vs_perf(
    h: &mut Harness,
    wls: &[Workload],
    scheme: MigrationScheme,
) -> Vec<RelativeRow> {
    wls.iter()
        .map(|wl| {
            let base = h.migration_run(wl, MigrationScheme::PerfFc);
            let run = h.migration_run(wl, scheme);
            RelativeRow {
                workload: wl.name().to_string(),
                ipc_rel: run.ipc / base.ipc,
                ser_reduction: base.ser_fit / run.ser_fit.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// Prints relative rows plus their means, paper-style.
pub fn print_relative(title: &str, rows: &[RelativeRow], paper_ipc_loss: &str, paper_ser: &str) {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.3}", r.ipc_rel),
                fmt_x(r.ser_reduction),
            ]
        })
        .collect();
    print_table(
        title,
        &["workload", "IPC vs perf-focused", "SER reduction"],
        &data,
    );
    let ipc_mean = geomean_or_one(&rows.iter().map(|r| r.ipc_rel).collect::<Vec<_>>());
    let ser_mean = geomean_or_one(&rows.iter().map(|r| r.ser_reduction).collect::<Vec<_>>());
    println!(
        "\nmean: IPC loss {:.1}% (paper: {paper_ipc_loss}), SER reduction {} (paper: {paper_ser})",
        (1.0 - ipc_mean) * 100.0,
        fmt_x(ser_mean),
    );
}

/// Prints a markdown table: header row plus aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a ratio the way the paper quotes it ("1.60x").
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean helper that tolerates empty input.
pub fn geomean_or_one(xs: &[f64]) -> f64 {
    ramp_sim::stats::geomean(xs).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workload_list_is_fourteen() {
        if std::env::var(ENV_WORKLOADS).is_err() {
            assert_eq!(workloads().len(), 14);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(1.6), "1.60x");
        assert_eq!(fmt_pct(0.049), "4.9%");
        assert_eq!(geomean_or_one(&[]), 1.0);
    }
}
