//! Parsed run requests and their store-aware execution.
//!
//! A [`RunSpec`] is the validated form of a client request ("run `lbm`
//! under the `perf-focused` static policy"). Two entry points run specs,
//! both store-first — consult the [`RunStore`], simulate only on a miss,
//! persist what was simulated, including the intermediate DDR-only
//! profile that static/migration/annotated runs depend on:
//!
//! - [`RunSpec::execute_with_progress`] runs one spec with live progress
//!   and checkpoint/resume (the server's job path);
//! - [`BatchExec`] runs a list of `(SystemConfig, RunSpec)` points in
//!   parallel, simulating each distinct missing profile once and keeping
//!   the profiles in memory (the experiment harness and the sweep engine).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ramp_avf::StatsTable;
use ramp_core::annotate::{select_annotations, AnnotationSet};
use ramp_core::config::SystemConfig;
use ramp_core::migration::MigrationScheme;
use ramp_core::placement::PlacementPolicy;
use ramp_core::runner;
use ramp_core::system::{RunHooks, RunResult, SystemSim};
use ramp_sim::exec::{try_parallel_map_metrics, ExecMetrics, StageTimer, TaskOptions};
use ramp_trace::Workload;

use crate::store::{run_key, RunKind, RunStore};

/// Policy label recorded for profile runs (a profile *is* a DDR-only run).
pub const PROFILE_POLICY: &str = "ddr-only";
/// Policy label recorded for annotated runs.
pub const ANNOTATED_POLICY: &str = "annotations";
/// Environment variable: checkpoint every K FC-interval epochs
/// (`0`/unset disables checkpointing).
pub const ENV_CKPT_EPOCHS: &str = "RAMP_CKPT_EPOCHS";

/// Reads the [`ENV_CKPT_EPOCHS`] knob: checkpoint every K epochs, 0 = off.
/// The simulator core never reads the environment; this serving-layer
/// shim is the only place the knob is interpreted.
pub fn ckpt_epochs_from_env() -> u64 {
    std::env::var(ENV_CKPT_EPOCHS)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Live progress of one executing run, shared lock-free between the
/// worker thread driving the simulation and poll responses reading it.
#[derive(Debug, Default)]
pub struct RunProgress {
    /// FC-interval epochs completed so far.
    pub epochs_done: AtomicU64,
    /// Lower-bound estimate of the run's total epochs
    /// ([`SystemConfig::epochs_estimate`]); real runs overshoot it, so
    /// `done > total` means "still running", not an error.
    pub epochs_total: AtomicU64,
    /// Epoch of the last durable checkpoint (0 = none yet).
    pub ckpt_epoch: AtomicU64,
    /// Whether this execution resumed from a checkpoint.
    pub resumed: AtomicBool,
}

/// What [`RunSpec::execute_with_progress`] produced.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The simulation result.
    pub run: RunResult,
    /// `false` when any store write of this execution failed, i.e. the
    /// result is correct but served from memory only.
    pub persisted: bool,
    /// `true` when any simulated phase of this execution (the run
    /// itself or its intermediate profile) resumed from a checkpoint
    /// instead of starting cold.
    pub resumed: bool,
}

/// Runs `build()`'s simulator to completion with epoch-granular
/// checkpointing into `store` under `key`, resuming from the newest
/// restorable checkpoint when one exists.
///
/// Torn or corrupt segments are filtered (and quarantined) by
/// [`RunStore::load_latest_checkpoint`]; a segment that *frames*
/// cleanly but fails to restore — e.g. one written for a different run
/// — is quarantined here and the walk falls back further, so worst
/// case the run simply starts cold. On completion the run's checkpoint
/// trail is removed. Returns the result and whether the run resumed.
///
/// Public because the `ramp-bench` harness drives its simulations
/// through the same path: any process that can reach the run store gets
/// kill-and-resume for free.
pub fn run_with_recovery(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
) -> (RunResult, bool) {
    run_with_recovery_every(build, key, label, store, progress, ckpt_epochs_from_env())
}

/// [`run_with_recovery`] with an explicit checkpoint interval instead of
/// the environment knob (0 disables checkpointing). The recovery test
/// suite uses this to exercise kill/resume without mutating process env.
pub fn run_with_recovery_every(
    build: impl Fn() -> SystemSim,
    key: &str,
    label: &str,
    store: Option<&RunStore>,
    progress: Option<&RunProgress>,
    ckpt_every: u64,
) -> (RunResult, bool) {
    let mut sim = build();
    let mut resumed = false;
    if ckpt_every > 0 {
        if let Some(s) = store {
            while let Some((epoch, bytes)) = s.load_latest_checkpoint(key) {
                match sim.restore_state(&bytes) {
                    Ok(()) => {
                        if let Some(p) = progress {
                            p.epochs_done.store(epoch, Ordering::Relaxed);
                            p.ckpt_epoch.store(epoch, Ordering::Relaxed);
                            p.resumed.store(true, Ordering::Relaxed);
                        }
                        // Stderr only: stdout of a resumed run must stay
                        // byte-identical to an uninterrupted one.
                        eprintln!("[ckpt] resumed {label} from epoch {epoch}");
                        resumed = true;
                        break;
                    }
                    Err(e) => {
                        s.quarantine_checkpoint(key, epoch, &format!("{e:?}"));
                        sim = build(); // restore may have partially mutated it
                    }
                }
            }
        }
    }
    let mut on_epoch = |epoch: u64| {
        if let Some(p) = progress {
            p.epochs_done.store(epoch, Ordering::Relaxed);
        }
    };
    let mut on_checkpoint = |epoch: u64, blob: Vec<u8>| {
        if let Some(s) = store {
            if s.store_checkpoint(key, epoch, &blob) {
                if let Some(p) = progress {
                    p.ckpt_epoch.store(epoch, Ordering::Relaxed);
                }
            }
        }
    };
    let run = sim.run_with_hooks(RunHooks {
        checkpoint_every: if store.is_some() { ckpt_every } else { 0 },
        on_epoch: Some(&mut on_epoch),
        on_checkpoint: Some(&mut on_checkpoint),
    });
    if ckpt_every > 0 {
        if let Some(s) = store {
            s.remove_checkpoints(key);
        }
    }
    (run, resumed)
}

/// What to do with the workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunAction {
    /// DDR-only profiling run.
    Profile,
    /// Static placement under a policy.
    Static(PlacementPolicy),
    /// Dynamic migration under a scheme.
    Migration(MigrationScheme),
    /// Programmer-annotated placement.
    Annotated,
}

/// A validated, executable run request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// The workload to run.
    pub workload: Workload,
    /// The kind of run and its policy/scheme, if any.
    pub action: RunAction,
}

impl RunSpec {
    /// Parses the `(workload, kind, policy)` triple of a client request.
    ///
    /// `kind` is one of `profile`, `static`, `migration`, `annotated`;
    /// `policy` names a [`PlacementPolicy`] for `static` runs and a
    /// [`MigrationScheme`] for `migration` runs (and must be empty
    /// otherwise). Errors are human-readable strings for 400 responses.
    pub fn parse(workload: &str, kind: &str, policy: &str) -> Result<RunSpec, String> {
        let wl = Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let action = match kind {
            "profile" | "annotated" => {
                if !policy.is_empty() {
                    return Err(format!("kind '{kind}' takes no policy"));
                }
                if kind == "profile" {
                    RunAction::Profile
                } else {
                    RunAction::Annotated
                }
            }
            "static" => RunAction::Static(
                PlacementPolicy::from_name(policy)
                    .ok_or_else(|| format!("unknown placement policy '{policy}'"))?,
            ),
            "migration" => RunAction::Migration(
                MigrationScheme::from_name(policy)
                    .ok_or_else(|| format!("unknown migration scheme '{policy}'"))?,
            ),
            _ => return Err(format!("unknown run kind '{kind}'")),
        };
        Ok(RunSpec {
            workload: wl,
            action,
        })
    }

    /// The store kind of this spec.
    pub fn kind(&self) -> RunKind {
        match self.action {
            RunAction::Profile => RunKind::Profile,
            RunAction::Static(_) => RunKind::Static,
            RunAction::Migration(_) => RunKind::Migration,
            RunAction::Annotated => RunKind::Annotated,
        }
    }

    /// The policy/scheme label recorded in results and keys.
    pub fn policy_label(&self) -> String {
        match self.action {
            RunAction::Profile => PROFILE_POLICY.to_string(),
            RunAction::Static(p) => p.name(),
            RunAction::Migration(s) => s.name().to_string(),
            RunAction::Annotated => ANNOTATED_POLICY.to_string(),
        }
    }

    /// The content-addressed store key of this run under `cfg`.
    pub fn key(&self, cfg: &SystemConfig) -> String {
        run_key(cfg, self.kind(), self.workload.name(), &self.policy_label())
    }

    /// The DDR-only profiling run of `workload`.
    pub fn profile(workload: Workload) -> RunSpec {
        RunSpec {
            workload,
            action: RunAction::Profile,
        }
    }

    /// The kind plus, for static and migration runs, the policy:
    /// `profile`, `static perf-focused`, `migration rel-fc`, `annotated`.
    /// [`BatchExec`] prints `  [{tag}] {workload}` per simulated run.
    pub fn tag(&self) -> String {
        match self.action {
            RunAction::Static(_) | RunAction::Migration(_) => {
                format!("{} {}", self.kind().label(), self.policy_label())
            }
            RunAction::Profile | RunAction::Annotated => self.kind().label().to_string(),
        }
    }

    /// Executes the spec, serving from `store` when possible and
    /// persisting whatever had to be simulated.
    pub fn execute(&self, cfg: &SystemConfig, store: Option<&RunStore>) -> RunResult {
        self.execute_with_progress(cfg, store, None).run
    }

    /// [`RunSpec::execute`] with live progress reporting, epoch-granular
    /// checkpoint/resume and persistence tracking.
    ///
    /// When `RAMP_CKPT_EPOCHS` is set (and a store is attached), every
    /// simulated phase checkpoints its full state every K epochs and —
    /// if a previous process died mid-run — resumes from the newest
    /// valid checkpoint, producing a byte-identical result to an
    /// uninterrupted run. `progress` (shared with poll responses) tracks
    /// the *requested* run; intermediate profile phases keep
    /// `epochs_done` at zero rather than reporting a misleading reset.
    pub fn execute_with_progress(
        &self,
        cfg: &SystemConfig,
        store: Option<&RunStore>,
        progress: Option<&RunProgress>,
    ) -> ExecOutcome {
        if let Some(p) = progress {
            p.epochs_total
                .store(cfg.epochs_estimate(), Ordering::Relaxed);
        }
        let key = self.key(cfg);
        if let Some((run, _)) = store.and_then(|s| self.load(s, &key)) {
            return ExecOutcome {
                run,
                persisted: true,
                resumed: false,
            };
        }
        let profile = (self.action != RunAction::Profile)
            .then(|| RunSpec::profile(self.workload).execute_with_progress(cfg, store, None));
        let ((run, _), persisted, resumed) = self.simulate(
            cfg,
            &key,
            profile.as_ref().map(|p| &p.run.table),
            store,
            progress,
        );
        ExecOutcome {
            run,
            persisted: persisted && profile.as_ref().is_none_or(|p| p.persisted),
            resumed: resumed || profile.as_ref().is_some_and(|p| p.resumed),
        }
    }

    /// This spec's entry in `store` under `key`, with its annotation set
    /// for annotated runs.
    fn load(&self, store: &RunStore, key: &str) -> Option<(RunResult, Option<AnnotationSet>)> {
        match self.action {
            RunAction::Annotated => store.load_annotated(key).map(|(run, set)| (run, Some(set))),
            _ => store.load_run(key).map(|run| (run, None)),
        }
    }

    /// Simulates this spec under `cfg`, placing pages from `profile`
    /// (every kind but a profile needs one), checkpointing through
    /// `store`, then persists the result. Returns the run (with its
    /// annotation set for annotated runs), whether the write succeeded
    /// and whether the run resumed from a checkpoint.
    fn simulate(
        &self,
        cfg: &SystemConfig,
        key: &str,
        profile: Option<&StatsTable>,
        store: Option<&RunStore>,
        progress: Option<&RunProgress>,
    ) -> ((RunResult, Option<AnnotationSet>), bool, bool) {
        let wl = self.workload;
        let table = || profile.expect("placed runs need a DDR-only profile");
        let label = format!("{}/{}", wl.name(), self.policy_label());
        let (run, resumed) = run_with_recovery(
            || match self.action {
                RunAction::Profile => runner::build_profile_sim(cfg, &wl),
                RunAction::Static(p) => runner::build_static_sim(cfg, &wl, p, table()),
                RunAction::Migration(s) => runner::build_migration_sim(cfg, &wl, s, table()),
                RunAction::Annotated => runner::build_annotated_sim(cfg, &wl, table()).0,
            },
            key,
            &label,
            store,
            progress,
        );
        let set = (self.action == RunAction::Annotated)
            .then(|| select_annotations(&wl, table(), cfg.hbm_capacity_pages as usize, cfg.seed));
        let persisted = store.is_none_or(|s| match &set {
            Some(set) => s.store_annotated(key, &run, set),
            None => s.store_run(key, &run),
        });
        ((run, set), persisted, resumed)
    }
}

/// One point of a batch: a run request and the config it runs under.
pub type Point = (SystemConfig, RunSpec);

/// A finished run, shared between a batch's run cache and its callers.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The simulation result.
    pub run: Arc<RunResult>,
    /// The annotation set an annotated run placed by (`None` otherwise).
    pub annotations: Option<Arc<AnnotationSet>>,
}

impl RunOutput {
    fn new((run, set): (RunResult, Option<AnnotationSet>)) -> RunOutput {
        RunOutput {
            run: Arc::new(run),
            annotations: set.map(Arc::new),
        }
    }
}

/// How [`BatchExec::run`] settled one point.
#[derive(Debug)]
pub enum PointOutcome {
    /// Served from the in-memory run cache or the run store.
    Cached(RunOutput),
    /// Simulated by this batch (and persisted when a store is attached).
    Simulated(RunOutput),
    /// Panicked past the retry budget, or skipped because its DDR-only
    /// profile did; the message says which, and why.
    Failed(String),
}

/// What one [`BatchExec::run`] did.
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per input point, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// DDR-only profiles simulated only as dependencies of other points.
    pub profile_sims: u64,
}

/// The store-first batch executor: the one path by which the experiment
/// harness and the sweep engine turn lists of points into runs.
///
/// [`BatchExec::run`] serves every hit first, simulates the distinct
/// missing DDR-only profiles once, then runs the remaining points from
/// those in-memory profile tables and persists each result. Runs execute
/// in parallel, one stage per kind in the order profile → static →
/// migration → annotated; each stage prints a `{kind} x{n}
/// (threads={t})` [`StageTimer`] line and one `  [{tag}] {workload}`
/// line per simulated run on stderr. Outcomes come back in input order,
/// so callers format deterministic output at any thread count.
#[derive(Debug)]
pub struct BatchExec<'a> {
    /// Worker threads.
    pub threads: usize,
    /// Persistent run store consulted first and written after each run.
    pub store: Option<&'a RunStore>,
    /// Executor counters, accumulated across batches.
    pub metrics: &'a ExecMetrics,
    /// Retry budget and fault injection for every run task.
    pub opts: &'a TaskOptions,
    /// Config of the DDR-only profile every point places pages from;
    /// `None` profiles each point under its own config.
    pub profile_cfg: Option<&'a SystemConfig>,
}

/// One simulation of a batch stage.
struct Task<'p> {
    key: String,
    cfg: &'p SystemConfig,
    spec: RunSpec,
    profile: Option<Arc<RunResult>>,
}

impl BatchExec<'_> {
    /// Settles `points`. `runs` is the in-memory run cache by run key: a
    /// point or profile found there is neither loaded nor simulated, and
    /// every run the batch loads or simulates (profile dependencies
    /// included) is added to it. Each distinct key is looked up and
    /// simulated at most once, however often it appears.
    pub fn run(&self, points: &[Point], runs: &mut HashMap<String, RunOutput>) -> BatchReport {
        let keys: Vec<String> = points.iter().map(|(cfg, spec)| spec.key(cfg)).collect();
        // Hits first; `missing` keeps the first point of each missing key.
        let mut missing: Vec<usize> = Vec::new();
        let mut missing_keys: HashSet<&str> = HashSet::new();
        for (i, (_, spec)) in points.iter().enumerate() {
            let key = keys[i].as_str();
            if runs.contains_key(key) || missing_keys.contains(key) {
                continue;
            }
            match self.store.and_then(|s| spec.load(s, key)) {
                Some(hit) => {
                    runs.insert(key.to_string(), RunOutput::new(hit));
                }
                None => {
                    missing_keys.insert(key);
                    missing.push(i);
                }
            }
        }

        // The distinct profiles the missing points need: missing profile
        // points themselves, then dependencies neither cached nor stored.
        let mut profile_tasks = Vec::new();
        let mut dep_sims: Vec<String> = Vec::new();
        let mut deps: HashMap<usize, String> = HashMap::new();
        for &i in &missing {
            let (cfg, spec) = &points[i];
            if spec.action == RunAction::Profile {
                profile_tasks.push(Task {
                    key: keys[i].clone(),
                    cfg,
                    spec: *spec,
                    profile: None,
                });
                continue;
            }
            let pcfg = self.profile_cfg.unwrap_or(cfg);
            let pspec = RunSpec::profile(spec.workload);
            let pkey = pspec.key(pcfg);
            let known = runs.contains_key(&pkey)
                || missing_keys.contains(pkey.as_str())
                || dep_sims.contains(&pkey);
            if !known {
                match self.store.and_then(|s| pspec.load(s, &pkey)) {
                    Some(hit) => {
                        runs.insert(pkey.clone(), RunOutput::new(hit));
                    }
                    None => {
                        dep_sims.push(pkey.clone());
                        profile_tasks.push(Task {
                            key: pkey.clone(),
                            cfg: pcfg,
                            spec: pspec,
                            profile: None,
                        });
                    }
                }
            }
            deps.insert(i, pkey);
        }
        let mut errors: HashMap<String, String> = HashMap::new();
        self.stage(RunKind::Profile, profile_tasks, runs, &mut errors);

        for kind in [RunKind::Static, RunKind::Migration, RunKind::Annotated] {
            let mut tasks = Vec::new();
            for &i in missing.iter().filter(|&&i| points[i].1.kind() == kind) {
                match runs.get(&deps[&i]) {
                    Some(profile) => tasks.push(Task {
                        key: keys[i].clone(),
                        cfg: &points[i].0,
                        spec: points[i].1,
                        profile: Some(Arc::clone(&profile.run)),
                    }),
                    None => {
                        let why = format!("skipped (profile unavailable: {})", errors[&deps[&i]]);
                        errors.insert(keys[i].clone(), why);
                    }
                }
            }
            self.stage(kind, tasks, runs, &mut errors);
        }

        let outcomes = keys
            .iter()
            .map(|key| match runs.get(key) {
                None => PointOutcome::Failed(errors[key].clone()),
                Some(out) if missing_keys.contains(key.as_str()) => {
                    PointOutcome::Simulated(out.clone())
                }
                Some(out) => PointOutcome::Cached(out.clone()),
            })
            .collect();
        BatchReport {
            outcomes,
            profile_sims: dep_sims.iter().filter(|k| runs.contains_key(*k)).count() as u64,
        }
    }

    /// Simulates one stage's tasks in parallel, adding each result to
    /// `runs` and each failure to `errors`.
    fn stage(
        &self,
        kind: RunKind,
        tasks: Vec<Task<'_>>,
        runs: &mut HashMap<String, RunOutput>,
        errors: &mut HashMap<String, String>,
    ) {
        if tasks.is_empty() {
            return;
        }
        let timer = StageTimer::new(format!(
            "{} x{} (threads={})",
            kind.label(),
            tasks.len(),
            self.threads
        ));
        let keys: Vec<String> = tasks.iter().map(|t| t.key.clone()).collect();
        let results = try_parallel_map_metrics(
            self.threads,
            tasks,
            self.metrics,
            None,
            self.opts,
            |_, t| {
                eprintln!("  [{}] {}", t.spec.tag(), t.spec.workload.name());
                let profile = t.profile.as_ref().map(|p| &p.table);
                t.spec.simulate(t.cfg, &t.key, profile, self.store, None).0
            },
        );
        for (key, result) in keys.into_iter().zip(results) {
            match result {
                Ok(done) => {
                    runs.insert(key, RunOutput::new(done));
                }
                Err(e) => {
                    errors.insert(key, e.to_string());
                }
            }
        }
        timer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn parse_accepts_all_kinds() {
        assert_eq!(
            RunSpec::parse("lbm", "profile", "").unwrap().action,
            RunAction::Profile
        );
        assert_eq!(
            RunSpec::parse("lbm", "static", "perf-focused")
                .unwrap()
                .action,
            RunAction::Static(PlacementPolicy::PerfFocused)
        );
        assert_eq!(
            RunSpec::parse("mcf", "migration", "rel-fc").unwrap().action,
            RunAction::Migration(MigrationScheme::RelFc)
        );
        assert_eq!(
            RunSpec::parse("mcf", "annotated", "").unwrap().action,
            RunAction::Annotated
        );
        assert!(matches!(
            RunSpec::parse("lbm", "static", "frac-hottest-0.25").unwrap().action,
            RunAction::Static(PlacementPolicy::FracHottest(f)) if (f - 0.25).abs() < 1e-12
        ));
    }

    #[test]
    fn parse_rejects_bad_triples() {
        assert!(RunSpec::parse("nope", "profile", "").is_err());
        assert!(RunSpec::parse("lbm", "profile", "perf-focused").is_err());
        assert!(RunSpec::parse("lbm", "static", "").is_err());
        assert!(RunSpec::parse("lbm", "static", "rel-fc").is_err());
        assert!(RunSpec::parse("lbm", "migration", "perf-focused").is_err());
        assert!(RunSpec::parse("lbm", "sweep", "x").is_err());
    }

    #[test]
    fn execute_hits_store_on_second_call() {
        let store = crate::store::testutil::test_store();
        let cfg = SystemConfig {
            insts_per_core: 20_000,
            ..SystemConfig::smoke_test()
        };
        let spec = RunSpec::parse("lbm", "static", "perf-focused").unwrap();
        let cold = spec.execute(&cfg, Some(&store));
        // Cold run persisted the profile and the static run.
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 2);
        let warm = spec.execute(&cfg, Some(&store));
        assert_eq!(store.metrics().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.metrics().writes.load(Ordering::Relaxed), 2);
        assert_eq!(cold.ipc.to_bits(), warm.ipc.to_bits());
        assert_eq!(cold.telemetry, warm.telemetry);
        // The cached profile also serves other policies' dependency.
        let other = RunSpec::parse("lbm", "static", "rel-focused").unwrap();
        other.execute(&cfg, Some(&store));
        assert_eq!(store.metrics().hits.load(Ordering::Relaxed), 2);
    }
}
