//! The repository benchmark: three workloads measured from outside the
//! program, each printing the common end-to-end metrics (or, with
//! `--trace 1`, every per-layer metric) and checking that the program's
//! outputs are correct. `run.py` builds the program and this binary,
//! then runs it:
//!
//! ```text
//! python3 perfbench/run.py --workload sim_single --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A correctness mismatch prints
//! `"correct": false` and exits with code 1; a setup failure exits with
//! code 2 without a result.

mod figures;
mod proc;
mod serve_warm;
mod sim_single;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use spans::Tracer;

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of the workload's generated inputs.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory holding the release binaries of the program.
    pub bin_dir: PathBuf,
    /// Scratch directory of this workload (emptied at start).
    pub work_dir: PathBuf,
}

/// Why a run ended without a result.
#[derive(Debug)]
pub enum Failure {
    /// The program produced a wrong or inconsistent output.
    Mismatch(String),
    /// The benchmark could not set up or drive the program.
    Setup(String),
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Setup(e.to_string())
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed for people but left out of the JSON result.
    infos: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records metric `name` with its unit.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a figure that is printed but is not a result metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.infos.push((name.to_string(), value, unit));
    }

    /// Adds `other`'s counts and metrics; a metric both report (the
    /// tracing overhead) is summed.
    fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, value, unit) in other.metrics {
            match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
                Some(m) => m.1 += value,
                None => self.metrics.push((name, value, unit)),
            }
        }
        self.infos.extend(other.infos);
    }
}

type Workload = fn(&Opts, &mut Tracer, &mut Report) -> Result<(), Failure>;

/// The workloads, each with the length of its pass when a traced run of
/// another workload runs it too (`figures` then runs one iteration).
const WORKLOADS: [(&str, Workload, f64); 3] = [
    ("sim_single", sim_single::run, 3.0),
    ("figures", figures::run, 1.0),
    ("serve_warm", serve_warm::run, 12.0),
];

/// Runs `workload`. Each workload's traced pass reports the per-layer
/// metrics of the layers it drives, so a traced run runs the named
/// workload for the full length and then every other workload's traced
/// pass briefly, and reports every per-layer metric.
fn run_workload(workload: &str, opts: &Opts, tracer: &mut Tracer) -> Result<Report, Failure> {
    let Some(&(_, run, _)) = WORKLOADS.iter().find(|(name, _, _)| *name == workload) else {
        return Err(Failure::Setup(format!(
            "unknown workload {workload} (sim_single, figures, serve_warm)"
        )));
    };
    let mut report = Report::default();
    run(opts, tracer, &mut report)?;
    if !opts.trace {
        return Ok(report);
    }
    for &(name, run, seconds) in WORKLOADS.iter().filter(|(name, _, _)| *name != workload) {
        let side = Opts {
            seconds,
            work_dir: opts.work_dir.join(name),
            ..opts.clone()
        };
        std::fs::create_dir_all(&side.work_dir)?;
        let mut part = Report::default();
        run(&side, tracer, &mut part)?;
        report.merge(part);
    }
    Ok(report)
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Opts {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            bin_dir: bin_dir.ok_or_else(|| missing("--bin-dir"))?,
            work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
        },
    ))
}

fn print_result(correct: bool, report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Writes the spans and prints self time per span name.
fn report_spans(tracer: &Tracer, opts: &Opts, workload: &str) -> std::io::Result<()> {
    let path = opts.work_dir.join(format!("spans-{workload}.jsonl"));
    std::fs::write(&path, tracer.to_jsonl())?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    println!(
        "  {:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in tracer.self_times() {
        println!(
            "  {name:<28} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(())
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::remove_dir_all(&opts.work_dir)
        .or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(e),
        })
        .and_then(|()| std::fs::create_dir_all(&opts.work_dir))
    {
        eprintln!("perfbench: work dir {}: {e}", opts.work_dir.display());
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(opts.trace, Instant::now());
    let outcome = run_workload(&workload, &opts, &mut tracer).and_then(|report| {
        match report
            .metrics
            .iter()
            .find(|(_, value, _)| !value.is_finite())
        {
            Some((name, _, _)) => Err(Failure::Setup(format!(
                "{name} has no finite value; lengthen the run"
            ))),
            None => Ok(report),
        }
    });
    match outcome {
        Ok(report) => {
            if opts.trace {
                if let Err(e) = report_spans(&tracer, &opts, &workload) {
                    eprintln!("perfbench: writing spans: {e}");
                    std::process::exit(2);
                }
            }
            for (name, value, unit) in report.metrics.iter().chain(&report.infos) {
                println!("{workload}: {name} = {value} {unit}");
            }
            println!(
                "{workload}: fail_ratio = {} ratio ({} failed of {} attempted)",
                report.failed as f64 / report.attempted.max(1) as f64,
                report.failed,
                report.attempted
            );
            print_result(true, &report);
        }
        Err(Failure::Mismatch(msg)) => {
            eprintln!("perfbench: {workload}: CORRECTNESS MISMATCH: {msg}");
            let report = Report {
                attempted: 1,
                failed: 1,
                ..Report::default()
            };
            print_result(false, &report);
            std::process::exit(1);
        }
        Err(Failure::Setup(msg)) => {
            eprintln!("perfbench: {workload}: {msg}");
            std::process::exit(2);
        }
    }
}
