//! `perfbench`: the repository's end-to-end TPC-H benchmark.
//!
//! ```text
//! perfbench --workload <power|serve|spill> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list-metrics
//! ```
//!
//! Each run sets the data up several times, computes a referee answer for
//! every distinct request, measures a closed loop for `--seconds` seconds,
//! checks every answer against its referee, and prints one JSON object as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` adds a traced pass and reports the per-layer ones.
//! A run report (and, when traced, the benchmark's spans) is written under
//! `.perfbench_out/`. See README.md for the workloads and metrics.

mod engine;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_str, result_line, Ledger, Metrics, Obj, END_TO_END};

/// Where run reports, span files and exact-count ledgers go, relative to
/// the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// The workloads, in the order `--list-metrics` prints them.
const WORKLOADS: [&str; 3] = ["power", "serve", "spill"];

/// Parsed command line.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the request stream.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Client and engine threads (the host's available parallelism).
    pub threads: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Timed requests attempted.
    pub attempted: u64,
    /// Timed requests that failed, were refused, or were degraded.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Correctness violations: any one makes the run incorrect.
    pub problems: Vec<String>,
    /// Failure messages of failed requests (kept for the report).
    pub notes: Vec<String>,
    /// Counts that must repeat exactly for this program, workload and seed.
    pub ledger: Ledger,
    /// Workload-specific report fields.
    pub report: Obj,
    /// The benchmark's spans, as JSON lines, when traced.
    pub spans: Option<String>,
}

impl Outcome {
    /// Records a correctness violation.
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 100 {
            self.problems.push(msg);
        }
    }

    /// Records a failed request's message.
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 100 {
            self.notes.push(msg);
        }
    }
}

fn parse_args() -> Result<Option<RunArgs>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }))
}

fn list_metrics() {
    println!("end-to-end (--trace 0), every workload:");
    for (n, u) in END_TO_END {
        println!("  {n} [{u}]");
    }
    println!("per-layer (--trace 1), every workload (0 where a workload bypasses the layer):");
    for (n, u) in report::per_layer() {
        println!("  {n} [{u}]");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            list_metrics();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <power|serve|spill> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "power" => engine::run(&engine::EngineWorkload::power(args.threads), &args),
        "spill" => engine::run(&engine::EngineWorkload::spill(args.threads), &args),
        _ => serve::run(&args),
    };
    finish(&args, out)
}

/// Checks the exact counts against earlier runs, writes the run report and
/// spans, and prints the result line.
fn finish(args: &RunArgs, mut out: Outcome) -> ExitCode {
    let dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
    }
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    for diff in out.ledger.check_against_previous(&dir, &tag) {
        out.problem(format!("exact count did not repeat: {diff}"));
    }
    let correct = out.problems.is_empty();
    let printed = out.metrics.select(args.trace);
    let metrics_json = printed
        .iter()
        .fold(Obj::default(), |o, (n, v, u)| {
            o.raw(n, Obj::default().num("value", *v).str("unit", u).finish())
        })
        .finish();
    let ledger_json =
        out.ledger.0.iter().fold(Obj::default(), |o, (k, v)| o.raw(k, v.to_string())).finish();
    let report = Obj::default()
        .str("workload", &args.workload)
        .raw("seed", args.seed.to_string())
        .num("seconds", args.seconds)
        .raw("trace", args.trace.to_string())
        .raw("threads", args.threads.to_string())
        .num("sf", setup::SF)
        .raw("correct", correct.to_string())
        .raw("attempted", out.attempted.to_string())
        .raw("failed", out.failed.to_string())
        .raw("problems", report::array(out.problems.iter().map(|p| json_str(p))))
        .raw("failures", report::array(out.notes.iter().map(|p| json_str(p))))
        .raw("metrics", metrics_json)
        .raw("exact_counts", ledger_json)
        .raw("workload_report", std::mem::take(&mut out.report).finish())
        .finish();
    let write = |name: String, body: &str| {
        if let Err(e) = std::fs::write(dir.join(&name), body) {
            eprintln!("perfbench: cannot write {name}: {e}");
        }
    };
    write(format!("{tag}.json"), &report);
    if let Some(spans) = &out.spans {
        write(format!("{tag}.spans.jsonl"), spans);
    }

    for p in &out.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    for (n, v, u) in &printed {
        eprintln!("{n:>40} {v:>16.6} {u}");
    }
    println!("{}", result_line(correct, out.attempted, out.failed, &printed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
