//! The sailing benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it records spans around each call the
//! benchmark makes into a layer, writes them to `<work-dir>/trace-*.jsonl`
//! and reports the per-layer metrics instead. Every run checks the
//! program's outputs; a failed check counts as a failed operation. The
//! last line of standard output is the result object, with metric names
//! and values (`run.py` adds the units from `BENCHMARK.json`); the lines
//! before it (`# ...` notes and one `counts {...}` line of exact work
//! counts) are for people and for `steady.py`.

mod discovery;
mod disk;
mod inputs;
mod layers;
mod rss;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use trace::Span;

/// Each layer and the metric that reports its self time per traced
/// operation.
pub const LAYERS: &[(&str, &str)] = &[
    ("model", "model.self_ms"),
    ("core", "core.self_ms"),
    ("engine", "engine.self_ms"),
    ("persist", "persist.self_ms"),
    ("ingest", "ingest.self_ms"),
    ("serve", "serve.self_ms"),
    ("query", "query.self_ms"),
    ("fusion", "fusion.self_ms"),
    ("recommend", "recommend.self_ms"),
];

pub const WORKLOADS: &[&str] = &["cold_discovery", "disk_reopen", "serve_ingest"];

/// Set-up is repeated this many times before the first round of
/// operations and again after every round; `setup_s` is the median of all
/// repetitions, so it samples the whole run and not only its first
/// milliseconds.
pub const SETUP_REPS_PER_ROUND: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// What a workload hands back: operation accounting, its metrics for the
/// requested mode, its exact work counts, and (traced runs) its spans.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub counts: Vec<(&'static str, u64)>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records the end-to-end metrics every workload shares. `tail_q` is
    /// the workload's fixed tail percentile; a note flags a run too short
    /// to leave ten samples beyond it.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        ops: &stats::Histogram,
        tail_q: f64,
        ops_per_s: f64,
        precision: f64,
    ) {
        let n = ops.len() as usize;
        let beyond = stats::samples_beyond(n, tail_q);
        self.note(format!(
            "op_tail_ms is p{} of {n} samples ({beyond} beyond it)",
            tail_q * 100.0
        ));
        if beyond < stats::MIN_BEYOND_TAIL {
            let best =
                stats::tail_quantile(n, &[0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999]);
            self.note(format!(
                "warning: too few samples for p{}; this run supports {best:?}",
                tail_q * 100.0
            ));
        }
        let ms = |q: f64| ops.quantile_ns(q).expect("at least one operation") / 1e6;
        self.note(format!(
            "op latency ms: p50 {:.6}  p90 {:.6}  p99 {:.6}  p99.9 {:.6}  max {:.6}",
            ms(0.5),
            ms(0.9),
            ms(0.99),
            ms(0.999),
            ms(1.0)
        ));
        let setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
        self.note(format!(
            "set-up ms over {} repetitions: min {:.4}  p25 {:.4}  p50 {:.4}  p75 {:.4}  max {:.4}",
            setup_ms.len(),
            stats::quantile(&setup_ms, 0.0),
            stats::quantile(&setup_ms, 0.25),
            stats::median(&setup_ms),
            stats::quantile(&setup_ms, 0.75),
            stats::quantile(&setup_ms, 1.0)
        ));
        self.metric("setup_s", stats::median(setup_s));
        self.metric("op_p50_ms", ms(0.5));
        self.metric("op_tail_ms", ms(tail_q));
        self.metric("ops_per_s", ops_per_s);
        self.metric("precision", precision);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                let line = format!("check failed: {}", what());
                self.note(line);
            }
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        run_for: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("missing --trace")?,
        work_dir,
    })
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {err}", args.work_dir.display());
        std::process::exit(1);
    }
    let mut outcome = match args.workload.as_str() {
        "cold_discovery" => discovery::run(&args),
        "disk_reopen" => disk::run(&args),
        "serve_ingest" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };

    if args.trace {
        layers::derive(&mut outcome);
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => outcome.note(format!("spans written to {}", path.display())),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    } else {
        match rss::peak_rss_mib() {
            Some(mib) => outcome.metric("peak_rss_mb", mib),
            None => {
                eprintln!("peak resident memory is not readable on this system");
                std::process::exit(1);
            }
        }
    }

    for line in &outcome.notes {
        println!("# {line}");
    }
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("counts {{{}}}", counts.join(", "));

    // Names and values only: `run.py` adds each metric's unit from
    // `BENCHMARK.json` and checks the names against it.
    let mut fields = Vec::new();
    for &(name, value) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            std::process::exit(1);
        }
        fields.push(format!("{}: {value}", json_string(name)));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}
