//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sci-rounds|baseball-paper-rounds|service-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for at least `--seconds` seconds and checks its
//! outputs. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics of `BENCHMARK.json`, measured with
//! tracing off; with `--trace 1` they are its per-layer metrics, from spans
//! recorded around the benchmark's calls into each layer. A traced run also
//! writes its spans to `perfbench/out/trace-<workload>-<seed>.json`. The
//! line before the result records the run's provenance.

mod rounds;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use qfe_wire::Json;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sci-rounds", "baseball-paper-rounds", "service-churn"];

/// The end-to-end metrics every untraced run prints, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sessions_per_s", "1/s"),
    ("round_p90_ms", "ms"),
    ("rounds_per_session", "count"),
    ("modification_cost_per_session", "count"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("qbo.generate_ms", "ms"),
    ("qbo.grow_ms", "ms"),
    ("qbo.candidates", "count"),
    ("qbo.rows_scanned", "count"),
    ("context.build_ms", "ms"),
    ("context.advance_ms", "ms"),
    ("context.full_rebuilds", "count"),
    ("skyline.ms", "ms"),
    ("skyline.enumerated", "count"),
    ("skyline.kept", "count"),
    ("skyline.memo_hits", "count"),
    ("pick.ms", "ms"),
    ("pick.cost_evaluations", "count"),
    ("pick.share", "ratio"),
    ("realize.apply_ms", "ms"),
    ("query.partition_ms", "ms"),
    ("http.create_ms", "ms"),
    ("http.step_ms", "ms"),
    ("http.answer_ms", "ms"),
    ("http.park_ms", "ms"),
    ("http.resume_ms", "ms"),
    ("backend.step_ms", "ms"),
    ("backend.answer_ms", "ms"),
    ("backend.park_ms", "ms"),
    ("backend.resume_ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.request_p50_ms", "ms"),
    ("http.request_p99_ms", "ms"),
    ("store.put_session_ms", "ms"),
    ("store.get_session_ms", "ms"),
    ("store.put_session_bytes", "bytes"),
    ("store.bytes_per_session", "bytes"),
    ("store.puts_per_session", "count"),
    ("store.gets_per_session", "count"),
    ("store.workloads_stored", "count"),
    ("trace.overhead_pct", "%"),
    ("process.cpu_s", "s"),
    ("process.peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations and checks attempted, the ones that failed, and the latency
/// of every timed call into the program.
#[derive(Debug, Default)]
pub struct Tally {
    pub request_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Problems kept for the report; the count covers the rest.
const MAX_PROBLEMS: usize = 20;

impl Tally {
    /// Records one timed call into the program.
    pub fn request(&mut self, elapsed: Duration) {
        self.attempted += 1;
        self.request_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    /// Marks an attempted call or check as failed.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.request_ms.extend(other.request_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for problem in other.problems {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(problem);
            }
        }
    }

    pub fn finish(self, metrics: Vec<Metric>, spans: Vec<trace::Span>) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            spans,
        }
    }
}

/// What a workload run produced.
pub struct RunResult {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    spans: Vec<trace::Span>,
}

/// Where runs write their scratch files and span exports.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The host and build a result came from.
fn provenance(args: &Args) -> Vec<(&'static str, Json)> {
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = command_output("nproc", &[]).and_then(|n| n.parse::<i64>().ok());
    vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        (
            "commit",
            text(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("available_parallelism", Json::Int(parallelism as i64)),
        ("nproc", nproc.map_or(Json::Null, Json::Int)),
        ("rustc", text(command_output("rustc", &["--version"]))),
    ]
}

/// Peak resident memory of this process, in megabytes.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of this process, in seconds.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "sci-rounds" => rounds::run(&rounds::SCI_ROUNDS, args.seed, args.seconds, args.trace),
        "baseball-paper-rounds" => rounds::run(
            &rounds::BASEBALL_PAPER_ROUNDS,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "service-churn" => service::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Checks that `metrics` are exactly `expected`, names and units, in order,
/// and that every value is a finite number.
fn check_metrics(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        return Err(format!("printed metrics {got:?} differ from {expected:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is {}", m.name, m.value)),
        None => Ok(()),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::object(metrics.iter().map(|m| {
        (
            m.name,
            Json::object([
                ("value", Json::Float(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

fn render_result(result: &RunResult) -> String {
    Json::object([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("metrics", metrics_json(&result.metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    let mut result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        result.metrics.push(Metric::new(
            "process.cpu_s",
            cpu_seconds().unwrap_or(0.0),
            "s",
        ));
        result.metrics.push(Metric::new(
            "process.peak_rss_mb",
            peak_rss_mb().unwrap_or(0.0),
            "MB",
        ));
        let mut header = provenance.clone();
        header.push(("metrics", metrics_json(&result.metrics)));
        let export = trace::export(header, &result.spans);
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, export.render()));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = check_metrics(&result.metrics, expected) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for problem in &result.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "{}",
        Json::object([(
            "provenance",
            Json::Object(
                provenance
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )
        )])
        .render()
    );
    println!("{}", render_result(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn named(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
        doc.field(key)
            .and_then(Json::as_array)
            .expect("a list")
            .iter()
            .map(|entry| {
                let name = entry.field("name").and_then(Json::as_str).expect("a name");
                let unit = entry
                    .get("unit")
                    .map(|u| u.as_str().expect("a unit").to_string());
                (name.to_string(), unit)
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(named(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(named(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = named(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_workload_prints_every_per_layer_metric() {
        // The rounds workloads fill the service layers with zeros, and the
        // service workload the QBO layer: all print the same list.
        let counts = rounds::LayerCounts::default();
        let mut metrics = rounds::engine_layer_metrics(&counts, 0, &Default::default());
        metrics.extend(service::unexercised_service_layers());
        metrics.push(Metric::new("trace.overhead_pct", 0.0, "%"));
        metrics.push(Metric::new("process.cpu_s", 0.0, "s"));
        metrics.push(Metric::new("process.peak_rss_mb", 0.0, "MB"));
        assert_eq!(check_metrics(&metrics, &PER_LAYER), Ok(()));
    }

    #[test]
    fn metric_check_refuses_a_missing_metric_or_a_nan() {
        let metrics = vec![Metric::new("sessions_per_s", 1.0, "1/s")];
        assert!(check_metrics(&metrics, &END_TO_END).is_err());
        let mut metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|&(name, unit)| Metric::new(name, 1.0, unit))
            .collect();
        assert_eq!(check_metrics(&metrics, &END_TO_END), Ok(()));
        metrics[0].value = f64::NAN;
        assert!(check_metrics(&metrics, &END_TO_END).is_err());
    }
}
