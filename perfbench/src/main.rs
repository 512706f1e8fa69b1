//! The pinned open-loop benchmark of ALOHA-DB.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --suite [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run deploys one workload, offers it a fixed rate for a 2 s warm-up and
//! then for the measured window, drains, checks the final state, and prints
//! the result as one JSON line, last on standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics (and
//! the run's own end-to-end values as `traced.*`, whose difference from an
//! untraced run is the tracing overhead) and writes every span to
//! `.bench_out/`. `--suite` runs every workload untraced and traced, each in
//! a child process, and prints all metrics with the tracing overhead.

mod epochtap;
mod layers;
mod openloop;
mod probe;
mod report;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

use layers::Reading;
use openloop::{Kind, OpRecord, Outcome as OpOutcome, Plan};
use report::{Metric, Outcome};
use stats::Tail;
use workloads::{Bench, Deployment, Op, SetupTime, Spec, SPECS};

/// Load offered before the measured window opens.
const WARMUP: Duration = Duration::from_secs(2);
/// How long in-flight writes may take to resolve after the last is issued.
const DRAIN: Duration = Duration::from_secs(5);
/// Deployments set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Where traced runs write their spans.
const SPAN_DIR: &str = ".bench_out";
/// Nice value of the engine's threads during a run (the client's stay 0).
const ENGINE_NICE: i32 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    suite: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        suite: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--suite" => args.suite = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.suite {
        return suite(&args);
    }
    let Some(spec) = args.workload.as_deref().and_then(workloads::spec) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let outcome = run(spec, args.seed, args.seconds, args.trace);
    println!("{}", outcome.to_line());
    // The workloads are sized so that no operation fails: a failure is a
    // broken run, even though its latency already counts as +inf.
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a user of the system sees over the measured window.
pub struct Window {
    /// Write transactions, due time to `wait_processed` returning.
    pub commit: Tail,
    /// Read-only transactions, due time to `read_latest` returning.
    pub read: Tail,
    /// Process CPU over the window per operation completed in it.
    pub cpu_us_per_op: f64,
    /// Resident set when the window closes.
    pub rss_mb: f64,
}

impl Window {
    /// Summarizes the window between readings `r0` and `r1`.
    fn of(plan: &Plan, records: &[OpRecord], r0: &Reading, r1: &Reading) -> Window {
        let tail = |kind: Kind| {
            Tail::of(
                records
                    .iter()
                    .enumerate()
                    .filter(|(i, r)| plan.in_window(*i) && r.kind == kind)
                    .map(|(_, r)| r.latency_ms())
                    .collect(),
            )
        };
        let completed = records
            .iter()
            .enumerate()
            .filter(|(i, r)| plan.in_window(*i) && r.outcome != OpOutcome::Failed)
            .count();
        let cpu_us = r1.cpu_ns.saturating_sub(r0.cpu_ns) as f64 / 1e3;
        Window {
            commit: tail(Kind::Write),
            read: tail(Kind::Read),
            cpu_us_per_op: cpu_us / completed as f64,
            rss_mb: r1.rss_bytes as f64 / (1024.0 * 1024.0),
        }
    }

    /// The end-to-end metrics listed in `BENCHMARK.json`. The read p99 is
    /// left out: on a shared two-core machine it did not repeat between
    /// runs, so it is printed with the sample counts and reported by the
    /// traced run instead.
    fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("commit_p50_ms", "ms", self.commit.p50),
            Metric::new("commit_p99_ms", "ms", self.commit.p99),
            Metric::new("read_p50_ms", "ms", self.read.p50),
            Metric::new("cpu_us_per_op", "us", self.cpu_us_per_op),
            Metric::new("rss_mb", "MB", self.rss_mb),
        ]
    }
}

/// One measured run of `spec`; prints provenance and readable metrics on
/// the way and returns the result line.
fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let window = Duration::from_secs(seconds);
    let plan = Plan::at_rate(spec.rate(), WARMUP, window, DRAIN);
    let ops = workloads::generate(spec, seed, plan.total_ops());
    provenance(spec, seed, window, trace);

    let (deployment, first_setup) = Deployment::start(spec.shape);
    // The load stands for users on other machines: the engine's threads
    // yield to the client threads, so a latency is what the engine
    // made a request wait, not how long the client waited for a core.
    probe::deprioritize_other_threads(ENGINE_NICE);
    let bench = Bench::new(&deployment);
    let mut edges = Vec::with_capacity(2);
    let records = openloop::run(&bench, &ops, &plan, |edge| {
        edges.push(Reading::take(edge, trace, || deployment.snapshots()));
    });
    let verdict = workloads::check(spec, &deployment, &ops, &records, &bench);
    deployment.shutdown();
    if let Err(e) = &verdict {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    if trace {
        if let Err(e) = write_spans(spec, seed, &ops, &records) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }

    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (deployment, setup) = Deployment::start(spec.shape);
        deployment.shutdown();
        setups.push(setup);
    }
    let median_of =
        |f: fn(&SetupTime) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let totals: Vec<String> = setups
        .iter()
        .map(|s| format!("{:.3}", s.total_s()))
        .collect();
    println!("setup: {} s per deployment", totals.join(", "));

    let [r0, r1] = edges.as_slice() else {
        unreachable!("the measured window has two edges");
    };
    let seen = Window::of(&plan, &records, r0, r1);
    for (what, tail) in [("commit", &seen.commit), ("read", &seen.read)] {
        println!(
            "{what}: {} samples, p50 {:.4} ms, p99 {:.4} ms ({} beyond p99)",
            tail.count,
            tail.p50,
            tail.p99,
            stats::beyond(tail.count, stats::P99),
        );
    }
    let metrics = if trace {
        let setup = (median_of(|s| s.start_s), median_of(|s| s.load_s));
        layers::per_layer(&plan, &records, r0, r1, &seen, setup)
    } else {
        seen.end_to_end(median_of(SetupTime::total_s))
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Outcome {
        correct: verdict.is_ok(),
        attempted: records.len() as u64,
        failed: ops
            .iter()
            .zip(&records)
            .filter(|(op, r)| op.failed(r.outcome))
            .count() as u64,
        metrics,
    }
}

/// Prints what the result depends on: seed, code, machine, rate, window.
fn provenance(spec: &Spec, seed: u64, window: Duration, trace: bool) {
    use aloha_common::json::Json;
    let line = Json::obj([
        ("workload", Json::from(spec.name)),
        ("why", Json::from(spec.why)),
        ("seed", Json::from(seed)),
        ("git_rev", Json::from(probe::git_rev())),
        ("nproc", Json::from(probe::nproc() as u64)),
        ("cpu_model", Json::from(probe::cpu_model())),
        ("rate_ops_per_s", Json::from(spec.rate())),
        ("writes_per_s", Json::from(spec.writes_per_s)),
        ("read_share", Json::from(spec.read_share)),
        ("warmup_s", Json::from(WARMUP.as_secs_f64())),
        ("window_s", Json::from(window.as_secs_f64())),
        (
            "loop",
            Json::from("open, fixed interval, a write sender, a read sender, a completion thread"),
        ),
        ("trace", Json::from(trace)),
    ]);
    println!("{}", Json::obj([("provenance", line)]));
}

/// Writes every operation's spans as JSON lines: `gen.late`, `fe.execute`
/// or `fe.read`, and `fe.wait`, all keyed by the operation's id.
fn write_spans(spec: &Spec, seed: u64, ops: &[Op], records: &[OpRecord]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = Path::new(SPAN_DIR).join(format!("spans-{}-{seed}.jsonl", spec.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (op, r)) in ops.iter().zip(records).enumerate() {
        let call = if op.kind == Kind::Read {
            "fe.read"
        } else {
            "fe.execute"
        };
        let mut spans = vec![
            ("gen.late", r.due, r.issue_start),
            (call, r.issue_start, r.issue_end),
        ];
        if let (Kind::Write, Some(done)) = (op.kind, r.done) {
            spans.push(("fe.wait", r.wait_start, done));
        }
        for (name, start, end) in spans {
            writeln!(
                out,
                "{{\"id\":{id},\"span\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            )?;
        }
    }
    out.flush()
}

/// Runs every workload untraced and traced in child processes and prints
/// each metric, the tracing overhead and the verdicts.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for spec in &SPECS {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let parsed = output.map_err(|e| e.to_string()).and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                Outcome::parse(stdout.lines().last().unwrap_or(""))
            });
            match parsed {
                Ok(outcome) => results.push(outcome),
                Err(e) => {
                    println!("{} --trace {trace}: no result ({e})", spec.name);
                    ok = false;
                }
            }
        }
        let [plain, traced] = results.as_slice() else {
            continue;
        };
        println!(
            "== {} (correct={}/{}, attempted {}, failed {}) — {}",
            spec.name, plain.correct, traced.correct, plain.attempted, plain.failed, spec.why
        );
        ok &= plain.correct && traced.correct && plain.failed == 0;
        for m in &plain.metrics {
            let overhead = traced
                .metrics
                .iter()
                .find(|t| t.name == format!("traced.{}", m.name))
                .map(|t| format!("  tracing overhead {:+.4} {}", t.value - m.value, m.unit))
                .unwrap_or_default();
            println!("  {:<16} {:>14.4} {:<6}{overhead}", m.name, m.value, m.unit);
        }
        for m in &traced.metrics {
            println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_common::json::Json;
    use aloha_common::stats::StatsSnapshot;
    use std::collections::BTreeMap;
    use std::time::Instant;

    /// The sorted (name, unit) pairs of the manifest's `key` metrics.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let mut pairs: Vec<_> = manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        pairs.sort();
        pairs
    }

    fn printed(metrics: Vec<Metric>) -> Vec<(String, String)> {
        let mut pairs: Vec<_> = metrics.into_iter().map(|m| (m.name, m.unit)).collect();
        pairs.sort();
        pairs
    }

    /// A stats forest holding every component a per-layer metric reads.
    fn every_component() -> Vec<StatsSnapshot> {
        let mut partition = StatsSnapshot::new("partition");
        partition.push_child(StatsSnapshot::new("memory"));
        let mut server = StatsSnapshot::new("server_0");
        server.push_child(partition);
        server.push_child(StatsSnapshot::new("exec"));
        vec![
            server,
            StatsSnapshot::new("net"),
            StatsSnapshot::new("epoch_manager"),
        ]
    }

    #[test]
    fn results_carry_every_manifest_metric_in_its_unit() {
        let plan = Plan {
            interval: Duration::from_millis(1),
            warmup_ops: 0,
            window_ops: 2,
            drain: Duration::from_millis(1),
        };
        let record = |kind, done| OpRecord {
            kind,
            due: 0,
            issue_start: 10,
            issue_end: 20,
            wait_start: 20,
            done: Some(done),
            outcome: OpOutcome::Committed,
        };
        let records = [record(Kind::Write, 5_000_000), record(Kind::Read, 20)];
        let reading = |cpu_ns| Reading {
            at: Instant::now(),
            cpu_ns,
            rss_bytes: 1 << 20,
            threads: BTreeMap::new(),
            trees: every_component(),
        };
        let (r0, r1) = (reading(0), reading(1_000_000));
        let seen = Window::of(&plan, &records, &r0, &r1);
        assert_eq!(printed(seen.end_to_end(1.0)), listed("end_to_end"));
        let layers = layers::per_layer(&plan, &records, &r0, &r1, &seen, (0.1, 0.9));
        assert_eq!(printed(layers), listed("per_layer"));
    }
}
