//! Shared cluster-lifecycle helpers for the figure binaries, plus the
//! machine-readable `BENCH_<figure>.json` report writer.

use std::path::{Path, PathBuf};
use std::time::Duration;

use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::Json;
use aloha_core::{Cluster, ClusterConfig};
use aloha_workloads::driver::{run_windowed, DriverConfig, DriverReport};
use aloha_workloads::tpcc::{self, TpccConfig, TxnMix};
use aloha_workloads::ycsb::{self, YcsbConfig};
use calvin::{CalvinCluster, CalvinConfig};

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Paper-scale sweep (more points, longer durations).
    pub full: bool,
    /// Cluster size override.
    pub servers: Option<u16>,
    /// Per-point measured duration override.
    pub seconds: Option<f64>,
    /// Destination override for the JSON report (default `BENCH_<figure>.json`).
    pub json: Option<PathBuf>,
}

/// What [`BenchOpts::parse_from`] found on the command line.
#[derive(Debug, Clone)]
pub enum ParseOutcome {
    /// Valid options: run the benchmark.
    Run(BenchOpts),
    /// `--help` / `-h` was given: print [`BenchOpts::usage`] and exit.
    Help,
}

impl BenchOpts {
    /// The usage text shared by every figure binary.
    pub fn usage() -> &'static str {
        "usage: <figure-binary> [OPTIONS]\n\
         \n\
         options:\n\
         \x20 --full           paper-scale sweep (more points, longer durations)\n\
         \x20 --servers N      override the cluster size\n\
         \x20 --seconds S      override the measured duration per point\n\
         \x20 --json PATH      write the JSON report to PATH (default BENCH_<figure>.json)\n\
         \x20 -h, --help       print this help"
    }

    /// Parses the common flags from an iterator of arguments (without the
    /// program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, missing values,
    /// and unparsable numbers; never panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use aloha_bench::harness::{BenchOpts, ParseOutcome};
    /// let out = BenchOpts::parse_from(["--servers".into(), "2".into()]).unwrap();
    /// let ParseOutcome::Run(opts) = out else { panic!("not help") };
    /// assert_eq!(opts.servers, Some(2));
    /// assert!(BenchOpts::parse_from(["--servers".into()]).is_err());
    /// ```
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<ParseOutcome, String> {
        let mut opts = BenchOpts::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "-h" | "--help" => return Ok(ParseOutcome::Help),
                "--full" => opts.full = true,
                "--servers" => {
                    let v = args.next().ok_or("--servers needs a value")?;
                    opts.servers = Some(
                        v.parse()
                            .map_err(|_| format!("--servers must be a number, got '{v}'"))?,
                    );
                }
                "--seconds" => {
                    let v = args.next().ok_or("--seconds needs a value")?;
                    let s: f64 = v
                        .parse()
                        .map_err(|_| format!("--seconds must be a number, got '{v}'"))?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err(format!("--seconds must be positive, got '{v}'"));
                    }
                    opts.seconds = Some(s);
                }
                "--json" => {
                    let v = args.next().ok_or("--json needs a path")?;
                    opts.json = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(ParseOutcome::Run(opts))
    }

    /// Parses `std::env::args`, printing usage and exiting the process on
    /// `--help` (status 0) or a malformed command line (status 2).
    pub fn parse() -> BenchOpts {
        match BenchOpts::parse_from(std::env::args().skip(1)) {
            Ok(ParseOutcome::Run(opts)) => opts,
            Ok(ParseOutcome::Help) => {
                println!("{}", BenchOpts::usage());
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}\n\n{}", BenchOpts::usage());
                std::process::exit(2);
            }
        }
    }

    /// Default cluster size: 4 quick, 8 full (the paper's default host count).
    pub fn servers(&self) -> u16 {
        self.servers.unwrap_or(if self.full { 8 } else { 4 })
    }

    /// Measured duration per point.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.unwrap_or(if self.full { 5.0 } else { 1.5 }))
    }

    /// Warm-up duration per point.
    pub fn warmup(&self) -> Duration {
        if self.full {
            Duration::from_secs(2)
        } else {
            Duration::from_millis(500)
        }
    }

    /// A driver configuration for the given offered load.
    pub fn driver(&self, threads: usize, window: usize) -> DriverConfig {
        DriverConfig {
            threads,
            window,
            duration: self.duration(),
            warmup: self.warmup(),
            seed: 0x000A_104A,
            pacing: None,
        }
    }
}

/// One measured point: driver-side aggregates plus the engine's full
/// [`StatsSnapshot`] (per-stage percentiles, per-server subtrees).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Throughput in kilo-transactions per second.
    pub tput_ktps: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency in milliseconds.
    pub p50_latency_ms: f64,
    /// p99 latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// The engine's stats tree at the end of the measured window.
    pub snapshot: StatsSnapshot,
}

impl RunResult {
    /// Combines a driver report with the engine's end-of-run snapshot.
    pub fn from_parts(report: &DriverReport, snapshot: StatsSnapshot) -> RunResult {
        RunResult {
            tput_ktps: report.throughput_tps() / 1_000.0,
            mean_latency_ms: report.mean_latency_micros / 1_000.0,
            p50_latency_ms: report.p50_latency_micros as f64 / 1_000.0,
            p99_latency_ms: report.p99_latency_micros as f64 / 1_000.0,
            committed: report.committed,
            aborted: report.aborted,
            snapshot,
        }
    }

    /// Root-level stage rollup by schema name (e.g. `"transform"`, `"e2e"`).
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.snapshot.stage(name)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("tput_ktps", Json::from(self.tput_ktps)),
            ("mean_latency_ms", Json::from(self.mean_latency_ms)),
            ("p50_latency_ms", Json::from(self.p50_latency_ms)),
            ("p99_latency_ms", Json::from(self.p99_latency_ms)),
            ("committed", Json::from(self.committed)),
            ("aborted", Json::from(self.aborted)),
            ("snapshot", self.snapshot.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<RunResult, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run result missing numeric field '{k}'"))
        };
        Ok(RunResult {
            tput_ktps: num("tput_ktps")?,
            mean_latency_ms: num("mean_latency_ms")?,
            p50_latency_ms: num("p50_latency_ms")?,
            p99_latency_ms: num("p99_latency_ms")?,
            committed: num("committed")? as u64,
            aborted: num("aborted")? as u64,
            snapshot: StatsSnapshot::from_json(
                v.get("snapshot").ok_or("run result missing 'snapshot'")?,
            )?,
        })
    }
}

/// One labeled row of a figure (e.g. `"Aloha,1W,threads=4"`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Which series/point this row measures.
    pub label: String,
    /// The measurement.
    pub result: RunResult,
}

/// A machine-readable benchmark report, written as `BENCH_<figure>.json`.
///
/// # Examples
///
/// ```
/// use aloha_bench::harness::BenchReport;
/// let report = BenchReport::new("smoke", 2, 1.0);
/// let text = report.to_json().to_string();
/// let back = BenchReport::from_json_text(&text).unwrap();
/// assert_eq!(back, report);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Figure identifier (`"fig6"`, `"smoke"`, ...).
    pub figure: String,
    /// Cluster size used for the runs.
    pub servers: u16,
    /// Measured seconds per point.
    pub seconds: f64,
    /// The measured rows, in print order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// An empty report for `figure`.
    pub fn new(figure: impl Into<String>, servers: u16, seconds: f64) -> BenchReport {
        BenchReport {
            figure: figure.into(),
            servers,
            seconds,
            rows: Vec::new(),
        }
    }

    /// Appends a labeled measurement.
    pub fn push(&mut self, label: impl Into<String>, result: RunResult) {
        self.rows.push(BenchRow {
            label: label.into(),
            result,
        });
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("figure", Json::from(self.figure.as_str())),
            ("servers", Json::from(u64::from(self.servers))),
            ("seconds", Json::from(self.seconds)),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::obj([
                                ("label", Json::from(row.label.as_str())),
                                ("result", row.result.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a report from its JSON form.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<BenchReport, String> {
        let figure = v
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("report missing 'figure'")?
            .to_string();
        let servers = v
            .get("servers")
            .and_then(Json::as_u64)
            .ok_or("report missing 'servers'")? as u16;
        let seconds = v
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or("report missing 'seconds'")?;
        let mut rows = Vec::new();
        for row in v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("report missing 'rows'")?
        {
            let label = row
                .get("label")
                .and_then(Json::as_str)
                .ok_or("row missing 'label'")?
                .to_string();
            let result = RunResult::from_json(row.get("result").ok_or("row missing 'result'")?)?;
            rows.push(BenchRow { label, result });
        }
        Ok(BenchReport {
            figure,
            servers,
            seconds,
            rows,
        })
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    ///
    /// As [`BenchReport::from_json`], plus JSON syntax errors.
    pub fn from_json_text(text: &str) -> Result<BenchReport, String> {
        BenchReport::from_json(&Json::parse(text)?)
    }

    /// Serializes to `path`, verifying the emitted text re-parses to an
    /// identical report before writing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an emit/parse mismatch (a serializer bug)
    /// surfaces as [`std::io::ErrorKind::InvalidData`].
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text = self.to_json().to_string();
        let reparsed = BenchReport::from_json_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if &reparsed != self {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "report did not survive a JSON round trip",
            ));
        }
        std::fs::write(path, text)
    }

    /// Writes the report to `--json PATH` when given, else
    /// `BENCH_<figure>.json` in the working directory, and prints where.
    ///
    /// # Errors
    ///
    /// As [`BenchReport::write`].
    pub fn emit(&self, opts: &BenchOpts) -> std::io::Result<PathBuf> {
        let path = opts
            .json
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", self.figure)));
        self.write(&path)?;
        println!("# wrote {}", path.display());
        Ok(path)
    }
}

/// Builds, loads, drives and tears down an ALOHA-DB TPC-C cluster.
pub fn aloha_tpcc_run(
    cfg: &TpccConfig,
    epoch: Duration,
    mix: TxnMix,
    with_aborts: bool,
    driver: &DriverConfig,
) -> RunResult {
    let mut builder = Cluster::builder(
        ClusterConfig::new(cfg.partitions)
            .with_epoch_duration(epoch)
            .with_processors(2),
    );
    tpcc::aloha::install(&mut builder, cfg);
    let cluster = builder.start().expect("start aloha cluster");
    tpcc::aloha::load(&cluster, cfg);
    let target = tpcc::aloha::AlohaTpcc::new(cluster.database(), cfg.clone(), mix, with_aborts);
    cluster.reset_stats();
    let report = run_windowed(&target, driver);
    let result = RunResult::from_parts(&report, cluster.snapshot());
    cluster.shutdown();
    result
}

/// Builds, loads, drives and tears down a Calvin TPC-C cluster.
pub fn calvin_tpcc_run(
    cfg: &TpccConfig,
    batch: Duration,
    mix: TxnMix,
    driver: &DriverConfig,
) -> RunResult {
    let mut builder = CalvinCluster::builder(
        CalvinConfig::new(cfg.partitions)
            .with_batch_duration(batch)
            .with_workers(2),
    );
    tpcc::calvin_impl::install(&mut builder, cfg);
    let cluster = builder.start().expect("start calvin cluster");
    tpcc::calvin_impl::load(&cluster, cfg);
    let target = tpcc::calvin_impl::CalvinTpcc::new(cluster.database(), cfg.clone(), mix);
    cluster.reset_stats();
    let report = run_windowed(&target, driver);
    let result = RunResult::from_parts(&report, cluster.snapshot());
    cluster.shutdown();
    result
}

/// Builds, loads, drives and tears down an ALOHA-DB microbenchmark cluster.
pub fn aloha_ycsb_run(cfg: &YcsbConfig, epoch: Duration, driver: &DriverConfig) -> RunResult {
    aloha_ycsb_run_tuned(cfg, epoch, driver, |c| c)
}

/// [`aloha_ycsb_run`] with a hook over the cluster configuration, for
/// ablations that toggle one knob (e.g. compaction) while keeping
/// the workload and epoch schedule identical.
pub fn aloha_ycsb_run_tuned(
    cfg: &YcsbConfig,
    epoch: Duration,
    driver: &DriverConfig,
    tune: impl FnOnce(ClusterConfig) -> ClusterConfig,
) -> RunResult {
    let mut builder = Cluster::builder(tune(
        ClusterConfig::new(cfg.partitions)
            .with_epoch_duration(epoch)
            .with_processors(2),
    ));
    ycsb::install_aloha(&mut builder);
    let cluster = builder.start().expect("start aloha cluster");
    ycsb::load_aloha(&cluster, cfg);
    let target = ycsb::AlohaYcsb::new(cluster.database(), cfg.clone());
    cluster.reset_stats();
    let report = run_windowed(&target, driver);
    let result = RunResult::from_parts(&report, cluster.snapshot());
    cluster.shutdown();
    result
}

/// Builds, loads, drives and tears down a Calvin microbenchmark cluster.
pub fn calvin_ycsb_run(cfg: &YcsbConfig, batch: Duration, driver: &DriverConfig) -> RunResult {
    let mut builder = CalvinCluster::builder(
        CalvinConfig::new(cfg.partitions)
            .with_batch_duration(batch)
            .with_workers(2),
    );
    ycsb::install_calvin(&mut builder);
    let cluster = builder.start().expect("start calvin cluster");
    ycsb::load_calvin(&cluster, cfg);
    let target = ycsb::CalvinYcsb::new(cluster.database(), cfg.clone());
    cluster.reset_stats();
    let report = run_windowed(&target, driver);
    let result = RunResult::from_parts(&report, cluster.snapshot());
    cluster.shutdown();
    result
}

/// The paper's epoch duration for ALOHA-DB (§V-A2).
pub const ALOHA_EPOCH: Duration = Duration::from_millis(25);
/// The paper's sequencer batch duration for Calvin (§V-A2).
pub const CALVIN_BATCH: Duration = Duration::from_millis(20);

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<ParseOutcome, String> {
        BenchOpts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_accepts_all_flags() {
        let out = parsed(&[
            "--full",
            "--servers",
            "3",
            "--seconds",
            "0.5",
            "--json",
            "x.json",
        ])
        .unwrap();
        let ParseOutcome::Run(opts) = out else {
            panic!("expected options")
        };
        assert!(opts.full);
        assert_eq!(opts.servers, Some(3));
        assert_eq!(opts.seconds, Some(0.5));
        assert_eq!(opts.json.as_deref(), Some(Path::new("x.json")));
    }

    #[test]
    fn parse_reports_errors_instead_of_panicking() {
        assert!(parsed(&["--servers"]).is_err());
        assert!(parsed(&["--servers", "many"]).is_err());
        assert!(parsed(&["--seconds", "-1"]).is_err());
        assert!(parsed(&["--frobnicate"]).is_err());
        assert!(matches!(parsed(&["--help"]), Ok(ParseOutcome::Help)));
        assert!(matches!(parsed(&["-h"]), Ok(ParseOutcome::Help)));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("figX", 2, 1.5);
        let mut snapshot = StatsSnapshot::new("cluster");
        snapshot.set_counter("committed", 10);
        report.push(
            "Aloha,1W",
            RunResult {
                tput_ktps: 12.5,
                mean_latency_ms: 3.0,
                p50_latency_ms: 2.5,
                p99_latency_ms: 9.0,
                committed: 10,
                aborted: 1,
                snapshot,
            },
        );
        let text = report.to_json().to_string();
        let back = BenchReport::from_json_text(&text).unwrap();
        assert_eq!(back, report);
        assert!(BenchReport::from_json_text("{\"figure\":\"x\"}").is_err());
    }
}
