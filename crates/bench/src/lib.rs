//! Benchmark harness for the ALOHA-DB reproduction.
//!
//! One binary per evaluation figure (`fig6` … `fig11`), each printing the
//! same rows/series the paper reports, plus two ablations (`ablation_push`
//! for the §IV-B recipient-set push, `ablation_ecc` for the straggler
//! window and the WAL) and Criterion microbenchmarks for the
//! substrates. Binaries accept:
//!
//! * `--full` — paper-scale sweeps (more points, longer durations, more
//!   servers); the default is a laptop-scale quick mode with the same shape;
//! * `--servers N` — override the default cluster size;
//! * `--seconds S` — override the measured duration per point;
//! * `--json PATH` — write the machine-readable report to PATH instead of
//!   the default `BENCH_<figure>.json`;
//! * `--help` — print usage.
//!
//! Besides the human-readable CSV on stdout, every binary writes a
//! `BENCH_<figure>.json` report: throughput, p50/p95/p99 per lifecycle
//! stage (the six-stage schema of `aloha_common::metrics::Stage`), and
//! abort counts, embedding each run's full `StatsSnapshot` tree. The
//! default binary (`cargo run -p aloha-bench`) is a smoke benchmark that
//! produces `BENCH_smoke.json` from a tiny two-engine YCSB run.
//!
//! The absolute numbers depend on the host (this is a simulated cluster in
//! one process, not 20 EC2 VMs); the *shapes* — who wins, by what factor,
//! where the trends bend — are the reproduction targets. `EXPERIMENTS.md`
//! records paper-vs-measured values.

pub mod harness;
pub mod multiproc;

pub use harness::{
    aloha_tpcc_run, aloha_ycsb_run, aloha_ycsb_run_tuned, calvin_tpcc_run, calvin_ycsb_run,
    BenchOpts, BenchReport, BenchRow, ParseOutcome, RunResult,
};
