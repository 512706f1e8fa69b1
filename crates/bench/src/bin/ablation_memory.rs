//! Ablation of the hot-path memory model: watermark-driven chain compaction
//! {off, on} crossed with the transport {simulated bus, TCP loopback}.
//!
//! All four cells run the identical YCSB workload and epoch schedule. The
//! compaction axis toggles the background sweeper that folds committed
//! history below each key's value watermark into a single materialized base
//! record (`keep_versions = 1`, swept every few epochs). The transport axis
//! re-uses the `ablation_transport` deployment pair, so the zero-copy wire
//! decode path (frames handed off as shared `Bytes`, keys/values decoded as
//! windows of the frame) is exercised by the TCP rows.
//!
//! Besides throughput and the functor-computing stage percentiles, each row
//! reports the memory footprint out of the run's final stats snapshot: the
//! per-partition record counts from the `memory` subtree (live `Arc`-tail
//! records, packed settled records, records folded away) and the process
//! resident set. With compaction off, live + settled grows with every write
//! for the whole run; with compaction on, chains stay near `keep_versions`
//! and the fold counter absorbs the rest — that boundedness (at a modest,
//! sweep-interval-tunable throughput cost) is the claim under test.
//!
//! A load-only row comes first: 250 k YCSB rows stored into one bare
//! `Partition` (no cluster, no threads), reporting what one stored row
//! costs — process RSS growth per row and the store's own `approx_bytes`
//! per row. It runs before any cluster has grown and freed the heap, so the
//! RSS growth is the load's alone, and it is the same with or without
//! `--full`.
//!
//! The quick shape is CI-sized. `--full --servers 64` approaches the
//! paper-scale shape (64 partitions x 156,250 keys = 10 M keys).

use std::sync::Arc;
use std::time::Instant;

use aloha_bench::harness::ALOHA_EPOCH;
use aloha_bench::multiproc::{tcp_ycsb_run, tcp_ycsb_run_tuned};
use aloha_bench::{aloha_ycsb_run, aloha_ycsb_run_tuned, BenchOpts, BenchReport, RunResult};
use aloha_common::stats::{process_rss_bytes, StatsSnapshot};
use aloha_common::{PartitionId, Value};
use aloha_functor::HandlerRegistry;
use aloha_storage::Partition;
use aloha_workloads::ycsb::YcsbConfig;

/// Rows the load-only footprint row stores.
const FOOTPRINT_ROWS: u32 = 250_000;

/// Committed versions retained per chain when compaction is on.
const KEEP_VERSIONS: usize = 1;

/// Sweep every few epochs, not every epoch: a full-store sweep takes each
/// chain's write lock, so the interval trades peak memory (a few epochs of
/// settled history) against lock/CPU interference with the compute path.
const SWEEP_EPOCHS: u32 = 4;

/// Record counts summed over every `memory` subtree in a snapshot (all
/// partitions for the in-process cluster; node 0's partition for the TCP
/// deployment, whose snapshot is node-local).
#[derive(Default)]
struct MemTotals {
    partitions: u64,
    live: u64,
    settled: u64,
    compacted: u64,
}

impl MemTotals {
    fn collect(node: &StatsSnapshot, into: &mut MemTotals) {
        if node.name == "memory" {
            into.partitions += 1;
            into.live += node.counter("live_records").unwrap_or(0);
            into.settled += node.counter("settled_records").unwrap_or(0);
            into.compacted += node.counter("compacted_records").unwrap_or(0);
        }
        for child in &node.children {
            MemTotals::collect(child, into);
        }
    }

    fn of(snapshot: &StatsSnapshot) -> MemTotals {
        let mut totals = MemTotals::default();
        MemTotals::collect(snapshot, &mut totals);
        totals
    }
}

fn emit(name: &str, r: &RunResult) {
    let mem = MemTotals::of(&r.snapshot);
    let fc = r.stage("functor_computing").copied().unwrap_or_default();
    let rss_mb = r.snapshot.gauge("process_rss_bytes").unwrap_or(0) as f64 / (1024.0 * 1024.0);
    println!(
        "{name},{:.2},{:.3},{:.3},{},{},{},{},{:.1}",
        r.tput_ktps,
        fc.p50_micros as f64 / 1000.0,
        fc.p99_micros as f64 / 1000.0,
        mem.partitions,
        mem.live,
        mem.settled,
        mem.compacted,
        rss_mb,
    );
}

/// The load-only footprint row: `FOOTPRINT_ROWS` YCSB rows into a bare
/// partition. Its result carries the load rate as `tput_ktps` (k rows/s)
/// and, in its snapshot, the per-row RSS growth and `approx_bytes` beside
/// the partition's `memory` subtree.
fn footprint(cfg: &YcsbConfig) -> RunResult {
    let partition = Partition::new(PartitionId(0), 1, Arc::new(HandlerRegistry::new()));
    let rss_before = process_rss_bytes();
    let start = Instant::now();
    for idx in 0..FOOTPRINT_ROWS {
        partition.load(&cfg.key(0, idx), Value::from_i64(0));
    }
    let load_s = start.elapsed().as_secs_f64();
    let rss_after = process_rss_bytes();
    let mem = partition.store().memory_stats();
    let rows = u64::from(FOOTPRINT_ROWS);
    let rss_per_row = rss_after.saturating_sub(rss_before) / rows;
    let approx_per_row = mem.approx_bytes as u64 / rows;
    println!("# Load-only footprint: {rows} YCSB rows into one bare partition");
    println!("config,rows,load_s,rss_bytes_per_row,approx_bytes_per_row");
    println!("load-only/bare-partition,{rows},{load_s:.3},{rss_per_row},{approx_per_row}");
    let mut snapshot = StatsSnapshot::new("footprint");
    snapshot.set_counter("rows", rows);
    snapshot.set_gauge("rss_bytes_per_row", rss_per_row);
    snapshot.set_gauge("approx_bytes_per_row", approx_per_row);
    snapshot.set_gauge("process_rss_bytes", rss_after);
    snapshot.push_child(mem.snapshot("memory"));
    RunResult {
        tput_ktps: rows as f64 / load_s / 1_000.0,
        mean_latency_ms: 0.0,
        p50_latency_ms: 0.0,
        p99_latency_ms: 0.0,
        committed: 0,
        aborted: 0,
        snapshot,
    }
}

fn main() {
    let opts = BenchOpts::parse();
    let servers = opts.servers();
    // Quick: CI-sized key space. Full: 156,250 keys/partition, so
    // `--full --servers 64` is the 10 M-key paper shape.
    let keys_per_partition: u32 = if opts.full { 156_250 } else { 20_000 };
    let mut report = BenchReport::new("ablation_memory", servers, opts.duration().as_secs_f64());
    let cfg = YcsbConfig::with_contention_index(servers, 0.01)
        .with_keys_per_partition(keys_per_partition);
    report.push("load-only/bare-partition", footprint(&cfg));
    println!(
        "# Ablation: memory model, {servers} servers, {keys_per_partition} keys/partition, \
         YCSB low contention, keep_versions={KEEP_VERSIONS}"
    );
    println!(
        "config,tput_ktps,fc_p50_ms,fc_p99_ms,mem_partitions,live_records,settled_records,\
         compacted_records,rss_mb"
    );
    let driver = opts.driver(8, 64);

    let mut run = |name: &str, result: RunResult| {
        emit(name, &result);
        report.push(name, result);
    };

    run(
        "simulated/compaction-off",
        aloha_ycsb_run(&cfg, ALOHA_EPOCH, &driver),
    );
    run(
        "simulated/compaction-on",
        aloha_ycsb_run_tuned(&cfg, ALOHA_EPOCH, &driver, |c| {
            c.with_compaction(SWEEP_EPOCHS * ALOHA_EPOCH, KEEP_VERSIONS)
        }),
    );
    run(
        "tcp-loopback/compaction-off",
        tcp_ycsb_run(&cfg, ALOHA_EPOCH, &driver),
    );
    run(
        "tcp-loopback/compaction-on",
        tcp_ycsb_run_tuned(&cfg, ALOHA_EPOCH, &driver, |c| {
            c.with_compaction(SWEEP_EPOCHS * ALOHA_EPOCH, KEEP_VERSIONS)
        }),
    );

    report.emit(&opts).expect("write ablation_memory report");
}
