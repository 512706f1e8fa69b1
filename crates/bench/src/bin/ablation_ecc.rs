//! Ablation of the ECC engine features around the write-only phase:
//!
//! * **straggler window** (§III-C): with the no-authorization window off,
//!   every epoch switch stalls all transaction starts for the switch
//!   duration — visible once the network makes switches slow;
//! * **durability** (§III-A logging): the WAL's cost on the install path.
//!
//! The paper's evaluation runs with fault tolerance disabled (our baseline
//! row) and the straggler optimization on; this harness quantifies what each
//! switch costs on this substrate. Replication's cost is measured by
//! `ablation_replication`.

use std::time::Duration;

use aloha_bench::harness::ALOHA_EPOCH;
use aloha_bench::{BenchOpts, BenchReport, RunResult};
use aloha_core::{Cluster, ClusterConfig};
use aloha_net::NetConfig;
use aloha_workloads::driver::run_windowed;
use aloha_workloads::ycsb::{self, YcsbConfig};

fn run(
    name: &str,
    servers: u16,
    opts: &BenchOpts,
    report: &mut BenchReport,
    tune: impl Fn(ClusterConfig) -> ClusterConfig,
) {
    let cfg = YcsbConfig::with_contention_index(servers, 0.01).with_keys_per_partition(20_000);
    let base = ClusterConfig::new(servers)
        .with_epoch_duration(ALOHA_EPOCH)
        // A visible network cost per message makes epoch switches
        // meaningful.
        .with_net(NetConfig::with_latency(Duration::from_micros(150)));
    let mut builder = Cluster::builder(tune(base));
    ycsb::install_aloha(&mut builder);
    let cluster = builder.start().expect("start cluster");
    ycsb::load_aloha(&cluster, &cfg);
    let target = ycsb::AlohaYcsb::new(cluster.database(), cfg);
    cluster.reset_stats();
    let driven = run_windowed(&target, &opts.driver(8, 64));
    let r = RunResult::from_parts(&driven, cluster.snapshot());
    println!(
        "{name},{:.2},{:.2},{:.2}",
        r.tput_ktps, r.mean_latency_ms, r.p99_latency_ms,
    );
    report.push(name, r);
    cluster.shutdown();
}

fn main() {
    let opts = BenchOpts::parse();
    let servers = opts.servers();
    println!("# Ablation: ECC engine features, {servers} servers, 150us network");
    println!("variant,tput_ktps,mean_ms,p99_ms");
    let mut report = BenchReport::new("ablation_ecc", servers, opts.duration().as_secs_f64());
    run("baseline", servers, &opts, &mut report, |c| c);
    run("no-straggler-window", servers, &opts, &mut report, |c| {
        c.with_noauth(false)
    });
    run("durable-wal", servers, &opts, &mut report, |c| {
        c.with_memory_wal()
    });
    report.emit(&opts).expect("write ablation_ecc report");
}
