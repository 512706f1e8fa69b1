//! Ablation: bounded two-lane executor vs thread-per-message dispatch.
//!
//! Workload: a multi-partition read-modify-write mix. Each transaction
//! writes two keys — one on its home partition, one on the next — and each
//! written key's functor reads [`READ_SET`] reference keys owned by the
//! neighboring partitions. Every transaction therefore exercises both
//! executor lanes on every server it touches: installs, aborts and push
//! values ride the key-sharded lane, while the cross-partition read gathers
//! ride the blocking lane (and its spillover valve under saturation).
//!
//! Modes:
//! - `spawn`: [`ExecConfig::spawn_per_message`] — every data-plane message
//!   gets a fresh OS thread, the seed dispatcher's behavior. Thread churn
//!   scales with message rate, so the per-message spawn and scheduling cost
//!   grows with partition count.
//! - `pooled`: the default bounded executor — a fixed crew of sharded and
//!   blocking workers per server, with spillover threads only under
//!   blocking-lane saturation.
//!
//! The epoch is short (3 ms) because the closed-loop driver's throughput is
//! `window / latency`: a long epoch wait would mask the dispatch cost this
//! ablation isolates.
//!
//! Reported: throughput, mean latency, and the executor's own counters
//! (spillover spawns, steady/peak thread counts summed across servers),
//! plus the pooled/spawn throughput ratio per partition count. The thread
//! columns are the headline: `pooled` holds a constant steady-state crew
//! while `spawn` burns a thread per message (visible as `threads_peak`).

use std::time::Duration;

use aloha_bench::{BenchOpts, BenchReport, RunResult};
use aloha_common::stats::StatsSnapshot;
use aloha_common::{Key, Value};
use aloha_core::{fn_program, Cluster, ClusterConfig, ProgramId, TxnOutcome, TxnPlan};
use aloha_functor::{ComputeInput, Functor, HandlerId, HandlerOutput, UserFunctor};
use aloha_net::ExecConfig;
use aloha_workloads::driver::{run_windowed, Workload};
use rand::rngs::SmallRng;
use rand::Rng;

const RMW: ProgramId = ProgramId(1);
const H_SUM: HandlerId = HandlerId(1);
/// Reference keys each written key's functor reads from its neighbors.
const READ_SET: u32 = 8;
const EPOCH: Duration = Duration::from_millis(3);

/// A mutable key in the write keyspace.
fn wkey(p: u16, idx: u32) -> Key {
    Key::with_route(p as u32, &[b"w", &idx.to_be_bytes()])
}

/// A read-only reference key; loaded once, never written, so remote gets
/// resolve without recursive computing.
fn rkey(p: u16, idx: u32) -> Key {
    Key::with_route(p as u32, &[b"ref", &idx.to_be_bytes()])
}

/// The reference read set of a write on partition `p`: half on the next
/// partition, half on the previous one.
fn read_set(p: u16, servers: u16, base: u32, keys_per_partition: u32) -> Vec<Key> {
    let next = (p + 1) % servers;
    let prev = (p + servers - 1) % servers;
    (0..READ_SET)
        .map(|i| {
            let owner = if i % 2 == 0 { next } else { prev };
            rkey(owner, (base + i) % keys_per_partition)
        })
        .collect()
}

struct RmwWorkload {
    db: aloha_core::Database,
    partitions: u16,
    keys_per_partition: u32,
}

impl Workload for RmwWorkload {
    type Handle = aloha_core::TxnHandle;

    fn submit(&self, rng: &mut SmallRng) -> aloha_common::Result<Self::Handle> {
        let p = rng.gen_range(0..self.partitions);
        let mut args = p.to_be_bytes().to_vec();
        args.extend_from_slice(&rng.gen_range(0..self.keys_per_partition).to_be_bytes());
        args.extend_from_slice(&rng.gen_range(0..self.keys_per_partition).to_be_bytes());
        args.extend_from_slice(&rng.gen_range(0..self.keys_per_partition).to_be_bytes());
        self.db.execute_at(aloha_common::ServerId(p), RMW, args)
    }

    fn wait(&self, handle: Self::Handle) -> aloha_common::Result<bool> {
        Ok(handle.wait_processed()? == TxnOutcome::Committed)
    }
}

fn build_cluster(servers: u16, exec: ExecConfig, keys_per_partition: u32) -> Cluster {
    let config = ClusterConfig::new(servers)
        .with_epoch_duration(EPOCH)
        .with_exec(exec);
    let mut builder = Cluster::builder(config);
    builder.register_handler(H_SUM, |input: &ComputeInput<'_>| {
        let sum: i64 = input
            .reads
            .iter()
            .filter_map(|(_, r)| r.value.as_ref().and_then(Value::as_i64))
            .sum();
        HandlerOutput::commit(Value::from_i64(sum))
    });
    builder.register_program(
        RMW,
        fn_program(move |ctx| {
            let p = u16::from_be_bytes(ctx.args[0..2].try_into().expect("home partition"));
            let idx_a = u32::from_be_bytes(ctx.args[2..6].try_into().expect("idx_a"));
            let idx_b = u32::from_be_bytes(ctx.args[6..10].try_into().expect("idx_b"));
            let base = u32::from_be_bytes(ctx.args[10..14].try_into().expect("ref base"));
            let q = (p + 1) % servers;
            let fa = UserFunctor::new(
                H_SUM,
                read_set(p, servers, base, keys_per_partition),
                Vec::new(),
            );
            let fb = UserFunctor::new(
                H_SUM,
                read_set(q, servers, base, keys_per_partition),
                Vec::new(),
            );
            Ok(TxnPlan::new()
                .write(wkey(p, idx_a), Functor::User(fa))
                .write(wkey(q, idx_b), Functor::User(fb)))
        }),
    );
    builder.start().expect("start cluster")
}

/// Sums the executor counters across every server's `exec` subtree.
fn exec_totals(snapshot: &StatsSnapshot, servers: u16) -> (u64, u64, u64) {
    let mut spillover = 0;
    let mut steady = 0;
    let mut peak = 0;
    for p in 0..servers {
        if let Some(exec) = snapshot
            .child(&format!("server_{p}"))
            .and_then(|n| n.child("exec"))
        {
            spillover += exec.counter("spillover_spawns").unwrap_or(0);
            steady += exec.counter("threads_steady").unwrap_or(0);
            peak += exec.counter("threads_peak").unwrap_or(0);
        }
    }
    (spillover, steady, peak)
}

fn main() {
    let opts = BenchOpts::parse();
    // `--servers N` pins the sweep to one size (CI smoke); the default
    // sweeps the scaling points the issue calls for.
    let sweep: Vec<u16> = match opts.servers {
        Some(n) => vec![n.max(2)],
        None => vec![2, 4, 8],
    };
    let keys_per_partition = 5_000u32;
    let max_servers = *sweep.iter().max().expect("non-empty sweep");
    println!("# Ablation: bounded executor vs thread-per-message, read set {READ_SET}");
    println!("partitions,mode,tput_ktps,mean_ms,spillover_spawns,threads_steady,threads_peak");
    let mut report = BenchReport::new(
        "ablation_executor",
        max_servers,
        opts.duration().as_secs_f64(),
    );
    for &servers in &sweep {
        let mut spawn_tput = 0.0_f64;
        for pooled in [false, true] {
            let mode = if pooled { "pooled" } else { "spawn" };
            let exec = if pooled {
                ExecConfig::default()
            } else {
                ExecConfig::spawn_per_message()
            };
            let cluster = build_cluster(servers, exec, keys_per_partition);
            for p in 0..servers {
                for i in 0..keys_per_partition {
                    cluster.load(rkey(p, i), Value::from_i64(i as i64));
                    cluster.load(wkey(p, i), Value::from_i64(0));
                }
            }
            let workload = RmwWorkload {
                db: cluster.database(),
                partitions: servers,
                keys_per_partition,
            };
            cluster.reset_stats();
            let driven = run_windowed(&workload, &opts.driver(8, 64));
            let snapshot = cluster.snapshot();
            let (spillover, steady, peak) = exec_totals(&snapshot, servers);
            let r = RunResult::from_parts(&driven, snapshot);
            println!(
                "{servers},{mode},{:.2},{:.2},{spillover},{steady},{peak}",
                r.tput_ktps, r.mean_latency_ms,
            );
            if pooled {
                let ratio = if spawn_tput > 0.0 {
                    r.tput_ktps / spawn_tput
                } else {
                    0.0
                };
                println!("# p{servers}: pooled/spawn throughput ratio {ratio:.2}x");
            } else {
                spawn_tput = r.tput_ktps;
            }
            report.push(format!("p{servers},{mode}"), r);
            cluster.shutdown();
            // Give OS threads a moment to wind down between runs.
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    report.emit(&opts).expect("write ablation_executor report");
}
