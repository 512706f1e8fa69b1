//! Ablation: destination-batched RPC (per-destination envelope coalescing).
//!
//! Workload: a multi-partition YCSB-style read-modify-write mix. Each
//! transaction writes two keys — one on its home partition, one on the next
//! partition — and each written key's functor aggregates a read set of
//! [`READ_SET`] reference keys owned by the writing partition's neighbors,
//! so every functor compute must gather values from remote partitions.
//! In both modes that gather is one `RemoteGetBatch` per owning partition
//! with the requests fanned out in parallel. The toggle is the transport
//! `Batcher` alone: batched, concurrent functors' installs, gathers and
//! pushes to one destination share envelopes; unbatched, every message is
//! its own transport send.
//!
//! The epoch is deliberately short (3 ms, not the paper's 25 ms): in the
//! closed-loop driver throughput is proportional to `window / latency`, and
//! with a 25 ms epoch the wait for the epoch to settle dominates latency in
//! both modes, masking exactly the messaging cost this ablation isolates.
//! A short epoch makes the functor-computing round trips the dominant term,
//! which is the regime Fig 6's multi-server points live in.
//!
//! Reported: throughput, mean latency, batch counters (messages per
//! envelope), and the batched/unbatched throughput ratio per network.

use std::time::Duration;

use aloha_bench::{BenchOpts, BenchReport, RunResult};
use aloha_common::{Key, Value};
use aloha_core::{fn_program, BatchConfig, Cluster, ClusterConfig, ProgramId, TxnOutcome, TxnPlan};
use aloha_functor::{ComputeInput, Functor, HandlerId, HandlerOutput, UserFunctor};
use aloha_workloads::driver::{run_windowed, Workload};
use rand::rngs::SmallRng;
use rand::Rng;

const RMW: ProgramId = ProgramId(1);
const H_SUM: HandlerId = HandlerId(1);
/// Reference keys each written key's functor reads (split across the two
/// neighboring partitions).
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
        // Pin the coordinator to the home partition so the outcome probe
        // resolves locally, as a co-located client would.
        self.db.execute_at(aloha_common::ServerId(p), RMW, args)
    }

    fn wait(&self, handle: Self::Handle) -> aloha_common::Result<bool> {
        Ok(handle.wait_processed()? == TxnOutcome::Committed)
    }
}

fn build_cluster(
    servers: u16,
    net: aloha_net::NetConfig,
    batch: Option<BatchConfig>,
    keys_per_partition: u32,
) -> Cluster {
    let mut config = ClusterConfig::new(servers)
        .with_epoch_duration(EPOCH)
        .with_net(net);
    if let Some(batch) = batch {
        config = config.with_batching(batch);
    }
    let mut builder = Cluster::builder(config);
    // Sum the reference reads; the written value is the aggregate.
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

fn main() {
    let opts = BenchOpts::parse();
    let servers = opts.servers().max(2);
    let keys_per_partition = 5_000u32;
    println!("# Ablation: destination-batched RPC, {servers} servers, read set {READ_SET}");
    println!("network,mode,tput_ktps,mean_ms,batches,msgs_per_batch");
    let mut report = BenchReport::new("ablation_batch", servers, opts.duration().as_secs_f64());
    let networks = [
        ("instant", aloha_net::NetConfig::instant()),
        (
            "300us",
            aloha_net::NetConfig::with_latency(Duration::from_micros(300)),
        ),
    ];
    for (net_name, net) in &networks {
        let mut unbatched_tput = 0.0_f64;
        for batched in [false, true] {
            let batch = batched.then(BatchConfig::default);
            let cluster = build_cluster(servers, net.clone(), batch, keys_per_partition);
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
            let net_node = snapshot.child("net");
            let batches = net_node
                .and_then(|n| n.counter("batch_batches"))
                .unwrap_or(0);
            let occupancy = net_node
                .and_then(|n| n.stage("batch_occupancy"))
                .map_or(0.0, |s| s.mean_micros);
            let r = RunResult::from_parts(&driven, snapshot);
            println!(
                "{net_name},{},{:.2},{:.2},{batches},{occupancy:.2}",
                if batched { "batched" } else { "unbatched" },
                r.tput_ktps,
                r.mean_latency_ms,
            );
            if batched {
                let ratio = if unbatched_tput > 0.0 {
                    r.tput_ktps / unbatched_tput
                } else {
                    0.0
                };
                println!("# {net_name}: batched/unbatched throughput ratio {ratio:.2}x");
            } else {
                unbatched_tput = r.tput_ktps;
            }
            report.push(
                format!(
                    "{net_name},{}",
                    if batched { "batched" } else { "unbatched" }
                ),
                r,
            );
            cluster.shutdown();
            // Give OS threads a moment to wind down between runs.
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    report.emit(&opts).expect("write ablation_batch report");
}
