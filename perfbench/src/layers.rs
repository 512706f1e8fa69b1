//! Per-layer metrics of a traced run: spans around each client call, the
//! engine's stats tree and per-thread CPU, each taken as an end-minus-start
//! delta over the measured window.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | layer | metrics | moves | workloads |
//! |---|---|---|---|
//! | FE write-only phase | `fe.execute_*`, `stage.transform_us`, `stage.timestamp_grant_us`, `stage.functor_install_us`, `core.installs_per_txn`, `cpu.client_us_per_op`, `gen.late_*` | `commit_p50_ms`, `cpu_us_per_op` | most on `tpcc-mix`, `ycsb-rmw-tcp`; least on `ycsb-b` |
//! | Epoch | `fe.wait_*`, `epoch.*`, `stage.epoch_close_us`, `stage.commit_us`, `cpu.epoch_us_per_op` | `commit_p50_ms`, `commit_p99_ms` | the three write-heavy ones; no change to `read_p50_ms` |
//! | Functor computing | `stage.functor_computing_us`, `storage.computes_per_txn`, `storage.on_demand_pct`, `storage.*_per_txn`, `cpu.proc_us_per_op`, `cpu.exited_us_per_op` | `cpu_us_per_op`, `commit_p99_ms` | most on `tpcc-mix`; least on `ycsb-b` |
//! | Compaction and memory | `cpu.compaction_us_per_op`, `storage.*_records`, `storage.approx_mb` | `cpu_us_per_op`, `rss_mb` | `ycsb-b` only |
//! | Snapshot reads | `fe.read_*`, `stage.snapshot_read_us`, `storage.push_cache_hit_pct` | `read_p50_ms` | most on `ycsb-b` |
//! | Executor and bus | `exec.*`, `net.messages_per_txn`, `cpu.dispatch_us_per_op`, `cpu.exec_us_per_op` | `cpu_us_per_op`, `commit_p99_ms` | the simulated-bus ones |
//! | TCP, codec, node host | `tcp.*`, `cpu.tcp_us_per_op` | `cpu_us_per_op`, `commit_p50_ms` | `ycsb-rmw-tcp` only; no change elsewhere |
//! | Machine (2 shared cores) | `sched.runq_wait_ms_per_s` | every tail | all |
//! | Set-up | `setup.start_s`, `setup.load_s` | `setup_s` | all |
//!
//! `stage.*` are the engine's own stage means (its percentiles are
//! power-of-two bucket bounds, so they are not used); `epoch.switch_max_us`
//! is the largest switch since the deployment started. A `Node` exports no
//! epoch-manager stats, so on `ycsb-rmw-tcp` the `epoch_manager` node comes
//! from [`crate::epochtap`], which times the manager's own messages on node
//! 0's transport. Every metric is reported on every workload; a stats tree
//! without a component a metric needs is a broken run.
//!
//! `cpu.*` group the threads by name; `cpu.exited_us_per_op` is process CPU
//! minus that of the threads alive at the end, mostly the crews processors
//! spawn per batch (the senders live until the window closes, so their CPU
//! is in `cpu.client_us_per_op`).

use std::collections::BTreeMap;
use std::time::Instant;

use aloha_common::stats::{process_rss_bytes, StatsSnapshot};

use crate::openloop::{Edge, Kind, OpRecord, Outcome, Plan};
use crate::probe::{self, ThreadStat};
use crate::report::Metric;
use crate::stats::Tail;
use crate::Window;

/// Readings taken at one edge of the measured window. Untraced runs take
/// only the clock, the CPU time and the resident set.
#[derive(Debug)]
pub struct Reading {
    /// When the process readings were taken.
    pub at: Instant,
    /// Process CPU so far.
    pub cpu_ns: u64,
    /// Resident set, in bytes.
    pub rss_bytes: u64,
    /// Live threads (traced runs only).
    pub threads: BTreeMap<u32, ThreadStat>,
    /// The engine's stats trees (traced runs only).
    pub trees: Vec<StatsSnapshot>,
}

impl Reading {
    /// Takes a reading of the process and, when `traced`, of every thread
    /// and of the engine's stats trees (from `trees`). Walking the threads
    /// and the trees costs CPU (the trees visit every chain), so both are
    /// taken outside the window: before the process readings when it opens,
    /// after them when it closes.
    pub fn take(edge: Edge, traced: bool, trees: impl Fn() -> Vec<StatsSnapshot>) -> Reading {
        let mut r = Reading {
            at: Instant::now(),
            cpu_ns: 0,
            rss_bytes: 0,
            threads: BTreeMap::new(),
            trees: Vec::new(),
        };
        if traced && edge == Edge::Open {
            r.trees = trees();
            r.threads = probe::threads();
        }
        r.at = Instant::now();
        r.cpu_ns = probe::process_cpu_ns();
        r.rss_bytes = process_rss_bytes();
        if traced && edge == Edge::Close {
            r.threads = probe::threads();
            r.trees = trees();
        }
        r
    }
}

/// Which layer a thread works for, by its (15-byte) name.
fn thread_group(name: &str) -> &'static str {
    const GROUPS: [(&str, &str); 7] = [
        ("pb-", "client"),
        ("epoch-manager", "epoch"),
        ("proc-", "proc"),
        ("dispatch-", "dispatch"),
        ("exec-", "exec"),
        ("tcp-", "tcp"),
        ("compaction-", "compaction"),
    ];
    GROUPS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("other", |(_, group)| group)
}

/// Every node of a forest of stats trees, depth first.
fn nodes(trees: &[StatsSnapshot]) -> Vec<&StatsSnapshot> {
    let mut out = Vec::new();
    let mut stack: Vec<&StatsSnapshot> = trees.iter().rev().collect();
    while let Some(node) = stack.pop() {
        out.push(node);
        stack.extend(node.children.iter().rev());
    }
    out
}

/// Whether a node belongs to the component `kind` ("server" matches every
/// `server_<i>` node; other kinds match exactly).
fn is(node: &StatsSnapshot, kind: &str) -> bool {
    if kind == "server" {
        node.name.starts_with("server_")
    } else {
        node.name == kind
    }
}

/// The trees' `kind` nodes.
///
/// # Panics
///
/// Panics if there are none: every deployment exports every component a
/// metric is read from, so a missing one is a broken run.
fn matching<'a>(trees: &'a [StatsSnapshot], kind: &str) -> Vec<&'a StatsSnapshot> {
    let matched: Vec<_> = nodes(trees).into_iter().filter(|n| is(n, kind)).collect();
    assert!(!matched.is_empty(), "the stats trees hold no {kind} node");
    matched
}

/// A counter summed over `kind` nodes; a node without it counts 0.
fn counter(trees: &[StatsSnapshot], kind: &str, name: &str) -> u64 {
    let matched = matching(trees, kind);
    matched.iter().filter_map(|n| n.counter(name)).sum()
}

/// A stage's (sample count, summed microseconds, largest sample) across
/// `kind` nodes.
fn stage(trees: &[StatsSnapshot], kind: &str, name: &str) -> (u64, f64, u64) {
    let matched = matching(trees, kind);
    let stages = matched.iter().filter_map(|n| n.stage(name));
    stages.fold((0, 0.0, 0), |(count, sum, max), s| {
        (
            count + s.count,
            sum + s.count as f64 * s.mean_micros,
            max.max(s.max_micros),
        )
    })
}

/// The window deltas between two readings.
struct Delta<'a> {
    r0: &'a Reading,
    r1: &'a Reading,
}

impl Delta<'_> {
    fn counter(&self, kind: &str, name: &str) -> f64 {
        let c0 = counter(&self.r0.trees, kind, name);
        let c1 = counter(&self.r1.trees, kind, name);
        c1.saturating_sub(c0) as f64
    }

    /// Mean of the stage's samples recorded inside the window (0 without
    /// samples).
    fn stage_mean(&self, kind: &str, name: &str) -> f64 {
        let (c0, s0, _) = stage(&self.r0.trees, kind, name);
        let (c1, s1, _) = stage(&self.r1.trees, kind, name);
        if c1 > c0 {
            (s1 - s0) / (c1 - c0) as f64
        } else {
            0.0
        }
    }

    fn level(&self, kind: &str, name: &str) -> f64 {
        counter(&self.r1.trees, kind, name) as f64
    }

    /// CPU microseconds per thread group, plus `exited`: process CPU minus
    /// the CPU of threads still alive at the end.
    fn cpu_us(&self) -> BTreeMap<&'static str, f64> {
        let mut groups = BTreeMap::new();
        let mut live_ns = 0u64;
        for (tid, end) in &self.r1.threads {
            let start = self.r0.threads.get(tid).map_or(0, |t| t.run_ns);
            let ns = end.run_ns.saturating_sub(start);
            live_ns += ns;
            *groups.entry(thread_group(&end.name)).or_insert(0.0) += ns as f64 / 1e3;
        }
        let process_ns = self.r1.cpu_ns.saturating_sub(self.r0.cpu_ns);
        groups.insert("exited", process_ns.saturating_sub(live_ns) as f64 / 1e3);
        groups
    }

    /// Run-queue wait summed over threads alive at the end, in ms.
    fn runq_wait_ms(&self) -> f64 {
        self.r1
            .threads
            .iter()
            .map(|(tid, end)| {
                let start = self.r0.threads.get(tid).map_or(0, |t| t.wait_ns);
                end.wait_ns.saturating_sub(start) as f64 / 1e6
            })
            .sum()
    }
}

/// The tail of `span` over the measured window's operations of `kind` (of
/// every kind when `None`).
fn span_tail(
    plan: &Plan,
    records: &[OpRecord],
    kind: Option<Kind>,
    span: impl Fn(&OpRecord) -> f64,
) -> Tail {
    Tail::of(
        records
            .iter()
            .enumerate()
            .filter(|(i, r)| plan.in_window(*i) && kind.is_none_or(|k| r.kind == k))
            .map(|(_, r)| span(r))
            .collect(),
    )
}

/// Every per-layer metric of a traced run. `seen` is the run's own
/// end-to-end view (reported as `traced.*`, for the tracing overhead),
/// `setup` the median (start, load) seconds. Counts `_per_txn` are per
/// transaction offered in the window, read-only ones included.
///
/// # Panics
///
/// Panics if the stats trees lack a component a metric is read from.
pub fn per_layer(
    plan: &Plan,
    records: &[OpRecord],
    r0: &Reading,
    r1: &Reading,
    seen: &Window,
    setup: (f64, f64),
) -> Vec<Metric> {
    let d = Delta { r0, r1 };
    let n = plan.window_ops as f64;
    let secs = r1.at.duration_since(r0.at).as_secs_f64();
    let per_op = |v: f64| v / n;
    let pct = |part: f64, whole: f64| {
        if whole > 0.0 {
            part * 100.0 / whole
        } else {
            0.0
        }
    };
    let failed_inf = |r: &OpRecord, v: f64| {
        if r.outcome == Outcome::Failed {
            f64::INFINITY
        } else {
            v
        }
    };

    let execute = span_tail(plan, records, Some(Kind::Write), |r| {
        (r.issue_end - r.issue_start) as f64 / 1e3
    });
    let wait = span_tail(plan, records, Some(Kind::Write), |r| {
        failed_inf(
            r,
            r.done.unwrap_or(0).saturating_sub(r.wait_start) as f64 / 1e6,
        )
    });
    let read = span_tail(plan, records, Some(Kind::Read), |r| {
        failed_inf(r, (r.issue_end - r.issue_start) as f64 / 1e3)
    });
    let late = span_tail(plan, records, None, OpRecord::late_us);

    let cpu = d.cpu_us();
    let cpu_of = |group: &str| per_op(cpu.get(group).copied().unwrap_or(0.0));
    let per_txn = |kind: &str, name: &str| per_op(d.counter(kind, name));
    let computes = d.counter("partition", "computes");
    let hits = d.counter("memory", "push_cache_hits");
    let misses = d.counter("memory", "push_cache_misses");
    let (_, _, switch_max) = stage(&r1.trees, "epoch_manager", "epoch_switch");
    let exec_tasks = d.counter("exec", "sharded_tasks") + d.counter("exec", "blocking_tasks");
    let mb = |bytes: f64| bytes / (1024.0 * 1024.0);

    let rows: [(&str, &str, f64); 58] = [
        ("fe.execute_p50_us", "us", execute.p50),
        ("fe.execute_p99_us", "us", execute.p99),
        (
            "stage.transform_us",
            "us",
            d.stage_mean("server", "transform"),
        ),
        (
            "stage.timestamp_grant_us",
            "us",
            d.stage_mean("server", "timestamp_grant"),
        ),
        (
            "stage.functor_install_us",
            "us",
            d.stage_mean("server", "functor_install"),
        ),
        (
            "core.installs_per_txn",
            "count",
            per_txn("server", "installs"),
        ),
        ("cpu.client_us_per_op", "us/op", cpu_of("client")),
        ("gen.late_p50_us", "us", late.p50),
        ("gen.late_p99_us", "us", late.p99),
        ("fe.wait_p50_ms", "ms", wait.p50),
        ("fe.wait_p99_ms", "ms", wait.p99),
        (
            "epoch.switch_mean_us",
            "us",
            d.stage_mean("epoch_manager", "epoch_switch"),
        ),
        ("epoch.switch_max_us", "us", switch_max as f64),
        (
            "epoch.per_s",
            "1/s",
            d.counter("epoch_manager", "epochs_completed") / secs,
        ),
        (
            "epoch.revoke_resends",
            "count",
            d.counter("epoch_manager", "revoke_resends"),
        ),
        (
            "stage.epoch_close_us",
            "us",
            d.stage_mean("server", "epoch_close"),
        ),
        ("stage.commit_us", "us", d.stage_mean("server", "commit")),
        ("cpu.epoch_us_per_op", "us/op", cpu_of("epoch")),
        (
            "stage.functor_computing_us",
            "us",
            d.stage_mean("server", "functor_computing"),
        ),
        ("storage.computes_per_txn", "count", per_op(computes)),
        (
            "storage.on_demand_pct",
            "%",
            pct(d.counter("partition", "on_demand_computes"), computes),
        ),
        (
            "storage.remote_reads_per_txn",
            "count",
            per_txn("partition", "remote_reads"),
        ),
        (
            "storage.push_hits_per_txn",
            "count",
            per_txn("partition", "push_hits"),
        ),
        (
            "storage.deferred_installs_per_txn",
            "count",
            per_txn("partition", "deferred_installs"),
        ),
        (
            "storage.aborted_versions_per_txn",
            "count",
            per_txn("partition", "aborted_versions"),
        ),
        ("cpu.proc_us_per_op", "us/op", cpu_of("proc")),
        ("cpu.exited_us_per_op", "us/op", cpu_of("exited")),
        ("cpu.compaction_us_per_op", "us/op", cpu_of("compaction")),
        (
            "storage.live_records",
            "count",
            d.level("memory", "live_records"),
        ),
        (
            "storage.settled_records",
            "count",
            d.level("memory", "settled_records"),
        ),
        (
            "storage.compacted_records",
            "count",
            d.counter("memory", "compacted_records"),
        ),
        (
            "storage.approx_mb",
            "MB",
            mb(d.level("memory", "approx_bytes")),
        ),
        ("fe.read_p50_us", "us", read.p50),
        ("fe.read_p99_us", "us", read.p99),
        (
            "stage.snapshot_read_us",
            "us",
            d.stage_mean("server", "snapshot_read"),
        ),
        ("storage.push_cache_hit_pct", "%", pct(hits, hits + misses)),
        ("exec.tasks_per_txn", "count", per_op(exec_tasks)),
        (
            "exec.queue_depth_mean",
            "count",
            d.stage_mean("exec", "queue_depth"),
        ),
        (
            "exec.spillover_spawns",
            "count",
            d.counter("exec", "spillover_spawns"),
        ),
        (
            "exec.threads_peak",
            "count",
            d.level("exec", "threads_peak"),
        ),
        ("net.messages_per_txn", "count", per_txn("net", "messages")),
        ("cpu.dispatch_us_per_op", "us/op", cpu_of("dispatch")),
        ("cpu.exec_us_per_op", "us/op", cpu_of("exec")),
        (
            "tcp.bytes_out_per_txn",
            "bytes",
            per_txn("net", "tcp_bytes_out"),
        ),
        (
            "tcp.frames_out_per_txn",
            "count",
            per_txn("net", "tcp_frames_out"),
        ),
        (
            "tcp.reconnects",
            "count",
            d.counter("net", "tcp_reconnects"),
        ),
        (
            "tcp.frame_errors",
            "count",
            d.counter("net", "tcp_frame_errors"),
        ),
        ("cpu.tcp_us_per_op", "us/op", cpu_of("tcp")),
        ("cpu.other_us_per_op", "us/op", cpu_of("other")),
        ("sched.runq_wait_ms_per_s", "ms/s", d.runq_wait_ms() / secs),
        ("setup.start_s", "s", setup.0),
        ("setup.load_s", "s", setup.1),
        ("traced.commit_p50_ms", "ms", seen.commit.p50),
        ("traced.commit_p99_ms", "ms", seen.commit.p99),
        ("traced.read_p50_ms", "ms", seen.read.p50),
        ("traced.read_p99_ms", "ms", seen.read.p99),
        ("traced.cpu_us_per_op", "us", seen.cpu_us_per_op),
        ("traced.rss_mb", "MB", seen.rss_mb),
    ];
    rows.into_iter()
        .map(|(name, unit, value)| Metric::new(name, unit, value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::{self, Issued, Target};
    use std::time::Duration;

    /// A system whose every operation is a read that spins the sender's CPU
    /// for 400 µs.
    struct Burner;

    impl Target for Burner {
        type Op = ();
        type Handle = ();

        fn kind(&self, _: &()) -> Kind {
            Kind::Read
        }

        fn issue(&self, _: &()) -> Result<Issued<()>, String> {
            let until = Instant::now() + Duration::from_micros(400);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            Ok(Issued::Done)
        }

        fn wait(&self, _: ()) -> Result<Outcome, String> {
            Ok(Outcome::Committed)
        }

        fn abort(&self) {}
    }

    #[test]
    fn the_senders_cpu_lands_in_the_client_group() {
        let plan = Plan {
            interval: Duration::from_millis(1),
            warmup_ops: 0,
            window_ops: 100,
            drain: Duration::from_millis(100),
        };
        let mut edges = Vec::new();
        openloop::run(&Burner, &[(); 100], &plan, |edge| {
            edges.push(Reading::take(edge, true, Vec::new));
        });
        let [r0, r1] = edges.as_slice() else {
            unreachable!("two edges");
        };
        // 100 operations spun 40 ms, nearly all of it on a CPU, and the
        // sender is still alive when the window closes.
        let cpu = Delta { r0, r1 }.cpu_us();
        assert!(
            cpu.get("client").is_some_and(|us| *us > 20_000.0),
            "{cpu:?}"
        );
    }

    #[test]
    fn threads_group_by_name() {
        assert_eq!(thread_group("pb-send"), "client");
        assert_eq!(thread_group("proc-s3-1"), "proc");
        assert_eq!(thread_group("compaction-swee"), "compaction");
        assert_eq!(thread_group("exec-s0-shard1"), "exec");
        assert_eq!(thread_group("perfbench"), "other");
    }

    #[test]
    fn counters_sum_over_matching_nodes_only() {
        let mut root = StatsSnapshot::new("cluster");
        root.set_counter("installs", 100);
        for i in 0..2 {
            let mut server = StatsSnapshot::new(format!("server_{i}"));
            server.set_counter("installs", 30 + i);
            let mut partition = StatsSnapshot::new("partition");
            partition.set_counter("computes", 7);
            server.push_child(partition);
            root.push_child(server);
        }
        let trees = [root];
        assert_eq!(counter(&trees, "server", "installs"), 61);
        assert_eq!(counter(&trees, "partition", "computes"), 14);
        // A node without the counter counts 0.
        assert_eq!(counter(&trees, "partition", "push_hits"), 0);
    }

    #[test]
    #[should_panic(expected = "no epoch_manager node")]
    fn a_missing_component_is_a_broken_run() {
        counter(
            &[StatsSnapshot::new("cluster")],
            "epoch_manager",
            "revoke_resends",
        );
    }
}
