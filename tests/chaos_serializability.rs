//! Chaos serializability tests: both engines must stay serializable while
//! the simulated network drops, duplicates and reorders messages and a
//! partition window isolates one server mid-run.
//!
//! Each run records a commit history (ALOHA: per-transaction
//! [`CommitRecord`]s at the coordinators; Calvin: the merged deterministic
//! schedule), replays it sequentially, and diffs the replayed final state
//! against the cluster's. Every assertion failure message embeds the seed
//! and the one-line `FaultPlan`, so any failing run can be replayed exactly:
//! copy the printed plan knobs into `fault_plan(seed)` and re-run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aloha_common::stats::StatsSnapshot;
use aloha_common::tempdir::TempDir;
use aloha_common::{Key, ServerId, Timestamp, Value};
use aloha_db::calvin::{
    fn_program as calvin_program, CalvinCluster, CalvinConfig, CalvinDurability, CalvinPlan,
    ProgramId as CalvinProgramId,
};
use aloha_db::control::ControlConfig;
use aloha_db::core_engine::{
    diff_states, fn_program, replay_history, Cluster, ClusterConfig, CommitRecord, DurableLogSpec,
    PartialReplicationSpec, ProgramId, ServerMsgCodec, TxnOutcome, TxnPlan,
};
use aloha_functor::{
    ComputeInput, Functor, HandlerId, HandlerOutput, HandlerRegistry, UserFunctor,
};
use aloha_net::{CrashAlign, CrashPlan, ExecConfig, FaultPlan, LinkFault, NetConfig, TcpTransport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sum of the fault layer's injected-disruption counters, read from the
/// cluster snapshot's `net` subtree (transport counters are no longer
/// reachable as raw getters).
fn injected_faults(snapshot: &StatsSnapshot) -> u64 {
    let net = snapshot.child("net").expect("snapshot has a net subtree");
    ["injected_drops", "injected_dups", "injected_reorders"]
        .into_iter()
        .map(|c| net.counter(c).unwrap_or(0))
        .sum()
}

const AFFINE: ProgramId = ProgramId(1);
const H_AFFINE: HandlerId = HandlerId(1);
const CALVIN_AFFINE: CalvinProgramId = CalvinProgramId(1);

/// Default seeds swept by the chaos tests; override with one printed by a
/// failing run via `CHAOS_SEED=<n> cargo test --test chaos_serializability`.
const DEFAULT_SEEDS: [u64; 3] = [7, 1011, 90210];

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

fn key(i: usize) -> Key {
    Key::from_parts(&[b"reg", &(i as u32).to_be_bytes()])
}

/// The fault mix exercised by every chaos run: per-link drops, duplicates
/// and reorders, plus one partition window isolating server 1 mid-run.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_default_link(LinkFault::lossy(0.03, 0.03, 0.05, Duration::from_millis(1)))
        .with_partition(
            Duration::from_millis(25),
            Duration::from_millis(55),
            vec![ServerId(1)],
        )
}

/// The affine handler body: `dst := 2*src + c`, a non-commutative cross-key
/// operation, so any lost, duplicated or reordered effect changes the final
/// state. Shared between the live cluster and the checker's replay registry.
fn affine_handler(input: &ComputeInput<'_>) -> HandlerOutput {
    let src = Key::from(&input.args[0..input.args.len() - 8]);
    let c = i64::from_be_bytes(input.args[input.args.len() - 8..].try_into().unwrap());
    let v = input.reads.i64(&src).unwrap_or(0);
    HandlerOutput::commit(Value::from_i64(v.wrapping_mul(2).wrapping_add(c)))
}

fn encode_affine(dst: &Key, src: &Key, c: i64) -> Vec<u8> {
    let mut args = Vec::new();
    args.extend_from_slice(&(dst.as_bytes().len() as u16).to_be_bytes());
    args.extend_from_slice(dst.as_bytes());
    args.extend_from_slice(src.as_bytes());
    args.extend_from_slice(&c.to_be_bytes());
    args
}

fn decode_affine(args: &[u8]) -> (Key, Key, i64) {
    let dst_len = u16::from_be_bytes(args[0..2].try_into().unwrap()) as usize;
    let dst = Key::from(&args[2..2 + dst_len]);
    let rest = &args[2 + dst_len..];
    let src = Key::from(&rest[..rest.len() - 8]);
    let c = i64::from_be_bytes(rest[rest.len() - 8..].try_into().unwrap());
    (dst, src, c)
}

/// Formats a divergence report so the seed and fault plan always accompany
/// the failure (the reproduction recipe).
fn failure_report(
    engine: &str,
    seed: u64,
    plan: &FaultPlan,
    divergences: &[aloha_db::core_engine::Divergence],
) -> String {
    let mut msg = format!("{engine} diverged from the serial order under seed {seed} with {plan}:");
    for d in divergences {
        msg.push_str(&format!(
            "\n  key {:?}: expected {:?}, cluster holds {:?}",
            d.key,
            d.expected.as_ref().and_then(Value::as_i64),
            d.actual.as_ref().and_then(Value::as_i64)
        ));
    }
    msg
}

// ---------------------------------------------------------------------
// ALOHA-DB under chaos.
// ---------------------------------------------------------------------

fn aloha_chaos_run(
    seed: u64,
    exec: Option<ExecConfig>,
    control: Option<ControlConfig>,
) -> Result<(), String> {
    aloha_chaos_run_tuned(seed, exec, control, |c| c).map(|_| ())
}

/// [`aloha_chaos_run`] with a hook over the cluster configuration, so chaos
/// variants (e.g. aggressive compaction) reuse the same workload, fault
/// plan and checker. Returns the cluster's end-of-run snapshot so callers
/// can assert on engine internals (e.g. that compaction actually folded).
fn aloha_chaos_run_tuned(
    seed: u64,
    exec: Option<ExecConfig>,
    control: Option<ControlConfig>,
    tune: impl FnOnce(ClusterConfig) -> ClusterConfig,
) -> Result<StatsSnapshot, String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 80;

    let plan = fault_plan(seed);
    let mut config = ClusterConfig::new(3)
        .with_epoch_duration(Duration::from_millis(2))
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_rpc_timeout(Duration::from_millis(25))
        .with_history();
    if let Some(exec) = exec {
        config = config.with_exec(exec);
    }
    if let Some(control) = control {
        config = config.with_control(control);
    }
    let mut builder = Cluster::builder(tune(config));
    builder.register_handler(H_AFFINE, affine_handler);
    builder.register_program(
        AFFINE,
        fn_program(|ctx| {
            let (dst, src, _) = decode_affine(ctx.args);
            let mut handler_args = src.as_bytes().to_vec();
            handler_args.extend_from_slice(&ctx.args[ctx.args.len() - 8..]);
            Ok(TxnPlan::new().write(
                dst,
                Functor::User(UserFunctor::new(H_AFFINE, vec![src], handler_args)),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();

    // Fire paced concurrent transactions so the run spans the partition
    // window. Individual failures are tolerated: a transaction the
    // coordinator gave up on is recorded as install-aborted and must then
    // leave no trace in the final state — exactly what the checker verifies.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut handles = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    if let Ok(h) = db.execute(AFFINE, encode_affine(&dst, &src, c)) {
                        handles.push(h);
                    }
                    if i % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                for h in handles {
                    let _ = h.wait_processed();
                }
            });
        }
    });

    // The run must actually have been disrupted, or the test proves nothing.
    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );

    // Snapshot the recorded history and read the cluster's final state.
    let final_snapshot = cluster.snapshot();
    let mut records = cluster
        .history()
        .expect("history recording enabled")
        .snapshot();
    // The workload starts from an empty store, but keep the pattern honest:
    // seed rows would enter the replay as one synthetic bottom record.
    records.sort_by_key(|r| r.ts);
    let key_list: Vec<Key> = (0..KEYS).map(key).collect();
    let finals = db
        .read_latest(&key_list)
        .map_err(|e| format!("final read failed under seed {seed} with {plan}: {e}"))?;
    let actual: HashMap<Key, Option<Value>> = key_list.iter().cloned().zip(finals).collect();
    cluster.shutdown();

    let mut handlers = HandlerRegistry::new();
    handlers.register(H_AFFINE, affine_handler);
    let expected = replay_history(&records, &handlers)
        .map_err(|e| format!("replay failed under seed {seed} with {plan}: {e}"))?;
    let divergences = diff_states(&expected, &actual);
    if divergences.is_empty() {
        Ok(final_snapshot)
    } else {
        Err(failure_report("ALOHA", seed, &plan, &divergences))
    }
}

#[test]
fn aloha_serializable_under_drops_dups_reorders_and_partition() {
    for seed in seeds() {
        if let Err(msg) = aloha_chaos_run(seed, None, None) {
            panic!("{msg}");
        }
    }
}

/// Executor pool sizes forced to one on both engines: a single sharded
/// worker serializes every install/abort globally and a single blocking
/// worker forces the spillover path for all concurrent recursion, shaking
/// out any ordering assumption that silently depended on pool parallelism.
/// The nightly sweep runs this on one seed (it subsumes no other test).
#[test]
fn serializable_under_chaos_with_pool_size_one() {
    let tiny = ExecConfig::default()
        .with_sharded_workers(1)
        .with_blocking_workers(1);
    for seed in seeds() {
        if let Err(msg) = aloha_chaos_run(seed, Some(tiny.clone()), None) {
            panic!("pool-size-1 run: {msg}");
        }
        if let Err(msg) = calvin_chaos_run(seed, Some(tiny.clone()), None) {
            panic!("pool-size-1 calvin run: {msg}");
        }
    }
}

/// Sums `compacted_records` over every `memory` subtree of a snapshot.
fn compacted_records(node: &StatsSnapshot) -> u64 {
    let own = if node.name == "memory" {
        node.counter("compacted_records").unwrap_or(0)
    } else {
        0
    };
    own + node.children.iter().map(compacted_records).sum::<u64>()
}

/// The most aggressive retention the compactor offers — `keep_versions = 1`,
/// swept every epoch — must not change any observable outcome while the
/// fault layer is disrupting traffic. This is the dangerous configuration:
/// almost every committed version below the watermark folds into the
/// materialized base, so a fold that ate a version some straggler, probe or
/// replayed message still needed would surface here as a divergence.
///
/// Calvin's store is single-version (last-writer-wins puts), so it runs
/// `keep_versions = 1` semantics inherently; its plain chaos run
/// ([`calvin_serializable_under_drops_dups_reorders_and_partition`]) is the
/// parity for this test. The run asserts the sweeper actually folded —
/// otherwise nothing was tested.
#[test]
fn aloha_serializable_under_chaos_with_aggressive_compaction() {
    for seed in seeds() {
        match aloha_chaos_run_tuned(seed, None, None, |c| {
            c.with_compaction(Duration::from_millis(2), 1)
        }) {
            Ok(snapshot) => {
                let folded = compacted_records(&snapshot);
                assert!(
                    folded > 0,
                    "compaction-on chaos run folded nothing under seed {seed}"
                );
            }
            Err(msg) => panic!("aggressive-compaction run: {msg}"),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot reads under chaos: read-only transactions ride the version-chain
// fast path (no epoch wait) while writers, the fault layer and the partition
// window keep disrupting the run. Every observed snapshot must be an
// *externally consistent cut* of the serial order: it equals the replayed
// state after some commit-timestamp prefix of the history, and that prefix
// covers the reader's own latest committed write (read-your-writes).
// ---------------------------------------------------------------------

/// Seeds the snapshot-read sweep adds to the default ones.
const SNAPSHOT_EXTRA_SEEDS: [u64; 1] = [31337];

/// Seeds for the snapshot-read chaos sweep: the default sweep plus
/// [`SNAPSHOT_EXTRA_SEEDS`], so the fast path sees at least four fault
/// schedules.
fn snapshot_seeds() -> Vec<u64> {
    let mut swept = seeds();
    if std::env::var("CHAOS_SEED").is_err() {
        swept.extend(SNAPSHOT_EXTRA_SEEDS);
    }
    swept
}

fn aloha_snapshot_chaos_run(
    seed: u64,
    tune: impl FnOnce(ClusterConfig) -> ClusterConfig,
) -> Result<StatsSnapshot, String> {
    aloha_snapshot_chaos_run_with(seed, None, tune)
}

/// [`aloha_snapshot_chaos_run`] with an optional mid-run kill of a
/// *replicated* backend: the kill promotes the standby inside `kill_server`
/// (no restart call), and the external-consistency checker then judges the
/// snapshot reads taken before, across and after the failover.
fn aloha_snapshot_chaos_run_with(
    seed: u64,
    crash: Option<CrashPlan>,
    tune: impl FnOnce(ClusterConfig) -> ClusterConfig,
) -> Result<StatsSnapshot, String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 60;

    let plan = fault_plan(seed);
    let config = ClusterConfig::new(3)
        .with_epoch_duration(Duration::from_millis(2))
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_rpc_timeout(Duration::from_millis(25))
        .with_history();
    let mut builder = Cluster::builder(tune(config));
    builder.register_handler(H_AFFINE, affine_handler);
    builder.register_program(
        AFFINE,
        fn_program(|ctx| {
            let (dst, src, _) = decode_affine(ctx.args);
            let mut handler_args = src.as_bytes().to_vec();
            handler_args.extend_from_slice(&ctx.args[ctx.args.len() - 8..]);
            Ok(TxnPlan::new().write(
                dst,
                Functor::User(UserFunctor::new(H_AFFINE, vec![src], handler_args)),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    let key_list: Vec<Key> = (0..KEYS).map(key).collect();

    // Every observed snapshot, tagged with the reader's own commit it must
    // cover: (own committed timestamp, full-keyspace values).
    let observed: Mutex<Vec<(Timestamp, Vec<Option<i64>>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            let key_list = &key_list;
            let observed = &observed;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    // Failures are tolerated: the partition window can shed
                    // a write or time a read out; the checker only judges
                    // what was actually observed.
                    let Ok(h) = db.execute(AFFINE, encode_affine(&dst, &src, c)) else {
                        continue;
                    };
                    if i % 3 == 0 {
                        // Read-your-writes probe: commit, then snapshot-read
                        // the whole key space through the same session.
                        if matches!(h.wait_processed(), Ok(TxnOutcome::Committed)) {
                            let ts = h.timestamp();
                            if let Ok(values) = db.read_latest(key_list) {
                                let vals =
                                    values.iter().map(|v| v.as_ref().and_then(Value::as_i64));
                                observed.lock().unwrap().push((ts, vals.collect()));
                            }
                        }
                    } else {
                        let _ = h.wait_processed();
                        if i % 8 == 0 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                    }
                }
            });
        }
        if let Some(crash) = &crash {
            let db = db.clone();
            let cluster = &cluster;
            scope.spawn(move || {
                std::thread::sleep(crash.kill_after);
                align_kill(&db, crash.align);
                cluster
                    .kill_server(crash.target)
                    .unwrap_or_else(|e| panic!("kill failed under {crash}: {e}"));
                // Failover, not restart: the standby was promoted inside
                // `kill_server`, so the slot is live again right here.
                assert_eq!(
                    cluster.availability().failovers(),
                    1,
                    "replicated kill must promote under seed {seed} with {crash}"
                );
            });
        }
    });

    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );

    let final_snapshot = cluster.snapshot();
    let mut records = cluster
        .history()
        .expect("history recording enabled")
        .snapshot();
    records.sort_by_key(|r| r.ts);
    let finals = db
        .read_latest(&key_list)
        .map_err(|e| format!("final read failed under seed {seed} with {plan}: {e}"))?;
    let actual: HashMap<Key, Option<Value>> = key_list.iter().cloned().zip(finals).collect();
    cluster.shutdown();

    // Serializability of the writes, exactly as the plain chaos run checks.
    let mut handlers = HandlerRegistry::new();
    handlers.register(H_AFFINE, affine_handler);
    let expected = replay_history(&records, &handlers)
        .map_err(|e| format!("replay failed under seed {seed} with {plan}: {e}"))?;
    let divergences = diff_states(&expected, &actual);
    if !divergences.is_empty() {
        return Err(failure_report("ALOHA", seed, &plan, &divergences));
    }

    // External consistency of the snapshot reads. The serial order is the
    // commit-timestamp order, so the only legal snapshots are the states
    // after each prefix of the history; enumerate them all.
    let prefixes: Vec<Vec<Option<i64>>> = (0..=records.len())
        .map(|i| {
            let state = replay_history(&records[..i], &handlers)
                .map_err(|e| format!("prefix replay failed under seed {seed}: {e}"))?;
            Ok(key_list
                .iter()
                .map(|k| state.get(k).and_then(Value::as_i64))
                .collect())
        })
        .collect::<Result<_, String>>()?;
    let observed = observed.into_inner().unwrap();
    assert!(
        !observed.is_empty(),
        "no snapshot read survived the chaos under seed {seed} with {plan}"
    );
    for (own_ts, snapshot) in &observed {
        // The reader had already observed its own commit at `own_ts`, so
        // only prefixes covering that commit are externally consistent.
        let idx_own = records.partition_point(|r| r.ts <= *own_ts);
        let matched = (idx_own..=records.len()).any(|i| &prefixes[i] == snapshot);
        if !matched {
            let torn = prefixes.iter().any(|p| p == snapshot);
            return Err(format!(
                "{} under seed {seed} with {plan}: a reader that committed at \
                 {own_ts:?} observed {snapshot:?}",
                if torn {
                    "snapshot read lost the reader's own write"
                } else {
                    "snapshot read observed a torn state (no prefix of the \
                     serial order matches)"
                }
            ));
        }
    }
    Ok(final_snapshot)
}

#[test]
fn serializable_under_chaos_with_snapshot_reads() {
    for seed in snapshot_seeds() {
        if let Err(msg) = aloha_snapshot_chaos_run(seed, |c| c) {
            panic!("snapshot-read run: {msg}");
        }
        if let Err(msg) = calvin_snapshot_chaos_run(seed) {
            panic!("snapshot-read calvin run: {msg}");
        }
    }
}

/// Snapshot reads against the most aggressive retention the compactor
/// offers (`keep_versions = 1`, swept every 2 ms): the folded-retry
/// protocol and the in-flight read registry must keep every observed
/// snapshot exact while almost all settled history folds away under them.
/// The run asserts the sweeper actually folded — otherwise nothing raced.
#[test]
fn aloha_snapshot_reads_consistent_under_aggressive_compaction() {
    for seed in snapshot_seeds() {
        match aloha_snapshot_chaos_run(seed, |c| c.with_compaction(Duration::from_millis(2), 1)) {
            Ok(snapshot) => {
                let folded = compacted_records(&snapshot);
                assert!(
                    folded > 0,
                    "compaction-on snapshot-read run folded nothing under seed {seed}"
                );
            }
            Err(msg) => panic!("aggressive-compaction snapshot-read run: {msg}"),
        }
    }
}

/// Calvin parity for the snapshot-read chaos sweep. Calvin's store is
/// single-version, so its `Snapshot` read mode is documented best-effort:
/// a multi-partition transaction mid-write-back may be observed half
/// applied. The checker therefore validates a weaker, still falsifiable
/// property: every observed value for a key must be one the deterministic
/// schedule actually committed to that key (or the initial absence) — a
/// phantom value would mean reads invent or corrupt data.
fn calvin_snapshot_chaos_run(seed: u64) -> Result<(), String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 30;

    let plan = fault_plan(seed);
    let calvin_config = CalvinConfig::new(3)
        .with_batch_duration(Duration::from_millis(5))
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_history();
    let mut builder = CalvinCluster::builder(calvin_config);
    builder.register_program(
        CALVIN_AFFINE,
        calvin_program(
            |args| {
                let (dst, src, _) = decode_affine(args);
                CalvinPlan {
                    read_set: vec![src],
                    write_set: vec![dst],
                }
            },
            |args, reads, writes| {
                let (dst, src, c) = decode_affine(args);
                let v = reads
                    .get(&src)
                    .and_then(|v| v.as_ref())
                    .and_then(Value::as_i64)
                    .unwrap_or(0);
                writes.push((dst, Value::from_i64(v.wrapping_mul(2).wrapping_add(c))));
            },
        ),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    let key_list: Vec<Key> = (0..KEYS).map(key).collect();
    let observed: Mutex<Vec<Vec<Option<i64>>>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            let key_list = &key_list;
            let observed = &observed;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    let h = db
                        .execute(CALVIN_AFFINE, encode_affine(&dst, &src, c))
                        .unwrap();
                    if i % 3 == 0 {
                        h.wait()
                            .expect("calvin transaction must complete despite faults");
                        if let Ok(values) = db.read_latest(key_list) {
                            let vals = values.iter().map(|v| v.as_ref().and_then(Value::as_i64));
                            observed.lock().unwrap().push(vals.collect());
                        }
                    } else {
                        h.wait()
                            .expect("calvin transaction must complete despite faults");
                        if i % 8 == 0 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                    }
                }
            });
        }
    });

    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );

    let schedule = cluster.history().expect("history recording enabled");
    cluster.shutdown();

    // Per-key committed value histories from the deterministic schedule.
    let mut model: HashMap<Key, i64> = HashMap::new();
    let mut legal: HashMap<Key, Vec<Option<i64>>> = HashMap::new();
    for k in &key_list {
        legal.insert(k.clone(), vec![None]);
    }
    for txn in &schedule {
        let (dst, src, c) = decode_affine(&txn.args);
        let v = model.get(&src).copied().unwrap_or(0);
        let next = v.wrapping_mul(2).wrapping_add(c);
        model.insert(dst.clone(), next);
        legal.entry(dst).or_default().push(Some(next));
    }
    let observed = observed.into_inner().unwrap();
    assert!(
        !observed.is_empty(),
        "no calvin read survived the chaos under seed {seed} with {plan}"
    );
    for snapshot in &observed {
        for (k, got) in key_list.iter().zip(snapshot) {
            if !legal[k].contains(got) {
                return Err(format!(
                    "Calvin read a phantom value under seed {seed} with {plan}: \
                     key {k:?} observed {got:?}, never committed"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Calvin under chaos.
// ---------------------------------------------------------------------

fn calvin_chaos_run(
    seed: u64,
    exec: Option<ExecConfig>,
    control: Option<ControlConfig>,
) -> Result<(), String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 40;

    let plan = fault_plan(seed);
    let mut calvin_config = CalvinConfig::new(3)
        .with_batch_duration(Duration::from_millis(5))
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_history();
    if let Some(exec) = exec {
        calvin_config = calvin_config.with_exec(exec);
    }
    if let Some(control) = control {
        calvin_config = calvin_config.with_control(control);
    }
    let mut builder = CalvinCluster::builder(calvin_config);
    builder.register_program(
        CALVIN_AFFINE,
        calvin_program(
            |args| {
                let (dst, src, _) = decode_affine(args);
                CalvinPlan {
                    read_set: vec![src],
                    write_set: vec![dst],
                }
            },
            |args, reads, writes| {
                let (dst, src, c) = decode_affine(args);
                let v = reads
                    .get(&src)
                    .and_then(|v| v.as_ref())
                    .and_then(Value::as_i64)
                    .unwrap_or(0);
                writes.push((dst, Value::from_i64(v.wrapping_mul(2).wrapping_add(c))));
            },
        ),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut handles = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    handles.push(
                        db.execute(CALVIN_AFFINE, encode_affine(&dst, &src, c))
                            .unwrap(),
                    );
                    if i % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                for h in handles {
                    h.wait()
                        .expect("calvin transaction must complete despite faults");
                }
            });
        }
    });

    // The run must actually have been disrupted, or the test proves nothing.
    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );

    // All submissions completed on every participant, so the stores are
    // quiescent. Replay the recorded deterministic order.
    let schedule = cluster.history().expect("history recording enabled");
    let mut model: HashMap<Key, i64> = HashMap::new();
    for txn in &schedule {
        let (dst, src, c) = decode_affine(&txn.args);
        let v = model.get(&src).copied().unwrap_or(0);
        model.insert(dst, v.wrapping_mul(2).wrapping_add(c));
    }
    let expected: HashMap<Key, Value> = model
        .into_iter()
        .map(|(k, v)| (k, Value::from_i64(v)))
        .collect();
    let actual: HashMap<Key, Option<Value>> = (0..KEYS)
        .map(key)
        .map(|k| (k.clone(), cluster.read(&k)))
        .collect();
    let total = schedule.len();
    cluster.shutdown();

    if total != THREADS * TXNS_PER_THREAD {
        return Err(format!(
            "Calvin schedule lost transactions under seed {seed} with {plan}: \
             recorded {total}, submitted {}",
            THREADS * TXNS_PER_THREAD
        ));
    }
    let divergences = diff_states(&expected, &actual);
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(failure_report("Calvin", seed, &plan, &divergences))
    }
}

#[test]
fn calvin_serializable_under_drops_dups_reorders_and_partition() {
    for seed in seeds() {
        if let Err(msg) = calvin_chaos_run(seed, None, None) {
            panic!("{msg}");
        }
    }
}

// ---------------------------------------------------------------------
// Chaos with the adaptive pacer steering epoch/batch durations live: the
// controller must never trade serializability for throughput, on either
// engine, while the fault layer keeps its pressure signals jumping. The
// gate window (256) exceeds the peak in-flight count, so nothing sheds and
// every submitted transaction still enters the history.
// ---------------------------------------------------------------------

#[test]
fn serializable_under_chaos_with_adaptive_pacer() {
    for seed in seeds() {
        let aloha_control = ControlConfig::adaptive(Duration::from_millis(2));
        if let Err(msg) = aloha_chaos_run(seed, None, Some(aloha_control)) {
            panic!("adaptive-pacer run: {msg}");
        }
        let calvin_control = ControlConfig::adaptive(Duration::from_millis(5));
        if let Err(msg) = calvin_chaos_run(seed, None, Some(calvin_control)) {
            panic!("adaptive-pacer calvin run: {msg}");
        }
    }
}

// ---------------------------------------------------------------------
// Crash chaos: a seeded CrashPlan kills one durable backend mid-run and
// restarts it from its WAL while client traffic and the lossy fault layer
// keep running. The run then goes through the same serializability checker
// as every other chaos run — zero divergences allowed — and every failure
// message embeds both the FaultPlan and the CrashPlan, so a failing
// schedule replays exactly.
// ---------------------------------------------------------------------

const EPOCH: Duration = Duration::from_millis(2);

/// Waits for the next settled-epoch transition, then (for mid-epoch kills)
/// half an epoch more, so the kill lands where the plan says it does.
fn align_kill(db: &aloha_db::core_engine::Database, align: CrashAlign) {
    let bound = db.visible_bound();
    let deadline = Instant::now() + Duration::from_millis(100);
    while db.visible_bound() == bound && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    if align == CrashAlign::MidEpoch {
        std::thread::sleep(EPOCH / 2);
    }
}

fn aloha_crash_chaos_run(seed: u64, align: CrashAlign) -> Result<(), String> {
    aloha_crash_chaos_run_tuned(seed, align, |c, _| c)
}

/// [`aloha_crash_chaos_run`] with a hook over the cluster configuration
/// (handed the seeded crash plan, so a tune can key off the victim), for
/// variants like "partial replication enabled but the victim is not in the
/// replica set" — where kill-and-restart-from-WAL must keep working exactly
/// as it does without replication.
fn aloha_crash_chaos_run_tuned(
    seed: u64,
    align: CrashAlign,
    tune: impl FnOnce(ClusterConfig, &CrashPlan) -> ClusterConfig,
) -> Result<(), String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 80;

    let plan = FaultPlan::new(seed).with_default_link(LinkFault::lossy(
        0.03,
        0.03,
        0.05,
        Duration::from_millis(1),
    ));
    let crash = CrashPlan::seeded(
        seed,
        3,
        Duration::from_millis(200),
        Duration::from_millis(40),
    )
    .with_align(align);
    let dir = TempDir::new("chaos-crash");
    let config = ClusterConfig::new(3)
        .with_epoch_duration(EPOCH)
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_rpc_timeout(Duration::from_millis(25))
        .with_durable_log(
            // Background checkpoints make the eventual recovery exercise the
            // checkpoint-plus-suffix path, not just a full log replay.
            DurableLogSpec::new(dir.path()).with_checkpoint_interval(Duration::from_millis(20)),
        )
        .with_history();
    let mut builder = Cluster::builder(tune(config, &crash));
    builder.register_handler(H_AFFINE, affine_handler);
    builder.register_program(
        AFFINE,
        fn_program(|ctx| {
            let (dst, src, _) = decode_affine(ctx.args);
            let mut handler_args = src.as_bytes().to_vec();
            handler_args.extend_from_slice(&ctx.args[ctx.args.len() - 8..]);
            Ok(TxnPlan::new().write(
                dst,
                Functor::User(UserFunctor::new(H_AFFINE, vec![src], handler_args)),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    let report = Mutex::new(None);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut handles = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    // Failures are tolerated throughout: during the dead
                    // window a transaction may be shed or give up on its
                    // install; the checker verifies such transactions leave
                    // no trace.
                    if let Ok(h) = db.execute(AFFINE, encode_affine(&dst, &src, c)) {
                        handles.push(h);
                    }
                    if i % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                for h in handles {
                    let _ = h.wait_processed();
                }
            });
        }
        let db = db.clone();
        let cluster = &cluster;
        let crash = &crash;
        let report = &report;
        scope.spawn(move || {
            std::thread::sleep(crash.kill_after);
            align_kill(&db, crash.align);
            cluster
                .kill_server(crash.target)
                .unwrap_or_else(|e| panic!("kill failed under {crash}: {e}"));
            std::thread::sleep(crash.restart_after);
            let r = cluster
                .restart_server(crash.target)
                .unwrap_or_else(|e| panic!("restart failed under {crash}: {e}"));
            *report.lock().unwrap() = Some(r);
        });
    });

    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );
    // Whatever the replication config, this run recovered through the WAL:
    // exactly one restart, never a promotion.
    assert_eq!(
        cluster.availability().restarts(),
        1,
        "crash run must recover via restart-from-WAL under seed {seed} with {crash}"
    );
    assert_eq!(
        cluster.availability().failovers(),
        0,
        "crash run must not promote a standby under seed {seed} with {crash}"
    );
    let report = report
        .lock()
        .unwrap()
        .take()
        .expect("crash thread must have restarted the victim");
    if report.checkpoint == Timestamp::ZERO && report.replayed == 0 {
        return Err(format!(
            "recovery restored nothing under seed {seed} with {crash} — \
             the kill landed before any durable state existed"
        ));
    }

    let mut records = cluster
        .history()
        .expect("history recording enabled")
        .snapshot();
    records.sort_by_key(|r| r.ts);
    let key_list: Vec<Key> = (0..KEYS).map(key).collect();
    let finals = db
        .read_latest(&key_list)
        .map_err(|e| format!("final read failed under seed {seed} with {crash}: {e}"))?;
    let actual: HashMap<Key, Option<Value>> = key_list.iter().cloned().zip(finals).collect();
    cluster.shutdown();

    let mut handlers = HandlerRegistry::new();
    handlers.register(H_AFFINE, affine_handler);
    let expected = replay_history(&records, &handlers)
        .map_err(|e| format!("replay failed under seed {seed} with {crash}: {e}"))?;
    let divergences = diff_states(&expected, &actual);
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{}\n  crash schedule: {crash}",
            failure_report("ALOHA", seed, &plan, &divergences)
        ))
    }
}

/// Retries the one wall-clock-dependent precondition failure: on a starved
/// CPU the seeded kill can land before the victim has any durable state,
/// which voids the scenario (there is nothing to recover) without saying
/// anything about correctness. Divergences and every other error fail on
/// the first attempt.
fn retry_restored_nothing(mut run: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..3 {
        match run() {
            Ok(()) => return Ok(()),
            Err(msg) if msg.contains("restored nothing") => last = msg,
            Err(msg) => return Err(msg),
        }
    }
    Err(last)
}

#[test]
fn aloha_serializable_across_epoch_boundary_kill_and_restart() {
    for seed in seeds() {
        if let Err(msg) =
            retry_restored_nothing(|| aloha_crash_chaos_run(seed, CrashAlign::EpochBoundary))
        {
            panic!("epoch-boundary crash run: {msg}");
        }
    }
}

#[test]
fn aloha_serializable_across_mid_epoch_kill_and_restart() {
    for seed in seeds() {
        if let Err(msg) =
            retry_restored_nothing(|| aloha_crash_chaos_run(seed, CrashAlign::MidEpoch))
        {
            panic!("mid-epoch crash run: {msg}");
        }
    }
}

/// Calvin's crash model is quiescent (see `CalvinCluster::kill_server`), so
/// its chaos run kills between phases: lossy faults stay active throughout,
/// the seeded plan picks the victim, and the merged deterministic schedule
/// across both phases must still replay to the cluster's final state.
fn calvin_crash_chaos_run(seed: u64) -> Result<(), String> {
    const KEYS: usize = 12;
    const TXNS_PER_PHASE: usize = 40;

    let plan = FaultPlan::new(seed).with_default_link(LinkFault::lossy(
        0.03,
        0.03,
        0.05,
        Duration::from_millis(1),
    ));
    let crash = CrashPlan::seeded(
        seed,
        3,
        Duration::from_millis(200),
        Duration::from_millis(10),
    );
    let dir = TempDir::new("chaos-calvin-crash");
    let calvin_config = CalvinConfig::new(3)
        .with_batch_duration(Duration::from_millis(5))
        .with_net(NetConfig::instant().with_fault(plan.clone()))
        .with_durable_log(CalvinDurability::new(dir.path()))
        .with_history();
    let mut builder = CalvinCluster::builder(calvin_config);
    builder.register_program(
        CALVIN_AFFINE,
        calvin_program(
            |args| {
                let (dst, src, _) = decode_affine(args);
                CalvinPlan {
                    read_set: vec![src],
                    write_set: vec![dst],
                }
            },
            |args, reads, writes| {
                let (dst, src, c) = decode_affine(args);
                let v = reads
                    .get(&src)
                    .and_then(|v| v.as_ref())
                    .and_then(Value::as_i64)
                    .unwrap_or(0);
                writes.push((dst, Value::from_i64(v.wrapping_mul(2).wrapping_add(c))));
            },
        ),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();

    let run_phase = |phase: u64| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (phase << 32));
        let mut handles = Vec::new();
        for _ in 0..TXNS_PER_PHASE {
            let dst = key(rng.gen_range(0..KEYS));
            let src = key(rng.gen_range(0..KEYS));
            let c: i64 = rng.gen_range(-100..=100);
            handles.push(
                db.execute(CALVIN_AFFINE, encode_affine(&dst, &src, c))
                    .unwrap(),
            );
        }
        for h in handles {
            h.wait()
                .expect("calvin transaction must complete despite faults");
        }
    };

    run_phase(1);
    // Quiescent kill: every phase-1 submission has fully executed.
    cluster
        .kill_server(crash.target)
        .unwrap_or_else(|e| panic!("kill failed under {crash}: {e}"));
    std::thread::sleep(crash.restart_after);
    let report = cluster
        .restart_server(crash.target)
        .unwrap_or_else(|e| panic!("restart failed under {crash}: {e}"));
    if report.replayed_puts == 0 && report.resume_round == 0 {
        return Err(format!(
            "calvin recovery restored nothing under seed {seed} with {crash}"
        ));
    }
    run_phase(2);

    let injected = injected_faults(&cluster.snapshot());
    assert!(
        injected > 0,
        "fault layer injected nothing under seed {seed} with {plan}"
    );

    let schedule = cluster.history().expect("history recording enabled");
    let mut model: HashMap<Key, i64> = HashMap::new();
    for txn in &schedule {
        let (dst, src, c) = decode_affine(&txn.args);
        let v = model.get(&src).copied().unwrap_or(0);
        model.insert(dst, v.wrapping_mul(2).wrapping_add(c));
    }
    let expected: HashMap<Key, Value> = model
        .into_iter()
        .map(|(k, v)| (k, Value::from_i64(v)))
        .collect();
    let actual: HashMap<Key, Option<Value>> = (0..KEYS)
        .map(key)
        .map(|k| (k.clone(), cluster.read(&k)))
        .collect();
    let total = schedule.len();
    cluster.shutdown();

    if total != 2 * TXNS_PER_PHASE {
        return Err(format!(
            "Calvin schedule lost transactions under seed {seed} with {plan} and {crash}: \
             recorded {total}, submitted {}",
            2 * TXNS_PER_PHASE
        ));
    }
    let divergences = diff_states(&expected, &actual);
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{}\n  crash schedule: {crash}",
            failure_report("Calvin", seed, &plan, &divergences)
        ))
    }
}

#[test]
fn calvin_serializable_across_quiescent_kill_and_restart() {
    for seed in seeds() {
        if let Err(msg) = retry_restored_nothing(|| calvin_crash_chaos_run(seed)) {
            panic!("calvin crash run: {msg}");
        }
    }
}

// ---------------------------------------------------------------------
// Failover chaos: the victim's partition is pinned into the replica set, so
// its standby receives every epoch's WAL batches while the fault layer runs.
// The seeded kill then promotes the standby at the next epoch boundary
// *inside* `kill_server` — no restart call anywhere — and the run must pass
// the same zero-divergence serializability checker as every other chaos run,
// with the availability/replication subtrees proving the failover happened.
// ---------------------------------------------------------------------

fn aloha_failover_chaos_run(seed: u64, align: CrashAlign, tcp: bool) -> Result<(), String> {
    const KEYS: usize = 12;
    const THREADS: usize = 2;
    const TXNS_PER_THREAD: usize = 80;

    let plan = FaultPlan::new(seed).with_default_link(LinkFault::lossy(
        0.03,
        0.03,
        0.05,
        Duration::from_millis(1),
    ));
    let crash = CrashPlan::seeded(
        seed,
        3,
        Duration::from_millis(200),
        Duration::from_millis(40),
    )
    .with_align(align);
    // The victim is pinned into the replica set: the kill must fail over to
    // its standby instead of leaving the slot down. No durable log is
    // configured on purpose — partial replication auto-enables the in-memory
    // WAL it ships from, and promotion never replays a log.
    let mut config = ClusterConfig::new(3)
        .with_epoch_duration(EPOCH)
        .with_rpc_timeout(Duration::from_millis(25))
        .with_history()
        .with_partial_replication_spec(
            PartialReplicationSpec::new(1).with_pinned(vec![crash.target.0]),
        );
    config = if tcp {
        // A real TcpTransport on a loopback socket hosts the whole cluster,
        // exercising the kill/deregister/re-register lifecycle and the ship
        // flow on the TCP transport object. The fault layer belongs to the
        // simulated bus and does not apply here.
        let transport = TcpTransport::bind("127.0.0.1:0", Arc::new(ServerMsgCodec))
            .expect("bind loopback transport");
        config.with_transport(Arc::new(transport))
    } else {
        config.with_net(NetConfig::instant().with_fault(plan.clone()))
    };
    let mut builder = Cluster::builder(config);
    builder.register_handler(H_AFFINE, affine_handler);
    builder.register_program(
        AFFINE,
        fn_program(|ctx| {
            let (dst, src, _) = decode_affine(ctx.args);
            let mut handler_args = src.as_bytes().to_vec();
            handler_args.extend_from_slice(&ctx.args[ctx.args.len() - 8..]);
            Ok(TxnPlan::new().write(
                dst,
                Functor::User(UserFunctor::new(H_AFFINE, vec![src], handler_args)),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut handles = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let dst = key(rng.gen_range(0..KEYS));
                    let src = key(rng.gen_range(0..KEYS));
                    let c: i64 = rng.gen_range(-100..=100);
                    if let Ok(h) = db.execute(AFFINE, encode_affine(&dst, &src, c)) {
                        handles.push(h);
                    }
                    if i % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
                for h in handles {
                    let _ = h.wait_processed();
                }
            });
        }
        let db = db.clone();
        let cluster = &cluster;
        let crash = &crash;
        scope.spawn(move || {
            std::thread::sleep(crash.kill_after);
            align_kill(&db, crash.align);
            cluster
                .kill_server(crash.target)
                .unwrap_or_else(|e| panic!("kill failed under {crash}: {e}"));
            // The tentpole claim: when `kill_server` returns, the slot is
            // already serving again through the promoted standby. A restart
            // now is an argument error because the partition is not down.
            assert_eq!(
                cluster.availability().failovers(),
                1,
                "replicated kill must promote the standby under seed {seed} with {crash}"
            );
            assert!(
                matches!(
                    cluster.restart_server(crash.target),
                    Err(aloha_common::Error::Config(_))
                ),
                "the promoted slot must refuse a restart under seed {seed} with {crash}"
            );
        });
    });

    if !tcp {
        let injected = injected_faults(&cluster.snapshot());
        assert!(
            injected > 0,
            "fault layer injected nothing under seed {seed} with {plan}"
        );
    }

    // Liveness through the promoted server: a write landing on the victim's
    // partition must commit (retries shield the lossy link, not the
    // promotion — the slot never goes down again).
    let dst = (0..KEYS)
        .map(key)
        .find(|k| k.partition(3).0 == crash.target.0)
        .expect("some key maps to the victim partition");
    let committed = (0..20).any(|_| {
        db.execute(AFFINE, encode_affine(&dst, &key(0), 1))
            .is_ok_and(|h| matches!(h.wait_processed(), Ok(TxnOutcome::Committed)))
    });
    if !committed {
        return Err(format!(
            "no post-failover commit landed on the promoted partition under seed {seed} with {crash}"
        ));
    }

    let snapshot = cluster.snapshot();
    let replication = snapshot
        .child("replication")
        .expect("replication stats subtree");
    assert_eq!(
        replication.counter("promotions"),
        Some(1),
        "exactly one promotion under seed {seed} with {crash}"
    );
    let availability = snapshot
        .child("availability")
        .expect("availability stats subtree");
    assert_eq!(availability.counter("failovers"), Some(1));
    assert_eq!(availability.counter("restarts"), Some(0));
    let victim = availability
        .child(&format!("p{}", crash.target.0))
        .expect("victim partition availability child");
    assert!(
        victim.counter("downtime_micros").unwrap_or(0) > 0,
        "the failover window must be accounted under seed {seed} with {crash}"
    );
    assert!(
        snapshot.child("hotness").is_some(),
        "hotness subtree must be exported"
    );
    if !tcp {
        // The dead window plus the lossy links force the epoch manager to
        // retransmit revokes; the promoted standby (a fresh incarnation,
        // like a restart) answers them, which is the §III-C re-join path.
        let em = snapshot
            .child("epoch_manager")
            .expect("epoch_manager stats subtree");
        assert!(
            em.counter("revoke_resends").unwrap_or(0) > 0,
            "lossy links and the failover window must force revoke retransmissions \
             under seed {seed} with {plan}"
        );
    }

    let mut records = cluster
        .history()
        .expect("history recording enabled")
        .snapshot();
    records.sort_by_key(|r| r.ts);
    let key_list: Vec<Key> = (0..KEYS).map(key).collect();
    let finals = db
        .read_latest(&key_list)
        .map_err(|e| format!("final read failed under seed {seed} with {crash}: {e}"))?;
    let actual: HashMap<Key, Option<Value>> = key_list.iter().cloned().zip(finals).collect();
    cluster.shutdown();

    let mut handlers = HandlerRegistry::new();
    handlers.register(H_AFFINE, affine_handler);
    let expected = replay_history(&records, &handlers)
        .map_err(|e| format!("replay failed under seed {seed} with {crash}: {e}"))?;
    let divergences = diff_states(&expected, &actual);
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{}\n  crash schedule: {crash}",
            failure_report("ALOHA", seed, &plan, &divergences)
        ))
    }
}

#[test]
fn aloha_failover_replicated_kill_at_epoch_boundary() {
    for seed in seeds() {
        if let Err(msg) = aloha_failover_chaos_run(seed, CrashAlign::EpochBoundary, false) {
            panic!("epoch-boundary failover run: {msg}");
        }
    }
}

#[test]
fn aloha_failover_replicated_kill_mid_epoch() {
    for seed in seeds() {
        if let Err(msg) = aloha_failover_chaos_run(seed, CrashAlign::MidEpoch, false) {
            panic!("mid-epoch failover run: {msg}");
        }
    }
}

#[test]
fn aloha_failover_over_tcp_transport() {
    for seed in seeds() {
        if let Err(msg) = aloha_failover_chaos_run(seed, CrashAlign::EpochBoundary, true) {
            panic!("tcp failover run: {msg}");
        }
    }
}

/// Partial replication enabled, but the seeded victim holds no standby (the
/// budget is pinned elsewhere): the kill leaves the slot down and the crash
/// run's restart-from-WAL path — the documented fallback for un-replicated
/// partitions — must behave exactly as it does without replication,
/// including the one-restart/zero-failover accounting asserted inside
/// [`aloha_crash_chaos_run_tuned`].
#[test]
fn aloha_unreplicated_kill_falls_back_to_wal_restart() {
    for seed in seeds() {
        if let Err(msg) = retry_restored_nothing(|| {
            aloha_crash_chaos_run_tuned(seed, CrashAlign::MidEpoch, |config, crash| {
                let pinned = (crash.target.0 + 1) % 3;
                config.with_partial_replication_spec(
                    PartialReplicationSpec::new(1).with_pinned(vec![pinned]),
                )
            })
        }) {
            panic!("unreplicated-victim crash run: {msg}");
        }
    }
}

/// External consistency across a failover: read-your-writes snapshot probes
/// run before, across and after a replicated kill, and every observed
/// snapshot must equal a serial-prefix state covering the reader's own
/// commit — the promoted standby cannot serve a state that forgets or tears
/// a committed prefix.
#[test]
fn aloha_snapshot_reads_externally_consistent_across_failover() {
    for seed in seeds() {
        let crash = CrashPlan::seeded(seed, 3, Duration::from_millis(100), Duration::ZERO)
            .with_align(CrashAlign::EpochBoundary);
        let pinned = crash.target.0;
        if let Err(msg) = aloha_snapshot_chaos_run_with(seed, Some(crash), |c| {
            c.with_partial_replication_spec(
                PartialReplicationSpec::new(1).with_pinned(vec![pinned]),
            )
        }) {
            panic!("failover snapshot run: {msg}");
        }
    }
}

// ---------------------------------------------------------------------
// The failure path itself: a forced divergence must print the seed and the
// full fault plan, or a real failure could not be reproduced.
// ---------------------------------------------------------------------

#[test]
fn forced_failure_prints_seed_and_fault_plan() {
    let plan = fault_plan(424242);
    let divergences = vec![aloha_db::core_engine::Divergence {
        key: key(3),
        expected: Some(Value::from_i64(7)),
        actual: Some(Value::from_i64(9)),
    }];
    let msg = failure_report("ALOHA", 424242, &plan, &divergences);
    assert!(
        msg.contains("seed=424242"),
        "report must name the seed: {msg}"
    );
    assert!(
        msg.contains("FaultPlan{"),
        "report must embed the fault plan: {msg}"
    );
    assert!(
        msg.contains("partition["),
        "report must list the partition window: {msg}"
    );
    assert!(
        msg.contains("expected Some(7)"),
        "report must show the divergence: {msg}"
    );

    // The checker flags a genuinely corrupted history the same way end to
    // end: replay a lost-increment history and require a non-empty diff.
    let handlers = HandlerRegistry::new();
    let records = vec![
        CommitRecord {
            ts: Timestamp::from_parts(10, ServerId(0), 0),
            writes: vec![(key(0), Functor::value_i64(1))],
            reads: Vec::new(),
            aborted_at_install: false,
        },
        CommitRecord {
            ts: Timestamp::from_parts(20, ServerId(0), 0),
            writes: vec![(key(0), Functor::add(41))],
            reads: Vec::new(),
            aborted_at_install: false,
        },
    ];
    let expected = replay_history(&records, &handlers).unwrap();
    let actual: HashMap<Key, Option<Value>> =
        [(key(0), Some(Value::from_i64(1)))].into_iter().collect();
    let divergences = diff_states(&expected, &actual);
    assert_eq!(divergences.len(), 1, "lost increment must be flagged");
}
