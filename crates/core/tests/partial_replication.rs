//! Partial replication and epoch-boundary failover, deterministically:
//! attach/detach lifecycle, hotness-driven placement, standby promotion on
//! `kill_server`, and the shipping protocol over real TCP sockets.
//!
//! The seeded end-to-end failover runs (faults + live load + checkers) live
//! in the workspace-level chaos suite; these tests pin down each mechanism
//! in isolation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::tempdir::TempDir;
use aloha_common::{Error, Key, PartitionId, ServerId, Timestamp, Value};
use aloha_core::{
    fn_program, Cluster, ClusterConfig, DurableLogSpec, PartialReplicationSpec, ProgramId,
    ServerMsg, ServerMsgCodec, TxnPlan,
};
use aloha_functor::{
    ComputeInput, Functor, HandlerId, HandlerOutput, HandlerRegistry, UserFunctor,
};
use aloha_net::{reply_pair, Addr, TcpTransport, Transport};
use aloha_replica::Standby;
use aloha_storage::partition::LocalOnlyEnv;
use aloha_storage::wal::WalRecord;
use aloha_storage::Partition;

const INCR: ProgramId = ProgramId(1);
const COPY: ProgramId = ProgramId(2);
const H_COPY: HandlerId = HandlerId(7);

/// One key per partition of a `total`-server cluster.
fn key_on(partition: u16, total: u16) -> Key {
    (0..)
        .map(|i: u32| Key::from_parts(&[b"pr", &i.to_be_bytes()]))
        .find(|k| k.partition(total).0 == partition)
        .expect("some key maps to the partition")
}

/// `dst := src` via a user functor, so the destination partition's processor
/// resolves a cross-partition read (push-cache traffic on `dst`'s BE).
fn copy_handler(input: &ComputeInput<'_>) -> HandlerOutput {
    let src = Key::from(input.args);
    let v = input.reads.i64(&src).unwrap_or(0);
    HandlerOutput::commit(Value::from_i64(v))
}

fn builder_with_programs(config: ClusterConfig) -> aloha_core::ClusterBuilder {
    let mut builder = Cluster::builder(config);
    builder.register_program(
        INCR,
        fn_program(|ctx| Ok(TxnPlan::new().write(Key::from(ctx.args), Functor::add(1)))),
    );
    builder.register_handler(H_COPY, copy_handler);
    builder.register_program(
        COPY,
        fn_program(|ctx| {
            let dst_len = u16::from_be_bytes(ctx.args[0..2].try_into().unwrap()) as usize;
            let dst = Key::from(&ctx.args[2..2 + dst_len]);
            let src = Key::from(&ctx.args[2 + dst_len..]);
            Ok(TxnPlan::new().write(
                dst,
                Functor::User(UserFunctor::new(
                    H_COPY,
                    vec![src.clone()],
                    src.as_bytes().to_vec(),
                )),
            ))
        }),
    );
    builder
}

fn encode_copy(dst: &Key, src: &Key) -> Vec<u8> {
    let mut args = Vec::new();
    args.extend_from_slice(&(dst.as_bytes().len() as u16).to_be_bytes());
    args.extend_from_slice(dst.as_bytes());
    args.extend_from_slice(src.as_bytes());
    args
}

fn increment_n(db: &aloha_core::Database, key: &Key, n: usize) {
    let handles: Vec<_> = (0..n)
        .map(|_| db.execute(INCR, key.as_bytes()).unwrap())
        .collect();
    for h in handles {
        h.wait_processed().unwrap();
    }
}

fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    probe()
}

#[test]
fn promotion_preserves_state_and_serves_without_restart() {
    let total = 3u16;
    let victim = ServerId(1);
    let spec = PartialReplicationSpec::new(1)
        .with_pinned(vec![victim.0])
        .with_rebalance_interval(Duration::from_millis(10));
    let cluster = builder_with_programs(
        ClusterConfig::new(total)
            .with_epoch_duration(Duration::from_millis(2))
            .with_partial_replication_spec(spec),
    )
    .start()
    .unwrap();
    // The pin attached at start, before any traffic.
    assert_eq!(cluster.replicated_partitions(), vec![victim]);

    let db = cluster.database();
    let keys: Vec<Key> = (0..total).map(|p| key_on(p, total)).collect();
    for k in &keys {
        increment_n(&db, k, 10);
    }
    let pre = db.read_latest(&keys).unwrap();
    for v in &pre {
        assert_eq!(v.as_ref().and_then(Value::as_i64), Some(10));
    }
    // Partial replication auto-enabled the in-memory WAL it ships from.
    assert!(
        cluster.wal_snapshots().iter().all(|w| !w.is_empty()),
        "partial replication must auto-enable a WAL to ship"
    );
    // The standby acked a replicated watermark covering real traffic.
    assert!(
        wait_until(Duration::from_secs(2), || {
            cluster.standby_watermark(victim).unwrap_or(Timestamp::ZERO) > Timestamp::ZERO
        }),
        "shipped batches must advance the standby watermark"
    );

    cluster.kill_server(victim).unwrap();
    // `kill_server` promoted the standby before returning: the slot is up,
    // no restart happened (and none is possible — the slot is not down).
    assert_eq!(cluster.availability().kills(), 1);
    assert_eq!(cluster.availability().failovers(), 1);
    assert_eq!(cluster.availability().restarts(), 0);
    assert!(cluster.availability().downtime_micros(victim.0) > 0);
    assert!(matches!(
        cluster.restart_server(victim),
        Err(Error::Config(_))
    ));

    // Every pre-kill commit survives through the promoted standby.
    let post = db.read_latest(&keys).unwrap();
    assert_eq!(pre, post, "promotion lost committed state");
    // And the promoted server keeps serving writes.
    increment_n(&db, &keys[victim.0 as usize], 10);
    let after = db.read_latest(&keys).unwrap();
    assert_eq!(
        after[victim.0 as usize].as_ref().and_then(Value::as_i64),
        Some(20)
    );

    let snapshot = cluster.snapshot();
    let replication = snapshot.child("replication").expect("replication subtree");
    assert_eq!(replication.counter("promotions"), Some(1));
    let availability = snapshot
        .child("availability")
        .expect("availability subtree");
    let p = availability
        .child(&format!("p{}", victim.0))
        .expect("victim availability child");
    assert_eq!(p.counter("failovers"), Some(1));
    assert!(p.counter("downtime_micros").unwrap_or(0) > 0);

    // The promotion consumed the pinned partition's standby; the controller
    // attaches a fresh one to the promoted incumbent.
    assert!(
        wait_until(Duration::from_secs(2), || {
            cluster.replicated_partitions() == vec![victim]
        }),
        "pinned partition must regain a standby after promotion"
    );
    cluster.shutdown();
}

#[test]
fn unreplicated_partition_stays_down_until_restart() {
    let total = 3u16;
    let dir = TempDir::new("pr-unreplicated");
    // Budget 1, pinned elsewhere: ServerId(0) holds no standby, so its
    // only way back is a restart from the durable log.
    let spec = PartialReplicationSpec::new(1).with_pinned(vec![2]);
    let cluster = builder_with_programs(
        ClusterConfig::new(total)
            .with_epoch_duration(Duration::from_millis(2))
            .with_durable_log(DurableLogSpec::new(dir.path()))
            .with_partial_replication_spec(spec),
    )
    .start()
    .unwrap();
    let db = cluster.database();
    let key = key_on(0, total);
    increment_n(&db, &key, 3);

    cluster.kill_server(ServerId(0)).unwrap();
    // No standby, no promotion: the slot stays down (a second kill reports
    // "already down") until the documented restart fallback brings it back.
    assert_eq!(cluster.availability().failovers(), 0);
    assert!(matches!(
        cluster.kill_server(ServerId(0)),
        Err(Error::Config(_))
    ));
    cluster.restart_server(ServerId(0)).unwrap();
    assert_eq!(cluster.availability().restarts(), 1);
    let after = db.read_latest(std::slice::from_ref(&key)).unwrap();
    assert_eq!(
        after[0].as_ref().and_then(Value::as_i64),
        Some(3),
        "the restart must recover the partition from its durable log"
    );
    cluster.shutdown();
}

#[test]
fn detached_pin_is_reattached_by_the_controller() {
    let total = 3u16;
    let spec = PartialReplicationSpec::new(1)
        .with_pinned(vec![0])
        .with_rebalance_interval(Duration::from_millis(25));
    let cluster = builder_with_programs(
        ClusterConfig::new(total)
            .with_epoch_duration(Duration::from_millis(2))
            .with_partial_replication_spec(spec),
    )
    .start()
    .unwrap();
    // Attach is idempotent on an already-replicated partition.
    assert!(!cluster.attach_standby(ServerId(0)).unwrap());
    assert!(cluster.detach_standby(ServerId(0)));
    assert!(!cluster.detach_standby(ServerId(0)));
    // The controller notices the missing pin and re-attaches online.
    assert!(
        wait_until(Duration::from_secs(2), || {
            cluster.replicated_partitions() == vec![ServerId(0)]
        }),
        "controller must re-attach a detached pin"
    );
    assert!(matches!(
        cluster.attach_standby(ServerId(9)),
        Err(Error::NoSuchPartition(_))
    ));
    cluster.shutdown();

    // Without partial replication configured, the API says so.
    let bare =
        builder_with_programs(ClusterConfig::new(1).with_epoch_duration(Duration::from_millis(2)))
            .start()
            .unwrap();
    assert!(matches!(
        bare.attach_standby(ServerId(0)),
        Err(Error::Config(_))
    ));
    assert!(!bare.detach_standby(ServerId(0)));
    assert!(bare.replicated_partitions().is_empty());
    bare.shutdown();
}

#[test]
fn hotness_controller_moves_the_standby_to_the_hot_partition() {
    let total = 3u16;
    let hot = 2u16;
    let spec = PartialReplicationSpec::new(1).with_rebalance_interval(Duration::from_millis(25));
    let cluster = builder_with_programs(
        ClusterConfig::new(total)
            .with_epoch_duration(Duration::from_millis(2))
            .with_partial_replication_spec(spec),
    )
    .start()
    .unwrap();
    let db = cluster.database();
    // Seed the sources, then hammer partition `hot` with cross-partition
    // copies: its BE resolves every remote read, so its push-cache signal
    // dwarfs the others and the budget's single standby must move there.
    let dst = key_on(hot, total);
    let srcs = [key_on(0, total), key_on(1, total)];
    for s in &srcs {
        increment_n(&db, s, 2);
    }
    let moved = wait_until(Duration::from_secs(5), || {
        for s in &srcs {
            let h = db.execute(COPY, encode_copy(&dst, s)).unwrap();
            let _ = h.wait_processed();
        }
        cluster.replicated_partitions() == vec![ServerId(hot)]
    });
    let snapshot = cluster.snapshot();
    let hotness = snapshot.child("hotness").expect("hotness subtree");
    assert!(
        moved,
        "standby must follow the hotness signal to partition {hot}: {snapshot:?}"
    );
    // The gauge subtree scores every live partition and flags the placement.
    // (Ranks are instantaneous: once the load drains they decay, so only the
    // placement flag is stable enough to assert.)
    for p in 0..total {
        let child = hotness
            .child(&format!("p{p}"))
            .expect("per-partition hotness child");
        assert_eq!(
            child.gauge("replicated"),
            Some(u64::from(p == hot)),
            "replicated flag must track the standby placement"
        );
        assert!(child.gauge("score").is_some());
        assert!(child.gauge("hit_rate_pct").is_some());
    }
    cluster.shutdown();
}

/// The shipping protocol over real sockets: a `ShipBatch` with WAL-encoded
/// frames crosses a genuine TCP connection to a standby applier on another
/// transport, and the replicated-watermark ack crosses back — the
/// correlation the primary's feed and the promotion flush barrier rely on.
#[test]
fn ship_batches_traverse_real_tcp_sockets() {
    let id = ServerId(1);
    let a = TcpTransport::bind("127.0.0.1:0", Arc::new(ServerMsgCodec)).unwrap();
    let b = TcpTransport::bind("127.0.0.1:0", Arc::new(ServerMsgCodec)).unwrap();
    a.add_peer(Addr::Replica(id), b.local_addr());
    let endpoint = b.register(Addr::Replica(id));

    let standby = Arc::new(Standby::new(Arc::new(Partition::new(
        PartitionId(id.0),
        3,
        Arc::new(HandlerRegistry::new()),
    ))));
    let applier = {
        let standby = Arc::clone(&standby);
        std::thread::spawn(move || loop {
            match endpoint.recv() {
                Ok(ServerMsg::ShipBatch {
                    watermark,
                    frames,
                    reply,
                    ..
                }) => {
                    standby.apply_batch(watermark, &frames).unwrap();
                    reply.send(standby.watermark());
                }
                Ok(ServerMsg::Shutdown) | Err(_) => break,
                Ok(_) => {}
            }
        })
    };

    let keys: Vec<Key> = (0..3u32)
        .map(|i| Key::from_parts(&[b"tcp", &i.to_be_bytes()]))
        .collect();
    let frames: Vec<(u64, Vec<u8>)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let record = WalRecord::Install {
                key: k.clone(),
                version: Timestamp::from_raw((i as u64 + 1) * 7),
                functor: Functor::Value(Value::from_i64(i as i64 + 100)),
            };
            let mut buf = Vec::new();
            record.encode_into(&mut buf);
            (record.version().raw(), buf)
        })
        .collect();
    let watermark = Timestamp::from_raw(21);
    let (reply, handle) = reply_pair::<Timestamp>();
    a.send_reliable(
        Addr::Replica(id),
        ServerMsg::ShipBatch {
            from: PartitionId(id.0),
            watermark,
            frames: Arc::new(frames),
            reply,
        },
    )
    .unwrap();
    let acked = handle
        .wait_timeout(Duration::from_secs(5))
        .expect("watermark ack over TCP");
    assert_eq!(acked, watermark);
    assert!(
        a.stats().bytes_out() > 0,
        "the batch must actually cross the wire"
    );

    // The promotion flush barrier: an empty batch queued FIFO behind the
    // real ones, whose ack proves everything before it was applied.
    let (reply, handle) = reply_pair::<Timestamp>();
    a.send_reliable(
        Addr::Replica(id),
        ServerMsg::ShipBatch {
            from: PartitionId(id.0),
            watermark,
            frames: Arc::new(Vec::new()),
            reply,
        },
    )
    .unwrap();
    assert_eq!(
        handle
            .wait_timeout(Duration::from_secs(5))
            .expect("barrier ack over TCP"),
        watermark
    );

    for (i, k) in keys.iter().enumerate() {
        let read = standby
            .partition()
            .get(k, Timestamp::from_raw(1_000), &LocalOnlyEnv)
            .unwrap();
        assert_eq!(read.value, Some(Value::from_i64(i as i64 + 100)));
    }

    let _ = a.send_reliable(Addr::Replica(id), ServerMsg::Shutdown);
    applier.join().unwrap();
    a.shutdown();
    b.shutdown();
}
