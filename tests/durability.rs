//! Durability torture tests: the disk WAL's file format under arbitrary
//! truncation and bit-rot, replay idempotency, online ALOHA kill-and-restart
//! with an independent checkpoint-plus-suffix replay check, and a
//! cross-system recovery equivalence run.
//!
//! The property tests drive [`aloha_storage::DurableLog`] directly — the
//! same scan the cluster recovery path uses — so "never a panic, never a
//! partial record" is proven at the layer every engine shares.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use aloha_common::tempdir::TempDir;
use aloha_common::{Error, Key, PartitionId, ServerId, Timestamp, Value};
use aloha_db::core_engine::{
    Cluster, ClusterConfig, DurableLogSpec, PartialReplicationSpec, ProgramId, TxnPlan,
};
use aloha_functor::{Functor, HandlerRegistry};
use aloha_storage::{
    replay_records, restore_checkpoint, DurableLog, DurableLogConfig, LocalOnlyEnv, LogDamage,
    Partition, WalRecord,
};
use proptest::prelude::*;

/// Bytes of segment-file header (magic + sequence number) before frames.
const SEG_HEADER: usize = 16;
/// Bytes of frame header (u32 length + u32 crc) before the body.
const FRAME_HEADER: usize = 8;

fn ts(v: u64) -> Timestamp {
    Timestamp::from_raw(v)
}

/// Writes `payloads` as records 1..=n into a fresh log in `dir` and returns
/// the bytes of the single segment file holding them.
fn write_segment(dir: &Path, payloads: &[Vec<u8>]) -> Vec<u8> {
    let (log, rec) = DurableLog::open(DurableLogConfig::new(dir)).unwrap();
    assert!(rec.records.is_empty());
    for (i, p) in payloads.iter().enumerate() {
        log.append(i as u64 + 1, p).unwrap();
    }
    log.commit().unwrap();
    log.close();
    fs::read(dir.join("wal-00000000.log")).unwrap()
}

/// Byte offsets of each frame boundary in a segment holding `payloads`:
/// `bounds[i]` is where frame `i` starts; the last entry is the file length.
fn frame_bounds(payloads: &[Vec<u8>]) -> Vec<usize> {
    let mut bounds = vec![SEG_HEADER];
    for p in payloads {
        // Body = u64 version + payload.
        let last = *bounds.last().unwrap();
        bounds.push(last + FRAME_HEADER + 8 + p.len());
    }
    bounds
}

/// The records a scan of the tampered directory yields, as `(version,
/// payload)` pairs, plus the damage verdict.
fn rescan(dir: &Path) -> (Vec<(u64, Vec<u8>)>, Option<LogDamage>) {
    let (_log, rec) = DurableLog::open(DurableLogConfig::new(dir)).unwrap();
    (rec.records, rec.damage)
}

proptest! {
    /// Truncating the tail segment at ANY byte offset recovers exactly the
    /// frames that survived whole — never a panic, never a partial record,
    /// and damage is reported precisely when the cut falls mid-frame.
    #[test]
    fn truncation_recovers_exact_valid_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..24), 1..12),
        cut_sel in 0usize..10_000,
    ) {
        let dir = TempDir::new("torn");
        let bytes = write_segment(dir.path(), &payloads);
        let bounds = frame_bounds(&payloads);
        prop_assert_eq!(*bounds.last().unwrap(), bytes.len());

        let cut = cut_sel % (bytes.len() + 1);
        fs::write(dir.join("wal-00000000.log"), &bytes[..cut]).unwrap();

        let (records, damage) = rescan(dir.path());
        // Frames wholly below the cut survive; everything after is gone.
        let survivors = bounds[1..].iter().filter(|b| **b <= cut).count();
        prop_assert_eq!(records.len(), survivors);
        for (i, (version, payload)) in records.iter().enumerate() {
            prop_assert_eq!(*version, i as u64 + 1);
            prop_assert_eq!(payload, &payloads[i]);
        }
        // A cut on a frame boundary is indistinguishable from a clean
        // close; anywhere else must be flagged as a torn tail.
        if bounds.contains(&cut) {
            prop_assert!(damage.is_none(), "clean cut at {} flagged: {:?}", cut, damage);
        } else {
            prop_assert!(
                matches!(damage, Some(LogDamage::TornTail { .. })),
                "cut at {} of {} not reported as torn: {:?}", cut, bytes.len(), damage
            );
        }
    }

    /// Flipping ANY byte anywhere in a segment never yields a record that
    /// was not written: the checksum stops the scan at the damaged frame
    /// and every record before it comes back verbatim.
    #[test]
    fn bit_flip_never_yields_a_wrong_record(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..24), 1..12),
        flip_sel in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let dir = TempDir::new("flip");
        let mut bytes = write_segment(dir.path(), &payloads);
        let bounds = frame_bounds(&payloads);

        let flip = flip_sel % bytes.len();
        bytes[flip] ^= mask;
        fs::write(dir.join("wal-00000000.log"), &bytes).unwrap();

        let (records, damage) = rescan(dir.path());
        if flip < 8 {
            // Magic destroyed: nothing parses, damage at offset zero.
            prop_assert!(records.is_empty());
            prop_assert!(damage.is_some());
        } else if flip < SEG_HEADER {
            // The sequence field is not covered by a frame checksum; the
            // frames themselves are untouched and all come back.
            prop_assert_eq!(records.len(), payloads.len());
        } else {
            // The flip lands inside frame `hit`; the scan returns exactly
            // the frames before it, bit-for-bit.
            let hit = bounds[1..].iter().filter(|b| **b <= flip).count();
            prop_assert_eq!(records.len(), hit);
            prop_assert!(damage.is_some(), "flip at {} undetected", flip);
        }
        for (i, (version, payload)) in records.iter().enumerate() {
            prop_assert_eq!(*version, i as u64 + 1);
            prop_assert_eq!(payload, &payloads[i]);
        }
    }

    /// Replaying the same recovered suffix twice (crash during recovery,
    /// recover again) leaves the same state as replaying it once, and a
    /// checkpoint covering every record makes replay a no-op.
    #[test]
    fn replay_is_idempotent_and_respects_checkpoint(
        ops in proptest::collection::vec(
            (0usize..6, -50i64..50, any::<bool>()), 1..30),
    ) {
        let key = |i: usize| Key::from_parts(&[b"idem", &(i as u32).to_be_bytes()]);
        let dir = TempDir::new("idem");
        let (log, _) = DurableLog::open(DurableLogConfig::new(dir.path())).unwrap();
        let mut model: HashMap<usize, i64> = HashMap::new();
        for (n, (k, delta, abort)) in ops.iter().enumerate() {
            let version = ts(10 + n as u64);
            let record = WalRecord::Install {
                key: key(*k),
                version,
                functor: Functor::Add(*delta),
            };
            record.append_durable(&log).unwrap();
            if *abort {
                WalRecord::Abort { key: key(*k), version }
                    .append_durable(&log)
                    .unwrap();
            } else {
                *model.entry(*k).or_insert(0) += delta;
            }
        }
        log.commit().unwrap();
        log.close();

        let (_log2, rec) = DurableLog::open(DurableLogConfig::new(dir.path())).unwrap();
        prop_assert!(rec.damage.is_none());
        let registry = Arc::new(HandlerRegistry::new());
        let partition = Partition::new(PartitionId(0), 1, Arc::clone(&registry));
        let first = replay_records(&partition, &rec.records, Timestamp::ZERO).unwrap();
        prop_assert!(first > 0);
        let read = |k: usize| {
            partition
                .get(&key(k), Timestamp::MAX, &LocalOnlyEnv)
                .unwrap()
                .value
                .and_then(|v| v.as_i64())
                .unwrap_or(0)
        };
        for k in 0..6 {
            prop_assert_eq!(read(k), model.get(&k).copied().unwrap_or(0));
        }
        // Second replay of the identical suffix: counts the same records,
        // changes nothing.
        let second = replay_records(&partition, &rec.records, Timestamp::ZERO).unwrap();
        prop_assert_eq!(first, second);
        for k in 0..6 {
            prop_assert_eq!(read(k), model.get(&k).copied().unwrap_or(0));
        }
        // A checkpoint at the max version covers every record: nothing to do.
        let max_version = rec.records.iter().map(|(v, _)| *v).max().unwrap();
        let fresh = Partition::new(PartitionId(0), 1, registry);
        prop_assert_eq!(
            replay_records(&fresh, &rec.records, ts(max_version)).unwrap(), 0);
    }
}

// ---------------------------------------------------------------------
// Online ALOHA kill-and-restart over the disk WAL, checked two ways: the
// live cluster's reads, and an offline replay of the same directory through
// the raw storage primitives.
// ---------------------------------------------------------------------

const INCR: ProgramId = ProgramId(1);

fn reg_key(i: usize) -> Key {
    Key::from_parts(&[b"dur", &(i as u32).to_be_bytes()])
}

fn durable_cluster(servers: u16, dir: &TempDir) -> Cluster {
    let config = ClusterConfig::new(servers)
        .with_epoch_duration(Duration::from_millis(2))
        .with_durable_log(DurableLogSpec::new(dir.path()));
    let mut builder = Cluster::builder(config);
    builder.register_program(
        INCR,
        aloha_db::core_engine::fn_program(|ctx| {
            Ok(TxnPlan::new().write(Key::from(ctx.args), Functor::add(1)))
        }),
    );
    builder.start().unwrap()
}

fn incr_all(db: &aloha_db::core_engine::Database, keys: &[Key], times: usize) {
    let handles: Vec<_> = (0..times)
        .flat_map(|_| keys.iter())
        .map(|k| db.execute(INCR, k.as_bytes()).unwrap())
        .collect();
    for h in handles {
        h.wait_processed().unwrap();
    }
}

/// Without a durable log there is nothing to recover a killed partition
/// from, so a restart is refused instead of bringing the partition back
/// empty — also when an in-memory WAL is on, directly or because partial
/// replication (its standby pinned elsewhere) enabled it to ship from.
#[test]
fn aloha_restart_requires_durable_log() {
    let setups = [
        ("no wal", ClusterConfig::new(3)),
        ("memory wal", ClusterConfig::new(3).with_memory_wal()),
        (
            "replication pinned elsewhere",
            ClusterConfig::new(3)
                .with_partial_replication_spec(PartialReplicationSpec::new(1).with_pinned(vec![2])),
        ),
    ];
    for (name, config) in setups {
        let mut builder = Cluster::builder(config.with_epoch_duration(Duration::from_millis(2)));
        builder.register_program(
            INCR,
            aloha_db::core_engine::fn_program(|ctx| {
                Ok(TxnPlan::new().write(Key::from(ctx.args), Functor::add(1)))
            }),
        );
        let cluster = builder.start().unwrap();
        let db = cluster.database();
        incr_all(&db, &[reg_key(0)], 3);
        cluster.kill_server(ServerId(0)).unwrap();
        let restarted = cluster.restart_server(ServerId(0));
        assert!(
            matches!(restarted, Err(Error::Config(_))),
            "{name}: restart without a durable log must be refused, got {restarted:?}"
        );
        assert_eq!(cluster.availability().restarts(), 0, "{name}");
        cluster.shutdown();
    }
}

#[test]
fn aloha_kill_and_restart_recovers_checkpoint_plus_wal_suffix() {
    const KEYS: usize = 8;
    let dir = TempDir::new("aloha-restart");
    let cluster = durable_cluster(2, &dir);
    let db = cluster.database();
    let keys: Vec<Key> = (0..KEYS).map(reg_key).collect();

    // Phase 1 lands inside the checkpoint; phase 2 only in the WAL suffix.
    incr_all(&db, &keys, 5);
    let ckpt = cluster.checkpoint_to_wal().unwrap();
    assert!(ckpt > Timestamp::ZERO, "checkpoint must cover phase 1");
    incr_all(&db, &keys, 3);

    cluster.kill_server(ServerId(0)).unwrap();
    let report = cluster.restart_server(ServerId(0)).unwrap();
    assert_eq!(
        report.checkpoint, ckpt,
        "recovery must restore from the installed checkpoint: {report:?}"
    );
    assert!(
        report.replayed > 0,
        "phase-2 records live only in the WAL suffix: {report:?}"
    );
    // The in-process kill closes the log cleanly, so no frame is torn.
    assert!(
        !report.torn_tail,
        "clean close left a torn tail: {report:?}"
    );

    // Every acknowledged increment survived the crash.
    let finals = db.read_latest(&keys).unwrap();
    for (k, v) in keys.iter().zip(&finals) {
        assert_eq!(
            v.as_ref().and_then(Value::as_i64),
            Some(8),
            "lost increments on {k:?} after restart"
        );
    }

    // Liveness: the recovered server keeps accepting and persisting work.
    incr_all(&db, &keys, 2);
    let finals = db.read_latest(&keys).unwrap();
    for v in &finals {
        assert_eq!(v.as_ref().and_then(Value::as_i64), Some(10));
    }

    // The restarted server exports the durability subtree with the
    // recovery cost it just paid.
    let snapshot = cluster.snapshot();
    let server0 = snapshot.child("server_0").expect("server_0 subtree");
    let durability = server0.child("durability").expect("durability subtree");
    assert!(durability.counter("records").unwrap_or(0) > 0);
    cluster.shutdown();

    // Offline cross-check: replay server 0's directory through the raw
    // storage primitives — recovered state IS checkpoint + WAL suffix.
    let (_log, rec) = DurableLog::open(DurableLogConfig::new(dir.join("server-0"))).unwrap();
    assert!(
        rec.damage.is_none(),
        "clean shutdown left damage: {:?}",
        rec.damage
    );
    let partition = Partition::new(PartitionId(0), 2, Arc::new(HandlerRegistry::new()));
    let mut checkpoint = Timestamp::ZERO;
    if let Some((_, blob)) = &rec.checkpoint {
        checkpoint = restore_checkpoint(&partition, blob).unwrap();
    }
    assert_eq!(
        checkpoint, ckpt,
        "offline scan found a different checkpoint"
    );
    replay_records(&partition, &rec.records, checkpoint).unwrap();
    for k in keys.iter().filter(|k| partition.owns(k)) {
        let got = partition
            .get(k, Timestamp::MAX, &LocalOnlyEnv)
            .unwrap()
            .value
            .and_then(|v| v.as_i64());
        assert_eq!(got, Some(10), "offline replay diverged on {k:?}");
    }
}

// ---------------------------------------------------------------------
// Cross-system recovery equivalence: the same increment stream through
// ALOHA and Calvin, each with a checkpoint, a kill and a restart mid-run,
// must converge to identical per-key counts.
// ---------------------------------------------------------------------

#[test]
fn cross_system_recovery_converges_to_the_same_state() {
    const KEYS: usize = 10;
    const PHASE1: usize = 4;
    const PHASE2: usize = 3;
    let keys: Vec<Key> = (0..KEYS).map(reg_key).collect();

    // ALOHA: checkpoint after phase 1, kill/restart server 0, then phase 2.
    let adir = TempDir::new("xsys-aloha");
    let aloha = durable_cluster(2, &adir);
    let adb = aloha.database();
    incr_all(&adb, &keys, PHASE1);
    aloha.checkpoint_to_wal().unwrap();
    aloha.kill_server(ServerId(0)).unwrap();
    let report = aloha.restart_server(ServerId(0)).unwrap();
    assert!(report.checkpoint > Timestamp::ZERO || report.replayed > 0);
    incr_all(&adb, &keys, PHASE2);
    let aloha_finals: Vec<Option<i64>> = adb
        .read_latest(&keys)
        .unwrap()
        .iter()
        .map(|v| v.as_ref().and_then(Value::as_i64))
        .collect();
    aloha.shutdown();

    // Calvin: same stream, same crash schedule (quiescent kill).
    let cdir = TempDir::new("xsys-calvin");
    let config = calvin::CalvinConfig::new(2)
        .with_batch_duration(Duration::from_millis(2))
        .with_durable_log(calvin::CalvinDurability::new(cdir.path()));
    let mut builder = calvin::CalvinCluster::builder(config);
    builder.register_program(
        calvin::ProgramId(1),
        calvin::fn_program(
            |args| {
                let key = Key::from(args);
                calvin::CalvinPlan {
                    read_set: vec![key.clone()],
                    write_set: vec![key],
                }
            },
            |args, reads, writes| {
                let key = Key::from(args);
                let old = reads
                    .get(&key)
                    .and_then(|v| v.as_ref())
                    .and_then(Value::as_i64)
                    .unwrap_or(0);
                writes.push((key, Value::from_i64(old + 1)));
            },
        ),
    );
    let cc = builder.start().unwrap();
    let cdb = cc.database();
    let calvin_incr = |times: usize| {
        let handles: Vec<_> = (0..times)
            .flat_map(|_| keys.iter())
            .map(|k| cdb.execute(calvin::ProgramId(1), k.as_bytes()).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
    };
    calvin_incr(PHASE1);
    cc.checkpoint().unwrap();
    cc.kill_server(ServerId(0)).unwrap();
    let report = cc.restart_server(ServerId(0)).unwrap();
    assert!(report.checkpoint_round > 0 || report.replayed_puts > 0);
    calvin_incr(PHASE2);
    let calvin_finals: Vec<Option<i64>> = keys
        .iter()
        .map(|k| cc.read(k).and_then(|v| v.as_i64()))
        .collect();
    cc.shutdown();

    let expected = Some((PHASE1 + PHASE2) as i64);
    for (k, (a, c)) in keys.iter().zip(aloha_finals.iter().zip(&calvin_finals)) {
        assert_eq!(a, c, "engines diverged on {k:?} after recovery");
        assert_eq!(*a, expected, "count on {k:?} wrong after recovery");
    }
}
