//! End-to-end engine tests on small clusters with short epochs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::{Key, ServerId, Value};
use aloha_core::{fn_program, Check, Cluster, ClusterConfig, ProgramId, TxnOutcome, TxnPlan};
use aloha_functor::{ComputeInput, Functor, HandlerId, HandlerOutput, UserFunctor};
use aloha_net::NetConfig;

fn fast_config(servers: u16) -> ClusterConfig {
    ClusterConfig::new(servers).with_epoch_duration(Duration::from_millis(2))
}

/// Finds `count` distinct keys owned by the given partition.
fn keys_on_partition(partition: u16, total: u16, count: usize) -> Vec<Key> {
    (0..)
        .map(|i: u32| Key::from_parts(&[b"k", &i.to_be_bytes()]))
        .filter(|k| k.partition(total).0 == partition)
        .take(count)
        .collect()
}

/// Blocking-lane tasks the server's executor has run so far.
fn blocking_tasks(cluster: &Cluster, server: u16) -> u64 {
    cluster
        .server(ServerId(server))
        .snapshot()
        .child("exec")
        .and_then(|exec| exec.counter("blocking_tasks"))
        .expect("every server exports its executor's blocking-lane count")
}

#[test]
fn write_then_read_round_trip() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_program(
        ProgramId(1),
        fn_program(|ctx| {
            Ok(TxnPlan::new().write(
                Key::from("greeting"),
                Functor::Value(Value::new(ctx.args.to_vec())),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"aloha").unwrap();
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    let values = db.read_latest(&[Key::from("greeting")]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_bytes(), b"aloha");
    cluster.shutdown();
}

#[test]
fn cross_partition_transfer_conserves_money() {
    let total_servers = 4u16;
    let mut builder = Cluster::builder(fast_config(total_servers));
    builder.register_program(
        ProgramId(1),
        fn_program(|ctx| {
            // args: [key_a bytes len u8][key_a][key_b][amount i64] — simplest
            // fixed layout: two 8-byte keys then amount.
            let a = Key::from(&ctx.args[0..8]);
            let b = Key::from(&ctx.args[8..16]);
            let amount = i64::from_be_bytes(ctx.args[16..24].try_into().unwrap());
            Ok(TxnPlan::new()
                .write(a, Functor::subtr(amount))
                .write(b, Functor::add(amount)))
        }),
    );
    let cluster = builder.start().unwrap();

    // Pick accounts on distinct partitions.
    let accounts: Vec<Key> = (0..4u16)
        .map(|p| keys_on_partition(p, total_servers, 1).remove(0))
        .collect();
    for account in &accounts {
        cluster.load(account.clone(), Value::from_i64(1000));
    }

    let db = cluster.database();
    let mut handles = Vec::new();
    for i in 0..40usize {
        let from = &accounts[i % 4];
        let to = &accounts[(i + 1) % 4];
        let mut args = Vec::new();
        args.extend_from_slice(from.as_bytes());
        args.extend_from_slice(to.as_bytes());
        args.extend_from_slice(&(7i64).to_be_bytes());
        handles.push(db.execute(ProgramId(1), args).unwrap());
    }
    for h in handles {
        assert_eq!(h.wait_processed().unwrap(), TxnOutcome::Committed);
    }
    let values = db.read_latest(&accounts).unwrap();
    let total: i64 = values
        .iter()
        .map(|v| v.as_ref().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 4000, "money must be conserved");
    cluster.shutdown();
}

#[test]
fn failed_install_check_aborts_all_partitions() {
    let total_servers = 2u16;
    let mut builder = Cluster::builder(fast_config(total_servers));
    let good_key = keys_on_partition(0, total_servers, 1).remove(0);
    let other_key = keys_on_partition(1, total_servers, 1).remove(0);
    let missing = Key::from("never-loaded");
    // Make sure the check runs on the partition that owns `other_key`.
    let check_key = keys_on_partition(other_key.partition(total_servers).0, total_servers, 2)
        .into_iter()
        .find(|k| *k != other_key)
        .unwrap();
    assert_eq!(
        check_key.partition(total_servers),
        other_key.partition(total_servers)
    );
    let _ = missing;

    let gk = good_key.clone();
    let ok_ = other_key.clone();
    let ck = check_key;
    builder.register_program(
        ProgramId(1),
        fn_program(move |_ctx| {
            Ok(TxnPlan::new()
                .write(gk.clone(), Functor::add(1))
                .write_checked(ok_.clone(), Functor::add(1), Check::KeyExists(ck.clone())))
        }),
    );
    let cluster = builder.start().unwrap();
    cluster.load(good_key.clone(), Value::from_i64(100));
    cluster.load(other_key.clone(), Value::from_i64(100));
    // NOTE: check_key is intentionally never loaded, so the install fails.

    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"").unwrap();
    assert!(handle.aborted_at_install());
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Aborted);

    // Neither partition's value moved: the second round rolled both back.
    let values = db.read_latest(&[good_key, other_key]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(100));
    assert_eq!(values[1].as_ref().unwrap().as_i64(), Some(100));
    cluster.shutdown();
}

#[test]
fn user_functor_reads_remote_partition() {
    let total_servers = 2u16;
    let mut builder = Cluster::builder(fast_config(total_servers));
    let src = keys_on_partition(0, total_servers, 1).remove(0);
    let dst = keys_on_partition(1, total_servers, 1).remove(0);
    assert_ne!(src.partition(total_servers), dst.partition(total_servers));

    // Handler: dst := value of src (a cross-partition copy).
    let src_for_handler = src.clone();
    builder.register_handler(HandlerId(1), move |input: &ComputeInput<'_>| {
        let v = input.reads.i64(&src_for_handler).unwrap_or(-1);
        HandlerOutput::commit(Value::from_i64(v))
    });
    let src_for_program = src.clone();
    let dst_for_program = dst.clone();
    builder.register_program(
        ProgramId(1),
        fn_program(move |_ctx| {
            Ok(TxnPlan::new().write(
                dst_for_program.clone(),
                Functor::User(UserFunctor::new(
                    HandlerId(1),
                    vec![src_for_program.clone()],
                    Vec::new(),
                )),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    cluster.load(src, Value::from_i64(4242));

    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"").unwrap();
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    let values = db.read_latest(&[dst]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(4242));
    cluster.shutdown();
}

#[test]
fn handler_abort_is_visible_to_client() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_handler(HandlerId(1), |_: &ComputeInput<'_>| HandlerOutput::abort());
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| {
            Ok(TxnPlan::new().write(
                Key::from("doomed"),
                Functor::User(UserFunctor::new(HandlerId(1), vec![], Vec::new())),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("doomed"), Value::from_i64(1));
    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"").unwrap();
    assert!(
        !handle.aborted_at_install(),
        "install succeeds; compute aborts"
    );
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Aborted);
    // The pre-transaction value is still visible.
    let values = db.read_latest(&[Key::from("doomed")]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(1));
    cluster.shutdown();
}

#[test]
fn read_latest_observes_all_prior_commits() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| Ok(TxnPlan::new().write(Key::from("ctr"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("ctr"), Value::from_i64(0));
    let db = cluster.database();
    for _ in 0..10 {
        db.execute(ProgramId(1), b"")
            .unwrap()
            .wait_processed()
            .unwrap();
    }
    let values = db.read_latest(&[Key::from("ctr")]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(10));
    cluster.shutdown();
}

#[test]
fn concurrent_increments_from_many_clients_are_all_applied() {
    let mut builder = Cluster::builder(fast_config(3));
    builder.register_program(
        ProgramId(1),
        fn_program(|ctx| {
            let key = Key::from(ctx.args);
            Ok(TxnPlan::new().write(key, Functor::add(1)))
        }),
    );
    let cluster = builder.start().unwrap();
    let keys: Vec<Key> = (0..3u16)
        .map(|p| keys_on_partition(p, 3, 1).remove(0))
        .collect();
    for k in &keys {
        cluster.load(k.clone(), Value::from_i64(0));
    }
    let db = cluster.database();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let db = db.clone();
            let key = keys[t % 3].clone();
            std::thread::spawn(move || {
                let mut handles = Vec::new();
                for _ in 0..20 {
                    handles.push(db.execute(ProgramId(1), key.as_bytes()).unwrap());
                }
                for h in handles {
                    assert_eq!(h.wait_processed().unwrap(), TxnOutcome::Committed);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let values = db.read_latest(&keys).unwrap();
    let total: i64 = values
        .iter()
        .map(|v| v.as_ref().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 120, "every increment must be applied exactly once");
    cluster.shutdown();
}

#[test]
fn historical_reads_return_old_snapshots() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| Ok(TxnPlan::new().write(Key::from("x"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("x"), Value::from_i64(0));
    let db = cluster.database();
    let h1 = db.execute(ProgramId(1), b"").unwrap();
    h1.wait_processed().unwrap();
    let snapshot = h1.timestamp();
    for _ in 0..5 {
        db.execute(ProgramId(1), b"")
            .unwrap()
            .wait_processed()
            .unwrap();
    }
    let old = db.read_at(&[Key::from("x")], snapshot).unwrap();
    assert_eq!(old[0].as_ref().unwrap().as_i64(), Some(1));
    let new = db.read_latest(&[Key::from("x")]).unwrap();
    assert_eq!(new[0].as_ref().unwrap().as_i64(), Some(6));
    cluster.shutdown();
}

#[test]
fn works_with_network_latency_and_clock_skew() {
    let config = ClusterConfig::new(2)
        .with_epoch_duration(Duration::from_millis(5))
        .with_net(NetConfig::with_jitter(
            Duration::from_micros(100),
            Duration::from_micros(50),
            7,
        ))
        .with_clock_skew(vec![150, -150]);
    let mut builder = Cluster::builder(config);
    builder.register_program(
        ProgramId(1),
        fn_program(|ctx| {
            let key = Key::from(ctx.args);
            Ok(TxnPlan::new().write(key, Functor::add(1)))
        }),
    );
    let cluster = builder.start().unwrap();
    let keys: Vec<Key> = (0..2u16)
        .map(|p| keys_on_partition(p, 2, 1).remove(0))
        .collect();
    for k in &keys {
        cluster.load(k.clone(), Value::from_i64(0));
    }
    let db = cluster.database();
    let mut handles = Vec::new();
    for i in 0..20 {
        handles.push(db.execute(ProgramId(1), keys[i % 2].as_bytes()).unwrap());
    }
    for h in handles {
        assert_eq!(h.wait_processed().unwrap(), TxnOutcome::Committed);
    }
    let values = db.read_latest(&keys).unwrap();
    let total: i64 = values
        .iter()
        .map(|v| v.as_ref().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 20);
    cluster.shutdown();
}

#[test]
fn stats_reflect_outcomes() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_handler(HandlerId(1), |_: &ComputeInput<'_>| HandlerOutput::abort());
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| Ok(TxnPlan::new().write(Key::from("ok"), Functor::add(1)))),
    );
    builder.register_program(
        ProgramId(2),
        fn_program(|_ctx| {
            Ok(TxnPlan::new().write(
                Key::from("bad"),
                Functor::User(UserFunctor::new(HandlerId(1), vec![], Vec::new())),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("ok"), Value::from_i64(0));
    cluster.load(Key::from("bad"), Value::from_i64(0));
    let db = cluster.database();
    for _ in 0..3 {
        db.execute(ProgramId(1), b"")
            .unwrap()
            .wait_processed()
            .unwrap();
    }
    db.execute(ProgramId(2), b"")
        .unwrap()
        .wait_processed()
        .unwrap();
    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.counter("committed"), Some(3));
    assert_eq!(snapshot.counter("aborted"), Some(1));
    assert!(snapshot.counter("installs").unwrap() >= 4);
    let e2e = snapshot.stage("e2e").expect("e2e rollup");
    assert_eq!(e2e.count, 4);
    assert!(e2e.mean_micros > 0.0);
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_under_load() {
    let mut builder = Cluster::builder(fast_config(2));
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| Ok(TxnPlan::new().write(Key::from("y"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("y"), Value::from_i64(0));
    let db = cluster.database();
    let worker = std::thread::spawn(move || {
        // Hammer until shutdown; errors after shutdown are expected.
        while let Ok(h) = db.execute(ProgramId(1), b"") {
            if h.wait_processed().is_err() {
                break;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(30));
    cluster.shutdown();
    worker.join().unwrap();
}

#[test]
fn pinned_coordinator_executes_locally() {
    let total_servers = 3u16;
    let mut builder = Cluster::builder(fast_config(total_servers));
    builder.register_program(
        ProgramId(1),
        fn_program(|ctx| {
            let key = Key::from(ctx.args);
            Ok(TxnPlan::new().write(key, Functor::add(5)))
        }),
    );
    let cluster = builder.start().unwrap();
    let key = keys_on_partition(2, total_servers, 1).remove(0);
    cluster.load(key.clone(), Value::from_i64(0));
    let db = cluster.database();
    let handle = db
        .execute_at(ServerId(2), ProgramId(1), key.as_bytes())
        .unwrap();
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    let v = db.read_latest(std::slice::from_ref(&key)).unwrap();
    assert_eq!(v[0].as_ref().unwrap().as_i64(), Some(5));
    cluster.shutdown();
}

#[test]
fn gc_reclaims_settled_versions() {
    let mut builder = Cluster::builder(fast_config(1));
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| Ok(TxnPlan::new().write(Key::from("gc"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("gc"), Value::from_i64(0));
    let db = cluster.database();
    let mut last = None;
    for _ in 0..10 {
        let h = db.execute(ProgramId(1), b"").unwrap();
        h.wait_processed().unwrap();
        last = Some(h.timestamp());
    }
    // Compaction folds only below the compute frontier, so wait until it
    // covers the last write.
    let server = cluster.server(ServerId(0));
    let deadline = Instant::now() + Duration::from_secs(5);
    assert!(server
        .epoch()
        .wait_frontier(last.unwrap().succ(), Some(deadline)));
    let folded = server.compact(1);
    assert!(
        folded >= 9,
        "expected most settled versions folded, got {folded}"
    );
    let values = db.read_latest(&[Key::from("gc")]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(10));
    cluster.shutdown();
}

#[test]
fn empty_write_set_commits_trivially() {
    let mut builder = Cluster::builder(fast_config(1));
    builder.register_program(ProgramId(1), fn_program(|_ctx| Ok(TxnPlan::new())));
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"").unwrap();
    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    cluster.shutdown();
}

#[test]
fn transform_error_rejects_before_install() {
    let mut builder = Cluster::builder(fast_config(1));
    builder.register_program(
        ProgramId(1),
        fn_program(|_ctx| {
            Err(aloha_common::Error::Rejected {
                txn: aloha_common::TxnId(0),
                reason: "bad args".into(),
            })
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    assert!(db.execute(ProgramId(1), b"").is_err());
    // The cluster keeps running afterwards (the ticket was released).
    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.counter("installs"), Some(0));
    cluster.shutdown();
}

#[test]
fn snapshot_reader_sees_settled_data_during_transform() {
    let mut builder = Cluster::builder(fast_config(2));
    let probe = Arc::new(parking_lot::Mutex::new(None));
    let probe_in = Arc::clone(&probe);
    builder.register_program(
        ProgramId(1),
        fn_program(move |ctx| {
            let read = ctx.reader.read(&Key::from("seed"))?;
            *probe_in.lock() = Some(read.value.and_then(|v| v.as_i64()));
            Ok(TxnPlan::new())
        }),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("seed"), Value::from_i64(77));
    let db = cluster.database();
    // Wait for the first epoch to settle the loaded data.
    db.read_latest(&[Key::from("seed")]).unwrap();
    db.execute(ProgramId(1), b"")
        .unwrap()
        .wait_processed()
        .unwrap();
    assert_eq!(*probe.lock(), Some(Some(77)));
    cluster.shutdown();
}

#[test]
fn processors_compute_bursts_on_their_own_threads() {
    // One server with one processor: every transaction's functors land in
    // that processor's queue in one epoch release, so its turns drain many
    // distinct keys at once.
    const KEYS: usize = 32;
    const TXNS: usize = 4;
    let keys: Vec<Key> = (0..KEYS as u32)
        .map(|i| Key::from_parts(&[b"burst", &i.to_be_bytes()]))
        .collect();
    let threads = Arc::new(parking_lot::Mutex::new(Vec::<Option<String>>::new()));
    let mut builder = Cluster::builder(fast_config(1).with_processors(1));
    let seen = Arc::clone(&threads);
    builder.register_handler(HandlerId(1), move |_: &ComputeInput<'_>| {
        let name = std::thread::current().name().map(str::to_owned);
        seen.lock().push(name);
        HandlerOutput::commit(Value::from_i64(1))
    });
    builder.register_program(
        ProgramId(1),
        fn_program(move |_ctx| {
            Ok(keys.iter().fold(TxnPlan::new(), |plan, key| {
                plan.write(
                    key.clone(),
                    Functor::User(UserFunctor::new(HandlerId(1), vec![], Vec::new())),
                )
            }))
        }),
    );
    let cluster = builder.start().unwrap();
    let db = cluster.database();
    for _ in 0..TXNS {
        let handle = db.execute(ProgramId(1), b"").unwrap();
        assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    }
    cluster.shutdown();

    let threads = threads.lock();
    assert!(
        threads.len() >= KEYS * TXNS,
        "every written functor computed"
    );
    assert!(
        threads.iter().all(Option::is_some),
        "a functor was computed on an unnamed transient thread: {threads:?}"
    );
    assert!(
        threads
            .iter()
            .flatten()
            .any(|name| name.starts_with("proc-s0-")),
        "the processor computed the released functors: {threads:?}"
    );
}

#[test]
fn remote_read_set_is_gathered_with_one_request_per_owner() {
    // Batching is off (the default): the gather still groups by owner.
    let total = 3u16;
    let target = keys_on_partition(0, total, 1).remove(0);
    let mut read_set = keys_on_partition(1, total, 4);
    read_set.extend(keys_on_partition(2, total, 4));

    let mut builder = Cluster::builder(fast_config(total));
    let summed = read_set.clone();
    builder.register_handler(HandlerId(1), move |input: &ComputeInput<'_>| {
        let sum = summed
            .iter()
            .map(|k| input.reads.i64(k).expect("every read-set key was gathered"))
            .sum();
        HandlerOutput::commit(Value::from_i64(sum))
    });
    let (program_target, program_reads) = (target.clone(), read_set.clone());
    builder.register_program(
        ProgramId(1),
        fn_program(move |_ctx| {
            Ok(TxnPlan::new().write(
                program_target.clone(),
                Functor::User(UserFunctor::new(
                    HandlerId(1),
                    program_reads.clone(),
                    Vec::new(),
                )),
            ))
        }),
    );
    let cluster = builder.start().unwrap();
    for (i, key) in read_set.iter().enumerate() {
        cluster.load(key.clone(), Value::from_i64(i as i64 + 1));
    }

    // Only the gather reaches servers 1 and 2: installs run on server 0's
    // sharded lane. The wait is on the compute frontier, not on the outcome
    // probe, whose on-demand compute could race the processor's and gather
    // a second time.
    let before = [blocking_tasks(&cluster, 1), blocking_tasks(&cluster, 2)];
    let db = cluster.database();
    let handle = db.execute(ProgramId(1), b"").unwrap();
    let computed = cluster.server(ServerId(0)).epoch().wait_frontier(
        handle.timestamp().succ(),
        Some(Instant::now() + Duration::from_secs(10)),
    );
    assert!(computed, "the functor was computed");
    let after = [blocking_tasks(&cluster, 1), blocking_tasks(&cluster, 2)];
    assert_eq!(
        [after[0] - before[0], after[1] - before[1]],
        [1, 1],
        "one RemoteGetBatch per remote owner, not one RemoteGet per key"
    );

    assert_eq!(handle.wait_processed().unwrap(), TxnOutcome::Committed);
    let values = db.read_latest(&[target]).unwrap();
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some((1..=8).sum()));
    cluster.shutdown();
}
