//! Failover under concurrent cross-partition load: every partition has a
//! log-shipped standby, and one backend is killed while many coordinators
//! run two-key transfers through it. A transfer caught by the kill must
//! either commit on both partitions or on neither, so the account total is
//! conserved across the failover.
//!
//! The cluster runs on the instant bus on purpose: there a send to the
//! killed server's deregistered address fails synchronously, which is the
//! path that must still run the abort round. A fault plan's delay line
//! accepts every send and would hide it.

use std::time::Duration;

use aloha_common::{Key, ServerId, Value};
use aloha_core::{fn_program, Cluster, ClusterConfig, ProgramId, TxnPlan};
use aloha_functor::Functor;

const TRANSFER: ProgramId = ProgramId(1);

#[test]
fn kill_during_replicated_transfers_fails_over_and_conserves() {
    let total = 3u16;
    let mut builder = Cluster::builder(
        ClusterConfig::new(total)
            .with_epoch_duration(Duration::from_millis(3))
            .with_rpc_timeout(Duration::from_millis(50))
            .with_partial_replication(total as usize),
    );
    builder.register_program(
        TRANSFER,
        fn_program(|ctx| {
            let half = ctx.args.len() / 2;
            let a = Key::from(&ctx.args[..half]);
            let b = Key::from(&ctx.args[half..]);
            Ok(TxnPlan::new()
                .write(a, Functor::subtr(1))
                .write(b, Functor::add(1)))
        }),
    );
    let cluster = builder.start().unwrap();
    let keys: Vec<Key> = (0..total)
        .map(|p| {
            (0..)
                .map(|i: u32| Key::from_parts(&[b"rs", &i.to_be_bytes()]))
                .find(|k| k.partition(total).0 == p)
                .expect("some key maps to the partition")
        })
        .collect();
    for k in &keys {
        cluster.load(k.clone(), Value::from_i64(100));
    }
    let db = cluster.database();

    // Many client threads, transfers crossing every pair of partitions in
    // both directions, while partition 1's primary dies underneath them.
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let db = db.clone();
            let keys = keys.clone();
            scope.spawn(move || {
                for i in 0..15usize {
                    let a = &keys[(t + i) % 3];
                    let b = &keys[(t + i + 1) % 3];
                    let mut args = a.as_bytes().to_vec();
                    args.extend_from_slice(b.as_bytes());
                    // A transfer the kill interrupts fails or aborts; it
                    // must never half-apply.
                    let _ = db.execute_wait(TRANSFER, args);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        cluster.kill_server(ServerId(1)).unwrap();
    });

    let availability = cluster.availability();
    assert_eq!(availability.failovers(), 1, "the standby took over");
    assert_eq!(availability.restarts(), 0, "no restart-from-WAL");
    let values = db.read_latest(&keys).unwrap();
    let sum: i64 = values
        .iter()
        .map(|v| v.as_ref().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(sum, 300, "a transfer half-applied across the kill");
    cluster.shutdown();
}
