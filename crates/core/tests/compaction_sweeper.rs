//! Background compaction: history below the compute frontier is folded
//! without disturbing current reads or snapshots inside the retained window.

use std::time::Duration;

use aloha_common::{Key, Value};
use aloha_core::{fn_program, Cluster, ClusterConfig, ProgramId, TxnPlan};
use aloha_functor::Functor;

const INCR: ProgramId = ProgramId(1);

#[test]
fn sweeper_reclaims_old_versions_and_preserves_latest() {
    let mut builder = Cluster::builder(
        ClusterConfig::new(2)
            .with_epoch_duration(Duration::from_millis(3))
            // Sweep aggressively: keep one committed version per chain.
            .with_compaction(Duration::from_millis(10), 1),
    );
    builder.register_program(
        INCR,
        fn_program(|_| Ok(TxnPlan::new().write(Key::from("hot"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("hot"), Value::from_i64(0));
    let db = cluster.database();

    // Generate a long version chain over several sweep intervals.
    for _ in 0..10 {
        let handles: Vec<_> = (0..10).map(|_| db.execute(INCR, b"").unwrap()).collect();
        for h in handles {
            h.wait_processed().unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the sweeper catch up with the settled tail.
    std::thread::sleep(Duration::from_millis(50));

    // The value is exact despite folding...
    let v = db.read_latest(&[Key::from("hot")]).unwrap()[0]
        .as_ref()
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(v, 100);
    // ...and the chain is much shorter than the 101 versions written.
    let owner = cluster.server(aloha_common::ServerId(Key::from("hot").partition(2).0));
    let chain_len = owner
        .partition()
        .store()
        .chain(&Key::from("hot"))
        .unwrap()
        .len();
    assert!(
        chain_len < 70,
        "sweeper should have folded, chain still has {chain_len}"
    );
    cluster.shutdown();
}

#[test]
fn sweeper_never_breaks_recent_snapshots() {
    let mut builder = Cluster::builder(
        ClusterConfig::new(1)
            .with_epoch_duration(Duration::from_millis(3))
            // Keep more versions than the test ever writes.
            .with_compaction(Duration::from_millis(5), 64),
    );
    builder.register_program(
        INCR,
        fn_program(|_| Ok(TxnPlan::new().write(Key::from("x"), Functor::add(1)))),
    );
    let cluster = builder.start().unwrap();
    cluster.load(Key::from("x"), Value::from_i64(0));
    let db = cluster.database();
    let h = db.execute(INCR, b"").unwrap();
    h.wait_processed().unwrap();
    let snapshot = h.timestamp();
    for _ in 0..20 {
        db.execute(INCR, b"").unwrap().wait_processed().unwrap();
    }
    // The snapshot is well inside the retention window: still readable.
    let old = db.read_at(&[Key::from("x")], snapshot).unwrap();
    assert_eq!(old[0].as_ref().unwrap().as_i64(), Some(1));
    cluster.shutdown();
}
