//! End-to-end observability: a YCSB run on a 2-server cluster must produce
//! a [`StatsSnapshot`] whose JSON export carries per-stage p50/p95/p99 for
//! every lifecycle stage (including `snapshot_read`) — on both the ALOHA
//! and Calvin engines, with the same schema.

use std::time::Duration;

use aloha_common::metrics::Stage;
use aloha_common::stats::StatsSnapshot;
use aloha_core::{Cluster, ClusterConfig};
use aloha_workloads::driver::{run_windowed, DriverConfig};
use aloha_workloads::ycsb::{self, YcsbConfig};
use calvin::{CalvinCluster, CalvinConfig};

fn driver() -> DriverConfig {
    DriverConfig {
        threads: 4,
        window: 8,
        duration: Duration::from_millis(700),
        warmup: Duration::from_millis(100),
        seed: 0xD15C0,
        pacing: None,
    }
}

/// Exports, re-parses, and checks the full stage schema on the root node.
fn assert_six_stage_schema(snapshot: &StatsSnapshot, engine: &str) {
    let text = snapshot.to_json().to_string();
    let parsed = StatsSnapshot::from_json_text(&text)
        .unwrap_or_else(|e| panic!("{engine}: snapshot JSON must re-parse: {e}"));
    assert_eq!(
        &parsed, snapshot,
        "{engine}: JSON round trip must be lossless"
    );
    for stage in Stage::ALL {
        let s = parsed
            .stage(stage.name())
            .unwrap_or_else(|| panic!("{engine}: missing stage '{}'", stage.name()));
        assert!(
            s.count > 0,
            "{engine}: stage '{}' has no samples",
            stage.name()
        );
        assert!(
            s.p50_micros <= s.p95_micros && s.p95_micros <= s.p99_micros,
            "{engine}: quantiles out of order for '{}'",
            stage.name()
        );
        assert!(
            s.p99_micros <= s.max_micros.max(s.p99_micros),
            "{engine}: p99 beyond max for '{}'",
            stage.name()
        );
    }
    let e2e = parsed.stage("e2e").expect("e2e rollup present");
    assert!(e2e.count > 0, "{engine}: e2e rollup has no samples");
}

#[test]
fn aloha_ycsb_snapshot_reports_all_six_stages() {
    let cfg = YcsbConfig::with_contention_index(2, 0.01).with_keys_per_partition(1_000);
    let mut builder = Cluster::builder(
        ClusterConfig::new(2)
            .with_epoch_duration(Duration::from_millis(5))
            .with_processors(2),
    );
    ycsb::install_aloha(&mut builder);
    let cluster = builder.start().unwrap();
    ycsb::load_aloha(&cluster, &cfg);
    let target = ycsb::AlohaYcsb::new(cluster.database(), cfg.clone());
    cluster.reset_stats();
    let report = run_windowed(&target, &driver());
    assert!(report.committed > 0, "workload must commit transactions");
    // A handful of snapshot reads populate the `snapshot_read` stage.
    let db = cluster.database();
    for idx in 0..4 {
        let values = db
            .read_latest(&[cfg.key(0, idx), cfg.key(1, idx)])
            .expect("snapshot read succeeds");
        assert_eq!(values.len(), 2);
    }

    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.name, "cluster");
    // The engine counter also covers the warmup window the driver excludes.
    assert!(snapshot.counter("committed").unwrap() >= report.committed);
    assert_six_stage_schema(&snapshot, "aloha");
    // The tree has per-server children carrying the same schema names.
    let server = snapshot.child("server_0").expect("per-server subtree");
    assert!(server.stage("transform").is_some());
    assert!(server.child("partition").is_some());
    assert!(snapshot.child("net").is_some());
    cluster.shutdown();
}

#[test]
fn calvin_ycsb_snapshot_reports_all_six_stages() {
    let cfg = YcsbConfig::with_contention_index(2, 0.01).with_keys_per_partition(1_000);
    let mut builder = CalvinCluster::builder(
        CalvinConfig::new(2)
            .with_batch_duration(Duration::from_millis(5))
            .with_workers(2),
    );
    ycsb::install_calvin(&mut builder);
    let cluster = builder.start().unwrap();
    ycsb::load_calvin(&cluster, &cfg);
    let target = ycsb::CalvinYcsb::new(cluster.database(), cfg.clone());
    cluster.reset_stats();
    let report = run_windowed(&target, &driver());
    assert!(report.committed > 0, "workload must commit transactions");
    // Calvin serves reads too; they populate the same `snapshot_read` stage.
    let db = cluster.database();
    for idx in 0..4 {
        let values = db
            .read_latest(&[cfg.key(0, idx), cfg.key(1, idx)])
            .expect("read succeeds");
        assert_eq!(values.len(), 2);
    }

    let snapshot = cluster.snapshot();
    assert_eq!(snapshot.name, "calvin");
    assert!(snapshot.counter("completed").unwrap() > 0);
    assert_six_stage_schema(&snapshot, "calvin");
    assert!(snapshot.child("server_0").is_some());
    assert!(snapshot.child("net").is_some());
    cluster.shutdown();
}
