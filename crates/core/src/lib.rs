//! The ALOHA-DB engine: a scalable multi-version in-memory transaction
//! processing system with serializable distributed read-write transactions.
//!
//! This crate assembles the substrates into the system of §III:
//!
//! * every simulated host runs a [`server::Server`] — an FE/BE pair: the FE
//!   coordinates transactions (timestamps, functor transform, installation,
//!   two-round abort) and the BE stores one partition and computes functors
//!   with a thread-pool *processor*;
//! * a central epoch manager drives unified write epochs (§III-B);
//! * transactions are expressed as one-shot [`TxnProgram`]s that transform a
//!   request into key-functor pairs (§IV-A/B);
//! * reads are always historical; latest-version read-only transactions are
//!   delayed to the next epoch (§III-B).
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use aloha_core::{Cluster, ClusterConfig, ProgramId, TxnOutcome};
//! use aloha_common::{Key, Value};
//! use aloha_functor::Functor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = Cluster::builder(
//!     ClusterConfig::new(2).with_epoch_duration(Duration::from_millis(2)),
//! );
//! builder.register_program(ProgramId(1), aloha_core::program::fn_program(|ctx| {
//!     // A write-only transaction: set key "greeting" to the argument bytes.
//!     Ok(aloha_core::TxnPlan::new()
//!         .write(Key::from("greeting"), Functor::Value(Value::new(ctx.args.to_vec()))))
//! }));
//! let cluster = builder.start()?;
//! let db = cluster.database();
//! let handle = db.execute(ProgramId(1), b"hello".to_vec())?;
//! assert_eq!(handle.wait_processed()?, TxnOutcome::Committed);
//! let values = db.read_latest(&[Key::from("greeting")])?;
//! assert_eq!(values[0].as_ref().unwrap().as_bytes(), b"hello");
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod checker;
pub mod cluster;
pub mod msg;
pub mod node;
pub mod program;
pub mod replication;
pub mod server;
pub mod wire;

pub use aloha_storage::Fsync;
pub use checker::{diff_states, replay_history, CommitRecord, Divergence, History};
pub use cluster::{
    Cluster, ClusterBuilder, ClusterConfig, CompactionConfig, Database, DurableLogSpec,
    RecoveryReport, TransportSpec,
};
pub use msg::{InstallOutcome, ServerMsg, VersionState};
pub use node::{Node, NodeBuilder, NodeConfig};
pub use program::{
    fn_program, Check, ProgramId, ProgramRegistry, SnapshotReader, TransformCtx, TxnPlan,
    TxnProgram, Write,
};
pub use replication::PartialReplicationSpec;
pub use server::{Server, ServerStats, TxnHandle, TxnOutcome};
pub use wire::ServerMsgCodec;
