//! Cluster message protocol: everything that travels on the bus.

use std::sync::Arc;

use aloha_common::{EpochId, Key, Result, Timestamp, Value};
use aloha_epoch::{Grant, RevokedAck};
use aloha_functor::{Functor, VersionedRead};
use aloha_net::ReplySlot;

use crate::program::Write;

/// Result of installing one transaction's writes on one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallOutcome {
    /// All writes installed.
    Ok,
    /// A pre-install check failed (e.g. TPC-C invalid item); the coordinator
    /// must run the second abort round (§V-A2).
    CheckFailed(String),
    /// The version was no longer inside an installable epoch (late message).
    OutsideEpoch,
}

impl InstallOutcome {
    /// Whether this partition accepted the writes.
    pub fn is_ok(&self) -> bool {
        matches!(self, InstallOutcome::Ok)
    }
}

/// Final state of one (key, version) record, reported by `ResolveVersion`.
///
/// Any single functor of a transaction suffices to learn the transaction's
/// outcome, "because any of the functors will result in abort if the
/// transaction is aborted" (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionState {
    /// The version committed with this value.
    Committed(Value),
    /// The version is an abort marker.
    Aborted,
    /// The version is a delete tombstone (a committed delete).
    Deleted,
    /// No record exists at that exact version.
    Missing,
}

/// Messages exchanged between servers, the epoch manager and coordinators.
///
/// Request/reply interactions carry a [`ReplySlot`]; everything else is
/// fire-and-forget.
///
/// Messages are `Clone` so the fault-injection layer can duplicate them in
/// flight: a duplicated request carries a clone of the same [`ReplySlot`],
/// and the requester consumes whichever reply lands first.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// EM → FE: a new epoch's authorization.
    Grant(Grant),
    /// EM → FE: revoke the authorization of `EpochId`.
    Revoke(EpochId),
    /// FE → EM: the epoch has drained here.
    RevokedAck(RevokedAck),
    /// FE → BE: install a transaction's writes for this partition
    /// (the write-only phase).
    Install {
        /// The transaction's timestamp (the version to install at).
        version: Timestamp,
        /// Writes owned by the destination partition. Shared so the initial
        /// send, a retransmission and a fault-layer duplicate all reference
        /// one allocation instead of deep-cloning the write group.
        writes: Arc<Vec<Write>>,
        /// Install outcome back to the coordinator.
        reply: ReplySlot<InstallOutcome>,
    },
    /// FE → BE: second abort round — rewrite these versions to `ABORTED`.
    /// Acked so the coordinator can hold the epoch open until every
    /// participant has rolled back (otherwise sibling functors of the
    /// aborted transaction could become visible committed).
    AbortVersion {
        /// (key, version) pairs to abort, shared between the initial send
        /// and any retransmission.
        keys: Arc<Vec<(Key, Timestamp)>>,
        /// Rollback acknowledgement.
        reply: ReplySlot<()>,
    },
    /// BE → BE: read the latest final value of `key` at version `<= bound`
    /// (remote read during functor computing, or a delayed read-only
    /// transaction touching a remote partition).
    RemoteGet {
        /// Key owned by the destination partition.
        key: Key,
        /// Inclusive version bound.
        bound: Timestamp,
        /// The versioned read result.
        reply: ReplySlot<Result<VersionedRead>>,
    },
    /// BE → BE: read several keys of one destination partition at the same
    /// bound with a single round trip. The functor-computing phase groups a
    /// functor's remote read-set by owner and issues one of these per owner
    /// in parallel, replacing sequential per-key `RemoteGet`s.
    RemoteGetBatch {
        /// Keys owned by the destination partition, shared between the
        /// initial send and any retransmission.
        keys: Arc<Vec<Key>>,
        /// Inclusive version bound applied to every key.
        bound: Timestamp,
        /// Reads in `keys` order, or the first error (the caller fails the
        /// whole functor computation either way, so partial results carry no
        /// information).
        reply: ReplySlot<Result<Vec<VersionedRead>>>,
    },
    /// FE → BE: snapshot-read fast path — read the latest committed value of
    /// `key` at the cluster compute frontier (§III-B bypass). Unlike
    /// `RemoteGet`, the bound is a frontier timestamp, so the answer comes
    /// straight off the packed settled section of the version chain with no
    /// functor computing and no epoch wait.
    SnapshotRead {
        /// Key owned by the destination partition.
        key: Key,
        /// Inclusive snapshot timestamp (a frontier the sender absorbed).
        bound: Timestamp,
        /// The versioned read result.
        reply: ReplySlot<Result<VersionedRead>>,
    },
    /// FE → BE: several snapshot reads for one destination partition at the
    /// same frontier with a single round trip, mirroring `RemoteGetBatch`'s
    /// grouped fan-out.
    SnapshotReadBatch {
        /// Keys owned by the destination partition, shared between the
        /// initial send and any retransmission.
        keys: Arc<Vec<Key>>,
        /// Inclusive snapshot timestamp applied to every key.
        bound: Timestamp,
        /// Reads in `keys` order, or the first error.
        reply: ReplySlot<Result<Vec<VersionedRead>>>,
    },
    /// BE → BE: install a deferred write produced by a determinate functor
    /// (§IV-E). Acked so the producer can order its own finalization after
    /// the install.
    InstallDeferred {
        /// Dependent key owned by the destination partition.
        key: Key,
        /// The determinate functor's version.
        version: Timestamp,
        /// Final-form functor to install.
        functor: Functor,
        /// Ack.
        reply: ReplySlot<()>,
    },
    /// Coordinator/BE → BE: compute `key` up to `version` and report the
    /// state of the record at exactly `version` (used both to learn a
    /// transaction's outcome and to enforce the §IV-E watermark rule).
    ResolveVersion {
        /// Key owned by the destination partition.
        key: Key,
        /// Version to settle up to and inspect.
        version: Timestamp,
        /// Record state (or transport/compute error).
        reply: ReplySlot<Result<VersionState>>,
    },
    /// BE → BE: proactive value push for a recipient-set functor (§IV-B).
    PushValue {
        /// The functor version the push is for.
        version: Timestamp,
        /// The key whose value is being pushed.
        source: Key,
        /// The pushed versioned read.
        read: VersionedRead,
    },
    /// Primary → standby: partial-replication log shipping. One epoch's WAL
    /// group commit — the exact `(version, encoded frame)` payloads the
    /// durable log just committed — stamped with the cumulative replicated
    /// watermark the standby covers once it applies them. Sent on the
    /// transport's reliable lane just *before* the epoch's `RevokedAck`, so
    /// a settled epoch implies its frames reached the standby's queue. An
    /// empty frame list is a flush barrier: the reply alone is wanted (the
    /// promotion path uses it to wait out the standby's apply queue).
    ShipBatch {
        /// The primary partition being replicated.
        from: aloha_common::PartitionId,
        /// Replicated watermark after this batch applies.
        watermark: Timestamp,
        /// `(version, encoded WAL frame)` in log order, shared so a
        /// fault-layer duplicate references the same allocation.
        frames: Arc<Vec<(u64, Vec<u8>)>>,
        /// The standby's post-apply watermark (the replication ack).
        reply: ReplySlot<Timestamp>,
    },
    /// Cluster shutdown: the dispatcher exits after processing this.
    Shutdown,
}

impl ServerMsg {
    /// The hash that routes this message onto the executor's key-sharded
    /// lane, or `None` for messages that are not per-key work (and are
    /// handled inline by the dispatcher or on the blocking lane).
    ///
    /// Multi-key messages route by their *first* key. A transaction's
    /// install group for one partition and its abort round for the same
    /// partition list keys in the same order, so both land on the same
    /// shard queue; correctness does not depend on it (aborts pre-abort and
    /// installs are first-write-wins), but it keeps the common case
    /// ordered.
    pub fn shard_hash(&self) -> Option<u64> {
        match self {
            ServerMsg::Install { writes, .. } => {
                Some(writes.first().map_or(0, |w| w.key.stable_hash()))
            }
            ServerMsg::AbortVersion { keys, .. } => {
                Some(keys.first().map_or(0, |(k, _)| k.stable_hash()))
            }
            ServerMsg::InstallDeferred { key, .. } => Some(key.stable_hash()),
            ServerMsg::PushValue { source, .. } => Some(source.stable_hash()),
            _ => None,
        }
    }

    /// Rough on-wire payload size, used to presize the wire codec's encode
    /// buffer. Counts variable payload (keys, values, args) plus a fixed
    /// per-message overhead; exact framing doesn't matter for a capacity
    /// hint.
    pub fn approx_bytes(&self) -> usize {
        const HEADER: usize = 24;
        fn functor_bytes(f: &Functor) -> usize {
            match f {
                Functor::Value(v) => v.len(),
                Functor::User(u) => u.args.len() + u.read_set.iter().map(Key::len).sum::<usize>(),
                _ => 8,
            }
        }
        HEADER
            + match self {
                ServerMsg::Install { writes, .. } => writes
                    .iter()
                    .map(|w| w.key.len() + functor_bytes(&w.functor))
                    .sum(),
                ServerMsg::AbortVersion { keys, .. } => keys.iter().map(|(k, _)| k.len() + 8).sum(),
                ServerMsg::RemoteGet { key, .. } => key.len(),
                ServerMsg::RemoteGetBatch { keys, .. } => keys.iter().map(Key::len).sum(),
                ServerMsg::SnapshotRead { key, .. } => key.len(),
                ServerMsg::SnapshotReadBatch { keys, .. } => keys.iter().map(Key::len).sum(),
                ServerMsg::InstallDeferred { key, functor, .. } => {
                    key.len() + functor_bytes(functor)
                }
                ServerMsg::ResolveVersion { key, .. } => key.len(),
                ServerMsg::PushValue { source, read, .. } => {
                    source.len() + read.value.as_ref().map_or(0, Value::len)
                }
                ServerMsg::ShipBatch { frames, .. } => {
                    frames.iter().map(|(_, f)| f.len() + 8).sum()
                }
                ServerMsg::Grant(_)
                | ServerMsg::Revoke(_)
                | ServerMsg::RevokedAck(_)
                | ServerMsg::Shutdown => 0,
            }
    }
}
