//! The server process: front-end (coordinator) plus back-end (partition +
//! functor processors), as in Fig 1 of the paper.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::metrics::{
    duration_micros, Counter, Histogram, HistogramSnapshot, LifecycleTracer, Stage, TxnTimer,
    STAGE_COUNT,
};
use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::{Error, Key, Result, ServerId, Timestamp, Value};
use aloha_control::Permit;
use aloha_epoch::{EpochClient, Grant, RevokedAck};
use aloha_functor::{Functor, VersionedRead};
use aloha_net::{reply_pair, Addr, Endpoint, Executor, ReplyHandle, ReplySlot, Transport};
use aloha_replica::ShipFeed;
use aloha_storage::{
    read_log, ChainRead, ComputeEnv, DurableLog, FinalForm, Partition,
    SnapshotRead as ChainSnapshot, WalRecord,
};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::checker::{CommitRecord, History};
use crate::msg::{InstallOutcome, ServerMsg, VersionState};
use crate::program::{Check, ProgramId, ProgramRegistry, SnapshotReader, TransformCtx, Write};

/// How many times an idempotent RPC is (re)sent before giving up. The fault
/// layer drops only the request leg (replies travel on direct channels), so
/// retransmission from the requester fully recovers lost messages; eight
/// attempts make a retry failure vanishingly unlikely at test loss rates and
/// outlast the partition windows the chaos tests inject.
const RPC_ATTEMPTS: usize = 8;

/// How long a snapshot read waits for a session floor above the frontier to
/// settle (read-your-writes fallback) before reporting a timeout. Matches the
/// session-sync deadline used by the write path.
const SNAPSHOT_SESSION_DEADLINE: Duration = Duration::from_secs(5);

/// Client-visible outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All functors committed.
    Committed,
    /// The transaction aborted — at install time (failed check) or in the
    /// functor computing phase (logic error / constraint violation).
    Aborted,
}

/// One buffered functor's metadata, released to the processor queue when its
/// epoch completes (§IV-D: "their meta-data (key and version), which were
/// buffered in the previous epoch, are pushed to a queue").
#[derive(Debug, Clone)]
pub(crate) struct QueueEntry {
    pub key: Key,
    pub version: Timestamp,
    pub installed_at: Instant,
    /// When the epoch grant released this entry to the processors; equals
    /// `installed_at` until [`Server::handle_grant`] stamps it.
    pub released_at: Instant,
}

/// Per-server metrics: the lifecycle tracer (Fig 10 stage accounting) plus
/// transaction counters.
///
/// FE-observable stages (`transform`, `timestamp_grant`, `functor_install`,
/// `commit`) are recorded by the coordinator; BE-observable stages
/// (`epoch_close`, `functor_computing`) are recorded where the backend sees
/// them. Each stage is recorded exactly once per transaction event, so
/// cluster rollups can merge the histograms without double counting.
#[derive(Debug)]
pub struct ServerStats {
    tracer: LifecycleTracer,
    latency: Histogram,
    committed: Counter,
    aborted: Counter,
    installs: Counter,
    compute_errors: Counter,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            tracer: LifecycleTracer::default(),
            latency: Histogram::new(),
            committed: Counter::new(),
            aborted: Counter::new(),
            installs: Counter::new(),
            compute_errors: Counter::new(),
        }
    }
}

impl ServerStats {
    /// The lifecycle tracer: per-stage histograms plus the ring of recent
    /// transaction traces.
    pub fn tracer(&self) -> &LifecycleTracer {
        &self.tracer
    }

    /// End-to-end transaction latency (issue → functors fully processed).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Transactions resolved as committed via this coordinator.
    pub fn committed(&self) -> u64 {
        self.committed.get()
    }

    /// Transactions resolved as aborted via this coordinator.
    pub fn aborted(&self) -> u64 {
        self.aborted.get()
    }

    /// Functor installs accepted by this backend.
    pub fn installs(&self) -> u64 {
        self.installs.get()
    }

    /// Asynchronous computes that returned an error (transport failures
    /// during shutdown, unknown handlers).
    pub fn compute_errors(&self) -> u64 {
        self.compute_errors.get()
    }

    /// Mergeable raw histograms: the stages in [`Stage::ALL`] order plus
    /// end-to-end latency last. Cluster rollups merge these across servers
    /// before computing percentiles.
    pub fn raw_histograms(&self) -> [HistogramSnapshot; STAGE_COUNT + 1] {
        let stages = self.tracer.stage_snapshots();
        std::array::from_fn(|i| {
            if i < STAGE_COUNT {
                stages[i].clone()
            } else {
                self.latency.snapshot()
            }
        })
    }

    /// Exports this server's metrics as one node of the unified stats tree.
    pub fn snapshot(&self, name: impl Into<String>) -> StatsSnapshot {
        let mut node = StatsSnapshot::new(name);
        node.set_counter("committed", self.committed());
        node.set_counter("aborted", self.aborted());
        node.set_counter("installs", self.installs());
        node.set_counter("compute_errors", self.compute_errors());
        for (stage, snap) in Stage::ALL.iter().zip(self.tracer.stage_snapshots()) {
            node.set_stage(stage.name(), StageStats::from(&snap));
        }
        node.set_stage("e2e", StageStats::from(&self.latency.snapshot()));
        node
    }

    /// Clears every counter and histogram (benchmark warm-up).
    pub fn reset(&self) {
        self.tracer.reset();
        self.latency.reset();
        self.committed.reset();
        self.aborted.reset();
        self.installs.reset();
        self.compute_errors.reset();
    }
}

/// An FE/BE pair: one simulated host of the ALOHA-DB cluster.
pub struct Server {
    id: ServerId,
    total_servers: u16,
    partition: Arc<Partition>,
    epoch: Arc<EpochClient>,
    net: Arc<dyn Transport<ServerMsg>>,
    /// Bounded two-lane executor for dispatched backend work: per-key
    /// message handling on the sharded lane, cross-partition recursion on
    /// the blocking lane (see `aloha_net::exec`).
    exec: Executor,
    programs: Arc<ProgramRegistry>,
    queue_tx: Sender<QueueEntry>,
    pending: Mutex<Vec<QueueEntry>>,
    /// Entries released to the processors but not yet successfully computed,
    /// keyed by version. Together with `pending`, this is what
    /// [`Server::compute_frontier`] scans: a version leaves this map only
    /// once its functor is final, so the minimum key is the oldest compute
    /// this backend still owes. Lock order: `pending` before `inflight`.
    inflight: Mutex<BTreeMap<Timestamp, Vec<Key>>>,
    /// In-flight snapshot-read bounds this backend is serving (a multiset:
    /// bound → count). The compaction sweeper clamps its horizon to the
    /// minimum entry, so a fold never passes a read already being served;
    /// requests still on the wire are covered by the chain-level `Folded`
    /// detection plus the coordinator's retry.
    read_floors: Mutex<BTreeMap<Timestamp, usize>>,
    prev_settled: Mutex<Timestamp>,
    stats: ServerStats,
    shutdown: AtomicBool,
    rpc_timeout: Duration,
    /// Write-ahead log of the write-only phase (§III-A logging), when
    /// durability is enabled: chunked in-memory buffers or crash-durable
    /// file segments with epoch group commit.
    wal: Option<WalSink>,
    /// Partial-replication shipping tap: while a standby is attached the
    /// feed buffers a copy of every WAL frame this server logs, and
    /// [`Server::commit_wal`] drains them into one `ShipBatch` per epoch —
    /// *before* the revoke ack, so settled epochs are always covered by the
    /// standby's queue. Costs one relaxed load per record when inactive.
    ship: Arc<ShipFeed>,
    /// Cluster-shared commit history for the serializability checker
    /// (`None` unless history recording is enabled).
    history: Option<Arc<History>>,
}

/// Chunked in-memory write-ahead log. Epoch group commit seals the active
/// buffer into an `Arc` chunk, so a snapshot clones chunk *handles* under
/// the lock and concatenates outside it — a hot partition's epoch close is
/// never stalled behind a full-log copy.
#[derive(Debug, Default)]
pub(crate) struct MemWal {
    sealed: Vec<Arc<Vec<u8>>>,
    active: Vec<u8>,
    records: u64,
}

/// Seal the active buffer early once it grows past this, so snapshots of a
/// commit-heavy epoch stay cheap even before the epoch closes.
const MEM_WAL_CHUNK: usize = 64 * 1024;

/// Where the write-only phase's log records go.
pub(crate) enum WalSink {
    /// In-memory chunks (the pre-durability behavior; ablation baseline).
    Memory(Mutex<MemWal>),
    /// Crash-durable segment files (see [`aloha_storage::durable`]).
    Disk(Arc<DurableLog>),
}

impl WalSink {
    /// Appends one batch of install records atomically: either every record
    /// of the batch is logged or none is, so a log closed mid-batch (server
    /// kill) can never leave a half-logged transaction to replay.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShuttingDown`] once the disk log has been closed —
    /// the caller must fail the install rather than acknowledge it.
    fn log_installs(&self, version: Timestamp, writes: &[Write]) -> Result<()> {
        match self {
            WalSink::Memory(mem) => {
                let mut mem = mem.lock();
                for w in writes {
                    WalRecord::Install {
                        key: w.key.clone(),
                        version,
                        functor: w.functor.clone(),
                    }
                    .encode_into(&mut mem.active);
                }
                mem.records += writes.len() as u64;
                if mem.active.len() >= MEM_WAL_CHUNK {
                    let chunk = std::mem::take(&mut mem.active);
                    mem.sealed.push(Arc::new(chunk));
                }
                Ok(())
            }
            WalSink::Disk(log) => {
                let mut frames = Vec::with_capacity(writes.len());
                for w in writes {
                    let mut buf = Vec::new();
                    WalRecord::Install {
                        key: w.key.clone(),
                        version,
                        functor: w.functor.clone(),
                    }
                    .encode_into(&mut buf);
                    frames.push((version.raw(), buf));
                }
                log.append_batch(&frames)
            }
        }
    }

    /// Appends one abort record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShuttingDown`] once the disk log has been closed.
    fn log_abort(&self, key: &Key, version: Timestamp) -> Result<()> {
        let record = WalRecord::Abort {
            key: key.clone(),
            version,
        };
        match self {
            WalSink::Memory(mem) => {
                let mut mem = mem.lock();
                record.encode_into(&mut mem.active);
                mem.records += 1;
                Ok(())
            }
            WalSink::Disk(log) => record.append_durable(log),
        }
    }

    /// Epoch group commit: flush (and, per policy, fsync) the disk log, or
    /// seal the in-memory chunk. Called just before a revoke ack, so a
    /// settled epoch implies its records are committed.
    fn commit(&self) {
        match self {
            WalSink::Memory(mem) => {
                let mut mem = mem.lock();
                if !mem.active.is_empty() {
                    let chunk = std::mem::take(&mut mem.active);
                    mem.sealed.push(Arc::new(chunk));
                }
            }
            WalSink::Disk(log) => {
                let _ = log.commit();
            }
        }
    }

    /// A contiguous copy of the log for replay. The memory path clones only
    /// chunk handles under the lock; assembly happens outside it.
    fn snapshot(&self) -> Vec<u8> {
        match self {
            WalSink::Memory(mem) => {
                let (chunks, active) = {
                    let mem = mem.lock();
                    (mem.sealed.clone(), mem.active.clone())
                };
                let total = chunks.iter().map(|c| c.len()).sum::<usize>() + active.len();
                let mut out = Vec::with_capacity(total);
                for chunk in &chunks {
                    out.extend_from_slice(chunk);
                }
                out.extend_from_slice(&active);
                out
            }
            WalSink::Disk(log) => {
                let mut out = Vec::new();
                if let Ok(frames) = log.read_back() {
                    for (_, frame) in frames {
                        out.extend_from_slice(&frame);
                    }
                }
                out
            }
        }
    }

    /// The `durability` node of the stats tree.
    fn stats_snapshot(&self, current_version: u64) -> StatsSnapshot {
        match self {
            WalSink::Memory(mem) => {
                let mem = mem.lock();
                let bytes = mem.sealed.iter().map(|c| c.len() as u64).sum::<u64>()
                    + mem.active.len() as u64;
                let records = mem.records;
                drop(mem);
                let mut s = StatsSnapshot::new("durability");
                s.set_counter("wal_bytes", bytes);
                s.set_counter("records", records);
                s.set_counter("fsyncs", 0);
                s
            }
            WalSink::Disk(log) => log.stats().snapshot(current_version),
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("id", &self.id).finish()
    }
}

/// How one drained ship-buffer frame leaves the epoch group commit (see
/// [`Server::settle_frame`]).
enum ShipFrame {
    /// Already final — ship the original bytes.
    AsIs,
    /// Resolved: ship re-encoded with the record's final form.
    Settled(Vec<u8>),
    /// Still uncomputed (a later epoch's frame racing into this drain) —
    /// requeue for the next drain.
    Hold,
}

impl Server {
    /// Creates a server; the caller spawns its dispatcher and processor
    /// threads. Returns the server and the processor queue's receive side.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: ServerId,
        total_servers: u16,
        partition: Arc<Partition>,
        epoch: Arc<EpochClient>,
        net: Arc<dyn Transport<ServerMsg>>,
        exec: Executor,
        programs: Arc<ProgramRegistry>,
        wal: Option<WalSink>,
        rpc_timeout: Duration,
        history: Option<Arc<History>>,
    ) -> (Arc<Server>, Receiver<QueueEntry>) {
        let (queue_tx, queue_rx) = crossbeam::channel::unbounded();
        // Recovery seeding: WAL replay and checkpoint restore reinstate
        // functors directly into the store, bypassing `install_batch`, so any
        // still-uncomputed record must be re-buffered here. Otherwise it
        // would be invisible to the compute frontier (unsoundly licensing
        // compaction to fold the history it still needs) and would never be
        // proactively recomputed. The next grant releases these exactly like
        // freshly installed entries.
        let seeded_at = Instant::now();
        let mut seeded = Vec::new();
        partition.store().for_each_chain(|key, chain| {
            for record in chain.uncomputed_in(Timestamp::ZERO, Timestamp::MAX) {
                seeded.push(QueueEntry {
                    key: key.clone(),
                    version: record.version(),
                    installed_at: seeded_at,
                    released_at: seeded_at,
                });
            }
        });
        let server = Arc::new(Server {
            id,
            total_servers,
            partition,
            epoch,
            net,
            exec,
            programs,
            queue_tx,
            pending: Mutex::new(seeded),
            inflight: Mutex::new(BTreeMap::new()),
            read_floors: Mutex::new(BTreeMap::new()),
            prev_settled: Mutex::new(Timestamp::ZERO),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            rpc_timeout,
            wal,
            ship: Arc::new(ShipFeed::new()),
            history,
        });
        (server, queue_rx)
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The partition this server's backend stores.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.partition
    }

    /// This server's epoch client.
    pub fn epoch(&self) -> &Arc<EpochClient> {
        &self.epoch
    }

    /// This server's metrics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// This server's bounded message executor.
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Instantaneous functor-computing backlog: installed entries parked
    /// until their epoch settles plus entries already released toward the
    /// processors but not yet drained. This is the backend-pressure signal
    /// the control plane's pacer samples.
    pub fn backlog_len(&self) -> u64 {
        self.pending.lock().len() as u64 + self.queue_tx.len() as u64
    }

    /// This server's node of the unified stats tree (with its partition's
    /// counters, its executor's pool metrics, and — when durability is on —
    /// the `durability` subtree as children).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut node = self.stats.snapshot(format!("server_{}", self.id.0));
        let mut partition = self.partition.stats().snapshot("partition");
        let mut memory = self.partition.store().memory_stats().snapshot("memory");
        let cache = self.partition.push_cache();
        memory.set_counter("push_cache_entries", cache.len() as u64);
        memory.set_counter("push_cache_hits", cache.hits());
        memory.set_counter("push_cache_misses", cache.misses());
        let probes = cache.hits() + cache.misses();
        memory.set_gauge(
            "push_cache_hit_rate_pct",
            cache.hits() * 100 / probes.max(1),
        );
        partition.push_child(memory);
        node.push_child(partition);
        node.push_child(self.exec.stats().snapshot("exec"));
        if let Some(sink) = &self.wal {
            node.push_child(sink.stats_snapshot(self.epoch.visible_bound().raw()));
        }
        node
    }

    /// The crash-durable log behind this server's WAL, if it writes to disk.
    pub(crate) fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        match &self.wal {
            Some(WalSink::Disk(log)) => Some(log),
            _ => None,
        }
    }

    /// The server owning `key`'s partition.
    pub fn owner_of(&self, key: &Key) -> ServerId {
        ServerId(key.partition(self.total_servers).0)
    }

    pub(crate) fn mark_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.epoch.shutdown();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    // ------------------------------------------------------------------
    // RPC with retransmission.
    //
    // The simulated fault layer can drop or delay the request leg of any
    // RPC (replies ride on direct one-shot channels and cannot be lost), so
    // every request sent here must be idempotent at the receiver: duplicate
    // installs are first-write-wins, duplicate aborts re-abort, and reads
    // and resolves have no side effects.
    // ------------------------------------------------------------------

    /// Sends a one-way message to server `to` over the transport.
    fn send_msg(&self, to: ServerId, msg: ServerMsg) -> Result<()> {
        self.net.send(Addr::Server(to), msg)
    }

    /// Sends an idempotent request and waits for the reply, retransmitting
    /// on timeout up to [`RPC_ATTEMPTS`] times (see [`Server::wait_retry`]).
    fn rpc<R>(&self, to: ServerId, mut make: impl FnMut(ReplySlot<R>) -> ServerMsg) -> Result<R> {
        let (slot, handle) = reply_pair();
        self.send_msg(to, make(slot))?;
        self.wait_retry(handle, to, make)
    }

    /// Waits on an already-sent request's reply, retransmitting a fresh copy
    /// (built by `make`) whenever the wait times out. A `Disconnected` reply
    /// (responder dropped the slot without answering) is retried the same
    /// way, modeling a request lost inside a restarting responder.
    fn wait_retry<R>(
        &self,
        mut handle: ReplyHandle<R>,
        to: ServerId,
        mut make: impl FnMut(ReplySlot<R>) -> ServerMsg,
    ) -> Result<R> {
        for attempt in 1.. {
            match handle.wait_timeout(self.rpc_timeout) {
                Ok(reply) => return Ok(reply),
                Err(e @ (Error::Timeout(_) | Error::Disconnected(_))) => {
                    if attempt >= RPC_ATTEMPTS || self.is_shutdown() {
                        return Err(e);
                    }
                    let (slot, next) = reply_pair();
                    self.send_msg(to, make(slot))?;
                    handle = next;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("retry loop returns from within")
    }

    // ------------------------------------------------------------------
    // Front-end: transaction coordination (§IV-A lifecycle).
    // ------------------------------------------------------------------

    /// Coordinates one transaction: assigns a timestamp, transforms it into
    /// functors, installs them on every participant partition (write-only
    /// phase), and issues the second abort round if any install fails.
    ///
    /// Returns once the write-only phase has completed; the returned handle
    /// waits for the asynchronous functor computing phase.
    ///
    /// # Errors
    ///
    /// Fails on shutdown, unknown programs, transform rejections, and
    /// transport failures.
    pub fn coordinate(self: &Arc<Self>, program: ProgramId, args: &[u8]) -> Result<TxnHandle> {
        let issued_at = Instant::now();
        let mut timer = TxnTimer::start();
        let program = Arc::clone(self.programs.get(program)?);
        let ticket = self.epoch.begin_txn(None).map_err(|e| match e {
            aloha_epoch::BeginError::ShuttingDown => Error::ShuttingDown,
            aloha_epoch::BeginError::DeadlineExceeded => Error::Timeout("epoch grant".into()),
        })?;
        self.stats
            .tracer
            .record_stage(Stage::TimestampGrant, timer.mark(Stage::TimestampGrant));

        let reader = FeSnapshotReader {
            server: self,
            bound: self.epoch.visible_bound(),
            record: self.history.is_some(),
            reads: Mutex::new(Vec::new()),
        };
        let plan = match program.transform(&TransformCtx {
            ts: ticket.ts,
            args,
            reader: &reader,
        }) {
            Ok(plan) => plan,
            Err(e) => {
                self.finish_ticket(ticket);
                return Err(e);
            }
        };
        self.stats
            .tracer
            .record_stage(Stage::Transform, timer.mark(Stage::Transform));
        let writes = plan.into_writes();
        // Prefer a probe key this coordinator owns so the outcome resolution
        // in `wait_processed` stays local (any functor of the transaction
        // reflects the abort decision, §IV-A).
        let probe = writes
            .iter()
            .find(|w| self.owner_of(&w.key) == self.id)
            .or_else(|| writes.first())
            .map(|w| w.key.clone());
        let recorded_writes = self.history.as_ref().map(|_| {
            writes
                .iter()
                .map(|w| (w.key.clone(), w.functor.clone()))
                .collect()
        });

        // Group writes by owning server and install (the write-only phase).
        // Each group is wrapped in an `Arc` once: the initial Install, any
        // retransmission and the fault layer's duplicates all share that one
        // allocation instead of deep-cloning the writes per send.
        let mut grouped: HashMap<ServerId, Vec<Write>> = HashMap::new();
        for w in writes {
            grouped.entry(self.owner_of(&w.key)).or_default().push(w);
        }
        let groups: HashMap<ServerId, Arc<Vec<Write>>> = grouped
            .into_iter()
            .map(|(owner, group)| (owner, Arc::new(group)))
            .collect();
        let participants: Vec<(ServerId, Vec<Key>)> = groups
            .iter()
            .map(|(owner, group)| (*owner, group.iter().map(|w| w.key.clone()).collect()))
            .collect();

        // Whatever happens during the write-only phase, the ticket must be
        // finished: a leaked in-flight transaction stalls its epoch forever.
        let phase = self.run_write_phase(ticket.ts, &groups, &participants);
        self.finish_ticket(ticket);

        let ok = matches!(phase, Ok(true));
        if let Some(log) = &self.history {
            log.record(CommitRecord {
                ts: ticket.ts,
                writes: recorded_writes.unwrap_or_default(),
                reads: reader.reads.into_inner(),
                aborted_at_install: !ok,
            });
        }
        phase?;
        self.stats
            .tracer
            .record_stage(Stage::FunctorInstall, timer.mark(Stage::FunctorInstall));
        Ok(TxnHandle {
            fe: Arc::clone(self),
            ts: ticket.ts,
            probe,
            aborted_at_install: !ok,
            issued_at,
            timer: Mutex::new(Some(timer)),
            permit: Mutex::new(None),
        })
    }

    /// The write-only phase: installs every per-partition group (fanning out
    /// to remote participants, retransmitting on loss) and, when any install
    /// is rejected or unreachable, runs the second abort round (§V-A2).
    ///
    /// Returns `Ok(true)` when all installs landed, `Ok(false)` when the
    /// transaction was aborted by a failed check, and `Err` when a
    /// participant stayed unreachable through all retries — in which case the
    /// abort round has already rolled the reachable participants back.
    fn run_write_phase(
        &self,
        version: Timestamp,
        groups: &HashMap<ServerId, Arc<Vec<Write>>>,
        participants: &[(ServerId, Vec<Key>)],
    ) -> Result<bool> {
        let mut outcomes = Vec::with_capacity(groups.len());
        let mut replies = Vec::new();
        let mut install_err = None;
        for (owner, group) in groups {
            if *owner == self.id {
                outcomes.push(self.install_batch(version, group));
            } else {
                let (slot, handle) = reply_pair();
                let sent = self.send_msg(
                    *owner,
                    ServerMsg::Install {
                        version,
                        writes: Arc::clone(group),
                        reply: slot,
                    },
                );
                // A send that fails outright (a killed participant's
                // address is gone) fails the install like a lost reply
                // does: the installs already sent must be rolled back.
                if let Err(e) = sent {
                    install_err = Some(e);
                    break;
                }
                replies.push((*owner, handle));
            }
        }
        for (owner, handle) in replies {
            // The resend closure captures only the `Arc` handle; the write
            // group itself is cloned by nobody on any path.
            let resend = |reply| ServerMsg::Install {
                version,
                writes: Arc::clone(&groups[&owner]),
                reply,
            };
            match self.wait_retry(handle, owner, resend) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    install_err = Some(e);
                    break;
                }
            }
        }
        let ok = install_err.is_none() && outcomes.iter().all(InstallOutcome::is_ok);

        if !ok {
            // Second round (§V-A2): roll the version back to ABORTED on every
            // participant, and wait for the acks — the epoch must stay open
            // (this transaction in flight) until every rollback landed, or a
            // sibling functor could become visible as committed. An install
            // that is still in flight when its abort lands is harmless:
            // `abort_version` pre-inserts the ABORTED record and the late
            // install becomes a first-write-wins no-op.
            let mut abort_acks = Vec::new();
            for (owner, keys) in participants {
                let pairs: Arc<Vec<(Key, Timestamp)>> =
                    Arc::new(keys.iter().map(|k| (k.clone(), version)).collect());
                if *owner == self.id {
                    for (k, v) in pairs.iter() {
                        self.abort_version_logged(k, *v);
                    }
                } else {
                    let (slot, handle) = reply_pair();
                    let _ = self.send_msg(
                        *owner,
                        ServerMsg::AbortVersion {
                            keys: Arc::clone(&pairs),
                            reply: slot,
                        },
                    );
                    abort_acks.push((*owner, pairs, handle));
                }
            }
            for (owner, pairs, handle) in abort_acks {
                let resend = |reply| ServerMsg::AbortVersion {
                    keys: Arc::clone(&pairs),
                    reply,
                };
                self.wait_retry(handle, owner, resend)?;
            }
        }
        match install_err {
            Some(e) => Err(e),
            None => Ok(ok),
        }
    }

    /// Executes a latest-version read-only transaction (§III-B): assigns a
    /// timestamp in the current epoch, waits for the epoch to complete, then
    /// reads the keys as a historical snapshot at that timestamp.
    ///
    /// This is the delay-to-epoch baseline; [`Server::snapshot_read_latest`]
    /// is the fast path. Both record the `snapshot_read` stage so the read
    /// ablation compares like for like.
    ///
    /// # Errors
    ///
    /// Fails on shutdown or transport errors.
    pub fn read_latest(self: &Arc<Self>, keys: &[Key]) -> Result<Vec<Option<aloha_common::Value>>> {
        let started = Instant::now();
        let ts = self
            .epoch
            .assign_read_timestamp(None)
            .map_err(|_| Error::ShuttingDown)?;
        if !self.epoch.wait_visible(ts, None) {
            return Err(Error::ShuttingDown);
        }
        let values = self.read_at(keys, ts);
        self.stats
            .tracer
            .record_stage(Stage::SnapshotRead, duration_micros(started.elapsed()));
        values
    }

    /// Reads a historical snapshot at `ts`, which must already be settled.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Timeout`] semantics if `ts` is not yet visible,
    /// and on transport errors.
    pub fn read_at(
        self: &Arc<Self>,
        keys: &[Key],
        ts: Timestamp,
    ) -> Result<Vec<Option<aloha_common::Value>>> {
        if ts > self.epoch.visible_bound() {
            return Err(Error::Timeout(format!("snapshot {ts} is not settled yet")));
        }
        // `remote_get_many` serves locally-owned keys from the partition and
        // fans out one batched round trip per remote owner.
        Ok(self
            .as_env()
            .remote_get_many(keys, ts)?
            .into_iter()
            .map(|read| read.value)
            .collect())
    }

    // ------------------------------------------------------------------
    // Snapshot-read fast path: externally-consistent multi-partition reads
    // served at the cluster compute frontier, with no epoch wait. The
    // frontier is min-merged across every server and capped at the visible
    // bound, so everything at or below it is settled AND computed —
    // answers come straight off the packed settled section of the version
    // chains, lock-free of any record and with no functor computing.
    // ------------------------------------------------------------------

    /// Registers a snapshot read being served at `bound`; the guard
    /// deregisters on drop. While registered, [`Server::min_inflight_read`]
    /// keeps the compaction sweeper's fold horizon at or below `bound`.
    pub(crate) fn register_snapshot_read(&self, bound: Timestamp) -> ReadGuard<'_> {
        *self.read_floors.lock().entry(bound).or_insert(0) += 1;
        ReadGuard {
            server: self,
            bound,
        }
    }

    /// The lowest snapshot-read bound currently being served by this server,
    /// if any. The compaction sweeper folds no history at or above it.
    pub fn min_inflight_read(&self) -> Option<Timestamp> {
        self.read_floors.lock().keys().next().copied()
    }

    /// One compaction sweep over this backend's partition, keeping the
    /// newest `keep_versions` committed versions per chain. Returns the
    /// number of records folded away; a killed server folds nothing, since
    /// its partition is about to be discarded.
    ///
    /// The horizon is the cluster-wide compute frontier: every functor
    /// below it is computed everywhere, so no read — local or remote —
    /// still floors beneath what the fold keeps. The visible bound would be
    /// unsound here: a settled-but-uncomputed functor reads at its own
    /// (lower) version. Snapshot reads being served right now pin the
    /// horizon further: folding at or above an in-flight read's bound could
    /// destroy the floor it is about to walk onto.
    pub fn compact(&self, keep_versions: usize) -> usize {
        if self.is_shutdown() {
            return 0;
        }
        let mut horizon = self.epoch.frontier();
        if let Some(floor) = self.min_inflight_read() {
            horizon = horizon.min(floor);
        }
        self.partition.store().compact(horizon, keep_versions)
    }

    /// Serves one key of a snapshot read from this backend's chains.
    ///
    /// # Errors
    ///
    /// [`Error::VersionOutsideEpoch`] when compaction folded the history the
    /// read would need (`valid_from` carries the oldest bound the chain can
    /// answer exactly again — the caller retries there); transport errors
    /// from the computing fallback.
    pub(crate) fn snapshot_read_local(&self, key: &Key, bound: Timestamp) -> Result<VersionedRead> {
        let Some(chain) = self.partition.store().chain(key) else {
            return Ok(VersionedRead::missing());
        };
        match chain.snapshot_read(bound) {
            ChainSnapshot::Missing => Ok(VersionedRead::missing()),
            ChainSnapshot::Found(version, FinalForm::Value(value)) => {
                Ok(VersionedRead::found(version, value))
            }
            // A delete tombstone reports its version with no value, matching
            // `Partition::get`. (`Aborted` is unreachable: the walk skips
            // abort markers.)
            ChainSnapshot::Found(version, _) => Ok(VersionedRead {
                version,
                value: None,
            }),
            // A reachable record is still uncomputed — only possible when the
            // bound sits above the cluster frontier (a session floored by its
            // own fresh write). Fall back to the computing read path.
            ChainSnapshot::Pending => self.partition.get(key, bound, self.as_env()),
            ChainSnapshot::Folded(retry_at) => Err(Error::VersionOutsideEpoch {
                version: bound,
                valid_from: retry_at,
                valid_until: Timestamp::MAX,
            }),
        }
    }

    /// One attempt at a consistent multi-partition read at exactly `bound`:
    /// locally-owned keys straight from the chains, remote keys answered by
    /// the push cache when the same snapshot point was already fetched, the
    /// rest grouped per owning server and fanned out in parallel (every
    /// request in flight before the first reply is awaited), mirroring
    /// `remote_get_many`. Remote results are fed back into the push cache so
    /// hot keys never leave the front-end while the frontier holds still.
    fn try_snapshot_read(&self, keys: &[Key], bound: Timestamp) -> Result<Vec<VersionedRead>> {
        // Pin local chains for the duration of the attempt; remote chains are
        // pinned by their own server's handler.
        let _guard = self.register_snapshot_read(bound);
        let cache = self.partition.push_cache();
        let mut out: Vec<Option<VersionedRead>> = vec![None; keys.len()];
        let mut by_owner: HashMap<ServerId, Vec<usize>> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let owner = self.owner_of(key);
            if owner == self.id {
                out[i] = Some(self.snapshot_read_local(key, bound)?);
            } else if let Some(read) = cache.get(bound, key) {
                // History at a settled snapshot point is immutable, so a
                // cached answer keyed at exactly `bound` is still exact.
                out[i] = Some(read);
            } else {
                by_owner.entry(owner).or_default().push(i);
            }
        }
        let mut singles = Vec::new();
        let mut batches = Vec::new();
        for (owner, idxs) in by_owner {
            if idxs.len() == 1 {
                let i = idxs[0];
                let key = keys[i].clone();
                let (slot, handle) = reply_pair();
                self.send_msg(
                    owner,
                    ServerMsg::SnapshotRead {
                        key: key.clone(),
                        bound,
                        reply: slot,
                    },
                )?;
                singles.push((owner, i, key, handle));
            } else {
                let group: Arc<Vec<Key>> =
                    Arc::new(idxs.iter().map(|&i| keys[i].clone()).collect());
                let (slot, handle) = reply_pair();
                self.send_msg(
                    owner,
                    ServerMsg::SnapshotReadBatch {
                        keys: Arc::clone(&group),
                        bound,
                        reply: slot,
                    },
                )?;
                batches.push((owner, idxs, group, handle));
            }
        }
        for (owner, i, key, handle) in singles {
            let resend = |reply| ServerMsg::SnapshotRead {
                key: key.clone(),
                bound,
                reply,
            };
            let read = self.wait_retry(handle, owner, resend)??;
            cache.insert(bound, key, read.clone());
            out[i] = Some(read);
        }
        for (owner, idxs, group, handle) in batches {
            let resend = |reply| ServerMsg::SnapshotReadBatch {
                keys: Arc::clone(&group),
                bound,
                reply,
            };
            let reads = self.wait_retry(handle, owner, resend)??;
            if reads.len() != idxs.len() {
                return Err(Error::Config(format!(
                    "snapshot read batch answered {} reads for {} keys",
                    reads.len(),
                    idxs.len()
                )));
            }
            for (&i, read) in idxs.iter().zip(reads) {
                cache.insert(bound, keys[i].clone(), read.clone());
                out[i] = Some(read);
            }
        }
        Ok(out
            .into_iter()
            .map(|read| read.expect("every key index is covered by exactly one owner group"))
            .collect())
    }

    /// A consistent multi-partition read at `bound` or, when compaction on
    /// some server already folded past it, at the nearest newer bound every
    /// chain can answer exactly. Returns the bound actually served — always
    /// at or above the request, so session reads stay monotone.
    fn snapshot_read_retry(
        &self,
        keys: &[Key],
        mut bound: Timestamp,
    ) -> Result<(Timestamp, Vec<VersionedRead>)> {
        for _ in 0..RPC_ATTEMPTS {
            match self.try_snapshot_read(keys, bound) {
                Ok(reads) => return Ok((bound, reads)),
                Err(Error::VersionOutsideEpoch { valid_from, .. }) => {
                    // Raced a fold — possible only while this front-end's
                    // absorbed frontier trails the folding server's. Every
                    // retry bound is still settled and computed cluster-wide:
                    // fold horizons sit below the folding server's own
                    // frontier, and this front-end's frontier is monotone.
                    bound = bound.max(valid_from).max(self.epoch.snapshot_timestamp());
                }
                Err(e) => return Err(e),
            }
        }
        Err(Error::Timeout(format!(
            "snapshot read kept racing compaction below {bound}"
        )))
    }

    /// Serves a latest-version read-only transaction from the snapshot-read
    /// fast path: externally consistent at the cluster compute frontier (or
    /// at `floor` when the caller's session has already observed state above
    /// the frontier), without waiting out the epoch. Returns the snapshot
    /// point actually served so the caller can advance its session floor.
    ///
    /// # Errors
    ///
    /// Fails on shutdown and transport errors, and with [`Error::Timeout`]
    /// if `floor` exceeds the visible bound and the epoch does not settle it
    /// within the deadline.
    pub fn snapshot_read_latest(
        self: &Arc<Self>,
        keys: &[Key],
        floor: Timestamp,
    ) -> Result<(Timestamp, Vec<VersionedRead>)> {
        let started = Instant::now();
        let frontier = self.epoch.snapshot_timestamp();
        let bound = if floor > frontier {
            // Read-your-writes: the session observed (usually: wrote) state
            // above the frontier, so external consistency demands waiting
            // until the frontier covers that floor and serving there. The
            // wait must be for the *frontier*, not mere visibility: a
            // settled epoch can still hold uncomputed functors whose §IV-E
            // deferred writes have not landed in their target chains yet.
            // This narrow window is the only place the fast path ever waits.
            if !self
                .epoch
                .wait_frontier(floor, Some(Instant::now() + SNAPSHOT_SESSION_DEADLINE))
            {
                return Err(Error::Timeout(format!(
                    "session floor {floor} did not settle"
                )));
            }
            floor
        } else {
            frontier
        };
        let served = self.snapshot_read_retry(keys, bound);
        self.stats
            .tracer
            .record_stage(Stage::SnapshotRead, duration_micros(started.elapsed()));
        served
    }

    /// Reads a historical snapshot at exactly `ts` through the fast path
    /// (no functor computing for settled history, grouped parallel fan-out).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if `ts` is not settled yet, and
    /// [`Error::VersionOutsideEpoch`] if compaction has folded history `ts`
    /// needs — unlike latest-version reads, an explicit timestamp cannot be
    /// bumped past the fold.
    pub fn snapshot_read_at(
        self: &Arc<Self>,
        keys: &[Key],
        ts: Timestamp,
    ) -> Result<Vec<VersionedRead>> {
        if ts > self.epoch.visible_bound() {
            return Err(Error::Timeout(format!("snapshot {ts} is not settled yet")));
        }
        let started = Instant::now();
        let reads = self.try_snapshot_read(keys, ts);
        self.stats
            .tracer
            .record_stage(Stage::SnapshotRead, duration_micros(started.elapsed()));
        reads
    }

    fn finish_ticket(&self, ticket: aloha_epoch::TxnTicket) {
        if let Some(epoch) = self.epoch.txn_finished(ticket) {
            // Group commit before the ack: once the EM hears this epoch is
            // complete it may settle it, and a settled epoch's records must
            // already be committed to the log (§III-A).
            self.commit_wal();
            let ack = RevokedAck {
                server: self.id,
                epoch,
                frontier: self.compute_frontier(),
            };
            let _ = self
                .net
                .send(Addr::EpochManager, ServerMsg::RevokedAck(ack));
        }
    }

    /// Resolves the record state of (key, version), computing as needed.
    pub(crate) fn resolve(&self, key: &Key, version: Timestamp) -> Result<VersionState> {
        if self.owner_of(key) == self.id {
            self.resolve_local(key, version)
        } else {
            self.rpc(self.owner_of(key), |reply| ServerMsg::ResolveVersion {
                key: key.clone(),
                version,
                reply,
            })?
        }
    }

    // ------------------------------------------------------------------
    // Back-end: install, abort, compute.
    // ------------------------------------------------------------------

    pub(crate) fn install_batch(&self, version: Timestamp, writes: &[Write]) -> InstallOutcome {
        // A killed server must not accept installs into its about-to-be
        // discarded partition: the coordinator's retry lands on the restarted
        // incarnation instead, and a failed outcome here triggers the normal
        // abort round.
        if self.is_shutdown() {
            return InstallOutcome::CheckFailed("server is shut down".into());
        }
        // A version at or below the settled bound can no longer be installed:
        // its epoch has already been declared complete.
        if version <= self.epoch.visible_bound() {
            return InstallOutcome::OutsideEpoch;
        }
        // Evaluate checks before touching storage: per-partition installs are
        // all-or-nothing.
        for w in writes {
            if let Some(Check::KeyExists(key)) = &w.check {
                let exists = self
                    .partition
                    .store()
                    .chain(key)
                    .is_some_and(|c| !c.is_empty());
                if !exists {
                    return InstallOutcome::CheckFailed(format!("missing key {key:?}"));
                }
            }
        }
        // Log before installing, the whole batch atomically: a batch the log
        // rejects (closed by a concurrent kill) is failed wholesale, so no
        // acknowledged install can ever be missing from the log.
        if let Some(sink) = &self.wal {
            if sink.log_installs(version, writes).is_err() {
                return InstallOutcome::CheckFailed("wal closed during shutdown".into());
            }
            // Partial replication: mirror the logged frames into the ship
            // buffer (drained toward the standby at the epoch group commit).
            if self.ship.is_active() {
                for w in writes {
                    let mut buf = Vec::new();
                    WalRecord::Install {
                        key: w.key.clone(),
                        version,
                        functor: w.functor.clone(),
                    }
                    .encode_into(&mut buf);
                    self.ship.push(version.raw(), buf);
                }
            }
        }
        let installed_at = Instant::now();
        for w in writes {
            if self
                .partition
                .install(&w.key, version, w.functor.clone())
                .is_err()
            {
                return InstallOutcome::CheckFailed(format!("misrouted key {:?}", w.key));
            }
            self.stats.installs.incr();
            self.pending.lock().push(QueueEntry {
                key: w.key.clone(),
                version,
                installed_at,
                released_at: installed_at,
            });
        }
        InstallOutcome::Ok
    }

    /// Rolls (key, version) back to ABORTED, logging the rollback when
    /// durability is enabled.
    ///
    /// If the durable log has been closed by a concurrent kill, the abort
    /// must not be lost — the version's *install* may already be durable and
    /// would replay as committed. The rollback is forwarded to this server's
    /// own address instead, where the restarted incarnation applies and logs
    /// it; the coordinator's ack ordering is preserved because forwarding
    /// blocks until the successor answers.
    pub(crate) fn abort_version_logged(&self, key: &Key, version: Timestamp) {
        if let Some(sink) = &self.wal {
            if sink.log_abort(key, version).is_err() {
                self.forward_abort_to_successor(key, version);
                return;
            }
            if self.ship.is_active() {
                let mut buf = Vec::new();
                WalRecord::Abort {
                    key: key.clone(),
                    version,
                }
                .encode_into(&mut buf);
                self.ship.push(version.raw(), buf);
            }
        }
        self.partition.abort_version(key, version);
    }

    /// Routes an abort this dead incarnation can no longer make durable to
    /// the server that replaced it on the transport. Retries through the restart
    /// window; `wait_retry` is not used because it gives up early once the
    /// shutdown flag — always set here — is raised.
    fn forward_abort_to_successor(&self, key: &Key, version: Timestamp) {
        let pairs: Arc<Vec<(Key, Timestamp)>> = Arc::new(vec![(key.clone(), version)]);
        for _ in 0..RPC_ATTEMPTS {
            let (slot, handle) = reply_pair();
            let sent = self.net.send(
                Addr::Server(self.id),
                ServerMsg::AbortVersion {
                    keys: Arc::clone(&pairs),
                    reply: slot,
                },
            );
            if sent.is_err() {
                // Instant network + endpoint still deregistered: wait out
                // part of the restart window and try again.
                std::thread::sleep(self.rpc_timeout);
                continue;
            }
            if handle.wait_timeout(self.rpc_timeout).is_ok() {
                return;
            }
        }
    }

    /// Snapshot of this server's write-ahead log (empty if durability is
    /// off). The in-memory sink clones chunk handles under its lock and
    /// assembles outside it; the disk sink reads its segments back.
    pub fn wal_snapshot(&self) -> Vec<u8> {
        self.wal.as_ref().map(WalSink::snapshot).unwrap_or_default()
    }

    /// Epoch group commit: makes the records accumulated this epoch durable
    /// (flush + policy fsync) before the epoch's completion is acknowledged.
    ///
    /// With a standby attached, the epoch's ship buffer is drained here too
    /// — on the transport's reliable lane, and strictly before the caller
    /// emits the `RevokedAck` — so "the epoch settled" implies "its frames
    /// reached the standby's apply queue". That ordering is the heart of the
    /// failover safety argument (DESIGN.md §14).
    pub(crate) fn commit_wal(&self) {
        if let Some(sink) = &self.wal {
            sink.commit();
        }
        if let Some(batch) = self.ship.drain() {
            // The epoch just settled, so every version it logged is final on
            // this partition: ship the final forms instead of the original
            // functors. The standby then holds settled values — promotion
            // re-seeds only the unsettled mid-epoch tail into the pending
            // set, not the entire shipped history, and never recomputes a
            // user functor whose remote read-set may since have been
            // compacted away on its owners. A frame that does NOT resolve
            // belongs to a later, still-open epoch that raced into this
            // drain; it is held back for that epoch's drain — shipping it
            // raw would leave a record on the standby that no later batch
            // ever settles, pinning its chain's watermark (and compaction)
            // forever.
            let mut frames = Vec::with_capacity(batch.frames.len());
            let mut held = Vec::new();
            for (version, buf) in batch.frames {
                match self.settle_frame(&buf) {
                    ShipFrame::AsIs => frames.push((version, buf)),
                    ShipFrame::Settled(out) => frames.push((version, out)),
                    ShipFrame::Hold => held.push((version, buf)),
                }
            }
            if !held.is_empty() {
                // Held frames are the buffer's newest; frames pushed after
                // the drain are newer still, so front-requeue keeps order.
                self.ship.requeue(held);
            }
            if frames.is_empty() {
                return;
            }
            let feed = Arc::clone(&self.ship);
            // The standby acks with its post-apply watermark; the primary
            // only records it (shipping is asynchronous — durability is the
            // WAL's job, the standby is for availability).
            let reply = ReplySlot::from_fn(move |wm| feed.note_acked(wm));
            let frames = Arc::new(frames);
            if self
                .net
                .send_reliable(
                    Addr::Replica(self.id),
                    ServerMsg::ShipBatch {
                        from: aloha_common::PartitionId(self.id.0),
                        watermark: batch.watermark,
                        frames: Arc::clone(&frames),
                        reply,
                    },
                )
                .is_err()
            {
                // Refused send (standby endpoint mid-swap): keep the frames
                // in the feed so promotion's leftover drain still sees them
                // — every logged frame must be applied, queued at the
                // standby, or buffered here.
                let frames = Arc::try_unwrap(frames).unwrap_or_else(|a| (*a).clone());
                self.ship.requeue(frames);
            }
        }
    }

    /// Classifies one buffered ship frame against the partition's record
    /// state: already final (aborts, values, re-settled requeues) frames
    /// ship as-is, a pending install whose record has since settled ships
    /// re-encoded with the final form, and one still uncomputed — a frame
    /// from a later, still-open epoch that raced into this drain — is held
    /// for that epoch's drain.
    fn settle_frame(&self, buf: &[u8]) -> ShipFrame {
        let Some(Ok(WalRecord::Install {
            key,
            version,
            functor,
        })) = read_log(buf).next()
        else {
            return ShipFrame::AsIs;
        };
        if functor.is_final() {
            return ShipFrame::AsIs;
        }
        let form = self
            .partition
            .store()
            .chain(&key)
            .and_then(|chain| chain.read_at(version))
            .and_then(|read| match read {
                ChainRead::Final(_, form) => Some(form),
                ChainRead::Live(rec) => rec.final_form(),
            });
        let Some(form) = form else {
            return ShipFrame::Hold;
        };
        let mut out = Vec::new();
        WalRecord::Install {
            key,
            version,
            functor: form.into_functor(),
        }
        .encode_into(&mut out);
        ShipFrame::Settled(out)
    }

    /// The partial-replication shipping tap (inactive unless the replica
    /// controller attached a standby for this partition).
    pub(crate) fn ship_feed(&self) -> &Arc<ShipFeed> {
        &self.ship
    }

    /// Replays a write-ahead log into this partition, skipping records at or
    /// below `checkpoint` (see [`aloha_storage::wal::replay_log`]). Returns
    /// the number of records applied and the highest version applied.
    ///
    /// # Errors
    ///
    /// Fails on corrupt logs.
    pub fn replay_wal(&self, log: &[u8], checkpoint: Timestamp) -> Result<(usize, Timestamp)> {
        aloha_storage::wal::replay_log(&self.partition, log, checkpoint)
    }

    pub(crate) fn resolve_local(&self, key: &Key, version: Timestamp) -> Result<VersionState> {
        self.partition.compute(key, version, self.as_env())?;
        let Some(chain) = self.partition.store().chain(key) else {
            return Ok(VersionState::Missing);
        };
        let form = match chain.read_at(version) {
            Some(ChainRead::Final(_, form)) => form,
            // After compute the record is final: read its outcome without
            // cloning the functor.
            Some(ChainRead::Live(rec)) => rec
                .final_form()
                .unwrap_or_else(|| unreachable!("compute left non-final record at {key:?}")),
            None if version <= chain.compacted_floor() => {
                // The version was folded by compaction. Aborted records are
                // never folded, so a folded version necessarily committed;
                // probes only consume the outcome, and its exact written
                // value has been superseded by the surviving base anyway.
                return Ok(match chain.floor(version) {
                    Some(ChainRead::Final(_, FinalForm::Value(v))) => VersionState::Committed(v),
                    _ => VersionState::Committed(Value::default()),
                });
            }
            None => return Ok(VersionState::Missing),
        };
        Ok(match form {
            FinalForm::Value(v) => VersionState::Committed(v),
            FinalForm::Aborted => VersionState::Aborted,
            FinalForm::Deleted => VersionState::Deleted,
        })
    }

    fn handle_grant(&self, grant: Grant) {
        self.epoch.on_grant(grant);
        // Everything at or below the settled bound is installed; release its
        // buffered metadata to the processors (§IV-D).
        let settled = grant.settled;
        let released_at = Instant::now();
        let mut pending = self.pending.lock();
        let mut keep = Vec::with_capacity(pending.len());
        // The pending lock is held across the inflight inserts and queue
        // sends, so a released entry is never outside both structures — the
        // compute frontier cannot advance past a functor in mid-handoff.
        let mut inflight = self.inflight.lock();
        for mut entry in pending.drain(..) {
            if entry.version <= settled {
                // The functor waited from install until its epoch settled:
                // that wait is the epoch-close stage (§III-D).
                self.stats.tracer.record_stage(
                    Stage::EpochClose,
                    duration_micros(released_at.duration_since(entry.installed_at)),
                );
                entry.released_at = released_at;
                inflight
                    .entry(entry.version)
                    .or_default()
                    .push(entry.key.clone());
                let _ = self.queue_tx.send(entry);
            } else {
                keep.push(entry);
            }
        }
        drop(inflight);
        *pending = keep;
        drop(pending);
        // Push-cache entries two grants old can no longer be needed.
        let mut prev = self.prev_settled.lock();
        self.partition.push_cache().clear_below(*prev);
        *prev = settled;
    }

    /// This backend's local compute frontier: every functor it hosts with a
    /// version strictly below the returned bound has been computed. The
    /// frontier is the minimum over the buffered (`pending`) and released
    /// (`inflight`) metadata, capped at the visible bound — with nothing
    /// outstanding a server vouches for everything settled so far.
    /// Piggybacked on each revoke ack; the EM min-merges the cluster and
    /// redistributes the result in grants as the compaction horizon.
    pub(crate) fn compute_frontier(&self) -> Timestamp {
        let mut frontier = self.epoch.visible_bound();
        if let Some(min) = self.pending.lock().iter().map(|e| e.version).min() {
            frontier = frontier.min(min);
        }
        let mut inflight = self.inflight.lock();
        // Lazily retire versions whose computes landed through another path
        // (on-demand reads compute chains too): only the map's front matters
        // for the minimum. A version whose processor compute *failed* stays
        // put and pins the frontier — conservative, never unsound.
        while let Some((&version, keys)) = inflight.iter().next() {
            if version >= frontier {
                break;
            }
            let store = self.partition.store();
            let done = keys.iter().all(|k| {
                store
                    .chain(k)
                    .is_some_and(|c| c.uncomputed_in(version, version).is_empty())
            });
            if done {
                inflight.remove(&version);
            } else {
                frontier = version;
                break;
            }
        }
        frontier
    }

    pub(crate) fn as_env(&self) -> &dyn ComputeEnv {
        self
    }

    /// Serializes this partition's settled state at `at` (see
    /// [`aloha_storage::snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates transport failures from on-demand computing.
    pub fn write_checkpoint(&self, at: Timestamp) -> Result<Vec<u8>> {
        aloha_storage::snapshot::write_checkpoint(&self.partition, at, self.as_env())
    }

    /// Restores a checkpoint blob into this partition (before serving
    /// traffic).
    ///
    /// # Errors
    ///
    /// Fails on malformed blobs.
    pub fn restore_checkpoint(&self, blob: &[u8]) -> Result<Timestamp> {
        aloha_storage::snapshot::restore_checkpoint(&self.partition, blob)
    }
}

impl ComputeEnv for Server {
    fn remote_get(&self, key: &Key, bound: Timestamp) -> Result<VersionedRead> {
        let owner = self.owner_of(key);
        if owner == self.id {
            return self.partition.get(key, bound, self.as_env());
        }
        self.rpc(owner, |reply| ServerMsg::RemoteGet {
            key: key.clone(),
            bound,
            reply,
        })?
    }

    /// The functor-computing phase's gather step: locally-owned keys read
    /// straight from the partition; remote keys are grouped by owner and
    /// fetched with one `RemoteGetBatch` round trip per owner, all requests
    /// in flight before the first reply is awaited (parallel fan-out).
    fn remote_get_many(&self, keys: &[Key], bound: Timestamp) -> Result<Vec<VersionedRead>> {
        if keys.len() <= 1 {
            return keys.iter().map(|k| self.remote_get(k, bound)).collect();
        }
        let mut by_owner: HashMap<ServerId, Vec<usize>> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            by_owner.entry(self.owner_of(key)).or_default().push(i);
        }
        let mut out: Vec<Option<VersionedRead>> = vec![None; keys.len()];
        let mut waits = Vec::new();
        for (owner, idxs) in by_owner {
            if owner == self.id {
                for &i in &idxs {
                    out[i] = Some(self.partition.get(&keys[i], bound, self.as_env())?);
                }
                continue;
            }
            let group: Arc<Vec<Key>> = Arc::new(idxs.iter().map(|&i| keys[i].clone()).collect());
            let (slot, handle) = reply_pair();
            self.send_msg(
                owner,
                ServerMsg::RemoteGetBatch {
                    keys: Arc::clone(&group),
                    bound,
                    reply: slot,
                },
            )?;
            waits.push((owner, idxs, group, handle));
        }
        for (owner, idxs, group, handle) in waits {
            let resend = |reply| ServerMsg::RemoteGetBatch {
                keys: Arc::clone(&group),
                bound,
                reply,
            };
            let reads = self.wait_retry(handle, owner, resend)??;
            if reads.len() != idxs.len() {
                return Err(Error::Config(format!(
                    "remote get batch answered {} reads for {} keys",
                    reads.len(),
                    idxs.len()
                )));
            }
            for (&i, read) in idxs.iter().zip(reads) {
                out[i] = Some(read);
            }
        }
        Ok(out
            .into_iter()
            .map(|read| read.expect("every key index is covered by exactly one owner group"))
            .collect())
    }

    fn install_deferred(&self, key: &Key, version: Timestamp, functor: Functor) -> Result<()> {
        let owner = self.owner_of(key);
        if owner == self.id {
            self.partition.store().put(key, version, functor);
            return Ok(());
        }
        self.rpc(owner, |reply| ServerMsg::InstallDeferred {
            key: key.clone(),
            version,
            functor: functor.clone(),
            reply,
        })
    }

    fn ensure_computed(&self, key: &Key, upto: Timestamp) -> Result<()> {
        let owner = self.owner_of(key);
        if owner == self.id {
            return self.partition.compute(key, upto, self.as_env());
        }
        self.rpc(owner, |reply| ServerMsg::ResolveVersion {
            key: key.clone(),
            version: upto,
            reply,
        })?
        .map(|_| ())
    }

    fn push_value(&self, recipient: &Key, version: Timestamp, source: &Key, read: &VersionedRead) {
        let owner = self.owner_of(recipient);
        if owner == self.id {
            self.partition
                .push_cache()
                .insert(version, source.clone(), read.clone());
        } else {
            let _ = self.send_msg(
                owner,
                ServerMsg::PushValue {
                    version,
                    source: source.clone(),
                    read: read.clone(),
                },
            );
        }
    }
}

/// RAII registration of an in-flight snapshot read (see
/// [`Server::register_snapshot_read`]): while alive, the compaction sweeper
/// will not fold history at or above the registered bound.
pub(crate) struct ReadGuard<'a> {
    server: &'a Server,
    bound: Timestamp,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let mut floors = self.server.read_floors.lock();
        if let Some(n) = floors.get_mut(&self.bound) {
            *n -= 1;
            if *n == 0 {
                floors.remove(&self.bound);
            }
        }
    }
}

/// FE-side settled-snapshot reader handed to transforms.
struct FeSnapshotReader<'a> {
    server: &'a Arc<Server>,
    bound: Timestamp,
    /// Whether to log (key, version) pairs for the history checker.
    record: bool,
    /// Versions observed by this transaction's transform, in read order.
    reads: Mutex<Vec<(Key, Timestamp)>>,
}

impl SnapshotReader for FeSnapshotReader<'_> {
    fn read(&self, key: &Key) -> Result<VersionedRead> {
        // `remote_get` already routes locally-owned keys to the partition, so
        // there is exactly one ownership check on this path.
        let read = self.server.as_env().remote_get(key, self.bound)?;
        if self.record {
            self.reads.lock().push((key.clone(), read.version));
        }
        Ok(read)
    }

    fn snapshot_bound(&self) -> Timestamp {
        self.bound
    }
}

/// Handle to a coordinated transaction: resolves the computing-phase outcome.
#[derive(Debug)]
pub struct TxnHandle {
    fe: Arc<Server>,
    ts: Timestamp,
    probe: Option<Key>,
    aborted_at_install: bool,
    issued_at: Instant,
    /// Lifecycle timer carried from [`Server::coordinate`]; consumed by the
    /// first [`TxnHandle::wait_processed`] to seal the transaction's trace.
    timer: Mutex<Option<TxnTimer>>,
    /// Admission token held while the transaction is in flight (`None` when
    /// the FE is ungated). Released when the handle drops, so the window
    /// covers the whole lifecycle — install through functor processing.
    permit: Mutex<Option<Permit>>,
}

impl TxnHandle {
    /// The transaction's timestamp (its version and serialization position).
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Attaches the FE admission token this transaction was admitted under;
    /// the token returns to the gate when the handle drops.
    pub(crate) fn attach_permit(&self, permit: Permit) {
        *self.permit.lock() = Some(permit);
    }

    /// Whether the write-only phase already aborted the transaction.
    pub fn aborted_at_install(&self) -> bool {
        self.aborted_at_install
    }

    /// Blocks until the transaction's functors are fully processed and
    /// returns the outcome. This matches the paper's latency measurement:
    /// "from when the transaction is issued ... until its functors are fully
    /// processed" (§V-A3).
    ///
    /// # Errors
    ///
    /// Fails on shutdown or transport errors.
    pub fn wait_processed(&self) -> Result<TxnOutcome> {
        let outcome = self.wait_inner()?;
        self.fe
            .stats
            .latency
            .record(duration_micros(self.issued_at.elapsed()));
        let committed = outcome == TxnOutcome::Committed;
        match outcome {
            TxnOutcome::Committed => self.fe.stats.committed.incr(),
            TxnOutcome::Aborted => self.fe.stats.aborted.incr(),
        }
        if let Some(mut timer) = self.timer.lock().take() {
            // Everything after the write-only phase — waiting for the epoch
            // to settle and the outcome probe — is the commit stage from the
            // coordinator's viewpoint. BE-side stages (epoch close, functor
            // computing) are recorded by the backend that observes them, so
            // this trace carries only FE-observable stages.
            self.fe
                .stats
                .tracer
                .record_stage(Stage::Commit, timer.mark(Stage::Commit));
            self.fe.stats.tracer.record_trace(timer.finish(committed));
        }
        Ok(outcome)
    }

    fn wait_inner(&self) -> Result<TxnOutcome> {
        if self.aborted_at_install {
            return Ok(TxnOutcome::Aborted);
        }
        let Some(probe) = &self.probe else {
            return Ok(TxnOutcome::Committed); // empty write set
        };
        if !self.fe.epoch.wait_visible(self.ts, None) {
            return Err(Error::ShuttingDown);
        }
        match self.fe.resolve(probe, self.ts)? {
            VersionState::Committed(_) | VersionState::Deleted => Ok(TxnOutcome::Committed),
            VersionState::Aborted => Ok(TxnOutcome::Aborted),
            VersionState::Missing => Err(Error::KeyNotFound(probe.clone())),
        }
    }
}

/// Dispatcher thread body: routes transport messages to the server.
pub(crate) fn run_dispatcher(server: Arc<Server>, endpoint: Endpoint<ServerMsg>) {
    loop {
        let msg = match endpoint.recv() {
            Ok(m) => m,
            Err(_) => break, // transport gone
        };
        if handle_msg(&server, msg).is_break() {
            break;
        }
    }
}

/// Handles one dispatched message; `Break` means the dispatcher should exit.
fn handle_msg(server: &Arc<Server>, msg: ServerMsg) -> std::ops::ControlFlow<()> {
    use std::ops::ControlFlow;
    match msg {
        ServerMsg::Grant(grant) => server.handle_grant(grant),
        ServerMsg::Revoke(epoch) => {
            if server.epoch.on_revoke(epoch) {
                // Group commit point: the revoke ack is what lets the EM
                // settle this epoch, so everything the epoch installed must
                // hit the log first (fsync per policy).
                server.commit_wal();
                let ack = RevokedAck {
                    server: server.id,
                    epoch,
                    frontier: server.compute_frontier(),
                };
                let _ = server
                    .net
                    .send(Addr::EpochManager, ServerMsg::RevokedAck(ack));
            }
        }
        ServerMsg::RevokedAck(_) => {} // only the EM endpoint receives these
        // Log shipping targets `Addr::Replica(_)` endpoints, which run the
        // standby apply loop (`replication::run_standby`) — a server
        // endpoint drops a stray batch and lets the unanswered reply age
        // out like a lost message.
        ServerMsg::ShipBatch { .. } => {}
        // Per-key work runs on the executor's key-sharded lane: one FIFO
        // queue per worker, routed by `ServerMsg::shard_hash`, so same-key
        // messages never reorder while distinct keys proceed in parallel.
        msg @ (ServerMsg::Install { .. }
        | ServerMsg::AbortVersion { .. }
        | ServerMsg::InstallDeferred { .. }
        | ServerMsg::PushValue { .. }) => {
            let hash = msg.shard_hash().unwrap_or(0);
            let s = Arc::clone(server);
            server.exec.submit_sharded(hash, move || match msg {
                ServerMsg::Install {
                    version,
                    writes,
                    reply,
                } => {
                    reply.send(s.install_batch(version, &writes));
                }
                ServerMsg::AbortVersion { keys, reply } => {
                    for (key, version) in keys.iter() {
                        s.abort_version_logged(key, *version);
                    }
                    reply.send(());
                }
                ServerMsg::InstallDeferred {
                    key,
                    version,
                    functor,
                    reply,
                } => {
                    s.partition.store().put(&key, version, functor);
                    reply.send(());
                }
                ServerMsg::PushValue {
                    version,
                    source,
                    read,
                } => s.partition.push_cache().insert(version, source, read),
                _ => unreachable!("only per-key messages are routed here"),
            });
        }
        // Requests that may themselves block on other partitions run on the
        // executor's blocking lane, which spills over to a fresh thread when
        // every pooled worker is busy — so the dispatcher never deadlocks
        // and, as before the pool, functor recursion (strictly decreasing
        // versions) bounds the blocked-thread depth. The time a request
        // waits for a worker is part of the asynchronous computing phase,
        // so it is recorded into the `functor_computing` stage: pool
        // saturation shows up in the cluster percentiles.
        ServerMsg::RemoteGet { key, bound, reply } => {
            let s = Arc::clone(server);
            let enqueued = Instant::now();
            server.exec.submit_blocking(move || {
                s.stats
                    .tracer
                    .record_stage(Stage::FunctorComputing, duration_micros(enqueued.elapsed()));
                reply.send(s.partition.get(&key, bound, s.as_env()));
            });
        }
        ServerMsg::RemoteGetBatch { keys, bound, reply } => {
            let s = Arc::clone(server);
            let enqueued = Instant::now();
            server.exec.submit_blocking(move || {
                s.stats
                    .tracer
                    .record_stage(Stage::FunctorComputing, duration_micros(enqueued.elapsed()));
                let reads = keys
                    .iter()
                    .map(|key| s.partition.get(key, bound, s.as_env()))
                    .collect::<Result<Vec<VersionedRead>>>();
                reply.send(reads);
            });
        }
        // Snapshot reads never compute functors, but the `Pending` fallback
        // inside `snapshot_read_local` can block on other partitions, so
        // they take the blocking lane too. No stage is recorded here — the
        // requesting front-end records the end-to-end `snapshot_read` stage.
        ServerMsg::SnapshotRead { key, bound, reply } => {
            let s = Arc::clone(server);
            server.exec.submit_blocking(move || {
                let _guard = s.register_snapshot_read(bound);
                reply.send(s.snapshot_read_local(&key, bound));
            });
        }
        ServerMsg::SnapshotReadBatch { keys, bound, reply } => {
            let s = Arc::clone(server);
            server.exec.submit_blocking(move || {
                let _guard = s.register_snapshot_read(bound);
                let reads = keys
                    .iter()
                    .map(|key| s.snapshot_read_local(key, bound))
                    .collect::<Result<Vec<VersionedRead>>>();
                reply.send(reads);
            });
        }
        ServerMsg::ResolveVersion {
            key,
            version,
            reply,
        } => {
            let s = Arc::clone(server);
            let enqueued = Instant::now();
            server.exec.submit_blocking(move || {
                s.stats
                    .tracer
                    .record_stage(Stage::FunctorComputing, duration_micros(enqueued.elapsed()));
                reply.send(s.resolve_local(&key, version));
            });
        }
        ServerMsg::Shutdown => return ControlFlow::Break(()),
    }
    ControlFlow::Continue(())
}

/// How many queued entries one processor turn drains at most. Small on
/// purpose: it only bounds the burst an epoch grant releases all at once.
const DRAIN_LIMIT: usize = 64;

/// Processor thread body: one thread of the BE's asynchronous functor
/// computing pool (§IV-D). Compute parallelism per server is the number of
/// processor threads (`processors_per_server`).
///
/// An epoch grant releases a burst of entries at once; a turn drains up to
/// [`DRAIN_LIMIT`] entries, deduplicates them by key (computing a chain to
/// its highest released version settles every lower version in order, so one
/// call covers the whole burst for that key), and computes the distinct keys
/// on this thread. Dependency safety needs no extra machinery: version order
/// within a chain is enforced by the chain itself, and concurrent computes
/// of the same key by sibling processors are idempotent.
pub(crate) fn run_processor(server: Arc<Server>, queue: Receiver<QueueEntry>) {
    // The poll slice bounds how long a kill waits for idle processors to
    // notice the shutdown flag — it is the constant floor under every
    // failover/restart downtime figure, so keep it tight; an idle wakeup
    // every few ms costs nothing.
    while let Some(first) =
        aloha_net::recv_while(&queue, Duration::from_millis(2), || !server.is_shutdown())
    {
        let mut entries = vec![first];
        while entries.len() < DRAIN_LIMIT {
            match queue.try_recv() {
                Ok(entry) => entries.push(entry),
                Err(_) => break,
            }
        }
        // One compute target per distinct key: its highest released version.
        let mut targets: HashMap<&Key, Timestamp> = HashMap::new();
        for entry in &entries {
            let upto = targets.entry(&entry.key).or_insert(entry.version);
            if entry.version > *upto {
                *upto = entry.version;
            }
        }
        let mut failed: Vec<&Key> = Vec::new();
        for (key, upto) in targets {
            if server
                .partition
                .compute(key, upto, server.as_env())
                .is_err()
            {
                failed.push(key);
            }
        }
        server.stats.compute_errors.add(failed.len() as u64);
        // Retire the drained entries from the frontier's inflight map.
        // Computing a key to its highest released version finalizes every
        // lower version too, so each successful key clears all its entries;
        // failed keys stay and (conservatively) pin the compute frontier
        // until an on-demand read computes them.
        let mut inflight = server.inflight.lock();
        for entry in &entries {
            if failed.contains(&&entry.key) {
                continue;
            }
            if let Some(keys) = inflight.get_mut(&entry.version) {
                if let Some(pos) = keys.iter().position(|k| *k == entry.key) {
                    keys.swap_remove(pos);
                }
                if keys.is_empty() {
                    inflight.remove(&entry.version);
                }
            }
        }
        drop(inflight);
        // Queue wait plus the compute itself: everything after the epoch
        // released the functor is the computing stage (§IV-D). Recorded per
        // released entry, as before, so rollups keep per-functor semantics.
        for entry in &entries {
            server.stats.tracer.record_stage(
                Stage::FunctorComputing,
                duration_micros(entry.released_at.elapsed()),
            );
        }
    }
}
