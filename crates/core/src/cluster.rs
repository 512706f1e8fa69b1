//! Cluster assembly: servers + epoch manager + bus, and the client-facing
//! [`Database`] handle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::clock::{Clock, ClockBase, SkewedClock, SystemClock};
use aloha_common::metrics::{HistogramSnapshot, Stage, STAGE_COUNT};
use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::{EpochId, PartitionId};
use aloha_common::{Error, Key, ReadMode, Result, ServerId, Timestamp, Value};
use aloha_control::{
    AccessKind, AdaptivePacer, AdmissionGate, ControlConfig, PacerGauges, PacerSample, Permit,
};
use aloha_epoch::{EpochClient, EpochConfig, EpochManager, EpochTransport, Grant, RevokedAck};
use aloha_functor::{Handler, HandlerId, HandlerRegistry};
use aloha_net::{Addr, Bus, Endpoint, ExecConfig, Executor, NetConfig, Transport};
use aloha_storage::{DurableLog, DurableLogConfig, Fsync, LogDamage, Partition, RecoveredLog};
use crossbeam::channel::Receiver;
use parking_lot::{Mutex, RwLock};

use aloha_replica::{AvailabilityStats, HotnessPolicy, PartitionSignal};

use crate::checker::History;
use crate::msg::ServerMsg;
use crate::program::{ProgramId, ProgramRegistry, TxnProgram};
use crate::replication::{PartialReplicationSpec, ReplicaSet};
use crate::server::{
    run_dispatcher, run_processor, MemWal, QueueEntry, Server, TxnHandle, TxnOutcome, WalSink,
};

/// Cluster-wide configuration.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use aloha_core::ClusterConfig;
///
/// let config = ClusterConfig::new(4)
///     .with_epoch_duration(Duration::from_millis(25))
///     .with_processors(2);
/// assert_eq!(config.servers, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated servers (each hosting one partition).
    pub servers: u16,
    /// Unified epoch duration (paper default: 25 ms).
    pub epoch_duration: Duration,
    /// Simulated network behavior.
    pub net: NetConfig,
    /// Functor processor threads per backend.
    pub processors_per_server: usize,
    /// Enable the §III-C straggler optimization (transactions without
    /// authorization during epoch switches).
    pub allow_noauth: bool,
    /// Per-server clock skew in microseconds (empty = perfectly synced).
    pub clock_skew_micros: Vec<i64>,
    /// Offset added to every clock, in microseconds. A cluster recovering
    /// from a checkpoint must start its timestamp domain *beyond* the
    /// checkpoint timestamp (pass `at.micros() + 1`), exactly as a real
    /// deployment resumes clocks past the recovery point.
    pub clock_offset_micros: u64,
    /// Optional watermark-driven chain compaction: settled records are
    /// periodically packed out of their `Arc`+lock cells and the dead
    /// committed prefix of every chain is folded into its materialized base
    /// (aborted records are retained for outcome probes). `None` (the
    /// default) keeps every version live, the pre-compaction behavior.
    pub compaction: Option<CompactionConfig>,
    /// Log every install/rollback of the write-only phase to a per-server
    /// in-memory write-ahead log (§III-A). Off by default, matching the
    /// paper's fault-tolerance-disabled evaluation configuration. For a
    /// crash-durable on-disk log see [`ClusterConfig::with_durable_log`],
    /// which supersedes this flag.
    pub durable: bool,
    /// Crash-durable write-ahead logging: per-server segment files with
    /// epoch group commit and checkpoint truncation. `None` (the default)
    /// keeps the WAL in memory (or off, per [`ClusterConfig::durable`]).
    pub durable_log: Option<DurableLogSpec>,
    /// Partial replication: keep log-shipped standbys for up to `budget`
    /// hot partitions and promote one at an epoch boundary when its primary
    /// is killed (see [`ClusterConfig::with_partial_replication`]). `None`
    /// (the default) leaves every partition on the restart-from-WAL path.
    pub partial_replication: Option<PartialReplicationSpec>,
    /// How long one attempt of an internal RPC waits before the requester
    /// retransmits (idempotent requests) or gives up. Keep well above the
    /// simulated network latency; lower it (e.g. to a few ms) under fault
    /// injection so retransmissions recover dropped requests quickly.
    pub rpc_timeout: Duration,
    /// Record every coordinated transaction into a cluster-wide commit
    /// [`History`] for the serializability checker (test builds only; adds
    /// one mutex append per transaction).
    pub record_history: bool,
    /// Pool sizes for each server's bounded message executor (sharded lane
    /// for per-key work, blocking lane for cross-partition recursion).
    /// [`aloha_net::ExecConfig::spawn_per_message`] restores the pre-pool
    /// thread-per-message behavior (the ablation baseline).
    pub exec: ExecConfig,
    /// Closed-loop control plane: adaptive epoch pacing and/or per-FE
    /// admission gating. `None` (the default) runs fixed epochs at
    /// [`ClusterConfig::epoch_duration`] with ungated front-ends — the
    /// pre-control-plane behavior. When set, the pacer's `initial` duration
    /// overrides `epoch_duration`.
    pub control: Option<ControlConfig>,
    /// Which [`Transport`] carries cluster messages. The default simulated
    /// bus is built from [`ClusterConfig::net`]; a custom transport (e.g.
    /// [`aloha_net::TcpTransport`]) ignores `net` entirely.
    pub transport: TransportSpec,
    /// How [`Database`] handles serve latest-version reads: the snapshot-read
    /// fast path at the cluster compute frontier (the default), or the
    /// §III-B delay-to-next-epoch baseline.
    pub read_mode: ReadMode,
}

/// Which transport implementation a cluster runs on
/// (see [`ClusterConfig::with_transport`]).
#[derive(Clone, Default)]
pub enum TransportSpec {
    /// The in-process simulated [`Bus`], built from [`ClusterConfig::net`].
    /// This is the default and preserves the single-process behavior
    /// bit-for-bit, including fault injection and delay lines.
    #[default]
    Simulated,
    /// A caller-supplied transport. The cluster takes ownership of its
    /// lifecycle: [`Cluster::shutdown`] shuts the transport down.
    Custom(Arc<dyn Transport<ServerMsg>>),
}

impl std::fmt::Debug for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportSpec::Simulated => f.write_str("TransportSpec::Simulated"),
            TransportSpec::Custom(_) => f.write_str("TransportSpec::Custom(..)"),
        }
    }
}

/// Watermark-driven chain-compaction knobs (see
/// [`ClusterConfig::with_compaction`]).
///
/// The sweeper folds committed history below each key's value watermark,
/// keeping the newest `keep_versions` committed records per chain as the
/// materialized base. Aborted records below the watermark are packed but
/// never folded, so late outcome probes can still distinguish an aborted
/// version from folded committed history. Historical reads below the
/// retained window are best-effort.
#[derive(Debug, Clone, Copy)]
pub struct CompactionConfig {
    /// How often the sweeper runs.
    pub interval: Duration,
    /// Committed versions to retain per chain (clamped to at least 1 — the
    /// base record readers floor onto).
    pub keep_versions: usize,
}

/// Crash-durable WAL knobs (see [`ClusterConfig::with_durable_log`]).
///
/// Each server logs into its own subdirectory `dir/server-<i>`; reopening
/// the same directory recovers each partition from its newest checkpoint
/// plus the WAL suffix.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use aloha_core::{DurableLogSpec, Fsync};
///
/// let spec = DurableLogSpec::new("/tmp/aloha-wal")
///     .with_fsync(Fsync::EveryN(8))
///     .with_checkpoint_interval(Duration::from_millis(100));
/// assert!(spec.checkpoint_interval.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct DurableLogSpec {
    /// Root directory; one subdirectory per server is created inside.
    pub dir: PathBuf,
    /// Group-commit fsync policy (the machine-crash durability knob).
    pub fsync: Fsync,
    /// Periodic background checkpointing: every interval, each durable
    /// server snapshots its partition at the settled bound into the log
    /// directory and truncates dead segments. `None` (the default) leaves
    /// checkpointing to explicit [`Cluster::checkpoint_to_wal`] calls.
    pub checkpoint_interval: Option<Duration>,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Flush every append to the kernel before acknowledging it, making
    /// acked installs survive a process SIGKILL mid-epoch (see
    /// [`aloha_storage::DurableLogConfig::flush_appends`]). Required for
    /// multi-process deployments where a remote coordinator commits on the
    /// strength of an install ack.
    pub flush_appends: bool,
}

impl DurableLogSpec {
    /// A durable log rooted at `dir`: epoch-granular fsync, 256 KiB
    /// segments, no background checkpointing.
    pub fn new(dir: impl Into<PathBuf>) -> DurableLogSpec {
        DurableLogSpec {
            dir: dir.into(),
            fsync: Fsync::EveryEpoch,
            checkpoint_interval: None,
            segment_bytes: 256 * 1024,
            flush_appends: false,
        }
    }

    /// Overrides the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: Fsync) -> DurableLogSpec {
        self.fsync = fsync;
        self
    }

    /// Enables the background checkpointer at the given cadence.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> DurableLogSpec {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Overrides the segment rotation threshold.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> DurableLogSpec {
        self.segment_bytes = bytes;
        self
    }

    /// Enables per-append kernel flushes (process-crash durability for
    /// acknowledged installs).
    #[must_use]
    pub fn with_flush_appends(mut self, flush: bool) -> DurableLogSpec {
        self.flush_appends = flush;
        self
    }
}

impl ClusterConfig {
    /// A default configuration for `servers` hosts: 25 ms epochs, instant
    /// network, two processors per server, straggler optimization on.
    pub fn new(servers: u16) -> ClusterConfig {
        ClusterConfig {
            servers,
            epoch_duration: Duration::from_millis(25),
            net: NetConfig::instant(),
            processors_per_server: 2,
            allow_noauth: true,
            clock_skew_micros: Vec::new(),
            clock_offset_micros: 0,
            compaction: None,
            durable: false,
            durable_log: None,
            partial_replication: None,
            rpc_timeout: Duration::from_secs(30),
            record_history: false,
            exec: ExecConfig::default(),
            control: None,
            transport: TransportSpec::Simulated,
            read_mode: ReadMode::default(),
        }
    }

    /// Overrides the epoch duration.
    pub fn with_epoch_duration(mut self, duration: Duration) -> ClusterConfig {
        self.epoch_duration = duration;
        self
    }

    /// Overrides the network behavior.
    pub fn with_net(mut self, net: NetConfig) -> ClusterConfig {
        self.net = net;
        self
    }

    /// Overrides the processor pool size.
    pub fn with_processors(mut self, processors: usize) -> ClusterConfig {
        self.processors_per_server = processors;
        self
    }

    /// Enables or disables the straggler (no-authorization) optimization.
    pub fn with_noauth(mut self, allow: bool) -> ClusterConfig {
        self.allow_noauth = allow;
        self
    }

    /// Sets per-server clock skew for synchronization experiments.
    pub fn with_clock_skew(mut self, skew_micros: Vec<i64>) -> ClusterConfig {
        self.clock_skew_micros = skew_micros;
        self
    }

    /// Starts every clock at the given microsecond offset (recovery).
    pub fn with_clock_offset(mut self, offset_micros: u64) -> ClusterConfig {
        self.clock_offset_micros = offset_micros;
        self
    }

    /// Enables the background watermark-driven compaction sweeper, keeping
    /// the newest `keep_versions` committed versions per chain.
    pub fn with_compaction(mut self, interval: Duration, keep_versions: usize) -> ClusterConfig {
        self.compaction = Some(CompactionConfig {
            interval,
            keep_versions,
        });
        self
    }

    /// Overrides how latest-version reads are served (see [`ReadMode`]).
    pub fn with_read_mode(mut self, mode: ReadMode) -> ClusterConfig {
        self.read_mode = mode;
        self
    }

    /// Enables in-memory write-ahead logging of the write-only phase
    /// (§III-A): every install/rollback is appended to a per-server WAL that
    /// lives in process memory. For crash durability across process death
    /// use [`ClusterConfig::with_durable_log`] instead.
    pub fn with_memory_wal(mut self) -> ClusterConfig {
        self.durable = true;
        self
    }

    /// Enables crash-durable on-disk write-ahead logging (the logging half
    /// of the §III-A fault-tolerance strategy). Each server's log lives in
    /// `spec.dir/server-<i>`; restarting a cluster (or one server, via
    /// [`Cluster::restart_server`]) over the same directory recovers the
    /// partitions from checkpoint + WAL suffix.
    pub fn with_durable_log(mut self, spec: DurableLogSpec) -> ClusterConfig {
        self.durable_log = Some(spec);
        self
    }

    /// Enables partial replication with the given standby budget: the
    /// hotness controller keeps log-shipped standbys for up to `budget`
    /// partitions (ranked by PushCache hit rate and install backlog), and
    /// [`Cluster::kill_server`] promotes a replicated partition's standby
    /// at the next epoch boundary instead of leaving the slot down.
    /// Partitions without a standby keep the restart-from-WAL path, which
    /// needs [`ClusterConfig::with_durable_log`].
    ///
    /// Shipping reuses the write-ahead log's frames, so a cluster with
    /// partial replication and no WAL configured gets the in-memory WAL
    /// enabled automatically at start.
    pub fn with_partial_replication(self, budget: usize) -> ClusterConfig {
        self.with_partial_replication_spec(PartialReplicationSpec::new(budget))
    }

    /// Enables partial replication with full control over the spec
    /// (rebalance cadence, hysteresis margin, pinned partitions).
    pub fn with_partial_replication_spec(mut self, spec: PartialReplicationSpec) -> ClusterConfig {
        self.partial_replication = Some(spec);
        self
    }

    /// Overrides the per-attempt internal RPC timeout.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> ClusterConfig {
        self.rpc_timeout = timeout;
        self
    }

    /// Enables commit-history recording for the serializability checker.
    pub fn with_history(mut self) -> ClusterConfig {
        self.record_history = true;
        self
    }

    /// Overrides the per-server message-executor pool sizes.
    pub fn with_exec(mut self, exec: ExecConfig) -> ClusterConfig {
        self.exec = exec;
        self
    }

    /// Enables the closed-loop control plane (adaptive epoch pacing and/or
    /// FE admission gating).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use aloha_control::ControlConfig;
    /// use aloha_core::ClusterConfig;
    ///
    /// let config = ClusterConfig::new(4)
    ///     .with_control(ControlConfig::adaptive(Duration::from_millis(25)));
    /// assert!(config.control.is_some());
    /// ```
    pub fn with_control(mut self, control: ControlConfig) -> ClusterConfig {
        self.control = Some(control);
        self
    }

    /// Runs the cluster on a caller-supplied [`Transport`] instead of the
    /// default simulated bus. Every server endpoint and the epoch manager's
    /// grant/revoke traffic ride the given transport; [`ClusterConfig::net`]
    /// is ignored. The cluster owns the transport's lifecycle from here on —
    /// [`Cluster::shutdown`] shuts it down.
    pub fn with_transport(mut self, transport: Arc<dyn Transport<ServerMsg>>) -> ClusterConfig {
        self.transport = TransportSpec::Custom(transport);
        self
    }
}

type DependencyRule = Arc<dyn Fn(&Key) -> Option<Key> + Send + Sync>;

/// Configures handlers, programs and dependency rules before starting a
/// [`Cluster`].
pub struct ClusterBuilder {
    config: ClusterConfig,
    handlers: HandlerRegistry,
    programs: ProgramRegistry,
    dependency_rules: Vec<DependencyRule>,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("config", &self.config)
            .finish()
    }
}

impl ClusterBuilder {
    /// Registers a functor handler (available on every backend).
    pub fn register_handler(
        &mut self,
        id: HandlerId,
        handler: impl Handler + 'static,
    ) -> &mut Self {
        self.handlers.register(id, handler);
        self
    }

    /// Registers a transaction program (available on every front-end).
    pub fn register_program(
        &mut self,
        id: ProgramId,
        program: impl TxnProgram + 'static,
    ) -> &mut Self {
        self.programs.register(id, program);
        self
    }

    /// Registers a dependent-key rule (§IV-E) on every partition.
    pub fn add_dependency_rule(
        &mut self,
        rule: impl Fn(&Key) -> Option<Key> + Send + Sync + 'static,
    ) -> &mut Self {
        self.dependency_rules.push(Arc::new(rule));
        self
    }

    /// Starts the cluster: spawns servers, processors and the epoch manager.
    /// With a durable log configured over a non-empty directory, every
    /// partition is first recovered from its newest checkpoint plus the WAL
    /// suffix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid configurations, [`Error::Io`]
    /// when the durable log cannot be opened or is damaged beyond a torn
    /// tail.
    pub fn start(mut self) -> Result<Cluster> {
        // Log shipping rides the WAL's frames: partial replication without
        // any WAL configured silently gets the in-memory flavor.
        if self.config.partial_replication.is_some()
            && !self.config.durable
            && self.config.durable_log.is_none()
        {
            self.config.durable = true;
        }
        let n = self.config.servers;
        if n == 0 {
            return Err(Error::Config("cluster needs at least one server".into()));
        }
        if n as u32 > (1 << aloha_common::ServerId::BITS) {
            return Err(Error::Config(format!(
                "at most 256 servers supported, got {n}"
            )));
        }
        if !self.config.clock_skew_micros.is_empty()
            && self.config.clock_skew_micros.len() != n as usize
        {
            return Err(Error::Config(
                "clock_skew_micros must have one entry per server".into(),
            ));
        }
        if self.config.processors_per_server == 0 {
            return Err(Error::Config(
                "need at least one processor per server".into(),
            ));
        }
        if let Some(control) = &self.config.control {
            control.validate()?;
        }

        let base = ClockBase::new();
        let net: Arc<dyn Transport<ServerMsg>> = match self.config.transport.clone() {
            TransportSpec::Simulated => Arc::new(Bus::new(self.config.net.clone())),
            TransportSpec::Custom(transport) => transport,
        };
        let em_endpoint = net.register(Addr::EpochManager);
        let history = self.config.record_history.then(|| Arc::new(History::new()));
        // Everything a single-server restart needs to rebuild its victim
        // lives here, outliving the server instances themselves.
        let rebuild = RebuildCtx {
            config: self.config,
            base,
            handlers: Arc::new(self.handlers),
            programs: Arc::new(self.programs),
            dependency_rules: self.dependency_rules,
        };

        let mut servers = Vec::with_capacity(n as usize);
        let mut server_threads = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (server, threads, _report) = build_server(&rebuild, ServerId(i), &net, &history)?;
            servers.push(server);
            server_threads.push(threads);
        }
        let servers = Arc::new(ServerSlots::new(servers));

        let em_clock: Arc<dyn Clock> = if rebuild.config.clock_offset_micros != 0 {
            Arc::new(SkewedClock::new(
                SystemClock::new(rebuild.base.clone()),
                rebuild.config.clock_offset_micros as i64,
            ))
        } else {
            Arc::new(SystemClock::new(rebuild.base.clone()))
        };
        // With a control plane configured, the pacer's initial duration is
        // authoritative (`ControlConfig::fixed(d)` ≡ `with_epoch_duration(d)`).
        let epoch_duration = rebuild
            .config
            .control
            .as_ref()
            .map(|c| c.pacing.initial)
            .unwrap_or(rebuild.config.epoch_duration);
        let em_config = EpochConfig {
            epoch_duration,
            servers: (0..n).map(ServerId).collect(),
            poll_interval: Duration::from_micros(200),
            // Retransmit unacked revokes fast enough to ride out dropped
            // Revoke/ack messages without stretching epochs noticeably.
            revoke_resend_interval: (epoch_duration / 4).max(Duration::from_millis(2)),
        };
        let transport = NetEpochTransport {
            net: Arc::clone(&net),
            endpoint: em_endpoint,
        };
        let mut pacer_gauges = None;
        let em = match &rebuild.config.control {
            Some(control) => {
                let gauges = Arc::new(PacerGauges::default());
                // The pacer samples live cluster pressure right before each
                // authorization: executor lane depths and install/compute
                // backlogs. In `Fixed` mode the closure is never called.
                // Sampling reads the slots, so after a restart the fresh
                // server's executor is what gets measured — a recovering
                // backend's replay backlog shows up as pressure the pacer
                // absorbs like any other spike.
                let sample_servers = Arc::clone(&servers);
                let source = move || {
                    let mut exec_queue = 0;
                    let mut backlog = 0;
                    for server in sample_servers.all() {
                        exec_queue += server.exec().queued_now();
                        backlog += server.backlog_len();
                    }
                    PacerSample {
                        exec_queue,
                        backlog,
                    }
                };
                let pacer =
                    AdaptivePacer::new(control.pacing.clone(), source, Arc::clone(&gauges))?;
                pacer_gauges = Some(gauges);
                EpochManager::spawn_with_pacer(em_config, em_clock, transport, Box::new(pacer))
            }
            None => EpochManager::spawn(em_config, em_clock, transport),
        };
        let gates = rebuild
            .config
            .control
            .as_ref()
            .and_then(|c| c.gate.as_ref())
            .map(|gate_cfg| {
                let gates = (0..n)
                    .map(|_| AdmissionGate::new(gate_cfg.clone()).map(Arc::new))
                    .collect::<Result<Vec<_>>>()?;
                Ok::<_, Error>(Arc::new(gates))
            })
            .transpose()?;

        let aux_stop = Arc::new(AtomicBool::new(false));
        let mut aux_threads = Vec::new();
        if let Some(comp) = rebuild.config.compaction {
            let sweep_servers = Arc::clone(&servers);
            let stop = Arc::clone(&aux_stop);
            aux_threads.push(
                std::thread::Builder::new()
                    .name("compaction-sweeper".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(comp.interval);
                            for server in sweep_servers.all() {
                                server.compact(comp.keep_versions);
                            }
                        }
                    })
                    .expect("spawn compaction sweeper"),
            );
        }
        if let Some(interval) = rebuild
            .config
            .durable_log
            .as_ref()
            .and_then(|spec| spec.checkpoint_interval)
        {
            let ckpt_servers = Arc::clone(&servers);
            let stop = Arc::clone(&aux_stop);
            aux_threads.push(
                std::thread::Builder::new()
                    .name("checkpointer".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(interval);
                            for server in ckpt_servers.all() {
                                if server.is_shutdown() {
                                    continue;
                                }
                                checkpoint_server_to_wal(&server);
                            }
                        }
                    })
                    .expect("spawn checkpointer"),
            );
        }

        let availability = Arc::new(AvailabilityStats::new());
        let replicas = match rebuild.config.partial_replication.clone() {
            Some(spec) => {
                // Standby partitions carry the same handlers and dependency
                // rules as the primaries they mirror.
                let factory_handlers = Arc::clone(&rebuild.handlers);
                let factory_rules = rebuild.dependency_rules.clone();
                let factory = Box::new(move |i: u16| {
                    let partition = Arc::new(Partition::new(
                        PartitionId(i),
                        n,
                        Arc::clone(&factory_handlers),
                    ));
                    for rule in &factory_rules {
                        let rule = Arc::clone(rule);
                        partition.add_dependency_rule(move |k| rule(k));
                    }
                    partition
                });
                let rs = Arc::new(ReplicaSet::new(
                    Arc::clone(&net),
                    spec.clone(),
                    factory,
                    epoch_duration,
                ));
                // Initial attachments: pinned partitions, plus everything
                // when the budget covers the whole cluster (replicate-all).
                let mut initial: Vec<u16> = spec.pinned.clone();
                if spec.budget >= n as usize {
                    initial = (0..n).collect();
                }
                initial.sort_unstable();
                initial.dedup();
                for i in initial {
                    if (i as usize) < servers.len() {
                        rs.attach(&servers.get(i as usize))?;
                    }
                }
                // The hotness controller: every rebalance interval, rank the
                // live partitions by PushCache hit rate and install backlog
                // and move free-budget standbys toward the hottest ones.
                // Pinned partitions sit outside the ranking entirely.
                let ctl_rs = Arc::clone(&rs);
                let ctl_servers = Arc::clone(&servers);
                let stop = Arc::clone(&aux_stop);
                let pinned: std::collections::BTreeSet<u16> = spec.pinned.iter().copied().collect();
                aux_threads.push(
                    std::thread::Builder::new()
                        .name("replica-controller".into())
                        .spawn(move || {
                            while !stop.load(Ordering::SeqCst) {
                                std::thread::sleep(spec.rebalance_interval);
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                // A promotion consumes its standby; pinned
                                // partitions get a fresh one attached on the
                                // next tick (the promoted incumbent ships
                                // like any other primary).
                                for id in &pinned {
                                    let server = ctl_servers.get(*id as usize);
                                    if !server.is_shutdown() && !ctl_rs.attached_ids().contains(id)
                                    {
                                        let _ = ctl_rs.attach(&server);
                                    }
                                }
                                let policy = ctl_rs.policy();
                                let mut signals = Vec::new();
                                for server in ctl_servers.all() {
                                    if server.is_shutdown() || pinned.contains(&server.id().0) {
                                        continue;
                                    }
                                    let cache = server.partition().push_cache();
                                    signals.push(PartitionSignal {
                                        id: server.id().0,
                                        cache_hits: cache.hits(),
                                        cache_misses: cache.misses(),
                                        backlog: server.backlog_len(),
                                    });
                                }
                                let incumbents: std::collections::BTreeSet<u16> =
                                    ctl_rs.attached_ids().difference(&pinned).copied().collect();
                                let desired = policy.desired(&incumbents, &signals);
                                for id in incumbents.difference(&desired) {
                                    let server = ctl_servers.get(*id as usize);
                                    if !server.is_shutdown() {
                                        ctl_rs.detach(&server);
                                    }
                                }
                                for id in desired.difference(&incumbents) {
                                    let server = ctl_servers.get(*id as usize);
                                    if !server.is_shutdown() {
                                        let _ = ctl_rs.attach(&server);
                                    }
                                }
                            }
                        })
                        .expect("spawn replica controller"),
                );
                Some(rs)
            }
            None => None,
        };

        Ok(Cluster {
            servers,
            em: Some(em),
            net,
            server_threads: Mutex::new(server_threads),
            aux_threads,
            total: n,
            aux_stop,
            history,
            gates,
            pacer_gauges,
            replicas,
            availability,
            rebuild,
        })
    }
}

/// EM transport over the cluster's message transport (also used by the
/// multi-process [`crate::node::Node`] when it co-hosts the epoch manager).
pub(crate) struct NetEpochTransport {
    pub(crate) net: Arc<dyn Transport<ServerMsg>>,
    pub(crate) endpoint: Endpoint<ServerMsg>,
}

impl EpochTransport for NetEpochTransport {
    fn send_grant(&self, to: ServerId, grant: Grant) {
        let _ = self.net.send(Addr::Server(to), ServerMsg::Grant(grant));
    }

    fn send_revoke(&self, to: ServerId, epoch: EpochId) {
        let _ = self.net.send(Addr::Server(to), ServerMsg::Revoke(epoch));
    }

    fn recv_ack(&self, timeout: Duration) -> Option<RevokedAck> {
        loop {
            match self.endpoint.recv_timeout(timeout) {
                Ok(ServerMsg::RevokedAck(ack)) => return Some(ack),
                Ok(_) => continue, // stray message; EM only consumes acks
                Err(_) => return None,
            }
        }
    }
}

/// The live server set: one swappable slot per [`ServerId`], shared by the
/// [`Cluster`], every [`Database`] handle, the pacer's pressure sampler and
/// the background sweepers. A restart replaces one slot in place, so no
/// component can keep serving through a stale clone of the old server list.
pub(crate) struct ServerSlots {
    slots: Vec<RwLock<Arc<Server>>>,
}

impl ServerSlots {
    fn new(servers: Vec<Arc<Server>>) -> ServerSlots {
        ServerSlots {
            slots: servers.into_iter().map(RwLock::new).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The current occupant of slot `i`.
    pub(crate) fn get(&self, i: usize) -> Arc<Server> {
        Arc::clone(&self.slots[i].read())
    }

    fn set(&self, i: usize, server: Arc<Server>) {
        *self.slots[i].write() = server;
    }

    /// A point-in-time snapshot of every slot.
    pub(crate) fn all(&self) -> Vec<Arc<Server>> {
        self.slots.iter().map(|s| Arc::clone(&s.read())).collect()
    }
}

/// Everything needed to rebuild one server after a kill: the builder inputs
/// that outlive any single [`Server`] instance.
struct RebuildCtx {
    config: ClusterConfig,
    base: ClockBase,
    handlers: Arc<HandlerRegistry>,
    programs: Arc<ProgramRegistry>,
    dependency_rules: Vec<DependencyRule>,
}

impl RebuildCtx {
    fn clock_for(&self, i: u16) -> Arc<dyn Clock> {
        let skew = self
            .config
            .clock_skew_micros
            .get(i as usize)
            .copied()
            .unwrap_or(0)
            + self.config.clock_offset_micros as i64;
        if skew != 0 {
            Arc::new(SkewedClock::new(SystemClock::new(self.base.clone()), skew))
        } else {
            Arc::new(SystemClock::new(self.base.clone()))
        }
    }

    fn partition_for(&self, i: u16) -> Arc<Partition> {
        let partition = Arc::new(Partition::new(
            PartitionId(i),
            self.config.servers,
            Arc::clone(&self.handlers),
        ));
        for rule in &self.dependency_rules {
            let rule = Arc::clone(rule);
            partition.add_dependency_rule(move |k| rule(k));
        }
        partition
    }

    /// Opens server `i`'s WAL sink per the configuration; the disk flavor
    /// also returns whatever a previous incarnation left behind.
    fn wal_for(&self, i: u16) -> Result<(Option<WalSink>, Option<RecoveredLog>)> {
        if let Some(spec) = &self.config.durable_log {
            let cfg = DurableLogConfig::new(spec.dir.join(format!("server-{i}")))
                .with_fsync(spec.fsync)
                .with_segment_bytes(spec.segment_bytes)
                .with_flush_appends(spec.flush_appends);
            let (log, recovered) = DurableLog::open(cfg)?;
            Ok((Some(WalSink::Disk(Arc::new(log))), Some(recovered)))
        } else if self.config.durable {
            Ok((Some(WalSink::Memory(Mutex::new(MemWal::default()))), None))
        } else {
            Ok((None, None))
        }
    }
}

/// What one server's recovery found and did (see
/// [`Cluster::restart_server`]).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Timestamp of the checkpoint the store was restored from
    /// ([`Timestamp::ZERO`] when recovery started from an empty store).
    pub checkpoint: Timestamp,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Whether the log ended in a torn tail — the expected artifact of a
    /// crash mid-append. The valid prefix was applied; nothing past the
    /// tear was acknowledged to any client, or the group commit preceding
    /// the ack would have completed the frame.
    pub torn_tail: bool,
    /// Microseconds spent restoring the checkpoint and replaying the
    /// suffix.
    pub replay_micros: u64,
}

impl RecoveryReport {
    fn empty() -> RecoveryReport {
        RecoveryReport {
            checkpoint: Timestamp::ZERO,
            replayed: 0,
            torn_tail: false,
            replay_micros: 0,
        }
    }
}

/// Applies a recovered durable log onto a fresh partition: restore the
/// newest checkpoint, then replay the WAL suffix through the storage codec
/// (records at or below the checkpoint are skipped as idempotent no-ops).
///
/// A torn tail is tolerated — the valid prefix is applied. Any other damage
/// (checksum failure, truncated interior segment) refuses recovery with a
/// descriptive error instead of serving from a silently incomplete store.
fn recover_partition(partition: &Partition, recovered: &RecoveredLog) -> Result<RecoveryReport> {
    if let Some(damage @ LogDamage::Corrupt { .. }) = &recovered.damage {
        return Err(Error::Io(format!("wal recovery refused: {damage}")));
    }
    let started = Instant::now();
    let mut checkpoint = Timestamp::ZERO;
    if let Some((_, blob)) = &recovered.checkpoint {
        checkpoint = aloha_storage::restore_checkpoint(partition, blob)?;
    }
    let replayed = aloha_storage::replay_records(partition, &recovered.records, checkpoint)?;
    Ok(RecoveryReport {
        checkpoint,
        replayed,
        torn_tail: recovered.damage.is_some(),
        replay_micros: started.elapsed().as_micros() as u64,
    })
}

/// Builds one server — fresh partition, recovered WAL state, fresh epoch
/// client and executor — registers it on the transport and spawns its
/// dispatcher and processors. Shared by cluster start and single-server
/// restart.
fn build_server(
    ctx: &RebuildCtx,
    id: ServerId,
    net: &Arc<dyn Transport<ServerMsg>>,
    history: &Option<Arc<History>>,
) -> Result<(
    Arc<Server>,
    Vec<std::thread::JoinHandle<()>>,
    RecoveryReport,
)> {
    let partition = ctx.partition_for(id.0);
    let (wal, recovered) = ctx.wal_for(id.0)?;
    let mut report = RecoveryReport::empty();
    if let Some(recovered) = &recovered {
        report = recover_partition(&partition, recovered)?;
        if let Some(WalSink::Disk(log)) = &wal {
            log.stats()
                .recovery_replay_micros
                .store(report.replay_micros, Ordering::Relaxed);
        }
    }
    let epoch = Arc::new(EpochClient::new(
        id,
        ctx.clock_for(id.0),
        ctx.config.allow_noauth,
    ));
    let exec = Executor::new(format!("exec-s{}", id.0), ctx.config.exec.clone());
    let (server, queue_rx) = Server::new(
        id,
        ctx.config.servers,
        partition,
        epoch,
        Arc::clone(net),
        exec,
        Arc::clone(&ctx.programs),
        wal,
        ctx.config.rpc_timeout,
        history.clone(),
    );
    let endpoint = net.register(Addr::Server(id));
    let threads = spawn_server_threads(
        &server,
        endpoint,
        queue_rx,
        ctx.config.processors_per_server,
    );
    Ok((server, threads, report))
}

/// Builds the promoted incumbent of a failed-over partition: like
/// [`build_server`], but *over the caught-up standby partition* instead of
/// replaying the durable log into a fresh one — that is the entire point of
/// the standby. A fresh WAL sink is still opened so the promoted server
/// keeps logging (and shipping, should a new standby attach later); the
/// recovered state a disk log reports is deliberately ignored, because the
/// standby already covers everything the victim ever logged.
fn build_promoted_server(
    ctx: &RebuildCtx,
    id: ServerId,
    net: &Arc<dyn Transport<ServerMsg>>,
    history: &Option<Arc<History>>,
    partition: Arc<Partition>,
) -> Result<(Arc<Server>, Vec<std::thread::JoinHandle<()>>)> {
    let (wal, _recovered) = ctx.wal_for(id.0)?;
    let epoch = Arc::new(EpochClient::new(
        id,
        ctx.clock_for(id.0),
        ctx.config.allow_noauth,
    ));
    let exec = Executor::new(format!("exec-s{}", id.0), ctx.config.exec.clone());
    let (server, queue_rx) = Server::new(
        id,
        ctx.config.servers,
        partition,
        epoch,
        Arc::clone(net),
        exec,
        Arc::clone(&ctx.programs),
        wal,
        ctx.config.rpc_timeout,
        history.clone(),
    );
    let endpoint = net.register(Addr::Server(id));
    let threads = spawn_server_threads(
        &server,
        endpoint,
        queue_rx,
        ctx.config.processors_per_server,
    );
    Ok((server, threads))
}

/// Spawns one server's dispatcher and processor threads.
pub(crate) fn spawn_server_threads(
    server: &Arc<Server>,
    endpoint: Endpoint<ServerMsg>,
    queue_rx: Receiver<QueueEntry>,
    processors: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    let i = server.id().0;
    let mut threads = Vec::with_capacity(processors + 1);
    let dispatcher_server = Arc::clone(server);
    threads.push(
        std::thread::Builder::new()
            .name(format!("dispatch-s{i}"))
            .spawn(move || run_dispatcher(dispatcher_server, endpoint))
            .expect("spawn dispatcher"),
    );
    for p in 0..processors {
        let processor_server = Arc::clone(server);
        let rx = queue_rx.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("proc-s{i}-{p}"))
                .spawn(move || run_processor(processor_server, rx))
                .expect("spawn processor"),
        );
    }
    threads
}

/// Checkpoints one durable server's partition at its settled bound into its
/// log directory (truncating dead segments); a no-op for servers without a
/// disk log or with nothing new to snapshot.
fn checkpoint_server_to_wal(server: &Arc<Server>) {
    let Some(log) = server.durable_log().cloned() else {
        return;
    };
    let at = server.epoch().visible_bound();
    if at.raw() <= log.stats().last_checkpoint_version.load(Ordering::Relaxed) {
        return;
    }
    if let Ok(blob) = server.write_checkpoint(at) {
        let _ = log.install_checkpoint(at.raw(), &blob);
    }
}

/// A running ALOHA-DB cluster.
///
/// Dropping the cluster shuts it down; prefer calling [`Cluster::shutdown`]
/// explicitly.
pub struct Cluster {
    servers: Arc<ServerSlots>,
    em: Option<EpochManager>,
    net: Arc<dyn Transport<ServerMsg>>,
    /// Per-server thread groups (dispatcher + processors), index-aligned
    /// with the slots, so a kill joins exactly its victim's threads.
    server_threads: Mutex<Vec<Vec<std::thread::JoinHandle<()>>>>,
    /// Cluster-scoped background threads (compaction sweeper, checkpointer,
    /// replica controller).
    aux_threads: Vec<std::thread::JoinHandle<()>>,
    total: u16,
    aux_stop: Arc<AtomicBool>,
    history: Option<Arc<History>>,
    /// Per-FE admission gates (index-aligned with `servers`); `None` when
    /// the control plane is off or gating is disabled.
    gates: Option<Arc<Vec<Arc<AdmissionGate>>>>,
    /// Live pacer state exported on the `control` snapshot node (`Some`
    /// exactly when a control plane is configured).
    pacer_gauges: Option<Arc<PacerGauges>>,
    /// The standby set and its controller state (`Some` exactly when
    /// [`ClusterConfig::with_partial_replication`] is configured).
    replicas: Option<Arc<ReplicaSet>>,
    /// Downtime/failover/restart accounting across kills (always present;
    /// exported as the `availability` stats subtree).
    availability: Arc<AvailabilityStats>,
    /// Builder inputs retained for single-server restarts.
    rebuild: RebuildCtx,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.total)
            .finish()
    }
}

impl Cluster {
    /// Starts building a cluster with the given configuration.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder {
        ClusterBuilder {
            config,
            handlers: HandlerRegistry::new(),
            programs: ProgramRegistry::new(),
            dependency_rules: Vec::new(),
        }
    }

    /// The current servers, indexed by [`ServerId`] (a point-in-time
    /// snapshot; a concurrent restart may swap a slot afterwards).
    pub fn servers(&self) -> Vec<Arc<Server>> {
        self.servers.all()
    }

    /// The current occupant of one server slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn server(&self, id: ServerId) -> Arc<Server> {
        self.servers.get(id.index())
    }

    /// Number of servers/partitions.
    pub fn size(&self) -> u16 {
        self.total
    }

    /// The cluster-wide commit history (present when the configuration
    /// enabled [`ClusterConfig::with_history`]).
    pub fn history(&self) -> Option<&Arc<History>> {
        self.history.as_ref()
    }

    /// The active fault plan, if the transport injects faults (only the
    /// simulated bus does).
    pub fn fault_plan(&self) -> Option<&aloha_net::FaultPlan> {
        self.net.fault_plan()
    }

    /// A cheap client handle.
    pub fn database(&self) -> Database {
        Database {
            servers: Arc::clone(&self.servers),
            next_fe: Arc::new(AtomicUsize::new(0)),
            session: Arc::new(AtomicU64::new(0)),
            session_writes: Arc::new(AtomicU64::new(0)),
            read_mode: self.rebuild.config.read_mode,
            gates: self.gates.clone(),
        }
    }

    /// Loads an initial row directly into the owning partition (version 1,
    /// below every transaction timestamp). Used by workload loaders before
    /// opening the database for transactions.
    pub fn load(&self, key: Key, value: Value) {
        let owner = key.partition(self.total);
        self.servers
            .get(owner.index())
            .partition()
            .load(&key, value);
    }

    /// One composable snapshot of the whole cluster: summed transaction
    /// counters and cluster-wide per-stage percentiles at the root (raw
    /// histogram buckets are merged across servers before quantiles are
    /// taken), with per-server, epoch-manager and network subtrees as
    /// children.
    ///
    /// The root carries every lifecycle stage plus an `e2e` entry for
    /// end-to-end latency. Export with [`StatsSnapshot::to_json`] or the
    /// [`std::fmt::Display`] rendering.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut root = StatsSnapshot::new("cluster");
        let mut committed = 0;
        let mut aborted = 0;
        let mut installs = 0;
        let mut compute_errors = 0;
        let mut merged: [HistogramSnapshot; STAGE_COUNT + 1] = Default::default();
        for server in self.servers.all() {
            let stats = server.stats();
            committed += stats.committed();
            aborted += stats.aborted();
            installs += stats.installs();
            compute_errors += stats.compute_errors();
            for (acc, raw) in merged.iter_mut().zip(stats.raw_histograms()) {
                acc.merge(&raw);
            }
            root.push_child(server.snapshot());
        }
        root.set_counter("committed", committed);
        root.set_counter("aborted", aborted);
        root.set_counter("installs", installs);
        root.set_counter("compute_errors", compute_errors);
        root.set_gauge(
            "process_rss_bytes",
            aloha_common::stats::process_rss_bytes(),
        );
        for (stage, snap) in Stage::ALL.iter().zip(&merged[..STAGE_COUNT]) {
            root.set_stage(stage.name(), StageStats::from(snap));
        }
        root.set_stage("e2e", StageStats::from(&merged[STAGE_COUNT]));
        if let Some(em) = &self.em {
            root.push_child(em.stats().snapshot());
        }
        root.push_child(self.net.snapshot());
        if let Some(control) = self.control_snapshot() {
            root.push_child(control);
        }
        root.push_child(self.hotness_snapshot());
        root.push_child(self.availability.snapshot());
        if let Some(rs) = &self.replicas {
            let mut replication = rs.snapshot();
            for id in rs.attached_ids() {
                let server = self.servers.get(id as usize);
                replication.push_child(server.ship_feed().snapshot(format!("feed_s{id}")));
            }
            root.push_child(replication);
        }
        root
    }

    /// The `hotness` node of the stats tree: per-partition PushCache hit
    /// rate, install backlog and pressure rank — the signals the partial-
    /// replication controller ranks with, exported even when no controller
    /// runs.
    fn hotness_snapshot(&self) -> StatsSnapshot {
        let mut node = StatsSnapshot::new("hotness");
        let mut signals = Vec::new();
        for server in self.servers.all() {
            if server.is_shutdown() {
                continue;
            }
            let cache = server.partition().push_cache();
            signals.push(PartitionSignal {
                id: server.id().0,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                backlog: server.backlog_len(),
            });
        }
        let replicated = self
            .replicas
            .as_ref()
            .map(|rs| rs.attached_ids())
            .unwrap_or_default();
        for score in HotnessPolicy::new(0).rank(&signals) {
            let mut p = StatsSnapshot::new(format!("p{}", score.id));
            p.set_gauge("hit_rate_pct", score.hit_rate_pct);
            p.set_gauge("backlog", score.backlog);
            p.set_gauge("score", score.score);
            p.set_gauge("rank", score.rank as u64);
            p.set_gauge("replicated", u64::from(replicated.contains(&score.id)));
            node.push_child(p);
        }
        node
    }

    /// The `control` node of the stats tree: pacer gauges at the top plus
    /// summed gate activity, with one child per front-end gate. `None` when
    /// no control plane is configured.
    fn control_snapshot(&self) -> Option<StatsSnapshot> {
        if self.pacer_gauges.is_none() && self.gates.is_none() {
            return None;
        }
        let mut node = StatsSnapshot::new("control");
        if let Some(g) = &self.pacer_gauges {
            node.set_gauge("epoch_duration_micros", g.epoch_duration_micros.get());
            node.set_gauge("pressure_millis", g.pressure_millis.get());
        }
        if let Some(gates) = &self.gates {
            let (mut admitted, mut shed, mut queued, mut in_use) = (0, 0, 0, 0);
            for (i, gate) in gates.iter().enumerate() {
                let stats = gate.stats();
                admitted += stats.admitted.get();
                shed += stats.shed.get();
                queued += stats.queued.get();
                in_use += stats.tokens_in_use.get();
                node.push_child(gate.snapshot(format!("gate_s{i}")));
            }
            node.set_counter("admitted", admitted);
            node.set_counter("shed", shed);
            node.set_counter("queued", queued);
            node.set_gauge("tokens_in_use", in_use);
        }
        Some(node)
    }

    /// The per-FE admission gates, when the control plane enables gating.
    pub fn gates(&self) -> Option<&[Arc<AdmissionGate>]> {
        self.gates.as_deref().map(Vec::as_slice)
    }

    /// Attaches a log-shipping standby to one partition online (normally the
    /// hotness controller's job; exposed for tests and operators). Returns
    /// `false` when one was already attached.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] without partial replication configured, or
    /// when the server is down; propagates checkpoint failures.
    pub fn attach_standby(&self, id: ServerId) -> Result<bool> {
        let i = id.index();
        if i >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(id.0)));
        }
        let rs = self
            .replicas
            .as_ref()
            .ok_or_else(|| Error::Config("partial replication is not configured".into()))?;
        rs.attach(&self.servers.get(i))
    }

    /// Detaches one partition's standby, discarding its state. Returns
    /// `false` when none was attached (or partial replication is off).
    pub fn detach_standby(&self, id: ServerId) -> bool {
        let i = id.index();
        if i >= self.servers.len() {
            return false;
        }
        self.replicas
            .as_ref()
            .is_some_and(|rs| rs.detach(&self.servers.get(i)))
    }

    /// Partitions that currently hold a standby.
    pub fn replicated_partitions(&self) -> Vec<ServerId> {
        self.replicas
            .as_ref()
            .map(|rs| rs.attached_ids().into_iter().map(ServerId).collect())
            .unwrap_or_default()
    }

    /// One partition's replicated watermark: the standby covers every record
    /// its primary logged at or below this timestamp. `None` without an
    /// attached standby.
    pub fn standby_watermark(&self, id: ServerId) -> Option<Timestamp> {
        self.replicas.as_ref()?.watermark(id.0)
    }

    /// The downtime/failover/restart accounting across
    /// [`Cluster::kill_server`] / [`Cluster::restart_server`] cycles (also
    /// exported as the `availability` subtree of [`Cluster::snapshot`]).
    pub fn availability(&self) -> &AvailabilityStats {
        &self.availability
    }

    /// Resets every server's statistics (benchmark warm-up boundary).
    pub fn reset_stats(&self) {
        for server in self.servers.all() {
            server.stats().reset();
            server.exec().stats().reset();
        }
        if let Some(gates) = &self.gates {
            for gate in gates.iter() {
                gate.reset_stats();
            }
        }
    }

    /// Takes a consistent checkpoint of every partition at the cluster-wide
    /// settled bound (the minimum visibility bound across servers), returning
    /// one blob per partition plus the snapshot timestamp. Implements the
    /// checkpointing half of the §III-A fault-tolerance strategy.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from on-demand computing.
    pub fn checkpoint(&self) -> Result<(Timestamp, Vec<Vec<u8>>)> {
        let servers = self.servers.all();
        let at = servers
            .iter()
            .map(|s| s.epoch().visible_bound())
            .min()
            .unwrap_or(Timestamp::ZERO);
        let blobs = servers
            .iter()
            .map(|s| s.write_checkpoint(at))
            .collect::<Result<Vec<_>>>()?;
        Ok((at, blobs))
    }

    /// Checkpoints every durable server's partition into its own log
    /// directory at the cluster-wide settled bound, truncating WAL segments
    /// the checkpoints made dead. Returns the checkpoint timestamp.
    ///
    /// The background checkpointer (see
    /// [`DurableLogSpec::with_checkpoint_interval`]) does the same
    /// per-server on a timer; this entry point gives tests and operators a
    /// deterministic cut.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when no durable log is configured;
    /// propagates snapshot and filesystem failures.
    pub fn checkpoint_to_wal(&self) -> Result<Timestamp> {
        if self.rebuild.config.durable_log.is_none() {
            return Err(Error::Config("no durable log configured".into()));
        }
        let servers = self.servers.all();
        let at = servers
            .iter()
            .filter(|s| !s.is_shutdown())
            .map(|s| s.epoch().visible_bound())
            .min()
            .unwrap_or(Timestamp::ZERO);
        for server in &servers {
            if server.is_shutdown() {
                continue;
            }
            if let Some(log) = server.durable_log().cloned() {
                let blob = server.write_checkpoint(at)?;
                log.install_checkpoint(at.raw(), &blob)?;
            }
        }
        Ok(at)
    }

    /// Kills one backend in place: marks it shut down, stops its dispatcher
    /// and processors, drains its executor and closes its durable log. The
    /// rest of the cluster keeps serving — in-flight cross-partition RPCs
    /// toward the victim fail over to retransmission.
    ///
    /// With partial replication configured and a standby attached to the
    /// victim's partition, the kill flows straight into **failover**: the
    /// standby is caught up (flush barrier + the victim's undrained feed
    /// buffer), a promoted server is built over its partition and swapped
    /// into the slot, and the fresh epoch client answers the epoch
    /// manager's retransmitted revoke — the partition re-joins at the next
    /// epoch boundary without any WAL replay. Partitions without a standby
    /// stay down until [`Cluster::restart_server`] replays the durable log.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the server is already down,
    /// [`Error::NoSuchPartition`] for an out-of-range id; promotion
    /// propagates WAL-reopen failures.
    pub fn kill_server(&self, id: ServerId) -> Result<()> {
        let i = id.index();
        if i >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(id.0)));
        }
        let server = self.servers.get(i);
        if server.is_shutdown() {
            return Err(Error::Config(format!("server {} is already down", id.0)));
        }
        self.availability.note_down(id.0);
        server.mark_shutdown();
        // The shutdown message must go out while the endpoint is still
        // registered; deregistering first would error the reliable send and
        // leave the dispatcher blocked on its queue forever.
        let _ = self
            .net
            .send_reliable(Addr::Server(id), ServerMsg::Shutdown);
        self.net.deregister(Addr::Server(id));
        let handles: Vec<_> = self.server_threads.lock()[i].drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        // Dispatcher and processors are gone; drain the executor's accepted
        // work (cross-partition recursion can still be answered by the other
        // servers, which are alive) and seal the log. `close` flushes and
        // syncs, so everything this server acknowledged is on disk.
        server.exec().shutdown();
        if let Some(log) = server.durable_log() {
            log.close();
        }
        // Failover: with every victim thread joined nothing pushes into the
        // ship feed anymore, so the standby can be caught up exactly.
        if let Some(standby) = self
            .replicas
            .as_ref()
            .and_then(|rs| rs.promote_take(&server))
        {
            let watermark = standby.watermark();
            let (promoted, threads) = build_promoted_server(
                &self.rebuild,
                id,
                &self.net,
                &self.history,
                Arc::clone(standby.partition()),
            )?;
            // Shipped records re-enter the store uncomputed; `Server::new`
            // re-buffered them for the processors, and covering them with
            // the compute frontier is sound for the same reason it is after
            // `replay_wals`: a snapshot read landing on a pending record
            // falls back to the computing read path.
            promoted.epoch().absorb_frontier(watermark);
            self.server_threads.lock()[i] = threads;
            self.servers.set(i, promoted);
            self.availability.note_failover(id.0);
        }
        Ok(())
    }

    /// Restarts a killed backend from its durable log: rebuilds the
    /// partition from the newest checkpoint plus the WAL suffix, re-registers
    /// the server on the bus and swaps it into the live slot — all while the
    /// rest of the cluster keeps serving. The epoch manager's retransmitted
    /// revokes are acknowledged by the fresh epoch client, and retried
    /// installs/aborts from in-flight coordinators land on the recovered
    /// partition idempotently.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the server is still running or the
    /// cluster has no durable log to recover it from (without one the
    /// restart would bring back an empty partition),
    /// [`Error::Io`] when the log is damaged beyond a torn tail.
    pub fn restart_server(&self, id: ServerId) -> Result<RecoveryReport> {
        let i = id.index();
        if i >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(id.0)));
        }
        if !self.servers.get(i).is_shutdown() {
            return Err(Error::Config(format!(
                "server {} is still running; kill it first",
                id.0
            )));
        }
        if self.rebuild.config.durable_log.is_none() {
            return Err(Error::Config(
                "restart requires a durable log (ClusterConfig::with_durable_log)".into(),
            ));
        }
        let (server, threads, report) = build_server(&self.rebuild, id, &self.net, &self.history)?;
        self.server_threads.lock()[i] = threads;
        self.servers.set(i, server);
        self.availability.note_restart(id.0);
        Ok(report)
    }

    /// Snapshot of every server's write-ahead log (empty logs when
    /// durability is off). The in-memory WAL clones sealed chunk handles
    /// under its lock and assembles outside it, so a hot log is never
    /// stalled behind a full copy.
    pub fn wal_snapshots(&self) -> Vec<Vec<u8>> {
        self.servers
            .all()
            .iter()
            .map(|s| s.wal_snapshot())
            .collect()
    }

    /// Replays per-partition write-ahead logs on top of a restored
    /// checkpoint taken at `checkpoint` (full recovery = `restore` +
    /// `replay_wals`). Returns total records applied.
    ///
    /// # Errors
    ///
    /// Fails on corrupt logs or a log-count mismatch.
    pub fn replay_wals(&self, logs: &[Vec<u8>], checkpoint: Timestamp) -> Result<usize> {
        let servers = self.servers.all();
        if logs.len() != servers.len() {
            return Err(Error::Config(format!(
                "wal set has {} partitions, cluster has {}",
                logs.len(),
                servers.len()
            )));
        }
        let mut applied = 0;
        let mut replayed_to = Timestamp::ZERO;
        for (server, log) in servers.iter().zip(logs) {
            let (count, high) = server.replay_wal(log, checkpoint)?;
            applied += count;
            replayed_to = replayed_to.max(high);
        }
        // Replayed records were durably logged by settled epochs, but they
        // re-enter the store *uncomputed* — the processors re-execute them in
        // the background. Covering them with the compute frontier anyway is
        // sound: a snapshot read that lands on such a record sees a `Pending`
        // chain section and falls back to the computing read path, so reads
        // issued right after recovery observe the full replayed suffix
        // instead of only the restored checkpoint.
        if replayed_to > Timestamp::ZERO {
            for server in &servers {
                server.epoch().absorb_frontier(replayed_to);
            }
        }
        Ok(applied)
    }

    /// Restores per-partition checkpoint blobs (as produced by
    /// [`Cluster::checkpoint`]) into this cluster; intended for a freshly
    /// started cluster before it serves traffic.
    ///
    /// # Errors
    ///
    /// Fails on malformed blobs or a blob-count mismatch.
    pub fn restore(&self, blobs: &[Vec<u8>]) -> Result<()> {
        let servers = self.servers.all();
        if blobs.len() != servers.len() {
            return Err(Error::Config(format!(
                "checkpoint has {} partitions, cluster has {}",
                blobs.len(),
                servers.len()
            )));
        }
        let mut restored_at = Timestamp::ZERO;
        for (server, blob) in servers.iter().zip(blobs) {
            restored_at = restored_at.max(server.restore_checkpoint(blob)?);
        }
        // The restored state is materialized values at or below the
        // checkpoint cut — settled and computed by construction — so the
        // snapshot-read fast path must cover it before this cluster's first
        // grant is absorbed.
        for server in &servers {
            server.epoch().absorb_frontier(restored_at);
        }
        Ok(())
    }

    /// Stops the epoch manager, the servers and all their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.aux_stop.store(true, Ordering::SeqCst);
        if let Some(em) = self.em.take() {
            em.close();
        }
        let servers = self.servers.all();
        for server in &servers {
            server.mark_shutdown();
            let _ = self
                .net
                .send_reliable(Addr::Server(server.id()), ServerMsg::Shutdown);
        }
        let groups: Vec<_> = self.server_threads.lock().drain(..).collect();
        for t in groups.into_iter().flatten() {
            let _ = t.join();
        }
        for t in self.aux_threads.drain(..) {
            let _ = t.join();
        }
        // The controller is gone; stop the standby runners it managed.
        if let Some(rs) = &self.replicas {
            rs.shutdown_all();
        }
        // With every dispatcher gone nothing submits anymore; drain the
        // executors' accepted work and join their pooled workers. Done
        // after the dispatcher joins so in-flight drains on one server can
        // still be answered by any other server's still-live workers.
        // Closing the logs last makes the final group commit durable.
        for server in &servers {
            server.exec().shutdown();
            if let Some(log) = server.durable_log() {
                log.close();
            }
        }
        // The cluster owns the transport's lifecycle: release sockets /
        // channel registrations last, once nothing can send anymore.
        self.net.shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Client handle: submits transactions and reads, choosing front-ends
/// round-robin (override with the `_at` variants to pin a coordinator).
#[derive(Clone)]
pub struct Database {
    servers: Arc<ServerSlots>,
    next_fe: Arc<AtomicUsize>,
    /// Highest settled bound this handle has observed (raw timestamp).
    /// Front-ends learn the settled bound at different times (it rides on
    /// epoch grants), so round-robin dispatch alone would let a transaction
    /// transform against a snapshot older than a read this same handle
    /// already returned. Waiting for the picked FE to catch up restores
    /// monotone reads per handle.
    session: Arc<AtomicU64>,
    /// Highest timestamp this handle's own transactions committed at (raw).
    /// Kept separate from `session` on purpose: snapshot reads must floor at
    /// the handle's own writes (read-your-writes), but feeding write
    /// timestamps into `session` would make `sync_session` stall every
    /// subsequent *write* for a full epoch.
    session_writes: Arc<AtomicU64>,
    /// How latest-version reads are served (from [`ClusterConfig`]).
    read_mode: ReadMode,
    /// Per-FE admission gates, index-aligned with `servers` (`None` when the
    /// cluster runs ungated). Admission happens here, at the client edge,
    /// *before* the transform: a shed transaction never installs a functor.
    gates: Option<Arc<Vec<Arc<AdmissionGate>>>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("servers", &self.servers.len())
            .finish()
    }
}

impl Database {
    /// Picks the next round-robin front-end, skipping servers that are
    /// currently down (a killed backend between its kill and restart). If
    /// every front-end is down the plain rotation applies and the caller
    /// gets the shutdown error.
    fn pick_fe(&self) -> usize {
        let n = self.servers.len();
        for _ in 0..n {
            let i = self.next_fe.fetch_add(1, Ordering::Relaxed) % n;
            if !self.servers.get(i).is_shutdown() {
                return i;
            }
        }
        self.next_fe.fetch_add(1, Ordering::Relaxed) % n
    }

    /// Acquires the FE's admission token (a no-op returning `None` on an
    /// ungated cluster).
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when front-end `fe` sheds the transaction.
    fn admit(&self, fe: usize, kind: AccessKind) -> Result<Option<Permit>> {
        match &self.gates {
            Some(gates) => gates[fe].admit(kind).map(Some),
            None => Ok(None),
        }
    }

    /// Records that this handle observed `bound` settled.
    fn note_session(&self, bound: Timestamp) {
        self.session.fetch_max(bound.raw(), Ordering::Relaxed);
    }

    /// Folds an externally-observed timestamp into this handle's read floor:
    /// subsequent [`ReadMode::Snapshot`] reads will not serve below it. The
    /// causality token for clients spanning several `Database` handles —
    /// clones of one handle already share their session and need no token.
    pub fn note_observed(&self, ts: Timestamp) {
        self.session_writes.fetch_max(ts.raw(), Ordering::Relaxed);
    }

    /// Blocks (bounded) until `fe` has settled everything this handle has
    /// already observed, so per-handle reads and transforms are monotone.
    fn sync_session(&self, fe: &Arc<Server>) {
        let bound = Timestamp::from_raw(self.session.load(Ordering::Relaxed));
        if bound > fe.epoch().visible_bound() {
            let deadline = Instant::now() + Duration::from_secs(5);
            fe.epoch().wait_visible(bound, Some(deadline));
        }
    }

    /// Executes a one-shot transaction via a round-robin front-end; returns
    /// after the write-only phase. Args accept anything byte-like: arrays
    /// (`7i64.to_be_bytes()`), slices, `Vec<u8>`, or `&str`.
    ///
    /// # Errors
    ///
    /// Fails on shutdown, unknown programs, transform rejections and
    /// transport errors.
    pub fn execute(&self, program: ProgramId, args: impl Into<Vec<u8>>) -> Result<TxnHandle> {
        let i = self.pick_fe();
        // Admission precedes everything — a shed transaction costs the FE no
        // timestamp, no transform, no installed functor.
        let permit = self.admit(i, AccessKind::Write)?;
        let fe = self.servers.get(i);
        self.sync_session(&fe);
        let handle = fe.coordinate(program, &args.into())?;
        // Snapshot reads floor at this handle's own writes (read-your-writes).
        self.session_writes
            .fetch_max(handle.timestamp().raw(), Ordering::Relaxed);
        if let Some(permit) = permit {
            handle.attach_permit(permit);
        }
        Ok(handle)
    }

    /// Executes and blocks until the functor computing phase resolves:
    /// [`Database::execute`] followed by [`TxnHandle::wait_processed`].
    ///
    /// # Errors
    ///
    /// As [`Database::execute`], plus wait-side shutdown/transport errors.
    pub fn execute_wait(&self, program: ProgramId, args: impl Into<Vec<u8>>) -> Result<TxnOutcome> {
        self.execute(program, args)?.wait_processed()
    }

    /// Executes with a pinned coordinator (e.g. a server that owns part of
    /// the write set, which makes outcome resolution local).
    ///
    /// # Errors
    ///
    /// As [`Database::execute`]; additionally [`Error::NoSuchPartition`] for
    /// an out-of-range server.
    pub fn execute_at(
        &self,
        fe: ServerId,
        program: ProgramId,
        args: impl Into<Vec<u8>>,
    ) -> Result<TxnHandle> {
        if fe.index() >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(fe.0)));
        }
        let server = self.servers.get(fe.index());
        let permit = self.admit(fe.index(), AccessKind::Write)?;
        let handle = server.coordinate(program, &args.into())?;
        self.session_writes
            .fetch_max(handle.timestamp().raw(), Ordering::Relaxed);
        if let Some(permit) = permit {
            handle.attach_permit(permit);
        }
        Ok(handle)
    }

    /// Latest-version read-only transaction. Under [`ReadMode::Snapshot`]
    /// (the default) it is served from the snapshot-read fast path: an
    /// externally-consistent snapshot at the cluster compute frontier,
    /// without waiting out the epoch. Under [`ReadMode::DelayToEpoch`] it is
    /// the §III-B baseline: a timestamp in the current epoch, then a wait
    /// for the epoch to complete.
    ///
    /// Either way reads are monotone per handle and observe this handle's
    /// own committed writes.
    ///
    /// # Errors
    ///
    /// Fails on shutdown or transport errors.
    pub fn read_latest(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let i = self.pick_fe();
        // Reads admit under `AccessKind::Read`, which may use the reserved
        // share of the window writes cannot touch; the token is held across
        // the synchronous read.
        let _permit = self.admit(i, AccessKind::Read)?;
        let fe = self.servers.get(i);
        match self.read_mode {
            ReadMode::Snapshot => {
                // The floor is everything this handle has already observed:
                // settled bounds noted by prior reads plus its own commits.
                let floor = Timestamp::from_raw(
                    self.session
                        .load(Ordering::Relaxed)
                        .max(self.session_writes.load(Ordering::Relaxed)),
                );
                let (served, reads) = fe.snapshot_read_latest(keys, floor)?;
                self.note_session(served);
                Ok(reads.into_iter().map(|read| read.value).collect())
            }
            ReadMode::DelayToEpoch => {
                let values = fe.read_latest(keys)?;
                self.note_session(fe.epoch().visible_bound());
                Ok(values)
            }
        }
    }

    /// Latest-version read of a single key: [`Database::read_latest`] without
    /// the slice ceremony.
    ///
    /// # Errors
    ///
    /// Fails on shutdown or transport errors.
    pub fn read_one(&self, key: &Key) -> Result<Option<Value>> {
        Ok(self.read_latest(std::slice::from_ref(key))?.pop().flatten())
    }

    /// Historical read at an already-settled timestamp.
    ///
    /// # Errors
    ///
    /// Fails if `ts` is not settled yet, on shutdown, or on transport errors.
    pub fn read_at(&self, keys: &[Key], ts: Timestamp) -> Result<Vec<Option<Value>>> {
        let i = self.pick_fe();
        let _permit = self.admit(i, AccessKind::Read)?;
        let fe = self.servers.get(i);
        let values = match self.read_mode {
            ReadMode::Snapshot => match fe.snapshot_read_at(keys, ts) {
                Ok(reads) => reads.into_iter().map(|read| read.value).collect(),
                // Compaction folded history `ts` needs; the computing path
                // still serves it best-effort from each chain's retained
                // window, matching the delay mode's contract.
                Err(Error::VersionOutsideEpoch { .. }) => fe.read_at(keys, ts)?,
                Err(e) => return Err(e),
            },
            ReadMode::DelayToEpoch => fe.read_at(keys, ts)?,
        };
        self.note_session(ts);
        Ok(values)
    }

    /// The current settled visibility bound, as seen by the front-end this
    /// handle would talk to next. Front-ends learn the bound at different
    /// times, so consulting a fixed server (the old behavior: always server
    /// 0) could report a bound ahead of — or, with server 0 down, far behind
    /// — anything this handle can actually read.
    pub fn visible_bound(&self) -> Timestamp {
        let n = self.servers.len();
        let start = self.next_fe.load(Ordering::Relaxed);
        for off in 0..n {
            let server = self.servers.get((start + off) % n);
            if !server.is_shutdown() {
                return server.epoch().visible_bound();
            }
        }
        self.servers.get(0).epoch().visible_bound()
    }

    /// The snapshot timestamp a [`ReadMode::Snapshot`] read would serve at
    /// right now (this handle's next front-end's absorbed cluster compute
    /// frontier; session floors may push an actual read higher).
    pub fn snapshot_bound(&self) -> Timestamp {
        let n = self.servers.len();
        let start = self.next_fe.load(Ordering::Relaxed);
        for off in 0..n {
            let server = self.servers.get((start + off) % n);
            if !server.is_shutdown() {
                return server.epoch().snapshot_timestamp();
            }
        }
        self.servers.get(0).epoch().snapshot_timestamp()
    }

    /// Number of servers.
    pub fn cluster_size(&self) -> usize {
        self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{fn_program, TxnPlan};
    use aloha_functor::Functor;

    const INCR: ProgramId = ProgramId(1);

    /// Regression: the compaction sweeper clamps its fold horizon at the
    /// oldest in-flight snapshot read, so a read pinned at an early bound
    /// keeps answering exactly — even at `keep_versions = 1` — and folding
    /// resumes past that bound once the read retires.
    #[test]
    fn compaction_never_folds_past_an_inflight_snapshot_read() {
        let mut builder = Cluster::builder(
            ClusterConfig::new(1)
                .with_epoch_duration(Duration::from_millis(3))
                .with_compaction(Duration::from_millis(2), 1),
        );
        builder.register_program(
            INCR,
            fn_program(|_| Ok(TxnPlan::new().write(Key::from("hot"), Functor::add(1)))),
        );
        let cluster = builder.start().unwrap();
        cluster.load(Key::from("hot"), Value::from_i64(0));
        let db = cluster.database();
        let early = db.execute(INCR, b"").unwrap();
        early.wait_processed().unwrap();
        let bound = early.timestamp();

        // Pin an in-flight snapshot read at the early bound, then bury it
        // under new versions across many sweep intervals.
        let server = cluster.server(ServerId(0));
        let guard = server.register_snapshot_read(bound);
        assert_eq!(server.min_inflight_read(), Some(bound));
        for _ in 0..30 {
            db.execute(INCR, b"").unwrap().wait_processed().unwrap();
        }
        db.read_latest(&[Key::from("hot")]).unwrap();
        std::thread::sleep(Duration::from_millis(30));

        // The sweeper must not have folded the pinned read's floor away.
        let read = server
            .snapshot_read_local(&Key::from("hot"), bound)
            .unwrap();
        assert_eq!(read.version, bound, "pinned floor must survive folding");
        assert_eq!(read.value.unwrap().as_i64(), Some(1));

        // Retire the read; folding resumes past the old bound.
        drop(guard);
        assert_eq!(server.min_inflight_read(), None);
        let chain = server.partition().store().chain(&Key::from("hot")).unwrap();
        for _ in 0..100 {
            if chain.compacted_floor() >= bound {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            chain.compacted_floor() >= bound,
            "sweeper should fold past the retired read's bound"
        );
        cluster.shutdown();
    }
}
