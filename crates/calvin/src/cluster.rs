//! Calvin cluster assembly and client handles.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aloha_common::metrics::{duration_micros, HistogramSnapshot, Stage, STAGE_COUNT};
use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::{Error, Key, PartitionId, ReadMode, Result, ServerId, Value};
use aloha_control::{
    AccessKind, AdaptivePacer, AdmissionGate, ControlConfig, FixedPacer, Pacer, PacerGauges,
    PacerSample, Permit,
};
use aloha_net::{Addr, Bus, ExecConfig, Executor, NetConfig, Transport};
use aloha_storage::{DurableLog, DurableLogConfig, Fsync};
use parking_lot::{Mutex, RwLock};

use crate::durability::{self, CalvinRecoveryReport, CalvinWal};
use crate::msg::CalvinMsg;
use crate::program::{fn_program, CalvinPlan, CalvinProgram, CalvinRegistry, ProgramId};
use crate::server::{
    run_dispatcher, run_scheduler, run_sequencer, run_worker, CalvinHistory, CalvinServer,
    CalvinSubmission,
};
use crate::store::CalvinStore;

/// Where and how a Calvin cluster persists its durable log — the baseline's
/// analogue of the ALOHA engine's `DurableLogSpec`. Each server logs into
/// `dir/server-<id>/`.
#[derive(Debug, Clone)]
pub struct CalvinDurability {
    /// Root directory; one subdirectory per server.
    pub dir: PathBuf,
    /// Group-commit sync policy (one commit per sequencing round — the
    /// batch is Calvin's epoch).
    pub fsync: Fsync,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Flush every append to the kernel before acknowledging it (see
    /// `aloha_storage::DurableLogConfig::flush_appends`).
    pub flush_appends: bool,
}

impl CalvinDurability {
    /// Durability under `dir` with round-granular fsync and 256 KiB
    /// segments.
    pub fn new(dir: impl Into<PathBuf>) -> CalvinDurability {
        CalvinDurability {
            dir: dir.into(),
            fsync: Fsync::EveryEpoch,
            segment_bytes: 256 * 1024,
            flush_appends: false,
        }
    }

    /// Overrides the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: Fsync) -> CalvinDurability {
        self.fsync = fsync;
        self
    }

    /// Overrides the segment rotation threshold.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> CalvinDurability {
        self.segment_bytes = bytes;
        self
    }

    /// Enables per-append kernel flushes (process-crash durability for
    /// acknowledged appends).
    #[must_use]
    pub fn with_flush_appends(mut self, flush: bool) -> CalvinDurability {
        self.flush_appends = flush;
        self
    }
}

/// Calvin cluster configuration.
#[derive(Debug, Clone)]
pub struct CalvinConfig {
    /// Number of servers (one partition each).
    pub servers: u16,
    /// Sequencer batching epoch (paper: 20 ms, §V-A2).
    pub batch_duration: Duration,
    /// Simulated network behavior.
    pub net: NetConfig,
    /// Execution worker threads per server.
    pub workers_per_server: usize,
    /// Record the merged deterministic order on every scheduler for the
    /// serializability checker (test builds only).
    pub record_history: bool,
    /// Pool sizes for each server's bounded executor (distributed
    /// transactions run on its blocking lane); aligned with the ALOHA
    /// engine's `ClusterConfig::exec` knob.
    pub exec: ExecConfig,
    /// Closed-loop control plane: adaptive sequencer-batch pacing and/or
    /// admission gating at the client edge, mirroring the ALOHA engine's
    /// `ClusterConfig::control` knob. `None` (the default) runs fixed
    /// batches at [`CalvinConfig::batch_duration`] ungated. When set, the
    /// pacer's `initial` duration overrides `batch_duration`.
    pub control: Option<ControlConfig>,
    /// Durable logging and single-server restart support. `None` (the
    /// default) keeps the baseline fully in-memory.
    pub durability: Option<CalvinDurability>,
    /// Which [`Transport`] carries cluster messages. The default simulated
    /// bus is built from [`CalvinConfig::net`]; a custom transport ignores
    /// `net` entirely.
    pub transport: CalvinTransportSpec,
    /// How [`CalvinDatabase::read_latest`] serves reads — the same knob the
    /// ALOHA engine exposes, so the read-path ablation toggles both engines
    /// symmetrically. See [`CalvinDatabase::read_latest`] for what each mode
    /// means on a single-version store.
    pub read_mode: ReadMode,
}

/// Which transport implementation a Calvin cluster runs on (see
/// [`CalvinConfig::with_transport`]) — the baseline's analogue of the ALOHA
/// engine's `TransportSpec`.
#[derive(Clone, Default)]
pub enum CalvinTransportSpec {
    /// The in-process simulated [`Bus`], built from [`CalvinConfig::net`].
    #[default]
    Simulated,
    /// A caller-supplied transport. The cluster takes ownership of its
    /// lifecycle: [`CalvinCluster::shutdown`] shuts the transport down.
    Custom(Arc<dyn Transport<CalvinMsg>>),
}

impl std::fmt::Debug for CalvinTransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalvinTransportSpec::Simulated => f.write_str("CalvinTransportSpec::Simulated"),
            CalvinTransportSpec::Custom(_) => f.write_str("CalvinTransportSpec::Custom(..)"),
        }
    }
}

impl CalvinConfig {
    /// Defaults: 20 ms batches, instant network, two workers per server.
    pub fn new(servers: u16) -> CalvinConfig {
        CalvinConfig {
            servers,
            batch_duration: Duration::from_millis(20),
            net: NetConfig::instant(),
            workers_per_server: 2,
            record_history: false,
            exec: ExecConfig::default(),
            control: None,
            durability: None,
            transport: CalvinTransportSpec::Simulated,
            read_mode: ReadMode::default(),
        }
    }

    /// Overrides how latest-version reads are served (see [`ReadMode`]).
    pub fn with_read_mode(mut self, mode: ReadMode) -> CalvinConfig {
        self.read_mode = mode;
        self
    }

    /// Overrides the sequencer batch duration.
    pub fn with_batch_duration(mut self, duration: Duration) -> CalvinConfig {
        self.batch_duration = duration;
        self
    }

    /// Overrides the network behavior.
    pub fn with_net(mut self, net: NetConfig) -> CalvinConfig {
        self.net = net;
        self
    }

    /// Overrides the worker pool size.
    pub fn with_workers(mut self, workers: usize) -> CalvinConfig {
        self.workers_per_server = workers;
        self
    }

    /// Enables schedule-history recording for the serializability checker.
    pub fn with_history(mut self) -> CalvinConfig {
        self.record_history = true;
        self
    }

    /// Overrides the per-server executor pool sizes.
    pub fn with_exec(mut self, exec: ExecConfig) -> CalvinConfig {
        self.exec = exec;
        self
    }

    /// Enables the closed-loop control plane (adaptive batch pacing and/or
    /// admission gating).
    pub fn with_control(mut self, control: ControlConfig) -> CalvinConfig {
        self.control = Some(control);
        self
    }

    /// Enables the durable log (and with it
    /// [`CalvinCluster::restart_server`]).
    #[deprecated(
        since = "0.7.0",
        note = "use `with_durable_log(spec)`, the same builder name the ALOHA engine uses"
    )]
    pub fn with_durability(mut self, durability: CalvinDurability) -> CalvinConfig {
        self.durability = Some(durability);
        self
    }

    /// Enables the durable log (and with it
    /// [`CalvinCluster::restart_server`]). Named symmetrically with the
    /// ALOHA engine's `ClusterConfig::with_durable_log`.
    pub fn with_durable_log(mut self, durability: CalvinDurability) -> CalvinConfig {
        self.durability = Some(durability);
        self
    }

    /// Runs the cluster on a caller-supplied [`Transport`] instead of the
    /// default simulated bus; [`CalvinConfig::net`] is ignored. The cluster
    /// owns the transport's lifecycle from here on.
    pub fn with_transport(mut self, transport: Arc<dyn Transport<CalvinMsg>>) -> CalvinConfig {
        self.transport = CalvinTransportSpec::Custom(transport);
        self
    }
}

/// Reserved program id of the built-in read fence (see
/// [`CalvinDatabase::read_latest`]); registered automatically by
/// [`CalvinClusterBuilder::start`], so user programs must not use it.
pub const READ_FENCE_PROGRAM: ProgramId = ProgramId(u32::MAX);

/// Packs a read set into read-fence args: `u32` big-endian length + bytes
/// per key.
fn encode_fence_keys(keys: &[Key]) -> Vec<u8> {
    let mut out = Vec::new();
    for key in keys {
        let bytes = key.as_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// Recovers a read set from read-fence args (tolerant of truncation — the
/// fence locks whatever prefix decodes, and execution is a no-op either way).
fn decode_fence_keys(mut args: &[u8]) -> Vec<Key> {
    let mut keys = Vec::new();
    while args.len() >= 4 {
        let len = u32::from_be_bytes(args[..4].try_into().expect("4 bytes")) as usize;
        args = &args[4..];
        if args.len() < len {
            break;
        }
        keys.push(Key::from(args[..len].to_vec()));
        args = &args[len..];
    }
    keys
}

/// Swappable server slots shared by the cluster and every
/// [`CalvinDatabase`] clone, so a restart replaces the one slot everywhere
/// at once instead of leaving stale `Arc`s pinning a dead server.
pub(crate) struct CalvinSlots {
    slots: Vec<RwLock<Arc<CalvinServer>>>,
}

impl CalvinSlots {
    fn new(servers: Vec<Arc<CalvinServer>>) -> CalvinSlots {
        CalvinSlots {
            slots: servers.into_iter().map(RwLock::new).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn get(&self, i: usize) -> Arc<CalvinServer> {
        Arc::clone(&self.slots[i].read())
    }

    fn set(&self, i: usize, server: Arc<CalvinServer>) {
        *self.slots[i].write() = server;
    }

    pub(crate) fn all(&self) -> Vec<Arc<CalvinServer>> {
        self.slots.iter().map(|s| Arc::clone(&s.read())).collect()
    }
}

/// Everything needed to construct a server, kept so
/// [`CalvinCluster::restart_server`] can rebuild one after a kill.
struct CalvinRebuild {
    config: CalvinConfig,
    batch_duration: Duration,
    registry: Arc<CalvinRegistry>,
}

/// What [`build_server`] hands back: the server, its threads, its pacer
/// gauges (adaptive control only), and its recovery report (durable only).
type BuiltServer = (
    Arc<CalvinServer>,
    Vec<JoinHandle<()>>,
    Option<Arc<PacerGauges>>,
    Option<CalvinRecoveryReport>,
);

/// Builds one server: recovers its durable log (if configured), registers
/// its endpoint, and spawns its dispatcher, sequencer, scheduler and worker
/// threads. Used both at cluster start and on restart.
fn build_server(
    ctx: &CalvinRebuild,
    net: &Arc<dyn Transport<CalvinMsg>>,
    i: u16,
) -> Result<BuiltServer> {
    let n = ctx.config.servers;
    let (wal, report) = match &ctx.config.durability {
        Some(spec) => {
            let cfg = DurableLogConfig::new(spec.dir.join(format!("server-{i}")))
                .with_fsync(spec.fsync)
                .with_segment_bytes(spec.segment_bytes)
                .with_flush_appends(spec.flush_appends);
            let (log, recovered) = DurableLog::open(cfg)?;
            let store = CalvinStore::new();
            let (report, ring) = durability::replay(ServerId(i), &store, &recovered)?;
            let wal = CalvinWal {
                log: Arc::new(log),
                start_round: report.resume_round,
                start_seq: report.resume_seq,
                ring,
                store,
            };
            (Some(wal), Some(report))
        }
        None => (None, None),
    };
    let endpoint = net.register(Addr::Server(ServerId(i)));
    let history = ctx
        .config
        .record_history
        .then(|| Arc::new(CalvinHistory::new()));
    let exec = Executor::new(format!("calvin-exec-{i}"), ctx.config.exec.clone());
    let (server, sched_rx, exec_rx) = CalvinServer::new(
        ServerId(i),
        n,
        Arc::clone(&ctx.registry),
        Arc::clone(net),
        exec,
        history,
        wal,
    );
    let mut threads = Vec::new();
    let s = Arc::clone(&server);
    threads.push(
        std::thread::Builder::new()
            .name(format!("calvin-dispatch-{i}"))
            .spawn(move || run_dispatcher(s, endpoint))
            .expect("spawn dispatcher"),
    );
    let s = Arc::clone(&server);
    // Each sequencer owns its pacer: rounds are per-server, so each
    // controller steers its own batch duration from local pressure.
    let (pacer, gauges): (Box<dyn Pacer>, Option<Arc<PacerGauges>>) = match &ctx.config.control {
        Some(control) => {
            let gauges = Arc::new(PacerGauges::default());
            let sampled = Arc::clone(&server);
            let source = move || PacerSample {
                exec_queue: sampled.exec().queued_now(),
                backlog: sampled.backlog_len(),
            };
            let pacer = AdaptivePacer::new(control.pacing.clone(), source, Arc::clone(&gauges))?;
            (Box::new(pacer), Some(gauges))
        }
        None => (Box::new(FixedPacer(ctx.batch_duration)), None),
    };
    threads.push(
        std::thread::Builder::new()
            .name(format!("calvin-seq-{i}"))
            .spawn(move || run_sequencer(s, pacer))
            .expect("spawn sequencer"),
    );
    let s = Arc::clone(&server);
    threads.push(
        std::thread::Builder::new()
            .name(format!("calvin-sched-{i}"))
            .spawn(move || run_scheduler(s, sched_rx))
            .expect("spawn scheduler"),
    );
    for w in 0..ctx.config.workers_per_server {
        let s = Arc::clone(&server);
        let rx = exec_rx.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("calvin-worker-{i}-{w}"))
                .spawn(move || run_worker(s, rx))
                .expect("spawn worker"),
        );
    }
    Ok((server, threads, gauges, report))
}

/// Builds a [`CalvinCluster`]: registers programs, then starts.
pub struct CalvinClusterBuilder {
    config: CalvinConfig,
    registry: CalvinRegistry,
}

impl std::fmt::Debug for CalvinClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalvinClusterBuilder")
            .field("config", &self.config)
            .finish()
    }
}

impl CalvinClusterBuilder {
    /// Registers a stored procedure on every server.
    pub fn register_program(
        &mut self,
        id: ProgramId,
        program: impl CalvinProgram + 'static,
    ) -> &mut Self {
        self.registry.register(id, program);
        self
    }

    /// Starts the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid configurations and
    /// [`Error::Io`] when a configured durable log cannot be opened (or
    /// holds damage a clean crash cannot explain).
    pub fn start(self) -> Result<CalvinCluster> {
        let n = self.config.servers;
        if n == 0 {
            return Err(Error::Config(
                "calvin cluster needs at least one server".into(),
            ));
        }
        if self.config.workers_per_server == 0 {
            return Err(Error::Config("need at least one worker per server".into()));
        }
        if let Some(control) = &self.config.control {
            control.validate()?;
        }
        // With a control plane configured, the pacer's initial duration is
        // authoritative (`ControlConfig::fixed(d)` ≡ `with_batch_duration(d)`).
        let batch_duration = self
            .config
            .control
            .as_ref()
            .map(|c| c.pacing.initial)
            .unwrap_or(self.config.batch_duration);
        let net: Arc<dyn Transport<CalvinMsg>> = match self.config.transport.clone() {
            CalvinTransportSpec::Simulated => Arc::new(Bus::new(self.config.net.clone())),
            CalvinTransportSpec::Custom(transport) => transport,
        };
        let mut registry = self.registry;
        // The built-in read fence: locks its declared read set in the
        // deterministic order and writes nothing. Delayed read-only
        // transactions ride it (see `CalvinDatabase::read_latest`).
        registry.register(
            READ_FENCE_PROGRAM,
            fn_program(
                |args| CalvinPlan {
                    read_set: decode_fence_keys(args),
                    write_set: Vec::new(),
                },
                |_args, _reads, _writes| {},
            ),
        );
        let rebuild = CalvinRebuild {
            config: self.config,
            batch_duration,
            registry: Arc::new(registry),
        };
        let mut servers = Vec::with_capacity(n as usize);
        let mut server_threads = Vec::with_capacity(n as usize);
        let mut pacer_gauges = Vec::new();
        for i in 0..n {
            let (server, threads, gauges, _) = build_server(&rebuild, &net, i)?;
            servers.push(server);
            server_threads.push(threads);
            if let Some(g) = gauges {
                pacer_gauges.push(g);
            }
        }
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
        Ok(CalvinCluster {
            servers: Arc::new(CalvinSlots::new(servers)),
            net,
            server_threads: Mutex::new(server_threads),
            total: n,
            rebuild,
            gates,
            pacer_gauges: Mutex::new(pacer_gauges),
        })
    }
}

/// A running Calvin cluster.
pub struct CalvinCluster {
    servers: Arc<CalvinSlots>,
    net: Arc<dyn Transport<CalvinMsg>>,
    /// Thread handles grouped per server, so one server can be torn down
    /// and rebuilt without disturbing the rest.
    server_threads: Mutex<Vec<Vec<JoinHandle<()>>>>,
    total: u16,
    rebuild: CalvinRebuild,
    /// Per-sequencer admission gates (index-aligned with `servers`); `None`
    /// when the control plane is off or gating is disabled.
    gates: Option<Arc<Vec<Arc<AdmissionGate>>>>,
    /// Live pacer state, one per sequencer (empty without a control plane);
    /// a restart replaces the restarted server's entry.
    pacer_gauges: Mutex<Vec<Arc<PacerGauges>>>,
}

impl std::fmt::Debug for CalvinCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalvinCluster")
            .field("servers", &self.total)
            .finish()
    }
}

impl CalvinCluster {
    /// Starts building a cluster.
    pub fn builder(config: CalvinConfig) -> CalvinClusterBuilder {
        CalvinClusterBuilder {
            config,
            registry: CalvinRegistry::new(),
        }
    }

    /// The servers, indexed by id. A snapshot: a concurrent restart swaps
    /// slots, so re-fetch rather than holding these across one.
    pub fn servers(&self) -> Vec<Arc<CalvinServer>> {
        self.servers.all()
    }

    /// Number of servers.
    pub fn size(&self) -> u16 {
        self.total
    }

    /// The most complete per-server record of the merged global order, or
    /// `None` when history recording is off. Under fault injection a
    /// scheduler that ends mid-disruption may hold a prefix (and a
    /// restarted server's log restarts at its resume round), so the longest
    /// log is the authoritative schedule.
    pub fn history(&self) -> Option<Vec<crate::msg::CalvinTxn>> {
        self.servers
            .all()
            .iter()
            .filter_map(|s| s.history().map(|h| h.snapshot()))
            .max_by_key(Vec::len)
    }

    /// The active fault plan, if the transport injects faults (only the
    /// simulated bus does).
    pub fn fault_plan(&self) -> Option<&aloha_net::FaultPlan> {
        self.net.fault_plan()
    }

    /// A client handle.
    pub fn database(&self) -> CalvinDatabase {
        CalvinDatabase {
            servers: Arc::clone(&self.servers),
            next: Arc::new(AtomicUsize::new(0)),
            read_mode: self.rebuild.config.read_mode,
            gates: self.gates.clone(),
        }
    }

    /// Loads an initial row into the owning partition (before opening the
    /// database for transactions).
    pub fn load(&self, key: Key, value: Value) {
        let owner = key.partition(self.total);
        self.servers.get(owner.index()).store().put(key, value);
    }

    /// Reads the current value of `key` directly from the owning store.
    /// Intended for quiescent verification, not as a transaction.
    pub fn read(&self, key: &Key) -> Option<Value> {
        let owner = key.partition(self.total);
        self.servers.get(owner.index()).store().get(key)
    }

    /// Kills one server in place: marks it shut down, drains and joins its
    /// threads, and seals its durable log (flush + sync), while the rest of
    /// the cluster keeps running. Peer schedulers stall on the dead
    /// server's unsealed rounds until [`CalvinCluster::restart_server`]
    /// brings it back.
    ///
    /// Calvin's single-version store cannot reconstruct mid-transaction
    /// reads, so the supported crash model is quiescent: kill between
    /// transactions, not with submissions in flight (the ALOHA engine's
    /// multiversioning is what makes mid-epoch kills recoverable there).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchPartition`] for out-of-range ids and
    /// [`Error::Config`] when the server is already down.
    pub fn kill_server(&self, id: ServerId) -> Result<()> {
        let i = id.index();
        if i >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(id.0)));
        }
        let server = self.servers.get(i);
        if server.is_shutdown() {
            return Err(Error::Config(format!("server {} is already down", id.0)));
        }
        server.mark_shutdown();
        // The shutdown message must go out while the endpoint is still
        // registered; deregistering first would error the reliable send and
        // leave the dispatcher blocked on its queue forever.
        let _ = self
            .net
            .send_reliable(Addr::Server(id), CalvinMsg::Shutdown);
        self.net.deregister(Addr::Server(id));
        let handles: Vec<_> = self.server_threads.lock()[i].drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        server.exec().shutdown();
        if let Some(log) = server.durable_log() {
            log.close();
        }
        Ok(())
    }

    /// Whether this engine supports hot-standby partial replication with
    /// epoch-boundary failover. Always `false`: Calvin has no epoch barrier
    /// to cut a consistent promotion point on, and its deterministic
    /// scheduler would need the standby to join mid-round — the only
    /// supported recovery is [`CalvinCluster::restart_server`] replaying the
    /// durable log (the restart path the ALOHA engine keeps as its fallback
    /// for *un*-replicated partitions).
    pub fn supports_partial_replication(&self) -> bool {
        false
    }

    /// Rebuilds a killed server from its durable log: restores the newest
    /// checkpoint, replays the Put suffix, resumes the sequencer at the
    /// highest persisted round + 1, and re-broadcasts the recovered seal
    /// ring so peer schedulers stalled on this server's rounds unblock. The
    /// restarted sequencer then burst-seals up to the peers' observed round
    /// frontier to close the dead-window gap in one tick.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when durability is off or the server is
    /// still running, and [`Error::Io`] when the log holds damage a clean
    /// crash cannot explain (anything beyond a torn final segment).
    pub fn restart_server(&self, id: ServerId) -> Result<CalvinRecoveryReport> {
        let i = id.index();
        if i >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(id.0)));
        }
        if self.rebuild.config.durability.is_none() {
            return Err(Error::Config(
                "restart requires a durable log (CalvinConfig::with_durable_log)".into(),
            ));
        }
        if !self.servers.get(i).is_shutdown() {
            return Err(Error::Config(format!(
                "server {} is still running; kill it first",
                id.0
            )));
        }
        let (server, threads, gauges, report) = build_server(&self.rebuild, &self.net, id.0)?;
        self.server_threads.lock()[i] = threads;
        if let Some(g) = gauges {
            self.pacer_gauges.lock()[i] = g;
        }
        self.servers.set(i, server);
        Ok(report.expect("durability configured implies a recovery report"))
    }

    /// Checkpoints every live server's store into its durable log and
    /// truncates covered segments. Intended for quiescent moments (no
    /// submissions in flight): the store dump and the round watermark are
    /// only mutually consistent when no write-back races them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when durability is off and [`Error::Io`]
    /// on filesystem failures.
    pub fn checkpoint(&self) -> Result<()> {
        if self.rebuild.config.durability.is_none() {
            return Err(Error::Config(
                "checkpoint requires a durable log (CalvinConfig::with_durable_log)".into(),
            ));
        }
        for server in self.servers.all() {
            if server.is_shutdown() {
                continue;
            }
            let Some(log) = server.durable_log() else {
                continue;
            };
            let round = server.last_sealed_round() + 1;
            let blob =
                durability::encode_checkpoint(round, server.next_seq_watermark(), server.store());
            log.install_checkpoint(round, &blob)?;
        }
        Ok(())
    }

    /// A composable statistics snapshot for the whole cluster: summed
    /// counters and cluster-wide stage percentiles at the root (merged from
    /// every server's raw histogram buckets — never averaged percentiles),
    /// with per-server and network subtrees as children. Uses the same
    /// six-stage schema as the ALOHA engine (§III analogues documented on
    /// [`crate::server::CalvinStats`]). Durable servers additionally carry
    /// a `durability` subtree.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut root = StatsSnapshot::new("calvin");
        let mut completed = 0u64;
        let mut scheduled = 0u64;
        let mut merged: [HistogramSnapshot; STAGE_COUNT + 1] = Default::default();
        for server in self.servers.all() {
            let stats = server.stats();
            completed += stats.completed();
            scheduled += stats.scheduled();
            for (acc, snap) in merged.iter_mut().zip(stats.raw_histograms()) {
                acc.merge(&snap);
            }
            let mut node = stats.snapshot(format!("server_{}", server.id().0));
            node.push_child(server.exec().stats().snapshot("exec"));
            if let Some(log) = server.durable_log() {
                node.push_child(log.stats().snapshot(server.last_sealed_round()));
            }
            root.push_child(node);
        }
        root.set_counter("completed", completed);
        root.set_counter("scheduled", scheduled);
        for stage in Stage::ALL {
            root.set_stage(stage.name(), StageStats::from(&merged[stage.index()]));
        }
        root.set_stage("e2e", StageStats::from(&merged[STAGE_COUNT]));
        root.push_child(self.net.snapshot());
        if let Some(control) = self.control_snapshot() {
            root.push_child(control);
        }
        root
    }

    /// The `control` node of the stats tree: per-sequencer pacer gauges and
    /// summed gate activity. `None` when no control plane is configured.
    fn control_snapshot(&self) -> Option<StatsSnapshot> {
        let pacer_gauges = self.pacer_gauges.lock();
        if pacer_gauges.is_empty() && self.gates.is_none() {
            return None;
        }
        let mut node = StatsSnapshot::new("control");
        // Sequencers pace independently; export the widest batch any of them
        // currently runs plus the highest pressure, with per-server children.
        if !pacer_gauges.is_empty() {
            let widest = pacer_gauges
                .iter()
                .map(|g| g.epoch_duration_micros.get())
                .max()
                .unwrap_or(0);
            let pressure = pacer_gauges
                .iter()
                .map(|g| g.pressure_millis.get())
                .max()
                .unwrap_or(0);
            node.set_gauge("epoch_duration_micros", widest);
            node.set_gauge("pressure_millis", pressure);
            for (i, gauges) in pacer_gauges.iter().enumerate() {
                let mut child = StatsSnapshot::new(format!("pacer_s{i}"));
                child.set_gauge("epoch_duration_micros", gauges.epoch_duration_micros.get());
                child.set_gauge("pressure_millis", gauges.pressure_millis.get());
                node.push_child(child);
            }
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

    /// The per-sequencer admission gates, when the control plane enables
    /// gating.
    pub fn gates(&self) -> Option<&[Arc<AdmissionGate>]> {
        self.gates.as_deref().map(Vec::as_slice)
    }

    /// Resets every server's statistics.
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

    /// Stops all servers and joins their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let servers = self.servers.all();
        for server in &servers {
            server.mark_shutdown();
            let _ = self
                .net
                .send_reliable(Addr::Server(server.id()), CalvinMsg::Shutdown);
        }
        let groups: Vec<Vec<JoinHandle<()>>> = self
            .server_threads
            .lock()
            .iter_mut()
            .map(std::mem::take)
            .collect();
        for t in groups.into_iter().flatten() {
            let _ = t.join();
        }
        // Workers are gone, so nothing submits anymore; drain and join the
        // executors (deferred until here so one server's draining tasks can
        // still get read broadcasts handled by its peers), then seal the
        // logs so everything acknowledged is flushed to disk.
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

impl Drop for CalvinCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Client handle: submits transactions round-robin across sequencers.
#[derive(Clone)]
pub struct CalvinDatabase {
    servers: Arc<CalvinSlots>,
    next: Arc<AtomicUsize>,
    /// How [`CalvinDatabase::read_latest`] serves reads (from
    /// [`CalvinConfig`]).
    read_mode: ReadMode,
    /// Per-sequencer admission gates (`None` on an ungated cluster).
    /// Admission happens before the submission enters the sequencer batch:
    /// a shed transaction is never sequenced anywhere.
    gates: Option<Arc<Vec<Arc<AdmissionGate>>>>,
}

impl std::fmt::Debug for CalvinDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalvinDatabase")
            .field("servers", &self.servers.len())
            .finish()
    }
}

impl CalvinDatabase {
    /// Acquires sequencer `i`'s admission token (no-op on an ungated
    /// cluster).
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the gate sheds the transaction.
    fn admit(&self, i: usize, kind: AccessKind) -> Result<Option<Permit>> {
        match &self.gates {
            Some(gates) => gates[i].admit(kind).map(Some),
            None => Ok(None),
        }
    }

    /// Round-robin sequencer choice, skipping killed servers so client
    /// threads fail over instead of submitting into a dead batch.
    fn pick_sequencer(&self) -> Arc<CalvinServer> {
        let n = self.servers.len();
        for _ in 0..n {
            let i = self.next.fetch_add(1, Ordering::Relaxed) % n;
            let server = self.servers.get(i);
            if !server.is_shutdown() {
                return server;
            }
        }
        // Everything looks down (or raced a restart): fall back to plain
        // rotation and let the submission surface the error.
        let i = self.next.fetch_add(1, Ordering::Relaxed) % n;
        self.servers.get(i)
    }

    /// Submits a transaction via a round-robin sequencer (skipping killed
    /// servers).
    ///
    /// # Errors
    ///
    /// Fails for unknown programs, or with [`Error::Overloaded`] when the
    /// admission gate sheds.
    pub fn execute(&self, program: ProgramId, args: impl Into<Vec<u8>>) -> Result<CalvinHandle> {
        let server = self.pick_sequencer();
        let permit = self.admit(server.id().index(), AccessKind::Write)?;
        Ok(CalvinHandle {
            submission: server.submit(program, &args.into())?,
            _permit: permit,
        })
    }

    /// Submits and blocks for full execution on every participant.
    ///
    /// # Errors
    ///
    /// As [`CalvinDatabase::execute`], plus cluster shutdown.
    pub fn execute_wait(&self, program: ProgramId, args: impl Into<Vec<u8>>) -> Result<()> {
        self.execute(program, args)?.wait()
    }

    /// Submits with a pinned sequencer.
    ///
    /// # Errors
    ///
    /// As [`CalvinDatabase::execute`], plus out-of-range servers and
    /// [`Error::ShuttingDown`] when the pinned sequencer is down.
    pub fn execute_at(
        &self,
        origin: ServerId,
        program: ProgramId,
        args: impl Into<Vec<u8>>,
    ) -> Result<CalvinHandle> {
        if origin.index() >= self.servers.len() {
            return Err(Error::NoSuchPartition(PartitionId(origin.0)));
        }
        let server = self.servers.get(origin.index());
        if server.is_shutdown() {
            return Err(Error::ShuttingDown);
        }
        let permit = self.admit(origin.index(), AccessKind::Write)?;
        Ok(CalvinHandle {
            submission: server.submit(program, &args.into())?,
            _permit: permit,
        })
    }

    /// Latest-version read-only transaction, on the same [`ReadMode`] knob
    /// as the ALOHA engine:
    ///
    /// * [`ReadMode::Snapshot`] reads each key straight from its owning
    ///   server's store — no sequencing, no locks, no batch wait. On
    ///   Calvin's *single-version* store this is best-effort: per-key values
    ///   are the latest written back, but a multi-partition transaction
    ///   mid-write-back can be observed partially (the ALOHA engine's
    ///   version chains are what make the same fast path torn-free there).
    /// * [`ReadMode::DelayToEpoch`] is Calvin's native read-only
    ///   transaction: a no-op *read fence* over `keys` rides the sequencer
    ///   into the deterministic order, locking the read set on every owner;
    ///   once it completes, every earlier-ordered transaction has executed
    ///   and the subsequent store reads are a consistent cut at the fence's
    ///   position. Costs roughly one sequencer batch of latency.
    ///
    /// Both modes record the `snapshot_read` lifecycle stage on the origin
    /// server, so the read ablation compares engines like for like.
    ///
    /// # Errors
    ///
    /// Fails on shutdown, or with [`Error::Overloaded`] when the admission
    /// gate sheds the read.
    pub fn read_latest(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        let origin = self.pick_sequencer();
        // Reads admit under `AccessKind::Read` (the reserved read share of
        // the gate window), mirroring the ALOHA engine's client edge.
        let _permit = self.admit(origin.id().index(), AccessKind::Read)?;
        let started = Instant::now();
        if self.read_mode == ReadMode::DelayToEpoch && !keys.is_empty() {
            let fence = CalvinHandle {
                submission: origin.submit(READ_FENCE_PROGRAM, &encode_fence_keys(keys))?,
                _permit: None,
            };
            fence.wait()?;
        }
        let total = self.servers.len() as u16;
        let values = keys
            .iter()
            .map(|key| {
                self.servers
                    .get(key.partition(total).index())
                    .store()
                    .get(key)
            })
            .collect();
        origin
            .stats()
            .tracer()
            .record_stage(Stage::SnapshotRead, duration_micros(started.elapsed()));
        Ok(values)
    }

    /// Latest-version read of a single key: [`CalvinDatabase::read_latest`]
    /// without the slice ceremony.
    ///
    /// # Errors
    ///
    /// As [`CalvinDatabase::read_latest`].
    pub fn read_one(&self, key: &Key) -> Result<Option<Value>> {
        Ok(self.read_latest(std::slice::from_ref(key))?.pop().flatten())
    }

    /// Number of servers.
    pub fn cluster_size(&self) -> usize {
        self.servers.len()
    }
}

/// Handle to a submitted Calvin transaction.
#[derive(Debug)]
pub struct CalvinHandle {
    submission: CalvinSubmission,
    /// Admission token held until the handle resolves (or is dropped), so
    /// the gate's window bounds sequenced-but-unfinished transactions.
    _permit: Option<Permit>,
}

impl CalvinHandle {
    /// Blocks until the transaction fully executed on every participant.
    ///
    /// # Errors
    ///
    /// Fails if the cluster shut down first.
    pub fn wait(self) -> Result<()> {
        self.submission.wait()
    }
}
