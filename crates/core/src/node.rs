//! Single-server node runtime for real multi-process deployments.
//!
//! [`Cluster`](crate::Cluster) hosts every FE/BE pair inside one process —
//! the configuration the simulated bus serves. A real deployment of the
//! paper runs each server as its own OS process on its own machine, talking
//! over the network. [`Node`] is that unit: **one** [`Server`] (an FE/BE
//! pair) plus, on node 0, the co-hosted epoch manager, all riding a
//! caller-supplied [`Transport`] — in practice an
//! [`aloha_net::TcpTransport`] wired with [`crate::wire::ServerMsgCodec`].
//!
//! Differences from the in-process cluster, all deployment-driven:
//!
//! * **Clock:** processes cannot share a [`ClockBase`](
//!   aloha_common::clock::ClockBase) (it wraps a process-local `Instant`),
//!   so nodes measure time with [`UnixClock`] against a Unix-epoch origin
//!   the launcher picks once and passes to every process — the paper's
//!   NTP-synchronized-clocks model (§V-A3).
//! * **No fault injection, no replication:** those layers are exercised
//!   by the in-process suites; a node is the minimal deployable server.
//!   Durable logging is available, since crash-recovery of a real process
//!   is exactly what multi-process tests kill and restart.
//! * **Shutdown is local:** a node stops its own server and (on node 0) the
//!   epoch manager; the launcher orchestrates deployment-wide shutdown
//!   order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aloha_common::clock::UnixClock;
use aloha_common::stats::StatsSnapshot;
use aloha_common::{Error, Key, ReadMode, Result, ServerId, Timestamp, Value};
use aloha_epoch::{EpochClient, EpochConfig, EpochManager};
use aloha_functor::{Handler, HandlerId, HandlerRegistry};
use aloha_net::{Addr, Executor, Transport};
use aloha_storage::{DurableLog, DurableLogConfig, Partition, RecoveredLog};

use crate::checker::History;
use crate::cluster::{CompactionConfig, DurableLogSpec, NetEpochTransport};
use crate::msg::ServerMsg;
use crate::program::{ProgramId, ProgramRegistry, TxnProgram};
use crate::server::{Server, TxnHandle, WalSink};

/// Configuration for one node of a multi-process deployment.
///
/// Every node of a deployment must agree on `servers`, `epoch_duration` and
/// `clock_origin_unix_micros`; `id` is the one per-process field.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This process's server id (node 0 co-hosts the epoch manager).
    pub id: ServerId,
    /// Total number of servers in the deployment.
    pub servers: u16,
    /// Unified epoch duration (must match on every node).
    pub epoch_duration: Duration,
    /// Functor processor threads for this backend.
    pub processors: usize,
    /// Enable the §III-C straggler optimization.
    pub allow_noauth: bool,
    /// Per-attempt internal RPC timeout. Over a real network with process
    /// restarts in play, keep this a few times the expected recovery time.
    pub rpc_timeout: Duration,
    /// Record coordinated transactions into a [`History`] for the
    /// serializability checker (merged across nodes by the launcher).
    pub record_history: bool,
    /// The deployment's shared clock origin, microseconds since the Unix
    /// epoch. Chosen once by the launcher (see
    /// [`UnixClock::unix_now_micros`]) and passed to every node.
    pub clock_origin_unix_micros: u64,
    /// Optional crash-durable WAL for this node's partition; uses the same
    /// `dir/server-<i>` layout as the in-process cluster, so a respawned
    /// process over the same directory recovers its partition.
    pub durable_log: Option<DurableLogSpec>,
    /// Optional background watermark-driven chain compaction for this
    /// node's partition (same semantics as
    /// [`ClusterConfig::with_compaction`](crate::ClusterConfig::with_compaction)).
    pub compaction: Option<CompactionConfig>,
    /// How [`Node::read_latest`] serves reads: the snapshot-read fast path
    /// at the cluster compute frontier (the default), or the §III-B
    /// delay-to-next-epoch baseline.
    pub read_mode: ReadMode,
}

impl NodeConfig {
    /// A default node configuration: 25 ms epochs, two processors,
    /// stragglers allowed, 30 s RPC timeout, no durability.
    pub fn new(id: ServerId, servers: u16, clock_origin_unix_micros: u64) -> NodeConfig {
        NodeConfig {
            id,
            servers,
            epoch_duration: Duration::from_millis(25),
            processors: 2,
            allow_noauth: true,
            rpc_timeout: Duration::from_secs(30),
            record_history: false,
            clock_origin_unix_micros,
            durable_log: None,
            compaction: None,
            read_mode: ReadMode::default(),
        }
    }

    /// Overrides the epoch duration (must match on every node).
    pub fn with_epoch_duration(mut self, duration: Duration) -> NodeConfig {
        self.epoch_duration = duration;
        self
    }

    /// Overrides the processor pool size.
    pub fn with_processors(mut self, processors: usize) -> NodeConfig {
        self.processors = processors;
        self
    }

    /// Overrides the per-attempt internal RPC timeout.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> NodeConfig {
        self.rpc_timeout = timeout;
        self
    }

    /// Enables commit-history recording for the serializability checker.
    pub fn with_history(mut self) -> NodeConfig {
        self.record_history = true;
        self
    }

    /// Enables crash-durable on-disk write-ahead logging.
    pub fn with_durable_log(mut self, spec: DurableLogSpec) -> NodeConfig {
        self.durable_log = Some(spec);
        self
    }

    /// Enables the background watermark-driven compaction sweeper, keeping
    /// the newest `keep_versions` committed versions per chain.
    pub fn with_compaction(mut self, interval: Duration, keep_versions: usize) -> NodeConfig {
        self.compaction = Some(CompactionConfig {
            interval,
            keep_versions,
        });
        self
    }

    /// Overrides how latest-version reads are served (see [`ReadMode`]).
    pub fn with_read_mode(mut self, mode: ReadMode) -> NodeConfig {
        self.read_mode = mode;
        self
    }
}

/// Builds a [`Node`]: registers handlers and programs, then starts the
/// server over a transport.
pub struct NodeBuilder {
    config: NodeConfig,
    handlers: HandlerRegistry,
    programs: ProgramRegistry,
}

impl std::fmt::Debug for NodeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeBuilder")
            .field("config", &self.config)
            .finish()
    }
}

impl NodeBuilder {
    /// Registers a functor handler on this backend. Every node of a
    /// deployment must register the same handlers.
    pub fn register_handler(
        &mut self,
        id: HandlerId,
        handler: impl Handler + 'static,
    ) -> &mut Self {
        self.handlers.register(id, handler);
        self
    }

    /// Registers a transaction program on this front-end.
    pub fn register_program(
        &mut self,
        id: ProgramId,
        program: impl TxnProgram + 'static,
    ) -> &mut Self {
        self.programs.register(id, program);
        self
    }

    /// Starts the node over `net`: registers this server's endpoint, spawns
    /// its dispatcher and processors, and — on node 0 — the epoch manager.
    /// With a durable log over a non-empty directory, the partition is first
    /// recovered from checkpoint + WAL suffix.
    ///
    /// The node takes ownership of the transport's lifecycle:
    /// [`Node::shutdown`] shuts it down.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid configurations, [`Error::Io`]
    /// when the durable log cannot be opened or is damaged beyond a torn
    /// tail.
    pub fn start(self, net: Arc<dyn Transport<ServerMsg>>) -> Result<Node> {
        let config = self.config;
        if config.servers == 0 {
            return Err(Error::Config("deployment needs at least one server".into()));
        }
        if config.id.0 >= config.servers {
            return Err(Error::Config(format!(
                "node id {} out of range for {} servers",
                config.id.0, config.servers
            )));
        }
        if config.processors == 0 {
            return Err(Error::Config("need at least one processor".into()));
        }

        let clock = Arc::new(UnixClock::new(config.clock_origin_unix_micros));
        let partition = Arc::new(Partition::new(
            aloha_common::PartitionId(config.id.0),
            config.servers,
            Arc::new(self.handlers),
        ));
        let (wal, recovered) = open_wal(&config)?;
        if let Some(recovered) = &recovered {
            recover(&partition, recovered)?;
        }
        let epoch = Arc::new(EpochClient::new(
            config.id,
            clock.clone(),
            config.allow_noauth,
        ));
        let exec = Executor::new(
            format!("exec-n{}", config.id.0),
            aloha_net::ExecConfig::default(),
        );
        let history = config.record_history.then(|| Arc::new(History::new()));
        let (server, queue_rx) = Server::new(
            config.id,
            config.servers,
            partition,
            epoch,
            Arc::clone(&net),
            exec,
            Arc::new(self.programs),
            wal,
            config.rpc_timeout,
            history.clone(),
        );
        let endpoint = net.register(Addr::Server(config.id));
        let threads =
            crate::cluster::spawn_server_threads(&server, endpoint, queue_rx, config.processors);

        let aux_stop = Arc::new(AtomicBool::new(false));
        let mut aux_threads = Vec::new();
        if let Some(comp) = config.compaction {
            let sweep_server = Arc::clone(&server);
            let stop = Arc::clone(&aux_stop);
            aux_threads.push(
                std::thread::Builder::new()
                    .name("compaction-sweeper".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(comp.interval);
                            sweep_server.compact(comp.keep_versions);
                        }
                    })
                    .expect("spawn compaction sweeper"),
            );
        }

        // Node 0 co-hosts the epoch manager: the EM's grants and revokes ride
        // the same transport as everything else, so remote FEs receive them
        // exactly as the in-process cluster's do.
        let em = (config.id.0 == 0).then(|| {
            let em_endpoint = net.register(Addr::EpochManager);
            let em_config = EpochConfig {
                epoch_duration: config.epoch_duration,
                servers: (0..config.servers).map(ServerId).collect(),
                poll_interval: Duration::from_micros(200),
                revoke_resend_interval: (config.epoch_duration / 4).max(Duration::from_millis(2)),
            };
            EpochManager::spawn(
                em_config,
                clock,
                NetEpochTransport {
                    net: Arc::clone(&net),
                    endpoint: em_endpoint,
                },
            )
        });

        Ok(Node {
            server,
            em,
            net,
            threads,
            aux_stop,
            aux_threads,
            history,
            total: config.servers,
            read_mode: config.read_mode,
            session: AtomicU64::new(0),
        })
    }
}

/// One running server of a multi-process deployment (see the module docs).
pub struct Node {
    server: Arc<Server>,
    em: Option<EpochManager>,
    net: Arc<dyn Transport<ServerMsg>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    aux_stop: Arc<AtomicBool>,
    aux_threads: Vec<std::thread::JoinHandle<()>>,
    history: Option<Arc<History>>,
    total: u16,
    read_mode: ReadMode,
    /// Highest timestamp this node's clients have observed (read bounds and
    /// this node's own commit timestamps, raw). Snapshot reads floor here,
    /// giving monotone reads and read-your-writes per node handle. Unlike
    /// [`Database`](crate::Database)'s split session atomics, one floor
    /// suffices: a node gates no writes on it, only reads.
    session: AtomicU64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.server.id())
            .field("servers", &self.total)
            .finish()
    }
}

impl Node {
    /// Starts building a node with the given configuration.
    pub fn builder(config: NodeConfig) -> NodeBuilder {
        NodeBuilder {
            config,
            handlers: HandlerRegistry::new(),
            programs: ProgramRegistry::new(),
        }
    }

    /// This node's server (its FE for coordination, its BE for storage).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Whether this node's partition owns `key`.
    pub fn owns(&self, key: &Key) -> bool {
        key.partition(self.total).0 == self.server.id().0
    }

    /// Loads an initial row into this node's partition if it owns the key;
    /// returns whether it did. Workload loaders call this with every row on
    /// every node — each row lands exactly once, on its owner.
    pub fn load(&self, key: Key, value: Value) -> bool {
        if !self.owns(&key) {
            return false;
        }
        self.server.partition().load(&key, value);
        true
    }

    /// Executes a one-shot transaction with this node's FE as coordinator;
    /// returns after the write-only phase.
    ///
    /// # Errors
    ///
    /// Fails on shutdown, unknown programs, transform rejections and
    /// transport errors.
    pub fn execute(&self, program: ProgramId, args: impl Into<Vec<u8>>) -> Result<TxnHandle> {
        let handle = self.server.coordinate(program, &args.into())?;
        self.session
            .fetch_max(handle.timestamp().raw(), Ordering::Relaxed);
        Ok(handle)
    }

    /// Latest-version read-only transaction via this node's FE. Under
    /// [`ReadMode::Snapshot`] (the default) it is served from the
    /// snapshot-read fast path at the cluster compute frontier, floored at
    /// this node's session; under [`ReadMode::DelayToEpoch`] it is the
    /// §III-B wait-out-the-epoch baseline.
    ///
    /// # Errors
    ///
    /// Fails on shutdown or transport errors.
    pub fn read_latest(&self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        match self.read_mode {
            ReadMode::Snapshot => {
                let floor = Timestamp::from_raw(self.session.load(Ordering::Relaxed));
                let (served, reads) = self.server.snapshot_read_latest(keys, floor)?;
                self.session.fetch_max(served.raw(), Ordering::Relaxed);
                Ok(reads.into_iter().map(|read| read.value).collect())
            }
            ReadMode::DelayToEpoch => {
                let values = self.server.read_latest(keys)?;
                self.session
                    .fetch_max(self.server.epoch().visible_bound().raw(), Ordering::Relaxed);
                Ok(values)
            }
        }
    }

    /// Folds an externally-observed timestamp into this node's session
    /// floor: subsequent [`ReadMode::Snapshot`] reads will not serve below
    /// it. This is the causality token for cross-process clients — a client
    /// that commits through one node and reads through another passes the
    /// commit handle's timestamp along (the delay-to-epoch baseline gets the
    /// same guarantee implicitly from its epoch wait).
    pub fn note_observed(&self, ts: Timestamp) {
        self.session.fetch_max(ts.raw(), Ordering::Relaxed);
    }

    /// This node's commit history (present when
    /// [`NodeConfig::record_history`] was set). The launcher merges the
    /// per-node histories by timestamp before checking serializability.
    pub fn history(&self) -> Option<&Arc<History>> {
        self.history.as_ref()
    }

    /// A statistics snapshot: this server's node plus the transport's, with
    /// a process-RSS gauge so deployment dashboards see this process's
    /// resident set next to its live-record counts.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut root = self.server.snapshot();
        root.set_gauge(
            "process_rss_bytes",
            aloha_common::stats::process_rss_bytes(),
        );
        root.push_child(self.net.snapshot());
        root
    }

    /// Stops this node: shuts the co-hosted epoch manager (node 0), the
    /// server's threads, its executor and durable log, then the transport.
    ///
    /// Deployment-wide order matters and belongs to the launcher: stop
    /// workload on every node first, then shut nodes down (node 0 last keeps
    /// epochs advancing while others drain, though any order is safe —
    /// remote sends to dead peers fail like dropped messages and
    /// retransmission gives up at shutdown).
    pub fn shutdown(mut self) {
        if let Some(em) = self.em.take() {
            em.close();
        }
        self.aux_stop.store(true, Ordering::SeqCst);
        self.server.mark_shutdown();
        let _ = self
            .net
            .send_reliable(Addr::Server(self.server.id()), ServerMsg::Shutdown);
        self.net.deregister(Addr::Server(self.server.id()));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for t in self.aux_threads.drain(..) {
            let _ = t.join();
        }
        self.server.exec().shutdown();
        if let Some(log) = self.server.durable_log() {
            log.close();
        }
        self.net.shutdown();
    }
}

/// Opens this node's WAL per the configuration, returning any state a
/// previous incarnation left behind.
fn open_wal(config: &NodeConfig) -> Result<(Option<WalSink>, Option<RecoveredLog>)> {
    let Some(spec) = &config.durable_log else {
        return Ok((None, None));
    };
    let cfg = DurableLogConfig::new(spec.dir.join(format!("server-{}", config.id.0)))
        .with_fsync(spec.fsync)
        .with_segment_bytes(spec.segment_bytes)
        .with_flush_appends(spec.flush_appends);
    let (log, recovered) = DurableLog::open(cfg)?;
    Ok((Some(WalSink::Disk(Arc::new(log))), Some(recovered)))
}

/// Applies a recovered durable log onto the fresh partition (checkpoint +
/// WAL suffix; a torn tail is tolerated, interior corruption refuses).
fn recover(partition: &Partition, recovered: &RecoveredLog) -> Result<()> {
    if let Some(damage @ aloha_storage::LogDamage::Corrupt { .. }) = &recovered.damage {
        return Err(Error::Io(format!("wal recovery refused: {damage}")));
    }
    let mut checkpoint = aloha_common::Timestamp::ZERO;
    if let Some((_, blob)) = &recovered.checkpoint {
        checkpoint = aloha_storage::restore_checkpoint(partition, blob)?;
    }
    aloha_storage::replay_records(partition, &recovered.records, checkpoint)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::fn_program;
    use crate::TxnPlan;
    use aloha_functor::Functor;
    use aloha_net::{Bus, NetConfig};

    /// Two nodes over one shared in-process bus: the node runtime is
    /// transport-agnostic, so the simulated bus exercises the same assembly
    /// the TCP deployment uses.
    #[test]
    fn two_nodes_on_shared_bus_commit_and_read() {
        let bus: Arc<dyn Transport<ServerMsg>> =
            Arc::new(Bus::<ServerMsg>::new(NetConfig::instant()));
        let origin = UnixClock::unix_now_micros();
        let program = ProgramId(1);
        let mut nodes = Vec::new();
        for id in 0..2u16 {
            let mut b = Node::builder(
                NodeConfig::new(ServerId(id), 2, origin)
                    .with_epoch_duration(Duration::from_millis(2)),
            );
            b.register_program(
                program,
                fn_program(|ctx| {
                    Ok(TxnPlan::new().write(
                        Key::from(ctx.args.to_vec()),
                        Functor::Value(Value::from_i64(1)),
                    ))
                }),
            );
            nodes.push(b.start(Arc::clone(&bus)).expect("node start"));
        }
        let keys = [Key::from("alpha"), Key::from("bravo"), Key::from("carol")];
        for key in &keys {
            assert_eq!(
                nodes.iter().filter(|n| n.owns(key)).count(),
                1,
                "exactly one owner per key"
            );
        }
        for (i, key) in keys.iter().enumerate() {
            let handle = nodes[i % 2]
                .execute(program, key.as_bytes().to_vec())
                .expect("execute");
            assert_eq!(
                handle.wait_processed().expect("processed"),
                crate::TxnOutcome::Committed
            );
            // A client hopping nodes carries its causality token: commits
            // made through node 0 must floor node 1's snapshot reads.
            nodes[1].note_observed(handle.timestamp());
        }
        let values = nodes[1].read_latest(&keys).expect("read");
        assert!(values.iter().all(|v| v.is_some()));
        // Shared-bus special case: the first shutdown closes the bus for
        // everyone (each real deployment process owns its own transport);
        // the second node's threads exit on the disconnect.
        for node in nodes {
            node.shutdown();
        }
    }
}
