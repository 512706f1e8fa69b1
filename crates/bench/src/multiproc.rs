//! Real-TCP deployments of the YCSB microbenchmark: an in-process loopback
//! mesh for the transport ablation, and the multi-process launcher.
//!
//! Two deployment shapes share the [`aloha_core::Node`] runtime:
//!
//! * [`tcp_ycsb_run`] builds one [`TcpTransport`] **per node inside one
//!   process**, cross-wired over 127.0.0.1 — every cross-partition message
//!   pays real socket + codec cost while process management stays out of the
//!   measurement. This is the `tcp-loopback` row of
//!   `BENCH_ablation_transport.json`.
//! * [`launch`] spawns each node as its **own OS process** (re-executing the
//!   current binary with [`CHILD_FLAG`]) and drives them over a line-based
//!   stdin/stdout protocol: collect listener ports, broadcast the peer map,
//!   run the workload on the driver nodes, then merge the per-node commit
//!   histories and check the deployment's final state against the
//!   serializability checker's serial replay. With [`LaunchOpts::kill`] it
//!   SIGKILLs one non-driver node mid-run and respawns it over its durable
//!   WAL — a process-granular crash test.
//!
//! ## Child protocol
//!
//! ```text
//! child → parent   PORT <port>                 after binding 127.0.0.1:0
//! parent → child   peers <addr0> ... <addrN-1>
//! child → parent   READY                       node started
//! parent → child   run <txns> <seed>           driver nodes only
//! child → parent   DONE <committed> <aborted>
//! parent → child   dump-history <path>
//! child → parent   DUMPED <records>
//! parent → child   read-finals <path> <ts>     one node; reads at or above ts
//! child → parent   READ <keys>
//! parent → child   exit
//! child            (shuts its node down, exits 0)
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use aloha_common::clock::UnixClock;
use aloha_common::codec::{Reader, Writer};
use aloha_common::{Key, Result, ServerId, Timestamp, Value};
use aloha_core::{
    diff_states, replay_history, CommitRecord, DurableLogSpec, Node, NodeConfig, ServerMsg,
    ServerMsgCodec, TxnOutcome,
};
use aloha_functor::{Functor, HandlerRegistry};
use aloha_net::{Addr, TcpTransport, Transport};
use aloha_storage::wal::{decode_functor, encode_functor};
use aloha_workloads::driver::{run_windowed, DriverConfig, Workload};
use aloha_workloads::ycsb::{self, YcsbConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::RunResult;

/// Argv marker that re-enters this binary as a deployment child process.
pub const CHILD_FLAG: &str = "--aloha-node";

/// Builds `n` [`TcpTransport`]s in one process, every pair cross-wired over
/// loopback: transport `i` serves `Addr::Server(i)` (and transport 0 the
/// epoch manager), all others reach it via TCP.
///
/// # Panics
///
/// Panics when a listener cannot bind (no loopback available).
pub fn tcp_mesh(n: u16) -> Vec<Arc<TcpTransport<ServerMsg>>> {
    let codec = Arc::new(ServerMsgCodec);
    let transports: Vec<Arc<TcpTransport<ServerMsg>>> = (0..n)
        .map(|_| {
            Arc::new(
                TcpTransport::bind("127.0.0.1:0", codec.clone()).expect("bind loopback listener"),
            )
        })
        .collect();
    let addrs: Vec<SocketAddr> = transports.iter().map(|t| t.local_addr()).collect();
    for (i, transport) in transports.iter().enumerate() {
        for (j, at) in addrs.iter().enumerate() {
            if i == j {
                continue;
            }
            transport.add_peer(Addr::Server(ServerId(j as u16)), *at);
        }
        if i != 0 {
            transport.add_peer(Addr::EpochManager, addrs[0]);
        }
    }
    transports
}

/// The YCSB workload over a set of nodes: each transaction coordinates at
/// the node owning its first key, exactly like the in-process
/// [`aloha_workloads::ycsb::AlohaYcsb`] pins its front-end.
struct NodeYcsb {
    nodes: Vec<Arc<Node>>,
    cfg: Arc<YcsbConfig>,
}

impl Workload for NodeYcsb {
    type Handle = aloha_core::TxnHandle;

    fn submit(&self, rng: &mut SmallRng) -> Result<Self::Handle> {
        let keys = ycsb::gen_txn_keys(rng, &self.cfg);
        let fe = keys[0].partition(self.cfg.partitions).0 as usize;
        self.nodes[fe].execute(ycsb::YCSB_ALOHA, ycsb::encode_txn_args(&keys))
    }

    fn wait(&self, handle: Self::Handle) -> Result<bool> {
        Ok(handle.wait_processed()? == TxnOutcome::Committed)
    }
}

/// Builds, loads, drives and tears down a YCSB deployment of `cfg.partitions`
/// nodes over real loopback TCP (one transport per node, in one process).
/// The returned snapshot is node 0's (its server plus its transport's wire
/// counters); committed/aborted counts are driver-side and deployment-wide.
pub fn tcp_ycsb_run(cfg: &YcsbConfig, epoch: Duration, driver: &DriverConfig) -> RunResult {
    tcp_ycsb_run_tuned(cfg, epoch, driver, |c| c)
}

/// [`tcp_ycsb_run`] with a hook over each node's configuration, for
/// ablations that toggle one knob (compaction, durability) while keeping the
/// workload and epoch schedule identical. The hook runs once per node.
pub fn tcp_ycsb_run_tuned(
    cfg: &YcsbConfig,
    epoch: Duration,
    driver: &DriverConfig,
    tune: impl Fn(NodeConfig) -> NodeConfig,
) -> RunResult {
    let transports = tcp_mesh(cfg.partitions);
    let origin = UnixClock::unix_now_micros();
    let nodes: Vec<Arc<Node>> = transports
        .iter()
        .enumerate()
        .map(|(i, transport)| {
            let mut builder = Node::builder(tune(
                NodeConfig::new(ServerId(i as u16), cfg.partitions, origin)
                    .with_epoch_duration(epoch),
            ));
            ycsb::install_aloha_node(&mut builder);
            let net: Arc<dyn Transport<ServerMsg>> = Arc::clone(transport) as _;
            Arc::new(builder.start(net).expect("start node"))
        })
        .collect();
    for node in &nodes {
        ycsb::load_aloha_node(node, cfg);
    }
    let workload = NodeYcsb {
        nodes: nodes.clone(),
        cfg: Arc::new(cfg.clone()),
    };
    let report = run_windowed(&workload, driver);
    let snapshot = nodes[0].snapshot();
    drop(workload);
    for node in nodes {
        match Arc::try_unwrap(node) {
            Ok(node) => node.shutdown(),
            Err(_) => unreachable!("workload dropped; nodes are uniquely held"),
        }
    }
    RunResult::from_parts(&report, snapshot)
}

// ---------------------------------------------------------------------------
// Multi-process launcher
// ---------------------------------------------------------------------------

/// Launcher options (a deployment manifest in miniature).
#[derive(Debug, Clone)]
pub struct LaunchOpts {
    /// Total node processes (= servers = partitions).
    pub servers: u16,
    /// How many of them drive workload (nodes `0..drivers` act as FEs for
    /// the generated transactions; every node still coordinates remote
    /// installs as a BE).
    pub drivers: u16,
    /// Transactions submitted per driver node.
    pub txns_per_driver: u64,
    /// Unified epoch duration.
    pub epoch: Duration,
    /// Keys per partition (small for smoke runs: the verifier reads the
    /// whole key space back).
    pub keys_per_partition: u32,
    /// SIGKILL one non-driver node mid-run and respawn it over its durable
    /// WAL (forces `durable = true`).
    pub kill: bool,
    /// Give every node a crash-durable WAL under the scratch directory.
    pub durable: bool,
    /// Scratch directory for WALs, history dumps and final-state dumps.
    /// [`launch`] refuses one that already holds a node WAL (`wal-*`).
    pub scratch: PathBuf,
}

impl LaunchOpts {
    /// A 2-FE/4-BE loopback smoke deployment writing scratch files under
    /// `scratch`.
    pub fn smoke(scratch: impl Into<PathBuf>) -> LaunchOpts {
        LaunchOpts {
            servers: 4,
            drivers: 2,
            txns_per_driver: 300,
            epoch: Duration::from_millis(5),
            keys_per_partition: 256,
            kill: false,
            durable: false,
            scratch: scratch.into(),
        }
    }

    fn ycsb(&self) -> YcsbConfig {
        YcsbConfig::with_contention_index(self.servers, 0.1)
            .with_keys_per_partition(self.keys_per_partition)
    }
}

/// What a [`launch`] run measured and concluded.
#[derive(Debug)]
pub struct LaunchReport {
    /// Committed transactions across all drivers.
    pub committed: u64,
    /// Aborted transactions across all drivers.
    pub aborted: u64,
    /// Commit records merged across the driver nodes.
    pub history_records: usize,
    /// Keys whose final value diverged from the serial replay (empty =
    /// the merged history is serializable and the state matches).
    pub divergences: usize,
    /// Whether a node process was killed and respawned during the run.
    pub killed: bool,
}

/// One child process and the line-based channel to it.
struct ChildProc {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    port: u16,
}

impl ChildProc {
    /// Spawns one node child of the current executable and reads its PORT
    /// line.
    fn spawn(
        id: u16,
        opts: &LaunchOpts,
        origin: u64,
        record_history: bool,
    ) -> std::io::Result<ChildProc> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg(CHILD_FLAG)
            .arg("--id")
            .arg(id.to_string())
            .arg("--servers")
            .arg(opts.servers.to_string())
            .arg("--epoch-micros")
            .arg(opts.epoch.as_micros().to_string())
            .arg("--origin")
            .arg(origin.to_string())
            .arg("--keys")
            .arg(opts.keys_per_partition.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if record_history {
            cmd.arg("--history");
        }
        if opts.durable || opts.kill {
            cmd.arg("--wal").arg(opts.scratch.join(format!("wal-{id}")));
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let port = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("child {id} said {line:?}, expected PORT"),
                )
            })?;
        Ok(ChildProc {
            child,
            stdin,
            stdout,
            port,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.stdin, "{line}")?;
        self.stdin.flush()
    }

    /// Reads one line and checks its first token.
    fn expect(&mut self, token: &str) -> std::io::Result<Vec<String>> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let mut parts = line.split_whitespace().map(str::to_string);
        match parts.next() {
            Some(t) if t == token => Ok(parts.collect()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected {token}, child said {other:?} ({line:?})"),
            )),
        }
    }
}

/// Runs a full multi-process deployment per `opts` and verifies the merged
/// history. See the module docs for the protocol.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] before spawning anything
/// when the scratch directory holds a previous run's WAL. Process
/// management and protocol violations surface as `Err`; a serializability
/// divergence is reported in the `Ok` report (callers decide whether to
/// fail).
pub fn launch(opts: &LaunchOpts) -> std::io::Result<LaunchReport> {
    std::fs::create_dir_all(&opts.scratch)?;
    refuse_stale_wal(&opts.scratch)?;
    let origin = UnixClock::unix_now_micros();
    let mut children: Vec<ChildProc> = (0..opts.servers)
        .map(|id| ChildProc::spawn(id, opts, origin, id < opts.drivers))
        .collect::<std::io::Result<_>>()?;

    broadcast_peers(&mut children)?;
    for child in &mut children {
        child.expect("READY")?;
    }

    // Drivers run concurrently: send all `run`s, then collect all `DONE`s
    // (each driver is single-threaded; deployment parallelism comes from
    // running several driver processes).
    for (i, child) in children.iter_mut().enumerate().take(opts.drivers as usize) {
        child.send(&format!(
            "run {} {}",
            opts.txns_per_driver,
            0xA10A + i as u64
        ))?;
    }

    let mut killed = false;
    if opts.kill {
        // Kill the last node — never a driver (drivers hold the workload
        // loops), never node 0 (it hosts the epoch manager). The victim's
        // partition goes dark mid-run; drivers ride it out on RPC
        // retransmission until the respawned process recovers from its WAL
        // and rejoins on a fresh ephemeral port (`add_peer` overwrites, so
        // a peer-map rebroadcast redirects everyone).
        let victim = (opts.servers - 1) as usize;
        assert!(victim >= opts.drivers as usize, "need a non-driver to kill");
        std::thread::sleep(Duration::from_millis(200));
        children[victim].child.kill()?;
        let _ = children[victim].child.wait();
        std::thread::sleep(Duration::from_millis(100));
        children[victim] = ChildProc::spawn(victim as u16, opts, origin, false)?;
        broadcast_peers(&mut children)?;
        children[victim].expect("READY")?;
        killed = true;
    }

    let mut committed = 0;
    let mut aborted = 0;
    for child in children.iter_mut().take(opts.drivers as usize) {
        let parts = child.expect("DONE")?;
        committed += parts
            .first()
            .and_then(|p| p.parse::<u64>().ok())
            .unwrap_or(0);
        aborted += parts
            .get(1)
            .and_then(|p| p.parse::<u64>().ok())
            .unwrap_or(0);
    }

    // Merge the driver histories.
    let mut records = Vec::new();
    for (i, child) in children.iter_mut().enumerate().take(opts.drivers as usize) {
        let path = opts.scratch.join(format!("history-{i}.bin"));
        child.send(&format!("dump-history {}", path.display()))?;
        child.expect("DUMPED")?;
        records.extend(read_history(&path)?);
    }
    records.sort_by_key(|r| r.ts);

    // Final state, read through the live deployment by node 0. Node 0's
    // session knows only its own commits, so the newest merged commit
    // timestamp rides along as a causality token covering every driver's.
    let finals_path = opts.scratch.join("finals.bin");
    let newest = records.last().map_or(0, |r| r.ts.raw());
    children[0].send(&format!("read-finals {} {newest}", finals_path.display()))?;
    children[0].expect("READ")?;
    let actual = read_finals(&finals_path)?;

    for child in &mut children {
        child.send("exit")?;
    }
    for child in &mut children {
        let _ = child.child.wait();
    }

    // Serial replay: the loaded zero rows enter as one synthetic bottom
    // record below every transaction timestamp (loads install at version 1).
    let cfg = opts.ycsb();
    let bottom = CommitRecord {
        ts: Timestamp::from_raw(1),
        writes: ycsb::all_keys(&cfg)
            .into_iter()
            .map(|k| (k, Functor::Value(Value::from_i64(0))))
            .collect(),
        reads: Vec::new(),
        aborted_at_install: false,
    };
    let mut all = vec![bottom];
    all.extend(records);
    let history_records = all.len() - 1;
    let expected = replay_history(&all, &HandlerRegistry::new())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let divergences = diff_states(&expected, &actual);

    Ok(LaunchReport {
        committed,
        aborted,
        history_records,
        divergences: divergences.len(),
        killed,
    })
}

/// Fails when `scratch` holds a `wal-*` entry: every child opens
/// `wal-<id>` there and would recover that earlier run's partition, so its
/// final state could never match this run's history.
fn refuse_stale_wal(scratch: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(scratch)? {
        let path = entry?.path();
        let stale = path
            .file_name()
            .is_some_and(|name| name.to_string_lossy().starts_with("wal-"));
        if stale {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "scratch already holds {}: a launch needs a fresh scratch directory",
                    path.display()
                ),
            ));
        }
    }
    Ok(())
}

/// Sends every child the full peer address map.
fn broadcast_peers(children: &mut [ChildProc]) -> std::io::Result<()> {
    let peers: Vec<String> = children
        .iter()
        .map(|c| format!("127.0.0.1:{}", c.port))
        .collect();
    let line = format!("peers {}", peers.join(" "));
    for child in children.iter_mut() {
        child.send(&line)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Parsed [`CHILD_FLAG`] argv.
struct ChildArgs {
    id: u16,
    servers: u16,
    epoch: Duration,
    origin: u64,
    keys: u32,
    history: bool,
    wal: Option<PathBuf>,
}

fn parse_child_args(args: &[String]) -> std::result::Result<ChildArgs, String> {
    let mut out = ChildArgs {
        id: 0,
        servers: 0,
        epoch: Duration::from_millis(25),
        origin: 0,
        keys: 256,
        history: false,
        wal: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--id" => out.id = value()?.parse().map_err(|e| format!("--id: {e}"))?,
            "--servers" => {
                out.servers = value()?.parse().map_err(|e| format!("--servers: {e}"))?;
            }
            "--epoch-micros" => {
                out.epoch = Duration::from_micros(
                    value()?
                        .parse()
                        .map_err(|e| format!("--epoch-micros: {e}"))?,
                );
            }
            "--origin" => out.origin = value()?.parse().map_err(|e| format!("--origin: {e}"))?,
            "--keys" => out.keys = value()?.parse().map_err(|e| format!("--keys: {e}"))?,
            "--history" => out.history = true,
            "--wal" => out.wal = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown child argument '{other}'")),
        }
    }
    if out.servers == 0 {
        return Err("--servers required".into());
    }
    Ok(out)
}

/// Entry point for a [`CHILD_FLAG`] process: runs one node until `exit`.
/// `args` excludes the flag itself. Never returns normally — the process
/// exits 0 on a clean `exit`, 1 on a protocol or startup failure.
pub fn child_main(args: &[String]) -> ! {
    let code = match run_child(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("node child failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run_child(args: &[String]) -> std::result::Result<(), String> {
    let args = parse_child_args(args)?;
    let cfg =
        YcsbConfig::with_contention_index(args.servers, 0.1).with_keys_per_partition(args.keys);

    let tcp = Arc::new(
        TcpTransport::bind("127.0.0.1:0", Arc::new(ServerMsgCodec))
            .map_err(|e| format!("bind: {e}"))?,
    );
    println!("PORT {}", tcp.local_addr().port());

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut next = || -> std::result::Result<String, String> {
        lines
            .next()
            .ok_or("launcher hung up".to_string())?
            .map_err(|e| e.to_string())
    };

    // Phase 1: peer map.
    let line = next()?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("peers") {
        return Err(format!("expected peers, got {line:?}"));
    }
    apply_peers(&tcp, &args, parts)?;

    // Phase 2: start the node and load owned rows.
    let mut node_config = NodeConfig::new(ServerId(args.id), args.servers, args.origin)
        .with_epoch_duration(args.epoch)
        // Process kill + respawn leaves a partition dark for a while;
        // per-attempt timeouts well above the epoch keep retransmission
        // alive across it without stalling the no-fault path.
        .with_rpc_timeout(Duration::from_millis(500));
    if args.history {
        node_config = node_config.with_history();
    }
    if let Some(dir) = &args.wal {
        // Multi-process deployments need per-append kernel flushes: the
        // install ack travels to a remote coordinator that commits on the
        // strength of it, so a SIGKILL must not eat acked installs still
        // sitting in a userspace buffer.
        node_config =
            node_config.with_durable_log(DurableLogSpec::new(dir).with_flush_appends(true));
    }
    let mut builder = Node::builder(node_config);
    ycsb::install_aloha_node(&mut builder);
    let net: Arc<dyn Transport<ServerMsg>> = Arc::clone(&tcp) as _;
    let node = Arc::new(builder.start(net).map_err(|e| format!("start node: {e}"))?);
    ycsb::load_aloha_node(&node, &cfg);
    println!("READY");

    // Phase 3: command loop. `run` executes on a worker thread so the loop
    // stays responsive — a `peers` rebroadcast must be applied *while* the
    // workload runs, or a killed-and-respawned peer would stay unreachable
    // exactly when retransmission needs its new address.
    let mut worker: Option<std::thread::JoinHandle<()>> = None;
    loop {
        let line = next()?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("run") => {
                let txns: u64 = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("run needs a txn count")?;
                let seed: u64 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
                let node = Arc::clone(&node);
                let cfg = cfg.clone();
                worker = Some(std::thread::spawn(move || {
                    let (committed, aborted) = drive(&node, &cfg, txns, seed);
                    println!("DONE {committed} {aborted}");
                }));
            }
            Some("dump-history") => {
                let path = PathBuf::from(parts.next().ok_or("dump-history needs a path")?);
                let records = node.history().map(|h| h.snapshot()).unwrap_or_default();
                write_history(&path, &records).map_err(|e| e.to_string())?;
                println!("DUMPED {}", records.len());
            }
            Some("read-finals") => {
                let path = PathBuf::from(parts.next().ok_or("read-finals needs a path")?);
                let newest: u64 = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or("read-finals needs a timestamp")?;
                node.note_observed(Timestamp::from_raw(newest));
                let keys = ycsb::all_keys(&cfg);
                let values = node
                    .read_latest(&keys)
                    .map_err(|e| format!("final read: {e}"))?;
                write_finals(&path, &keys, &values).map_err(|e| e.to_string())?;
                println!("READ {}", keys.len());
            }
            Some("peers") => {
                // Rebroadcast after a peer respawned on a new port;
                // `add_peer` overwrites, redirecting future sends.
                apply_peers(&tcp, &args, parts)?;
            }
            Some("exit") | None => {
                if let Some(worker) = worker.take() {
                    let _ = worker.join();
                }
                if let Ok(node) = Arc::try_unwrap(node) {
                    node.shutdown();
                }
                return Ok(());
            }
            Some(other) => return Err(format!("unknown command '{other}'")),
        }
    }
}

/// Applies a `peers <addr0> ...` line to this child's transport. Runs both
/// at startup and when the launcher rebroadcasts after a respawn.
fn apply_peers(
    tcp: &TcpTransport<ServerMsg>,
    args: &ChildArgs,
    parts: std::str::SplitWhitespace<'_>,
) -> std::result::Result<(), String> {
    let peers: Vec<SocketAddr> = parts
        .map(|p| p.parse().map_err(|e| format!("bad peer '{p}': {e}")))
        .collect::<std::result::Result<_, String>>()?;
    if peers.len() != args.servers as usize {
        return Err(format!(
            "peer map has {} entries for {} servers",
            peers.len(),
            args.servers
        ));
    }
    for (j, at) in peers.iter().enumerate() {
        if j as u16 != args.id {
            tcp.add_peer(Addr::Server(ServerId(j as u16)), *at);
        }
    }
    if args.id != 0 {
        tcp.add_peer(Addr::EpochManager, peers[0]);
    }
    Ok(())
}

/// Submits `txns` YCSB transactions through this node's FE with a bounded
/// in-flight window, waiting each batch out. Single-threaded: deployment
/// parallelism comes from several driver processes.
fn drive(node: &Node, cfg: &YcsbConfig, txns: u64, seed: u64) -> (u64, u64) {
    const WINDOW: usize = 32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut committed, mut aborted) = (0u64, 0u64);
    let mut inflight = Vec::with_capacity(WINDOW);
    let mut submitted = 0u64;
    while submitted < txns || !inflight.is_empty() {
        while submitted < txns && inflight.len() < WINDOW {
            // Bias the first key toward this node so coordination stays
            // mostly local, as each driver fronts its own clients.
            let mut keys = ycsb::gen_txn_keys(&mut rng, cfg);
            if rng.gen_bool(0.5) {
                let n = keys.len();
                keys.rotate_left(rng.gen_range(0..n));
            }
            if let Ok(handle) = node.execute(ycsb::YCSB_ALOHA, ycsb::encode_txn_args(&keys)) {
                inflight.push(handle);
            } else {
                aborted += 1;
            }
            submitted += 1;
        }
        for handle in inflight.drain(..) {
            match handle.wait_processed() {
                Ok(TxnOutcome::Committed) => committed += 1,
                _ => aborted += 1,
            }
        }
    }
    (committed, aborted)
}

// ---------------------------------------------------------------------------
// History / finals dump codecs (launcher-internal files)
// ---------------------------------------------------------------------------

fn write_history(path: &Path, records: &[CommitRecord]) -> std::io::Result<()> {
    let mut w = Writer::new();
    w.put_u32(records.len() as u32);
    for record in records {
        w.put_u64(record.ts.raw());
        w.put_u8(u8::from(record.aborted_at_install));
        w.put_u32(record.writes.len() as u32);
        for (key, functor) in &record.writes {
            w.put_bytes(key.as_bytes());
            encode_functor(&mut w, functor);
        }
    }
    std::fs::write(path, w.into_bytes())
}

fn read_history(path: &Path) -> std::io::Result<Vec<CommitRecord>> {
    let bytes = std::fs::read(path)?;
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut r = Reader::new(&bytes);
    let n = r.get_u32().map_err(|e| invalid(e.to_string()))?;
    let mut records = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let ts = Timestamp::from_raw(r.get_u64().map_err(|e| invalid(e.to_string()))?);
        let aborted_at_install = r.get_u8().map_err(|e| invalid(e.to_string()))? != 0;
        let writes_len = r.get_u32().map_err(|e| invalid(e.to_string()))?;
        let mut writes = Vec::with_capacity(writes_len as usize);
        for _ in 0..writes_len {
            let key = Key::from(r.get_bytes().map_err(|e| invalid(e.to_string()))?.to_vec());
            let functor = decode_functor(&mut r).map_err(|e| invalid(e.to_string()))?;
            writes.push((key, functor));
        }
        records.push(CommitRecord {
            ts,
            writes,
            reads: Vec::new(),
            aborted_at_install,
        });
    }
    Ok(records)
}

fn write_finals(path: &Path, keys: &[Key], values: &[Option<Value>]) -> std::io::Result<()> {
    let mut w = Writer::new();
    w.put_u32(keys.len() as u32);
    for (key, value) in keys.iter().zip(values) {
        w.put_bytes(key.as_bytes());
        match value {
            Some(v) => {
                w.put_u8(1).put_bytes(v.as_bytes());
            }
            None => {
                w.put_u8(0);
            }
        }
    }
    std::fs::write(path, w.into_bytes())
}

fn read_finals(path: &Path) -> std::io::Result<HashMap<Key, Option<Value>>> {
    let bytes = std::fs::read(path)?;
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut r = Reader::new(&bytes);
    let n = r.get_u32().map_err(|e| invalid(e.to_string()))?;
    let mut map = HashMap::with_capacity(n as usize);
    for _ in 0..n {
        let key = Key::from(r.get_bytes().map_err(|e| invalid(e.to_string()))?.to_vec());
        let value = match r.get_u8().map_err(|e| invalid(e.to_string()))? {
            0 => None,
            _ => Some(Value::from(
                r.get_bytes().map_err(|e| invalid(e.to_string()))?.to_vec(),
            )),
        };
        map.insert(key, value);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use aloha_common::tempdir::TempDir;

    use super::*;

    #[test]
    fn launch_refuses_a_scratch_holding_a_wal() {
        let dir = TempDir::new("launch-stale-wal");
        std::fs::create_dir(dir.path().join("wal-0")).unwrap();
        let err = launch(&LaunchOpts::smoke(dir.path())).expect_err("stale WAL must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("wal-0"), "{err}");
    }
}
