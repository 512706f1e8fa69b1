//! The four pinned workloads: how each deploys ALOHA-DB, the operations it
//! generates from the seed, and the correctness check that runs after the
//! measured window.
//!
//! Every workload runs 4 servers with 2 processors each, 25 ms epochs (the
//! paper's value), snapshot reads, no write-ahead log, no batching and no
//! control plane. Each mixes read-only transactions into its stream, so
//! commit and read latency are measured on every workload: YCSB-B's 95 %
//! reads, TPC-C's Order-Status and Stock-Level, and on the paper's pure
//! read-modify-write YCSB the fewest reads that give the read median its
//! samples.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_bench::multiproc::tcp_mesh;
use aloha_common::clock::UnixClock;
use aloha_common::stats::StatsSnapshot;
use aloha_common::{Key, ServerId, Timestamp, Value};
use aloha_core::{
    Cluster, ClusterConfig, Database, Node, NodeConfig, ProgramId, ServerMsg, TxnHandle, TxnOutcome,
};
use aloha_net::Transport;
use aloha_workloads::tpcc::aloha::{self as tpcc_aloha, NEW_ORDER, PAYMENT};
use aloha_workloads::tpcc::gen::{gen_new_order, gen_payment, nurand_customer};
use aloha_workloads::tpcc::{OrderLineRow, OrderRow, StockRow, TpccConfig};
use aloha_workloads::ycsb::{self, YcsbConfig, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::epochtap::EpochTap;
use crate::openloop::{Issued, Kind, OpRecord, Outcome, Target};

/// Servers (= partitions) in every deployment.
pub const SERVERS: u16 = 4;
/// Functor processor threads per server.
const PROCESSORS: usize = 2;
/// The unified epoch (the paper's 25 ms).
pub const EPOCH: Duration = Duration::from_millis(25);
/// YCSB rows per partition: 1 M rows in all, far larger than CPU caches.
const YCSB_KEYS_PER_PARTITION: u32 = 250_000;
/// YCSB contention index: one of 10 hot keys per partition, the most
/// contended point of the paper's Fig 9.
const YCSB_CONTENTION: f64 = 0.1;
/// YCSB-B request skew.
const ZIPF_THETA: f64 = 0.99;
/// YCSB-B compaction: sweep every 40 epochs (1 s), keep one committed
/// version. A sweep walks all 1 M chains; every 4 epochs the sweeper ran
/// back to back and doubled the CPU per operation.
const SWEEP_EPOCHS: u32 = 40;
/// Rows per final-state read.
const CHECK_CHUNK: usize = 512;

/// Which deployment and transaction mix a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Paper YCSB read-modify-write on the simulated bus.
    YcsbRmw,
    /// The same over the in-process TCP loopback mesh.
    YcsbRmwTcp,
    /// Zipfian snapshot reads beside writes, with compaction.
    YcsbB,
    /// TPC-C NewOrder + Payment, with Order-Status and Stock-Level reads,
    /// at standard scale.
    TpccMix,
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// What it runs.
    pub shape: Shape,
    /// Offered write transactions per second.
    pub writes_per_s: f64,
    /// Share of operations that are read-only transactions.
    pub read_share: f64,
}

impl Spec {
    /// Offered load: operations per second, on a fixed-interval schedule.
    pub fn rate(&self) -> f64 {
        self.writes_per_s / (1.0 - self.read_share)
    }
}

/// Read share of the paper's pure read-modify-write YCSB, whose reads exist
/// only to give `read_p50_ms` its samples: the least share that yields
/// 1 000 reads in a 15 s window at 2 000 writes/s (one read in 30
/// operations). At 1 000 samples the median's rank has a standard error of
/// 0.5/√n, 1.6 percentile points.
const YCSB_RMW_READ_SHARE: f64 = 1.0 / 30.0;
/// TPC-C's read-only transactions, Order-Status and Stock-Level, at the 4 %
/// each of the standard's minimum mix; NewOrder and Payment split the rest.
const TPCC_READ_SHARE: f64 = 0.08;
/// Stock-Level's parameters (TPC-C §2.8): the district's last 20 orders,
/// against a threshold drawn from 10..=20.
const STOCK_LEVEL_ORDERS: i64 = 20;

/// The pinned workloads. Rates sit at 20–35 % of measured capacity.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ycsb-rmw",
        why: "Paper YCSB read-modify-write at contention 0.1 on the simulated bus: install, epoch switch and builtin-functor computing, no background work.",
        shape: Shape::YcsbRmw,
        writes_per_s: 2000.0,
        read_share: YCSB_RMW_READ_SHARE,
    },
    Spec {
        name: "ycsb-rmw-tcp",
        why: "ycsb-rmw unchanged over the TCP loopback mesh, one Node per partition: the only workload crossing net::tcp, core::wire and core::node.",
        shape: Shape::YcsbRmwTcp,
        writes_per_s: 2000.0,
        read_share: YCSB_RMW_READ_SHARE,
    },
    Spec {
        name: "ycsb-b",
        why: "95 % zipfian multi-partition snapshot reads beside 5 % writes with the compaction sweeper on: the read path and the only background sweep.",
        shape: Shape::YcsbB,
        writes_per_s: 250.0,
        read_share: 0.95,
    },
    Spec {
        name: "tpcc-mix",
        why: "TPC-C NewOrder and Payment beside Order-Status and Stock-Level at 4 % each, standard scale, 1 % invalid items: user-defined and determinate functors, deferred writes, the abort round.",
        shape: Shape::TpccMix,
        writes_per_s: 2000.0,
        read_share: TPCC_READ_SHARE,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn ycsb_config() -> YcsbConfig {
    YcsbConfig::with_contention_index(SERVERS, YCSB_CONTENTION)
        .with_keys_per_partition(YCSB_KEYS_PER_PARTITION)
}

fn tpcc_config() -> TpccConfig {
    TpccConfig::by_warehouse(SERVERS, 2)
        .with_items(100_000)
        .with_customers(3_000)
}

/// What the correctness check needs to know about an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A YCSB write: each of its keys gains one if it commits.
    Increments,
    /// A NewOrder of district (w, d); it must abort exactly when `invalid`.
    NewOrder { w: u32, d: u32, invalid: bool },
    /// A Payment of `amount` cents into warehouse `w`.
    Payment { w: u32, amount: i64 },
    /// A YCSB read of `keys`: every key must return a value.
    Read,
    /// TPC-C Order-Status of customer `c` of district (w, d): an order it
    /// finds must come with all its lines.
    OrderStatus { w: u32, d: u32, c: u32 },
    /// TPC-C Stock-Level of district (w, d) below `threshold`.
    StockLevel { w: u32, d: u32, threshold: i64 },
}

/// One generated operation; the system receives only `args`, `keys` or a
/// TPC-C read's parameters.
#[derive(Debug, Clone)]
pub struct Op {
    /// Read or write.
    pub kind: Kind,
    /// Coordinating front-end of a write.
    pub fe: u16,
    /// Program of a write.
    pub program: ProgramId,
    /// Program arguments of a write.
    pub args: Vec<u8>,
    /// Keys a YCSB write increments, or the keys a read reads.
    pub keys: Vec<Key>,
    /// What the check expects of it.
    pub expect: Expect,
}

impl Op {
    fn read(keys: Vec<Key>, expect: Expect) -> Op {
        Op {
            kind: Kind::Read,
            fe: 0,
            program: ProgramId(0),
            args: Vec::new(),
            keys,
            expect,
        }
    }

    fn write(fe: u16, program: ProgramId, args: Vec<u8>, keys: Vec<Key>, expect: Expect) -> Op {
        Op {
            kind: Kind::Write,
            fe,
            program,
            args,
            keys,
            expect,
        }
    }

    /// Whether `outcome` is a failure for this operation: TPC-C logic aborts
    /// of NewOrder are outcomes, every other abort is a failure.
    pub fn failed(&self, outcome: Outcome) -> bool {
        match outcome {
            Outcome::Committed => false,
            Outcome::Failed => true,
            Outcome::Aborted => !matches!(self.expect, Expect::NewOrder { .. }),
        }
    }
}

/// Generates `n` operations for `shape` from `seed`.
pub fn generate(spec: &Spec, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let reads = |rng: &mut SmallRng| rng.gen_bool(spec.read_share);
    match spec.shape {
        Shape::YcsbRmw | Shape::YcsbRmwTcp => {
            let cfg = ycsb_config();
            (0..n)
                .map(|_| {
                    let read = reads(&mut rng);
                    let keys = ycsb::gen_txn_keys(&mut rng, &cfg);
                    ycsb_op(read, keys)
                })
                .collect()
        }
        Shape::YcsbB => {
            let cfg = ycsb_config();
            let zipf = Zipf::new(cfg.keys_per_partition as u64, ZIPF_THETA);
            (0..n)
                .map(|_| {
                    let read = reads(&mut rng);
                    let keys = ycsb::gen_zipf_keys(&mut rng, &cfg, &zipf);
                    ycsb_op(read, keys)
                })
                .collect()
        }
        Shape::TpccMix => {
            let cfg = tpcc_config();
            (0..n)
                .map(|_| {
                    if reads(&mut rng) {
                        let w = rng.gen_range(0..cfg.warehouses);
                        let d = rng.gen_range(0..cfg.districts);
                        let expect = if rng.gen_bool(0.5) {
                            let c = nurand_customer(&mut rng, cfg.customers_per_district);
                            Expect::OrderStatus { w, d, c }
                        } else {
                            let threshold = rng.gen_range(10..=20);
                            Expect::StockLevel { w, d, threshold }
                        };
                        return Op::read(Vec::new(), expect);
                    }
                    if rng.gen_bool(0.5) {
                        let req = gen_new_order(&mut rng, &cfg, true);
                        let fe = cfg.district_noid_key(req.w, req.d).partition(SERVERS).0;
                        let expect = Expect::NewOrder {
                            w: req.w,
                            d: req.d,
                            invalid: req.has_invalid_item(),
                        };
                        Op::write(fe, NEW_ORDER, req.encode(), Vec::new(), expect)
                    } else {
                        let req = gen_payment(&mut rng, &cfg);
                        let fe = cfg.partition_of_route(req.w);
                        let expect = Expect::Payment {
                            w: req.w,
                            amount: req.amount_cents,
                        };
                        Op::write(fe, PAYMENT, req.encode(), Vec::new(), expect)
                    }
                })
                .collect()
        }
    }
}

fn ycsb_op(read: bool, keys: Vec<Key>) -> Op {
    if read {
        return Op::read(keys, Expect::Read);
    }
    // Coordinate at the first key's owner, as `AlohaYcsb` does.
    let fe = keys[0].partition(SERVERS).0;
    let args = ycsb::encode_txn_args(&keys);
    Op::write(fe, ycsb::YCSB_ALOHA, args, keys, Expect::Increments)
}

fn all_present(values: &[Option<Value>]) -> bool {
    values.iter().all(Option::is_some)
}

/// A district's next order id, from its counter row.
fn next_o_id(row: &Option<Value>) -> i64 {
    row.as_ref()
        .and_then(Value::as_i64)
        .unwrap_or(TpccConfig::INITIAL_NEXT_O_ID)
}

/// Orders `ids` of district (w, d) and then all their lines, each set in
/// one snapshot read; `None` if an order or a line is missing.
fn orders_with_lines(
    db: &Database,
    cfg: &TpccConfig,
    w: u32,
    d: u32,
    ids: impl Iterator<Item = i64>,
) -> aloha_common::Result<Option<Vec<OrderLineRow>>> {
    let keys: Vec<Key> = ids.map(|o_id| cfg.order_key(w, d, o_id)).collect();
    let orders = db.read_latest(&keys)?;
    if !all_present(&orders) {
        return Ok(None);
    }
    let mut keys = Vec::new();
    for order in orders.iter().flatten() {
        let order = OrderRow::decode(order)?;
        keys.extend((0..order.ol_cnt).map(|n| cfg.orderline_key(w, d, order.o_id, n)));
    }
    let lines = db.read_latest(&keys)?;
    if !all_present(&lines) {
        return Ok(None);
    }
    lines
        .iter()
        .flatten()
        .map(OrderLineRow::decode)
        .collect::<aloha_common::Result<_>>()
        .map(Some)
}

/// TPC-C Order-Status (§2.6) of customer `c`: its balance and its newest
/// order among the 63 below the district's next order id, with the order's
/// lines. It reads the rows that `read_txns::order_status` reads, but in one
/// snapshot read per step rather than one per row. Row by row, Order-Status
/// and Stock-Level took 5.1 ms at the median on one client thread; at
/// TPC-C's share that is more than a second of reads per second, and the
/// client fell 0.9 s behind its schedule. Batched, they take 0.8 ms.
/// `false` if a row is missing.
fn order_status(db: &Database, w: u32, d: u32, c: u32) -> aloha_common::Result<bool> {
    let cfg = tpcc_config();
    let head = db.read_latest(&[cfg.cbal_key(w, d, c), cfg.district_noid_key(w, d)])?;
    if head[0].is_none() {
        return Ok(false);
    }
    let next = next_o_id(&head[1]);
    let lo = (next - 63).max(TpccConfig::INITIAL_NEXT_O_ID);
    let keys: Vec<Key> = (lo..next)
        .rev()
        .map(|o_id| cfg.order_key(w, d, o_id))
        .collect();
    let mut newest = None;
    for order in db.read_latest(&keys)?.iter().flatten() {
        let order = OrderRow::decode(order)?;
        if order.c_id == c {
            newest = Some(order.o_id);
            break;
        }
    }
    Ok(match newest {
        Some(o_id) => orders_with_lines(db, &cfg, w, d, std::iter::once(o_id))?.is_some(),
        None => true,
    })
}

/// TPC-C Stock-Level (§2.8): of the items on the district's last 20 orders,
/// how many have stock below `threshold`; a batched `read_txns::stock_level`
/// (see [`order_status`]). `None` if a row is missing.
fn stock_level(
    db: &Database,
    w: u32,
    d: u32,
    threshold: i64,
) -> aloha_common::Result<Option<usize>> {
    let cfg = tpcc_config();
    let next = next_o_id(&db.read_latest(&[cfg.district_noid_key(w, d)])?[0]);
    let lo = (next - STOCK_LEVEL_ORDERS).max(TpccConfig::INITIAL_NEXT_O_ID);
    let Some(lines) = orders_with_lines(db, &cfg, w, d, lo..next)? else {
        return Ok(None);
    };
    let items: BTreeSet<(u32, u32)> = lines.iter().map(|l| (l.supply_w, l.i_id)).collect();
    let keys: Vec<Key> = items.iter().map(|&(sw, i)| cfg.stock_key(sw, i)).collect();
    let stock = db.read_latest(&keys)?;
    if !all_present(&stock) {
        return Ok(None);
    }
    let mut low = 0;
    for row in stock.iter().flatten() {
        low += usize::from(StockRow::decode(row)?.quantity < threshold);
    }
    Ok(Some(low))
}

/// Set-up time of one deployment, split into its two phases.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Cluster or node start.
    pub start_s: f64,
    /// Data load, until the first request can be sent.
    pub load_s: f64,
}

impl SetupTime {
    /// Start plus load.
    pub fn total_s(&self) -> f64 {
        self.start_s + self.load_s
    }
}

/// A running deployment, driven only through the public client API.
#[allow(clippy::large_enum_variant)] // one per run, never moved on a hot path
pub enum Deployment {
    /// One in-process cluster on the simulated bus. Readers and writers use
    /// separate `Database` sessions, as separate client machines would.
    Sim {
        /// The cluster.
        cluster: Cluster,
        /// The writers' session.
        writers: Database,
        /// The readers' session.
        readers: Database,
    },
    /// One `Node` per partition, cross-wired over loopback TCP.
    Tcp {
        /// The nodes, indexed by server id.
        nodes: Vec<Node>,
        /// Node 0's transport, which carries the epoch manager's messages.
        tap: Arc<EpochTap>,
        /// The reader session's floor: the highest snapshot it was served,
        /// kept apart from the nodes' own write sessions exactly as a
        /// separate `Database` handle keeps it.
        floor: AtomicU64,
        /// Round-robin front-end choice for reads.
        next: AtomicUsize,
    },
}

impl Deployment {
    /// Starts and loads the deployment `shape` runs on.
    ///
    /// # Panics
    ///
    /// Panics if the engine refuses to start.
    pub fn start(shape: Shape) -> (Deployment, SetupTime) {
        let t0 = Instant::now();
        let config = ClusterConfig::new(SERVERS)
            .with_epoch_duration(EPOCH)
            .with_processors(PROCESSORS);
        let deployment = match shape {
            Shape::YcsbRmw | Shape::YcsbB => {
                let config = if shape == Shape::YcsbB {
                    config.with_compaction(SWEEP_EPOCHS * EPOCH, 1)
                } else {
                    config
                };
                let mut builder = Cluster::builder(config);
                ycsb::install_aloha(&mut builder);
                let cluster = builder.start().expect("start cluster");
                let start_s = t0.elapsed().as_secs_f64();
                ycsb::load_aloha(&cluster, &ycsb_config());
                (Deployment::sim(cluster), start_s)
            }
            Shape::TpccMix => {
                let cfg = tpcc_config();
                let mut builder = Cluster::builder(config);
                tpcc_aloha::install(&mut builder, &cfg);
                let cluster = builder.start().expect("start cluster");
                let start_s = t0.elapsed().as_secs_f64();
                tpcc_aloha::load(&cluster, &cfg);
                (Deployment::sim(cluster), start_s)
            }
            Shape::YcsbRmwTcp => {
                let mut transports: Vec<Arc<dyn Transport<ServerMsg>>> = tcp_mesh(SERVERS)
                    .into_iter()
                    .map(|t| t as Arc<dyn Transport<ServerMsg>>)
                    .collect();
                let tap = Arc::new(EpochTap::new(Arc::clone(&transports[0]), SERVERS));
                transports[0] = Arc::clone(&tap) as _;
                let origin = UnixClock::unix_now_micros();
                let nodes: Vec<Node> = transports
                    .into_iter()
                    .enumerate()
                    .map(|(i, net)| {
                        let mut builder = Node::builder(
                            NodeConfig::new(ServerId(i as u16), SERVERS, origin)
                                .with_epoch_duration(EPOCH)
                                .with_processors(PROCESSORS),
                        );
                        ycsb::install_aloha_node(&mut builder);
                        builder.start(net).expect("start node")
                    })
                    .collect();
                let start_s = t0.elapsed().as_secs_f64();
                let cfg = ycsb_config();
                for node in &nodes {
                    ycsb::load_aloha_node(node, &cfg);
                }
                let deployment = Deployment::Tcp {
                    nodes,
                    tap,
                    floor: AtomicU64::new(0),
                    next: AtomicUsize::new(0),
                };
                (deployment, start_s)
            }
        };
        let (deployment, start_s) = deployment;
        let setup = SetupTime {
            start_s,
            load_s: t0.elapsed().as_secs_f64() - start_s,
        };
        (deployment, setup)
    }

    fn sim(cluster: Cluster) -> Deployment {
        let writers = cluster.database();
        let readers = cluster.database();
        Deployment::Sim {
            cluster,
            writers,
            readers,
        }
    }

    fn execute(&self, op: &Op) -> aloha_common::Result<TxnHandle> {
        match self {
            Deployment::Sim { writers, .. } => {
                writers.execute_at(ServerId(op.fe), op.program, op.args.clone())
            }
            Deployment::Tcp { nodes, .. } => {
                nodes[op.fe as usize].execute(op.program, op.args.clone())
            }
        }
    }

    /// Runs one read-only transaction; `false` if it came back incomplete:
    /// a key without a value, or an order without all its lines.
    fn read_txn(&self, op: &Op) -> Result<bool, String> {
        let db = || match self {
            Deployment::Sim { readers, .. } => Ok(readers),
            Deployment::Tcp { .. } => Err("TPC-C reads run on a cluster".to_string()),
        };
        let complete = match op.expect {
            Expect::OrderStatus { w, d, c } => order_status(db()?, w, d, c),
            Expect::StockLevel { w, d, threshold } => {
                stock_level(db()?, w, d, threshold).map(|low| low.is_some())
            }
            _ => self
                .read(&op.keys)
                .map(|values| values.len() == op.keys.len() && all_present(&values)),
        };
        complete.map_err(|e| e.to_string())
    }

    fn read(&self, keys: &[Key]) -> aloha_common::Result<Vec<Option<Value>>> {
        match self {
            Deployment::Sim { readers, .. } => readers.read_latest(keys),
            Deployment::Tcp {
                nodes, floor, next, ..
            } => {
                let fe = next.fetch_add(1, Ordering::Relaxed) % nodes.len();
                let at = Timestamp::from_raw(floor.load(Ordering::Relaxed));
                let (served, reads) = nodes[fe].server().snapshot_read_latest(keys, at)?;
                floor.fetch_max(served.raw(), Ordering::Relaxed);
                Ok(reads.into_iter().map(|r| r.value).collect())
            }
        }
    }

    /// Reads `keys` at a snapshot covering every write up to `after`.
    fn read_final(&self, keys: &[Key], after: Timestamp) -> Result<Vec<Option<Value>>, String> {
        let mut values = Vec::with_capacity(keys.len());
        match self {
            Deployment::Sim { cluster, .. } => {
                let db = cluster.database();
                db.note_observed(after);
                for chunk in keys.chunks(CHECK_CHUNK) {
                    values.extend(db.read_latest(chunk).map_err(|e| e.to_string())?);
                }
            }
            Deployment::Tcp { nodes, .. } => {
                nodes[0].note_observed(after);
                for chunk in keys.chunks(CHECK_CHUNK) {
                    values.extend(nodes[0].read_latest(chunk).map_err(|e| e.to_string())?);
                }
            }
        }
        Ok(values)
    }

    /// The engine's stats trees: the cluster's, or one per node plus the
    /// epoch manager's as node 0's transport saw it.
    pub fn snapshots(&self) -> Vec<StatsSnapshot> {
        match self {
            Deployment::Sim { cluster, .. } => vec![cluster.snapshot()],
            Deployment::Tcp { nodes, tap, .. } => {
                let mut trees: Vec<_> = nodes.iter().map(Node::snapshot).collect();
                trees.push(tap.snapshot());
                trees
            }
        }
    }

    /// Stops every server's epoch client, which unblocks pending waits.
    fn abort(&self) {
        match self {
            Deployment::Sim { cluster, .. } => {
                for server in cluster.servers() {
                    server.epoch().shutdown();
                }
            }
            Deployment::Tcp { nodes, .. } => {
                for node in nodes {
                    node.server().epoch().shutdown();
                }
            }
        }
    }

    /// Shuts the deployment down and joins its threads.
    pub fn shutdown(self) {
        match self {
            Deployment::Sim { cluster, .. } => cluster.shutdown(),
            Deployment::Tcp { nodes, .. } => {
                // Node 0 hosts the epoch manager: stop it last so the others
                // drain under advancing epochs.
                for node in nodes.into_iter().rev() {
                    node.shutdown();
                }
            }
        }
    }
}

/// The deployment as the load generator's target.
pub struct Bench<'a> {
    deployment: &'a Deployment,
    /// Reads that came back incomplete: a key without a value, or an order
    /// without all its lines.
    pub incomplete_reads: AtomicU64,
    /// Highest write timestamp waited on (raw).
    pub last_ts: AtomicU64,
}

impl<'a> Bench<'a> {
    /// Wraps a running deployment.
    pub fn new(deployment: &'a Deployment) -> Bench<'a> {
        Bench {
            deployment,
            incomplete_reads: AtomicU64::new(0),
            last_ts: AtomicU64::new(0),
        }
    }
}

impl Target for Bench<'_> {
    type Op = Op;
    type Handle = TxnHandle;

    fn kind(&self, op: &Op) -> Kind {
        op.kind
    }

    fn issue(&self, op: &Op) -> Result<Issued<TxnHandle>, String> {
        match op.kind {
            Kind::Read => {
                if !self.deployment.read_txn(op)? {
                    self.incomplete_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Issued::Done)
            }
            Kind::Write => self
                .deployment
                .execute(op)
                .map(Issued::Pending)
                .map_err(|e| e.to_string()),
        }
    }

    fn wait(&self, handle: TxnHandle) -> Result<Outcome, String> {
        self.last_ts
            .fetch_max(handle.timestamp().raw(), Ordering::Relaxed);
        match handle.wait_processed().map_err(|e| e.to_string())? {
            TxnOutcome::Committed => Ok(Outcome::Committed),
            TxnOutcome::Aborted => Ok(Outcome::Aborted),
        }
    }

    fn abort(&self) {
        self.deployment.abort();
    }
}

/// Checks the deployment's final state against what the committed
/// operations must have produced. Operations that failed may or may not
/// have applied, so they widen the accepted range instead of failing it.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check(
    spec: &Spec,
    deployment: &Deployment,
    ops: &[Op],
    records: &[OpRecord],
    bench: &Bench<'_>,
) -> Result<(), String> {
    let incomplete = bench.incomplete_reads.load(Ordering::Relaxed);
    if incomplete > 0 {
        return Err(format!(
            "{incomplete} reads came back without a key's value or an order's lines"
        ));
    }
    let after = Timestamp::from_raw(bench.last_ts.load(Ordering::Relaxed));
    match spec.shape {
        Shape::YcsbRmw | Shape::YcsbRmwTcp | Shape::YcsbB => {
            check_counters(deployment, ops, records, after)
        }
        Shape::TpccMix => check_tpcc(deployment, ops, records, after),
    }
}

/// Every touched key's counter equals the committed increments of it.
fn check_counters(
    deployment: &Deployment,
    ops: &[Op],
    records: &[OpRecord],
    after: Timestamp,
) -> Result<(), String> {
    // key → (committed increments, increments of failed writes)
    let mut expected: HashMap<&Key, (i64, i64)> = HashMap::new();
    for (op, r) in ops.iter().zip(records) {
        if op.expect != Expect::Increments {
            continue;
        }
        for key in &op.keys {
            let e = expected.entry(key).or_default();
            match r.outcome {
                Outcome::Committed => e.0 += 1,
                Outcome::Failed => e.1 += 1,
                Outcome::Aborted => {}
            }
        }
    }
    let keys: Vec<Key> = expected.keys().map(|k| (*k).clone()).collect();
    let values = deployment.read_final(&keys, after)?;
    for (key, value) in keys.iter().zip(values) {
        let (committed, unsure) = expected[key];
        let got = value.as_ref().and_then(Value::as_i64);
        match got {
            Some(v) if (committed..=committed + unsure).contains(&v) => {}
            other => {
                return Err(format!(
                    "key {key:?}: counter {other:?}, expected {committed} committed increments \
                     (+{unsure} unresolved)"
                ))
            }
        }
    }
    Ok(())
}

/// Aborted NewOrders are exactly the invalid-item ones, every district's
/// `next_o_id` advanced by its committed NewOrders, and every warehouse's
/// `w_ytd` equals its committed Payment amounts.
fn check_tpcc(
    deployment: &Deployment,
    ops: &[Op],
    records: &[OpRecord],
    after: Timestamp,
) -> Result<(), String> {
    let cfg = tpcc_config();
    // (w, d) → (committed, unresolved) NewOrders; w → (cents, unresolved).
    let mut orders: HashMap<(u32, u32), (i64, i64)> = HashMap::new();
    let mut ytd: HashMap<u32, (i64, i64)> = HashMap::new();
    let (mut invalid, mut aborted) = (0u64, 0u64);
    for (op, r) in ops.iter().zip(records) {
        match op.expect {
            Expect::NewOrder { w, d, invalid: bad } => {
                invalid += u64::from(bad);
                let e = orders.entry((w, d)).or_default();
                match r.outcome {
                    Outcome::Committed if bad => {
                        return Err(format!(
                            "a NewOrder with an invalid item committed ({w}, {d})"
                        ))
                    }
                    Outcome::Aborted if !bad => {
                        return Err(format!("a valid NewOrder aborted ({w}, {d})"))
                    }
                    Outcome::Committed => e.0 += 1,
                    Outcome::Aborted => aborted += 1,
                    Outcome::Failed => e.1 += 1,
                }
            }
            Expect::Payment { w, amount } => {
                let e = ytd.entry(w).or_default();
                match r.outcome {
                    Outcome::Committed => e.0 += amount,
                    _ => e.1 += 1,
                }
            }
            _ => {}
        }
    }
    let unresolved = records
        .iter()
        .zip(ops)
        .any(|(r, op)| r.outcome == Outcome::Failed && op.kind == Kind::Write);
    if aborted != invalid && !unresolved {
        return Err(format!(
            "{aborted} NewOrders aborted, {invalid} carried an invalid item"
        ));
    }

    let mut keys = Vec::new();
    let mut wanted = Vec::new();
    for w in 0..cfg.warehouses {
        for d in 0..cfg.districts {
            let (committed, unsure) = orders.get(&(w, d)).copied().unwrap_or_default();
            keys.push(cfg.district_noid_key(w, d));
            let base = TpccConfig::INITIAL_NEXT_O_ID + committed;
            wanted.push((format!("next_o_id({w}, {d})"), base, base + unsure));
        }
        let (cents, unsure) = ytd.get(&w).copied().unwrap_or_default();
        keys.push(cfg.wytd_key(w));
        let hi = if unsure > 0 { i64::MAX } else { cents };
        wanted.push((format!("w_ytd({w})"), cents, hi));
    }
    let values = deployment.read_final(&keys, after)?;
    for ((what, lo, hi), value) in wanted.into_iter().zip(values) {
        match value.as_ref().and_then(Value::as_i64) {
            Some(v) if (lo..=hi).contains(&v) => {}
            other => return Err(format!("{what} is {other:?}, expected {lo}..={hi}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for spec in &SPECS {
            let a = generate(spec, 7, 300);
            let b = generate(spec, 7, 300);
            let c = generate(spec, 8, 300);
            let args = |ops: &[Op]| {
                ops.iter()
                    .map(|o| (o.args.clone(), o.keys.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(args(&a), args(&b), "{}", spec.name);
            assert_ne!(args(&a), args(&c), "{}", spec.name);
        }
    }

    #[test]
    fn mixes_follow_their_specs() {
        for spec in &SPECS {
            let ops = generate(spec, 1, 4000);
            let reads = ops.iter().filter(|o| o.kind == Kind::Read).count() as f64;
            let share = reads / ops.len() as f64;
            assert!(
                (share - spec.read_share).abs() < 0.03,
                "{}: {share}",
                spec.name
            );
            for op in ops.iter().filter(|o| o.kind == Kind::Write) {
                assert!(op.fe < SERVERS);
            }
        }
        let tpcc = generate(&SPECS[3], 1, 4000);
        let invalid = tpcc
            .iter()
            .filter(|o| matches!(o.expect, Expect::NewOrder { invalid: true, .. }))
            .count();
        assert!(
            (5..60).contains(&invalid),
            "about 1 % of ~1800 NewOrders: {invalid}"
        );
    }

    #[test]
    fn logic_aborts_are_outcomes_only_for_new_orders() {
        let ops = generate(&SPECS[3], 3, 200);
        let new_order = ops
            .iter()
            .find(|o| matches!(o.expect, Expect::NewOrder { .. }))
            .unwrap();
        let payment = ops
            .iter()
            .find(|o| matches!(o.expect, Expect::Payment { .. }))
            .unwrap();
        assert!(!new_order.failed(Outcome::Aborted));
        assert!(payment.failed(Outcome::Aborted));
        assert!(new_order.failed(Outcome::Failed));
        assert!(!payment.failed(Outcome::Committed));
    }
}
