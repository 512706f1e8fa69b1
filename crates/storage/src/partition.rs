//! Algorithm 1 over one partition: `Compute`, `Func` and `Get`.
//!
//! A [`Partition`] owns the multi-version store of one backend (BE) and knows
//! how to resolve functors into final values. Everything that crosses a
//! partition boundary — remote reads, deferred installs for dependent keys,
//! proactive value pushes — is delegated to a [`ComputeEnv`] implemented by
//! the hosting server, which keeps this module free of networking and
//! independently testable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use aloha_common::metrics::Counter;
use aloha_common::stats::StatsSnapshot;
use aloha_common::{Error, Key, PartitionId, Result, Timestamp, Value};
use aloha_functor::{
    builtin, ComputeInput, Functor, HandlerOutput, HandlerRegistry, Reads, VersionedRead,
};
use parking_lot::{Mutex, RwLock};

use crate::chain::{ChainRead, FinalForm};
use crate::store::VersionedStore;

/// Cross-partition services needed while computing functors.
///
/// The engine implements this over its RPC layer; single-partition tests use
/// [`LocalOnlyEnv`], which fails loudly if a remote operation is attempted.
pub trait ComputeEnv: Send + Sync {
    /// Reads the latest final value of a key owned by *another* partition at
    /// version `<= bound` (a remote `Get`, triggering remote computing if
    /// necessary).
    ///
    /// # Errors
    ///
    /// Implementations report transport failures; [`LocalOnlyEnv`] always
    /// errors.
    fn remote_get(&self, key: &Key, bound: Timestamp) -> Result<VersionedRead>;

    /// Reads several keys at the same bound, returning the reads in `keys`
    /// order. The default delegates to [`remote_get`](ComputeEnv::remote_get)
    /// per key; the engine overrides this with one batched round trip per
    /// owning partition, fanned out in parallel — the functor-computing
    /// phase's gather step.
    ///
    /// # Errors
    ///
    /// Fails if any single read fails.
    fn remote_get_many(&self, keys: &[Key], bound: Timestamp) -> Result<Vec<VersionedRead>> {
        keys.iter().map(|k| self.remote_get(k, bound)).collect()
    }

    /// Installs a deferred write (dependent key, §IV-E) on the partition that
    /// owns `key`. Must be idempotent; `functor` is always a final form.
    ///
    /// # Errors
    ///
    /// Implementations report transport failures.
    fn install_deferred(&self, key: &Key, version: Timestamp, functor: Functor) -> Result<()>;

    /// Ensures a *remote* determinate key has been computed up to `upto`
    /// (i.e. its value watermark is at least `upto`) before a dependent key
    /// is read (§IV-E).
    ///
    /// # Errors
    ///
    /// Implementations report transport failures.
    fn ensure_computed(&self, key: &Key, upto: Timestamp) -> Result<()>;

    /// Proactively pushes `read` — the value of `source` just below
    /// `version` — toward the partition owning `recipient`, which caches it
    /// for the recipient functor's computing phase (§IV-B recipient set).
    /// Purely an optimization; the default implementation drops the push.
    fn push_value(&self, recipient: &Key, version: Timestamp, source: &Key, read: &VersionedRead) {
        let _ = (recipient, version, source, read);
    }
}

/// A [`ComputeEnv`] for single-partition deployments and unit tests: every
/// cross-partition operation is a hard error.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalOnlyEnv;

impl ComputeEnv for LocalOnlyEnv {
    fn remote_get(&self, key: &Key, _bound: Timestamp) -> Result<VersionedRead> {
        Err(Error::Disconnected(format!(
            "local-only env cannot read remote key {key:?}"
        )))
    }

    fn install_deferred(&self, key: &Key, _version: Timestamp, _functor: Functor) -> Result<()> {
        Err(Error::Disconnected(format!(
            "local-only env cannot install remote key {key:?}"
        )))
    }

    fn ensure_computed(&self, key: &Key, _upto: Timestamp) -> Result<()> {
        Err(Error::Disconnected(format!(
            "local-only env cannot reach remote key {key:?}"
        )))
    }
}

/// How many independently locked shards a [`PushCache`] uses. Power of two,
/// sized so the threads that compute functors and apply pushes (a server's
/// processors plus its executor's workers) rarely collide on one lock.
const PUSH_CACHE_SHARDS: usize = 16;

/// Cache of proactively pushed values, keyed by (functor version, source
/// key). Entries are written by pushes from determinate/recipient-set
/// computation and consumed by the functor-computing phase instead of issuing
/// a remote read.
///
/// Sharded by the source key's stable hash so concurrent computes of
/// different keys don't serialize on one global lock, and organized as
/// version → (source → read) inside a shard so [`PushCache::get`] is
/// allocation-free (no key clone to build a composite lookup key).
#[derive(Debug, Default)]
struct PushCacheShard {
    map: Mutex<HashMap<u64, HashMap<Key, VersionedRead>>>,
    /// Entry count mirror so [`PushCache::len`] never takes the lock: stats
    /// snapshots used to walk every shard and sum `HashMap::len` under each
    /// lock, serializing against the compute hot path.
    entries: AtomicUsize,
}

#[derive(Debug)]
pub struct PushCache {
    shards: Vec<PushCacheShard>,
    /// Probes answered from the cache ([`PushCache::get`] returning `Some`).
    hits: Counter,
    /// Probes that fell through to a store or remote read.
    misses: Counter,
}

impl Default for PushCache {
    fn default() -> PushCache {
        PushCache {
            shards: (0..PUSH_CACHE_SHARDS)
                .map(|_| PushCacheShard::default())
                .collect(),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }
}

impl PushCache {
    /// Creates an empty cache.
    pub fn new() -> PushCache {
        PushCache::default()
    }

    fn shard(&self, source: &Key) -> &PushCacheShard {
        &self.shards[(source.stable_hash() % PUSH_CACHE_SHARDS as u64) as usize]
    }

    /// Stores a pushed value.
    pub fn insert(&self, version: Timestamp, source: Key, read: VersionedRead) {
        let shard = self.shard(&source);
        let mut map = shard.map.lock();
        if map
            .entry(version.raw())
            .or_default()
            .insert(source, read)
            .is_none()
        {
            shard.entries.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Looks up a pushed value (non-consuming: several functors of the same
    /// transaction on this partition may read the same source key). Every
    /// probe lands in the hit/miss counters, so the `memory` stats subtree
    /// can report how often the cache short-circuits a read's first hop.
    pub fn get(&self, version: Timestamp, source: &Key) -> Option<VersionedRead> {
        let found = self
            .shard(source)
            .map
            .lock()
            .get(&version.raw())
            .and_then(|by_source| by_source.get(source))
            .cloned();
        match &found {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        found
    }

    /// Probes answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Probes that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drops entries for versions below `bound`; called when history settles.
    pub fn clear_below(&self, bound: Timestamp) {
        for shard in &self.shards {
            let mut map = shard.map.lock();
            let mut removed = 0;
            map.retain(|v, by_source| {
                if *v >= bound.raw() {
                    true
                } else {
                    removed += by_source.len();
                    false
                }
            });
            if removed > 0 {
                shard.entries.fetch_sub(removed, AtomicOrdering::Relaxed);
            }
        }
    }

    /// Number of cached pushes. Lock-free: reads the shard counters, so
    /// stats snapshots don't contend with the computing phase.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.load(AtomicOrdering::Relaxed))
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single dependent-key rule: maps a key to its determinate key, if any.
pub type DependencyFn = dyn Fn(&Key) -> Option<Key> + Send + Sync;

/// Schema-level rules mapping a dependent key to its determinate key
/// (§IV-E key dependency).
///
/// Example: in TPC-C the rows of the Order/NewOrder/OrderLine tables are
/// dependent keys whose order id is assigned by the determinate functor on
/// the district's `next_o_id` key; the registered rule maps each such row key
/// to that district key.
#[derive(Default)]
pub struct DependencyRules {
    rules: Vec<Arc<DependencyFn>>,
}

impl DependencyRules {
    /// Creates an empty rule set.
    pub fn new() -> DependencyRules {
        DependencyRules::default()
    }

    /// Adds a rule. Rules are consulted in registration order; the first
    /// `Some` wins.
    pub fn add(&mut self, rule: impl Fn(&Key) -> Option<Key> + Send + Sync + 'static) {
        self.rules.push(Arc::new(rule));
    }

    /// The determinate key governing `key`, if any rule matches.
    pub fn determinate_for(&self, key: &Key) -> Option<Key> {
        self.rules.iter().find_map(|r| r(key))
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl std::fmt::Debug for DependencyRules {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependencyRules")
            .field("rules", &self.rules.len())
            .finish()
    }
}

/// Counters describing one partition's functor-processing activity.
#[derive(Debug, Default)]
pub struct PartitionStats {
    computes: Counter,
    on_demand_computes: Counter,
    remote_reads: Counter,
    push_hits: Counter,
    pushes_sent: Counter,
    deferred_installs: Counter,
    aborted_versions: Counter,
}

impl PartitionStats {
    /// Functors turned into final form by this partition.
    pub fn computes(&self) -> u64 {
        self.computes.get()
    }

    /// Computes triggered synchronously by a read (Alg 1 line 21).
    pub fn on_demand_computes(&self) -> u64 {
        self.on_demand_computes.get()
    }

    /// Read-set gathers that crossed a partition boundary.
    pub fn remote_reads(&self) -> u64 {
        self.remote_reads.get()
    }

    /// Read-set gathers served from the push cache.
    pub fn push_hits(&self) -> u64 {
        self.push_hits.get()
    }

    /// Values proactively pushed toward recipient functors.
    pub fn pushes_sent(&self) -> u64 {
        self.pushes_sent.get()
    }

    /// Deferred (dependent-key) writes installed locally.
    pub fn deferred_installs(&self) -> u64 {
        self.deferred_installs.get()
    }

    /// Versions rewritten to `ABORTED` by coordinator rollback.
    pub fn aborted_versions(&self) -> u64 {
        self.aborted_versions.get()
    }

    /// Exports these counters as one node of the unified stats tree.
    pub fn snapshot(&self, name: impl Into<String>) -> StatsSnapshot {
        let mut node = StatsSnapshot::new(name);
        node.set_counter("computes", self.computes());
        node.set_counter("on_demand_computes", self.on_demand_computes());
        node.set_counter("remote_reads", self.remote_reads());
        node.set_counter("push_hits", self.push_hits());
        node.set_counter("pushes_sent", self.pushes_sent());
        node.set_counter("deferred_installs", self.deferred_installs());
        node.set_counter("aborted_versions", self.aborted_versions());
        node
    }
}

/// One backend's partition: storage plus Algorithm 1.
pub struct Partition {
    id: PartitionId,
    total_partitions: u16,
    store: VersionedStore,
    registry: Arc<HandlerRegistry>,
    deps: RwLock<DependencyRules>,
    push_cache: PushCache,
    stats: PartitionStats,
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("keys", &self.store.key_count())
            .finish()
    }
}

impl Partition {
    /// Creates an empty partition `id` of `total_partitions`.
    ///
    /// # Panics
    ///
    /// Panics if `total_partitions` is zero or `id` is out of range.
    pub fn new(
        id: PartitionId,
        total_partitions: u16,
        registry: Arc<HandlerRegistry>,
    ) -> Partition {
        assert!(
            total_partitions > 0,
            "cluster must have at least one partition"
        );
        assert!(id.0 < total_partitions, "partition id {id} out of range");
        Partition {
            id,
            total_partitions,
            store: VersionedStore::new(),
            registry,
            deps: RwLock::new(DependencyRules::new()),
            push_cache: PushCache::new(),
            stats: PartitionStats::default(),
        }
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Total partitions in the cluster (for key routing).
    pub fn total_partitions(&self) -> u16 {
        self.total_partitions
    }

    /// Whether this partition owns `key` under hash partitioning.
    pub fn owns(&self, key: &Key) -> bool {
        key.partition(self.total_partitions) == self.id
    }

    /// Underlying store (read-mostly diagnostics and loaders).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Processing statistics.
    pub fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// The push cache (exposed so the hosting server can deliver pushes).
    pub fn push_cache(&self) -> &PushCache {
        &self.push_cache
    }

    /// Registers a dependent-key rule (§IV-E).
    pub fn add_dependency_rule(&self, rule: impl Fn(&Key) -> Option<Key> + Send + Sync + 'static) {
        self.deps.write().add(rule);
    }

    /// Installs a functor at `version` for `key` (the write-only phase).
    /// Idempotent per (key, version).
    ///
    /// Epoch-validity checks (`Put` requires the version to be within the
    /// epoch validity period, §III-D) are enforced by the hosting BE, which
    /// knows the current authorization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchPartition`] if `key` is not owned by this
    /// partition — installing a foreign key indicates a routing bug.
    pub fn install(&self, key: &Key, version: Timestamp, functor: Functor) -> Result<()> {
        if !self.owns(key) {
            return Err(Error::NoSuchPartition(key.partition(self.total_partitions)));
        }
        self.store.put(key, version, functor);
        Ok(())
    }

    /// Stores a row during initial database load, at version 1 (below
    /// every transaction timestamp). A loaded row is final, so it goes
    /// straight into its chain's packed section with the watermark raised
    /// over it: one allocation per row, the chain itself. Idempotent: the
    /// first load of a key wins.
    pub fn load(&self, key: &Key, value: Value) {
        self.store
            .chain_or_create(key)
            .load(Timestamp::ZERO.succ(), value);
    }

    /// Rewrites (key, version) to `ABORTED`: the coordinator's second-round
    /// rollback for a transaction that failed the install phase (§V-A2).
    /// Tolerates the abort arriving before the install.
    pub fn abort_version(&self, key: &Key, version: Timestamp) {
        // If the abort raced ahead of the install, this leaves a pre-aborted
        // record that the (idempotent) install will then not overwrite.
        self.store.chain_or_create(key).force_abort_at(version);
        self.stats.aborted_versions.incr();
    }

    /// Current value watermark for `key` ([`Timestamp::ZERO`] if unknown).
    pub fn watermark(&self, key: &Key) -> Timestamp {
        self.store
            .chain(key)
            .map_or(Timestamp::ZERO, |c| c.watermark())
    }

    /// Algorithm 1 `Get`: the latest final value of `key` at version
    /// `<= bound`, computing functors on demand and skipping `ABORTED`
    /// versions.
    ///
    /// Returns the version at which the value was found; `value` is `None`
    /// for deleted or never-written keys.
    ///
    /// # Errors
    ///
    /// Propagates [`ComputeEnv`] transport failures and unknown-handler
    /// errors.
    pub fn get(&self, key: &Key, bound: Timestamp, env: &dyn ComputeEnv) -> Result<VersionedRead> {
        // Dependent-key rule: the determinate key's watermark must cover the
        // requested version before this key may be read (§IV-E).
        let determinate = self.deps.read().determinate_for(key);
        if let Some(dk) = determinate {
            if &dk != key {
                if self.owns(&dk) {
                    self.compute(&dk, bound, env)?;
                } else {
                    env.ensure_computed(&dk, bound)?;
                }
            }
        }
        let Some(chain) = self.store.chain(key) else {
            return Ok(VersionedRead::missing());
        };
        let mut cursor = bound;
        loop {
            let Some(read) = chain.floor(cursor) else {
                return Ok(VersionedRead::missing());
            };
            let (version, form) = match read {
                // Compacted fast path: the record is already a packed final
                // form — no lock, no `Arc`, no functor clone.
                ChainRead::Final(version, form) => (version, form),
                ChainRead::Live(rec) => {
                    let form = match rec.final_form() {
                        // Settled fast path: records at or below the
                        // watermark take this branch without cloning a
                        // pending functor's arguments.
                        Some(f) => f,
                        None => {
                            // Alg 1 line 21: the reading thread computes the
                            // functor itself rather than blocking on the
                            // asynchronous processor.
                            self.stats.on_demand_computes.incr();
                            self.compute(key, rec.version(), env)?;
                            rec.final_form().unwrap_or_else(|| {
                                unreachable!("compute left non-final record at {key:?}")
                            })
                        }
                    };
                    (rec.version(), form)
                }
            };
            match form {
                FinalForm::Value(v) => return Ok(VersionedRead::found(version, v)),
                FinalForm::Deleted => {
                    return Ok(VersionedRead {
                        version,
                        value: None,
                    })
                }
                // Alg 1 lines 22-23: skip aborted versions.
                FinalForm::Aborted => cursor = version.pred(),
            }
        }
    }

    /// Algorithm 1 `Compute`: brings `key` to a state where every version
    /// `<= upto` is final, then raises the value watermark to `upto`.
    ///
    /// # Errors
    ///
    /// Propagates [`ComputeEnv`] transport failures and unknown-handler
    /// errors; on error the watermark is left unchanged so a later call
    /// retries the remaining functors.
    pub fn compute(&self, key: &Key, upto: Timestamp, env: &dyn ComputeEnv) -> Result<()> {
        let chain = self.store.chain_or_create(key);
        let watermark = chain.watermark();
        if watermark >= upto {
            return Ok(());
        }
        for rec in chain.uncomputed_in(watermark, upto) {
            self.compute_record(key, &rec, env)?;
        }
        chain.advance_watermark(upto);
        Ok(())
    }

    /// Algorithm 1 `Func` for one record: gather reads, run the handler,
    /// finalize the record, and install deferred writes.
    fn compute_record(
        &self,
        key: &Key,
        rec: &crate::chain::Record,
        env: &dyn ComputeEnv,
    ) -> Result<()> {
        if rec.is_final() {
            return Ok(()); // settled: nothing to clone, nothing to compute
        }
        let functor = rec.load();
        if functor.is_final() {
            return Ok(()); // finalized between the check and the load
        }
        let version = rec.version();

        // Proactive pushes: send this key's pre-version value toward the
        // functors in the recipient set (§IV-B), before our own computation so
        // that recipients on other partitions can proceed without remote
        // reads.
        let recipients = functor.recipient_set().to_vec();
        if !recipients.is_empty() {
            let prev = self.get(key, version.pred(), env)?;
            let mut pushed_local = false;
            for recipient in &recipients {
                if self.owns(recipient) {
                    if !pushed_local {
                        self.push_cache.insert(version, key.clone(), prev.clone());
                        pushed_local = true;
                    }
                } else {
                    env.push_value(recipient, version, key, &prev);
                }
                self.stats.pushes_sent.incr();
            }
        }

        let output = match &functor {
            Functor::Add(_) | Functor::Subtr(_) | Functor::Max(_) | Functor::Min(_) => {
                let prev = self.get(key, version.pred(), env)?;
                match builtin::apply_numeric(&functor, prev.value.as_ref()) {
                    Ok(v) => HandlerOutput::commit(v),
                    // A type mismatch is a logic error: abort this version.
                    Err(_) => HandlerOutput::abort(),
                }
            }
            Functor::User(user) => {
                // Gather the read set: push-cache hits and locally-owned keys
                // resolve immediately; whatever remains remote is fetched in
                // one `remote_get_many` call, which the engine groups by
                // owner into parallel batched round trips instead of one
                // blocking RPC per key.
                let mut reads = Reads::new();
                let mut remote: Vec<Key> = Vec::new();
                for rk in &user.read_set {
                    if let Some(hit) = self.push_cache.get(version, rk) {
                        self.stats.push_hits.incr();
                        reads.insert(rk.clone(), hit);
                    } else if self.owns(rk) {
                        reads.insert(rk.clone(), self.get(rk, version.pred(), env)?);
                    } else {
                        remote.push(rk.clone());
                    }
                }
                if !remote.is_empty() {
                    self.stats.remote_reads.add(remote.len() as u64);
                    let fetched = env.remote_get_many(&remote, version.pred())?;
                    for (rk, read) in remote.into_iter().zip(fetched) {
                        reads.insert(rk, read);
                    }
                }
                let input = ComputeInput {
                    key,
                    version,
                    reads: &reads,
                    args: &user.args,
                };
                match self.registry.get(user.handler) {
                    Ok(handler) => handler.compute(&input),
                    // An unregistered handler is a deployment error; abort the
                    // version rather than wedging the processor, but surface
                    // the error to the caller as well.
                    Err(e) => {
                        rec.finalize(Functor::Aborted);
                        return Err(e);
                    }
                }
            }
            _ => unreachable!("final functors filtered above"),
        };

        // Install deferred writes before publishing our own final form so
        // that the §IV-E watermark rule ("A computed up to ts implies B's
        // deferred writes at ts are present") holds.
        for (dkey, dfunctor) in &output.deferred_writes {
            assert!(
                dfunctor.is_final(),
                "deferred writes must be final forms, got {dfunctor} for {dkey:?}"
            );
            if self.owns(dkey) {
                self.store.put(dkey, version, dfunctor.clone());
                self.stats.deferred_installs.incr();
            } else {
                env.install_deferred(dkey, version, dfunctor.clone())?;
            }
        }

        if rec.finalize(output.outcome.into_functor()) {
            self.stats.computes.incr();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_functor::{HandlerId, Outcome, UserFunctor};
    use bytes_shim::Bytes;

    // `bytes` is not a direct dev-dependency of this crate; reuse the
    // re-exported type through aloha-functor's public API instead.
    mod bytes_shim {
        pub type Bytes = Vec<u8>;
    }

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_raw(v)
    }

    fn single_partition(registry: HandlerRegistry) -> Partition {
        Partition::new(PartitionId(0), 1, Arc::new(registry))
    }

    #[test]
    fn get_on_empty_partition_is_missing() {
        let p = single_partition(HandlerRegistry::new());
        let read = p.get(&Key::from("nope"), ts(100), &LocalOnlyEnv).unwrap();
        assert_eq!(read, VersionedRead::missing());
    }

    #[test]
    fn numeric_chain_computes_in_order() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("acct");
        p.install(&k, ts(10), Functor::value_i64(100)).unwrap();
        p.install(&k, ts(20), Functor::add(50)).unwrap();
        p.install(&k, ts(30), Functor::subtr(30)).unwrap();
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.value.unwrap().as_i64(), Some(120));
        assert_eq!(read.version, ts(30));
        assert!(p.watermark(&k) >= ts(30));
    }

    #[test]
    fn historical_reads_see_old_versions() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("acct");
        p.install(&k, ts(10), Functor::value_i64(100)).unwrap();
        p.install(&k, ts(20), Functor::add(1)).unwrap();
        let old = p.get(&k, ts(15), &LocalOnlyEnv).unwrap();
        assert_eq!(old.value.unwrap().as_i64(), Some(100));
        assert_eq!(old.version, ts(10));
    }

    #[test]
    fn aborted_versions_are_skipped() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("acct");
        p.install(&k, ts(10), Functor::value_i64(100)).unwrap();
        p.install(&k, ts(20), Functor::add(1)).unwrap();
        p.abort_version(&k, ts(20));
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.value.unwrap().as_i64(), Some(100));
        assert_eq!(read.version, ts(10));
    }

    #[test]
    fn abort_before_install_pre_aborts_version() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("acct");
        p.install(&k, ts(10), Functor::value_i64(7)).unwrap();
        p.abort_version(&k, ts(20)); // abort arrives first
        p.install(&k, ts(20), Functor::value_i64(999)).unwrap(); // late install ignored
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.value.unwrap().as_i64(), Some(7));
    }

    #[test]
    fn deleted_key_reads_as_none_but_reports_version() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("gone");
        p.install(&k, ts(10), Functor::value_i64(1)).unwrap();
        p.install(&k, ts(20), Functor::Deleted).unwrap();
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.version, ts(20));
        assert!(read.value.is_none());
        // Below the tombstone the old value is still visible.
        let old = p.get(&k, ts(15), &LocalOnlyEnv).unwrap();
        assert_eq!(old.value.unwrap().as_i64(), Some(1));
    }

    /// The Figure 5 scenario: T1 multi-writes A=150, B=100; T2 transfers 100
    /// from A to B via numeric functors; T3 conditionally transfers 100 but
    /// aborts because A's balance (50) is below the transfer amount.
    #[test]
    fn figure_five_conditional_transfer() {
        let mut registry = HandlerRegistry::new();
        let a = Key::from("account-a");
        let b = Key::from("account-b");
        // Handler 1: subtract arg from A if A >= arg, else abort.
        let a_for_handler = a.clone();
        registry.register(HandlerId(1), move |input: &ComputeInput<'_>| {
            let balance = input.reads.i64(&a_for_handler).unwrap_or(0);
            let amount = i64::from_be_bytes(input.args.try_into().unwrap());
            if balance < amount {
                HandlerOutput::abort()
            } else {
                HandlerOutput::commit(Value::from_i64(balance - amount))
            }
        });
        // Handler 2: add arg to B if A >= arg, else abort (reads A remotely
        // in the paper; locally here since this test is single-partition).
        let a_for_handler = a.clone();
        let b_for_handler = b.clone();
        registry.register(HandlerId(2), move |input: &ComputeInput<'_>| {
            let a_balance = input.reads.i64(&a_for_handler).unwrap_or(0);
            let b_balance = input.reads.i64(&b_for_handler).unwrap_or(0);
            let amount = i64::from_be_bytes(input.args.try_into().unwrap());
            if a_balance < amount {
                HandlerOutput::abort()
            } else {
                HandlerOutput::commit(Value::from_i64(b_balance + amount))
            }
        });
        let p = single_partition(registry);

        // T1 at version 10000.
        p.install(&a, ts(10_000), Functor::value_i64(150)).unwrap();
        p.install(&b, ts(10_000), Functor::value_i64(100)).unwrap();
        // T2 at version 15480: plain transfer using numeric functors.
        p.install(&a, ts(15_480), Functor::subtr(100)).unwrap();
        p.install(&b, ts(15_480), Functor::add(100)).unwrap();
        // T3 at version 19600: conditional transfer; must abort (A=50 < 100).
        let amount: Bytes = 100i64.to_be_bytes().to_vec();
        p.install(
            &a,
            ts(19_600),
            Functor::User(UserFunctor::new(
                HandlerId(1),
                vec![a.clone()],
                amount.clone(),
            )),
        )
        .unwrap();
        p.install(
            &b,
            ts(19_600),
            Functor::User(UserFunctor::new(
                HandlerId(2),
                vec![a.clone(), b.clone()],
                amount,
            )),
        )
        .unwrap();

        let read_a = p.get(&a, ts(99_999), &LocalOnlyEnv).unwrap();
        let read_b = p.get(&b, ts(99_999), &LocalOnlyEnv).unwrap();
        // T3 aborted on both keys: final visible state is T2's.
        assert_eq!(read_a.value.unwrap().as_i64(), Some(50));
        assert_eq!(read_a.version, ts(15_480));
        assert_eq!(read_b.value.unwrap().as_i64(), Some(200));
        assert_eq!(read_b.version, ts(15_480));
        // The T3 records themselves are finalized as ABORTED.
        let chain_a = p.store().chain(&a).unwrap();
        match chain_a.read_at(ts(19_600)).unwrap() {
            ChainRead::Live(rec) => assert_eq!(rec.load(), Functor::Aborted),
            ChainRead::Final(_, form) => assert!(form.is_aborted()),
        }
    }

    #[test]
    fn money_is_conserved_across_functor_transfers() {
        let p = single_partition(HandlerRegistry::new());
        let a = Key::from("a");
        let b = Key::from("b");
        p.install(&a, ts(1), Functor::value_i64(500)).unwrap();
        p.install(&b, ts(1), Functor::value_i64(500)).unwrap();
        for (i, amount) in [10i64, -20, 30, -40, 50].iter().enumerate() {
            let v = ts(10 + i as u64);
            p.install(&a, v, Functor::subtr(*amount)).unwrap();
            p.install(&b, v, Functor::add(*amount)).unwrap();
        }
        let total = p
            .get(&a, ts(999), &LocalOnlyEnv)
            .unwrap()
            .value
            .unwrap()
            .as_i64()
            .unwrap()
            + p.get(&b, ts(999), &LocalOnlyEnv)
                .unwrap()
                .value
                .unwrap()
                .as_i64()
                .unwrap();
        assert_eq!(total, 1000);
    }

    #[test]
    fn unknown_handler_aborts_version_and_reports_error() {
        let p = single_partition(HandlerRegistry::new());
        let k = Key::from("k");
        p.install(&k, ts(10), Functor::value_i64(5)).unwrap();
        p.install(
            &k,
            ts(20),
            Functor::User(UserFunctor::new(HandlerId(404), vec![], Vec::new())),
        )
        .unwrap();
        let err = p.compute(&k, ts(20), &LocalOnlyEnv).unwrap_err();
        assert!(matches!(err, Error::UnknownHandler(404)));
        // The bad version is aborted; the previous value remains readable.
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.value.unwrap().as_i64(), Some(5));
    }

    #[test]
    fn deferred_writes_install_at_same_version() {
        let mut registry = HandlerRegistry::new();
        let dependent = Key::from("order-row");
        let dep_for_handler = dependent.clone();
        registry.register(HandlerId(1), move |input: &ComputeInput<'_>| {
            let next_id = input.reads.i64(input.key).unwrap_or(0);
            HandlerOutput::commit(Value::from_i64(next_id + 1)).with_deferred(vec![(
                dep_for_handler.clone(),
                Functor::Value(Value::from_i64(next_id)),
            )])
        });
        let p = single_partition(registry);
        let determinate = Key::from("next-order-id");
        p.install(&determinate, ts(10), Functor::value_i64(100))
            .unwrap();
        p.install(
            &determinate,
            ts(20),
            Functor::User(UserFunctor::new(
                HandlerId(1),
                vec![determinate.clone()],
                Vec::new(),
            )),
        )
        .unwrap();
        // Register the §IV-E rule: the dependent row waits on the determinate key.
        let determinate_for_rule = determinate.clone();
        let dependent_for_rule = dependent.clone();
        p.add_dependency_rule(move |k| {
            (k == &dependent_for_rule).then(|| determinate_for_rule.clone())
        });

        // Reading the dependent key triggers computing the determinate one.
        let row = p.get(&dependent, ts(25), &LocalOnlyEnv).unwrap();
        assert_eq!(row.version, ts(20));
        assert_eq!(row.value.unwrap().as_i64(), Some(100));
        let next = p.get(&determinate, ts(25), &LocalOnlyEnv).unwrap();
        assert_eq!(next.value.unwrap().as_i64(), Some(101));
        assert_eq!(p.stats().deferred_installs(), 1);
    }

    #[test]
    fn push_cache_serves_reads_without_remote_access() {
        let mut registry = HandlerRegistry::new();
        let source = Key::from("src");
        let src_for_handler = source.clone();
        registry.register(HandlerId(1), move |input: &ComputeInput<'_>| {
            HandlerOutput::commit(Value::from_i64(
                input.reads.i64(&src_for_handler).unwrap_or(-1),
            ))
        });
        let p = single_partition(registry);
        let target = Key::from("dst");
        p.install(&target, ts(10), Functor::value_i64(0)).unwrap();
        // Pre-populate the push cache as a remote push would.
        p.push_cache().insert(
            ts(20),
            source.clone(),
            VersionedRead::found(ts(5), Value::from_i64(77)),
        );
        p.install(
            &target,
            ts(20),
            Functor::User(UserFunctor::new(HandlerId(1), vec![source], Vec::new())),
        )
        .unwrap();
        // `source` is not stored locally; without the push the LocalOnlyEnv
        // would error. With the cached push the compute succeeds.
        let read = p.get(&target, ts(99), &LocalOnlyEnv).unwrap();
        assert_eq!(read.value.unwrap().as_i64(), Some(77));
        assert_eq!(p.stats().push_hits(), 1);
    }

    #[test]
    fn concurrent_gets_agree_and_compute_once() {
        let p = Arc::new(single_partition(HandlerRegistry::new()));
        let k = Key::from("hot");
        p.install(&k, ts(1), Functor::value_i64(0)).unwrap();
        for v in 2..200u64 {
            p.install(&k, ts(v), Functor::add(1)).unwrap();
        }
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                let k = k.clone();
                std::thread::spawn(move || {
                    p.get(&k, ts(999), &LocalOnlyEnv)
                        .unwrap()
                        .value
                        .unwrap()
                        .as_i64()
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 198);
        }
        // Every record was finalized exactly once despite racing readers.
        assert_eq!(p.stats().computes(), 198);
    }

    #[test]
    fn install_rejects_foreign_keys() {
        let registry = Arc::new(HandlerRegistry::new());
        let p = Partition::new(PartitionId(0), 8, registry);
        // Find a key that partition 0 does not own.
        let foreign = (0..100u32)
            .map(|i| Key::from_parts(&[b"probe", &i.to_be_bytes()]))
            .find(|k| !p.owns(k))
            .expect("some probe key lands elsewhere");
        let err = p
            .install(&foreign, ts(1), Functor::value_i64(0))
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchPartition(_)));
    }

    #[test]
    fn push_cache_clear_below_drops_settled_entries() {
        let cache = PushCache::new();
        cache.insert(ts(10), Key::from("a"), VersionedRead::missing());
        cache.insert(ts(20), Key::from("b"), VersionedRead::missing());
        cache.clear_below(ts(15));
        assert!(cache.get(ts(10), &Key::from("a")).is_none());
        assert!(cache.get(ts(20), &Key::from("b")).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn outcome_mapping_survives_partition_roundtrip() {
        // Delete outcome through a user handler becomes a tombstone.
        let mut registry = HandlerRegistry::new();
        registry.register(HandlerId(1), |_: &ComputeInput<'_>| HandlerOutput {
            outcome: Outcome::Delete,
            deferred_writes: vec![],
        });
        let p = single_partition(registry);
        let k = Key::from("victim");
        p.install(&k, ts(10), Functor::value_i64(1)).unwrap();
        p.install(
            &k,
            ts(20),
            Functor::User(UserFunctor::new(HandlerId(1), vec![], Vec::new())),
        )
        .unwrap();
        let read = p.get(&k, ts(99), &LocalOnlyEnv).unwrap();
        assert!(read.value.is_none());
        assert_eq!(read.version, ts(20));
    }
}
