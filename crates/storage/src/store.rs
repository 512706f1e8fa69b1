//! The sharded key → version-chain table of one partition.

use std::collections::HashMap;
use std::sync::Arc;

use aloha_common::metrics::Counter;
use aloha_common::{Key, Timestamp};
use aloha_functor::Functor;
use parking_lot::RwLock;

/// Number of hash shards guarding the key table. Sharding keeps the table
/// lock out of the measurement: concurrent puts from processor threads hit
/// different shards with high probability.
const SHARDS: usize = 64;

/// Aggregate access statistics for a [`VersionedStore`].
#[derive(Debug, Default)]
pub struct StoreStats {
    puts: Counter,
    gets: Counter,
}

impl StoreStats {
    /// Number of `put` calls (including idempotent duplicates).
    pub fn puts(&self) -> u64 {
        self.puts.get()
    }

    /// Number of chain lookups.
    pub fn gets(&self) -> u64 {
        self.gets.get()
    }
}

/// One partition's multi-version key-functor table (§III-D).
///
/// # Examples
///
/// ```
/// use aloha_common::{Key, Timestamp};
/// use aloha_functor::Functor;
/// use aloha_storage::VersionedStore;
///
/// let store = VersionedStore::new();
/// store.put(&Key::from("a"), Timestamp::from_raw(1), Functor::value_i64(5));
/// let chain = store.chain(&Key::from("a")).unwrap();
/// assert_eq!(chain.len(), 1);
/// ```
#[derive(Debug)]
pub struct VersionedStore {
    shards: Vec<RwLock<HashMap<Key, Arc<super::VersionChain>>>>,
    stats: StoreStats,
}

impl VersionedStore {
    /// Creates an empty store.
    pub fn new() -> VersionedStore {
        VersionedStore {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            stats: StoreStats::default(),
        }
    }

    fn shard(&self, key: &Key) -> &RwLock<HashMap<Key, Arc<super::VersionChain>>> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// The version chain for `key`, if any versions exist.
    pub fn chain(&self, key: &Key) -> Option<Arc<super::VersionChain>> {
        self.stats.gets.incr();
        self.shard(key).read().get(key).map(Arc::clone)
    }

    /// The version chain for `key`, creating an empty one if absent.
    pub fn chain_or_create(&self, key: &Key) -> Arc<super::VersionChain> {
        if let Some(chain) = self.shard(key).read().get(key) {
            return Arc::clone(chain);
        }
        let mut guard = self.shard(key).write();
        Arc::clone(guard.entry(key.clone()).or_default())
    }

    /// Installs `functor` at `version` for `key`. Returns `false` if that
    /// version already existed (idempotent install).
    pub fn put(&self, key: &Key, version: Timestamp, functor: Functor) -> bool {
        self.stats.puts.incr();
        self.chain_or_create(key).insert(version, functor)
    }

    /// Number of distinct keys in the partition.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Total number of stored version records.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|c| c.len()).sum::<usize>())
            .sum()
    }

    /// Access statistics.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Runs `f` over every (key, chain) pair; used by consistency checks and
    /// compaction sweeps.
    pub fn for_each_chain(&self, mut f: impl FnMut(&Key, &Arc<super::VersionChain>)) {
        for shard in &self.shards {
            for (key, chain) in shard.read().iter() {
                f(key, chain);
            }
        }
    }

    /// Watermark-driven compaction sweep over every chain (see
    /// [`super::VersionChain::compact`]). Returns total records folded away.
    pub fn compact(&self, horizon: Timestamp, keep_versions: usize) -> usize {
        let mut folded = 0;
        self.for_each_chain(|_, chain| folded += chain.compact(horizon, keep_versions));
        folded
    }

    /// Memory accounting aggregated over every chain: each chain's own
    /// bytes ([`super::ChainMem::bytes`]), its key's heap payload, and its
    /// share of the shard table's slots.
    pub fn memory_stats(&self) -> StoreMemStats {
        let mut out = StoreMemStats::default();
        for shard in &self.shards {
            let shard = shard.read();
            out.approx_bytes += table_bytes(shard.capacity());
            for (key, chain) in shard.iter() {
                let m = chain.mem();
                out.chains += 1;
                out.live_records += m.live;
                out.settled_records += m.settled;
                out.compacted_records += m.compacted;
                out.approx_bytes += m.bytes + key.heap_bytes();
            }
        }
        out
    }
}

/// Bytes a shard table with room for `capacity` entries allocates: the
/// std map's open-addressing layout keeps a load factor of at most 7/8 over
/// a power-of-two bucket count, with one slot and one control byte per
/// bucket plus one trailing control group.
fn table_bytes(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8 / 7).next_power_of_two();
    let slot = std::mem::size_of::<(Key, Arc<super::VersionChain>)>();
    buckets * (slot + 1) + 16
}

/// Store-wide memory accounting: the partition `memory` stats subtree reads
/// from this.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreMemStats {
    /// Distinct version chains (keys ever written).
    pub chains: usize,
    /// Records still in live (`Arc` + lock) tails.
    pub live_records: usize,
    /// Records in packed settled sections.
    pub settled_records: usize,
    /// Records folded away by compaction since startup.
    pub compacted_records: u64,
    /// Heap bytes the store holds: chains and their records, heap key and
    /// value payloads (inline ones count 0) and the shard tables.
    pub approx_bytes: usize,
}

impl StoreMemStats {
    /// Exports as one node of the unified stats tree.
    pub fn snapshot(&self, name: impl Into<String>) -> aloha_common::stats::StatsSnapshot {
        let mut node = aloha_common::stats::StatsSnapshot::new(name);
        node.set_counter("chains", self.chains as u64);
        node.set_counter("live_records", self.live_records as u64);
        node.set_counter("settled_records", self.settled_records as u64);
        node.set_counter("compacted_records", self.compacted_records);
        node.set_counter("approx_bytes", self.approx_bytes as u64);
        node
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_raw(v)
    }

    #[test]
    fn put_creates_chain_and_get_finds_it() {
        let store = VersionedStore::new();
        let k = Key::from("x");
        assert!(store.chain(&k).is_none());
        assert!(store.put(&k, ts(1), Functor::value_i64(1)));
        assert_eq!(store.chain(&k).unwrap().len(), 1);
        assert_eq!(store.key_count(), 1);
    }

    #[test]
    fn put_same_version_is_idempotent() {
        let store = VersionedStore::new();
        let k = Key::from("x");
        assert!(store.put(&k, ts(1), Functor::value_i64(1)));
        assert!(!store.put(&k, ts(1), Functor::value_i64(2)));
        assert_eq!(store.version_count(), 1);
    }

    #[test]
    fn chain_or_create_returns_same_chain() {
        let store = VersionedStore::new();
        let k = Key::from("y");
        let a = store.chain_or_create(&k);
        let b = store.chain_or_create(&k);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_count_accesses() {
        let store = VersionedStore::new();
        let k = Key::from("z");
        store.put(&k, ts(1), Functor::value_i64(0));
        store.chain(&k);
        store.chain(&k);
        assert_eq!(store.stats().puts(), 1);
        assert_eq!(store.stats().gets(), 2);
    }

    #[test]
    fn many_keys_spread_across_shards() {
        let store = VersionedStore::new();
        for i in 0..1000u32 {
            let k = Key::from_parts(&[b"k", &i.to_be_bytes()]);
            store.put(&k, ts(1), Functor::value_i64(i as i64));
        }
        assert_eq!(store.key_count(), 1000);
        assert_eq!(store.version_count(), 1000);
    }

    #[test]
    fn concurrent_puts_to_distinct_keys_all_land() {
        let store = Arc::new(VersionedStore::new());
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let s = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let k = Key::from_parts(&[&t.to_be_bytes(), &i.to_be_bytes()]);
                        s.put(&k, ts(1), Functor::value_i64(0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.key_count(), 1600);
    }
}
