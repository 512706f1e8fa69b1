//! Property-based tests on the core data structures, on Algorithm 1, and on
//! the fault-injection network layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use aloha_common::{Key, PartitionId, ServerId, Timestamp, Value};
use aloha_epoch::TimestampOracle;
use aloha_functor::{builtin, Functor, HandlerRegistry};
use aloha_net::{Addr, Bus, DelayLine, FaultPlan, LinkFault, NetConfig};
use aloha_storage::{ChainRead, FinalForm, LocalOnlyEnv, Partition, SnapshotRead, VersionChain};
use aloha_workloads::tpcc::{ItemRow, OrderLineRow, OrderRow, StockRow};
use proptest::prelude::*;

fn ts(v: u64) -> Timestamp {
    Timestamp::from_raw(v)
}

/// Gives `key` its initial numeric value at version 1: through
/// `Partition::load` (packed, watermark raised) or as an ordinary install.
fn init_numeric(partition: &Partition, key: &Key, initial: i64, loaded: bool) {
    if loaded {
        partition.load(key, Value::from_i64(initial));
        assert_eq!(partition.watermark(key), ts(1));
    } else {
        partition
            .install(key, ts(1), Functor::value_i64(initial))
            .unwrap();
    }
}

proptest! {
    /// The version chain behaves exactly like a sorted map under arbitrary
    /// interleavings of inserts and floor lookups.
    #[test]
    fn version_chain_matches_btreemap_model(
        ops in proptest::collection::vec((0u64..500, any::<i64>()), 1..120),
        probes in proptest::collection::vec(0u64..600, 1..40),
    ) {
        let chain = VersionChain::new();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        for (v, x) in &ops {
            let inserted = chain.insert(ts(*v + 1), Functor::value_i64(*x));
            let was_new = !model.contains_key(v);
            prop_assert_eq!(inserted, was_new);
            model.entry(*v).or_insert(*x);
        }
        prop_assert_eq!(chain.len(), model.len());
        for probe in &probes {
            let got = chain.floor(ts(*probe + 1)).map(|r| match r {
                ChainRead::Live(rec) => (rec.version().raw() - 1, rec.load()),
                ChainRead::Final(v, form) => (v.raw() - 1, form.into_functor()),
            });
            let expected = model
                .range(..=probe)
                .next_back()
                .map(|(v, x)| (*v, Functor::value_i64(*x)));
            prop_assert_eq!(got, expected);
        }
        // Versions remain sorted no matter the insertion order.
        let versions = chain.versions();
        prop_assert!(versions.windows(2).all(|w| w[0] < w[1]));
    }

    /// Watermark-driven compaction is invisible to reads: for any mix of
    /// committed and aborted settled versions plus a pending tail, any read
    /// at any bound within the retained window returns the same (version,
    /// value) before and after compaction, the watermark never exposes a
    /// non-final record, and pending records are never promoted.
    #[test]
    fn compaction_preserves_reads_and_watermark_finality(
        ops in proptest::collection::vec((0u64..300, any::<i64>(), any::<bool>()), 1..80),
        pending in proptest::collection::vec(400u64..500, 0..6),
        keep in 1usize..4,
        horizon in 0u64..600,
    ) {
        let chain = VersionChain::new();
        for (v, x, abort) in &ops {
            let f = if *abort { Functor::Aborted } else { Functor::value_i64(*x) };
            chain.insert(ts(*v + 1), f);
        }
        let top = ops.iter().map(|(v, _, _)| *v + 1).max().unwrap();
        chain.advance_watermark(ts(top));
        // A pending (uncomputed) tail strictly above the watermark.
        for v in &pending {
            chain.insert(ts(*v), Functor::add(1));
        }
        // A read: floor + skip-aborted, as Algorithm 1's Get does.
        let read = |bound: u64| -> Option<(u64, Option<i64>)> {
            let mut cursor = ts(bound);
            loop {
                let (v, form) = match chain.floor(cursor)? {
                    ChainRead::Final(v, form) => (v, form),
                    ChainRead::Live(rec) => (rec.version(), rec.final_form()?),
                };
                match form {
                    FinalForm::Aborted => cursor = v.pred(),
                    FinalForm::Value(x) => return Some((v.raw(), x.as_i64())),
                    FinalForm::Deleted => return Some((v.raw(), None)),
                }
            }
        };
        let before: Vec<_> = (0..=top + 1).map(read).collect();
        chain.compact(ts(horizon), keep);
        // The oldest surviving committed version bounds the retained window.
        let oldest_committed = chain.versions().into_iter().find(|v| {
            matches!(
                chain.read_at(*v),
                Some(ChainRead::Final(_, form)) if !form.is_aborted()
            ) || matches!(
                chain.read_at(*v),
                Some(ChainRead::Live(rec)) if rec.final_form().is_some_and(|f| !f.is_aborted())
            )
        });
        for (bound, was) in (0..=top + 1).zip(&before) {
            if oldest_committed.is_none_or(|oldest| ts(bound) >= oldest) {
                prop_assert_eq!(&read(bound), was, "read at {} changed", bound);
            }
        }
        // Watermark finality: every record at or below the watermark reads
        // as a final form, never a pending functor.
        for v in chain.versions() {
            if v <= chain.watermark() {
                let is_final = match chain.read_at(v).unwrap() {
                    ChainRead::Final(..) => true,
                    ChainRead::Live(rec) => rec.final_form().is_some(),
                };
                prop_assert!(is_final, "watermark exposed non-final record at {:?}", v);
            }
        }
        // The pending tail survives compaction untouched and uncomputed.
        for v in &pending {
            prop_assert!(matches!(
                chain.read_at(ts(*v)),
                Some(ChainRead::Live(rec)) if rec.final_form().is_none()
            ));
        }
    }

    /// The snapshot-read fast path never observes a *torn* multi-key
    /// transaction. Every transaction writes all of its keys at one
    /// timestamp, so a reader following the frontend's protocol — read every
    /// key at one bound, lift the bound to the retry hint whenever any chain
    /// answers `Folded` — must land on the same transaction on every key,
    /// even when the keys live on partitions whose compaction sweeps run
    /// with different horizons and retention depths.
    #[test]
    fn snapshot_reads_are_never_torn(
        raw_txns in proptest::collection::vec((1u64..400, any::<bool>()), 1..60),
        horizon_a in 0u64..500,
        horizon_b in 0u64..500,
        keep_a in 1usize..3,
        keep_b in 1usize..3,
        probes in proptest::collection::vec(0u64..500, 1..30),
    ) {
        let txns: BTreeMap<u64, bool> = raw_txns.into_iter().collect();
        let (a, b) = (VersionChain::new(), VersionChain::new());
        for (i, (v, abort)) in txns.iter().enumerate() {
            let f = if *abort { Functor::Aborted } else { Functor::value_i64(i as i64) };
            a.insert(ts(*v), f.clone());
            b.insert(ts(*v), f);
        }
        let top = *txns.keys().next_back().unwrap();
        a.advance_watermark(ts(top));
        b.advance_watermark(ts(top));
        // Divergent per-partition compaction: different horizons and depths.
        a.compact(ts(horizon_a), keep_a);
        b.compact(ts(horizon_b), keep_b);
        // The committed history both keys share: version -> transaction id.
        let committed: BTreeMap<u64, i64> = txns.iter().enumerate()
            .filter(|(_, (_, abort))| !**abort)
            .map(|(i, (v, _))| (*v, i as i64))
            .collect();
        for probe in &probes {
            let mut bound = ts(*probe);
            let mut answer = None;
            // The frontend's folded-retry loop (RPC_ATTEMPTS-bounded there).
            for _ in 0..8 {
                match (a.snapshot_read(bound), b.snapshot_read(bound)) {
                    (SnapshotRead::Folded(r), _) | (_, SnapshotRead::Folded(r)) => {
                        prop_assert!(r > Timestamp::ZERO, "retry hint must name a bound");
                        prop_assert!(r > bound, "retry hint must make progress");
                        bound = r;
                    }
                    pair => { answer = Some(pair); break; }
                }
            }
            prop_assert!(answer.is_some(), "folded-retry did not converge");
            let expected = committed.range(..=bound.raw()).next_back();
            match answer.unwrap() {
                (SnapshotRead::Found(va, fa), SnapshotRead::Found(vb, fb)) => {
                    prop_assert_eq!(va, vb, "torn read: keys from different transactions");
                    let (ev, et) = expected.expect("model has a committed floor");
                    prop_assert_eq!(va, ts(*ev));
                    for form in [fa, fb] {
                        match form {
                            FinalForm::Value(x) => prop_assert_eq!(x.as_i64(), Some(*et)),
                            other => prop_assert!(false, "unexpected form {:?}", other),
                        }
                    }
                }
                (SnapshotRead::Missing, SnapshotRead::Missing) => {
                    prop_assert!(expected.is_none(), "both chains lost committed history");
                }
                pair => prop_assert!(false, "torn or pending snapshot read: {:?}", pair),
            }
        }
    }

    /// Partition-level compaction invariance: settle a numeric chain, then
    /// compact with an aggressive keep_versions=1 and assert the latest
    /// read still equals the sequential fold. The initial value is either
    /// installed or loaded (packed from the start).
    #[test]
    fn partition_reads_survive_aggressive_compaction(
        initial in -1_000i64..1_000,
        deltas in proptest::collection::vec(-50i64..50, 1..30),
        loaded in any::<bool>(),
    ) {
        let partition = Partition::new(
            PartitionId(0), 1, Arc::new(HandlerRegistry::new()),
        );
        let key = Key::from("k");
        init_numeric(&partition, &key, initial, loaded);
        for (i, d) in deltas.iter().enumerate() {
            partition.install(&key, ts(10 + i as u64), Functor::Add(*d)).unwrap();
        }
        let expected: i64 = initial + deltas.iter().sum::<i64>();
        // Settle everything, then fold to a single base record.
        let read = partition.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        prop_assert_eq!(read.value.as_ref().unwrap().as_i64(), Some(expected));
        partition.store().compact(Timestamp::MAX, 1);
        let mem = partition.store().memory_stats();
        prop_assert_eq!(mem.live_records, 0);
        prop_assert_eq!(mem.settled_records, 1);
        let after = partition.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        prop_assert_eq!(after.value.unwrap().as_i64(), Some(expected));
        prop_assert_eq!(after.version, read.version);
    }

    /// Numeric functor chains resolve to the same value as a sequential
    /// left-fold over the committed operations in version order, whether
    /// the initial value was installed or loaded.
    #[test]
    fn numeric_chain_equals_sequential_fold(
        initial in -1_000i64..1_000,
        ops in proptest::collection::vec((0u8..4, -50i64..50, any::<bool>()), 0..40),
        loaded in any::<bool>(),
    ) {
        let partition = Partition::new(
            PartitionId(0), 1, Arc::new(HandlerRegistry::new()),
        );
        let key = Key::from("k");
        init_numeric(&partition, &key, initial, loaded);
        let mut expected = initial;
        for (i, (kind, arg, aborted)) in ops.iter().enumerate() {
            let version = ts(10 + i as u64);
            let functor = match kind {
                0 => Functor::Add(*arg),
                1 => Functor::Subtr(*arg),
                2 => Functor::Max(*arg),
                _ => Functor::Min(*arg),
            };
            partition.install(&key, version, functor.clone()).unwrap();
            if *aborted {
                partition.abort_version(&key, version);
            } else {
                expected = builtin::apply_numeric(&functor, Some(&Value::from_i64(expected)))
                    .unwrap()
                    .as_i64()
                    .unwrap();
            }
        }
        let read = partition.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        prop_assert_eq!(read.value.unwrap().as_i64(), Some(expected));
    }

    /// Historical reads at every intermediate version match the prefix fold.
    #[test]
    fn historical_reads_match_prefix_folds(
        adds in proptest::collection::vec(-20i64..20, 1..25),
    ) {
        let partition = Partition::new(
            PartitionId(0), 1, Arc::new(HandlerRegistry::new()),
        );
        let key = Key::from("k");
        partition.install(&key, ts(1), Functor::value_i64(0)).unwrap();
        for (i, d) in adds.iter().enumerate() {
            partition.install(&key, ts(2 + i as u64), Functor::Add(*d)).unwrap();
        }
        // Settle everything first.
        partition.get(&key, Timestamp::MAX, &LocalOnlyEnv).unwrap();
        let mut prefix = 0i64;
        for (i, d) in adds.iter().enumerate() {
            prefix += d;
            let read = partition.get(&key, ts(2 + i as u64), &LocalOnlyEnv).unwrap();
            prop_assert_eq!(read.value.unwrap().as_i64(), Some(prefix));
        }
    }

    /// Timestamp component round-trips and order embedding.
    #[test]
    fn timestamp_parts_round_trip(
        micros in 0u64..(1u64 << 40),
        server in 0u16..=255,
        seq in 0u64..=Timestamp::MAX_SEQ,
    ) {
        let t = Timestamp::from_parts(micros, ServerId(server), seq);
        prop_assert_eq!(t.micros(), micros);
        prop_assert_eq!(t.server(), ServerId(server));
        prop_assert_eq!(t.seq(), seq);
        prop_assert_eq!(Timestamp::from_raw(t.raw()), t);
    }

    /// The oracle never goes backwards and never leaves the window, for any
    /// clock behavior (even a wildly jumping one).
    #[test]
    fn oracle_is_monotone_in_any_clock(
        clocks in proptest::collection::vec(0u64..2_000, 1..200),
    ) {
        let mut oracle = TimestampOracle::new(ServerId(1));
        let mut last = Timestamp::ZERO;
        for now in clocks {
            if let Some(issued) = oracle.issue(now, 500, 1_500) {
                prop_assert!(issued > last);
                prop_assert!((500..=1_500).contains(&issued.micros()));
                last = issued;
            } else {
                // Refusal is only allowed when the clock is past the window
                // or the window is exhausted at its end.
                prop_assert!(now > 1_500 || last.micros() == 1_500);
            }
        }
    }

    /// TPC-C row codecs round-trip arbitrary field values.
    #[test]
    fn tpcc_rows_round_trip(
        i_id in any::<u32>(),
        w_id in any::<u32>(),
        price in any::<i64>(),
        qty in any::<i64>(),
        name in "[a-zA-Z0-9 ]{0,40}",
    ) {
        let item = ItemRow { i_id, name, price_cents: price };
        prop_assert_eq!(ItemRow::decode(&item.encode()).unwrap(), item);
        let stock = StockRow { i_id, w_id, quantity: qty, ytd: price, order_cnt: qty };
        prop_assert_eq!(StockRow::decode(&stock.encode()).unwrap(), stock);
        let order = OrderRow { o_id: price, d_id: i_id, w_id, c_id: i_id, ol_cnt: w_id };
        prop_assert_eq!(OrderRow::decode(&order.encode()).unwrap(), order);
        let ol = OrderLineRow {
            o_id: price, number: i_id, i_id, supply_w: w_id, qty: w_id, amount_cents: qty,
        };
        prop_assert_eq!(OrderLineRow::decode(&ol.encode()).unwrap(), ol);
    }

    /// Routed keys always land on their target partition; parts round-trip.
    #[test]
    fn routed_key_placement(
        route in any::<u32>(),
        partitions in 1u16..=64,
        payload in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let key = Key::with_route(route, &[&payload]);
        prop_assert_eq!(key.partition(partitions).0 as u32, route % partitions as u32);
        prop_assert_eq!(key.route(), Some(route));
        prop_assert_eq!(key.parts().unwrap(), vec![payload.as_slice()]);
    }

    /// Get with a bound below every version is missing; with a bound at or
    /// above the max it finds the last non-aborted version.
    #[test]
    fn get_bounds_are_tight(
        versions in proptest::collection::btree_set(2u64..1_000, 1..30),
    ) {
        let partition = Partition::new(
            PartitionId(0), 1, Arc::new(HandlerRegistry::new()),
        );
        let key = Key::from("k");
        for (i, v) in versions.iter().enumerate() {
            partition.install(&key, ts(*v), Functor::value_i64(i as i64)).unwrap();
        }
        let min = *versions.iter().next().unwrap();
        let max = *versions.iter().next_back().unwrap();
        let below = partition.get(&key, ts(min - 1), &LocalOnlyEnv).unwrap();
        prop_assert!(below.value.is_none());
        let at_max = partition.get(&key, ts(max), &LocalOnlyEnv).unwrap();
        prop_assert_eq!(at_max.version, ts(max));
        prop_assert_eq!(
            at_max.value.unwrap().as_i64(),
            Some(versions.len() as i64 - 1)
        );
    }

    /// For any seeded drop/dup plan, the delivered multiset obeys exact
    /// accounting against the bus fault counters — delivered = sent − drops
    /// + dups, with exactly `dups` values arriving twice and `drops` values
    /// not at all — and the counters themselves stay within generous
    /// (6-sigma) binomial bounds of the configured probabilities.
    #[test]
    fn fault_layer_delivery_matches_counters(
        seed in any::<u64>(),
        drop_pct in 0u32..40,
        dup_pct in 0u32..40,
    ) {
        const N: u64 = 400;
        let (drop_p, dup_p) = (f64::from(drop_pct) / 100.0, f64::from(dup_pct) / 100.0);
        let plan = FaultPlan::new(seed)
            .with_default_link(LinkFault::lossy(drop_p, dup_p, 0.0, Duration::ZERO));
        let bus: Bus<u32> = Bus::new(NetConfig::instant().with_fault(plan));
        let dest = Addr::Server(ServerId(0));
        let ep = bus.register(dest);
        for i in 0..N as u32 {
            bus.send(dest, i).unwrap();
        }
        let net = aloha_net::Transport::snapshot(&bus);
        let drops = net.counter("injected_drops").unwrap_or(0);
        let dups = net.counter("injected_dups").unwrap_or(0);
        // Dropping the bus closes the delay line, which flushes every copy
        // still in flight before the worker exits.
        drop(bus);
        let mut delivered = Vec::new();
        while let Some(v) = ep.try_recv() {
            delivered.push(v);
        }
        prop_assert_eq!(delivered.len() as u64, N - drops + dups);
        // With no reorders and a FIFO delay line, per-sender order survives;
        // duplicated copies arrive back-to-back.
        prop_assert!(delivered.windows(2).all(|w| w[0] <= w[1]), "order violated");
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for v in &delivered {
            prop_assert!(u64::from(*v) < N, "delivered a value never sent: {}", v);
            *counts.entry(*v).or_insert(0) += 1;
        }
        prop_assert!(counts.values().all(|&c| c <= 2), "more than one duplicate");
        prop_assert_eq!(counts.values().filter(|&&c| c == 2).count() as u64, dups);
        prop_assert_eq!((N - counts.len() as u64), drops);
        // Counter magnitudes: binomial mean ± 6 sigma (+1 slack), so a seed
        // that makes the RNG ignore its probabilities would be caught.
        let sigma_bound = |trials: u64, p: f64| 6.0 * (trials as f64 * p * (1.0 - p)).sqrt() + 1.0;
        let drop_dev = (drops as f64 - N as f64 * drop_p).abs();
        prop_assert!(drop_dev <= sigma_bound(N, drop_p), "drops={} p={}", drops, drop_p);
        let survived = N - drops;
        let dup_dev = (dups as f64 - survived as f64 * dup_p).abs();
        prop_assert!(dup_dev <= sigma_bound(survived, dup_p), "dups={} p={}", dups, dup_p);
    }

    /// Reordering alone never loses or duplicates anything: the delivered
    /// multiset equals the sent multiset for every seed and reorder rate.
    #[test]
    fn fault_reorder_preserves_multiset(
        seed in any::<u64>(),
        reorder_pct in 1u32..=100,
    ) {
        const N: u32 = 60;
        let plan = FaultPlan::new(seed).with_default_link(LinkFault::lossy(
            0.0, 0.0, f64::from(reorder_pct) / 100.0, Duration::from_micros(500),
        ));
        let bus: Bus<u32> = Bus::new(NetConfig::instant().with_fault(plan));
        let dest = Addr::Server(ServerId(0));
        let ep = bus.register(dest);
        for i in 0..N {
            bus.send(dest, i).unwrap();
        }
        drop(bus);
        let mut delivered = Vec::new();
        while let Some(v) = ep.try_recv() {
            delivered.push(v);
        }
        delivered.sort_unstable();
        prop_assert_eq!(delivered, (0..N).collect::<Vec<_>>());
    }

    /// The delay line never releases an item before its deadline of
    /// `latency + extra`, for any latency, jitter, and extra-delay mix
    /// (jitter only ever adds).
    #[test]
    fn delay_line_never_releases_early(
        latency_us in 100u64..3_000,
        jitter_us in 0u64..1_000,
        jitter_seed in any::<u64>(),
        extras_us in proptest::collection::vec(0u64..3_000, 1..12),
    ) {
        let latency = Duration::from_micros(latency_us);
        let config = NetConfig::with_jitter(latency, Duration::from_micros(jitter_us), jitter_seed);
        let (tx, rx) = mpsc::channel();
        let line = DelayLine::spawn(config, move |(sent, extra): (Instant, Duration)| {
            tx.send((sent, extra, Instant::now())).unwrap();
        });
        for e in &extras_us {
            let extra = Duration::from_micros(*e);
            line.push_after((Instant::now(), extra), extra);
        }
        line.close();
        let mut released = 0usize;
        while let Ok((sent, extra, got)) = rx.try_recv() {
            released += 1;
            prop_assert!(
                got - sent >= latency + extra,
                "released after {:?}, deadline {:?}",
                got - sent,
                latency + extra
            );
        }
        prop_assert_eq!(released, extras_us.len());
    }
}
