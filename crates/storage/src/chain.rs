//! Per-key ordered version chains with value watermarks (Fig 4), split into
//! a packed settled section and a live tail.
//!
//! Installed records start life in the *live* tail as `Arc<Record>` cells
//! that the computing phase finalizes in place. Once a record sinks below
//! its key's value watermark it is immutable; compaction promotes it into
//! the *packed* settled section — sorted `(version, final form)` pairs with
//! no per-record `Arc` or lock — and folds the dead prefix below the
//! retention horizon away entirely, keeping the newest committed records as
//! the materialized base. Preloaded rows skip the live tail: they are final
//! from the start, so [`VersionChain::load`] packs them directly.
//!
//! Almost every chain holds exactly one settled record, so the packed
//! section keeps its first record inline in the chain; only a longer
//! settled history allocates a vector. Reads see the section as one sorted
//! slice, consult both sections and take the floor across them, so neither
//! split is visible to Algorithm 1.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aloha_common::{Timestamp, Value};
use aloha_functor::Functor;
use parking_lot::RwLock;

/// A settled record's payload: one of the three final forms of Table I.
///
/// Unlike [`Functor`], this type can never carry a pending f-type, so holding
/// or cloning one never touches a user functor's read set or argument blob.
/// Cloning is a reference-count bump on the value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinalForm {
    /// `VALUE` — the materialized value.
    Value(Value),
    /// `ABORTED` — this version aborted; reads skip it.
    Aborted,
    /// `DELETED` — tombstone.
    Deleted,
}

impl FinalForm {
    /// The final form of `functor`, if it has one.
    pub fn of(functor: &Functor) -> Option<FinalForm> {
        match functor {
            Functor::Value(v) => Some(FinalForm::Value(v.clone())),
            Functor::Aborted => Some(FinalForm::Aborted),
            Functor::Deleted => Some(FinalForm::Deleted),
            _ => None,
        }
    }

    /// The committed value, if this form is a `VALUE`.
    pub fn value(&self) -> Option<&Value> {
        match self {
            FinalForm::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this version aborted.
    pub fn is_aborted(&self) -> bool {
        matches!(self, FinalForm::Aborted)
    }

    /// Converts back into the equivalent (final) [`Functor`].
    pub fn into_functor(self) -> Functor {
        match self {
            FinalForm::Value(v) => Functor::Value(v),
            FinalForm::Aborted => Functor::Aborted,
            FinalForm::Deleted => Functor::Deleted,
        }
    }
}

/// One packed settled record: version plus final form, no lock, no `Arc`.
#[derive(Debug, Clone)]
struct PackedRecord {
    version: Timestamp,
    form: FinalForm,
}

/// The packed settled section, versions strictly ascending. The first
/// record lives inline; only a second one moves the section into a vector,
/// and shrinking back to one record moves it inline again.
#[derive(Debug, Default)]
enum Packed {
    #[default]
    Empty,
    One(PackedRecord),
    Many(Vec<PackedRecord>),
}

impl Packed {
    /// Inserts `rec` at `pos` (the caller keeps versions sorted).
    fn insert(&mut self, pos: usize, rec: PackedRecord) {
        *self = match std::mem::take(self) {
            Packed::Empty => Packed::One(rec),
            Packed::One(first) => {
                let mut many = vec![first];
                many.insert(pos, rec);
                Packed::Many(many)
            }
            Packed::Many(mut many) => {
                many.insert(pos, rec);
                Packed::Many(many)
            }
        };
    }

    /// Keeps only the records `keep` accepts, preserving order.
    fn retain(&mut self, mut keep: impl FnMut(&PackedRecord) -> bool) {
        match self {
            Packed::Empty => {}
            Packed::One(rec) => {
                if !keep(rec) {
                    *self = Packed::Empty;
                }
            }
            Packed::Many(many) => {
                many.retain(keep);
                if many.len() <= 1 {
                    *self = many.pop().map_or(Packed::Empty, Packed::One);
                }
            }
        }
    }

    /// Heap bytes held beyond the inline record.
    fn spill_bytes(&self) -> usize {
        match self {
            Packed::Many(many) => many.capacity() * std::mem::size_of::<PackedRecord>(),
            _ => 0,
        }
    }
}

impl Deref for Packed {
    type Target = [PackedRecord];

    fn deref(&self) -> &[PackedRecord] {
        match self {
            Packed::Empty => &[],
            Packed::One(rec) => std::slice::from_ref(rec),
            Packed::Many(many) => many,
        }
    }
}

impl DerefMut for Packed {
    fn deref_mut(&mut self) -> &mut [PackedRecord] {
        match self {
            Packed::Empty => &mut [],
            Packed::One(rec) => std::slice::from_mut(rec),
            Packed::Many(many) => many,
        }
    }
}

/// One live version record: a version number plus a functor cell that is
/// replaced by its final form at most once.
///
/// The paper stores `<version, f-type, f-argument>` triples; here the functor
/// enum carries both the f-type and the f-argument. The cell is guarded by a
/// light reader-writer lock; once the record settles, compaction moves its
/// final form into the chain's packed section and the cell is dropped.
#[derive(Debug)]
pub struct Record {
    version: Timestamp,
    cell: RwLock<Functor>,
}

impl Record {
    fn new(version: Timestamp, functor: Functor) -> Record {
        Record {
            version,
            cell: RwLock::new(functor),
        }
    }

    /// The version (transaction timestamp) of this record.
    pub fn version(&self) -> Timestamp {
        self.version
    }

    /// Snapshot of the current functor (clones the full functor — use
    /// [`Record::final_form`] on read paths that only need the outcome).
    pub fn load(&self) -> Functor {
        self.cell.read().clone()
    }

    /// Settled-read fast path: the final form if the record is already
    /// settled, `None` if it still needs the computing phase. A pending
    /// record costs one lock-guarded enum check here — no clone of the full
    /// functor (user f-arguments, read set and all) just to discover it
    /// isn't final; a settled one costs a reference-count bump on the value.
    pub fn final_form(&self) -> Option<FinalForm> {
        FinalForm::of(&self.cell.read())
    }

    /// Whether the record already holds a final form.
    pub fn is_final(&self) -> bool {
        self.cell.read().is_final()
    }

    /// Replaces the functor with its final form, once.
    ///
    /// Returns `true` if this call performed the replacement, `false` if the
    /// record was already final (another thread computed it first — benign,
    /// because functor computation is deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `final_form` is not final; storing a non-final functor here
    /// would violate the compute-at-most-once invariant.
    pub fn finalize(&self, final_form: Functor) -> bool {
        assert!(
            final_form.is_final(),
            "finalize called with non-final functor {final_form}"
        );
        let mut guard = self.cell.write();
        if guard.is_final() {
            return false;
        }
        *guard = final_form;
        true
    }

    /// Forcibly rewrites the record to `ABORTED`.
    ///
    /// Used by the coordinator's second-round abort (§V-A2) for versions
    /// installed in the current epoch; such versions are not yet visible to
    /// readers, so the rewrite is safe even if the record was final.
    pub fn force_abort(&self) {
        *self.cell.write() = Functor::Aborted;
    }
}

/// One chain lookup result, spanning both sections.
#[derive(Debug, Clone)]
pub enum ChainRead {
    /// A settled record: version plus final form (borrow-cheap).
    Final(Timestamp, FinalForm),
    /// A live record that may still need the computing phase.
    Live(Arc<Record>),
}

impl ChainRead {
    /// The version of the record this lookup found.
    pub fn version(&self) -> Timestamp {
        match self {
            ChainRead::Final(v, _) => *v,
            ChainRead::Live(rec) => rec.version(),
        }
    }
}

/// Result of a frontier snapshot read (see [`VersionChain::snapshot_read`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRead {
    /// No version exists at or below the bound (never-written key, or the
    /// whole prefix aborted).
    Missing,
    /// The newest non-aborted record at or below the bound: a committed
    /// value or a tombstone.
    Found(Timestamp, FinalForm),
    /// A record at or below the bound has not been computed yet. Sound
    /// snapshot bounds (at or below the cluster compute frontier) never see
    /// this; a caller that does must take the computing read path instead.
    Pending,
    /// Compaction has folded the record that would have answered this read
    /// (the bound's true floor was a committed version at or below the
    /// compacted floor), so the read cannot be answered exactly. Carries
    /// the oldest bound at which this chain answers exactly again (the
    /// oldest surviving committed record); the caller must retry there or
    /// above. Detected under the same lock as the read itself, so a fold
    /// can never slip in between a floor check and the answer.
    Folded(Timestamp),
}

/// Per-chain memory accounting (the `memory` stats subtree feeds from this).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainMem {
    /// Records still in the live (`Arc` + lock) tail.
    pub live: usize,
    /// Records in the packed settled section.
    pub settled: usize,
    /// Records folded away by compaction over this chain's lifetime.
    pub compacted: u64,
    /// Bytes this chain holds: its own `Arc` allocation (with the inline
    /// settled record), any spilled settled vector and live tail, every
    /// live `Record` with its functor's heap payload, and the heap bytes of
    /// settled values (inline values count 0).
    pub bytes: usize,
}

#[derive(Debug, Default)]
struct ChainInner {
    /// Packed settled records, versions strictly ascending.
    settled: Packed,
    /// Live records, versions strictly ascending (disjoint from `settled`).
    live: Vec<Arc<Record>>,
    /// Highest version folded away by compaction (`ZERO` if none). Versions
    /// at or below this with no surviving record are committed history:
    /// aborted records are never folded, so a missing version here cannot
    /// have aborted.
    compacted_floor: Timestamp,
    /// Total records folded away over this chain's lifetime.
    compacted: u64,
}

impl ChainInner {
    /// Index of the settled entry with exactly `version`, if present.
    fn settled_at(&self, version: Timestamp) -> Option<usize> {
        self.settled
            .binary_search_by_key(&version, |p| p.version)
            .ok()
    }

    /// Index of the live entry with exactly `version`, if present.
    fn live_at(&self, version: Timestamp) -> Option<usize> {
        self.live.binary_search_by_key(&version, |r| r.version).ok()
    }

    /// The newest record at or below `bound` across both sections.
    fn floor(&self, bound: Timestamp) -> Option<ChainRead> {
        let s = self
            .settled
            .partition_point(|p| p.version <= bound)
            .checked_sub(1);
        let l = self
            .live
            .partition_point(|r| r.version <= bound)
            .checked_sub(1);
        match (s, l) {
            (None, None) => None,
            (Some(si), None) => {
                let p = &self.settled[si];
                Some(ChainRead::Final(p.version, p.form.clone()))
            }
            (None, Some(li)) => Some(ChainRead::Live(Arc::clone(&self.live[li]))),
            (Some(si), Some(li)) => {
                let p = &self.settled[si];
                if p.version > self.live[li].version {
                    Some(ChainRead::Final(p.version, p.form.clone()))
                } else {
                    Some(ChainRead::Live(Arc::clone(&self.live[li])))
                }
            }
        }
    }

    /// The oldest bound a snapshot read answers exactly on a folded chain:
    /// the oldest surviving committed record. Compaction always keeps the
    /// fold's base, so a committed survivor exists whenever the compacted
    /// floor is non-zero; the floor itself is the (conservative) fallback.
    fn retry_floor(&self) -> Timestamp {
        self.settled
            .iter()
            .find(|p| !p.form.is_aborted())
            .map(|p| p.version)
            .or_else(|| {
                self.live
                    .iter()
                    .find(|r| r.final_form().is_some_and(|f| !f.is_aborted()))
                    .map(|r| r.version())
            })
            .unwrap_or(self.compacted_floor)
            .max(self.compacted_floor)
    }
}

/// The ordered multi-version chain for one key.
///
/// Versions are kept sorted ascending. Writes arrive in nearly sorted order
/// (timestamps are drawn from synchronized clocks within an epoch), so
/// insertion is amortized O(1): push at the tail and rotate backwards past
/// the few out-of-order predecessors. The paper uses a linked list of arrays;
/// a contiguous growable vector gives the same ordered-scan behavior with
/// better locality in Rust.
///
/// # Examples
///
/// ```
/// use aloha_common::Timestamp;
/// use aloha_functor::Functor;
/// use aloha_storage::VersionChain;
///
/// let chain = VersionChain::new();
/// chain.insert(Timestamp::from_raw(10), Functor::value_i64(1));
/// chain.insert(Timestamp::from_raw(5), Functor::value_i64(0));
/// let read = chain.floor(Timestamp::from_raw(7)).unwrap();
/// assert_eq!(read.version(), Timestamp::from_raw(5));
/// ```
#[derive(Debug, Default)]
pub struct VersionChain {
    inner: RwLock<ChainInner>,
    /// Versions `<=` this are all final (the paper's *value watermark*;
    /// `Timestamp::ZERO.raw()` when nothing is settled).
    watermark: AtomicU64,
}

impl VersionChain {
    /// Creates an empty chain.
    pub fn new() -> VersionChain {
        VersionChain::default()
    }

    /// Inserts a record, keeping versions sorted.
    ///
    /// Returns `false` (and changes nothing) if the version already exists —
    /// including versions already folded away by compaction — so deferred
    /// writes and retried messages are harmless.
    pub fn insert(&self, version: Timestamp, functor: Functor) -> bool {
        let mut inner = self.inner.write();
        if version <= inner.compacted_floor || inner.settled_at(version).is_some() {
            return false; // settled (possibly folded) history: idempotent no-op
        }
        // Fast path: strictly ascending append.
        if inner.live.last().is_none_or(|r| r.version < version) {
            inner.live.push(Arc::new(Record::new(version, functor)));
            return true;
        }
        match inner.live.binary_search_by_key(&version, |r| r.version) {
            Ok(_) => false,
            Err(pos) => {
                inner
                    .live
                    .insert(pos, Arc::new(Record::new(version, functor)));
                true
            }
        }
    }

    /// Stores a preloaded row: `value` at `version`, packed straight into
    /// the settled section, with the watermark raised to `version`.
    ///
    /// Returns `false` (and changes nothing) if the version already exists
    /// in either section or was folded away, so loading is idempotent and
    /// the first write wins, exactly as with [`VersionChain::insert`].
    pub fn load(&self, version: Timestamp, value: Value) -> bool {
        let mut inner = self.inner.write();
        if version <= inner.compacted_floor || inner.live_at(version).is_some() {
            return false;
        }
        let Err(pos) = inner.settled.binary_search_by_key(&version, |p| p.version) else {
            return false;
        };
        inner.settled.insert(
            pos,
            PackedRecord {
                version,
                form: FinalForm::Value(value),
            },
        );
        // Packed records must sit at or below the watermark. Raise it only
        // over a final live prefix, and under the write lock, so no pending
        // record can end up covered.
        if inner
            .live
            .iter()
            .take_while(|r| r.version <= version)
            .all(|r| r.is_final())
        {
            self.advance_watermark(version);
        }
        true
    }

    /// The record with exactly this version, if present in either section.
    pub fn read_at(&self, version: Timestamp) -> Option<ChainRead> {
        let inner = self.inner.read();
        if let Some(i) = inner.settled_at(version) {
            let p = &inner.settled[i];
            return Some(ChainRead::Final(p.version, p.form.clone()));
        }
        inner
            .live_at(version)
            .map(|i| ChainRead::Live(Arc::clone(&inner.live[i])))
    }

    /// The latest record with version `<= bound`, if any (Alg 1 line 17).
    pub fn floor(&self, bound: Timestamp) -> Option<ChainRead> {
        self.inner.read().floor(bound)
    }

    /// Abort-skipping floor for the snapshot-read fast path: the newest
    /// non-aborted final record at or below `bound`, resolved under a
    /// *single* read-lock acquisition.
    ///
    /// Packed records answer with no per-record lock and no `Arc` clone
    /// escaping; a still-live record contributes its final form in place.
    /// When `bound` is at or below the cluster compute frontier every record
    /// it can reach is final, so the whole aborted-skip walk completes
    /// without computing, blocking, or re-locking between probes — which is
    /// what makes the result a consistent point-in-time read even while
    /// newer versions land in the live tail.
    pub fn snapshot_read(&self, bound: Timestamp) -> SnapshotRead {
        let inner = self.inner.read();
        let mut cursor = bound;
        loop {
            let Some(read) = inner.floor(cursor) else {
                // Nothing non-aborted at or below the cursor. That is a
                // genuine miss only on a never-folded chain: folded records
                // are all *committed*, so with a non-zero compacted floor
                // the true floor was (or may have been) folded away and
                // answering `Missing` would silently time-travel.
                return if inner.compacted_floor > Timestamp::ZERO {
                    SnapshotRead::Folded(inner.retry_floor())
                } else {
                    SnapshotRead::Missing
                };
            };
            let (version, form) = match read {
                ChainRead::Final(v, form) => (v, form),
                ChainRead::Live(rec) => match rec.final_form() {
                    Some(form) => (rec.version(), form),
                    None => return SnapshotRead::Pending,
                },
            };
            if form.is_aborted() {
                cursor = version.pred();
            } else {
                return SnapshotRead::Found(version, form);
            }
        }
    }

    /// All records with versions in `[from, to]` that still need computing,
    /// ascending (Alg 1 line 4). Packed records are final by construction,
    /// so only the live tail is scanned.
    pub fn uncomputed_in(&self, from: Timestamp, to: Timestamp) -> Vec<Arc<Record>> {
        let inner = self.inner.read();
        let start = inner.live.partition_point(|r| r.version < from);
        inner.live[start..]
            .iter()
            .take_while(|r| r.version <= to)
            .filter(|r| !r.is_final())
            .map(Arc::clone)
            .collect()
    }

    /// Rewrites `version` to `ABORTED` wherever it lives (§V-A2 rollback),
    /// pre-inserting an `ABORTED` record if the version is unknown so a late
    /// install becomes a first-write-wins no-op. Folded versions are left
    /// alone: only committed history is ever folded, and a commit can only
    /// have been folded after its epoch settled — any abort arriving that
    /// late is a duplicate of one already applied.
    pub fn force_abort_at(&self, version: Timestamp) {
        let mut inner = self.inner.write();
        if let Some(i) = inner.settled_at(version) {
            inner.settled[i].form = FinalForm::Aborted;
            return;
        }
        if let Some(i) = inner.live_at(version) {
            inner.live[i].force_abort();
            return;
        }
        if version <= inner.compacted_floor {
            return;
        }
        let pos = inner.live.partition_point(|r| r.version < version);
        inner
            .live
            .insert(pos, Arc::new(Record::new(version, Functor::Aborted)));
    }

    /// Settles `version` to `final_form`, inserting the record if the
    /// version is unknown. Used by checkpoint restore, where each entry is
    /// the authoritative final form of that exact version: a pending functor
    /// already installed at the version (a shipped WAL frame that raced
    /// ahead of the bootstrap) is finalized in place — a plain first-write-
    /// wins put would lose to it and leave a non-final record under the
    /// watermark the restore is about to raise. Records already final are
    /// left untouched (computation is deterministic, the forms agree).
    ///
    /// # Panics
    ///
    /// Panics if `final_form` is not final.
    pub fn settle_at(&self, version: Timestamp, final_form: Functor) {
        assert!(
            final_form.is_final(),
            "settle_at called with non-final functor {final_form}"
        );
        let mut inner = self.inner.write();
        if version <= inner.compacted_floor || inner.settled_at(version).is_some() {
            return;
        }
        if let Some(i) = inner.live_at(version) {
            inner.live[i].finalize(final_form);
            return;
        }
        let pos = inner.live.partition_point(|r| r.version < version);
        inner
            .live
            .insert(pos, Arc::new(Record::new(version, final_form)));
    }

    /// Current value watermark.
    pub fn watermark(&self) -> Timestamp {
        Timestamp::from_raw(self.watermark.load(Ordering::Acquire))
    }

    /// Raises the watermark to at least `to` only when every stored record
    /// at or below `to` is final — the chain-local form of the watermark
    /// invariant, checked instead of assumed. Returns whether the chain's
    /// watermark now covers `to`.
    ///
    /// Replication standbys use this: shipped records arrive out of settle
    /// order (an abort for a still-open epoch, a form the primary resolved
    /// ahead of its neighbours, a promotion's unsettled tail), and a final
    /// record must never cover a pending sibling below it — `compute` would
    /// skip the range and leave the pending record stranded forever. The
    /// check and the advance happen under one chain read lock, so no
    /// concurrent insert can slip a pending record underneath.
    pub fn try_advance_watermark(&self, to: Timestamp) -> bool {
        // Records at or below the current watermark are final by invariant,
        // so only the (watermark, to] span needs checking — the scan is
        // amortized O(1) per record as the watermark ratchets forward.
        let wm = self.watermark();
        if to <= wm {
            return true;
        }
        let inner = self.inner.read();
        let start = inner.live.partition_point(|r| r.version <= wm);
        if inner.live[start..]
            .iter()
            .take_while(|r| r.version <= to)
            .any(|r| !r.is_final())
        {
            return false;
        }
        // Packed records are final by construction; the compacted floor only
        // ever trails the watermark. Holding the read lock through the CAS
        // keeps inserters (write lock) out until the advance lands.
        self.advance_watermark(to);
        true
    }

    /// Raises the watermark to at least `to` (Alg 1 lines 7-9: CAS loop).
    pub fn advance_watermark(&self, to: Timestamp) {
        let mut cur = self.watermark.load(Ordering::Acquire);
        while cur < to.raw() {
            match self.watermark.compare_exchange_weak(
                cur,
                to.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Number of stored versions (both sections).
    pub fn len(&self) -> usize {
        let inner = self.inner.read();
        inner.settled.len() + inner.live.len()
    }

    /// Whether the chain has no versions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All versions in ascending order (diagnostics and tests).
    pub fn versions(&self) -> Vec<Timestamp> {
        let inner = self.inner.read();
        let mut out: Vec<Timestamp> = inner.settled.iter().map(|p| p.version).collect();
        out.extend(inner.live.iter().map(|r| r.version));
        out.sort_unstable();
        out
    }

    /// Snapshot of `(version, functor)` pairs, ascending (diagnostics).
    pub fn dump(&self) -> Vec<(Timestamp, Functor)> {
        let inner = self.inner.read();
        let mut out: Vec<(Timestamp, Functor)> = inner
            .settled
            .iter()
            .map(|p| (p.version, p.form.clone().into_functor()))
            .collect();
        out.extend(inner.live.iter().map(|r| (r.version, r.load())));
        out.sort_unstable_by_key(|(v, _)| *v);
        out
    }

    /// Highest version folded away by compaction (`ZERO` if none).
    pub fn compacted_floor(&self) -> Timestamp {
        self.inner.read().compacted_floor
    }

    /// Per-chain memory accounting: what this chain holds on the heap,
    /// counting the `Arc` the store keeps it in (see [`ChainMem::bytes`]).
    pub fn mem(&self) -> ChainMem {
        const ARC_COUNTS: usize = 2 * std::mem::size_of::<usize>();
        let inner = self.inner.read();
        let mut bytes = ARC_COUNTS
            + std::mem::size_of::<VersionChain>()
            + inner.settled.spill_bytes()
            + inner.live.capacity() * std::mem::size_of::<Arc<Record>>();
        for p in inner.settled.iter() {
            if let FinalForm::Value(v) = &p.form {
                bytes += v.heap_bytes();
            }
        }
        for r in &inner.live {
            bytes += ARC_COUNTS + std::mem::size_of::<Record>() + r.cell.read().heap_bytes();
        }
        ChainMem {
            live: inner.live.len(),
            settled: inner.settled.len(),
            compacted: inner.compacted,
            bytes,
        }
    }

    /// Watermark-driven compaction: promotes settled live records into the
    /// packed section and folds the dead committed prefix away.
    ///
    /// Only records at or below the value watermark move; of the packed
    /// committed (non-aborted) records, the newest `keep_versions` (at least
    /// one — the materialized base readers floor onto) survive, and so does
    /// the newest committed version at or below `horizon`: only versions
    /// strictly below both survive points are folded. `ABORTED` records are
    /// never folded: they are what lets a late outcome probe distinguish
    /// "this version aborted" from "this version committed and was folded".
    ///
    /// Reads at bounds at or above `horizon` (and at or above the oldest
    /// surviving committed version) are unaffected — their flooring base is
    /// always retained; bounds below that are below the retention horizon
    /// and may see less history.
    ///
    /// Returns the number of records folded away.
    pub fn compact(&self, horizon: Timestamp, keep_versions: usize) -> usize {
        let wm = self.watermark();
        {
            // Early-out under the read lock: a store-wide sweep visits every
            // chain, and in steady state most are already compact. Taking
            // the write lock only when there is promotable or foldable work
            // keeps the sweeper off the install/compute paths' locks.
            let inner = self.inner.read();
            let promotable = inner.live.first().is_some_and(|r| r.version() <= wm);
            if !promotable && inner.settled.len() <= keep_versions.max(1) {
                return 0;
            }
        }
        let mut inner = self.inner.write();

        // Promote: final live records at or below the watermark become
        // packed. They form a prefix of the (sorted) live tail; anything
        // non-final below the watermark would be a broken invariant, so it
        // is defensively left live for the computing phase.
        let cut = inner.live.partition_point(|r| r.version <= wm);
        if cut > 0 {
            let prefix: Vec<Arc<Record>> = inner.live.drain(..cut).collect();
            for rec in prefix {
                match rec.final_form() {
                    Some(form) => {
                        let packed = PackedRecord {
                            version: rec.version(),
                            form,
                        };
                        // Promotions interleave with earlier promotions and
                        // below-watermark deferred installs: merge sorted.
                        match inner
                            .settled
                            .binary_search_by_key(&packed.version, |p| p.version)
                        {
                            Ok(_) => {} // duplicate: first write wins
                            Err(pos) => inner.settled.insert(pos, packed),
                        }
                    }
                    None => {
                        let pos = inner.live.partition_point(|r| r.version < rec.version());
                        inner.live.insert(pos, rec);
                    }
                }
            }
        }

        // Fold: of the committed entries, keep the newest `keep` and drop
        // the rest below the horizon.
        let keep = keep_versions.max(1);
        let committed: Vec<usize> = inner
            .settled
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.form.is_aborted())
            .map(|(i, _)| i)
            .collect();
        if committed.len() <= keep {
            return 0;
        }
        let keep_from = inner.settled[committed[committed.len() - keep]].version;
        // Reads at bounds in `[horizon_base, horizon]` floor onto the newest
        // committed version at or below the horizon; that flooring base must
        // survive even when the retention cut (`keep_from`) lies above the
        // horizon, or a read at the horizon would find its history gone. No
        // committed version at or below the horizon means nothing below it
        // is foldable at all.
        let horizon_base = committed
            .iter()
            .rev()
            .map(|&i| inner.settled[i].version)
            .find(|v| *v <= horizon);
        let Some(horizon_base) = horizon_base else {
            return 0;
        };
        let fold_below = keep_from.min(horizon_base);
        let before = inner.settled.len();
        let mut floor = inner.compacted_floor;
        inner.settled.retain(|p| {
            if !p.form.is_aborted() && p.version < fold_below {
                floor = floor.max(p.version);
                false
            } else {
                true
            }
        });
        let folded = before - inner.settled.len();
        inner.compacted_floor = floor;
        inner.compacted += folded as u64;
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_common::Value;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_raw(v)
    }

    /// The final functor at `version`, whichever section holds it.
    fn functor_at(chain: &VersionChain, version: Timestamp) -> Option<Functor> {
        match chain.read_at(version)? {
            ChainRead::Final(_, form) => Some(form.into_functor()),
            ChainRead::Live(rec) => Some(rec.load()),
        }
    }

    #[test]
    fn insert_keeps_sorted_under_out_of_order_arrivals() {
        let chain = VersionChain::new();
        for v in [50u64, 10, 30, 20, 40] {
            assert!(chain.insert(ts(v), Functor::value_i64(v as i64)));
        }
        assert_eq!(
            chain.versions(),
            vec![ts(10), ts(20), ts(30), ts(40), ts(50)]
        );
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let chain = VersionChain::new();
        assert!(chain.insert(ts(10), Functor::value_i64(1)));
        assert!(!chain.insert(ts(10), Functor::value_i64(2)));
        assert_eq!(functor_at(&chain, ts(10)).unwrap(), Functor::value_i64(1));
    }

    #[test]
    fn floor_finds_latest_at_or_below() {
        let chain = VersionChain::new();
        chain.insert(ts(10), Functor::value_i64(1));
        chain.insert(ts(20), Functor::value_i64(2));
        assert!(chain.floor(ts(9)).is_none());
        assert_eq!(chain.floor(ts(10)).unwrap().version(), ts(10));
        assert_eq!(chain.floor(ts(15)).unwrap().version(), ts(10));
        assert_eq!(chain.floor(ts(99)).unwrap().version(), ts(20));
    }

    #[test]
    fn finalize_happens_once() {
        let rec = Record::new(ts(5), Functor::add(1));
        assert!(!rec.is_final());
        assert!(rec.finalize(Functor::value_i64(3)));
        assert!(
            !rec.finalize(Functor::value_i64(9)),
            "second finalize must lose"
        );
        assert_eq!(rec.load(), Functor::value_i64(3));
    }

    #[test]
    #[should_panic(expected = "non-final")]
    fn finalize_rejects_non_final_form() {
        let rec = Record::new(ts(5), Functor::add(1));
        rec.finalize(Functor::add(2));
    }

    #[test]
    fn force_abort_overwrites_even_final() {
        let rec = Record::new(ts(5), Functor::Value(Value::from_i64(1)));
        rec.force_abort();
        assert_eq!(rec.load(), Functor::Aborted);
    }

    #[test]
    fn final_form_is_borrow_cheap_and_none_for_pending() {
        let rec = Record::new(ts(5), Functor::add(1));
        assert!(rec.final_form().is_none());
        rec.finalize(Functor::value_i64(7));
        assert_eq!(rec.final_form().unwrap().value().unwrap().as_i64(), Some(7));
    }

    #[test]
    fn uncomputed_scan_respects_range_and_finality() {
        let chain = VersionChain::new();
        chain.insert(ts(10), Functor::value_i64(0)); // final
        chain.insert(ts(20), Functor::add(1));
        chain.insert(ts(30), Functor::add(2));
        chain.insert(ts(40), Functor::add(3));
        let pending = chain.uncomputed_in(ts(15), ts(30));
        let versions: Vec<_> = pending.iter().map(|r| r.version()).collect();
        assert_eq!(versions, vec![ts(20), ts(30)]);
    }

    #[test]
    fn watermark_advances_monotonically() {
        let chain = VersionChain::new();
        chain.advance_watermark(ts(10));
        chain.advance_watermark(ts(5)); // no-op
        assert_eq!(chain.watermark(), ts(10));
        chain.advance_watermark(ts(30));
        assert_eq!(chain.watermark(), ts(30));
    }

    #[test]
    fn concurrent_watermark_advance_takes_max() {
        let chain = Arc::new(VersionChain::new());
        let handles: Vec<_> = (1..=8u64)
            .map(|i| {
                let c = Arc::clone(&chain);
                std::thread::spawn(move || c.advance_watermark(ts(i * 100)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(chain.watermark(), ts(800));
    }

    #[test]
    fn concurrent_inserts_preserve_order_and_count() {
        let chain = Arc::new(VersionChain::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&chain);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        c.insert(ts(t * 1000 + i + 1), Functor::value_i64(0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let versions = chain.versions();
        assert_eq!(versions.len(), 1000);
        assert!(
            versions.windows(2).all(|w| w[0] < w[1]),
            "versions must stay sorted"
        );
    }

    #[test]
    fn compact_promotes_settled_records_into_packed_section() {
        let chain = VersionChain::new();
        for v in [10u64, 20, 30] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.insert(ts(40), Functor::add(1)); // pending, above watermark
        chain.advance_watermark(ts(30));
        assert_eq!(chain.compact(Timestamp::ZERO, usize::MAX), 0);
        let m = chain.mem();
        assert_eq!((m.settled, m.live), (3, 1));
        // Reads behave identically after promotion.
        let read = chain.floor(ts(25)).unwrap();
        assert_eq!(read.version(), ts(20));
        match read {
            ChainRead::Final(_, form) => {
                assert_eq!(form.value().unwrap().as_i64(), Some(20));
            }
            ChainRead::Live(_) => panic!("promoted record must read as Final"),
        }
    }

    #[test]
    fn compact_folds_dead_prefix_and_keeps_base() {
        let chain = VersionChain::new();
        for v in [10u64, 20, 30, 40] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.advance_watermark(ts(40));
        // keep_versions=1: only the newest committed record survives.
        let folded = chain.compact(ts(40), 1);
        assert_eq!(folded, 3);
        assert_eq!(chain.versions(), vec![ts(40)]);
        assert_eq!(chain.compacted_floor(), ts(30));
        assert_eq!(chain.mem().compacted, 3);
        // The base still answers reads at or above its version.
        let read = chain.floor(ts(99)).unwrap();
        assert_eq!(read.version(), ts(40));
    }

    #[test]
    fn compact_retention_keeps_requested_history() {
        let chain = VersionChain::new();
        for v in [10u64, 20, 30, 40] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.advance_watermark(ts(40));
        assert_eq!(chain.compact(ts(40), 2), 2); // 10 and 20 fold
        assert_eq!(chain.versions(), vec![ts(30), ts(40)]);
        // Snapshot reads within the retained window still resolve.
        assert_eq!(chain.floor(ts(35)).unwrap().version(), ts(30));
    }

    #[test]
    fn compact_horizon_caps_folding() {
        let chain = VersionChain::new();
        for v in [10u64, 20, 30, 40] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.advance_watermark(ts(40));
        // Horizon 20: even with keep_versions=1, only versions below 20 fold.
        assert_eq!(chain.compact(ts(20), 1), 1);
        assert_eq!(chain.versions(), vec![ts(20), ts(30), ts(40)]);
    }

    #[test]
    fn compact_keeps_flooring_base_when_retention_cut_exceeds_horizon() {
        // Regression: with committed versions straddling the horizon and the
        // retention cut (newest `keep`) entirely above it, the fold must not
        // take every committed version at or below the horizon with it — a
        // read flooring at the horizon still needs the newest such version.
        let chain = VersionChain::new();
        for v in [10u64, 20, 100] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.advance_watermark(ts(100));
        // keep_versions=1 → retention cut at 100; horizon 50 sits between.
        assert_eq!(chain.compact(ts(50), 1), 1, "only version 10 may fold");
        assert_eq!(chain.versions(), vec![ts(20), ts(100)]);
        // The horizon read keeps its flooring base.
        assert_eq!(chain.floor(ts(50)).unwrap().version(), ts(20));
        // No committed version at or below the horizon: nothing may fold.
        let fresh = VersionChain::new();
        fresh.insert(ts(60), Functor::value_i64(60));
        fresh.insert(ts(70), Functor::value_i64(70));
        fresh.advance_watermark(ts(70));
        assert_eq!(fresh.compact(ts(50), 1), 0);
        assert_eq!(fresh.versions(), vec![ts(60), ts(70)]);
    }

    #[test]
    fn compact_never_folds_aborted_records() {
        let chain = VersionChain::new();
        chain.insert(ts(10), Functor::value_i64(1));
        chain.insert(ts(20), Functor::Aborted);
        chain.insert(ts(30), Functor::value_i64(3));
        chain.advance_watermark(ts(30));
        assert_eq!(chain.compact(ts(99), 1), 1); // only 10 folds
        assert_eq!(chain.versions(), vec![ts(20), ts(30)]);
        // The aborted record still answers outcome probes.
        match chain.read_at(ts(20)).unwrap() {
            ChainRead::Final(_, form) => assert!(form.is_aborted()),
            ChainRead::Live(_) => panic!("settled abort must be packed"),
        }
        // And reads skip it as before.
        assert_eq!(chain.floor(ts(25)).unwrap().version(), ts(20));
    }

    #[test]
    fn insert_below_compacted_floor_is_idempotent_noop() {
        let chain = VersionChain::new();
        for v in [10u64, 20, 30] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        chain.advance_watermark(ts(30));
        chain.compact(ts(99), 1);
        assert_eq!(chain.compacted_floor(), ts(20));
        // A retried install of folded history must not resurrect a record.
        assert!(!chain.insert(ts(10), Functor::value_i64(999)));
        assert!(!chain.insert(ts(20), Functor::value_i64(999)));
        assert_eq!(chain.versions(), vec![ts(30)]);
    }

    #[test]
    fn force_abort_reaches_both_sections_and_preinserts() {
        let chain = VersionChain::new();
        chain.insert(ts(10), Functor::value_i64(1));
        chain.insert(ts(20), Functor::value_i64(2));
        chain.advance_watermark(ts(10));
        chain.compact(Timestamp::ZERO, usize::MAX); // 10 is packed now
        chain.force_abort_at(ts(20)); // live record
        chain.force_abort_at(ts(30)); // unknown: pre-insert
        match chain.read_at(ts(20)).unwrap() {
            ChainRead::Live(rec) => assert_eq!(rec.load(), Functor::Aborted),
            ChainRead::Final(..) => panic!("20 is above the watermark"),
        }
        assert!(matches!(
            chain.read_at(ts(30)),
            Some(ChainRead::Live(rec)) if rec.load() == Functor::Aborted
        ));
        // Late install after the pre-abort loses (first write wins).
        assert!(!chain.insert(ts(30), Functor::value_i64(9)));
    }

    #[test]
    fn snapshot_read_skips_aborts_and_flags_pending() {
        let chain = VersionChain::new();
        chain.insert(ts(10), Functor::value_i64(1));
        chain.insert(ts(20), Functor::Aborted);
        chain.insert(ts(30), Functor::add(1)); // pending
        assert_eq!(chain.snapshot_read(ts(5)), SnapshotRead::Missing);
        // Aborted 20 is skipped in one lock acquisition.
        match chain.snapshot_read(ts(25)) {
            SnapshotRead::Found(v, form) => {
                assert_eq!(v, ts(10));
                assert_eq!(form.value().unwrap().as_i64(), Some(1));
            }
            other => panic!("expected Found, got {other:?}"),
        }
        // A bound covering the uncomputed record reports Pending.
        assert_eq!(chain.snapshot_read(ts(35)), SnapshotRead::Pending);
        // Packed section answers identically after compaction.
        chain.advance_watermark(ts(20));
        chain.compact(Timestamp::ZERO, usize::MAX);
        match chain.snapshot_read(ts(25)) {
            SnapshotRead::Found(v, _) => assert_eq!(v, ts(10)),
            other => panic!("expected Found, got {other:?}"),
        }
        // Tombstones read as Found(Deleted), not Missing.
        chain.insert(ts(40), Functor::Deleted);
        assert!(matches!(
            chain.snapshot_read(ts(45)),
            SnapshotRead::Found(v, FinalForm::Deleted) if v == ts(40)
        ));
        // Once compaction folds history past a bound, the read reports
        // Folded carrying a retry bound instead of a stale answer — and at
        // that retry bound the chain answers exactly again.
        chain.advance_watermark(ts(40));
        chain.compact(ts(40), 1);
        assert!(chain.compacted_floor() > Timestamp::ZERO);
        let SnapshotRead::Folded(retry) = chain.snapshot_read(ts(5)) else {
            panic!("read below the fold must report Folded");
        };
        assert!(retry > chain.compacted_floor());
        assert!(matches!(
            chain.snapshot_read(retry),
            SnapshotRead::Found(..)
        ));
    }

    #[test]
    fn load_packs_the_row_and_raises_the_watermark() {
        let chain = VersionChain::new();
        assert!(chain.load(ts(1), Value::from_i64(7)));
        let m = chain.mem();
        assert_eq!((m.settled, m.live), (1, 0));
        assert_eq!(chain.watermark(), ts(1));
        assert!(matches!(chain.inner.read().settled, Packed::One(_)));
        match chain.read_at(ts(1)).unwrap() {
            ChainRead::Final(_, form) => assert_eq!(form.value().unwrap().as_i64(), Some(7)),
            ChainRead::Live(_) => panic!("a loaded row must be packed"),
        }
        // First write wins: a second load of the key changes nothing.
        assert!(!chain.load(ts(1), Value::from_i64(8)));
        assert_eq!(functor_at(&chain, ts(1)).unwrap(), Functor::value_i64(7));
    }

    #[test]
    fn install_at_or_below_a_packed_version_is_a_noop() {
        let chain = VersionChain::new();
        chain.load(ts(1), Value::from_i64(7));
        assert!(!chain.insert(ts(1), Functor::add(1)));
        assert!(!chain.insert(Timestamp::ZERO, Functor::value_i64(9)));
        // Records promoted by compaction reject a retried install alike.
        chain.insert(ts(10), Functor::value_i64(10));
        chain.advance_watermark(ts(10));
        chain.compact(Timestamp::ZERO, usize::MAX);
        assert!(!chain.insert(ts(10), Functor::add(1)));
        let m = chain.mem();
        assert_eq!((m.settled, m.live), (2, 0));
        assert_eq!(chain.versions(), vec![ts(1), ts(10)]);
        assert_eq!(functor_at(&chain, ts(1)).unwrap(), Functor::value_i64(7));
        assert_eq!(functor_at(&chain, ts(10)).unwrap(), Functor::value_i64(10));
    }

    #[test]
    fn inline_base_grows_and_folds_back_with_identical_reads() {
        let chain = VersionChain::new();
        chain.load(ts(1), Value::from_i64(1));
        for v in [10u64, 20, 30] {
            chain.insert(ts(v), Functor::value_i64(v as i64));
        }
        let reads = |c: &VersionChain| -> Vec<SnapshotRead> {
            (0..=31u64).map(|b| c.snapshot_read(ts(b))).collect()
        };
        let live = reads(&chain);
        chain.advance_watermark(ts(30));
        // Promotion grows the inline base into a spilled section.
        assert_eq!(chain.compact(Timestamp::ZERO, usize::MAX), 0);
        assert!(matches!(chain.inner.read().settled, Packed::Many(_)));
        assert_eq!(chain.mem().settled, 4);
        assert_eq!(reads(&chain), live);
        // Folding to one committed record moves it back inline.
        assert_eq!(chain.compact(ts(30), 1), 3);
        assert!(matches!(chain.inner.read().settled, Packed::One(_)));
        assert_eq!(chain.mem().settled, 1);
        for (bound, before) in live.iter().enumerate() {
            let after = chain.snapshot_read(ts(bound as u64));
            if bound >= 30 {
                assert_eq!(&after, before, "read at {bound} changed");
            } else {
                assert_eq!(after, SnapshotRead::Folded(ts(30)), "read at {bound}");
            }
        }
    }

    #[test]
    fn compact_is_invisible_to_reads_at_retained_bounds() {
        // Build a mixed chain, snapshot reads at every bound, compact, and
        // compare: every bound at or above the oldest surviving committed
        // version must read identically.
        let chain = VersionChain::new();
        for v in 1..=30u64 {
            let f = match v % 5 {
                0 => Functor::Aborted,
                _ => Functor::value_i64(v as i64),
            };
            chain.insert(ts(v), f);
        }
        chain.advance_watermark(ts(30));
        let read_value = |c: &VersionChain, bound: Timestamp| -> Option<(Timestamp, Option<i64>)> {
            let mut cursor = bound;
            loop {
                let read = c.floor(cursor)?;
                let (v, form) = match read {
                    ChainRead::Final(v, form) => (v, form),
                    ChainRead::Live(rec) => (
                        rec.version(),
                        rec.final_form().expect("all records settled"),
                    ),
                };
                if form.is_aborted() {
                    cursor = v.pred();
                } else {
                    return Some((v, form.value().and_then(Value::as_i64)));
                }
            }
        };
        let before: Vec<_> = (1..=31u64).map(|b| read_value(&chain, ts(b))).collect();
        chain.compact(ts(25), 3);
        for (i, b) in (1..=31u64).enumerate() {
            let oldest_kept = chain
                .versions()
                .iter()
                .find(|v| {
                    matches!(
                        chain.read_at(**v),
                        Some(ChainRead::Final(_, form)) if !form.is_aborted()
                    )
                })
                .copied()
                .unwrap();
            if ts(b) >= oldest_kept {
                assert_eq!(
                    read_value(&chain, ts(b)),
                    before[i],
                    "read at {b} changed after compaction"
                );
            }
        }
    }
}
