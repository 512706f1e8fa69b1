//! The front-end epoch state machine.
//!
//! An [`EpochClient`] tracks the server's current authorization, issues
//! transaction timestamps, counts in-flight transactions so that revocation
//! can be acknowledged only when the epoch has drained (§II), exposes the
//! visibility bound for reads (§III-B), and implements the §III-C straggler
//! optimization: after a revocation the client may keep starting transactions
//! *without* authorization, as long as their timestamps do not exceed the
//! previous epoch's finish plus the next epoch's duration.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aloha_common::{Clock, EpochId, ServerId, Timestamp};
use parking_lot::{Condvar, Mutex};

use crate::auth::{Authorization, Grant};
use crate::oracle::TimestampOracle;

/// Reasons [`EpochClient::begin_txn`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginError {
    /// The client is shutting down.
    ShuttingDown,
    /// The supplied deadline passed before a timestamp could be issued.
    DeadlineExceeded,
}

impl std::fmt::Display for BeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeginError::ShuttingDown => write!(f, "epoch client is shutting down"),
            BeginError::DeadlineExceeded => write!(f, "deadline exceeded waiting for an epoch"),
        }
    }
}

impl std::error::Error for BeginError {}

/// Permission to run one transaction: its timestamp, the epoch whose
/// revocation it blocks, and whether it was started under an authorization
/// or in the §III-C no-authorization window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnTicket {
    /// The transaction's timestamp — its version number and serialization
    /// position.
    pub ts: Timestamp,
    /// The epoch this transaction is accounted to.
    pub epoch: EpochId,
    /// `false` if started in the straggler window without authorization.
    pub authorized: bool,
}

#[derive(Debug)]
struct ClientState {
    auth: Option<Authorization>,
    /// Highest epoch this client has ever held authorization for. Guards
    /// against duplicated or reordered grants re-installing a released
    /// epoch's authorization.
    max_epoch_seen: EpochId,
    /// Epoch whose revoke has been received but not yet acknowledged.
    revoke_pending: Option<EpochId>,
    /// No-authorization window: (first allowed microsecond, last allowed
    /// microsecond, epoch the transactions will be accounted to).
    noauth_window: Option<(u64, u64, EpochId)>,
    /// In-flight transaction counts per accounting epoch.
    in_flight: HashMap<EpochId, usize>,
    /// Reads at or below this timestamp observe settled history.
    visible: Timestamp,
    /// Cluster-wide compute frontier from the latest grant: everything below
    /// it has been computed on every server, so compaction may fold beneath
    /// it. Monotone, like `visible`.
    frontier: Timestamp,
    oracle: TimestampOracle,
    shutdown: bool,
}

/// The per-server ECC participant.
///
/// Thread-safe: the hosting server calls [`EpochClient::begin_txn`] from many
/// worker threads while a network thread feeds [`EpochClient::on_grant`] /
/// [`EpochClient::on_revoke`].
pub struct EpochClient {
    server: ServerId,
    clock: Arc<dyn Clock>,
    allow_noauth: bool,
    poll: Duration,
    state: Mutex<ClientState>,
    changed: Condvar,
}

impl std::fmt::Debug for EpochClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("EpochClient")
            .field("server", &self.server)
            .field("auth", &state.auth)
            .field("visible", &state.visible)
            .finish()
    }
}

impl EpochClient {
    /// Creates a client for `server`. `allow_noauth` enables the §III-C
    /// straggler optimization.
    pub fn new(server: ServerId, clock: Arc<dyn Clock>, allow_noauth: bool) -> EpochClient {
        EpochClient {
            server,
            clock,
            allow_noauth,
            poll: Duration::from_micros(200),
            state: Mutex::new(ClientState {
                auth: None,
                max_epoch_seen: EpochId(0),
                revoke_pending: None,
                noauth_window: None,
                in_flight: HashMap::new(),
                visible: Timestamp::ZERO,
                // Preloaded base rows install at `ZERO.succ()` before any
                // traffic, settled and computed by construction, so the
                // initial snapshot point must already cover them: a read
                // racing cluster startup sees the loaded state, not an
                // empty database.
                frontier: Timestamp::ZERO.succ(),
                oracle: TimestampOracle::new(server),
                shutdown: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// The server this client belongs to.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Handles a grant from the EM: installs the new authorization and
    /// advances the visibility bound to the settled prefix.
    ///
    /// Robust against an unreliable network: a duplicated or reordered grant
    /// for an epoch at or below the highest epoch already seen is not
    /// re-installed (it may have been revoked since), but its settled bound —
    /// monotone information — is still absorbed.
    pub fn on_grant(&self, grant: Grant) {
        let mut state = self.state.lock();
        if grant.settled > state.visible {
            state.visible = grant.settled;
        }
        if grant.frontier > state.frontier {
            state.frontier = grant.frontier;
        }
        if grant.auth.epoch() > state.max_epoch_seen {
            state.max_epoch_seen = grant.auth.epoch();
            state.auth = Some(grant.auth);
            state.noauth_window = None;
        }
        self.changed.notify_all();
    }

    /// Handles a revocation from the EM. Returns `true` if the caller must
    /// acknowledge immediately (no transactions of that epoch are in
    /// flight); otherwise the acknowledgement is returned later by
    /// [`EpochClient::txn_finished`].
    ///
    /// Robust against an unreliable network:
    ///
    /// - A revoke for an epoch *older* than the current authorization is a
    ///   late duplicate — the EM must already hold our ack, or it could not
    ///   have granted the newer epoch. Ignored.
    /// - A revoke received while holding no matching authorization (the
    ///   grant was dropped, or the original ack was lost and the EM is
    ///   retransmitting) is acknowledged as soon as no transaction of that
    ///   epoch is in flight: re-acking is idempotent at the EM, and *not*
    ///   re-acking would stall the cluster forever.
    pub fn on_revoke(&self, epoch: EpochId) -> bool {
        let mut state = self.state.lock();
        match state.auth {
            Some(auth) if auth.epoch() == epoch => {
                // Open the no-authorization window immediately (§III-C):
                // transactions started from now on are accounted to the next
                // epoch and capped at finish(previous) + duration(next).
                if self.allow_noauth {
                    let duration = auth.end_micros() - auth.start_micros();
                    state.noauth_window = Some((
                        auth.end_micros() + 1,
                        auth.end_micros() + duration,
                        epoch.next(),
                    ));
                }
                state.auth = None;
            }
            Some(auth) if auth.epoch() > epoch => {
                return false; // late duplicate; the EM has moved past `epoch`
            }
            Some(_) | None => {
                // Authorization for `epoch` was never received (dropped
                // grant) or already released (retransmitted revoke). An
                // older-than-`epoch` authorization is long expired: drop it
                // so it cannot issue timestamps behind the EM's back.
                state.auth = None;
            }
        }
        if state.in_flight.get(&epoch).copied().unwrap_or(0) == 0 {
            if state.revoke_pending == Some(epoch) {
                state.revoke_pending = None;
            }
            self.changed.notify_all();
            true
        } else {
            state.revoke_pending = Some(epoch);
            self.changed.notify_all();
            false
        }
    }

    /// Starts a transaction: blocks until a timestamp can be issued under the
    /// current authorization or (if enabled) the no-authorization window.
    ///
    /// # Errors
    ///
    /// [`BeginError::ShuttingDown`] after [`EpochClient::shutdown`];
    /// [`BeginError::DeadlineExceeded`] if `deadline` passes first.
    pub fn begin_txn(&self, deadline: Option<Instant>) -> Result<TxnTicket, BeginError> {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return Err(BeginError::ShuttingDown);
            }
            let now = self.clock.now_micros();
            if let Some(auth) = state.auth {
                if auth.clock_within(now) || now < auth.start_micros() {
                    // Clamp early clocks to the window start (the oracle
                    // does this); issue if the window still has room.
                    if let Some(ts) =
                        state
                            .oracle
                            .issue(now, auth.start_micros(), auth.end_micros())
                    {
                        let epoch = auth.epoch();
                        *state.in_flight.entry(epoch).or_insert(0) += 1;
                        return Ok(TxnTicket {
                            ts,
                            epoch,
                            authorized: true,
                        });
                    }
                }
                if self.allow_noauth && now > auth.end_micros() {
                    // The authorization expired and no revoke has arrived —
                    // it may have been dropped, or this server may be
                    // partitioned from the EM. Behave exactly as if revoked
                    // (the EM revokes at the epoch's end anyway): release
                    // the authorization and open the §III-C window. The
                    // eventual revoke finds no matching authorization and is
                    // acknowledged once the epoch drains.
                    let duration = auth.end_micros() - auth.start_micros();
                    state.noauth_window = Some((
                        auth.end_micros() + 1,
                        auth.end_micros() + duration,
                        auth.epoch().next(),
                    ));
                    state.auth = None;
                    continue;
                }
                // Window exhausted or clock past the end: wait for revoke +
                // next grant (or the no-auth window).
            } else if let Some((lo, hi, epoch)) = state.noauth_window {
                if let Some(ts) = state.oracle.issue(now, lo, hi) {
                    *state.in_flight.entry(epoch).or_insert(0) += 1;
                    return Ok(TxnTicket {
                        ts,
                        epoch,
                        authorized: false,
                    });
                }
                // No-auth window exhausted; fall through and wait for grant.
            }
            if self.wait(&mut state, deadline) {
                return Err(BeginError::DeadlineExceeded);
            }
        }
    }

    /// Assigns a timestamp to a latest-version read-only transaction
    /// (§III-B): the timestamp names the snapshot the read will observe once
    /// the epoch completes. Does not count as in-flight — read-only
    /// transactions never block revocation because they perform no writes in
    /// the epoch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EpochClient::begin_txn`].
    pub fn assign_read_timestamp(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Timestamp, BeginError> {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return Err(BeginError::ShuttingDown);
            }
            let now = self.clock.now_micros();
            let window = match (state.auth, state.noauth_window) {
                (Some(auth), _) => Some((auth.start_micros(), auth.end_micros())),
                (None, Some((lo, hi, _))) => Some((lo, hi)),
                (None, None) => None,
            };
            if let Some((lo, hi)) = window {
                if let Some(ts) = state.oracle.issue(now, lo, hi) {
                    return Ok(ts);
                }
            }
            if self.wait(&mut state, deadline) {
                return Err(BeginError::DeadlineExceeded);
            }
        }
    }

    /// Marks a transaction's write-only phase complete. Returns
    /// `Some(epoch)` when this completion allows a pending revocation to be
    /// acknowledged — the caller must then send the ack to the EM.
    pub fn txn_finished(&self, ticket: TxnTicket) -> Option<EpochId> {
        let mut state = self.state.lock();
        let count = state
            .in_flight
            .get_mut(&ticket.epoch)
            .expect("finishing a transaction that was never started");
        *count -= 1;
        let drained = *count == 0;
        if drained {
            state.in_flight.remove(&ticket.epoch);
        }
        if drained && state.revoke_pending == Some(ticket.epoch) {
            state.revoke_pending = None;
            self.changed.notify_all();
            return Some(ticket.epoch);
        }
        None
    }

    /// The settled visibility bound: reads at or below it observe immutable
    /// history (modulo functor computing, which is deterministic).
    pub fn visible_bound(&self) -> Timestamp {
        self.state.lock().visible
    }

    /// The cluster-wide compute frontier from the latest grant: every functor
    /// with a version strictly below it has been computed on every server, so
    /// no future read — local or remote — will need a version the compactor
    /// folds beneath it. This is the only sound horizon for
    /// watermark-driven compaction; `visible_bound` is *not* (a settled but
    /// still-uncomputed functor floors its reads below the visible bound).
    pub fn frontier(&self) -> Timestamp {
        self.state.lock().frontier
    }

    /// A snapshot timestamp for an externally-consistent read-only
    /// transaction, available immediately — no waiting out the epoch.
    ///
    /// The absorbed compute frontier is always a valid read point: every
    /// version at or below it is settled (its epoch completed cluster-wide)
    /// *and* computed on every server, so a read at this timestamp observes
    /// an immutable, fully-materialized prefix of the serial history. The
    /// frontier is monotone across grants, so successive snapshots from one
    /// client never travel backwards in time.
    ///
    /// Unlike [`EpochClient::assign_read_timestamp`], this never blocks and
    /// never consumes an oracle slot; unlike [`EpochClient::visible_bound`],
    /// reads at this point need no fallback to the functor-computing path.
    pub fn snapshot_timestamp(&self) -> Timestamp {
        self.state.lock().frontier
    }

    /// Blocks until the visibility bound reaches `ts` — i.e. until the epoch
    /// that contains `ts` has completed (§III-B latest-version reads).
    ///
    /// Returns `false` on shutdown or deadline.
    pub fn wait_visible(&self, ts: Timestamp, deadline: Option<Instant>) -> bool {
        self.wait_until_notified(deadline, |state| state.visible >= ts)
    }

    /// Raises the absorbed compute frontier to at least `ts` (monotone, like
    /// grant absorption). For state known settled *and* computed by
    /// out-of-band means — a whole-cluster checkpoint restore installs
    /// materialized values at timestamps no grant of the new cluster will
    /// ever cover, and snapshot reads must see them immediately.
    pub fn absorb_frontier(&self, ts: Timestamp) {
        let mut state = self.state.lock();
        if ts > state.frontier {
            state.frontier = ts;
            drop(state);
            self.changed.notify_all();
        }
    }

    /// Blocks until the absorbed compute frontier reaches `ts` — i.e. until
    /// every functor at or below `ts` has been computed cluster-wide.
    /// Stronger than [`EpochClient::wait_visible`]: a settled epoch may
    /// still hold uncomputed functors whose §IV-E deferred writes have not
    /// landed yet, so a snapshot read flooring above the frontier must wait
    /// for the frontier itself, not mere visibility.
    ///
    /// Returns `false` on shutdown or deadline.
    pub fn wait_frontier(&self, ts: Timestamp, deadline: Option<Instant>) -> bool {
        self.wait_until_notified(deadline, |state| state.frontier >= ts)
    }

    /// Number of transactions currently in flight (all epochs).
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight.values().sum()
    }

    /// Current authorization, if any.
    pub fn current_auth(&self) -> Option<Authorization> {
        self.state.lock().auth
    }

    /// Wakes all waiters and makes subsequent calls fail.
    pub fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        self.changed.notify_all();
    }

    /// Blocks until `reached` holds (`true`), or until shutdown or
    /// `deadline` (`false`). Sleeps until notified, so `reached` may read only
    /// state whose every change notifies the condvar (a grant,
    /// `absorb_frontier`, `shutdown`), never the clock.
    fn wait_until_notified(
        &self,
        deadline: Option<Instant>,
        reached: impl Fn(&ClientState) -> bool,
    ) -> bool {
        let mut state = self.state.lock();
        loop {
            if reached(&state) {
                return true;
            }
            if state.shutdown {
                return false;
            }
            match deadline {
                None => self.changed.wait(&mut state),
                Some(d) => {
                    if self.changed.wait_until(&mut state, d).timed_out() {
                        return reached(&state);
                    }
                }
            }
        }
    }

    /// Waits for a state change or the poll interval (whichever first),
    /// respecting `deadline`. Returns `true` if the deadline has passed.
    ///
    /// Only `begin_txn` and `assign_read_timestamp` poll: whether they can
    /// issue a timestamp depends on the clock, which (a `ManualClock` in
    /// tests) can advance without notifying the condvar.
    fn wait(
        &self,
        state: &mut parking_lot::MutexGuard<'_, ClientState>,
        deadline: Option<Instant>,
    ) -> bool {
        let until = match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    return true;
                }
                (Instant::now() + self.poll).min(d)
            }
            None => Instant::now() + self.poll,
        };
        self.changed.wait_until(state, until);
        deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_common::ManualClock;
    use std::sync::Barrier;

    fn client_with_clock(allow_noauth: bool) -> (Arc<EpochClient>, ManualClock) {
        let clock = ManualClock::new(0);
        let client = Arc::new(EpochClient::new(
            ServerId(1),
            Arc::new(clock.clone()),
            allow_noauth,
        ));
        (client, clock)
    }

    fn grant(epoch: u64, start: u64, end: u64, settled: Timestamp) -> Grant {
        Grant {
            auth: Authorization::new(EpochId(epoch), start, end),
            settled,
            epoch_duration_micros: end - start,
            frontier: Timestamp::ZERO,
        }
    }

    #[test]
    fn frontier_advances_monotonically_with_grants() {
        let (client, _clock) = client_with_clock(false);
        assert_eq!(client.frontier(), Timestamp::ZERO.succ());
        let mut g = grant(2, 200, 300, Timestamp::from_raw(500));
        g.frontier = Timestamp::from_raw(90);
        client.on_grant(g);
        assert_eq!(client.frontier(), Timestamp::from_raw(90));
        // A reordered older grant with a lower frontier must not regress it.
        let mut stale = grant(1, 0, 100, Timestamp::ZERO);
        stale.frontier = Timestamp::from_raw(10);
        client.on_grant(stale);
        assert_eq!(client.frontier(), Timestamp::from_raw(90));
        assert!(
            client.frontier() <= client.visible_bound(),
            "frontier trails the settled bound"
        );
    }

    #[test]
    fn snapshot_timestamp_tracks_frontier_without_blocking() {
        let (client, _clock) = client_with_clock(false);
        // Available immediately, before any grant: the initial snapshot
        // point covers exactly the preloaded base rows (version 1).
        assert_eq!(client.snapshot_timestamp(), Timestamp::ZERO.succ());
        let mut g = grant(1, 0, 100, Timestamp::from_raw(300));
        g.frontier = Timestamp::from_raw(120);
        client.on_grant(g);
        assert_eq!(client.snapshot_timestamp(), Timestamp::from_raw(120));
        // Monotone: a reordered grant with a lower frontier never regresses
        // the snapshot point, so session reads never travel backwards.
        let mut stale = grant(2, 100, 200, Timestamp::from_raw(300));
        stale.frontier = Timestamp::from_raw(50);
        client.on_grant(stale);
        assert_eq!(client.snapshot_timestamp(), Timestamp::from_raw(120));
        assert!(
            client.snapshot_timestamp() <= client.visible_bound(),
            "snapshot point only covers settled history"
        );
    }

    #[test]
    fn begin_txn_issues_within_authorization() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 100, 200, Timestamp::ZERO));
        clock.set(150);
        let ticket = client.begin_txn(None).unwrap();
        assert!(ticket.authorized);
        assert_eq!(ticket.epoch, EpochId(1));
        assert!((100..=200).contains(&ticket.ts.micros()));
        assert_eq!(client.in_flight(), 1);
    }

    #[test]
    fn begin_txn_waits_for_first_grant() {
        let (client, clock) = client_with_clock(false);
        clock.set(50);
        let c2 = Arc::clone(&client);
        let t = std::thread::spawn(move || c2.begin_txn(None).unwrap());
        std::thread::sleep(Duration::from_millis(5));
        client.on_grant(grant(1, 40, 400, Timestamp::ZERO));
        let ticket = t.join().unwrap();
        assert_eq!(ticket.epoch, EpochId(1));
    }

    #[test]
    fn revoke_with_no_in_flight_acks_immediately() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        assert!(client.on_revoke(EpochId(1)));
        assert!(client.current_auth().is_none());
    }

    #[test]
    fn revoke_waits_for_in_flight_txn() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        let ticket = client.begin_txn(None).unwrap();
        assert!(!client.on_revoke(EpochId(1)), "ack must be deferred");
        let ack = client.txn_finished(ticket);
        assert_eq!(ack, Some(EpochId(1)), "last finisher carries the ack");
    }

    #[test]
    fn stale_revoke_is_ignored() {
        let (client, _clock) = client_with_clock(false);
        client.on_grant(grant(2, 0, 100, Timestamp::ZERO));
        assert!(!client.on_revoke(EpochId(1)));
        assert!(client.current_auth().is_some(), "current auth untouched");
    }

    #[test]
    fn noauth_window_issues_bounded_timestamps() {
        let (client, clock) = client_with_clock(true);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        assert!(client.on_revoke(EpochId(1)));
        clock.set(120);
        let ticket = client.begin_txn(None).unwrap();
        assert!(!ticket.authorized);
        assert_eq!(
            ticket.epoch,
            EpochId(2),
            "no-auth txns account to the next epoch"
        );
        // §III-C bound: ts <= finish(prev) + duration(next) = 100 + 100.
        assert!(
            ticket.ts.micros() > 100 && ticket.ts.micros() <= 200,
            "{}",
            ticket.ts
        );
    }

    #[test]
    fn noauth_disabled_blocks_until_next_grant() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        client.on_revoke(EpochId(1));
        clock.set(120);
        let deadline = Instant::now() + Duration::from_millis(10);
        let err = client.begin_txn(Some(deadline)).unwrap_err();
        assert_eq!(err, BeginError::DeadlineExceeded);
    }

    #[test]
    fn noauth_txn_blocks_next_epochs_revoke() {
        let (client, clock) = client_with_clock(true);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        client.on_revoke(EpochId(1));
        clock.set(110);
        let noauth_ticket = client.begin_txn(None).unwrap();
        assert_eq!(noauth_ticket.epoch, EpochId(2));
        // Epoch 2 is granted and then revoked while the no-auth txn runs.
        client.on_grant(grant(2, 150, 250, Timestamp::from_raw(1)));
        assert!(
            !client.on_revoke(EpochId(2)),
            "no-auth txn must hold epoch 2 open"
        );
        assert_eq!(client.txn_finished(noauth_ticket), Some(EpochId(2)));
    }

    #[test]
    fn visibility_advances_with_grants() {
        let (client, _clock) = client_with_clock(false);
        assert_eq!(client.visible_bound(), Timestamp::ZERO);
        let settled = Timestamp::from_raw(12345);
        client.on_grant(grant(2, 200, 300, settled));
        assert_eq!(client.visible_bound(), settled);
    }

    #[test]
    fn wait_visible_unblocks_on_grant() {
        let (client, _clock) = client_with_clock(false);
        let target = Timestamp::from_raw(500);
        let c2 = Arc::clone(&client);
        let waiter = std::thread::spawn(move || c2.wait_visible(target, None));
        std::thread::sleep(Duration::from_millis(5));
        client.on_grant(grant(2, 200, 300, Timestamp::from_raw(1000)));
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn shutdown_wakes_unbounded_visibility_and_frontier_waits() {
        let (client, _clock) = client_with_clock(false);
        let never = Timestamp::from_raw(u64::MAX);
        let started = Barrier::new(3);
        std::thread::scope(|s| {
            let visible = s.spawn(|| {
                started.wait();
                client.wait_visible(never, None)
            });
            let frontier = s.spawn(|| {
                started.wait();
                client.wait_frontier(never, None)
            });
            started.wait();
            client.shutdown();
            assert!(!visible.join().unwrap(), "shutdown fails the wait");
            assert!(!frontier.join().unwrap(), "shutdown fails the wait");
        });
    }

    #[test]
    fn absorbed_and_granted_frontiers_wake_frontier_waits() {
        let (client, _clock) = client_with_clock(false);
        let started = Barrier::new(2);
        std::thread::scope(|s| {
            let absorbed = s.spawn(|| {
                started.wait();
                client.wait_frontier(Timestamp::from_raw(100), None)
            });
            started.wait();
            client.absorb_frontier(Timestamp::from_raw(100));
            assert!(absorbed.join().unwrap());

            let granted = s.spawn(|| {
                started.wait();
                client.wait_frontier(Timestamp::from_raw(200), None)
            });
            started.wait();
            let mut g = grant(1, 0, 100, Timestamp::from_raw(300));
            g.frontier = Timestamp::from_raw(200);
            client.on_grant(g);
            assert!(granted.join().unwrap());
        });
    }

    #[test]
    fn bounded_waits_return_false_at_their_deadline() {
        let (client, _clock) = client_with_clock(false);
        let target = Timestamp::from_raw(1000);
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!client.wait_visible(target, Some(deadline)));
        assert!(Instant::now() >= deadline, "returned before its deadline");
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!client.wait_frontier(target, Some(deadline)));
        assert!(Instant::now() >= deadline, "returned before its deadline");
        // A notification whose predicate stays false is no reason to return:
        // a grant that settles past `target` without raising the frontier
        // leaves a frontier wait asleep until its deadline.
        let started = Barrier::new(2);
        let deadline = Instant::now() + Duration::from_millis(50);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                started.wait();
                client.wait_frontier(target, Some(deadline))
            });
            started.wait();
            client.on_grant(grant(1, 0, 100, Timestamp::from_raw(2000)));
            assert!(!waiter.join().unwrap());
            assert!(Instant::now() >= deadline, "returned before its deadline");
        });
    }

    #[test]
    fn read_timestamp_does_not_block_revocation() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        let _ts = client.assign_read_timestamp(None).unwrap();
        assert!(
            client.on_revoke(EpochId(1)),
            "read-only assignment holds nothing open"
        );
    }

    #[test]
    fn shutdown_fails_pending_and_future_begins() {
        let (client, _clock) = client_with_clock(false);
        let c2 = Arc::clone(&client);
        let t = std::thread::spawn(move || c2.begin_txn(None));
        std::thread::sleep(Duration::from_millis(5));
        client.shutdown();
        assert_eq!(t.join().unwrap().unwrap_err(), BeginError::ShuttingDown);
        assert_eq!(
            client.begin_txn(None).unwrap_err(),
            BeginError::ShuttingDown
        );
    }

    #[test]
    fn duplicate_grant_does_not_resurrect_revoked_epoch() {
        let (client, clock) = client_with_clock(false);
        let g1 = grant(1, 0, 100, Timestamp::ZERO);
        client.on_grant(g1);
        clock.set(10);
        assert!(client.on_revoke(EpochId(1)));
        // A duplicated copy of the epoch-1 grant arrives after the revoke.
        client.on_grant(g1);
        assert!(
            client.current_auth().is_none(),
            "released epoch must stay released"
        );
    }

    #[test]
    fn reordered_old_grant_does_not_roll_back_auth() {
        let (client, _clock) = client_with_clock(false);
        client.on_grant(grant(2, 200, 300, Timestamp::from_raw(100)));
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        let auth = client.current_auth().unwrap();
        assert_eq!(auth.epoch(), EpochId(2));
        // The stale grant's settled bound (lower) must not regress visibility.
        assert_eq!(client.visible_bound(), Timestamp::from_raw(100));
    }

    #[test]
    fn stale_grant_still_advances_visibility() {
        let (client, _clock) = client_with_clock(false);
        client.on_grant(grant(2, 200, 300, Timestamp::ZERO));
        // Reordered: an old-epoch grant carrying a *newer* settled bound
        // (possible when the bound piggybacks on retransmissions).
        client.on_grant(grant(1, 0, 100, Timestamp::from_raw(77)));
        assert_eq!(client.current_auth().unwrap().epoch(), EpochId(2));
        assert_eq!(client.visible_bound(), Timestamp::from_raw(77));
    }

    #[test]
    fn revoke_without_grant_is_acked() {
        // The grant for epoch 1 was dropped; the revoke still needs an ack
        // or the EM stalls the whole cluster.
        let (client, _clock) = client_with_clock(false);
        assert!(client.on_revoke(EpochId(1)));
    }

    #[test]
    fn retransmitted_revoke_is_reacked_after_release() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        assert!(
            client.on_revoke(EpochId(1)),
            "first revoke acks (nothing in flight)"
        );
        // The ack was lost; the EM retransmits. We must ack again.
        assert!(client.on_revoke(EpochId(1)));
    }

    #[test]
    fn duplicate_revoke_while_draining_stays_deferred() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(10);
        let ticket = client.begin_txn(None).unwrap();
        assert!(!client.on_revoke(EpochId(1)));
        assert!(
            !client.on_revoke(EpochId(1)),
            "duplicate must not ack early"
        );
        assert_eq!(client.txn_finished(ticket), Some(EpochId(1)));
    }

    #[test]
    fn expired_auth_self_opens_noauth_window() {
        // The revoke never arrives (partition): a no-auth-enabled client
        // keeps issuing timestamps in the §III-C window on its own.
        let (client, clock) = client_with_clock(true);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(150);
        let ticket = client.begin_txn(None).unwrap();
        assert!(!ticket.authorized);
        assert_eq!(ticket.epoch, EpochId(2));
        assert!(
            ticket.ts.micros() > 100 && ticket.ts.micros() <= 200,
            "{}",
            ticket.ts
        );
        // When the revoke finally lands, the drain accounting still works.
        assert!(client.on_revoke(EpochId(1)), "no epoch-1 txns in flight");
        assert_eq!(
            client.txn_finished(ticket),
            None,
            "epoch-2 accounting unaffected"
        );
    }

    #[test]
    fn tickets_are_strictly_increasing_across_epochs() {
        let (client, clock) = client_with_clock(false);
        client.on_grant(grant(1, 0, 100, Timestamp::ZERO));
        clock.set(50);
        let t1 = client.begin_txn(None).unwrap();
        client.txn_finished(t1);
        client.on_revoke(EpochId(1));
        client.on_grant(grant(2, 101, 200, Timestamp::ZERO));
        clock.set(150);
        let t2 = client.begin_txn(None).unwrap();
        assert!(t2.ts > t1.ts);
    }
}
