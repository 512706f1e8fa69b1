//! The epoch manager's figures on a node deployment.
//!
//! A `Node` exports no epoch-manager stats, though node 0 runs the manager.
//! [`EpochTap`] wraps node 0's transport and watches the manager's own grant
//! and revoke messages go out, and rebuilds from them the `epoch_manager`
//! node that a cluster's stats tree carries: `epochs_completed`,
//! `revoke_resends` and the `epoch_switch` stage. A switch runs from an
//! epoch's first revoke to the next epoch's first grant: the manager's own
//! switch clock (revoke sent to every ack in) plus the few microseconds it
//! takes to build the next grant. Every revoke beyond one per server is a
//! resend.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use aloha_common::metrics::Histogram;
use aloha_common::stats::{StageStats, StatsSnapshot};
use aloha_common::{EpochId, Result};
use aloha_core::ServerMsg;
use aloha_net::{Addr, Endpoint, FaultPlan, Transport};

/// Nothing panics while holding the tap's lock, so it is never poisoned.
const POISONED: &str = "a thread panicked holding the epoch tap's lock";

/// A transport that passes everything through and times the epoch
/// manager's messages on the way.
pub struct EpochTap {
    inner: Arc<dyn Transport<ServerMsg>>,
    servers: u64,
    state: Mutex<TapState>,
    switch_micros: Histogram,
}

#[derive(Default)]
struct TapState {
    /// The epoch being revoked, when its first revoke went out, and how
    /// many revokes of it went out.
    revoking: Option<(EpochId, Instant, u64)>,
    epochs_completed: u64,
    revoke_resends: u64,
}

impl EpochTap {
    /// Wraps the transport of the node that hosts the epoch manager of a
    /// deployment of `servers` servers.
    pub fn new(inner: Arc<dyn Transport<ServerMsg>>, servers: u16) -> EpochTap {
        EpochTap {
            inner,
            servers: u64::from(servers),
            state: Mutex::new(TapState::default()),
            switch_micros: Histogram::new(),
        }
    }

    fn observe(&self, msg: &ServerMsg) {
        if !matches!(msg, ServerMsg::Revoke(_) | ServerMsg::Grant(_)) {
            return;
        }
        let now = Instant::now();
        let mut guard = self.state.lock().expect(POISONED);
        let state = &mut *guard;
        match (msg, &mut state.revoking) {
            (ServerMsg::Revoke(epoch), Some((revoking, _, sent))) if revoking == epoch => {
                *sent += 1;
                if *sent > self.servers {
                    state.revoke_resends += 1;
                }
            }
            (ServerMsg::Revoke(epoch), _) => state.revoking = Some((*epoch, now, 1)),
            (ServerMsg::Grant(grant), Some((revoked, since, _)))
                if grant.auth.epoch() == revoked.next() =>
            {
                let micros = now.duration_since(*since).as_micros();
                self.switch_micros
                    .record(u64::try_from(micros).unwrap_or(u64::MAX));
                state.epochs_completed += 1;
                state.revoking = None;
            }
            _ => {}
        }
    }

    /// The manager's stats node, named and shaped as a cluster exports it.
    pub fn snapshot(&self) -> StatsSnapshot {
        let state = self.state.lock().expect(POISONED);
        let mut node = StatsSnapshot::new("epoch_manager");
        node.set_counter("epochs_completed", state.epochs_completed);
        node.set_counter("revoke_resends", state.revoke_resends);
        node.set_stage(
            "epoch_switch",
            StageStats::from(&self.switch_micros.snapshot()),
        );
        node
    }
}

impl Transport<ServerMsg> for EpochTap {
    fn register(&self, addr: Addr) -> Endpoint<ServerMsg> {
        self.inner.register(addr)
    }

    fn deregister(&self, addr: Addr) {
        self.inner.deregister(addr);
    }

    fn send(&self, to: Addr, msg: ServerMsg) -> Result<()> {
        self.observe(&msg);
        self.inner.send(to, msg)
    }

    fn send_reliable(&self, to: Addr, msg: ServerMsg) -> Result<()> {
        self.observe(&msg);
        self.inner.send_reliable(to, msg)
    }

    fn addresses(&self) -> Vec<Addr> {
        self.inner.addresses()
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_common::{ServerId, Timestamp};
    use aloha_epoch::{Authorization, Grant};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A transport that counts what it is given and delivers nothing.
    #[derive(Default)]
    struct Sink {
        sent: AtomicU64,
    }

    impl Transport<ServerMsg> for Sink {
        fn register(&self, _: Addr) -> Endpoint<ServerMsg> {
            unreachable!("the tap test registers no endpoint")
        }
        fn deregister(&self, _: Addr) {}
        fn send(&self, _: Addr, _: ServerMsg) -> Result<()> {
            self.sent.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn send_reliable(&self, to: Addr, msg: ServerMsg) -> Result<()> {
            self.send(to, msg)
        }
        fn addresses(&self) -> Vec<Addr> {
            Vec::new()
        }
        fn fault_plan(&self) -> Option<&FaultPlan> {
            None
        }
        fn snapshot(&self) -> StatsSnapshot {
            StatsSnapshot::new("net")
        }
        fn shutdown(&self) {}
    }

    fn grant(epoch: u64) -> ServerMsg {
        ServerMsg::Grant(Grant {
            auth: Authorization::new(EpochId(epoch), epoch * 1000, epoch * 1000 + 999),
            settled: Timestamp::ZERO,
            epoch_duration_micros: 999,
            frontier: Timestamp::ZERO,
        })
    }

    #[test]
    fn switches_and_resends_are_read_off_the_managers_messages() {
        let sink = Arc::new(Sink::default());
        let tap = EpochTap::new(Arc::clone(&sink) as _, 2);
        let to = |i| Addr::Server(ServerId(i));
        for epoch in 1..=2 {
            tap.send(to(0), grant(epoch)).unwrap();
            tap.send(to(1), grant(epoch)).unwrap();
            tap.send(to(0), ServerMsg::Revoke(EpochId(epoch))).unwrap();
            tap.send(to(1), ServerMsg::Revoke(EpochId(epoch))).unwrap();
            std::thread::sleep(Duration::from_millis(3));
            if epoch == 2 {
                // Server 1 did not answer in time: one resend.
                tap.send(to(1), ServerMsg::Revoke(EpochId(epoch))).unwrap();
            }
        }
        tap.send(to(0), grant(3)).unwrap();
        // The same grant to the next server ends no second switch.
        tap.send(to(1), grant(3)).unwrap();

        assert_eq!(sink.sent.load(Ordering::Relaxed), 11, "all passed through");
        let node = tap.snapshot();
        assert_eq!(node.name, "epoch_manager");
        assert_eq!(node.counter("epochs_completed"), Some(2));
        assert_eq!(node.counter("revoke_resends"), Some(1));
        let switch = node.stage("epoch_switch").unwrap();
        assert_eq!(switch.count, 2);
        assert!(switch.mean_micros >= 3000.0, "{switch:?}");
    }
}
