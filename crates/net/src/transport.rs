//! The pluggable transport abstraction.
//!
//! Everything above the network — executor, fault harnesses, both
//! engines — talks to the cluster through [`Transport`], not through a
//! concrete [`Bus`]. The in-process [`Bus`] is the default implementation
//! (bit-for-bit the old behavior, including the fault/delay layers); the
//! TCP implementation in [`crate::tcp`] carries the same messages between
//! OS processes over length-delimited checksummed frames.
//!
//! # Contract
//!
//! * **Per-sender FIFO.** Two `send` calls from the same thread to the same
//!   destination arrive in order (if both arrive).
//! * **`send` is lossy.** The simulated bus drops on injected faults, TCP
//!   drops on connection failure; neither signals the sender beyond best
//!   effort. Callers recover via the RPC retransmission layer.
//! * **`send_reliable` is for control-plane teardown**: it bypasses fault
//!   injection on the bus, and reports an error instead of dropping.
//! * **Replies are one-shot.** A [`crate::ReplySlot`] embedded in a message
//!   resolves at most once, no matter how many duplicates arrive.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aloha_common::stats::StatsSnapshot;
use aloha_common::{Bytes, Result};
use parking_lot::Mutex;

use crate::bus::{Addr, Bus, Endpoint};
use crate::fault::FaultPlan;

/// A cluster transport: named endpoints plus fire-and-forget delivery.
///
/// Object-safe so engines can hold `Arc<dyn Transport<M>>` and swap the
/// network out from under an unchanged data plane.
pub trait Transport<M: Send + 'static>: Send + Sync {
    /// Registers a local endpoint, returning its receive side.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already registered locally — cluster wiring is
    /// static in this reproduction, so a duplicate is a programming error.
    fn register(&self, addr: Addr) -> Endpoint<M>;

    /// Removes a local endpoint; subsequent sends to it count as dropped.
    fn deregister(&self, addr: Addr);

    /// Sends a message on the data plane (lossy: fault injection or a dead
    /// connection silently drops; RPC retries absorb the loss).
    ///
    /// # Errors
    ///
    /// Returns [`aloha_common::Error::Disconnected`] only when the miss is
    /// synchronously observable (instant bus, unknown destination).
    fn send(&self, to: Addr, msg: M) -> Result<()>;

    /// Sends a control-plane message, bypassing fault injection.
    ///
    /// # Errors
    ///
    /// Returns an error if the destination is unreachable, rather than
    /// dropping silently.
    fn send_reliable(&self, to: Addr, msg: M) -> Result<()>;

    /// Addresses currently reachable (locally registered plus known peers),
    /// sorted.
    fn addresses(&self) -> Vec<Addr>;

    /// The fault plan active on this transport, if any. Chaos harnesses
    /// print it alongside failures so runs are reproducible from one line.
    fn fault_plan(&self) -> Option<&FaultPlan>;

    /// This transport's counters as the `net` node of the unified stats
    /// tree. Each implementation exports its own counter set (the bus its
    /// fault-injection tallies, TCP its wire/reconnect/frame-error
    /// tallies) under the shared `messages`/`dropped` core.
    fn snapshot(&self) -> StatsSnapshot;

    /// Tears the transport down: local endpoints disconnect (blocked
    /// `recv` calls return `Disconnected`) and remote connections close.
    fn shutdown(&self);
}

impl<M: Send + Clone + 'static> Transport<M> for Bus<M> {
    fn register(&self, addr: Addr) -> Endpoint<M> {
        Bus::register(self, addr)
    }

    fn deregister(&self, addr: Addr) {
        Bus::deregister(self, addr)
    }

    fn send(&self, to: Addr, msg: M) -> Result<()> {
        Bus::send(self, to, msg)
    }

    fn send_reliable(&self, to: Addr, msg: M) -> Result<()> {
        Bus::send_reliable(self, to, msg)
    }

    fn addresses(&self) -> Vec<Addr> {
        Bus::addresses(self)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Bus::fault_plan(self)
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.stats().snapshot()
    }

    fn shutdown(&self) {
        self.close()
    }
}

/// Boxed completion closure fired with a reply frame's payload.
pub type ReplyFn = Box<dyn FnOnce(&[u8]) + Send>;

/// Outstanding request→reply correlations on one node.
///
/// Message types whose variants carry a [`crate::ReplySlot`] cannot ship the
/// slot's channel across a process boundary. Instead, the wire codec
/// [`WireCodec::encode`] registers a completion closure here and writes the
/// returned correlation id into the frame; when the matching `Reply` frame
/// comes back, [`PendingReplies::complete`] decodes the payload and fires
/// the original local slot. The entry is removed on first completion, so
/// duplicated replies (retransmits, fault dups) are harmless.
#[derive(Default)]
pub struct PendingReplies {
    next: AtomicU64,
    map: Mutex<HashMap<u64, ReplyFn>>,
}

impl PendingReplies {
    /// Creates an empty correlation table.
    pub fn new() -> PendingReplies {
        PendingReplies::default()
    }

    /// Registers a completion closure; returns the correlation id to embed
    /// in the outgoing frame.
    pub fn register(&self, on_reply: ReplyFn) -> u64 {
        let corr = self.next.fetch_add(1, Ordering::Relaxed);
        self.map.lock().insert(corr, on_reply);
        corr
    }

    /// Fires and removes the completion for `corr`. Returns `false` when the
    /// id is unknown — already completed (duplicate reply) or never issued
    /// (stray frame); both are ignored by design.
    pub fn complete(&self, corr: u64, payload: &[u8]) -> bool {
        let Some(on_reply) = self.map.lock().remove(&corr) else {
            return false;
        };
        on_reply(payload);
        true
    }

    /// Number of replies still outstanding.
    pub fn outstanding(&self) -> usize {
        self.map.lock().len()
    }

    /// Drops every outstanding completion without firing it (local slots
    /// disconnect, which the RPC layer treats as a lost reply).
    pub fn clear(&self) {
        self.map.lock().clear();
    }
}

impl fmt::Debug for PendingReplies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingReplies")
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

/// The reply path handed to [`WireCodec::decode`].
///
/// When a decoded message carries a correlation id, the codec rebuilds its
/// reply slot as a closure that encodes the reply value and hands
/// `(corr, payload)` here; the transport routes it back to the frame's
/// origin node as a `Reply` frame.
#[derive(Clone)]
pub struct RemoteReplier {
    send: Arc<dyn Fn(u64, Vec<u8>) + Send + Sync>,
}

impl RemoteReplier {
    /// Wraps the transport's reply-frame sender.
    pub fn new(send: impl Fn(u64, Vec<u8>) + Send + Sync + 'static) -> RemoteReplier {
        RemoteReplier {
            send: Arc::new(send),
        }
    }

    /// Routes an encoded reply payload back to the requesting node.
    pub fn reply(&self, corr: u64, payload: Vec<u8>) {
        (self.send)(corr, payload)
    }
}

impl fmt::Debug for RemoteReplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RemoteReplier")
    }
}

/// Binary codec for one message type, used by process-boundary transports.
///
/// The codec owns the reply correlation protocol: `encode` registers any
/// embedded [`crate::ReplySlot`]s with the node's [`PendingReplies`] and
/// writes their correlation ids into the payload; `decode` reconstructs
/// those slots via [`crate::ReplySlot::from_fn`] closures that route back
/// through the given [`RemoteReplier`].
pub trait WireCodec<M>: Send + Sync + 'static {
    /// Serializes `msg` into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`aloha_common::Error::Codec`] for values this codec cannot
    /// represent on the wire.
    fn encode(&self, msg: &M, pending: &PendingReplies, out: &mut Vec<u8>) -> Result<()>;

    /// Deserializes one message, rebuilding reply slots against `replier`.
    ///
    /// `bytes` is the message body as a shared buffer so codecs can decode
    /// key/value fields as zero-copy windows of the received frame
    /// (`Bytes::slice_ref`) instead of copying each field.
    ///
    /// # Errors
    ///
    /// Returns [`aloha_common::Error::Codec`] on malformed payloads.
    fn decode(&self, bytes: &Bytes, replier: &RemoteReplier) -> Result<M>;
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use aloha_common::ServerId;

    use super::*;
    use crate::delay::NetConfig;

    fn server(i: u16) -> Addr {
        Addr::Server(ServerId(i))
    }

    #[test]
    fn bus_behaves_identically_through_the_trait_object() {
        let bus: Bus<u32> = Bus::new(NetConfig::instant());
        let net: Arc<dyn Transport<u32>> = Arc::new(bus);
        let ep = net.register(server(0));
        net.send(server(0), 7).unwrap();
        net.send_reliable(server(0), 8).unwrap();
        assert_eq!(ep.recv().unwrap(), 7);
        assert_eq!(ep.recv().unwrap(), 8);
        assert_eq!(net.addresses(), vec![server(0)]);
        let snap = net.snapshot();
        assert_eq!(snap.counter("messages"), Some(2));
        assert!(net.fault_plan().is_none());
    }

    #[test]
    fn bus_shutdown_disconnects_endpoints() {
        let bus: Bus<u32> = Bus::new(NetConfig::instant());
        let net: Arc<dyn Transport<u32>> = Arc::new(bus);
        let ep = net.register(server(0));
        net.shutdown();
        assert!(ep.recv().is_err());
        // Post-shutdown sends are counted as drops, not panics.
        let _ = net.send(server(0), 1);
        assert_eq!(net.snapshot().counter("dropped"), Some(1));
    }

    #[test]
    fn pending_replies_complete_exactly_once() {
        let pending = PendingReplies::new();
        let (tx, rx) = mpsc::channel();
        let corr = pending.register(Box::new(move |payload: &[u8]| {
            tx.send(payload.to_vec()).unwrap();
        }));
        assert_eq!(pending.outstanding(), 1);
        assert!(pending.complete(corr, b"hi"));
        assert_eq!(rx.recv().unwrap(), b"hi");
        // Duplicate replies are dropped.
        assert!(!pending.complete(corr, b"again"));
        assert_eq!(pending.outstanding(), 0);
    }

    #[test]
    fn stray_correlation_ids_are_ignored() {
        let pending = PendingReplies::new();
        assert!(!pending.complete(999, b"stray"));
    }

    #[test]
    #[allow(clippy::redundant_clone)] // the clone IS the behavior under test
    fn remote_replier_routes_payloads() {
        let (tx, rx) = mpsc::channel();
        let replier = RemoteReplier::new(move |corr, payload| {
            tx.send((corr, payload)).unwrap();
        });
        let clone = replier.clone();
        clone.reply(3, vec![1, 2]);
        assert_eq!(rx.recv().unwrap(), (3, vec![1, 2]));
    }
}
