//! In-process cluster network for the ALOHA-DB reproduction.
//!
//! The paper evaluates ALOHA-DB on a private cluster of EC2 virtual machines
//! connected by a datacenter network and fbthrift RPC (§V-A3). This crate is
//! the substitution documented in `DESIGN.md`: every simulated server owns an
//! [`Endpoint`] on a shared [`Bus`], and messages between endpoints optionally
//! traverse a [`DelayLine`] that injects configurable latency and jitter — the
//! knob that stands in for real network distance.
//!
//! Request/reply ("RPC") interactions are expressed with [`ReplySlot`] /
//! [`ReplyHandle`] pairs embedded inside application messages, mirroring how
//! an RPC framework would correlate responses.
//!
//! # Examples
//!
//! ```
//! use aloha_net::{Addr, Bus, NetConfig};
//!
//! let bus: Bus<String> = Bus::new(NetConfig::instant());
//! let a = bus.register(Addr::Server(aloha_common::ServerId(0)));
//! bus.send(Addr::Server(aloha_common::ServerId(0)), "hello".to_string()).unwrap();
//! let envelope = a.recv().unwrap();
//! assert_eq!(envelope, "hello");
//! ```

pub mod bus;
pub mod delay;
pub mod exec;
pub mod fault;
pub mod reply;
pub mod tcp;
pub mod transport;

pub use bus::{recv_while, Addr, Bus, Endpoint};
pub use delay::{DelayLine, NetConfig};
pub use exec::{ExecConfig, ExecStats, Executor};
pub use fault::{CrashAlign, CrashPlan, FaultPlan, LinkFault, PartitionWindow, PauseWindow};
pub use reply::{reply_pair, ReplyHandle, ReplySlot};
pub use tcp::{TcpStats, TcpTransport};
pub use transport::{PendingReplies, RemoteReplier, Transport, WireCodec};
