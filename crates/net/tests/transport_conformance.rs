//! Conformance suite for the [`Transport`] contract, run against both
//! implementations: the simulated in-process [`Bus`] and the real
//! [`TcpTransport`] over loopback.
//!
//! Every property here is one the engines lean on:
//!
//! * **FIFO per peer** — the epoch protocol assumes one sender's messages
//!   to one destination arrive in order;
//! * **no loss under `send_reliable`** — the control plane (grants,
//!   revokes, shutdown) runs on it with no retry layer;
//! * **deregister while sending** — cluster teardown races sends against
//!   endpoint removal; sends must degrade to drops, never panic or wedge;
//! * **recv after shutdown** — dispatcher threads learn about teardown
//!   exclusively from `recv` returning an error.
//!
//! A TCP-only test feeds the listener torn frames and garbage bytes and
//! asserts the transport rejects them (counted, connection dropped) while
//! continuing to serve well-formed peers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use aloha_common::{Bytes, Error, Result, ServerId};
use aloha_net::{
    Addr, Bus, NetConfig, PendingReplies, RemoteReplier, TcpTransport, Transport, WireCodec,
};

/// Trivial codec for the `String` test message type (no reply slots).
struct TextCodec;

impl WireCodec<String> for TextCodec {
    fn encode(&self, msg: &String, _pending: &PendingReplies, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(msg.as_bytes());
        Ok(())
    }

    fn decode(&self, bytes: &Bytes, _replier: &RemoteReplier) -> Result<String> {
        String::from_utf8(bytes.to_vec()).map_err(|e| Error::Codec(e.to_string()))
    }
}

/// One deployment under test: transport `i` locally hosts `Addr::Server(i)`
/// and can reach every other index. For the bus that is one shared instance;
/// for TCP it is one transport per index, cross-wired over 127.0.0.1.
struct Deployment {
    transports: Vec<Arc<dyn Transport<String>>>,
}

impl Deployment {
    fn bus(n: u16) -> Deployment {
        let bus: Arc<dyn Transport<String>> = Arc::new(Bus::new(NetConfig::instant()));
        Deployment {
            transports: (0..n).map(|_| Arc::clone(&bus)).collect(),
        }
    }

    fn tcp(n: u16) -> Deployment {
        let raw: Vec<Arc<TcpTransport<String>>> = (0..n)
            .map(|_| {
                Arc::new(TcpTransport::bind("127.0.0.1:0", Arc::new(TextCodec)).expect("bind"))
            })
            .collect();
        let addrs: Vec<SocketAddr> = raw.iter().map(|t| t.local_addr()).collect();
        for (i, t) in raw.iter().enumerate() {
            for (j, at) in addrs.iter().enumerate() {
                if i != j {
                    t.add_peer(Addr::Server(ServerId(j as u16)), *at);
                }
            }
        }
        Deployment {
            transports: raw.into_iter().map(|t| t as _).collect(),
        }
    }

    fn at(&self, i: u16) -> &Arc<dyn Transport<String>> {
        &self.transports[i as usize]
    }

    fn shutdown(self) {
        for t in &self.transports {
            t.shutdown();
        }
    }
}

/// Runs `test` against both implementations so a failure names the culprit.
fn conformance(n: u16, test: impl Fn(&Deployment)) {
    let bus = Deployment::bus(n);
    test(&bus);
    bus.shutdown();
    let tcp = Deployment::tcp(n);
    test(&tcp);
    tcp.shutdown();
}

const RECV: Duration = Duration::from_secs(5);

#[test]
fn fifo_per_peer() {
    conformance(2, |d| {
        let rx = d.at(1).register(Addr::Server(ServerId(1)));
        for i in 0..200u32 {
            d.at(0)
                .send(Addr::Server(ServerId(1)), format!("m{i}"))
                .expect("send");
        }
        // The data plane is lossy by contract but neither implementation
        // drops without injected faults or connection failure; order is
        // the property under test.
        let mut last = None;
        for _ in 0..200 {
            let msg = rx.recv_timeout(RECV).expect("ordered stream");
            let seq: u32 = msg.strip_prefix('m').unwrap().parse().unwrap();
            if let Some(prev) = last {
                assert!(seq > prev, "reordered: {seq} after {prev}");
            }
            last = Some(seq);
        }
        d.at(1).deregister(Addr::Server(ServerId(1)));
    });
}

#[test]
fn send_reliable_loses_nothing() {
    conformance(2, |d| {
        let rx = d.at(1).register(Addr::Server(ServerId(1)));
        for i in 0..500u32 {
            d.at(0)
                .send_reliable(Addr::Server(ServerId(1)), format!("r{i}"))
                .expect("reliable send");
        }
        for i in 0..500u32 {
            let msg = rx.recv_timeout(RECV).expect("no reliable message lost");
            assert_eq!(msg, format!("r{i}"));
        }
        d.at(1).deregister(Addr::Server(ServerId(1)));
    });
}

#[test]
fn deregister_while_sending_degrades_to_drops() {
    conformance(2, |d| {
        let rx = d.at(1).register(Addr::Server(ServerId(1)));
        let sender = Arc::clone(d.at(0));
        let pump = std::thread::spawn(move || {
            // Sends race the deregistration; every call must return (Ok or
            // a clean error), never panic or block forever.
            for i in 0..2_000u32 {
                let _ = sender.send(Addr::Server(ServerId(1)), format!("x{i}"));
                if i == 500 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        // Drain a few to make sure the stream is live, then pull the rug.
        for _ in 0..10 {
            let _ = rx.recv_timeout(RECV).expect("live stream");
        }
        d.at(1).deregister(Addr::Server(ServerId(1)));
        pump.join().expect("sender must not panic");
        // The endpoint is gone: the transport no longer lists it locally
        // and fresh sends still complete without error surfacing a panic.
        let _ = d.at(0).send(Addr::Server(ServerId(1)), "late".into());
    });
}

#[test]
fn recv_after_shutdown_disconnects() {
    // Not via `conformance`: shutdown is the property under test.
    for d in [Deployment::bus(2), Deployment::tcp(2)] {
        let rx = d.at(1).register(Addr::Server(ServerId(1)));
        let waiter = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        for t in &d.transports {
            t.shutdown();
            t.shutdown(); // idempotent
        }
        let got = waiter.join().expect("recv thread");
        assert!(got.is_err(), "recv must fail after shutdown, got {got:?}");
    }
}

// ---------------------------------------------------------------------------
// TCP-only: wire robustness
// ---------------------------------------------------------------------------

/// Torn frames and garbage bytes must be rejected — counted and the
/// connection dropped — without taking the transport down for well-formed
/// peers.
#[test]
fn tcp_rejects_torn_frames_and_garbage() {
    use std::io::Write as _;

    let codec = Arc::new(TextCodec);
    let victim = Arc::new(TcpTransport::bind("127.0.0.1:0", codec.clone()).expect("bind"));
    let rx = victim.register(Addr::Server(ServerId(0)));

    // Garbage: not even a frame header's worth of sense.
    {
        let mut s = std::net::TcpStream::connect(victim.local_addr()).expect("connect");
        s.write_all(&[0xEE; 64]).expect("write garbage");
    }
    // Torn frame: a plausible length prefix, then the stream dies mid-body.
    {
        let mut s = std::net::TcpStream::connect(victim.local_addr()).expect("connect");
        s.write_all(&1024u32.to_be_bytes()).expect("write len");
        s.write_all(b"half a frame").expect("write partial body");
    }
    // An absurd length prefix must be rejected without allocating it.
    {
        let mut s = std::net::TcpStream::connect(victim.local_addr()).expect("connect");
        s.write_all(&u32::MAX.to_be_bytes()).expect("write len");
    }

    // A well-formed peer still gets through afterwards.
    let peer = Arc::new(TcpTransport::bind("127.0.0.1:0", codec).expect("bind peer"));
    peer.add_peer(Addr::Server(ServerId(0)), victim.local_addr());
    let deadline = std::time::Instant::now() + RECV;
    loop {
        peer.send_reliable(Addr::Server(ServerId(0)), "hello".to_string())
            .expect("send after garbage");
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(msg) => {
                assert_eq!(msg, "hello");
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {}
            Err(e) => panic!("no delivery after garbage connections: {e}"),
        }
    }

    // The junk was counted, not silently swallowed. The torn frame only
    // registers once the reader sees EOF mid-body, so poll briefly.
    let deadline = std::time::Instant::now() + RECV;
    loop {
        let errors = victim
            .snapshot()
            .counter("tcp_frame_errors")
            .unwrap_or_default();
        if errors >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected >= 2 frame errors, saw {errors}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    peer.shutdown();
    victim.shutdown();
}
