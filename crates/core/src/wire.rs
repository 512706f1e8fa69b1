//! Binary wire codec for [`ServerMsg`], used by process-boundary transports.
//!
//! The in-process [`aloha_net::Bus`] moves `ServerMsg` values by ownership and
//! never serializes them. A real transport ([`aloha_net::TcpTransport`]) needs
//! a byte representation, and — because `ServerMsg` embeds live
//! [`ReplySlot`]s — a reply-correlation protocol. [`ServerMsgCodec`]
//! implements both sides of [`WireCodec`]:
//!
//! * `encode` walks the message, registers every embedded [`ReplySlot`] with
//!   the sending node's [`PendingReplies`] table and writes the issued
//!   correlation id in the slot's place;
//! * `decode` rebuilds each slot as a [`ReplySlot::from_fn`] closure that
//!   encodes the reply value and routes `(corr, payload)` back through the
//!   transport's [`RemoteReplier`].
//!
//! Framing, checksums and retransmission live in the transport; this module
//! is a pure value codec. Layout is big-endian throughout (the repo's
//! [`Writer`]/[`Reader`] convention, shared with the WAL record format).

use std::sync::Arc;
use std::time::Duration;

use aloha_common::codec::{Reader, Writer};
use aloha_common::{
    Bytes, EpochId, Error, Key, PartitionId, Result, ServerId, Timestamp, TxnId, Value,
};
use aloha_epoch::{Authorization, Grant, RevokedAck};
use aloha_functor::VersionedRead;
use aloha_net::{PendingReplies, RemoteReplier, ReplySlot, WireCodec};
use aloha_storage::wal::{decode_functor, encode_functor};

use crate::msg::{InstallOutcome, ServerMsg, VersionState};
use crate::program::{Check, Write};

/// [`WireCodec`] implementation for the ALOHA engine's [`ServerMsg`].
///
/// Stateless; the correlation state lives in the transport's
/// [`PendingReplies`] table passed into each call.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerMsgCodec;

// Variant tags. Stable on the wire: append new variants, never renumber.
// Tags 10 and 11 are retired and must not be reused.
const TAG_GRANT: u8 = 0;
const TAG_REVOKE: u8 = 1;
const TAG_REVOKED_ACK: u8 = 2;
const TAG_INSTALL: u8 = 3;
const TAG_ABORT_VERSION: u8 = 4;
const TAG_REMOTE_GET: u8 = 5;
const TAG_REMOTE_GET_BATCH: u8 = 6;
const TAG_INSTALL_DEFERRED: u8 = 7;
const TAG_RESOLVE_VERSION: u8 = 8;
const TAG_PUSH_VALUE: u8 = 9;
const TAG_SHUTDOWN: u8 = 12;
const TAG_SNAPSHOT_READ: u8 = 13;
const TAG_SNAPSHOT_READ_BATCH: u8 = 14;
const TAG_SHIP_BATCH: u8 = 15;

impl WireCodec<ServerMsg> for ServerMsgCodec {
    fn encode(&self, msg: &ServerMsg, pending: &PendingReplies, out: &mut Vec<u8>) -> Result<()> {
        let mut w = Writer::with_capacity(msg.approx_bytes() + 16);
        encode_msg(msg, pending, &mut w)?;
        out.extend_from_slice(&w.into_bytes());
        Ok(())
    }

    fn decode(&self, bytes: &Bytes, replier: &RemoteReplier) -> Result<ServerMsg> {
        let mut r = Reader::shared(bytes);
        let msg = decode_msg(&mut r, replier)?;
        if !r.is_empty() {
            return Err(Error::Codec(format!(
                "trailing bytes after ServerMsg: {} left",
                r.remaining()
            )));
        }
        Ok(msg)
    }
}

fn encode_msg(msg: &ServerMsg, pending: &PendingReplies, w: &mut Writer) -> Result<()> {
    match msg {
        ServerMsg::Grant(g) => {
            w.put_u8(TAG_GRANT)
                .put_u64(g.auth.epoch().0)
                .put_u64(g.auth.start_micros())
                .put_u64(g.auth.end_micros())
                .put_u64(g.settled.raw())
                .put_u64(g.epoch_duration_micros)
                .put_u64(g.frontier.raw());
        }
        ServerMsg::Revoke(epoch) => {
            w.put_u8(TAG_REVOKE).put_u64(epoch.0);
        }
        ServerMsg::RevokedAck(ack) => {
            w.put_u8(TAG_REVOKED_ACK)
                .put_u16(ack.server.0)
                .put_u64(ack.epoch.0)
                .put_u64(ack.frontier.raw());
        }
        ServerMsg::Install {
            version,
            writes,
            reply,
        } => {
            w.put_u8(TAG_INSTALL).put_u64(version.raw());
            put_len(w, writes.len())?;
            for write in writes.iter() {
                encode_write(write, w);
            }
            w.put_u64(register_reply(pending, reply, decode_install_outcome));
        }
        ServerMsg::AbortVersion { keys, reply } => {
            w.put_u8(TAG_ABORT_VERSION);
            put_len(w, keys.len())?;
            for (key, version) in keys.iter() {
                w.put_bytes(key.as_bytes()).put_u64(version.raw());
            }
            w.put_u64(register_reply(pending, reply, decode_unit));
        }
        ServerMsg::RemoteGet { key, bound, reply } => {
            w.put_u8(TAG_REMOTE_GET)
                .put_bytes(key.as_bytes())
                .put_u64(bound.raw())
                .put_u64(register_reply(pending, reply, |r| {
                    decode_result(r, decode_versioned_read)
                }));
        }
        ServerMsg::RemoteGetBatch { keys, bound, reply } => {
            w.put_u8(TAG_REMOTE_GET_BATCH);
            put_len(w, keys.len())?;
            for key in keys.iter() {
                w.put_bytes(key.as_bytes());
            }
            w.put_u64(bound.raw())
                .put_u64(register_reply(pending, reply, |r| {
                    decode_result(r, decode_read_vec)
                }));
        }
        ServerMsg::SnapshotRead { key, bound, reply } => {
            w.put_u8(TAG_SNAPSHOT_READ)
                .put_bytes(key.as_bytes())
                .put_u64(bound.raw())
                .put_u64(register_reply(pending, reply, |r| {
                    decode_result(r, decode_versioned_read)
                }));
        }
        ServerMsg::SnapshotReadBatch { keys, bound, reply } => {
            w.put_u8(TAG_SNAPSHOT_READ_BATCH);
            put_len(w, keys.len())?;
            for key in keys.iter() {
                w.put_bytes(key.as_bytes());
            }
            w.put_u64(bound.raw())
                .put_u64(register_reply(pending, reply, |r| {
                    decode_result(r, decode_read_vec)
                }));
        }
        ServerMsg::InstallDeferred {
            key,
            version,
            functor,
            reply,
        } => {
            w.put_u8(TAG_INSTALL_DEFERRED)
                .put_bytes(key.as_bytes())
                .put_u64(version.raw());
            encode_functor(w, functor);
            w.put_u64(register_reply(pending, reply, decode_unit));
        }
        ServerMsg::ResolveVersion {
            key,
            version,
            reply,
        } => {
            w.put_u8(TAG_RESOLVE_VERSION)
                .put_bytes(key.as_bytes())
                .put_u64(version.raw())
                .put_u64(register_reply(pending, reply, |r| {
                    decode_result(r, decode_version_state)
                }));
        }
        ServerMsg::PushValue {
            version,
            source,
            read,
        } => {
            w.put_u8(TAG_PUSH_VALUE)
                .put_u64(version.raw())
                .put_bytes(source.as_bytes());
            encode_versioned_read(read, w);
        }
        ServerMsg::ShipBatch {
            from,
            watermark,
            frames,
            reply,
        } => {
            w.put_u8(TAG_SHIP_BATCH)
                .put_u16(from.0)
                .put_u64(watermark.raw());
            put_len(w, frames.len())?;
            for (version, frame) in frames.iter() {
                w.put_u64(*version).put_bytes(frame);
            }
            w.put_u64(register_reply(pending, reply, decode_timestamp));
        }
        ServerMsg::Shutdown => {
            w.put_u8(TAG_SHUTDOWN);
        }
    }
    Ok(())
}

fn decode_msg(r: &mut Reader<'_>, replier: &RemoteReplier) -> Result<ServerMsg> {
    let tag = r.get_u8()?;
    Ok(match tag {
        TAG_GRANT => {
            let epoch = EpochId(r.get_u64()?);
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            let settled = Timestamp::from_raw(r.get_u64()?);
            let epoch_duration_micros = r.get_u64()?;
            let frontier = Timestamp::from_raw(r.get_u64()?);
            if start > end {
                return Err(Error::Codec(format!(
                    "Grant with empty authorization window [{start}, {end}]"
                )));
            }
            ServerMsg::Grant(Grant {
                auth: Authorization::new(epoch, start, end),
                settled,
                epoch_duration_micros,
                frontier,
            })
        }
        TAG_REVOKE => ServerMsg::Revoke(EpochId(r.get_u64()?)),
        TAG_REVOKED_ACK => ServerMsg::RevokedAck(RevokedAck {
            server: ServerId(r.get_u16()?),
            epoch: EpochId(r.get_u64()?),
            frontier: Timestamp::from_raw(r.get_u64()?),
        }),
        TAG_INSTALL => {
            let version = Timestamp::from_raw(r.get_u64()?);
            let count = r.get_u32()?;
            let mut writes = Vec::with_capacity(count as usize);
            for _ in 0..count {
                writes.push(decode_write(r)?);
            }
            let corr = r.get_u64()?;
            ServerMsg::Install {
                version,
                writes: Arc::new(writes),
                reply: remote_slot(replier, corr, encode_install_outcome),
            }
        }
        TAG_ABORT_VERSION => {
            let count = r.get_u32()?;
            let mut keys = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let key = Key::from(r.get_bytes_shared()?);
                let version = Timestamp::from_raw(r.get_u64()?);
                keys.push((key, version));
            }
            let corr = r.get_u64()?;
            ServerMsg::AbortVersion {
                keys: Arc::new(keys),
                reply: remote_slot(replier, corr, encode_unit),
            }
        }
        TAG_REMOTE_GET => {
            let key = Key::from(r.get_bytes_shared()?);
            let bound = Timestamp::from_raw(r.get_u64()?);
            let corr = r.get_u64()?;
            ServerMsg::RemoteGet {
                key,
                bound,
                reply: remote_slot(replier, corr, |v, w| {
                    encode_result(v, w, encode_versioned_read);
                }),
            }
        }
        TAG_REMOTE_GET_BATCH => {
            let count = r.get_u32()?;
            let mut keys = Vec::with_capacity(count as usize);
            for _ in 0..count {
                keys.push(Key::from(r.get_bytes_shared()?));
            }
            let bound = Timestamp::from_raw(r.get_u64()?);
            let corr = r.get_u64()?;
            ServerMsg::RemoteGetBatch {
                keys: Arc::new(keys),
                bound,
                reply: remote_slot(replier, corr, |v, w| {
                    encode_result(v, w, encode_read_vec);
                }),
            }
        }
        TAG_SNAPSHOT_READ => {
            let key = Key::from(r.get_bytes_shared()?);
            let bound = Timestamp::from_raw(r.get_u64()?);
            let corr = r.get_u64()?;
            ServerMsg::SnapshotRead {
                key,
                bound,
                reply: remote_slot(replier, corr, |v, w| {
                    encode_result(v, w, encode_versioned_read);
                }),
            }
        }
        TAG_SNAPSHOT_READ_BATCH => {
            let count = r.get_u32()?;
            let mut keys = Vec::with_capacity(count as usize);
            for _ in 0..count {
                keys.push(Key::from(r.get_bytes_shared()?));
            }
            let bound = Timestamp::from_raw(r.get_u64()?);
            let corr = r.get_u64()?;
            ServerMsg::SnapshotReadBatch {
                keys: Arc::new(keys),
                bound,
                reply: remote_slot(replier, corr, |v, w| {
                    encode_result(v, w, encode_read_vec);
                }),
            }
        }
        TAG_INSTALL_DEFERRED => {
            let key = Key::from(r.get_bytes_shared()?);
            let version = Timestamp::from_raw(r.get_u64()?);
            let functor = decode_functor(r)?;
            let corr = r.get_u64()?;
            ServerMsg::InstallDeferred {
                key,
                version,
                functor,
                reply: remote_slot(replier, corr, encode_unit),
            }
        }
        TAG_RESOLVE_VERSION => {
            let key = Key::from(r.get_bytes_shared()?);
            let version = Timestamp::from_raw(r.get_u64()?);
            let corr = r.get_u64()?;
            ServerMsg::ResolveVersion {
                key,
                version,
                reply: remote_slot(replier, corr, |v, w| {
                    encode_result(v, w, encode_version_state);
                }),
            }
        }
        TAG_PUSH_VALUE => {
            let version = Timestamp::from_raw(r.get_u64()?);
            let source = Key::from(r.get_bytes_shared()?);
            let read = decode_versioned_read(r)?;
            ServerMsg::PushValue {
                version,
                source,
                read,
            }
        }
        TAG_SHIP_BATCH => {
            let from = PartitionId(r.get_u16()?);
            let watermark = Timestamp::from_raw(r.get_u64()?);
            let count = r.get_u32()?;
            let mut frames = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let version = r.get_u64()?;
                frames.push((version, r.get_bytes()?.to_vec()));
            }
            let corr = r.get_u64()?;
            ServerMsg::ShipBatch {
                from,
                watermark,
                frames: Arc::new(frames),
                reply: remote_slot(replier, corr, encode_timestamp),
            }
        }
        TAG_SHUTDOWN => ServerMsg::Shutdown,
        other => return Err(Error::Codec(format!("unknown ServerMsg tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Reply correlation
// ---------------------------------------------------------------------------

/// Registers `slot` under a fresh correlation id: when the matching reply
/// frame arrives, its payload is decoded with `decode` and delivered into the
/// slot. An undecodable reply payload is dropped — the requester's retry
/// machinery treats it like a lost reply.
fn register_reply<T: Send + 'static>(
    pending: &PendingReplies,
    slot: &ReplySlot<T>,
    decode: impl Fn(&mut Reader<'_>) -> Result<T> + Send + 'static,
) -> u64 {
    let slot = slot.clone();
    pending.register(Box::new(move |payload: &[u8]| {
        let mut r = Reader::new(payload);
        if let Ok(value) = decode(&mut r) {
            slot.send(value);
        }
    }))
}

/// Rebuilds a reply slot on the receiving node: sending into it encodes the
/// value with `encode` and routes the payload back through the transport.
fn remote_slot<T: Send + 'static>(
    replier: &RemoteReplier,
    corr: u64,
    encode: impl Fn(&T, &mut Writer) + Send + Sync + 'static,
) -> ReplySlot<T> {
    let replier = replier.clone();
    ReplySlot::from_fn(move |value: T| {
        let mut w = Writer::new();
        encode(&value, &mut w);
        replier.reply(corr, w.into_bytes());
    })
}

// ---------------------------------------------------------------------------
// Component codecs
// ---------------------------------------------------------------------------

fn put_len(w: &mut Writer, len: usize) -> Result<()> {
    let len = u32::try_from(len)
        .map_err(|_| Error::Codec(format!("collection too large for wire: {len} items")))?;
    w.put_u32(len);
    Ok(())
}

fn encode_write(write: &Write, w: &mut Writer) {
    w.put_bytes(write.key.as_bytes());
    encode_functor(w, &write.functor);
    match &write.check {
        None => {
            w.put_u8(0);
        }
        Some(Check::KeyExists(key)) => {
            w.put_u8(1).put_bytes(key.as_bytes());
        }
    }
}

fn decode_write(r: &mut Reader<'_>) -> Result<Write> {
    let key = Key::from(r.get_bytes_shared()?);
    let functor = decode_functor(r)?;
    let check = match r.get_u8()? {
        0 => None,
        1 => Some(Check::KeyExists(Key::from(r.get_bytes_shared()?))),
        other => return Err(Error::Codec(format!("unknown Check tag {other}"))),
    };
    Ok(Write {
        key,
        functor,
        check,
    })
}

fn encode_unit(_: &(), _: &mut Writer) {}

fn encode_timestamp(ts: &Timestamp, w: &mut Writer) {
    w.put_u64(ts.raw());
}

fn decode_timestamp(r: &mut Reader<'_>) -> Result<Timestamp> {
    Ok(Timestamp::from_raw(r.get_u64()?))
}

fn decode_unit(_: &mut Reader<'_>) -> Result<()> {
    Ok(())
}

fn encode_install_outcome(outcome: &InstallOutcome, w: &mut Writer) {
    match outcome {
        InstallOutcome::Ok => {
            w.put_u8(0);
        }
        InstallOutcome::CheckFailed(reason) => {
            w.put_u8(1).put_str(reason);
        }
        InstallOutcome::OutsideEpoch => {
            w.put_u8(2);
        }
    }
}

fn decode_install_outcome(r: &mut Reader<'_>) -> Result<InstallOutcome> {
    Ok(match r.get_u8()? {
        0 => InstallOutcome::Ok,
        1 => InstallOutcome::CheckFailed(r.get_str()?.to_string()),
        2 => InstallOutcome::OutsideEpoch,
        other => return Err(Error::Codec(format!("unknown InstallOutcome tag {other}"))),
    })
}

fn encode_versioned_read(read: &VersionedRead, w: &mut Writer) {
    w.put_u64(read.version.raw());
    match &read.value {
        None => {
            w.put_u8(0);
        }
        Some(value) => {
            w.put_u8(1).put_bytes(value.as_bytes());
        }
    }
}

fn decode_versioned_read(r: &mut Reader<'_>) -> Result<VersionedRead> {
    let version = Timestamp::from_raw(r.get_u64()?);
    let value = match r.get_u8()? {
        0 => None,
        1 => Some(Value::from(r.get_bytes_shared()?)),
        other => {
            return Err(Error::Codec(format!(
                "unknown VersionedRead value flag {other}"
            )))
        }
    };
    Ok(VersionedRead { version, value })
}

fn encode_read_vec(reads: &Vec<VersionedRead>, w: &mut Writer) {
    // Reply payloads echo request-sized collections; a u32 length is already
    // enforced on the request side, so saturating here cannot trigger.
    w.put_u32(u32::try_from(reads.len()).unwrap_or(u32::MAX));
    for read in reads {
        encode_versioned_read(read, w);
    }
}

fn decode_read_vec(r: &mut Reader<'_>) -> Result<Vec<VersionedRead>> {
    let count = r.get_u32()?;
    let mut reads = Vec::with_capacity(count as usize);
    for _ in 0..count {
        reads.push(decode_versioned_read(r)?);
    }
    Ok(reads)
}

fn encode_version_state(state: &VersionState, w: &mut Writer) {
    match state {
        VersionState::Committed(value) => {
            w.put_u8(0).put_bytes(value.as_bytes());
        }
        VersionState::Aborted => {
            w.put_u8(1);
        }
        VersionState::Deleted => {
            w.put_u8(2);
        }
        VersionState::Missing => {
            w.put_u8(3);
        }
    }
}

fn decode_version_state(r: &mut Reader<'_>) -> Result<VersionState> {
    Ok(match r.get_u8()? {
        0 => VersionState::Committed(Value::from(r.get_bytes_shared()?)),
        1 => VersionState::Aborted,
        2 => VersionState::Deleted,
        3 => VersionState::Missing,
        other => return Err(Error::Codec(format!("unknown VersionState tag {other}"))),
    })
}

fn encode_result<T>(value: &Result<T>, w: &mut Writer, encode: impl Fn(&T, &mut Writer)) {
    match value {
        Ok(v) => {
            w.put_u8(0);
            encode(v, w);
        }
        Err(e) => {
            w.put_u8(1);
            encode_error(e, w);
        }
    }
}

fn decode_result<T>(
    r: &mut Reader<'_>,
    decode: impl Fn(&mut Reader<'_>) -> Result<T>,
) -> Result<Result<T>> {
    Ok(match r.get_u8()? {
        0 => Ok(decode(r)?),
        1 => Err(decode_error(r)?),
        other => return Err(Error::Codec(format!("unknown Result tag {other}"))),
    })
}

fn encode_error(e: &Error, w: &mut Writer) {
    match e {
        Error::Codec(s) => {
            w.put_u8(0).put_str(s);
        }
        Error::Disconnected(s) => {
            w.put_u8(1).put_str(s);
        }
        Error::NoSuchPartition(p) => {
            w.put_u8(2).put_u16(p.0);
        }
        Error::UnknownProgram(id) => {
            w.put_u8(3).put_u32(*id);
        }
        Error::UnknownHandler(id) => {
            w.put_u8(4).put_u32(*id);
        }
        Error::VersionOutsideEpoch {
            version,
            valid_from,
            valid_until,
        } => {
            w.put_u8(5)
                .put_u64(version.raw())
                .put_u64(valid_from.raw())
                .put_u64(valid_until.raw());
        }
        Error::KeyNotFound(key) => {
            w.put_u8(6).put_bytes(key.as_bytes());
        }
        Error::Rejected { txn, reason } => {
            w.put_u8(7).put_u64(txn.0).put_str(reason);
        }
        Error::Overloaded { retry_after } => {
            w.put_u8(8)
                .put_u64(u64::try_from(retry_after.as_micros()).unwrap_or(u64::MAX));
        }
        Error::Io(s) => {
            w.put_u8(9).put_str(s);
        }
        Error::ShuttingDown => {
            w.put_u8(10);
        }
        Error::Config(s) => {
            w.put_u8(11).put_str(s);
        }
        Error::Timeout(s) => {
            w.put_u8(12).put_str(s);
        }
        // `Error` is #[non_exhaustive]; future variants degrade to a Codec
        // error carrying their rendered form rather than failing to encode.
        other => {
            w.put_u8(0).put_str(&other.to_string());
        }
    }
}

fn decode_error(r: &mut Reader<'_>) -> Result<Error> {
    Ok(match r.get_u8()? {
        0 => Error::Codec(r.get_str()?.to_string()),
        1 => Error::Disconnected(r.get_str()?.to_string()),
        2 => Error::NoSuchPartition(PartitionId(r.get_u16()?)),
        3 => Error::UnknownProgram(r.get_u32()?),
        4 => Error::UnknownHandler(r.get_u32()?),
        5 => Error::VersionOutsideEpoch {
            version: Timestamp::from_raw(r.get_u64()?),
            valid_from: Timestamp::from_raw(r.get_u64()?),
            valid_until: Timestamp::from_raw(r.get_u64()?),
        },
        6 => Error::KeyNotFound(Key::from(r.get_bytes_shared()?)),
        7 => Error::Rejected {
            txn: TxnId(r.get_u64()?),
            reason: r.get_str()?.to_string(),
        },
        8 => Error::Overloaded {
            retry_after: Duration::from_micros(r.get_u64()?),
        },
        9 => Error::Io(r.get_str()?.to_string()),
        10 => Error::ShuttingDown,
        11 => Error::Config(r.get_str()?.to_string()),
        12 => Error::Timeout(r.get_str()?.to_string()),
        other => return Err(Error::Codec(format!("unknown Error tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aloha_functor::Functor;
    use aloha_net::reply_pair;

    /// A loopback correlation pair: replies sent through the returned
    /// [`RemoteReplier`] complete against the returned [`PendingReplies`],
    /// as if request and reply crossed a wire.
    fn loopback() -> (Arc<PendingReplies>, RemoteReplier) {
        let pending = Arc::new(PendingReplies::new());
        let completions = Arc::clone(&pending);
        let replier = RemoteReplier::new(move |corr, payload| {
            completions.complete(corr, &payload);
        });
        (pending, replier)
    }

    fn round_trip(msg: &ServerMsg) -> ServerMsg {
        let (pending, replier) = loopback();
        let mut bytes = Vec::new();
        ServerMsgCodec
            .encode(msg, &pending, &mut bytes)
            .expect("encode");
        ServerMsgCodec
            .decode(&Bytes::from(bytes), &replier)
            .expect("decode")
    }

    #[test]
    fn grant_revoke_ack_round_trip() {
        let grant = ServerMsg::Grant(Grant {
            auth: Authorization::new(EpochId(7), 1_000, 2_000),
            settled: Timestamp::from_raw(999),
            epoch_duration_micros: 1_000,
            frontier: Timestamp::from_raw(555),
        });
        match round_trip(&grant) {
            ServerMsg::Grant(g) => {
                assert_eq!(g.auth.epoch(), EpochId(7));
                assert_eq!(g.auth.start_micros(), 1_000);
                assert_eq!(g.auth.end_micros(), 2_000);
                assert_eq!(g.settled, Timestamp::from_raw(999));
                assert_eq!(g.epoch_duration_micros, 1_000);
                assert_eq!(g.frontier, Timestamp::from_raw(555));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match round_trip(&ServerMsg::Revoke(EpochId(9))) {
            ServerMsg::Revoke(e) => assert_eq!(e, EpochId(9)),
            other => panic!("wrong variant: {other:?}"),
        }

        match round_trip(&ServerMsg::RevokedAck(RevokedAck {
            server: ServerId(3),
            epoch: EpochId(9),
            frontier: Timestamp::from_raw(123),
        })) {
            ServerMsg::RevokedAck(a) => {
                assert_eq!(a.server, ServerId(3));
                assert_eq!(a.epoch, EpochId(9));
                assert_eq!(a.frontier, Timestamp::from_raw(123));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        assert!(matches!(
            round_trip(&ServerMsg::Shutdown),
            ServerMsg::Shutdown
        ));
    }

    #[test]
    fn install_round_trip_delivers_reply() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::Install {
            version: Timestamp::from_raw(42),
            writes: Arc::new(vec![
                Write {
                    key: Key::from("a"),
                    functor: Functor::Value(Value::from_i64(5)),
                    check: None,
                },
                Write {
                    key: Key::from("b"),
                    functor: Functor::Value(Value::new(b"x".to_vec())),
                    check: Some(Check::KeyExists(Key::from("guard"))),
                },
            ]),
            reply: slot,
        };
        let decoded = round_trip(&msg);
        let ServerMsg::Install {
            version,
            writes,
            reply,
        } = decoded
        else {
            panic!("wrong variant");
        };
        assert_eq!(version, Timestamp::from_raw(42));
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].key, Key::from("a"));
        assert!(writes[0].check.is_none());
        assert_eq!(writes[1].check, Some(Check::KeyExists(Key::from("guard"))));

        // The decoded slot routes back through the loopback replier into the
        // original handle.
        reply.send(InstallOutcome::CheckFailed("invalid item".into()));
        assert_eq!(
            handle.wait().expect("reply"),
            InstallOutcome::CheckFailed("invalid item".into())
        );
    }

    #[test]
    fn abort_version_round_trip_delivers_unit_ack() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::AbortVersion {
            keys: Arc::new(vec![
                (Key::from("k1"), Timestamp::from_raw(10)),
                (Key::from("k2"), Timestamp::from_raw(10)),
            ]),
            reply: slot,
        };
        let ServerMsg::AbortVersion { keys, reply } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[1].0, Key::from("k2"));
        reply.send(());
        handle.wait().expect("ack");
    }

    #[test]
    fn remote_get_round_trip_delivers_ok_and_err() {
        // Ok(found) reply.
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::RemoteGet {
            key: Key::from("k"),
            bound: Timestamp::from_raw(100),
            reply: slot,
        };
        let ServerMsg::RemoteGet { key, bound, reply } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert_eq!(key, Key::from("k"));
        assert_eq!(bound, Timestamp::from_raw(100));
        reply.send(Ok(VersionedRead::found(
            Timestamp::from_raw(90),
            Value::from_i64(7),
        )));
        let read = handle.wait().expect("reply").expect("ok");
        assert_eq!(read.version, Timestamp::from_raw(90));
        assert_eq!(read.value, Some(Value::from_i64(7)));

        // Err reply survives the error codec.
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::RemoteGet {
            key: Key::from("k"),
            bound: Timestamp::from_raw(100),
            reply: slot,
        };
        let ServerMsg::RemoteGet { reply, .. } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        reply.send(Err(Error::KeyNotFound(Key::from("k"))));
        assert_eq!(
            handle.wait().expect("reply").expect_err("err"),
            Error::KeyNotFound(Key::from("k"))
        );
    }

    #[test]
    fn remote_get_batch_round_trip() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::RemoteGetBatch {
            keys: Arc::new(vec![Key::from("a"), Key::from("b")]),
            bound: Timestamp::from_raw(50),
            reply: slot,
        };
        let ServerMsg::RemoteGetBatch { keys, bound, reply } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert_eq!(keys.as_slice(), &[Key::from("a"), Key::from("b")]);
        assert_eq!(bound, Timestamp::from_raw(50));
        reply.send(Ok(vec![
            VersionedRead::found(Timestamp::from_raw(1), Value::from_i64(1)),
            VersionedRead::missing(),
        ]));
        let reads = handle.wait().expect("reply").expect("ok");
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].value, Some(Value::from_i64(1)));
        assert_eq!(reads[1].value, None);
    }

    #[test]
    fn snapshot_read_round_trip_delivers_ok_and_err() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::SnapshotRead {
            key: Key::from("hot"),
            bound: Timestamp::from_raw(4_000),
            reply: slot,
        };
        let ServerMsg::SnapshotRead { key, bound, reply } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert_eq!(key, Key::from("hot"));
        assert_eq!(bound, Timestamp::from_raw(4_000));
        reply.send(Ok(VersionedRead::found(
            Timestamp::from_raw(3_500),
            Value::from_i64(42),
        )));
        let read = handle.wait().expect("reply").expect("ok");
        assert_eq!(read.version, Timestamp::from_raw(3_500));
        assert_eq!(read.value, Some(Value::from_i64(42)));

        let (slot, handle) = reply_pair();
        let msg = ServerMsg::SnapshotRead {
            key: Key::from("hot"),
            bound: Timestamp::from_raw(4_000),
            reply: slot,
        };
        let ServerMsg::SnapshotRead { reply, .. } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        reply.send(Err(Error::NoSuchPartition(PartitionId(9))));
        assert_eq!(
            handle.wait().expect("reply").expect_err("err"),
            Error::NoSuchPartition(PartitionId(9))
        );
    }

    #[test]
    fn snapshot_read_batch_round_trip() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::SnapshotReadBatch {
            keys: Arc::new(vec![Key::from("x"), Key::from("y"), Key::from("z")]),
            bound: Timestamp::from_raw(900),
            reply: slot,
        };
        let ServerMsg::SnapshotReadBatch { keys, bound, reply } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert_eq!(
            keys.as_slice(),
            &[Key::from("x"), Key::from("y"), Key::from("z")]
        );
        assert_eq!(bound, Timestamp::from_raw(900));
        reply.send(Ok(vec![
            VersionedRead::found(Timestamp::from_raw(880), Value::from_i64(-1)),
            VersionedRead::missing(),
            VersionedRead::found(Timestamp::from_raw(10), Value::new(b"blob".to_vec())),
        ]));
        let reads = handle.wait().expect("reply").expect("ok");
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].value, Some(Value::from_i64(-1)));
        assert_eq!(reads[1].value, None);
        assert_eq!(reads[2].value, Some(Value::new(b"blob".to_vec())));
    }

    #[test]
    fn install_deferred_and_resolve_round_trip() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::InstallDeferred {
            key: Key::from("dep"),
            version: Timestamp::from_raw(77),
            functor: Functor::Value(Value::from_i64(3)),
            reply: slot,
        };
        let ServerMsg::InstallDeferred {
            key,
            version,
            reply,
            ..
        } = round_trip(&msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(key, Key::from("dep"));
        assert_eq!(version, Timestamp::from_raw(77));
        reply.send(());
        handle.wait().expect("ack");

        let (slot, handle) = reply_pair();
        let msg = ServerMsg::ResolveVersion {
            key: Key::from("k"),
            version: Timestamp::from_raw(5),
            reply: slot,
        };
        let ServerMsg::ResolveVersion { reply, .. } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        reply.send(Ok(VersionState::Committed(Value::from_i64(11))));
        assert_eq!(
            handle.wait().expect("reply").expect("ok"),
            VersionState::Committed(Value::from_i64(11))
        );
    }

    #[test]
    fn push_value_round_trip() {
        let msg = ServerMsg::PushValue {
            version: Timestamp::from_raw(8),
            source: Key::from("src"),
            read: VersionedRead::found(Timestamp::from_raw(6), Value::from_i64(2)),
        };
        let ServerMsg::PushValue {
            version,
            source,
            read,
        } = round_trip(&msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(version, Timestamp::from_raw(8));
        assert_eq!(source, Key::from("src"));
        assert_eq!(read.value, Some(Value::from_i64(2)));
    }

    #[test]
    fn ship_batch_round_trip_delivers_watermark_ack() {
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::ShipBatch {
            from: PartitionId(3),
            watermark: Timestamp::from_raw(77),
            frames: Arc::new(vec![(5, vec![0xa, 0xb]), (77, vec![0xc])]),
            reply: slot,
        };
        let ServerMsg::ShipBatch {
            from,
            watermark,
            frames,
            reply,
        } = round_trip(&msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(from, PartitionId(3));
        assert_eq!(watermark, Timestamp::from_raw(77));
        assert_eq!(*frames, vec![(5, vec![0xa, 0xb]), (77, vec![0xc])]);

        // The standby's watermark ack routes back through the correlation
        // table into the primary's handle.
        reply.send(Timestamp::from_raw(77));
        assert_eq!(handle.wait().expect("ack"), Timestamp::from_raw(77));
    }

    #[test]
    fn ship_batch_flush_barrier_round_trips_empty() {
        let (slot, _handle) = reply_pair();
        let msg = ServerMsg::ShipBatch {
            from: PartitionId(0),
            watermark: Timestamp::ZERO,
            frames: Arc::new(Vec::new()),
            reply: slot,
        };
        let ServerMsg::ShipBatch { frames, .. } = round_trip(&msg) else {
            panic!("wrong variant");
        };
        assert!(frames.is_empty());
    }

    #[test]
    fn error_codec_round_trips_every_variant() {
        let errors = vec![
            Error::Codec("bad".into()),
            Error::Disconnected("gone".into()),
            Error::NoSuchPartition(PartitionId(4)),
            Error::UnknownProgram(11),
            Error::UnknownHandler(12),
            Error::VersionOutsideEpoch {
                version: Timestamp::from_raw(5),
                valid_from: Timestamp::from_raw(1),
                valid_until: Timestamp::from_raw(4),
            },
            Error::KeyNotFound(Key::from("missing")),
            Error::Rejected {
                txn: TxnId(99),
                reason: "malformed".into(),
            },
            Error::Overloaded {
                retry_after: Duration::from_micros(1_500),
            },
            Error::Io("disk".into()),
            Error::ShuttingDown,
            Error::Config("bad knob".into()),
            Error::Timeout("slow".into()),
        ];
        for e in errors {
            let mut w = Writer::new();
            encode_error(&e, &mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_error(&mut r).expect("decode"), e, "variant {e:?}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn rejects_garbage() {
        let (_pending, replier) = loopback();
        // Unknown tag.
        assert!(ServerMsgCodec
            .decode(&Bytes::from_static(&[0xEE]), &replier)
            .is_err());
        // Retired tags stay undecodable, even with a plausible body (an
        // empty count for the old batch envelope, tag 11).
        for tag in [10, 11] {
            assert!(ServerMsgCodec
                .decode(&Bytes::copy_from_slice(&[tag, 0, 0, 0, 0]), &replier)
                .is_err());
        }
        // Truncated Grant.
        assert!(ServerMsgCodec
            .decode(&Bytes::from_static(&[TAG_GRANT, 0, 0]), &replier)
            .is_err());
        // Trailing bytes.
        assert!(ServerMsgCodec
            .decode(&Bytes::from_static(&[TAG_SHUTDOWN, 0xFF]), &replier)
            .is_err());
        // Empty input.
        assert!(ServerMsgCodec.decode(&Bytes::new(), &replier).is_err());
    }

    /// The zero-copy contract: keys and values decoded out of a frame are
    /// windows of the frame's allocation, not per-field copies.
    #[test]
    fn decoded_keys_and_values_borrow_the_frame() {
        let (pending, replier) = loopback();
        let msg = ServerMsg::PushValue {
            version: Timestamp::from_raw(8),
            source: Key::from("a-key-long-enough-to-matter"),
            read: VersionedRead::found(
                Timestamp::from_raw(6),
                Value::new(b"payload bytes worth not copying".to_vec()),
            ),
        };
        let mut bytes = Vec::new();
        ServerMsgCodec.encode(&msg, &pending, &mut bytes).unwrap();
        let frame = Bytes::from(bytes);
        let ServerMsg::PushValue { source, read, .. } =
            ServerMsgCodec.decode(&frame, &replier).unwrap()
        else {
            panic!("wrong variant");
        };
        let base = frame.as_ref().as_ptr() as usize;
        let end = base + frame.len();
        let key_ptr = source.as_bytes().as_ptr() as usize;
        assert!(
            key_ptr >= base && key_ptr + source.len() <= end,
            "decoded key must point into the frame"
        );
        let value = read.value.expect("found");
        let val_ptr = value.as_bytes().as_ptr() as usize;
        assert!(
            val_ptr >= base && val_ptr + value.len() <= end,
            "decoded value must point into the frame"
        );
    }

    #[test]
    fn short_decoded_keys_and_values_do_not_pin_the_frame() {
        let (pending, replier) = loopback();
        let msg = ServerMsg::PushValue {
            version: Timestamp::from_raw(8),
            source: Key::from("short-key"),
            read: VersionedRead::found(Timestamp::from_raw(6), Value::from_i64(42)),
        };
        let mut bytes = Vec::new();
        ServerMsgCodec.encode(&msg, &pending, &mut bytes).unwrap();
        let frame = Bytes::from(bytes);
        let ServerMsg::PushValue { source, read, .. } =
            ServerMsgCodec.decode(&frame, &replier).unwrap()
        else {
            panic!("wrong variant");
        };
        let base = frame.as_ref().as_ptr() as usize;
        let end = base + frame.len();
        let inside = |bytes: &[u8]| {
            let ptr = bytes.as_ptr() as usize;
            ptr >= base && ptr < end
        };
        assert_eq!(source, Key::from("short-key"));
        assert!(
            !inside(source.as_bytes()),
            "short key must not point into the frame"
        );
        let value = read.value.expect("found");
        assert_eq!(value.as_i64(), Some(42));
        assert!(
            !inside(value.as_bytes()),
            "short value must not point into the frame"
        );
    }

    #[test]
    fn duplicate_reply_is_ignored() {
        let (pending, replier) = loopback();
        let (slot, handle) = reply_pair();
        let msg = ServerMsg::AbortVersion {
            keys: Arc::new(vec![(Key::from("k"), Timestamp::from_raw(1))]),
            reply: slot,
        };
        let mut bytes = Vec::new();
        ServerMsgCodec.encode(&msg, &pending, &mut bytes).unwrap();
        let bytes = Bytes::from(bytes);
        let ServerMsg::AbortVersion { reply, .. } =
            ServerMsgCodec.decode(&bytes, &replier).unwrap()
        else {
            panic!("wrong variant");
        };
        // A fault-layer duplicate decodes to a second slot with the same
        // correlation id; only the first completion lands.
        let ServerMsg::AbortVersion { reply: dup, .. } =
            ServerMsgCodec.decode(&bytes, &replier).unwrap()
        else {
            panic!("wrong variant");
        };
        reply.send(());
        dup.send(());
        handle.wait().expect("first ack");
        assert_eq!(pending.outstanding(), 0);
    }
}
