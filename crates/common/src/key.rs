//! Keys and values of the hash-partitioned key-functor store.
//!
//! Both types share one private representation: a payload of up to 23
//! bytes is stored inline, in the space a shared [`Bytes`] window would
//! take, and a longer one is a window of a reference-counted buffer. Almost
//! every stored key and numeric value is short, so a row in the store costs
//! no allocation for either; a long payload decoded from a wire frame stays
//! a zero-copy window of that frame.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;

use crate::ids::PartitionId;

/// Payload bytes stored inline: what fits in a shared window's size beside
/// the one-byte length, less the pointer word that tells the two forms
/// apart (a shared window's buffer pointer is never null).
const INLINE_CAP: usize = std::mem::size_of::<Bytes>() - std::mem::size_of::<usize>() - 1;

/// Inline or shared storage for the bytes of a [`Key`] or [`Value`].
/// Equality, ordering and hashing are all defined on the bytes, so two
/// payloads with the same bytes are interchangeable whichever form holds
/// them.
#[derive(Clone)]
enum Payload {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Bytes),
}

// The inline form must not make keys or values any larger than the shared
// window they replace.
const _: () = assert!(std::mem::size_of::<Payload>() == std::mem::size_of::<Bytes>());
const _: () = assert!(std::mem::size_of::<Key>() == 32 && std::mem::size_of::<Value>() == 32);

impl Payload {
    /// Copies `bytes` inline if they fit, else into a new shared buffer.
    fn copy(bytes: &[u8]) -> Payload {
        if bytes.len() > INLINE_CAP {
            return Payload::Shared(Bytes::copy_from_slice(bytes));
        }
        let mut buf = [0; INLINE_CAP];
        buf[..bytes.len()].copy_from_slice(bytes);
        Payload::Inline {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// Takes an owned buffer, copying it inline if it fits.
    fn from_vec(bytes: Vec<u8>) -> Payload {
        if bytes.len() > INLINE_CAP {
            Payload::Shared(Bytes::from(bytes))
        } else {
            Payload::copy(&bytes)
        }
    }

    /// Keeps a long window shared (zero-copy); copies a short one inline so
    /// it does not pin the buffer it was cut from.
    fn from_bytes(bytes: Bytes) -> Payload {
        if bytes.len() > INLINE_CAP {
            Payload::Shared(bytes)
        } else {
            Payload::copy(&bytes)
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline { len, buf } => &buf[..usize::from(*len)],
            Payload::Shared(bytes) => bytes,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Payload::Inline { .. } => 0,
            Payload::Shared(bytes) => bytes.len(),
        }
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::copy(&[])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Payload) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Payload) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// An opaque binary key in the distributed table.
///
/// ALOHA-DB stores key-functor pairs in a hash-partitioned table (§III-D).
/// Workloads encode composite keys (table id + primary-key fields) into the
/// byte payload; [`Key::from_parts`] provides an unambiguous length-prefixed
/// encoding for that purpose.
///
/// Keys are cheap to clone: a key of up to 23 bytes is stored inline and
/// copied with the struct, a longer one is a reference-counted [`Bytes`]
/// window.
///
/// # Examples
///
/// ```
/// use aloha_common::Key;
///
/// let a = Key::from_parts(&[b"stock", &1u32.to_be_bytes()]);
/// let b = Key::from_parts(&[b"stock", &1u32.to_be_bytes()]);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Key(Payload);

impl Key {
    /// Creates a key from raw bytes.
    pub fn new(bytes: impl Into<Bytes>) -> Key {
        Key(Payload::from_bytes(bytes.into()))
    }

    /// Builds a composite key from parts using a length-prefixed encoding, so
    /// `["ab","c"]` and `["a","bc"]` yield different keys.
    pub fn from_parts(parts: &[&[u8]]) -> Key {
        let mut buf = Vec::with_capacity(parts.iter().map(|p| p.len() + 2).sum());
        for part in parts {
            Self::push_part(&mut buf, part);
        }
        Key(Payload::from_vec(buf))
    }

    /// Magic prefix marking a key with an explicit routing tag.
    const ROUTE_MAGIC: [u8; 2] = [0xff, 0xfe];

    /// Builds a composite key with an explicit *routing tag*: the key is
    /// placed on partition `route % partitions` instead of by hash.
    ///
    /// Workloads use routing tags to express placement policies such as
    /// TPC-C's partition-by-warehouse (all keys of warehouse *w* share route
    /// *w*) or the scaled TPC-C partition-by-item layout (§V-A1).
    pub fn with_route(route: u32, parts: &[&[u8]]) -> Key {
        let mut buf = Vec::with_capacity(6 + parts.iter().map(|p| p.len() + 2).sum::<usize>());
        buf.extend_from_slice(&Self::ROUTE_MAGIC);
        buf.extend_from_slice(&route.to_be_bytes());
        for part in parts {
            Self::push_part(&mut buf, part);
        }
        Key(Payload::from_vec(buf))
    }

    fn push_part(buf: &mut Vec<u8>, part: &[u8]) {
        let len = u16::try_from(part.len()).expect("key part longer than 64 KiB");
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(part);
    }

    /// The explicit routing tag, if this key carries one.
    pub fn route(&self) -> Option<u32> {
        let bytes = self.as_bytes();
        if bytes.len() >= 6 && bytes[..2] == Self::ROUTE_MAGIC {
            Some(u32::from_be_bytes(
                bytes[2..6].try_into().expect("checked length"),
            ))
        } else {
            None
        }
    }

    /// The composite parts of the key after any routing tag. Returns `None`
    /// if the key was not built with `from_parts`/`with_route` framing.
    pub fn parts(&self) -> Option<Vec<&[u8]>> {
        let mut rest: &[u8] = if self.route().is_some() {
            &self.as_bytes()[6..]
        } else {
            self.as_bytes()
        };
        let mut parts = Vec::new();
        while !rest.is_empty() {
            if rest.len() < 2 {
                return None;
            }
            let len = u16::from_be_bytes(rest[..2].try_into().expect("checked")) as usize;
            rest = &rest[2..];
            if rest.len() < len {
                return None;
            }
            parts.push(&rest[..len]);
            rest = &rest[len..];
        }
        Some(parts)
    }

    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Length of the key in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Payload bytes this key keeps on the heap: 0 for a key stored inline
    /// (memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// The partition that owns this key: `route % partitions` for routed
    /// keys, otherwise FNV-1a hash partitioning. The hash is stable across
    /// runs (important so that loader and transactions agree on placement)
    /// and fast for short keys.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn partition(&self, partitions: u16) -> PartitionId {
        assert!(partitions > 0, "cluster must have at least one partition");
        match self.route() {
            Some(route) => PartitionId((route % partitions as u32) as u16),
            None => PartitionId((self.fnv1a() % partitions as u64) as u16),
        }
    }

    /// A stable 64-bit hash of the key bytes (FNV-1a, the same function
    /// [`Key::partition`] uses). Run-to-run stability matters for anything
    /// that routes work by key — shard queues, cache shards — so that
    /// placement decisions reproduce under a fixed seed.
    pub fn stable_hash(&self) -> u64 {
        self.fnv1a()
    }

    fn fnv1a(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.as_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(")?;
        for &b in self.as_bytes().iter().take(24) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 24 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

impl From<&[u8]> for Key {
    fn from(bytes: &[u8]) -> Key {
        Key(Payload::copy(bytes))
    }
}

impl From<Vec<u8>> for Key {
    fn from(bytes: Vec<u8>) -> Key {
        Key(Payload::from_vec(bytes))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key(Payload::copy(s.as_bytes()))
    }
}

impl From<Bytes> for Key {
    fn from(bytes: Bytes) -> Key {
        Key(Payload::from_bytes(bytes))
    }
}

/// An opaque binary value: the "final form" of a functor (§III-D).
///
/// Stored like a [`Key`]: up to 23 bytes inline (every numeric value is),
/// longer values as a shared [`Bytes`] window.
///
/// # Examples
///
/// ```
/// use aloha_common::Value;
/// let v = Value::from_i64(150);
/// assert_eq!(v.as_i64(), Some(150));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Value(Payload);

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(bytes: impl Into<Bytes>) -> Value {
        Value(Payload::from_bytes(bytes.into()))
    }

    /// Encodes a signed 64-bit integer value (used by the numeric f-types
    /// ADD/SUBTR/MAX/MIN and by the microbenchmark counters).
    pub fn from_i64(v: i64) -> Value {
        Value(Payload::copy(&v.to_be_bytes()))
    }

    /// Decodes the value as a signed 64-bit integer, if it is exactly 8 bytes.
    pub fn as_i64(&self) -> Option<i64> {
        let arr: [u8; 8] = self.as_bytes().try_into().ok()?;
        Some(i64::from_be_bytes(arr))
    }

    /// Returns the raw value bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Payload bytes this value keeps on the heap: 0 for a value stored
    /// inline (memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(i) = self.as_i64() {
            write!(f, "Value(i64:{i})")
        } else {
            write!(f, "Value({} bytes)", self.len())
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Value {
        Value(Payload::from_vec(bytes))
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Value {
        Value(Payload::copy(bytes))
    }
}

impl From<Bytes> for Value {
    fn from(bytes: Bytes) -> Value {
        Value(Payload::from_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_is_injective_on_boundaries() {
        let a = Key::from_parts(&[b"ab", b"c"]);
        let b = Key::from_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for i in 0..100u32 {
            let k = Key::from_parts(&[b"item", &i.to_be_bytes()]);
            let p = k.partition(7);
            assert_eq!(p, k.partition(7), "same key must map to same partition");
            assert!(p.index() < 7);
        }
    }

    #[test]
    fn partition_spreads_keys() {
        let mut seen = [false; 8];
        for i in 0..256u32 {
            let k = Key::from_parts(&[b"k", &i.to_be_bytes()]);
            seen[k.partition(8).index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "256 keys should hit all 8 partitions"
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = Key::from("x").partition(0);
    }

    #[test]
    fn value_i64_round_trips() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(Value::from_i64(v).as_i64(), Some(v));
        }
    }

    #[test]
    fn value_as_i64_rejects_wrong_width() {
        assert_eq!(Value::new(vec![1, 2, 3]).as_i64(), None);
    }

    #[test]
    fn routed_keys_follow_route_tag() {
        for total in [1u16, 3, 8] {
            for route in [0u32, 1, 7, 1000] {
                let k = Key::with_route(route, &[b"t", b"x"]);
                assert_eq!(k.partition(total).0 as u32, route % total as u32);
                assert_eq!(k.route(), Some(route));
            }
        }
    }

    #[test]
    fn unrouted_keys_have_no_route() {
        assert_eq!(Key::from_parts(&[b"a"]).route(), None);
        assert_eq!(Key::from("plain").route(), None);
    }

    #[test]
    fn routed_keys_with_same_parts_different_routes_differ() {
        let a = Key::with_route(1, &[b"t", b"x"]);
        let b = Key::with_route(2, &[b"t", b"x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn parts_round_trip_with_and_without_route() {
        let k = Key::with_route(9, &[b"tab", b"\x01\x02"]);
        assert_eq!(
            k.parts().unwrap(),
            vec![b"tab".as_slice(), b"\x01\x02".as_slice()]
        );
        let p = Key::from_parts(&[b"a", b"", b"bc"]);
        assert_eq!(
            p.parts().unwrap(),
            vec![b"a".as_slice(), b"".as_slice(), b"bc".as_slice()]
        );
    }

    #[test]
    fn malformed_parts_return_none() {
        // A raw key whose framing is broken (length prefix points past end).
        let k = Key::new(vec![0x00, 0xff, 0x01]);
        assert!(k.parts().is_none());
    }

    /// Reference FNV-1a over a plain byte slice.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
    }

    fn std_hash(value: &(impl Hash + ?Sized)) -> u64 {
        let mut state = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut state);
        state.finish()
    }

    /// `len` distinct-looking bytes, and a window over them cut from the
    /// middle of a larger buffer.
    fn payload(len: usize) -> (Vec<u8>, Bytes) {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
        let mut backing = vec![0xaa; 5];
        backing.extend_from_slice(&bytes);
        backing.extend_from_slice(&[0xbb; 3]);
        (bytes, Bytes::from(backing).slice(5..5 + len))
    }

    fn points_into(bytes: &[u8], buffer: &Bytes) -> bool {
        let base = buffer.as_ref().as_ptr() as usize;
        let ptr = bytes.as_ptr() as usize;
        ptr >= base && ptr + bytes.len() <= base + buffer.len()
    }

    #[test]
    fn keys_agree_with_their_bytes_across_the_inline_boundary() {
        let mut all: Vec<(Key, Vec<u8>)> = Vec::new();
        for len in 0..64 {
            let (bytes, window) = payload(len);
            let mut framed = (len as u16).to_be_bytes().to_vec();
            framed.extend_from_slice(&bytes);
            let mut routed = vec![0xff, 0xfe, 0, 0, 0, 9];
            routed.extend_from_slice(&framed);
            let built = [
                (Key::from(&bytes[..]), bytes.clone()),
                (Key::from(bytes.clone()), bytes.clone()),
                (Key::new(window.clone()), bytes.clone()),
                (Key::from(window.clone()), bytes.clone()),
                (Key::from_parts(&[&bytes]), framed),
                (Key::with_route(9, &[&bytes]), routed),
            ];
            for (key, expected) in built {
                assert_eq!(key.as_bytes(), &expected[..], "len {len}");
                assert_eq!(key.len(), expected.len());
                assert_eq!(key, Key::from(&expected[..]));
                assert_eq!(std_hash(&key), std_hash(&expected[..]));
                assert_eq!(key.stable_hash(), fnv1a(&expected));
                let by_hash = PartitionId((fnv1a(&expected) % 7) as u16);
                let placed = key.route().map_or(by_hash, |r| PartitionId((r % 7) as u16));
                assert_eq!(key.partition(7), placed);
                assert_eq!(key.heap_bytes() == 0, expected.len() <= INLINE_CAP);
                all.push((key, expected));
            }
            // A short key copied out of a larger buffer does not pin it; a
            // long one stays a zero-copy window.
            let from_window = Key::new(window.clone());
            assert_eq!(
                points_into(from_window.as_bytes(), &window),
                len > INLINE_CAP
            );
        }
        for (a, a_bytes) in &all {
            for (b, b_bytes) in &all {
                assert_eq!(a.cmp(b), a_bytes.cmp(b_bytes));
                assert_eq!(a == b, a_bytes == b_bytes);
            }
        }
    }

    #[test]
    fn values_agree_with_their_bytes_across_the_inline_boundary() {
        for len in 0..64 {
            let (bytes, window) = payload(len);
            let built = [
                Value::from(&bytes[..]),
                Value::from(bytes.clone()),
                Value::new(window.clone()),
                Value::from(window.clone()),
            ];
            for value in &built {
                assert_eq!(value.as_bytes(), &bytes[..], "len {len}");
                assert_eq!(value.len(), len);
                assert_eq!(value, &built[0]);
                assert_eq!(value.heap_bytes() == 0, len <= INLINE_CAP);
            }
            assert_ne!(built[0], Value::from(&[&bytes[..], &[0]].concat()[..]));
            assert_eq!(points_into(built[2].as_bytes(), &window), len > INLINE_CAP);
        }
        assert_eq!(Value::from_i64(-7).heap_bytes(), 0);
        assert_eq!(Value::default(), Value::from(&[][..]));
    }

    #[test]
    fn key_debug_is_printable() {
        let k = Key::from_parts(&[b"w", &[0xff]]);
        let dbg = format!("{k:?}");
        assert!(dbg.starts_with("Key(") && dbg.contains("\\xff"), "{dbg}");
    }
}
