//! The f-type / f-argument representation of functors (Table I).

use std::fmt;

use aloha_common::{Key, Value};
use bytes::Bytes;

/// Identifier of a registered user-defined functor handler.
///
/// The f-type of a user-defined functor "indicates which handler to call for
/// computing the functor" (§IV-B); this id is that indication.
///
/// # Examples
///
/// ```
/// use aloha_functor::HandlerId;
/// assert_eq!(HandlerId(3).0, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub u32);

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A user-defined functor: handler id, functor read set, argument blob and
/// recipient set (§IV-B).
///
/// * `read_set` — the keys whose latest values *below the functor's version*
///   the handler needs; the computing phase gathers them (locally or
///   remotely) before invoking the handler.
/// * `args` — an opaque argument blob interpreted by the handler.
/// * `recipient_set` — keys whose functors (of the same transaction) read
///   *this* functor's key: the proactive remote-read push optimization. Empty
///   when the optimization is off; never required for correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserFunctor {
    /// Which registered handler computes this functor.
    pub handler: HandlerId,
    /// Keys read by the handler (at versions strictly below the functor's).
    pub read_set: Vec<Key>,
    /// Opaque argument blob for the handler.
    pub args: Bytes,
    /// Keys to proactively push this key's pre-version value to.
    pub recipient_set: Vec<Key>,
}

impl UserFunctor {
    /// Creates a user functor with no recipient set.
    pub fn new(handler: HandlerId, read_set: Vec<Key>, args: impl Into<Bytes>) -> UserFunctor {
        UserFunctor {
            handler,
            read_set,
            args: args.into(),
            recipient_set: Vec::new(),
        }
    }

    /// Adds a recipient set (proactive push optimization).
    pub fn with_recipients(mut self, recipients: Vec<Key>) -> UserFunctor {
        self.recipient_set = recipients;
        self
    }
}

/// A functor: a placeholder for the value of one key at one version.
///
/// The first three variants are *final* — they need no computing phase and
/// can never change again. The numeric variants read only the previous
/// version of their own key ("the read set comprises only the key to which
/// the functor was written", §IV-B). `User` functors call a registered
/// [`crate::Handler`].
///
/// # Examples
///
/// ```
/// use aloha_common::Value;
/// use aloha_functor::Functor;
///
/// assert!(Functor::Value(Value::from_i64(1)).is_final());
/// assert!(Functor::Aborted.is_final());
/// assert!(!Functor::add(5).is_final());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Functor {
    /// `VALUE` — the f-argument *is* the value; no computing needed.
    Value(Value),
    /// `ABORTED` — this version is aborted; reads skip it (Alg 1 line 22).
    Aborted,
    /// `DELETED` — tombstone: the key is deleted as of this version.
    Deleted,
    /// `ADD` — increment previous numeric value by the argument.
    Add(i64),
    /// `SUBTR` — decrement previous numeric value by the argument.
    Subtr(i64),
    /// `MAX` — replace previous value if the argument is larger.
    Max(i64),
    /// `MIN` — replace previous value if the argument is smaller.
    Min(i64),
    /// User-defined f-type dispatched through the handler registry.
    User(UserFunctor),
}

impl Functor {
    /// Shorthand for an `ADD` functor.
    pub fn add(delta: i64) -> Functor {
        Functor::Add(delta)
    }

    /// Shorthand for a `SUBTR` functor.
    pub fn subtr(delta: i64) -> Functor {
        Functor::Subtr(delta)
    }

    /// Shorthand for a `VALUE` functor holding an i64.
    pub fn value_i64(v: i64) -> Functor {
        Functor::Value(Value::from_i64(v))
    }

    /// Whether this functor is already in final form (`VALUE`, `ABORTED` or
    /// `DELETED`) and therefore needs no computing phase.
    pub fn is_final(&self) -> bool {
        matches!(
            self,
            Functor::Value(_) | Functor::Aborted | Functor::Deleted
        )
    }

    /// Whether this functor requires the computing phase.
    pub fn needs_compute(&self) -> bool {
        !self.is_final()
    }

    /// The read set of this functor *excluding* the implicit self-read of the
    /// numeric f-types. Numeric functors return an empty slice because "the
    /// read set comprises only the key to which the functor was written, in
    /// which case the read set is omitted" (§IV-B).
    pub fn external_read_set(&self) -> &[Key] {
        match self {
            Functor::User(u) => &u.read_set,
            _ => &[],
        }
    }

    /// The recipient set for the proactive-push optimization (empty unless
    /// this is a user functor configured with one).
    pub fn recipient_set(&self) -> &[Key] {
        match self {
            Functor::User(u) => &u.recipient_set,
            _ => &[],
        }
    }

    /// Heap bytes held by this functor beyond its own struct (memory
    /// accounting): numeric deltas and inline values and keys count 0; a
    /// user functor counts its argument blob, its key vectors and their
    /// keys' heap payloads.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Functor::Value(v) => v.heap_bytes(),
            Functor::User(u) => {
                u.args.len()
                    + (u.read_set.capacity() + u.recipient_set.capacity())
                        * std::mem::size_of::<Key>()
                    + u.read_set
                        .iter()
                        .chain(&u.recipient_set)
                        .map(Key::heap_bytes)
                        .sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Human-readable f-type name, as in Table I.
    pub fn ftype_name(&self) -> &'static str {
        match self {
            Functor::Value(_) => "VALUE",
            Functor::Aborted => "ABORTED",
            Functor::Deleted => "DELETED",
            Functor::Add(_) => "ADD",
            Functor::Subtr(_) => "SUBTR",
            Functor::Max(_) => "MAX",
            Functor::Min(_) => "MIN",
            Functor::User(_) => "user-defined",
        }
    }
}

impl fmt::Display for Functor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Functor::Value(v) => write!(f, "VALUE({v:?})"),
            Functor::Aborted => write!(f, "ABORTED"),
            Functor::Deleted => write!(f, "DELETED"),
            Functor::Add(d) => write!(f, "ADD({d})"),
            Functor::Subtr(d) => write!(f, "SUBTR({d})"),
            Functor::Max(d) => write!(f, "MAX({d})"),
            Functor::Min(d) => write!(f, "MIN({d})"),
            Functor::User(u) => {
                write!(
                    f,
                    "USER({}, reads={}, args={}B)",
                    u.handler,
                    u.read_set.len(),
                    u.args.len()
                )
            }
        }
    }
}

impl From<Value> for Functor {
    fn from(v: Value) -> Functor {
        Functor::Value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finality_matches_table_one() {
        assert!(Functor::Value(Value::from_i64(0)).is_final());
        assert!(Functor::Aborted.is_final());
        assert!(Functor::Deleted.is_final());
        for f in [
            Functor::Add(1),
            Functor::Subtr(1),
            Functor::Max(1),
            Functor::Min(1),
        ] {
            assert!(f.needs_compute(), "{f} must need compute");
        }
        let user = Functor::User(UserFunctor::new(HandlerId(1), vec![], Bytes::new()));
        assert!(user.needs_compute());
    }

    #[test]
    fn numeric_read_set_is_implicit() {
        assert!(Functor::Add(1).external_read_set().is_empty());
        assert!(Functor::Max(9).external_read_set().is_empty());
    }

    #[test]
    fn user_read_and_recipient_sets_round_trip() {
        let k1 = Key::from("a");
        let k2 = Key::from("b");
        let u = UserFunctor::new(HandlerId(7), vec![k1.clone()], Bytes::from_static(b"x"))
            .with_recipients(vec![k2.clone()]);
        let f = Functor::User(u);
        assert_eq!(f.external_read_set(), &[k1]);
        assert_eq!(f.recipient_set(), &[k2]);
    }

    #[test]
    fn ftype_names_match_paper() {
        assert_eq!(Functor::Value(Value::default()).ftype_name(), "VALUE");
        assert_eq!(Functor::Aborted.ftype_name(), "ABORTED");
        assert_eq!(Functor::Deleted.ftype_name(), "DELETED");
        assert_eq!(Functor::Add(0).ftype_name(), "ADD");
        assert_eq!(Functor::Subtr(0).ftype_name(), "SUBTR");
        assert_eq!(Functor::Max(0).ftype_name(), "MAX");
        assert_eq!(Functor::Min(0).ftype_name(), "MIN");
    }

    #[test]
    fn display_is_informative() {
        let s = Functor::add(42).to_string();
        assert!(s.contains("ADD") && s.contains("42"));
    }

    #[test]
    fn value_conversion() {
        let f: Functor = Value::from_i64(3).into();
        assert!(matches!(f, Functor::Value(v) if v.as_i64() == Some(3)));
    }
}
