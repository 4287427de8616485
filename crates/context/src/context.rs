//! The `Context` type: a single piece of environmental information.

use crate::state::ContextState;
use crate::time::{Lifespan, LogicalTime};
use crate::value::ContextValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Unique identifier of a context within a pool.
///
/// Ids are assigned by [`crate::ContextPool::insert`] in arrival order, so
/// a larger id means a later context — the ordering the drop-latest
/// strategy relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContextId(u64);

impl ContextId {
    /// Creates an id from a raw index. Mostly useful in tests; pools
    /// assign ids themselves.
    pub const fn from_raw(raw: u64) -> Self {
        ContextId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// The kind (type) of a context: `"location"`, `"rfid_read"`, ….
///
/// Kinds name the quantification domains of consistency constraints:
/// `forall x : location . …` ranges over the pool's live contexts of kind
/// `location`. Kinds are cheap to clone (shared string).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextKind(Arc<str>);

impl ContextKind {
    /// Creates a kind with the given name.
    pub fn new(name: &str) -> Self {
        ContextKind(Arc::from(name))
    }

    /// The kind's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Shared handle to the kind's name, so observers can intern it
    /// into events without re-allocating per context.
    pub fn name_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl fmt::Display for ContextKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ContextKind {
    fn from(name: &str) -> Self {
        ContextKind::new(name)
    }
}

impl Serialize for ContextKind {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.0)
    }
}

impl<'de> Deserialize<'de> for ContextKind {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(ContextKind::new(&s))
    }
}

/// Identifier of the context source that produced a context (a sensor, an
/// RFID reader, a reasoning program).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src#{}", self.0)
    }
}

/// Ground-truth tag attached by workload generators (paper §3.4).
///
/// Whether a context is *corrupted* or *expected* "is unknown to any
/// practical resolution strategy in advance" — only the artificial OPT-R
/// oracle and the metrics pipeline may look at this tag. Practical
/// strategies must not read it; keeping it on the context (rather than in
/// a side table) makes the oracle and the ground-truth ledger trivial
/// while the type system cannot enforce the discipline, reviews can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TruthTag {
    /// The context reflects the real environment.
    #[default]
    Expected,
    /// The context is incorrect and should ideally be identified as
    /// inconsistent.
    Corrupted,
}

impl TruthTag {
    /// Whether this tag marks a corrupted context.
    pub fn is_corrupted(self) -> bool {
        matches!(self, TruthTag::Corrupted)
    }
}

/// The attribute holding a context's position in its source's stream:
/// the one the `seq_gap`/`seq_gap_le` predicates compare, and the one
/// the pool keeps subject buckets ordered by (see
/// [`crate::ContextPool::of_subject_seq_live_at`]).
pub const SEQ_ATTR: &str = "seq";

/// A single context: one piece of information about the environment.
///
/// Construct with [`Context::builder`]. A context is a 16-byte handle:
/// a shared, immutable body (kind, subject, attributes, stamp,
/// lifespan, source, truth) plus the handle's own [`ContextState`].
/// [`Clone`] bumps the body's reference count and copies the state, so
/// every pool holding a context — the strategy pool and the
/// ground-truth pool alike — shares one body, and a state change moves
/// only the handle it is made on. The attributes are one slice sorted
/// by name: a lookup scans it, and [`Context::attrs`], the `Debug` form
/// and the serialized form list them in name order.
///
/// ```
/// use ctxres_context::{Context, ContextKind, LogicalTime, Point};
///
/// let c = Context::builder(ContextKind::new("location"), "peter")
///     .attr("pos", Point::new(3.0, 4.0))
///     .stamp(LogicalTime::new(7))
///     .build();
/// assert_eq!(c.subject(), "peter");
/// assert_eq!(c.point("pos"), Some(Point::new(3.0, 4.0)));
/// ```
#[derive(Clone)]
pub struct Context {
    body: Arc<Body>,
    state: ContextState,
}

/// The immutable part of a [`Context`], shared by all its clones.
#[derive(PartialEq)]
struct Body {
    kind: ContextKind,
    subject: Arc<str>,
    /// Sorted by name; each name once.
    attrs: Box<[(Box<str>, ContextValue)]>,
    stamp: LogicalTime,
    lifespan: Lifespan,
    source: SourceId,
    truth: TruthTag,
}

impl Context {
    /// Starts building a context of the given kind about `subject`.
    pub fn builder(kind: ContextKind, subject: &str) -> ContextBuilder {
        ContextBuilder {
            kind,
            subject: Arc::from(subject),
            attrs: Vec::new(),
            stamp: LogicalTime::ZERO,
            lifespan: None,
            source: SourceId::default(),
            truth: TruthTag::Expected,
        }
    }

    /// The context's kind.
    pub fn kind(&self) -> &ContextKind {
        &self.body.kind
    }

    /// The entity the context is about (a person, a tag, a room).
    pub fn subject(&self) -> &str {
        &self.body.subject
    }

    /// Shared handle to the subject string, so indexes, batch grouping,
    /// and event fields can key on it without re-allocating.
    pub fn subject_arc(&self) -> &Arc<str> {
        &self.body.subject
    }

    /// Looks up an attribute value.
    pub fn attr(&self, name: &str) -> Option<&ContextValue> {
        self.body
            .attrs
            .iter()
            .find(|(n, _)| **n == *name)
            .map(|(_, v)| v)
    }

    /// All attributes, in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &ContextValue)> {
        self.body.attrs.iter().map(|(n, v)| (&**n, v))
    }

    /// Convenience accessor for a numeric attribute.
    pub fn number(&self, name: &str) -> Option<f64> {
        self.attr(name).and_then(ContextValue::as_f64)
    }

    /// Convenience accessor for a text attribute.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.attr(name).and_then(ContextValue::as_text)
    }

    /// Convenience accessor for a point attribute.
    pub fn point(&self, name: &str) -> Option<crate::value::Point> {
        self.attr(name).and_then(ContextValue::as_point)
    }

    /// The context's [`SEQ_ATTR`] when it is an integer with
    /// `|seq| < 2^52`: below that bound every seq and every difference
    /// of two seqs is an exact `f64`, so the `seq_gap` predicates'
    /// float arithmetic agrees with integer arithmetic on it. `None`
    /// for a missing, float or larger seq.
    pub fn exact_seq(&self) -> Option<i64> {
        match self.attr(SEQ_ATTR)? {
            ContextValue::Int(seq) if seq.unsigned_abs() < 1 << 52 => Some(*seq),
            _ => None,
        }
    }

    /// The logical instant the context was produced.
    pub fn stamp(&self) -> LogicalTime {
        self.body.stamp
    }

    /// The context's available period.
    pub fn lifespan(&self) -> Lifespan {
        self.body.lifespan
    }

    /// Whether the context is still live at `now`.
    pub fn is_live(&self, now: LogicalTime) -> bool {
        self.body.lifespan.is_live(now)
    }

    /// The source that produced the context.
    pub fn source(&self) -> SourceId {
        self.body.source
    }

    /// Ground-truth tag — for oracles and metrics only; see [`TruthTag`].
    pub fn truth(&self) -> TruthTag {
        self.body.truth
    }

    /// Current life-cycle state.
    pub fn state(&self) -> ContextState {
        self.state
    }

    /// Moves the context to `next`, enforcing the Fig. 8 life cycle.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ContextError::IllegalTransition`] when the
    /// transition is not allowed.
    pub fn set_state(&mut self, next: ContextState) -> Result<(), crate::ContextError> {
        self.state = self.state.transition(next)?;
        Ok(())
    }

    pub(crate) fn force_state(&mut self, next: ContextState) {
        self.state = next;
    }
}

impl PartialEq for Context {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body && self.state == other.state
    }
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The attributes as a map, the form an ordered map prints.
        struct Attrs<'a>(&'a [(Box<str>, ContextValue)]);
        impl fmt::Debug for Attrs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(n, v)| (n, v)))
                    .finish()
            }
        }
        let body = &*self.body;
        f.debug_struct("Context")
            .field("kind", &body.kind)
            .field("subject", &body.subject)
            .field("attrs", &Attrs(&body.attrs))
            .field("stamp", &body.stamp)
            .field("lifespan", &body.lifespan)
            .field("source", &body.source)
            .field("truth", &body.truth)
            .field("state", &self.state)
            .finish()
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]@{} ({})",
            self.body.kind, self.body.subject, self.body.stamp, self.state
        )
    }
}

/// A [`Context`]'s serialized form: its fields in wire order, the
/// attributes as a name-ordered map.
#[derive(Serialize, Deserialize)]
struct Wire {
    kind: ContextKind,
    subject: Arc<str>,
    attrs: BTreeMap<String, ContextValue>,
    stamp: LogicalTime,
    lifespan: Lifespan,
    source: SourceId,
    truth: TruthTag,
    state: ContextState,
}

impl Serialize for Context {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let body = &*self.body;
        Wire {
            kind: body.kind.clone(),
            subject: Arc::clone(&body.subject),
            attrs: self
                .attrs()
                .map(|(n, v)| (n.to_owned(), v.clone()))
                .collect(),
            stamp: body.stamp,
            lifespan: body.lifespan,
            source: body.source,
            truth: body.truth,
            state: self.state,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Context {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = Wire::deserialize(deserializer)?;
        Ok(Context {
            body: Arc::new(Body {
                kind: wire.kind,
                subject: wire.subject,
                attrs: wire
                    .attrs
                    .into_iter()
                    .map(|(n, v)| (n.into_boxed_str(), v))
                    .collect(),
                stamp: wire.stamp,
                lifespan: wire.lifespan,
                source: wire.source,
                truth: wire.truth,
            }),
            state: wire.state,
        })
    }
}

/// Builder for [`Context`] values (non-consuming terminal `build`).
#[derive(Debug, Clone)]
pub struct ContextBuilder {
    kind: ContextKind,
    subject: Arc<str>,
    /// Sorted by name; each name once.
    attrs: Vec<(Box<str>, ContextValue)>,
    stamp: LogicalTime,
    lifespan: Option<Lifespan>,
    source: SourceId,
    truth: TruthTag,
}

impl ContextBuilder {
    /// Adds an attribute; a name given again replaces its value.
    pub fn attr(mut self, name: &str, value: impl Into<ContextValue>) -> Self {
        let value = value.into();
        match self.attrs.binary_search_by(|(n, _)| (**n).cmp(name)) {
            Ok(at) => self.attrs[at].1 = value,
            Err(at) => self.attrs.insert(at, (Box::from(name), value)),
        }
        self
    }

    /// Sets the production instant. Also anchors the default lifespan.
    pub fn stamp(mut self, stamp: LogicalTime) -> Self {
        self.stamp = stamp;
        self
    }

    /// Sets an explicit lifespan (default: forever, anchored at `stamp`).
    pub fn lifespan(mut self, lifespan: Lifespan) -> Self {
        self.lifespan = Some(lifespan);
        self
    }

    /// Sets the producing source.
    pub fn source(mut self, source: SourceId) -> Self {
        self.source = source;
        self
    }

    /// Sets the ground-truth tag (workload generators only).
    pub fn truth(mut self, truth: TruthTag) -> Self {
        self.truth = truth;
        self
    }

    /// Finishes the context in the `Undecided` state.
    pub fn build(self) -> Context {
        let lifespan = self.lifespan.unwrap_or(Lifespan::forever(self.stamp));
        Context {
            body: Arc::new(Body {
                kind: self.kind,
                subject: self.subject,
                attrs: self.attrs.into_boxed_slice(),
                stamp: self.stamp,
                lifespan,
                source: self.source,
                truth: self.truth,
            }),
            state: ContextState::Undecided,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Ticks;
    use crate::value::Point;

    fn sample() -> Context {
        Context::builder(ContextKind::new("location"), "peter")
            .attr("pos", Point::new(1.0, 2.0))
            .attr("floor", 3i64)
            .stamp(LogicalTime::new(5))
            .source(SourceId(7))
            .build()
    }

    #[test]
    fn builder_sets_fields() {
        let c = sample();
        assert_eq!(c.kind().name(), "location");
        assert_eq!(c.subject(), "peter");
        assert_eq!(c.stamp(), LogicalTime::new(5));
        assert_eq!(c.source(), SourceId(7));
        assert_eq!(c.truth(), TruthTag::Expected);
        assert_eq!(c.state(), ContextState::Undecided);
        assert_eq!(c.number("floor"), Some(3.0));
    }

    #[test]
    fn default_lifespan_anchors_at_stamp_and_never_expires() {
        let c = sample();
        assert_eq!(c.lifespan().created(), LogicalTime::new(5));
        assert!(c.is_live(LogicalTime::new(1_000_000)));
    }

    #[test]
    fn explicit_lifespan_expires() {
        let c = Context::builder(ContextKind::new("temp"), "room-a")
            .stamp(LogicalTime::new(2))
            .lifespan(Lifespan::with_ttl(LogicalTime::new(2), Ticks::new(3)))
            .build();
        assert!(c.is_live(LogicalTime::new(4)));
        assert!(!c.is_live(LogicalTime::new(5)));
    }

    #[test]
    fn state_transition_enforced_on_context() {
        let mut c = sample();
        c.set_state(ContextState::Bad).unwrap();
        assert_eq!(c.state(), ContextState::Bad);
        assert!(c.set_state(ContextState::Consistent).is_err());
        c.set_state(ContextState::Inconsistent).unwrap();
        assert_eq!(c.state(), ContextState::Inconsistent);
    }

    #[test]
    fn corrupted_tag_round_trips() {
        let c = Context::builder(ContextKind::new("rfid"), "tag-1")
            .truth(TruthTag::Corrupted)
            .build();
        assert!(c.truth().is_corrupted());
    }

    #[test]
    fn kinds_compare_by_name() {
        assert_eq!(ContextKind::new("a"), ContextKind::from("a"));
        assert_ne!(ContextKind::new("a"), ContextKind::new("b"));
    }

    #[test]
    fn context_id_orders_by_arrival() {
        assert!(ContextId::from_raw(1) < ContextId::from_raw(2));
        assert_eq!(ContextId::from_raw(9).raw(), 9);
    }

    #[test]
    fn attrs_iterate_in_name_order() {
        let c = sample();
        let names: Vec<&str> = c.attrs().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["floor", "pos"]);
    }

    #[test]
    fn display_mentions_kind_subject_state() {
        let s = sample().to_string();
        assert!(s.contains("location"));
        assert!(s.contains("peter"));
        assert!(s.contains("undecided"));
    }

    #[test]
    fn a_context_is_a_shared_body_and_a_state() {
        assert_eq!(
            std::mem::size_of::<Context>(),
            2 * std::mem::size_of::<usize>()
        );
        let c = sample();
        let mut d = c.clone();
        d.set_state(ContextState::Bad).unwrap();
        assert!(Arc::ptr_eq(&c.body, &d.body));
        assert_eq!(
            (c.state(), d.state()),
            (ContextState::Undecided, ContextState::Bad)
        );
        assert_ne!(c, d);
    }

    #[test]
    fn builder_overwrites_duplicate_attr() {
        let c = Context::builder(ContextKind::new("t"), "s")
            .attr("v", 1i64)
            .attr("v", 2i64)
            .build();
        assert_eq!(c.number("v"), Some(2.0));
    }
}
