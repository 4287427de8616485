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
/// Construct with [`Context::builder`]. Attribute storage is an ordered
/// map so the `Debug`/serialized forms are deterministic.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Context {
    kind: ContextKind,
    subject: Arc<str>,
    attrs: BTreeMap<String, ContextValue>,
    stamp: LogicalTime,
    lifespan: Lifespan,
    source: SourceId,
    truth: TruthTag,
    state: ContextState,
}

impl Context {
    /// Starts building a context of the given kind about `subject`.
    pub fn builder(kind: ContextKind, subject: &str) -> ContextBuilder {
        ContextBuilder {
            kind,
            subject: Arc::from(subject),
            attrs: BTreeMap::new(),
            stamp: LogicalTime::ZERO,
            lifespan: None,
            source: SourceId::default(),
            truth: TruthTag::Expected,
        }
    }

    /// The context's kind.
    pub fn kind(&self) -> &ContextKind {
        &self.kind
    }

    /// The entity the context is about (a person, a tag, a room).
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Shared handle to the subject string, so indexes, batch grouping,
    /// and event fields can key on it without re-allocating.
    pub fn subject_arc(&self) -> &Arc<str> {
        &self.subject
    }

    /// Looks up an attribute value.
    pub fn attr(&self, name: &str) -> Option<&ContextValue> {
        self.attrs.get(name)
    }

    /// All attributes, in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &ContextValue)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
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
        self.stamp
    }

    /// The context's available period.
    pub fn lifespan(&self) -> Lifespan {
        self.lifespan
    }

    /// Whether the context is still live at `now`.
    pub fn is_live(&self, now: LogicalTime) -> bool {
        self.lifespan.is_live(now)
    }

    /// The source that produced the context.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Ground-truth tag — for oracles and metrics only; see [`TruthTag`].
    pub fn truth(&self) -> TruthTag {
        self.truth
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

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]@{} ({})",
            self.kind, self.subject, self.stamp, self.state
        )
    }
}

/// Builder for [`Context`] values (non-consuming terminal `build`).
#[derive(Debug, Clone)]
pub struct ContextBuilder {
    kind: ContextKind,
    subject: Arc<str>,
    attrs: BTreeMap<String, ContextValue>,
    stamp: LogicalTime,
    lifespan: Option<Lifespan>,
    source: SourceId,
    truth: TruthTag,
}

impl ContextBuilder {
    /// Adds an attribute.
    pub fn attr(mut self, name: &str, value: impl Into<ContextValue>) -> Self {
        self.attrs.insert(name.to_owned(), value.into());
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
            kind: self.kind,
            subject: self.subject,
            attrs: self.attrs,
            stamp: self.stamp,
            lifespan,
            source: self.source,
            truth: self.truth,
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
    fn builder_overwrites_duplicate_attr() {
        let c = Context::builder(ContextKind::new("t"), "s")
            .attr("v", 1i64)
            .attr("v", 2i64)
            .build();
        assert_eq!(c.number("v"), Some(2.0));
    }
}
