//! The set Δ of tracked context inconsistencies and the count function.

use crate::inconsistency::Inconsistency;
use ctxres_context::ContextId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The paper's `count` function: for every context participating in a
/// tracked inconsistency, how many tracked inconsistencies it
/// participates in (§3.2: `count: Δ → ℘(C × N)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountMap {
    counts: BTreeMap<ContextId, usize>,
}

impl CountMap {
    /// The count value of `id` (zero when untracked).
    pub fn get(&self, id: ContextId) -> usize {
        self.counts.get(&id).copied().unwrap_or(0)
    }

    /// Iterates over `(context, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (ContextId, usize)> + '_ {
        self.counts.iter().map(|(id, n)| (*id, *n))
    }

    /// Number of contexts with non-zero counts.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no context is tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    fn bump(&mut self, id: ContextId) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    fn drop_one(&mut self, id: ContextId) {
        if let Some(n) = self.counts.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&id);
            }
        }
    }
}

impl fmt::Display for CountMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (id, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "({id}, {n})")?;
        }
        f.write_str("}")
    }
}

/// The dynamic set Δ of context inconsistencies that have been detected
/// but not resolved yet (paper §3.2, Fig. 6), maintained together with
/// its [`CountMap`].
///
/// * **Context addition change**: newly detected inconsistencies enter Δ
///   via [`TrackedSet::add`].
/// * **Context deletion change**: when a context is used by an
///   application, every tracked inconsistency involving it is resolved
///   and leaves Δ via [`TrackedSet::resolve_involving`].
///
/// ```
/// use ctxres_core::{Inconsistency, TrackedSet};
/// use ctxres_context::{ContextId, LogicalTime};
///
/// let d3 = ContextId::from_raw(3);
/// let d4 = ContextId::from_raw(4);
/// let d5 = ContextId::from_raw(5);
/// let mut delta = TrackedSet::new();
/// delta.add(Inconsistency::pair("v", d3, d4, LogicalTime::ZERO));
/// delta.add(Inconsistency::pair("v", d3, d5, LogicalTime::ZERO));
/// // Scenario B of paper Fig. 5: count = {(d3, 2), (d4, 1), (d5, 1)}.
/// assert_eq!(delta.counts().get(d3), 2);
/// assert_eq!(delta.counts().get(d4), 1);
/// assert_eq!(delta.counts().get(d5), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrackedSet {
    items: BTreeSet<Inconsistency>,
    counts: CountMap,
}

impl TrackedSet {
    /// Creates an empty Δ.
    pub fn new() -> Self {
        TrackedSet::default()
    }

    /// Adds a detected inconsistency; duplicates (same constraint and
    /// context set) are ignored. Returns whether Δ changed.
    pub fn add(&mut self, inc: Inconsistency) -> bool {
        if self
            .items
            .iter()
            .any(|i| i.constraint() == inc.constraint() && i.contexts() == inc.contexts())
        {
            return false;
        }
        for id in inc.contexts() {
            self.counts.bump(*id);
        }
        self.items.insert(inc);
        true
    }

    /// Resolves every tracked inconsistency involving `id` — the
    /// context-deletion change of Fig. 6 — moving them out of Δ onto the
    /// end of `resolved` in Δ's order, the order
    /// [`TrackedSet::involving`] lists them in.
    pub fn resolve_involving(&mut self, id: ContextId, resolved: &mut Vec<Inconsistency>) {
        for inc in self.items.extract_if(.., |i| i.involves(id)) {
            for cid in inc.contexts() {
                self.counts.drop_one(*cid);
            }
            resolved.push(inc);
        }
    }

    /// The tracked inconsistencies involving `id`.
    pub fn involving(&self, id: ContextId) -> impl Iterator<Item = &Inconsistency> + '_ {
        self.items.iter().filter(move |i| i.involves(id))
    }

    /// The current count function.
    pub fn counts(&self) -> &CountMap {
        &self.counts
    }

    /// The contexts of `inc` carrying its largest count value.
    pub fn max_count_members(&self, inc: &Inconsistency) -> Vec<ContextId> {
        let max = inc
            .contexts()
            .iter()
            .map(|id| self.counts.get(*id))
            .max()
            .unwrap_or(0);
        inc.contexts()
            .iter()
            .copied()
            .filter(|id| self.counts.get(*id) == max)
            .collect()
    }

    /// Whether `id` carries the largest count value within `inc`
    /// (ties count as largest).
    pub fn is_max_in(&self, id: ContextId, inc: &Inconsistency) -> bool {
        let mine = self.counts.get(id);
        inc.contexts()
            .iter()
            .all(|other| self.counts.get(*other) <= mine)
    }

    /// Number of tracked inconsistencies.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether Δ is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the tracked inconsistencies.
    pub fn iter(&self) -> impl Iterator<Item = &Inconsistency> + '_ {
        self.items.iter()
    }

    /// Clears Δ (used when an experiment run resets the middleware).
    pub fn clear(&mut self) {
        self.items.clear();
        self.counts = CountMap::default();
    }

    /// Renders Δ as a Graphviz `dot` graph: contexts are nodes labelled
    /// with their count values, inconsistencies are hyperedge nodes
    /// (boxes) connected to their members. Paste into any dot viewer to
    /// see the structures drop-bad reasons about (the Fig. 5 pictures,
    /// mechanically).
    ///
    /// ```
    /// use ctxres_core::{Inconsistency, TrackedSet};
    /// use ctxres_context::{ContextId, LogicalTime};
    ///
    /// let mut delta = TrackedSet::new();
    /// delta.add(Inconsistency::pair(
    ///     "v",
    ///     ContextId::from_raw(3),
    ///     ContextId::from_raw(4),
    ///     LogicalTime::ZERO,
    /// ));
    /// let dot = delta.to_dot();
    /// assert!(dot.starts_with("graph delta {"));
    /// assert!(dot.contains("ctx3") && dot.contains("count 1"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph delta {\n");
        for (id, count) in self.counts.iter() {
            let _ = writeln!(
                out,
                "  ctx{} [label=\"{}\\ncount {}\"];",
                id.raw(),
                id,
                count
            );
        }
        for (i, inc) in self.items.iter().enumerate() {
            let _ = writeln!(
                out,
                "  inc{} [shape=box, label=\"{}\"];",
                i,
                inc.constraint()
            );
            for member in inc.contexts() {
                let _ = writeln!(out, "  inc{} -- ctx{};", i, member.raw());
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for TrackedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Δ ({} tracked):", self.items.len())?;
        for inc in &self.items {
            writeln!(f, "  {inc}")?;
        }
        write!(f, "count = {}", self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::LogicalTime;

    fn id(n: u64) -> ContextId {
        ContextId::from_raw(n)
    }

    fn pair(a: u64, b: u64) -> Inconsistency {
        Inconsistency::pair("v", id(a), id(b), LogicalTime::ZERO)
    }

    /// Paper Fig. 5, Scenario A: Δ = {(d1,d3),(d2,d3),(d3,d4),(d3,d5)}.
    fn scenario_a() -> TrackedSet {
        let mut delta = TrackedSet::new();
        delta.add(pair(1, 3));
        delta.add(pair(2, 3));
        delta.add(pair(3, 4));
        delta.add(pair(3, 5));
        delta
    }

    #[test]
    fn counts_match_paper_scenario_a() {
        let delta = scenario_a();
        assert_eq!(delta.counts().get(id(3)), 4);
        for other in [1, 2, 4, 5] {
            assert_eq!(delta.counts().get(id(other)), 1, "d{other}");
        }
        assert_eq!(delta.counts().get(id(9)), 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut delta = TrackedSet::new();
        assert!(delta.add(pair(1, 2)));
        assert!(!delta.add(pair(1, 2)));
        assert!(!delta.add(pair(2, 1)), "unordered duplicate");
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.counts().get(id(1)), 1);
    }

    #[test]
    fn same_contexts_different_constraint_are_distinct() {
        let mut delta = TrackedSet::new();
        delta.add(Inconsistency::pair("gap1", id(1), id(2), LogicalTime::ZERO));
        delta.add(Inconsistency::pair("gap2", id(1), id(2), LogicalTime::ZERO));
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.counts().get(id(1)), 2);
    }

    #[test]
    fn resolve_involving_removes_and_recounts() {
        let mut delta = scenario_a();
        let mut resolved = Vec::new();
        delta.resolve_involving(id(1), &mut resolved);
        assert_eq!(resolved.len(), 1);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta.counts().get(id(3)), 3);
        assert_eq!(delta.counts().get(id(1)), 0);
    }

    #[test]
    fn resolve_involving_hub_empties_delta() {
        let mut delta = scenario_a();
        let mut resolved = Vec::new();
        delta.resolve_involving(id(3), &mut resolved);
        assert_eq!(resolved.len(), 4);
        assert!(delta.is_empty());
        assert!(delta.counts().is_empty());
    }

    #[test]
    fn max_count_members_identifies_hub() {
        let delta = scenario_a();
        let inc = pair(3, 4);
        assert_eq!(delta.max_count_members(&inc), vec![id(3)]);
        assert!(delta.is_max_in(id(3), &inc));
        assert!(!delta.is_max_in(id(4), &inc));
    }

    #[test]
    fn is_max_in_treats_ties_as_largest() {
        let mut delta = TrackedSet::new();
        delta.add(pair(3, 4));
        // Scenario B before refinement: both carry count 1.
        assert!(delta.is_max_in(id(3), &pair(3, 4)));
        assert!(delta.is_max_in(id(4), &pair(3, 4)));
        assert_eq!(delta.max_count_members(&pair(3, 4)).len(), 2);
    }

    #[test]
    fn involving_filters() {
        let delta = scenario_a();
        assert_eq!(delta.involving(id(3)).count(), 4);
        assert_eq!(delta.involving(id(4)).count(), 1);
        assert_eq!(delta.involving(id(9)).count(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut delta = scenario_a();
        delta.clear();
        assert!(delta.is_empty());
        assert!(delta.counts().is_empty());
    }

    #[test]
    fn display_shows_counts() {
        let s = scenario_a().to_string();
        assert!(s.contains("4 tracked"));
        assert!(s.contains("(ctx#3, 4)"));
    }
}
