//! Detected context inconsistencies.

use ctxres_constraint::Detection;
use ctxres_context::{ContextId, LogicalTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One detected context inconsistency: a set of contexts that together
/// violate a named consistency constraint (paper §3.2: Δ ⊆ ℘(C)).
///
/// Most inconsistencies in the paper's applications are pairs, but the
/// type supports any arity ("generic context inconsistencies", §3.4).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Inconsistency {
    /// Shared with the compiled constraint when the inconsistency came
    /// from a [`Detection`], so copies of it copy no string.
    constraint: Arc<str>,
    contexts: BTreeSet<ContextId>,
    detected_at: LogicalTime,
}

impl Inconsistency {
    /// Creates an inconsistency over an arbitrary context set.
    pub fn new(
        constraint: &str,
        contexts: impl IntoIterator<Item = ContextId>,
        detected_at: LogicalTime,
    ) -> Self {
        Inconsistency {
            constraint: Arc::from(constraint),
            contexts: contexts.into_iter().collect(),
            detected_at,
        }
    }

    /// The inconsistency a checker [`Detection`] reports, detected at
    /// `detected_at`: the detection's constraint name and link move in
    /// without a copy.
    pub fn from_detection(detection: Detection, detected_at: LogicalTime) -> Self {
        Inconsistency {
            constraint: detection.constraint,
            contexts: detection.link,
            detected_at,
        }
    }

    /// Convenience constructor for the common binary case.
    pub fn pair(constraint: &str, a: ContextId, b: ContextId, detected_at: LogicalTime) -> Self {
        Inconsistency::new(constraint, [a, b], detected_at)
    }

    /// The violated constraint's name.
    pub fn constraint(&self) -> &str {
        &self.constraint
    }

    /// The contexts forming the inconsistency.
    pub fn contexts(&self) -> &BTreeSet<ContextId> {
        &self.contexts
    }

    /// Whether `id` participates in this inconsistency.
    pub fn involves(&self, id: ContextId) -> bool {
        self.contexts.contains(&id)
    }

    /// When the inconsistency was detected.
    pub fn detected_at(&self) -> LogicalTime {
        self.detected_at
    }

    /// Number of involved contexts.
    pub fn arity(&self) -> usize {
        self.contexts.len()
    }
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.constraint)?;
        for (i, id) in self.contexts.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}@{}", self.detected_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContextId {
        ContextId::from_raw(n)
    }

    #[test]
    fn pair_builds_binary_inconsistency() {
        let inc = Inconsistency::pair("velocity", id(2), id(3), LogicalTime::new(5));
        assert_eq!(inc.arity(), 2);
        assert!(inc.involves(id(2)));
        assert!(inc.involves(id(3)));
        assert!(!inc.involves(id(4)));
        assert_eq!(inc.constraint(), "velocity");
        assert_eq!(inc.detected_at(), LogicalTime::new(5));
    }

    #[test]
    fn duplicate_contexts_collapse() {
        let inc = Inconsistency::new("c", [id(1), id(1), id(2)], LogicalTime::ZERO);
        assert_eq!(inc.arity(), 2);
    }

    #[test]
    fn equality_ignores_context_order() {
        let a = Inconsistency::new("c", [id(1), id(2)], LogicalTime::ZERO);
        let b = Inconsistency::new("c", [id(2), id(1)], LogicalTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn from_detection_keeps_name_and_link() {
        let detection = Detection {
            constraint: Arc::from("velocity"),
            link: [id(3), id(2)].into_iter().collect(),
        };
        let inc = Inconsistency::from_detection(detection, LogicalTime::new(4));
        assert_eq!(
            inc,
            Inconsistency::pair("velocity", id(2), id(3), LogicalTime::new(4))
        );
    }

    #[test]
    fn display_names_constraint_and_members() {
        let inc = Inconsistency::pair("velocity", id(2), id(3), LogicalTime::new(1));
        let s = inc.to_string();
        assert!(s.contains("velocity"));
        assert!(s.contains("ctx#2"));
        assert!(s.contains("ctx#3"));
    }
}
