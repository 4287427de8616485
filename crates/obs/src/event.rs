//! Typed life-cycle trace events.

use ctxres_context::{ContextId, ContextState};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The typed relation behind a [`TraceEvent::Caused`] edge — why a
/// context's life was affected. Together these five relations span the
/// full drop-bad decision chain: submission → violations → Δ
/// membership and count → verdict (and the deferred mark-bad
/// supersession).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CauseKind {
    /// The context entered the middleware — the root of its chain. No
    /// emitter writes this edge: [`crate::ProvenanceGraph`] makes it
    /// from the context's [`TraceEvent::Received`] record.
    SubmissionOf,
    /// The context participates in a detected violation of the cited
    /// constraint (partners are the other bound contexts).
    ViolatedBy,
    /// That violation entered the tracked set Δ (deferred resolution
    /// begins for the cited constraint instance); the edge's count is
    /// the count value the insertion bumped the context to.
    JoinedDelta,
    /// The final verdict: the context was delivered or discarded, and —
    /// when a tracked inconsistency decided it — which one.
    ResolvedBecause,
    /// The context was marked `Bad` so the cited partner (the context
    /// actually used) could be resolved instead — drop-bad's deferred
    /// discard (Fig. 7 Part 2).
    SupersededBy,
}

/// Every [`CauseKind`], in a stable order (used by exporters and the
/// provenance graph).
pub const CAUSE_KINDS: [CauseKind; 5] = [
    CauseKind::SubmissionOf,
    CauseKind::ViolatedBy,
    CauseKind::JoinedDelta,
    CauseKind::ResolvedBecause,
    CauseKind::SupersededBy,
];

impl CauseKind {
    /// Snake-case edge name (stable; used in exports and dumps).
    pub fn name(self) -> &'static str {
        match self {
            CauseKind::SubmissionOf => "submission_of",
            CauseKind::ViolatedBy => "violated_by",
            CauseKind::JoinedDelta => "joined_delta",
            CauseKind::ResolvedBecause => "resolved_because",
            CauseKind::SupersededBy => "superseded_by",
        }
    }
}

impl fmt::Display for CauseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One thing that happened inside the middleware.
///
/// Context ids are shard-local (each shard engine numbers its own
/// pool); a [`TraceRecord`] pairs the event with its shard id, so
/// `(shard, ctx)` is globally unique within one run's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A context entered the middleware (a context addition change).
    /// The root of the context's causal chain: [`crate::ProvenanceGraph`]
    /// folds it into the chain's [`CauseKind::SubmissionOf`] edge.
    Received {
        /// The id the pool assigned.
        ctx: ContextId,
        /// The context's kind name. Shared with the pool's interned
        /// kind so the hot submit path records without allocating.
        kind: Arc<str>,
        /// The context's subject, interned the same way.
        subject: Arc<str>,
    },
    /// An inconsistency was resolved and left Δ.
    DeltaRemoved {
        /// The violated constraint's name.
        constraint: String,
        /// The participating contexts.
        contexts: Vec<ContextId>,
    },
    /// A context was delivered to applications.
    Delivered {
        /// The delivered context.
        ctx: ContextId,
    },
    /// A use request found the context expired (neither delivered nor
    /// blamed).
    Expired {
        /// The expired context.
        ctx: ContextId,
    },
    /// A typed cause edge: `ctx`'s life was affected for the stated
    /// reason. The edges are the trace's record of every detection, Δ
    /// membership and verdict; [`crate::ProvenanceGraph`] folds them
    /// into per-context causal chains. The `(shard, ctx)` pair
    /// identifies the effect node; `(at, seq)` of the carrying
    /// [`TraceRecord`] gives the edge its stable causal ID.
    Caused {
        /// The effect: the context whose chain this edge extends.
        ctx: ContextId,
        /// The typed relation.
        cause: CauseKind,
        /// The constraint implicated in the cause, when one is.
        constraint: Option<String>,
        /// The other contexts bound in the causing violation — or, for
        /// [`CauseKind::SupersededBy`], the used partner resolved by
        /// the supersession.
        partners: Vec<ContextId>,
        /// The deciding count value, when counts are implicated.
        count: Option<u64>,
        /// For [`CauseKind::ResolvedBecause`] /
        /// [`CauseKind::SupersededBy`]: the state the verdict put the
        /// context in.
        verdict: Option<ContextState>,
    },
}

impl TraceEvent {
    /// Every context the event involves.
    pub fn contexts(&self) -> Vec<ContextId> {
        match self {
            TraceEvent::Received { ctx, .. }
            | TraceEvent::Delivered { ctx }
            | TraceEvent::Expired { ctx } => vec![*ctx],
            TraceEvent::DeltaRemoved { contexts, .. } => contexts.clone(),
            TraceEvent::Caused { ctx, partners, .. } => {
                let mut all = vec![*ctx];
                all.extend(partners.iter().copied());
                all
            }
        }
    }
}

/// `ctx#5, ctx#8` — comma-joined Display ids for event lines.
fn join_ids(contexts: &[ContextId]) -> String {
    let mut out = String::new();
    for (i, ctx) in contexts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{ctx}"));
    }
    out
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Received { ctx, kind, subject } => {
                write!(f, "received {ctx} ({kind} of {subject:?})")
            }
            TraceEvent::DeltaRemoved {
                constraint,
                contexts,
            } => write!(f, "Δ -= {constraint} [{}]", join_ids(contexts)),
            TraceEvent::Delivered { ctx } => write!(f, "{ctx} delivered"),
            TraceEvent::Expired { ctx } => write!(f, "{ctx} expired on use"),
            TraceEvent::Caused {
                ctx,
                cause,
                constraint,
                partners,
                count,
                verdict,
            } => {
                write!(f, "{ctx} <- {cause}")?;
                if let Some(c) = constraint {
                    write!(f, " {c}")?;
                }
                if !partners.is_empty() {
                    write!(f, " with [{}]", join_ids(partners))?;
                }
                if let Some(n) = count {
                    write!(f, " count={n}")?;
                }
                if let Some(v) = verdict {
                    write!(f, " => {v}")?;
                }
                Ok(())
            }
        }
    }
}

/// A trace event stamped with where and when it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The shard whose engine emitted the event.
    pub shard: u32,
    /// Per-shard monotonic sequence number (ties on `at` preserve
    /// emission order within a shard).
    pub seq: u64,
    /// The logical clock tick at emission.
    pub at: u64,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{:<6} shard {:<2} #{:<5} {}",
            self.at, self.shard, self.seq, self.event
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContextId {
        ContextId::from_raw(n)
    }

    #[test]
    fn tags_and_contexts() {
        let e = TraceEvent::DeltaRemoved {
            constraint: "speed".into(),
            contexts: vec![id(1), id(2)],
        };
        assert_eq!(e.contexts(), vec![id(1), id(2)]);
        assert_eq!(e.to_string(), "Δ -= speed [ctx#1, ctx#2]");

        let d = TraceEvent::Delivered { ctx: id(7) };
        assert_eq!(d.contexts(), vec![id(7)]);
        let r = TraceEvent::Received {
            ctx: id(3),
            kind: "location".into(),
            subject: "alice".into(),
        };
        assert_eq!(r.contexts(), vec![id(3)]);
    }

    #[test]
    fn cause_edges_involve_effect_and_partners() {
        let e = TraceEvent::Caused {
            ctx: id(4),
            cause: CauseKind::ViolatedBy,
            constraint: Some("speed".into()),
            partners: vec![id(2)],
            count: None,
            verdict: None,
        };
        assert_eq!(e.contexts(), vec![id(4), id(2)]);
        let s = e.to_string();
        assert!(s.contains("violated_by"), "{s}");
        assert!(s.contains("speed"), "{s}");
        // Edges round-trip through the JSONL dump format.
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn cause_kind_names_are_stable() {
        let names: Vec<&str> = CAUSE_KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "submission_of",
                "violated_by",
                "joined_delta",
                "resolved_because",
                "superseded_by",
            ]
        );
    }

    #[test]
    fn display_is_compact() {
        let r = TraceRecord {
            shard: 1,
            seq: 4,
            at: 9,
            event: TraceEvent::Expired { ctx: id(3) },
        };
        let s = r.to_string();
        assert!(s.contains("shard 1"), "{s}");
        assert!(s.contains("ctx#3 expired on use"), "{s}");
    }
}
