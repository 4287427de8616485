//! Context inconsistency **resolution strategies** — the primary
//! contribution of the ICDCS 2008 paper *"Heuristics-Based Strategies for
//! Resolving Context Inconsistencies in Pervasive Computing
//! Applications"* (Xu, Cheung, Chan, Ye).
//!
//! A pervasive-computing middleware detects **context inconsistencies**
//! (violations of consistency constraints, see `ctxres-constraint`) among
//! the noisy contexts it manages. Something must then decide which
//! contexts to discard. This crate implements every strategy the paper
//! discusses, behind one [`ResolutionStrategy`] trait:
//!
//! | strategy | paper | behaviour |
//! |----------|-------|-----------|
//! | [`DropLatest`](strategies::DropLatest) | §2.2 (Chomicki et al.) | discard the newest context of any fresh inconsistency |
//! | [`DropAll`](strategies::DropAll) | §2.3 (Bu et al.) | discard every context involved in a fresh inconsistency |
//! | [`DropRandom`](strategies::DropRandom) | §2.3 | discard a random involved context |
//! | [`UserPolicy`](strategies::UserPolicy) | §2.3 (Ranganathan et al.) | discard per static user preferences |
//! | [`DropBad`](strategies::DropBad) | **§3 (this paper)** | track inconsistencies in Δ, defer decisions until use, discard largest count value |
//! | [`Oracle`](strategies::Oracle) | §4.1 (OPT-R) | ground-truth oracle; the 100 % baseline |
//!
//! The **drop-bad** strategy keeps a [`TrackedSet`] Δ of detected but
//! unresolved inconsistencies and a per-context **count value** (how many
//! tracked inconsistencies the context participates in). When an
//! application uses a context, the strategy discards it only if it
//! carries the largest count value in one of its inconsistencies,
//! otherwise delivers it and marks the largest-count peers *bad* (paper
//! Fig. 7/8).
//!
//! [`theory`] provides checkable versions of the paper's heuristic Rules
//! 1, 2 and 2′; the crate's property-test suite uses them to validate
//! Theorems 1 and 2 (every context drop-bad discards is corrupted, as
//! long as the rules hold).
//!
//! # Example
//!
//! ```
//! use ctxres_core::{Inconsistency, ResolutionStrategy, strategies::DropBad};
//! use ctxres_context::{Context, ContextKind, ContextPool, ContextState, LogicalTime};
//!
//! let mut pool = ContextPool::new();
//! let kind = ContextKind::new("location");
//! let a = pool.insert(Context::builder(kind.clone(), "p").build());
//! let b = pool.insert(Context::builder(kind.clone(), "p").build());
//! let c = pool.insert(Context::builder(kind.clone(), "p").build());
//!
//! let mut drop_bad = DropBad::new();
//! let now = LogicalTime::new(1);
//! // b conflicts with both a and c: count(b) = 2.
//! drop_bad.on_addition(&mut pool, now, b, &[Inconsistency::pair("velocity", a, b, now)]);
//! drop_bad.on_addition(&mut pool, now, c, &[Inconsistency::pair("velocity", b, c, now)]);
//!
//! // When the application uses b, its count value (2) is the largest:
//! let outcome = drop_bad.on_use(&mut pool, now, b);
//! assert!(!outcome.delivered);
//! assert_eq!(pool.get(b).unwrap().state(), ContextState::Inconsistent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inconsistency;
pub mod strategies;
mod strategy;
pub mod theory;
mod tracked;

pub use inconsistency::Inconsistency;
pub use strategy::{AdditionOutcome, ResolutionStrategy, TieBreak, TiePolicy, UseOutcome};
pub use tracked::{CountMap, TrackedSet};
