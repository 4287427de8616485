//! # ctxres — heuristics-based context inconsistency resolution
//!
//! A from-scratch Rust reproduction of *"Heuristics-Based Strategies for
//! Resolving Context Inconsistencies in Pervasive Computing
//! Applications"* (Xu, Cheung, Chan, Ye — ICDCS 2008), including every
//! substrate the paper depends on: the context model, the first-order
//! consistency-constraint language with incremental checking, the
//! Cabot-style middleware, the LANDMARC localization simulator, the two
//! subject applications, and the full experiment harness.
//!
//! This umbrella crate re-exports the workspace members under stable
//! module names; depend on the individual `ctxres-*` crates if you only
//! need one layer.
//!
//! ```
//! use ctxres::apps::scenarios;
//! use ctxres::constraint::{Evaluator, PredicateRegistry};
//! use ctxres::context::{ContextPool, LogicalTime};
//!
//! // Detect the paper's Scenario A inconsistencies (Fig. 1).
//! let pool: ContextPool = scenarios::scenario_a().into_iter().collect();
//! let registry = PredicateRegistry::with_builtins();
//! let evaluator = Evaluator::new(&registry);
//! let outcome = evaluator
//!     .check(&scenarios::adjacent_constraint(), &pool, LogicalTime::new(9))?;
//! assert_eq!(outcome.violations.len(), 2); // (d2,d3) and (d3,d4)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The runnable binaries regenerating each figure/table of the paper
//! live in `ctxres-experiments`; see DESIGN.md for the inventory and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! # Tour: from noisy contexts to resolved ones
//!
//! The full pipeline in one place — state constraints, plug in drop-bad,
//! stream contexts, observe the resolution:
//!
//! ```
//! use ctxres::constraint::parse_constraints;
//! use ctxres::context::{Context, ContextKind, ContextState, LogicalTime, Point, Ticks};
//! use ctxres::core::strategies::DropBad;
//! use ctxres::middleware::{Middleware, MiddlewareConfig, SubscriptionFilter};
//!
//! // 1. Consistency constraints in the text DSL (paper §2.1's velocity
//! //    bound plus the Fig. 5 gap-2 refinement).
//! let constraints = parse_constraints(
//!     "constraint gap1:
//!        forall a: location, b: location .
//!          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
//!      constraint gap2:
//!        forall a: location, b: location .
//!          (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)",
//! )?;
//!
//! // 2. Middleware with drop-bad plugged in and a 4-tick use window.
//! let mut mw = Middleware::builder()
//!     .constraints(constraints)
//!     .strategy(Box::new(DropBad::new()))
//!     .config(MiddlewareConfig { window: Ticks::new(4), ..MiddlewareConfig::default() })
//!     .build();
//! let feed = mw.subscribe(SubscriptionFilter::all().of_subject("peter"));
//!
//! // 3. Peter's tracked walk — the third fix is the Fig. 1 outlier.
//! for (i, (x, y)) in [(0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (3.0, 0.0), (4.0, 0.0)]
//!     .iter()
//!     .enumerate()
//! {
//!     mw.submit(
//!         Context::builder(ContextKind::new("location"), "peter")
//!             .attr("pos", Point::new(*x, *y))
//!             .attr("seq", i as i64)
//!             .stamp(LogicalTime::new(i as u64))
//!             .build(),
//!     );
//! }
//! mw.drain();
//!
//! // 4. Drop-bad singled out the outlier; the rest reached the app.
//! assert_eq!(mw.stats().discarded, 1);
//! assert_eq!(mw.poll(feed).len(), 4);
//! let (outlier, _) = mw
//!     .pool()
//!     .iter()
//!     .find(|(_, c)| c.state() == ContextState::Inconsistent)
//!     .expect("one context was discarded");
//! assert_eq!(outlier.raw(), 2); // d3
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Layer by layer:
//!
//! * [`context`] — the data model: [`context::Context`] facts with
//!   logical time, lifespans, and the Fig. 8 four-state life cycle in an
//!   indexed [`context::ContextPool`];
//! * [`constraint`] — first-order constraints: a text DSL, an evaluator
//!   whose violations are *links* (the inconsistency sets), incremental
//!   checking, deploy-time schema validation, and a simplifier;
//! * [`core`] — the strategies: drop-bad (tracked Δ + count values +
//!   deferred decisions, each explained by provenance edges), every
//!   baseline, the OPT-R oracle, the impact-aware extension, and
//!   machine-checked heuristic-rule theory;
//! * [`obs`] — the instrumentation layer: typed life-cycle event traces
//!   in bounded per-shard ring buffers, the provenance graph folded from
//!   them (why each context was discarded), a lock-light metrics
//!   registry (latency histograms, Δ-size, queue depth), and one RAII
//!   phase timer per boundary whose two clock readings feed the
//!   profiler, the latency histograms and the tail stamps, compiling to
//!   a branch when disabled;
//! * [`middleware`] — the Cabot-style runtime: plug-in strategies,
//!   situation engine, subscriptions, observers, retention, and a
//!   subject-sharded front-end for client threads;
//! * [`landmarc`] — the simulated localization substrate (k-NN,
//!   trilateration, fusion);
//! * [`apps`] — four complete applications with calibrated workloads;
//! * [`experiments`] — the harness regenerating every paper artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The context model (`ctxres-context`).
pub mod context {
    pub use ctxres_context::*;
}

/// The consistency-constraint language (`ctxres-constraint`).
pub mod constraint {
    pub use ctxres_constraint::*;
}

/// The resolution strategies — the paper's contribution (`ctxres-core`).
pub mod core {
    pub use ctxres_core::*;
}

/// The instrumentation layer: life-cycle event tracing, per-shard
/// metrics registry, and span timing hooks (`ctxres-obs`).
pub mod obs {
    pub use ctxres_obs::*;
}

/// The Cabot-style middleware (`ctxres-middleware`).
pub mod middleware {
    pub use ctxres_middleware::*;
}

/// The LANDMARC localization simulator (`ctxres-landmarc`).
pub mod landmarc {
    pub use ctxres_landmarc::*;
}

/// The subject applications (`ctxres-apps`).
pub mod apps {
    pub use ctxres_apps::*;
}

/// The experiment harness (`ctxres-experiments`).
pub mod experiments {
    pub use ctxres_experiments::*;
}
