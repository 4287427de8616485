//! Cabot-style context-management middleware.
//!
//! The ICDCS'08 paper "assume\[s\] the existence of a middleware
//! infrastructure that collects contexts from distributed context
//! sources … and manages these contexts for pervasive computing", with
//! inconsistency resolution "as a management service in the middleware"
//! (§1). The experiments ran on the authors' Cabot middleware, which
//! supports plug-in context-management services (§4.1).
//!
//! This crate re-implements that substrate:
//!
//! * [`Middleware`] owns the context pool, runs incremental
//!   inconsistency detection on every **context addition change**, and
//!   drives the plugged-in [`ResolutionStrategy`] on both addition and
//!   **context deletion changes** (a context being used by an
//!   application);
//! * a configurable **time window** ([`MiddlewareConfig::window`])
//!   schedules when buffered contexts are used — the knob §5.3 discusses
//!   (window → 0 degenerates drop-bad into drop-latest);
//! * a [`SituationEngine`] evaluates application **situations** over the
//!   *available* context view and reports rising-edge activations — the
//!   paper's second context-awareness metric;
//! * [`SharedMiddleware`] and [`ShardedMiddleware`] take contexts from
//!   client threads (the paper's experimental setup, §4.1) under one
//!   lock or one lock per shard; the crate itself starts no threads.
//!
//! # Example
//!
//! ```
//! use ctxres_constraint::parse_constraints;
//! use ctxres_context::{Context, ContextKind, LogicalTime, Point, Ticks};
//! use ctxres_core::strategies::DropBad;
//! use ctxres_middleware::{Middleware, MiddlewareConfig};
//!
//! let constraints = parse_constraints(
//!     "constraint region: forall a: location . within(a, 0.0, 0.0, 10.0, 10.0)",
//! )?;
//! let mut mw = Middleware::builder()
//!     .constraints(constraints)
//!     .strategy(Box::new(DropBad::new()))
//!     .config(MiddlewareConfig { window: Ticks::new(2), ..MiddlewareConfig::default() })
//!     .build();
//!
//! let ctx = Context::builder(ContextKind::new("location"), "peter")
//!     .attr("pos", Point::new(3.0, 4.0))
//!     .stamp(LogicalTime::new(0))
//!     .build();
//! mw.submit(ctx);
//! mw.advance_to(LogicalTime::new(5)); // window elapses, context is used
//! assert_eq!(mw.stats().delivered, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod middleware;
mod observer;
mod shard;
mod situation;
mod stats;
mod subscription;

pub use concurrent::SharedMiddleware;
pub use middleware::{Middleware, MiddlewareBuilder, MiddlewareConfig, SubmitReport, UseRecord};
pub use observer::{Event, EventLog, MiddlewareObserver};
pub use shard::{ShardLoad, ShardPlan, ShardedMiddleware};
pub use situation::{SituationEngine, SituationStatus};
pub use stats::{MiddlewareStats, ShardStats};
pub use subscription::{SubscriptionFilter, SubscriptionId};

pub use ctxres_core::ResolutionStrategy;
