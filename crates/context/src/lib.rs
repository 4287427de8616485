//! Context model for pervasive computing applications.
//!
//! This crate provides the substrate data model used throughout the
//! `ctxres` workspace, a reproduction of the ICDCS 2008 paper
//! *"Heuristics-Based Strategies for Resolving Context Inconsistencies in
//! Pervasive Computing Applications"* (Xu, Cheung, Chan, Ye).
//!
//! A *context* is a piece of information that captures a characteristic of
//! a computing environment: a tracked location, an RFID read, a badge
//! sighting. Contexts are produced by distributed, noisy sources and are
//! managed by a middleware on behalf of context-aware applications.
//!
//! The model implemented here follows the paper:
//!
//! * every context carries a **logical timestamp** ([`LogicalTime`]) and a
//!   **lifespan** ([`Lifespan`]) after which it expires;
//! * every context is in one of four **life-cycle states**
//!   ([`ContextState`]): `Undecided`, `Consistent`, `Bad`, `Inconsistent`
//!   (paper Fig. 8);
//! * contexts live in a [`ContextPool`] indexed by kind, subject and
//!   arrival order, from which consistency constraints draw their
//!   quantification domains.
//!
//! # Example
//!
//! ```
//! use ctxres_context::{Context, ContextKind, ContextPool, ContextValue, LogicalTime};
//!
//! let mut pool = ContextPool::new();
//! let ctx = Context::builder(ContextKind::new("location"), "peter")
//!     .attr("x", 1.5)
//!     .attr("y", 2.0)
//!     .stamp(LogicalTime::new(1))
//!     .build();
//! let id = pool.insert(ctx);
//! assert_eq!(pool.get(id).unwrap().attr("x"), Some(&ContextValue::from(1.5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod error;
mod pool;
mod state;
mod time;
mod value;

pub use context::{Context, ContextBuilder, ContextId, ContextKind, SourceId, TruthTag, SEQ_ATTR};
pub use error::ContextError;
pub use pool::{ContextPool, KindWatermark, PoolStats, SubjectView, WatchId};
pub use state::ContextState;
pub use time::{Lifespan, LogicalTime, Ticks};
pub use value::{ContextValue, Point};
