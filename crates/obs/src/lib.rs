//! Instrumentation layer for the `ctxres` middleware: life-cycle event
//! tracing, a per-shard metrics registry, and span-style timing hooks.
//!
//! The paper's whole argument hinges on *when* things happen inside the
//! middleware — drop-bad defers discard decisions to "collect more count
//! value information" (§3.3) through the four-state life cycle
//! `Undecided → {Consistent | Bad | Inconsistent}` — yet aggregate
//! end-of-run counters cannot show that mechanism at work. This crate
//! makes the engine visible without slowing it down:
//!
//! * **event tracing** ([`TraceEvent`], [`TraceRecord`]): each fact of
//!   a context's life — its arrival, every inconsistency detection, Δ
//!   membership (with the count it reached), verdict, Δ removal and
//!   delivery — is recorded once, as a typed event with logical
//!   timestamp, shard id, and context id, into a bounded per-shard ring
//!   buffer ([`EventRing`], [`RING_CAPACITY`] records), when
//!   [`ObsConfig::trace_events`] is on. Overflow never stalls the hot
//!   path and is never silent — each evicted record bumps the ring's
//!   dropped count, exported as `ctxres_trace_events_dropped_total`;
//! * **provenance** ([`CauseKind`], [`TraceEvent::Caused`],
//!   [`ProvenanceGraph`]): the detections, Δ memberships and verdicts
//!   are typed cause edges, which fold — under the submission root each
//!   [`TraceEvent::Received`] gives — into a queryable per-context
//!   causal DAG explaining every resolution decision end-to-end;
//! * **metrics registry** ([`ObsRegistry`]): per-shard counters and
//!   fixed-bucket [`Histogram`]s (check latency, batch ingest latency,
//!   use-window residual delay, Δ-set size, queue depth), recorded with
//!   atomics and aggregated across shards without any global lock —
//!   mirroring how `ctxres_middleware::MiddlewareStats` aggregates. Every
//!   layer's metrics, these and the ones below, are cells in one table
//!   per shard slot: a [`Family`] and one counter, gauge or histogram,
//!   laid out when the registry is built (a kind's cells when the kind is
//!   first seen) and found by index when recorded;
//! * **health telemetry** ([`KindHandle`], [`SloEngine`]): per-(shard,
//!   kind) quality cells and arena gauges from which each window derives
//!   discard, violation and use rates, the use-rate EWMA, staleness and
//!   pool occupancy, watched by declarative SLO rules with hysteresis —
//!   on in [`ObsConfig::metrics_only`] and [`ObsConfig::enabled`];
//! * **one timer** ([`ShardObs::timed`]): one RAII guard per phase
//!   boundary reads the clock when it opens and when it closes, and
//!   feeds the phase's profiler span, its latency histogram and the tail
//!   stamps from those two readings ([`clock_reads`] counts them). With
//!   [`ObsConfig::disabled`] every hook is a branch — no clock reads;
//! * **phase profiling** ([`Phase`], [`PhaseGuard`],
//!   [`ProfileSnapshot`]): hierarchical spans over a fixed nine-stage
//!   pipeline taxonomy with exact self-time attribution (child time
//!   subtracted from the parent), per-shard preallocated span stacks
//!   and bounded span rings, and a root-level sampling divisor — opt in
//!   with [`ObsConfig::with_profile`]; export as Chrome trace-event
//!   JSON ([`chrome_trace_json`]) or inferno folded stacks
//!   ([`folded_stacks`]);
//! * **end-to-end tail telemetry** ([`ContextSpan`], [`Exemplar`]):
//!   monotonic wall-clock stamps at batch ingress,
//!   constraint verdict, resolution decision and delivery/discard fold
//!   into per-(shard, outcome) histograms with windowed interpolated
//!   p50/p95/p99/p999, a bounded per-shard reservoir of over-p99
//!   exemplars (each carrying its causal ID and packed profiler phase
//!   path), and a wait-versus-service decomposition
//!   of the sharded engine queues — opt in with
//!   [`ObsConfig::with_tail`];
//! * **one metric model** ([`Family`], [`ObsSnapshot`], [`Sampler`],
//!   [`Sample`], [`render_prometheus`], [`MetricsServer`]): every layer
//!   declares its metrics as labelled families (counter, gauge or
//!   [`Histogram`], with label names and a render scale), and
//!   [`ObsRegistry::snapshot`] reads every shard's table of cells in one
//!   loop, each group of cells reporting always or once written. A sampler
//!   diffs two snapshots into one windowed sample — counter and
//!   histogram deltas keyed on (family, labels), plus the gauges each
//!   layer derives from the window (rates, quantiles, quality ratios,
//!   shares, firing SLO rules); both read through the one set of
//!   lookups on [`SeriesList`]. One renderer writes it as Prometheus
//!   text exposition (`/metrics`) and a hand-rolled `TcpListener`
//!   endpoint serves the same sample as JSON (`/snapshot`), which
//!   `obs_top --watch` parses back — opt in with
//!   [`ObsConfig::metrics_only`] plus `CTXRES_METRICS_ADDR`.
//!
//! The crate deliberately has no external dependencies (the build runs
//! offline): the facade is built here rather than on `tracing`/`metrics`.
//!
//! # Example
//!
//! ```
//! use ctxres_context::LogicalTime;
//! use ctxres_obs::{MetricKind, ObsConfig, ObsRegistry, Phase, TraceEvent};
//!
//! let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
//! let shard0 = registry.handle(0);
//! shard0.record(
//!     LogicalTime::new(3),
//!     TraceEvent::Delivered { ctx: ctxres_context::ContextId::from_raw(7) },
//! );
//! shard0.observe(MetricKind::QueueDepth, 4);
//! {
//!     let _check = shard0.timed(Phase::ConstraintCheck, MetricKind::CheckLatency);
//!     // ... timed work ...
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.histogram(MetricKind::QueueDepth).count, 1);
//! assert_eq!(snapshot.histogram(MetricKind::CheckLatency).count, 1);
//! assert_eq!(registry.drain().len(), 1);
//! assert_eq!(registry.dropped(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod health;
mod metrics;
mod profile;
mod provenance;
mod registry;
mod ring;
mod serve;
mod slo;
mod snapshot;
mod table;
mod tail;

pub use event::{CauseKind, TraceEvent, TraceRecord, CAUSE_KINDS};
pub use export::{families, render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use health::{KindHandle, DEFAULT_EWMA_ALPHA};
pub use metrics::{
    bucket_bound, CounterKind, Histogram, HistogramSnapshot, MetricKind, BUCKETS, COUNTER_KINDS,
    METRIC_KINDS,
};
pub use profile::{
    chrome_trace_json, folded_stacks, parse_folded, validate_trace_json, Phase, PhaseGuard,
    PhaseStat, ProfileSnapshot, SpanRecord, MAX_PHASE_DEPTH, PHASES, SPAN_RING_CAPACITY,
};
pub use provenance::{CauseEdge, NodeId, ProvNode, ProvStats, ProvenanceGraph};
pub use registry::{clock_reads, ObsConfig, ObsRegistry, ShardObs};
pub use ring::{EventRing, RING_CAPACITY};
pub use serve::{MetricsServer, METRICS_ADDR_ENV};
pub use slo::{
    HealthAlert, SloEngine, SloMetric, SloOp, SloRule, DEFAULT_CLEAR_MARGIN, SLO_METRICS,
    SLO_RULES_ENV,
};
pub use snapshot::{
    BuildInfo, Family, MetricType, ObsSnapshot, Reading, Sample, Sampler, Series, SeriesList, Value,
};
pub use tail::{
    ContextSpan, Exemplar, TailOutcome, EXEMPLAR_CAPACITY, SEGMENT_NAMES, TAIL_OUTCOMES,
    TAIL_QUANTILES,
};
