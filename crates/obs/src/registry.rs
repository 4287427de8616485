//! The per-shard observation registry and its cheap handles.

use crate::event::{TraceEvent, TraceRecord};
use crate::health::KindHandle;
use crate::metrics::{CounterKind, MetricKind, OBS_SHARDS};
use crate::profile::{Phase, PhaseGuard, ProfileSnapshot, ShardProfileSlot, SpanRecord};
use crate::ring::{EventRing, RING_CAPACITY};
use crate::snapshot::{ObsSnapshot, Reading, SeriesList, Value};
use crate::table::Table;
use crate::tail::{ContextSpan, Exemplar, ShardTailSlot, TailOutcome};
use ctxres_context::LogicalTime;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since `epoch`: the one clock read of this crate and the
/// engine, counted per thread for [`clock_reads`].
pub(crate) fn clock_ns(epoch: Instant) -> u64 {
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How many times the calling thread has read the clock through this
/// crate: phase guards, tail and queue stamps, sampler windows.
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(Cell::get)
}

/// Run-time observability configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether any recording happens at all.
    pub enabled: bool,
    /// Whether per-event tracing (ring-buffer pushes) happens; counters
    /// and histograms record regardless when `enabled`. The trace is
    /// the provenance record: each `Received` record roots a context's
    /// causal chain and typed cause edges ([`TraceEvent::Caused`])
    /// extend it.
    pub trace_events: bool,
    /// Whether per-kind quality telemetry (health counters, staleness
    /// watermarks, arena gauges) is recorded and published. Counters
    /// and histograms record regardless when `enabled`.
    pub health: bool,
    /// Whether the hierarchical phase profiler records
    /// ([`crate::PhaseGuard`] spans, per-phase cells, span rings).
    pub profile: bool,
    /// Profiler sampling divisor: only every N-th *root* phase span
    /// records (1 = record everything). Only meaningful with `profile`.
    pub profile_sample: u32,
    /// Whether end-to-end tail-latency telemetry (context spans,
    /// exemplar capture, queue wait/service counters) is recorded.
    pub tail: bool,
}

impl ObsConfig {
    /// Full tracing and metrics, provenance edges and tail spans
    /// included.
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            trace_events: true,
            health: true,
            profile: false,
            profile_sample: 1,
            tail: true,
        }
    }

    /// Counters and histograms only — no per-event ring pushes. The
    /// long-running export configuration: an open-ended workload never
    /// fills (or churns) the rings, while `/metrics` rates and
    /// quantiles stay live.
    pub fn metrics_only() -> Self {
        ObsConfig {
            enabled: true,
            trace_events: false,
            health: true,
            profile: false,
            profile_sample: 1,
            tail: false,
        }
    }

    /// Everything compiled to a branch-and-return: a disabled registry
    /// hands out [`ShardObs::disabled`] handles, so it runs the same
    /// code as no registry at all.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            trace_events: false,
            health: false,
            profile: false,
            profile_sample: 1,
            tail: false,
        }
    }

    /// Turns health telemetry on or off (counters and histograms
    /// untouched).
    pub fn with_health(mut self, on: bool) -> Self {
        self.health = on;
        self
    }

    /// Turns the hierarchical phase profiler on with a sampling divisor
    /// (`every = 1` records every root span, `every = 8` every eighth).
    pub fn with_profile(mut self, every: u32) -> Self {
        self.profile = true;
        self.profile_sample = every.max(1);
        self
    }

    /// Turns end-to-end tail telemetry on or off (counters and
    /// histograms untouched).
    pub fn with_tail(mut self, on: bool) -> Self {
        self.tail = on;
        self
    }
}

/// One shard's instrumentation state: a locked event ring (of
/// [`RING_CAPACITY`] records; only tracing configurations ever push to
/// it), the table of every metric cell, the logical tick of the last
/// pool publication, the profiler's span stack and the exemplar
/// reservoir.
#[derive(Debug)]
pub(crate) struct ShardSlot {
    pub(crate) epoch: Instant,
    ring: Mutex<EventRing>,
    seq: AtomicU64,
    pub(crate) table: Table,
    now_tick: AtomicU64,
    pub(crate) profile: ShardProfileSlot,
    tail: ShardTailSlot,
}

impl ShardSlot {
    fn new(shard: usize, config: &ObsConfig, epoch: Instant) -> Self {
        ShardSlot {
            epoch,
            ring: Mutex::new(EventRing::new(RING_CAPACITY)),
            seq: AtomicU64::new(0),
            table: Table::new(shard),
            now_tick: AtomicU64::new(0),
            profile: ShardProfileSlot::new(config.enabled && config.profile, config.profile_sample),
            tail: ShardTailSlot::default(),
        }
    }
}

/// The metrics registry: one slot per shard, no global lock anywhere.
///
/// Every metric is a cell of atomics in its slot's table; the event ring
/// is behind a per-shard `Mutex` held only for a push or a drain.
/// Aggregation ([`ObsRegistry::snapshot`]) visits slots one by one,
/// exactly like `ShardedMiddleware::stats` aggregates
/// `MiddlewareStats`.
#[derive(Debug)]
pub struct ObsRegistry {
    config: ObsConfig,
    pub(crate) epoch: Instant,
    slots: Vec<ShardSlot>,
}

impl ObsRegistry {
    /// A registry with `shards` slots.
    pub fn new(config: ObsConfig, shards: usize) -> Self {
        // One epoch shared by every slot so span timestamps from
        // different shards (and tail stamps) line up on one timeline.
        let epoch = Instant::now();
        let slots = (0..shards)
            .map(|shard| ShardSlot::new(shard, &config, epoch))
            .collect();
        ObsRegistry {
            config,
            epoch,
            slots,
        }
    }

    /// [`ObsRegistry::new`] wrapped in the `Arc` the handles need.
    pub fn shared(config: ObsConfig, shards: usize) -> Arc<Self> {
        Arc::new(ObsRegistry::new(config, shards))
    }

    /// The configuration the registry was built with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// A cheap per-shard recording handle. A handle from a disabled
    /// registry is indistinguishable from [`ShardObs::disabled`].
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range on an enabled registry.
    pub fn handle(self: &Arc<Self>, shard: usize) -> ShardObs {
        if !self.config.enabled {
            return ShardObs::disabled();
        }
        assert!(shard < self.slots.len(), "shard {shard} out of range");
        ShardObs {
            inner: Some(ShardObsInner {
                registry: Arc::clone(self),
                shard,
            }),
        }
    }

    /// Drains every shard's ring and returns the combined trace ordered
    /// by logical time (ties: shard, then per-shard sequence). Does not
    /// stall recording: each shard's lock is held only for its drain.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.ring.lock().drain());
            slot.table.ring[1].set(Some(0.0));
        }
        out.sort_by_key(|r| (r.at, r.shard, r.seq));
        out
    }

    /// Total events evicted from full rings across all shards (lifetime).
    pub fn dropped(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ring.lock().dropped())
            .sum::<u64>()
    }

    /// A point-in-time copy of every layer's cumulative state as
    /// labelled series — every shard's table of metric cells, read in
    /// one loop — plus the exemplar reservoirs, collected shard by shard
    /// without a global lock.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut series =
            vec![OBS_SHARDS.series(&[], Value::Gauge(Reading(self.slots.len() as f64)))];
        crate::table::report(self.slots.iter().map(|s| &s.table), &mut series);
        let exemplars = (self.slots.iter().enumerate())
            .flat_map(|(i, slot)| slot.tail.exemplars(i))
            .collect();
        ObsSnapshot {
            series: SeriesList(series),
            exemplars,
        }
    }

    /// The profiler's view of [`ObsRegistry::snapshot`]: per-phase
    /// totals, empty until a [`PhaseGuard`] records (i.e. always empty
    /// unless the registry was configured with
    /// [`ObsConfig::with_profile`]).
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot::of(&self.snapshot())
    }

    /// The most recent logical tick any shard published with its pool
    /// gauges ([`ShardObs::publish_pool`]), or 0: the clock SLO
    /// transitions are stamped with.
    pub fn now_tick(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.now_tick.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Drains every shard's completed-span ring into one list ordered
    /// by start time (ties: shard). Like [`ObsRegistry::drain`], each
    /// shard's lock is held only for its own drain.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            out.extend(slot.profile.drain_spans(i));
        }
        out.sort_by_key(|s| (s.start_ns, s.shard));
        out
    }

    fn record(&self, shard: usize, at: LogicalTime, event: TraceEvent) {
        if !self.config.trace_events {
            return;
        }
        let slot = &self.slots[shard];
        let seq = slot.seq.fetch_add(1, Ordering::Relaxed);
        // Each counter counts the records it describes: a `Received`
        // record is a provenance node and its chain's root edge.
        let count = |kind: CounterKind| slot.table.counters[kind.index()].add(1);
        count(CounterKind::EventsRecorded);
        match &event {
            TraceEvent::Received { .. } => {
                count(CounterKind::ProvNodes);
                count(CounterKind::ProvEdges);
            }
            TraceEvent::Caused { .. } => count(CounterKind::ProvEdges),
            _ => {}
        }
        let mut ring = slot.ring.lock();
        ring.push(TraceRecord {
            shard: shard as u32,
            seq,
            at: at.tick(),
            event,
        });
        slot.table.ring[0].store(ring.dropped());
        slot.table.ring[1].set(Some(ring.len() as f64));
    }
}

#[derive(Debug, Clone)]
struct ShardObsInner {
    registry: Arc<ObsRegistry>,
    shard: usize,
}

/// A cheap, cloneable per-shard recording handle, held by one shard's
/// engine (and its strategy). Disabled handles make every operation a
/// branch-and-return.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    inner: Option<ShardObsInner>,
}

impl ShardObs {
    /// A handle that records nothing (the default everywhere).
    pub fn disabled() -> Self {
        ShardObs { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shard this handle records for, when enabled.
    pub fn shard(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.shard)
    }

    /// Whether this handle traces — true exactly when the registry
    /// traces events ([`ObsConfig::trace_events`]). Emitters check this
    /// before building any [`TraceEvent`], so runs without tracing pay
    /// nothing for the records.
    pub fn provenance_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.registry.config.trace_events)
    }

    /// This handle's shard slot, when enabled.
    fn slot(&self) -> Option<&ShardSlot> {
        self.slot_if(|_| true)
    }

    /// This handle's shard slot, when enabled and the registry's config
    /// passes `on`.
    fn slot_if(&self, on: impl Fn(&ObsConfig) -> bool) -> Option<&ShardSlot> {
        self.inner
            .as_ref()
            .filter(|i| on(&i.registry.config))
            .map(|i| &i.registry.slots[i.shard])
    }

    /// Records a trace event stamped `at`. A handle that does not trace
    /// ([`ShardObs::provenance_enabled`]) drops it.
    pub fn record(&self, at: LogicalTime, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.registry.record(inner.shard, at, event);
        }
    }

    /// Bumps a per-shard counter by `n`.
    pub fn count(&self, kind: CounterKind, n: u64) {
        if let Some(slot) = self.slot() {
            slot.table.counters[kind.index()].add(n);
        }
    }

    /// Records one observation into a per-shard histogram.
    pub fn observe(&self, kind: MetricKind, value: u64) {
        if let Some(slot) = self.slot() {
            slot.table.histograms[kind.index()].add(value);
        }
    }

    /// Whether health telemetry is on for this handle — true only when
    /// the registry records at all *and* was configured with
    /// [`ObsConfig::health`]. Engines check this before bumping kind
    /// cells or publishing watermarks, so health-off runs pay nothing
    /// for the quality layer.
    pub fn health_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.registry.config.health)
    }

    /// Whether the hierarchical phase profiler is on for this handle —
    /// true only when the registry records at all *and* was configured
    /// with [`ObsConfig::with_profile`]. A [`ShardObs::phase`] guard
    /// from a profile-off handle is a branch-and-return.
    pub fn profile_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.registry.config.profile)
    }

    /// Opens a hierarchical phase span ending (and attributing its
    /// elapsed time, minus nested children, to `phase`) when dropped.
    /// Subject to the sampling divisor at root-span granularity.
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        self.guard(phase, None)
    }

    /// [`ShardObs::phase`] that also records its elapsed time into
    /// histogram `kind` whenever the handle is enabled, from the same
    /// two clock readings ([`PhaseGuard::start_ns`], [`PhaseGuard::finish`]).
    pub fn timed(&self, phase: Phase, kind: MetricKind) -> PhaseGuard<'_> {
        self.guard(phase, Some(kind))
    }

    fn guard(&self, phase: Phase, kind: Option<MetricKind>) -> PhaseGuard<'_> {
        match self.slot_if(|c| c.profile || kind.is_some()) {
            Some(slot) => crate::profile::begin(slot, phase, kind),
            None => PhaseGuard::disabled(),
        }
    }

    /// A per-kind quality-telemetry handle for this shard, interned on
    /// first use. Engines cache one handle per kind so the hot path is
    /// pure atomics; handles from a disabled (or health-off) registry
    /// record nothing.
    pub fn kind_handle(&self, kind: &str) -> KindHandle {
        match self.slot_if(|c| c.health) {
            Some(slot) => KindHandle::new(slot.table.kind(kind)),
            None => KindHandle::disabled(),
        }
    }

    /// Publishes this shard's arena gauges (occupied slots, free-list
    /// slots, lifetime slot recycles) stamped with the engine's
    /// logical clock.
    pub fn publish_pool(&self, live: u64, free: u64, recycles: u64, now_tick: u64) {
        if let Some(slot) = self.slot_if(|c| c.health) {
            let pool = &slot.table.pool;
            pool[0].set(Some(live as f64));
            pool[1].set(Some(free as f64));
            pool[2].store(recycles);
            slot.now_tick.store(now_tick, Ordering::Relaxed);
        }
    }

    /// Whether end-to-end tail telemetry is on for this handle — true
    /// only when the registry records at all *and* was configured with
    /// [`ObsConfig::with_tail`]. Engines check this before stamping
    /// context spans, so tail-off runs pay no clock reads.
    pub fn tail_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.registry.config.tail)
    }

    /// Nanoseconds since the registry epoch — the clock context-span
    /// stamps are taken on (shared across shards so cross-shard spans
    /// line up). Returns 0 from a disabled handle.
    pub fn now_ns(&self) -> u64 {
        self.slot().map_or(0, |slot| clock_ns(slot.epoch))
    }

    /// Folds one context's finished end-to-end span into the tail
    /// layer, capturing it as an [`Exemplar`] (stamped with the
    /// profiler phase path open at this instant) when it crossed the
    /// rolling p99 threshold.
    pub fn record_e2e(
        &self,
        ctx: ctxres_context::ContextId,
        outcome: TailOutcome,
        span: ContextSpan,
        at: LogicalTime,
    ) {
        let Some(inner) = self.inner.as_ref().filter(|i| i.registry.config.tail) else {
            return;
        };
        let slot = &inner.registry.slots[inner.shard];
        if !slot.tail.observe(&slot.table, outcome, span.total_ns()) {
            return;
        }
        let (phase_path, phase_depth) = slot.profile.current_path();
        slot.tail.capture(
            &slot.table,
            Exemplar {
                shard: inner.shard,
                ctx,
                outcome,
                span,
                phase_path,
                phase_depth,
                at: at.tick(),
            },
        );
    }

    /// Records one shard-lock wait interval (queue wait component).
    pub fn record_queue_wait(&self, ns: u64) {
        self.record_queue(0, ns);
    }

    /// Records one chunk service interval (queue service component).
    pub fn record_queue_service(&self, ns: u64) {
        self.record_queue(1, ns);
    }

    /// Adds one interval to the queue's time cell `cell` and to its
    /// count, two cells on.
    fn record_queue(&self, cell: usize, ns: u64) {
        if let Some(slot) = self.slot_if(|c| c.tail) {
            slot.table.queue[cell].add(ns);
            slot.table.queue[cell + 2].add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::ContextId;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Delivered {
            ctx: ContextId::from_raw(n),
        }
    }

    #[test]
    fn disabled_registry_hands_out_noop_handles() {
        let registry = ObsRegistry::shared(ObsConfig::disabled(), 3);
        let h = registry.handle(0);
        assert!(!h.is_enabled());
        h.record(LogicalTime::ZERO, ev(1));
        h.observe(MetricKind::QueueDepth, 9);
        h.count(CounterKind::Deliveries, 1);
        assert!(registry.drain().is_empty());
        assert_eq!(registry.snapshot().counter(CounterKind::Deliveries), 0);
    }

    #[test]
    fn drain_orders_by_time_then_shard() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        let a = registry.handle(0);
        let b = registry.handle(1);
        b.record(LogicalTime::new(5), ev(1));
        a.record(LogicalTime::new(2), ev(2));
        a.record(LogicalTime::new(5), ev(3));
        let trace = registry.drain();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].at, 2);
        assert_eq!((trace[1].at, trace[1].shard), (5, 0));
        assert_eq!((trace[2].at, trace[2].shard), (5, 1));
        assert!(registry.drain().is_empty(), "drain empties the rings");
    }

    #[test]
    fn dropped_counter_survives_drain() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let h = registry.handle(0);
        let events = RING_CAPACITY as u64 + 3;
        for i in 0..events {
            h.record(LogicalTime::new(i), ev(i));
        }
        assert_eq!(registry.dropped(), 3);
        assert_eq!(registry.drain().len(), RING_CAPACITY);
        assert_eq!(registry.dropped(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.total("ctxres_trace_events_dropped_total"), 3);
        assert_eq!(snap.counter(CounterKind::EventsRecorded), events);
    }

    #[test]
    fn aggregate_merges_all_shards() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 3);
        for shard in 0..3 {
            let h = registry.handle(shard);
            h.observe(MetricKind::DeltaSize, (shard as u64 + 1) * 10);
            h.count(CounterKind::Detections, shard as u64);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram(MetricKind::DeltaSize).count, 3);
        assert_eq!(snap.histogram(MetricKind::DeltaSize).sum, 60);
        assert_eq!(snap.counter(CounterKind::Detections), 3);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        registry.handle(1).observe(MetricKind::CheckLatency, 123);
        registry.handle(0).count(CounterKind::Discards, 7);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn metrics_only_records_counters_but_no_events() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let h = registry.handle(0);
        assert!(h.is_enabled());
        h.record(LogicalTime::new(1), ev(1));
        h.count(CounterKind::Ingested, 3);
        h.observe(MetricKind::QueueDepth, 7);
        assert!(registry.drain().is_empty(), "no ring pushes");
        assert_eq!(registry.dropped(), 0, "nothing pushed, nothing evicted");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterKind::EventsRecorded), 0);
        assert_eq!(snap.counter(CounterKind::Ingested), 3);
        assert_eq!(snap.histogram(MetricKind::QueueDepth).count, 1);
    }

    #[test]
    fn provenance_gate_follows_config() {
        // Provenance edges ride the trace rings: on exactly when the
        // registry traces events.
        let full = ObsRegistry::shared(ObsConfig::enabled(), 1);
        assert!(full.handle(0).provenance_enabled());

        // Every metrics-only variant records but never traces, so none
        // emits edges.
        for config in [
            ObsConfig::metrics_only(),
            ObsConfig::metrics_only().with_health(false),
            ObsConfig::metrics_only().with_profile(1),
            ObsConfig::metrics_only().with_tail(true),
        ] {
            let metrics = ObsRegistry::shared(config, 1);
            assert!(metrics.handle(0).is_enabled());
            assert!(!metrics.handle(0).provenance_enabled());
        }

        let disabled = ObsRegistry::shared(ObsConfig::disabled(), 1);
        assert!(!disabled.handle(0).provenance_enabled());
        assert!(!ShardObs::disabled().provenance_enabled());
    }

    #[test]
    fn profile_gate_follows_config() {
        let profiled = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(4), 1);
        assert!(profiled.handle(0).profile_enabled());
        assert_eq!(profiled.config().profile_sample, 4);

        let plain = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        assert!(!plain.handle(0).profile_enabled());

        assert!(!ShardObs::disabled().profile_enabled());
        // A zero divisor is clamped to "record everything".
        assert_eq!(ObsConfig::metrics_only().with_profile(0).profile_sample, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_handle_panics() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let _ = registry.handle(5);
    }
}

#[cfg(test)]
mod aggregation_proptests {
    //! The cross-shard aggregation oracle: splitting a stream of
    //! observations across N shards and aggregating must equal feeding
    //! the same stream to a single-shard registry.

    use super::*;
    use crate::metrics::{Histogram, HistogramSnapshot, COUNTER_KINDS, METRIC_KINDS};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sharded_aggregate_equals_single_shard_oracle(
            values in proptest::collection::vec((0u64..1 << 20, 0usize..4), 0..64),
            shards in 1usize..5,
        ) {
            let sharded = ObsRegistry::shared(ObsConfig::enabled(), shards);
            let single = ObsRegistry::shared(ObsConfig::enabled(), 1);
            for (i, (v, kind_ix)) in values.iter().enumerate() {
                let kind = METRIC_KINDS[*kind_ix];
                sharded.handle(i % shards).observe(kind, *v);
                single.handle(0).observe(kind, *v);
                sharded.handle(i % shards).count(CounterKind::Detections, *v % 3);
                single.handle(0).count(CounterKind::Detections, *v % 3);
            }
            let (agg, oracle) = (sharded.snapshot(), single.snapshot());
            for kind in METRIC_KINDS {
                prop_assert_eq!(agg.histogram(kind), oracle.histogram(kind));
            }
            for kind in COUNTER_KINDS {
                prop_assert_eq!(agg.counter(kind), oracle.counter(kind));
            }
        }

        #[test]
        fn histogram_snapshot_serde_round_trip(
            values in proptest::collection::vec(0u64..u64::MAX / 128, 0..32),
        ) {
            let h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let snap = h.snapshot();
            let json = serde_json::to_string(&snap).unwrap();
            let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, snap);
        }
    }
}
