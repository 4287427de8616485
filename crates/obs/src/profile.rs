//! Hierarchical phase profiler — *where* the engine's wall-clock goes.
//!
//! The flat latency histograms answer "how long does a check take";
//! they cannot answer "which phase moved" when a benchmark series
//! regresses. This module adds exact nested attribution over a fixed
//! phase taxonomy:
//!
//! * a [`Phase`] enum naming the nine pipeline stages the middleware
//!   executes, from batch ingest down to telemetry export;
//! * per-shard **preallocated span stacks**: opening a [`PhaseGuard`]
//!   pushes a fixed-size frame, closing it charges the elapsed time to
//!   the phase's *total* and the elapsed minus the time spent in nested
//!   child guards to its *self* time. Self times therefore telescope:
//!   the self times across a root span's subtree sum exactly to the
//!   root's total (asserted by proptest below);
//! * bounded per-shard **span rings** keeping the most recent
//!   [`SPAN_RING_CAPACITY`] completed spans with their full phase path
//!   for flamegraph / Chrome-trace export. Overflow evicts the oldest
//!   span and bumps a dropped counter — truncation is never silent and
//!   never stalls the hot path;
//! * per-phase cells (self ns, total ns, calls; [`PHASE_CELLS`]) and
//!   the shard's root, sampled-root and evicted-span counts
//!   ([`ROOT_CELLS`]), kept in the shard's metric table
//!   (`crate::table`) like every other layer's and reported once
//!   written;
//! * a **sampling divisor** ([`crate::ObsConfig::profile_sample`]):
//!   only every N-th *root* span records. A root is either fully
//!   recorded or fully skipped — nested guards under a skipped root pay
//!   one uncontended lock and an increment, no clock reads — so
//!   self/total ratios stay unbiased while the amortized cost drops by
//!   the divisor;
//! * **one timer**: a [`crate::ShardObs::timed`] guard's two clock
//!   readings also feed a latency histogram and the tail stamps.
//!
//! A slot's stack assumes one thread at a time, which holds for shard
//! engines (each lives behind its own mutex) and for the engine slot
//! (touched only by the routing/driver thread). Interleaved use from
//! several threads would misattribute parent/child time but is
//! memory-safe and cannot panic.

use crate::metrics::MetricKind;
use crate::registry::{clock_ns, ShardSlot};
use crate::snapshot::{Family, MetricType, ObsSnapshot, Reading, Series, Value as SeriesValue};
use crate::table::{Group, Table};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Maximum phase-span nesting depth. Deeper guards are counted as
/// skipped (bounded memory, no allocation, no panic).
pub const MAX_PHASE_DEPTH: usize = 16;

/// Completed spans kept per shard for trace export; the oldest span is
/// evicted (and counted) when the ring is full.
pub const SPAN_RING_CAPACITY: usize = 1 << 14;

/// The fixed pipeline stages the profiler attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Batch ingest: `Middleware::batch_add` on a shard engine, and the
    /// batch partitioning/routing loop on the engine slot.
    Ingest,
    /// Index/arena maintenance: expiry processing, retention pruning,
    /// pool compaction (`process_due`).
    IndexMaint,
    /// Incremental consistency checking (the compiled evaluator).
    ConstraintCheck,
    /// Strategy resolution (`on_addition` / `on_use`).
    Resolution,
    /// Situation re-evaluation rounds (`SituationEngine`).
    SituationEval,
    /// Typed cause-edge (provenance) emission.
    ProvenanceEmit,
    /// Health/quality telemetry publication (`publish_health`).
    HealthPublish,
    /// Shard-plan rebalancing (`apply_plan`: extract + adopt).
    Rebalance,
    /// Telemetry export: sampler windows, exposition rendering.
    Export,
}

/// Every [`Phase`], in index order.
pub const PHASES: [Phase; 9] = [
    Phase::Ingest,
    Phase::IndexMaint,
    Phase::ConstraintCheck,
    Phase::Resolution,
    Phase::SituationEval,
    Phase::ProvenanceEmit,
    Phase::HealthPublish,
    Phase::Rebalance,
    Phase::Export,
];

impl Phase {
    /// Index of the phase's cells in a shard's table: its position in
    /// [`PHASES`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The phase at `index`, when in range.
    pub fn from_index(index: usize) -> Option<Phase> {
        PHASES.get(index).copied()
    }

    /// Snake-case phase name (stable; used in exports and folded
    /// stacks).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::IndexMaint => "index_maint",
            Phase::ConstraintCheck => "constraint_check",
            Phase::Resolution => "resolution",
            Phase::SituationEval => "situation_eval",
            Phase::ProvenanceEmit => "provenance_emit",
            Phase::HealthPublish => "health_publish",
            Phase::Rebalance => "rebalance",
            Phase::Export => "export",
        }
    }
}

/// One open span on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    phase: Phase,
    /// Opening reading, nanoseconds since the registry epoch.
    start_ns: u64,
    child_ns: u64,
}

/// The mutable per-shard profiling state, behind one uncontended mutex.
#[derive(Debug)]
struct SpanStack {
    /// Open frames, preallocated to [`MAX_PHASE_DEPTH`] when profiling
    /// is configured on — pushes never allocate.
    frames: Vec<Frame>,
    /// Depth of guards currently inside a skipped (unsampled or
    /// overflowed) subtree; nonzero means "record nothing".
    skipping: u32,
    /// Completed spans, preallocated to [`SPAN_RING_CAPACITY`].
    ring: Vec<SpanRecord>,
    /// Next overwrite position once the ring is full.
    ring_next: usize,
}

impl SpanStack {
    /// A new guard's place on the stack, counting roots in `roots`.
    /// Roots are admitted by the sampling divisor; guards under a
    /// skipped root (or past [`MAX_PHASE_DEPTH`]) only track balance.
    fn admit(&mut self, sample_every: u32, roots: &Group) -> Held {
        if self.skipping > 0 {
            self.skipping += 1;
            return Held::Skipped;
        }
        if self.frames.is_empty() {
            // The stack's lock orders every write of the root count.
            let seq = roots[0].read().0.counter();
            roots[0].add(1);
            if sample_every > 1 && !seq.is_multiple_of(u64::from(sample_every)) {
                self.skipping = 1;
                return Held::Skipped;
            }
            roots[1].add(1);
        }
        if self.frames.len() >= MAX_PHASE_DEPTH || self.frames.len() == self.frames.capacity() {
            self.skipping = 1;
            return Held::Skipped;
        }
        Held::Frame
    }
}

/// One shard's profiler state: the span stack and completed-span ring.
/// Its counts are cells in the shard's metric table.
#[derive(Debug)]
pub(crate) struct ShardProfileSlot {
    on: bool,
    sample_every: u32,
    stack: Mutex<SpanStack>,
}

impl ShardProfileSlot {
    /// With profiling configured `on`, reserves the stack and ring up
    /// front; otherwise both stay empty and unused.
    pub(crate) fn new(on: bool, sample_every: u32) -> Self {
        let (frames, ring) = if on {
            (
                Vec::with_capacity(MAX_PHASE_DEPTH),
                Vec::with_capacity(SPAN_RING_CAPACITY),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        ShardProfileSlot {
            on,
            sample_every: sample_every.max(1),
            stack: Mutex::new(SpanStack {
                frames,
                skipping: 0,
                ring,
                ring_next: 0,
            }),
        }
    }

    fn end_skipped(&self) {
        let mut st = self.stack.lock();
        st.skipping = st.skipping.saturating_sub(1);
    }

    /// The packed phase path of the currently open frames (4 bits per
    /// level, root in the lowest nibble — the same packing as
    /// [`SpanRecord::path`]) and its depth. `(0, 0)` when nothing is
    /// open or profiling is off. The tail layer stamps exemplars with
    /// this so a slow context points straight at the phase it finished
    /// under.
    pub(crate) fn current_path(&self) -> (u64, u8) {
        let st = self.stack.lock();
        let mut path = 0u64;
        for (i, f) in st.frames.iter().enumerate().take(MAX_PHASE_DEPTH) {
            path |= (f.phase.index() as u64) << (4 * i);
        }
        (path, st.frames.len() as u8)
    }

    /// Closes the top frame at reading `end_ns`.
    fn end_recording(&self, table: &Table, end_ns: u64) {
        let mut st = self.stack.lock();
        let Some(frame) = st.frames.pop() else { return };
        let elapsed = end_ns.saturating_sub(frame.start_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        let cells = &table.phases[frame.phase.index()];
        cells[0].add(self_ns);
        cells[1].add(elapsed);
        cells[2].add(1);

        let mut path = 0u64;
        for (i, f) in st.frames.iter().enumerate() {
            path |= (f.phase.index() as u64) << (4 * i);
        }
        let depth = st.frames.len();
        path |= (frame.phase.index() as u64) << (4 * depth);
        if let Some(parent) = st.frames.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed);
        }
        let record = SpanRecord {
            shard: 0,
            path,
            depth: depth as u8,
            start_ns: frame.start_ns,
            dur_ns: elapsed,
            self_ns,
        };
        if st.ring.len() < st.ring.capacity() {
            st.ring.push(record);
        } else if st.ring.capacity() > 0 {
            let next = st.ring_next;
            st.ring[next] = record;
            st.ring_next = (next + 1) % st.ring.capacity();
            table.roots[2].add(1);
        }
    }

    /// Drains the completed-span ring in chronological order, stamping
    /// each record with `shard`. The dropped counter is cumulative and
    /// survives the drain.
    pub(crate) fn drain_spans(&self, shard: usize) -> Vec<SpanRecord> {
        let mut st = self.stack.lock();
        let full = st.ring.len() == st.ring.capacity() && !st.ring.is_empty();
        let split = if full { st.ring_next } else { 0 };
        let mut out = Vec::with_capacity(st.ring.len());
        out.extend_from_slice(&st.ring[split..]);
        out.extend_from_slice(&st.ring[..split]);
        for r in &mut out {
            r.shard = shard as u32;
        }
        st.ring.clear();
        st.ring_next = 0;
        out
    }
}

/// What a guard holds on its shard's span stack: nothing (profiler
/// off), a place in a skipped subtree, or a recording frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Nothing,
    Skipped,
    Frame,
}

/// Opens a guard for `phase` on `slot`: a place on its span stack when
/// the profiler is on, and a clock reading when the guard holds a frame
/// or times `kind`.
pub(crate) fn begin(slot: &ShardSlot, phase: Phase, kind: Option<MetricKind>) -> PhaseGuard<'_> {
    let mut st = slot.profile.on.then(|| slot.profile.stack.lock());
    let held = (st.as_deref_mut()).map_or(Held::Nothing, |st| {
        st.admit(slot.profile.sample_every, &slot.table.roots)
    });
    let timed = held == Held::Frame || kind.is_some();
    let start_ns = if timed { clock_ns(slot.epoch) } else { 0 };
    if let (Some(st), Held::Frame) = (st.as_deref_mut(), held) {
        st.frames.push(Frame {
            phase,
            start_ns,
            child_ns: 0,
        });
    }
    PhaseGuard {
        slot: Some(slot),
        start_ns,
        kind,
        held,
    }
}

/// RAII guard for one phase span: records on drop (or [`finish`]), and
/// from [`crate::ShardObs::timed`] also into a latency histogram. It
/// reads the clock at most once when it opens and once when it closes.
///
/// [`finish`]: PhaseGuard::finish
#[derive(Debug)]
#[must_use = "a phase guard measures the scope it is bound to; dropping it immediately attributes nothing useful"]
pub struct PhaseGuard<'a> {
    slot: Option<&'a ShardSlot>,
    start_ns: u64,
    kind: Option<MetricKind>,
    held: Held,
}

impl PhaseGuard<'_> {
    /// A guard that records nothing.
    pub(crate) fn disabled() -> Self {
        PhaseGuard {
            slot: None,
            start_ns: 0,
            kind: None,
            held: Held::Nothing,
        }
    }

    /// The opening reading (nanoseconds since the registry epoch), or 0
    /// when the guard took none.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Ends the span early (otherwise it ends when dropped) and returns
    /// the closing reading, or 0 when the guard took none.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(slot) = self.slot.take() else {
            return 0;
        };
        let timed = self.held == Held::Frame || self.kind.is_some();
        let end_ns = if timed { clock_ns(slot.epoch) } else { 0 };
        match self.held {
            Held::Frame => slot.profile.end_recording(&slot.table, end_ns),
            Held::Skipped => slot.profile.end_skipped(),
            Held::Nothing => {}
        }
        if let Some(kind) = self.kind {
            slot.table.histograms[kind.index()].add(end_ns.saturating_sub(self.start_ns));
        }
        end_ns
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// One completed span, kept in the per-shard ring for trace export.
///
/// The phase path is packed four bits per nesting level into
/// [`SpanRecord::path`] (level 0 — the root — in the lowest nibble):
/// [`MAX_PHASE_DEPTH`] levels of up to 16 phases fit one `u64`, which
/// keeps the record `Copy`, allocation-free, and serde-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The shard the span ran on (stamped when drained).
    pub shard: u32,
    /// Packed phase indexes from the root (lowest nibble) down to this
    /// span's own phase at nibble [`SpanRecord::depth`].
    pub path: u64,
    /// This span's depth: 0 for a root.
    pub depth: u8,
    /// Start offset from the registry's construction instant (ns).
    pub start_ns: u64,
    /// Wall-clock duration (ns).
    pub dur_ns: u64,
    /// Duration minus time spent in nested child spans (ns).
    pub self_ns: u64,
}

impl SpanRecord {
    fn level(&self, i: usize) -> usize {
        ((self.path >> (4 * i)) & 0xF) as usize
    }

    /// The phases from the root down to this span.
    pub fn stack(&self) -> impl Iterator<Item = Phase> + '_ {
        (0..=usize::from(self.depth)).filter_map(|i| Phase::from_index(self.level(i)))
    }

    /// This span's own (leaf) phase, when the record is well-formed.
    pub fn phase(&self) -> Option<Phase> {
        Phase::from_index(self.level(usize::from(self.depth)))
    }

    /// The semicolon-joined folded-stack frame path, rooted at the
    /// shard: `shard0;ingest;constraint_check`.
    pub fn folded_key(&self) -> String {
        let mut key = format!("shard{}", self.shard);
        for p in self.stack() {
            key.push(';');
            key.push_str(p.name());
        }
        key
    }
}

/// One phase's accumulated cost (cumulative or windowed, by context).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// The phase's stable snake-case name.
    pub phase: String,
    /// Wall-clock nanoseconds inside the phase, children included.
    pub total_ns: u64,
    /// Nanoseconds inside the phase minus its nested children.
    pub self_ns: u64,
    /// Completed spans.
    pub calls: u64,
}

const SHARD: &[&str] = &["shard"];
const SHARD_PHASE: &[&str] = &["shard", "phase"];

/// Per-(shard, phase) self time, children excluded.
const SELF_NS: Family = Family::scaled(
    MetricType::Counter,
    "ctxres_phase_self_seconds_total",
    SHARD_PHASE,
    1e9,
);
/// Per-(shard, phase) wall-clock time, children included.
const TOTAL_NS: Family = Family::scaled(
    MetricType::Counter,
    "ctxres_phase_total_seconds_total",
    SHARD_PHASE,
    1e9,
);
const CALLS: Family = Family::new(MetricType::Counter, "ctxres_phase_calls_total", SHARD_PHASE);
const ROOTS: Family = Family::new(MetricType::Counter, "ctxres_phase_roots_total", SHARD);
const SAMPLED_ROOTS: Family = Family::new(
    MetricType::Counter,
    "ctxres_phase_sampled_roots_total",
    SHARD,
);
const SPANS_DROPPED: Family = Family::new(
    MetricType::Counter,
    "ctxres_phase_spans_dropped_total",
    SHARD,
);
/// Each phase's share of the window's cross-shard self time.
const SELF_SHARE: Family = Family::new(MetricType::Gauge, "ctxres_phase_self_share", &["phase"]);
/// A (shard, phase)'s cells, in cell order: self time, total time,
/// completed spans.
pub(crate) const PHASE_CELLS: [Family; 3] = [SELF_NS, TOTAL_NS, CALLS];
/// A shard's root cells, in cell order: roots opened, roots sampled,
/// spans evicted from the full ring.
pub(crate) const ROOT_CELLS: [Family; 3] = [ROOTS, SAMPLED_ROOTS, SPANS_DROPPED];

/// The profiler families, in exposition order.
pub(crate) fn families() -> Vec<Family> {
    let mut out = PHASE_CELLS.to_vec();
    out.extend(ROOT_CELLS);
    out.push(SELF_SHARE);
    out
}

/// Each phase's share of the window's cross-shard self time, for the
/// phases that completed a span in the window.
pub(crate) fn derive(series: &[Series], out: &mut Vec<Series>) {
    let mut self_ns = [0u64; PHASES.len()];
    let mut calls = [0u64; PHASES.len()];
    for s in series {
        let slot = if s.family == SELF_NS.name {
            &mut self_ns
        } else if s.family == CALLS.name {
            &mut calls
        } else {
            continue;
        };
        if let Some(p) = PHASES
            .iter()
            .position(|p| s.label("phase") == Some(p.name()))
        {
            slot[p] += s.delta();
        }
    }
    let total: u64 = self_ns.iter().sum();
    if total == 0 {
        return;
    }
    for (i, phase) in PHASES.iter().enumerate().filter(|(i, _)| calls[*i] > 0) {
        let share = self_ns[i] as f64 / total as f64;
        out.push(SELF_SHARE.series(&[phase.name()], SeriesValue::Gauge(Reading(share))));
    }
}

/// One all-zero stat per phase, in [`PHASES`] order.
fn zero_stats() -> Vec<PhaseStat> {
    PHASES
        .iter()
        .map(|p| PhaseStat {
            phase: p.name().to_owned(),
            total_ns: 0,
            self_ns: 0,
            calls: 0,
        })
        .collect()
}

/// The profiler's view of one [`ObsSnapshot`] (see
/// [`crate::ObsRegistry::profile_snapshot`]): per-shard, per-phase
/// stats read back from the phase families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Per-shard stats in [`PHASES`] order, in shard order.
    pub shards: Vec<Vec<PhaseStat>>,
}

impl ProfileSnapshot {
    /// Reads the phase families of `snapshot`.
    pub fn of(snapshot: &ObsSnapshot) -> Self {
        let shards = snapshot
            .family(crate::metrics::OBS_SHARDS.name)
            .find_map(|s| s.value.gauge())
            .unwrap_or(0.0) as usize;
        let mut out = ProfileSnapshot {
            shards: vec![zero_stats(); shards],
        };
        for s in snapshot.iter() {
            let shard = s.label("shard").and_then(|v| v.parse::<usize>().ok());
            let phase = PHASES
                .iter()
                .position(|p| s.label("phase") == Some(p.name()));
            let (Some(shard), Some(phase)) = (shard, phase) else {
                continue;
            };
            let Some(stat) = out.shards.get_mut(shard).map(|st| &mut st[phase]) else {
                continue;
            };
            let n = s.value.counter();
            if s.family == SELF_NS.name {
                stat.self_ns = n;
            } else if s.family == TOTAL_NS.name {
                stat.total_ns = n;
            } else if s.family == CALLS.name {
                stat.calls = n;
            }
        }
        out
    }

    /// Whether no span has completed anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().flatten().all(|p| p.calls == 0)
    }

    /// Cross-shard per-phase sums, in [`PHASES`] order.
    pub fn aggregate(&self) -> Vec<PhaseStat> {
        let mut total = zero_stats();
        for shard in &self.shards {
            for (acc, s) in total.iter_mut().zip(shard) {
                acc.total_ns += s.total_ns;
                acc.self_ns += s.self_ns;
                acc.calls += s.calls;
            }
        }
        total
    }
}

/// A prebuilt [`Value`] tree that serializes as itself — lets the
/// trace renderer emit heterogeneous JSON (metadata + span events)
/// without a derive. Used by the tests to parse the output back, too.
#[derive(Debug, Clone)]
struct RawValue(Value);

impl Serialize for RawValue {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

impl<'de> Deserialize<'de> for RawValue {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_value().map(RawValue)
    }
}

fn vmap(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn vstr(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Renders completed spans as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form Perfetto and `chrome://tracing`
/// load): one complete (`"ph": "X"`) event per span with microsecond
/// timestamps, `tid` = shard, plus thread-name metadata per shard.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut events: Vec<Value> = Vec::new();
    let shards: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.shard).collect();
    for sh in &shards {
        events.push(vmap(vec![
            ("name", vstr("thread_name")),
            ("ph", vstr("M")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(u64::from(*sh))),
            ("args", vmap(vec![("name", vstr(format!("shard {sh}")))])),
        ]));
    }
    for s in spans {
        let Some(phase) = s.phase() else { continue };
        events.push(vmap(vec![
            ("name", vstr(phase.name())),
            ("cat", vstr("phase")),
            ("ph", vstr("X")),
            ("ts", Value::F64(s.start_ns as f64 / 1000.0)),
            ("dur", Value::F64(s.dur_ns as f64 / 1000.0)),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(u64::from(s.shard))),
            (
                "args",
                vmap(vec![
                    ("self_ns", Value::U64(s.self_ns)),
                    ("stack", vstr(s.folded_key())),
                ]),
            ),
        ]));
    }
    let doc = RawValue(vmap(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", vstr("ms")),
    ]));
    serde_json::to_string(&doc).expect("trace events serialize")
}

/// Renders completed spans as inferno-compatible folded stacks: one
/// `frame;frame;... <count>` line per distinct phase path (rooted at
/// the shard), counts in self-time nanoseconds, sorted by path.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        *agg.entry(s.folded_key()).or_insert(0) += s.self_ns;
    }
    let mut out = String::new();
    for (key, self_ns) in agg {
        out.push_str(&key);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Parses a Chrome trace-event document back and returns the number of
/// events in its `traceEvents` array — the validation counterpart of
/// [`chrome_trace_json`], used by the `profile` binary and CI to assert
/// the written artifact is loadable before anyone opens it in Perfetto.
///
/// # Errors
///
/// Returns a description of the first structural problem: unparseable
/// JSON, a non-object top level, or a missing/non-array `traceEvents`.
pub fn validate_trace_json(text: &str) -> Result<usize, String> {
    let RawValue(doc) =
        serde_json::from_str(text).map_err(|e| format!("trace JSON does not parse: {e}"))?;
    let Value::Map(entries) = doc else {
        return Err("trace top level is not an object".to_owned());
    };
    let events = entries
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or_else(|| "trace is missing the traceEvents key".to_owned())?;
    let Value::Seq(events) = events else {
        return Err("traceEvents is not an array".to_owned());
    };
    Ok(events.len())
}

/// Parses folded stacks back into `(frames, count)` rows — the
/// round-trip counterpart of [`folded_stacks`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count: {line:?}", i + 1))?;
        let count: u64 = count
            .parse()
            .map_err(|e| format!("line {}: bad count: {e}", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_owned).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame: {line:?}", i + 1));
        }
        out.push((frames, count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry, ShardObs};

    fn profiled(shards: usize, every: u32) -> std::sync::Arc<ObsRegistry> {
        ObsRegistry::shared(ObsConfig::metrics_only().with_profile(every), shards)
    }

    /// `(roots, sampled roots, evicted spans)` across shards.
    pub(super) fn roots(registry: &ObsRegistry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        (
            snap.total(ROOTS.name),
            snap.total(SAMPLED_ROOTS.name),
            snap.total(SPANS_DROPPED.name),
        )
    }

    #[test]
    fn phase_indexes_are_dense_and_names_stable() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), Some(*p));
            assert!(!p.name().is_empty());
        }
        assert_eq!(Phase::from_index(PHASES.len()), None);
    }

    #[test]
    fn disabled_and_profile_off_guards_record_nothing() {
        let off = ShardObs::disabled();
        assert!(!off.profile_enabled());
        off.phase(Phase::Ingest).finish();

        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let h = registry.handle(0);
        assert!(!h.profile_enabled());
        {
            let _g = h.phase(Phase::Ingest);
        }
        assert!(registry.profile_snapshot().is_empty());
        assert!(registry.drain_spans().is_empty());
    }

    #[test]
    fn timed_guards_share_their_readings() {
        use crate::metrics::MetricKind::{CheckLatency, ResolveLatency};
        let reads = crate::clock_reads();
        let off = ShardObs::disabled();
        let guard = off.timed(Phase::ConstraintCheck, CheckLatency);
        assert_eq!((guard.start_ns(), guard.finish()), (0, 0));
        assert_eq!(
            crate::clock_reads(),
            reads,
            "a disabled handle reads no clock"
        );

        // Profiler off: the two readings are the histogram's observation.
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let h = registry.handle(0);
        let guard = h.timed(Phase::ConstraintCheck, CheckLatency);
        let start = guard.start_ns();
        let end = guard.finish();
        assert_eq!(crate::clock_reads(), reads + 2);
        let check = registry.snapshot().histogram(CheckLatency);
        assert_eq!((check.count, check.sum), (1, end - start));
        assert!(registry.profile_snapshot().is_empty());

        // Profiler on: the same two readings are also the phase's span.
        let registry = profiled(1, 1);
        let h = registry.handle(0);
        let root = h.phase(Phase::Ingest);
        let guard = h.timed(Phase::Resolution, ResolveLatency);
        let start = guard.start_ns();
        let end = guard.finish();
        root.finish();
        assert_eq!(crate::clock_reads(), reads + 6, "two per guard");
        let resolve = registry.snapshot().histogram(ResolveLatency);
        assert_eq!((resolve.count, resolve.sum), (1, end - start));
        let spans = registry.drain_spans();
        let span = spans
            .iter()
            .find(|s| s.phase() == Some(Phase::Resolution))
            .expect("the resolution span");
        assert_eq!(
            (span.start_ns, span.dur_ns, span.depth),
            (start, end - start, 1)
        );
    }

    #[test]
    fn nested_guards_attribute_self_time_exactly() {
        let registry = profiled(1, 1);
        let h = registry.handle(0);
        {
            let _root = h.phase(Phase::Ingest);
            {
                let _check = h.phase(Phase::ConstraintCheck);
                std::hint::black_box(1 + 1);
            }
            {
                let _resolve = h.phase(Phase::Resolution);
            }
        }
        let snap = registry.profile_snapshot();
        assert!(!snap.is_empty());
        let sh = &snap.shards[0];
        assert_eq!(roots(&registry), (1, 1, 0));
        let ingest = &sh[Phase::Ingest.index()];
        let check = &sh[Phase::ConstraintCheck.index()];
        let resolve = &sh[Phase::Resolution.index()];
        assert_eq!((ingest.calls, check.calls, resolve.calls), (1, 1, 1));
        // Leaves have no children: self == total, exactly.
        assert_eq!(check.self_ns, check.total_ns);
        assert_eq!(resolve.self_ns, resolve.total_ns);
        // The parent's self is its total minus its children, exactly.
        assert_eq!(
            ingest.self_ns,
            ingest.total_ns - check.total_ns - resolve.total_ns
        );

        let spans = registry.drain_spans();
        assert_eq!(spans.len(), 3, "one record per completed span");
        let root = spans.iter().find(|s| s.depth == 0).unwrap();
        assert_eq!(root.phase(), Some(Phase::Ingest));
        let nested = spans
            .iter()
            .find(|s| s.phase() == Some(Phase::ConstraintCheck))
            .unwrap();
        assert_eq!(nested.folded_key(), "shard0;ingest;constraint_check");
        assert!(nested.start_ns >= root.start_ns);
    }

    #[test]
    fn sampling_divisor_admits_every_nth_root() {
        let registry = profiled(1, 3);
        let h = registry.handle(0);
        for _ in 0..7 {
            let _root = h.phase(Phase::Ingest);
            let _child = h.phase(Phase::Resolution);
        }
        let sh = &registry.profile_snapshot().shards[0];
        // Roots 0, 3, 6 record.
        assert_eq!(roots(&registry), (7, 3, 0));
        assert_eq!(sh[Phase::Ingest.index()].calls, 3);
        assert_eq!(sh[Phase::Resolution.index()].calls, 3);
        assert_eq!(registry.drain_spans().len(), 6);
    }

    #[test]
    fn depth_overflow_is_bounded_and_balanced() {
        let registry = profiled(1, 1);
        let h = registry.handle(0);
        {
            let mut guards = Vec::new();
            for _ in 0..MAX_PHASE_DEPTH + 5 {
                guards.push(h.phase(Phase::Ingest));
            }
        }
        let sh = &registry.profile_snapshot().shards[0];
        assert_eq!(sh[Phase::Ingest.index()].calls, MAX_PHASE_DEPTH as u64);
        // The stack is balanced again: a fresh root records normally.
        {
            let _g = h.phase(Phase::Rebalance);
        }
        let sh = &registry.profile_snapshot().shards[0];
        assert_eq!(sh[Phase::Rebalance.index()].calls, 1);
    }

    #[test]
    fn span_ring_eviction_is_counted_and_drain_is_chronological() {
        let registry = profiled(1, 1);
        let h = registry.handle(0);
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            let _g = h.phase(Phase::Export);
        }
        assert_eq!(roots(&registry).2, 10);
        let spans = registry.drain_spans();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(registry.drain_spans().is_empty(), "drain empties the ring");
        assert_eq!(roots(&registry).2, 10, "dropped count survives the drain");
    }

    #[test]
    fn phase_sample_windows_difference_snapshots() {
        // The sampler's own export span lands on the last slot, away
        // from the workload on slot 0.
        let registry = profiled(2, 1);
        let h = registry.handle(0);
        {
            let _g = h.phase(Phase::Ingest);
        }
        let mut sampler = crate::snapshot::Sampler::new(std::sync::Arc::clone(&registry));
        let baseline = sampler.sample_after(0.0);
        {
            let _g = h.phase(Phase::Ingest);
        }
        {
            let _g = h.phase(Phase::SituationEval);
        }
        let w = sampler.sample_after(1.0);
        let calls = |s: &crate::snapshot::Sample, phase: &str| {
            s.find(CALLS.name, &[("shard", "0"), ("phase", phase)])
                .map_or(0, |s| s.delta())
        };
        assert_eq!(
            calls(&w, "ingest"),
            1,
            "only the second ingest is in-window"
        );
        assert_eq!(calls(&w, "situation_eval"), 1);
        assert!(w.gauge(SELF_SHARE.name, &[("phase", "ingest")]).unwrap() > 0.0);
        assert_eq!(
            calls(&baseline, "ingest"),
            1,
            "the baseline covers the history"
        );
        let h2 = registry.handle(0);
        {
            let _g = h2.phase(Phase::Ingest);
        }
        assert_eq!(
            registry.profile_snapshot().aggregate()[Phase::Ingest.index()].calls,
            3
        );
    }

    #[test]
    fn snapshots_round_trip_through_serde() {
        let registry = profiled(2, 1);
        {
            let h = registry.handle(1);
            let _g = h.phase(Phase::Rebalance);
        }
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(ProfileSnapshot::of(&back), registry.profile_snapshot());

        let spans = registry.drain_spans();
        let json = serde_json::to_string(&spans).unwrap();
        let back: Vec<SpanRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spans);
    }

    fn field<'a>(map: &'a [(String, Value)], key: &str) -> &'a Value {
        &map.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing field {key:?}"))
            .1
    }

    fn as_str(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected string, found {other:?}"),
        }
    }

    fn is_number(v: &Value) -> bool {
        matches!(v, Value::I64(_) | Value::U64(_) | Value::F64(_))
    }

    #[test]
    fn chrome_trace_json_is_valid_and_loadable() {
        let registry = profiled(2, 1);
        for shard in 0..2 {
            let h = registry.handle(shard);
            let _root = h.phase(Phase::Ingest);
            let _child = h.phase(Phase::ConstraintCheck);
        }
        let spans = registry.drain_spans();
        let text = chrome_trace_json(&spans);
        let RawValue(doc) = serde_json::from_str(&text).expect("valid JSON");
        let Value::Map(doc) = doc else {
            panic!("top level must be an object")
        };
        assert_eq!(as_str(field(&doc, "displayTimeUnit")), "ms");
        let Value::Seq(events) = field(&doc, "traceEvents") else {
            panic!("traceEvents must be an array")
        };
        // 2 thread-name metadata + 4 spans.
        assert_eq!(events.len(), 6);
        for e in events {
            let Value::Map(e) = e else {
                panic!("every event must be an object")
            };
            let ph = as_str(field(e, "ph"));
            assert!(ph == "X" || ph == "M", "{ph:?}");
            assert!(is_number(field(e, "pid")) && is_number(field(e, "tid")));
            if ph == "X" {
                assert!(is_number(field(e, "ts")) && is_number(field(e, "dur")));
                assert!(!as_str(field(e, "name")).is_empty());
            }
        }
    }

    #[test]
    fn folded_stacks_round_trip_through_the_parser() {
        let registry = profiled(2, 1);
        for shard in 0..2 {
            let h = registry.handle(shard);
            let _root = h.phase(Phase::Ingest);
            {
                let _c = h.phase(Phase::ConstraintCheck);
            }
            {
                let _r = h.phase(Phase::Resolution);
            }
        }
        let spans = registry.drain_spans();
        let text = folded_stacks(&spans);
        assert!(!text.is_empty());
        let rows = parse_folded(&text).expect("parses");
        assert_eq!(rows.len(), 6, "3 distinct paths per shard");
        // Re-rendering the parsed rows reproduces the text exactly.
        let mut rebuilt = String::new();
        for (frames, count) in &rows {
            rebuilt.push_str(&frames.join(";"));
            rebuilt.push(' ');
            rebuilt.push_str(&count.to_string());
            rebuilt.push('\n');
        }
        assert_eq!(rebuilt, text);
        // And the parsed self-time total matches the recorded total.
        let parsed_total: u64 = rows.iter().map(|(_, c)| *c).sum();
        let recorded_total: u64 = spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(parsed_total, recorded_total);

        assert!(parse_folded("no-count-here\n").is_err());
        assert!(parse_folded("a;;b 3\n").is_err());
        assert!(parse_folded("a;b notanumber\n").is_err());
    }
}

#[cfg(test)]
mod invariant_proptests {
    //! The satellite properties:
    //!
    //! * **self times telescope**: for any nesting structure with a
    //!   dedicated root phase, the self times of every phase sum
    //!   exactly to the root phase's total — child time is subtracted
    //!   from the parent, nothing is lost or double-counted;
    //! * **windows telescope**: summing per-phase window deltas across
    //!   any snapshot schedule reproduces the final cumulative cells;
    //! * **sampling never skews structure**: with divisor `d`, exactly
    //!   `ceil(roots / d)` roots record, per-phase call counts keep
    //!   their per-root proportions, and leaf phases keep
    //!   `self == total` exactly — a root is all-or-nothing, so
    //!   self/total ratios are never biased by sampling.

    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry};
    use proptest::prelude::*;

    /// Children drawn from the non-root phases.
    const CHILD_PHASES: [Phase; 4] = [
        Phase::ConstraintCheck,
        Phase::Resolution,
        Phase::SituationEval,
        Phase::IndexMaint,
    ];

    fn run_root(h: &crate::registry::ShardObs, shape: &[(usize, bool)]) {
        let _root = h.phase(Phase::Ingest);
        for (child_ix, nest) in shape {
            let child = h.phase(CHILD_PHASES[*child_ix % CHILD_PHASES.len()]);
            if *nest {
                let _grandchild = h.phase(Phase::ProvenanceEmit);
            }
            child.finish();
        }
    }

    proptest! {
        #[test]
        fn self_times_telescope_to_the_root_total(
            roots in proptest::collection::vec(
                proptest::collection::vec((0usize..4, any::<bool>()), 0..6),
                1..8,
            ),
        ) {
            let registry = ObsRegistry::shared(
                ObsConfig::metrics_only().with_profile(1), 1);
            let h = registry.handle(0);
            for shape in &roots {
                run_root(&h, shape);
            }
            let sh = &registry.profile_snapshot().shards[0];
            let self_sum: u64 = sh.iter().map(|p| p.self_ns).sum();
            let root_total = sh[Phase::Ingest.index()].total_ns;
            prop_assert_eq!(self_sum, root_total);
            let n = roots.len() as u64;
            prop_assert_eq!(super::tests::roots(&registry), (n, n, 0));
            for p in sh {
                prop_assert!(p.self_ns <= p.total_ns, "{}: self > total", p.phase);
            }
        }

        #[test]
        fn window_deltas_telescope_across_snapshots(
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..4, any::<bool>()), 0..4),
                1..6,
            ),
        ) {
            // Two slots: the sampler's own export span lands on slot 1,
            // the workload runs on slot 0.
            let registry = ObsRegistry::shared(
                ObsConfig::metrics_only().with_profile(1), 2);
            let h = registry.handle(0);
            let mut sampler = crate::snapshot::Sampler::new(std::sync::Arc::clone(&registry));
            let mut summed = zero_stats();
            for shape in &batches {
                run_root(&h, shape);
                let w = sampler.sample_after(1.0);
                for s in w.family(SELF_NS.name).chain(w.family(TOTAL_NS.name)).chain(w.family(CALLS.name)) {
                    let (Some("0"), Some(p)) = (s.label("shard"), s.label("phase")) else { continue };
                    let stat = summed.iter_mut().find(|st| st.phase == p).unwrap();
                    let field = if s.family == SELF_NS.name {
                        &mut stat.self_ns
                    } else if s.family == TOTAL_NS.name {
                        &mut stat.total_ns
                    } else {
                        &mut stat.calls
                    };
                    *field += s.delta();
                }
            }
            prop_assert_eq!(&summed, &registry.profile_snapshot().shards[0]);
        }

        #[test]
        fn sampling_keeps_ratios_unbiased(
            roots in 1u64..40,
            every in 1u32..6,
        ) {
            let registry = ObsRegistry::shared(
                ObsConfig::metrics_only().with_profile(every), 1);
            let h = registry.handle(0);
            for _ in 0..roots {
                // Identical structure per root: one leaf child.
                let _root = h.phase(Phase::Ingest);
                let _child = h.phase(Phase::Resolution);
            }
            let sh = &registry.profile_snapshot().shards[0];
            let expected = roots.div_ceil(u64::from(every));
            prop_assert_eq!(super::tests::roots(&registry), (roots, expected, 0));
            let root = &sh[Phase::Ingest.index()];
            let leaf = &sh[Phase::Resolution.index()];
            // Structure is preserved under sampling: call counts stay
            // proportional (1:1 here) and leaves keep self == total,
            // so self/total ratios cannot be skewed by the divisor.
            prop_assert_eq!(root.calls, expected);
            prop_assert_eq!(leaf.calls, expected);
            prop_assert_eq!(leaf.self_ns, leaf.total_ns);
            prop_assert!(root.self_ns <= root.total_ns);
            prop_assert_eq!(root.self_ns, root.total_ns - leaf.total_ns);
        }
    }
}
