//! The run loop shared by every workload: the plain run that reports
//! the end-to-end metrics, and the traced run that reports per-layer
//! metrics from outside the engine.

use crate::alloc;
use crate::digest::Digest;
use crate::layers::{Instruments, ReplayCost};
use crate::measure::{
    median, nanos, quantile, Calibration, HeapProbe, CALIBRATION_EXPONENT, CALIBRATION_REF_S,
};
use crate::report::Report;
use crate::spans::SpanLog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// City trace through `ShardedMiddleware::batch_add_owned`.
    CityBatch,
    /// City trace through `Middleware::submit`, one context at a time.
    CityStream,
    /// The Figure 9/10 grids through `Middleware::submit`.
    PaperApps,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CityBatch,
        Workload::CityStream,
        Workload::PaperApps,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityBatch => "city-batch",
            Workload::CityStream => "city-stream",
            Workload::PaperApps => "paper-apps",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the city generator's seed, or the paper-apps seed
    /// index base.
    pub seed: u64,
    /// How long the plain run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Flip the reference digest (to show a mismatch fails the run).
    pub perturb_reference: bool,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// A calibrated episode reads the host's speed at least this often.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// What one episode — one pass over the workload's inputs through a
/// freshly set-up engine — measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Contexts submitted.
    pub contexts: u64,
    /// Wall time inside engine calls: ingest, maintenance, drains.
    pub engine_ns: u64,
    /// Time of every engine call, in call order, in microseconds.
    pub ops_us: Vec<f64>,
    /// Time of each ingest call, in microseconds.
    pub call_us: Vec<f64>,
    /// Set-up samples, in seconds.
    pub setup_s: Vec<f64>,
    /// In a calibrated episode, the kernel that reads the host's speed;
    /// the timings above are then in reference-host time (see
    /// [`plain`]). Without it they are wall time.
    calibration: Option<Box<Calibration>>,
    /// (Reference over measured kernel time)^[`CALIBRATION_EXPONENT`]
    /// at the last reading.
    scale: f64,
    /// When the last reading was taken.
    calibrated_at: Option<Instant>,
    /// Every kernel reading of the episode, in seconds.
    pub host_s: Vec<f64>,
    /// Contexts admitted with an evaluation error or lost to a panic.
    pub failed: u64,
    /// The verdict digest.
    pub digest: Digest,
    /// Verdicts already found to differ from a committed reference.
    pub mismatches: u64,
}

/// Upper bounds on the timings one episode records.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Engine calls.
    pub ops: usize,
    /// Ingest calls.
    pub calls: usize,
    /// Set-ups.
    pub setups: usize,
}

/// An empty buffer with room for `len` values whose pages are already
/// resident: the fill writes every element (a zero fill could be mapped
/// lazily), so filling it later adds nothing to the resident set.
fn resident(len: usize) -> Vec<f64> {
    let mut v = vec![f64::NAN; len];
    std::hint::black_box(&mut v);
    v.clear();
    v
}

impl Episode {
    /// An episode whose timing buffers are resident at `shape`'s sizes,
    /// timing in wall time.
    pub fn with_shape(shape: Shape) -> Self {
        Episode {
            ops_us: resident(shape.ops),
            call_us: resident(shape.calls),
            setup_s: resident(shape.setups),
            scale: 1.0,
            ..Episode::default()
        }
    }

    /// The same, timing in reference-host time: the host's speed is
    /// read when the episode starts and then every [`CALIBRATE_EVERY`],
    /// before the next engine call.
    fn calibrated(shape: Shape) -> Self {
        Episode {
            calibration: Some(Box::new(Calibration::new())),
            host_s: Vec::with_capacity(1024),
            ..Episode::with_shape(shape)
        }
    }

    /// Empties the episode for the next repeat, keeping its buffers and
    /// calibration (and taking a fresh reading).
    pub fn reset(&mut self) {
        let mut fresh = Episode {
            ops_us: std::mem::take(&mut self.ops_us),
            call_us: std::mem::take(&mut self.call_us),
            setup_s: std::mem::take(&mut self.setup_s),
            calibration: self.calibration.take(),
            host_s: std::mem::take(&mut self.host_s),
            scale: 1.0,
            ..Episode::default()
        };
        fresh.ops_us.clear();
        fresh.call_us.clear();
        fresh.setup_s.clear();
        fresh.host_s.clear();
        *self = fresh;
        if self.calibration.is_some() {
            self.calibrate();
        }
    }

    fn calibrate(&mut self) {
        if let Some(kernel) = self.calibration.as_mut() {
            let took = kernel.measure();
            self.scale = (CALIBRATION_REF_S / took).powf(CALIBRATION_EXPONENT);
            self.host_s.push(took);
            self.calibrated_at = Some(Instant::now());
        }
    }

    /// Reads the host's speed if the last reading is too old.
    fn calibrate_if_due(&mut self) {
        if self
            .calibrated_at
            .is_some_and(|t| t.elapsed() >= CALIBRATE_EVERY)
        {
            self.calibrate();
        }
    }

    /// `took` in the episode's time, in seconds.
    pub fn seconds(&self, took: Duration) -> f64 {
        took.as_secs_f64() * self.scale
    }

    /// `took` in the episode's time, in microseconds.
    pub fn micros(&self, took: Duration) -> f64 {
        self.seconds(took) * 1e6
    }

    /// The episode's counts and digest, without its timings.
    pub fn outcome(&self) -> Episode {
        Episode {
            contexts: self.contexts,
            engine_ns: self.engine_ns,
            failed: self.failed,
            digest: self.digest,
            mismatches: self.mismatches,
            ..Episode::default()
        }
    }

    /// Contexts per second of engine time.
    pub fn ctx_per_s(&self) -> f64 {
        self.contexts as f64 / (self.engine_ns.max(1) as f64 / 1e9)
    }
}

/// Per-layer readings of one traced episode, taken from outside.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Nanoseconds inside `ShardedMiddleware::batch_add_owned`.
    pub shard_batch_add_ns: u64,
    /// Nanoseconds in `subject_loads` + `ShardPlan::rebalance` + `apply_plan`.
    pub shard_rebalance_ns: u64,
    /// Rebalanced plans applied.
    pub shard_rebalances: u64,
    /// Max / mean contexts ingested per subject shard.
    pub shard_skew: f64,
    /// Nanoseconds inside `Middleware::submit`.
    pub submit_ns: u64,
    /// Nanoseconds inside `drain`.
    pub drain_ns: u64,
    /// Contexts removed by retention compaction.
    pub compacted: u64,
    /// Ingest call start to the first verdict, summed over calls (and
    /// over shards for sharded calls).
    pub stage_spec_ns: u64,
    /// First to last verdict of a call, summed likewise.
    pub commit_ns: u64,
    /// Ingest call start to each context's verdict, in microseconds.
    pub verdict_us: Vec<f64>,
    /// Rising-edge situation activations.
    pub situation_activations: u64,
    /// Pinned constraint evaluations.
    pub pinned_evals: u64,
    /// Full constraint evaluations.
    pub full_evals: u64,
    /// Detections the checkers returned.
    pub detections: u64,
    /// Peak stored contexts over all pools, sampled after each call.
    pub live_slots_max: u64,
    /// Arena slot recycles over all pools.
    pub slot_recycles: u64,
}

/// A workload: inputs made from the seed, an engine set up per episode,
/// a reference to check verdicts against.
pub trait Bench {
    /// Upper bounds on what one episode records.
    fn shape(&self) -> Shape;

    /// Runs one episode over the run's inputs (every episode of a run
    /// repeats the same work), recording into the empty `ep`. With
    /// instruments, attaches them and fills `layers`.
    fn episode(&mut self, inst: Option<&Instruments>, layers: &mut Layers, ep: &mut Episode);

    /// Checks every episode's verdicts against the reference.
    fn verify(&mut self, episodes: &[Episode], perturb: bool) -> bool;

    /// Isolated pool/checker replay over the workload's own trace.
    fn replay(&self) -> ReplayCost;

    /// Profiler registry slots the traced engines need.
    fn obs_slots(&self) -> usize;
}

/// Runs `f` as one engine call: times it, adds the time to the episode,
/// and (in a traced episode) counts its allocations. A calibrated
/// episode whose last host reading is due takes a new one first.
pub fn engine_call<R>(ep: &mut Episode, traced: bool, f: impl FnOnce() -> R) -> (R, Duration) {
    ep.calibrate_if_due();
    if traced {
        alloc::set_counting(true);
    }
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    if traced {
        alloc::set_counting(false);
    }
    ep.engine_ns += nanos(took);
    ep.ops_us.push(ep.micros(took));
    (out, took)
}

/// Opens a span for an engine call and marks it current, so callbacks
/// inside the call nest under it.
pub fn open_call(spans: &SpanLog, name: &'static str, parent: Option<u32>, tag: u64) -> u32 {
    let id = spans.open(name, parent, tag);
    spans.set_current(Some(id));
    id
}

/// Closes a span opened by [`open_call`].
pub fn close_call(spans: &SpanLog, id: u32) {
    spans.close(id);
    spans.set_current(None);
}

/// Adds a verdict-stamp batch to the layer readings: the first stamp
/// ends the stage/speculate part of the call, the last ends the commit.
pub fn fold_stamps(
    layers: &mut Layers,
    spans: &SpanLog,
    call: u32,
    tag: u64,
    start: Instant,
    stamps: &[Instant],
) {
    let (Some(&first), Some(&last)) = (stamps.first(), stamps.last()) else {
        return;
    };
    layers.stage_spec_ns += nanos(first.saturating_duration_since(start));
    layers.commit_ns += nanos(last.saturating_duration_since(first));
    spans.record("middleware.stage_spec", start, first, Some(call), tag);
    if last > first {
        spans.record("middleware.commit", first, last, Some(call), tag);
    }
    layers.verdict_us.extend(
        stamps
            .iter()
            .map(|t| t.saturating_duration_since(start).as_secs_f64() * 1e6),
    );
}

/// Repeats a plain run completes at the least, however short `--seconds`.
const MIN_REPEATS: usize = 3;

/// Repeats a plain run makes at the most: the timing tables are sized
/// for this many before the memory baseline is taken.
const MAX_REPEATS: usize = 64;

/// One timing per repeat at every position of the episode: row `r`
/// holds repeat `r`'s timings in call order. The storage is allocated
/// at full size and made resident up front, so filling it adds nothing
/// to the measured memory.
struct Table {
    width: usize,
    /// Positions every row filled (the shortest row, should rows differ).
    len: usize,
    rows: usize,
    cells: Vec<f32>,
}

impl Table {
    fn new(width: usize) -> Self {
        let mut cells = vec![f32::NAN; width * MAX_REPEATS];
        std::hint::black_box(&mut cells);
        Table {
            width,
            len: 0,
            rows: 0,
            cells,
        }
    }

    /// Appends one repeat's row (at most `width` long).
    fn push(&mut self, row: &[f64]) {
        let at = self.rows * self.width;
        for (cell, x) in self.cells[at..at + row.len()].iter_mut().zip(row) {
            *cell = *x as f32;
        }
        self.len = if self.rows == 0 {
            row.len()
        } else {
            self.len.min(row.len())
        };
        self.rows += 1;
    }

    /// Each position's median over the repeats.
    fn medians(&self) -> Vec<f64> {
        let mut column = vec![0.0; self.rows];
        (0..self.len)
            .map(|i| {
                for (r, x) in column.iter_mut().enumerate() {
                    *x = f64::from(self.cells[r * self.width + i]);
                }
                median(&column).unwrap_or(0.0)
            })
            .collect()
    }
}

/// Resets `ep`, runs one episode into it and returns its outcome.
///
/// # Panics
///
/// Panics when the episode recorded more than the bench's [`Shape`].
fn run_episode(
    bench: &mut dyn Bench,
    inst: Option<&Instruments>,
    layers: &mut Layers,
    ep: &mut Episode,
) -> Episode {
    ep.reset();
    bench.episode(inst, layers, ep);
    let shape = bench.shape();
    assert!(
        ep.ops_us.len() <= shape.ops
            && ep.call_us.len() <= shape.calls
            && ep.setup_s.len() <= shape.setups,
        "an episode outgrew its shape"
    );
    ep.outcome()
}

/// The plain run: repeats of one episode until `--seconds` is used up,
/// then the end-to-end metrics.
///
/// Every engine call and every set-up at position `i` of the episode is
/// timed in each repeat, and the metrics come from the **median
/// composite**: each position's median time over the repeats.
/// `ctx_per_s` divides the episode's contexts by the sum of its
/// engine-call medians, `ingest_p50_us` and `ingest_p99_us` are
/// quantiles over the ingest-call positions, and `setup_s` is the mean
/// over the set-up positions (`paper-apps` sets up two apps whose
/// set-up times differ, so a median over its positions would fall
/// between the two).
///
/// Interference from other tenants of the host lands on a call at a
/// random position of a repeat; it moves a position's median only when
/// it hits that position in half the repeats. A cost of the engine's
/// own at a fixed position (a sweep, a compaction, a table resize)
/// recurs in every repeat, so it stays in the composite and its tail.
/// The first repeat's warm-up costs drop out the same way.
///
/// A slowdown of the whole host that lasts seconds or minutes (other
/// tenants contending for the shared caches and memory) moves every
/// call alike, so no statistic over the calls can shed it. The episodes
/// are therefore calibrated: a fixed [`Calibration`] kernel is timed
/// when an episode starts and then at least every [`CALIBRATE_EVERY`],
/// between two engine calls, and each timing is multiplied by
/// ([`CALIBRATION_REF_S`] / the latest kernel time) to the power
/// [`CALIBRATION_EXPONENT`]. The metrics are in
/// reference-host time: a change to the engine moves them, a change in
/// the host's speed moves the kernel too and cancels out.
///
/// Every buffer the loop fills is resident before the memory baseline
/// is taken, so `peak_rss_mb` is the engine's growth, not the
/// benchmark's.
pub fn plain(bench: &mut dyn Bench, opts: &Options) -> Report {
    let shape = bench.shape();
    let mut ep = Episode::calibrated(shape);
    let mut ops = Table::new(shape.ops);
    let mut calls = Table::new(shape.calls);
    let mut setups = Table::new(shape.setups);
    let mut outcomes = Vec::with_capacity(MAX_REPEATS);
    let mut host_s = Vec::with_capacity(MAX_REPEATS);
    // Each repeat's p99 over its real calls: printed, not reported (see
    // README "Metrics").
    let mut repeat_p99 = Vec::with_capacity(MAX_REPEATS);
    let heap = HeapProbe::start();
    let started = Instant::now();
    let mut last_wall = 0.0f64;
    while outcomes.len() < MIN_REPEATS
        || (outcomes.len() < MAX_REPEATS
            && started.elapsed().as_secs_f64() + last_wall <= opts.seconds)
    {
        let t = Instant::now();
        let outcome = run_episode(bench, None, &mut Layers::default(), &mut ep);
        last_wall = t.elapsed().as_secs_f64();
        ops.push(&ep.ops_us);
        calls.push(&ep.call_us);
        repeat_p99.extend(quantile(&mut ep.call_us, 0.99));
        setups.push(&ep.setup_s);
        host_s.extend(median(&ep.host_s));
        outcomes.push(outcome);
    }
    // Read before the medians below allocate their columns.
    let peak_mb = heap.growth_mb();
    let correct = bench.verify(&outcomes, opts.perturb_reference);
    let contexts = outcomes[0].contexts as f64;
    let engine_s = ops.medians().iter().sum::<f64>() / 1e6;
    let mut call_us = calls.medians();
    let mut report = Report {
        correct,
        attempted: outcomes.iter().map(|e| e.contexts).sum(),
        failed: outcomes.iter().map(|e| e.failed).sum(),
        metrics: Vec::new(),
    };
    report.push("ctx_per_s", contexts / engine_s.max(1e-9), "1/s");
    report.push(
        "ingest_p50_us",
        quantile(&mut call_us, 0.50).unwrap_or(0.0),
        "us",
    );
    report.push(
        "ingest_p99_us",
        quantile(&mut call_us, 0.99).unwrap_or(0.0),
        "us",
    );
    let setup_s = setups.medians();
    report.push(
        "setup_s",
        setup_s.iter().sum::<f64>() / setup_s.len().max(1) as f64,
        "s",
    );
    report.push("peak_rss_mb", peak_mb, "MB");
    let rates: Vec<f64> = outcomes.iter().map(Episode::ctx_per_s).collect();
    eprintln!(
        "{}: {} repeats of {} ingest calls ({} engine calls, {} set-ups); calibration median {:.3} ms (reference {:.3} ms); unscaled per-repeat ctx/s median {:.0}; median of per-repeat p99s {:.1} us; digest {}",
        opts.workload.name(),
        outcomes.len(),
        call_us.len(),
        ops.len,
        setups.len,
        median(&host_s).unwrap_or(0.0) * 1e3,
        CALIBRATION_REF_S * 1e3,
        median(&rates).unwrap_or(0.0),
        median(&repeat_p99).unwrap_or(0.0),
        outcomes[0].digest.render()
    );
    report
}

/// Plain/traced episode pairs in a traced run (after one warm-up).
const TRACED_ROUNDS: usize = 2;

fn read(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// The traced run: a warm-up, then alternating plain and instrumented
/// episodes over the same inputs, the isolated replays, and the span
/// file. Reports every per-layer metric and the tracing overhead.
pub fn traced(bench: &mut dyn Bench, opts: &Options) -> Report {
    let mut buf = Episode::with_shape(bench.shape());
    let mut episodes = vec![run_episode(bench, None, &mut Layers::default(), &mut buf)];
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut last: Option<(Instruments, Layers, u64, u64)> = None;
    for _ in 0..TRACED_ROUNDS {
        let ep = run_episode(bench, None, &mut Layers::default(), &mut buf);
        plain_rates.push(ep.ctx_per_s());
        episodes.push(ep);

        let inst = Instruments::new(bench.obs_slots());
        let mut layers = Layers::default();
        let before = alloc::totals();
        let ep = run_episode(bench, Some(&inst), &mut layers, &mut buf);
        let after = alloc::totals();
        traced_rates.push(ep.ctx_per_s());
        let allocs = (after.0 - before.0, after.1 - before.1);
        episodes.push(ep);
        last = Some((inst, layers, allocs.0, allocs.1));
    }
    let (inst, mut layers, allocs, alloc_bytes) = last.expect("at least one traced round");
    let replay = bench.replay();
    let digests_agree = episodes.windows(2).all(|w| w[0].digest == w[1].digest);
    if !digests_agree {
        eprintln!("traced and plain episodes disagree on the verdict digest");
    }
    let correct = bench.verify(&episodes, opts.perturb_reference) && digests_agree;
    let traced_ep = episodes.last().expect("episodes ran");
    let contexts = traced_ep.contexts.max(1) as f64;

    let path = opts.out_dir.join(format!(
        "ctxbench-trace-{}-{}.json",
        opts.workload.name(),
        opts.seed
    ));
    match inst
        .spans
        .write_json(&path, opts.workload.name(), opts.seed)
    {
        Ok(()) => eprintln!("wrote {} spans to {}", inst.spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    let mut r = Report {
        correct,
        attempted: traced_ep.contexts,
        failed: traced_ep.failed,
        metrics: Vec::new(),
    };
    let s = |ns: u64| ns as f64 / 1e9;
    r.push("shard.batch_add_s", s(layers.shard_batch_add_ns), "s");
    r.push("shard.rebalance_s", s(layers.shard_rebalance_ns), "s");
    r.push("shard.rebalances", layers.shard_rebalances as f64, "count");
    r.push("shard.skew", layers.shard_skew, "ratio");
    r.push("middleware.submit_s", s(layers.submit_ns), "s");
    r.push("middleware.drain_s", s(layers.drain_ns), "s");
    r.push("middleware.compacted", layers.compacted as f64, "count");
    r.push("middleware.stage_spec_s", s(layers.stage_spec_ns), "s");
    r.push("middleware.commit_s", s(layers.commit_ns), "s");
    r.push(
        "middleware.verdict_p99_us",
        quantile(&mut layers.verdict_us, 0.99).unwrap_or(0.0),
        "us",
    );
    r.push(
        "situation.activations",
        layers.situation_activations as f64,
        "count",
    );
    let core = &inst.core;
    r.push(
        "core.on_addition_calls",
        read(&core.on_addition_calls),
        "count",
    );
    r.push("core.on_addition_s", read(&core.on_addition_ns) / 1e9, "s");
    r.push("core.on_use_calls", read(&core.on_use_calls), "count");
    r.push("core.on_use_s", read(&core.on_use_ns) / 1e9, "s");
    r.push("core.discards", read(&core.discards), "count");
    r.push(
        "core.discard_precision",
        read(&core.discards_corrupted) / read(&core.discards).max(1.0),
        "ratio",
    );
    r.push(
        "constraint.pinned_evals",
        layers.pinned_evals as f64,
        "count",
    );
    r.push("constraint.full_evals", layers.full_evals as f64, "count");
    r.push("constraint.detections", layers.detections as f64, "count");
    r.push("constraint.pred_evals", read(&inst.pred_evals), "count");
    r.push(
        "constraint.replay_check_ns_per_ctx",
        replay.check_per_ctx(),
        "ns/ctx",
    );
    r.push(
        "context.replay_insert_ns_per_ctx",
        replay.insert_per_ctx(),
        "ns/ctx",
    );
    r.push(
        "context.replay_compact_ns_per_ctx",
        replay.compact_per_ctx(),
        "ns/ctx",
    );
    r.push(
        "context.live_slots_max",
        layers.live_slots_max as f64,
        "count",
    );
    r.push(
        "context.slot_recycles",
        layers.slot_recycles as f64,
        "count",
    );
    if !alloc::installed() {
        eprintln!("allocation counts need the ctxbench binary's allocator; reporting 0");
    }
    r.push("alloc.count_per_ctx", allocs as f64 / contexts, "count/ctx");
    r.push(
        "alloc.bytes_per_ctx",
        alloc_bytes as f64 / contexts,
        "B/ctx",
    );
    for (phase, share) in Instruments::profile_shares(&inst.obs) {
        r.push(format!("profile.{phase}.self_share"), share, "ratio");
    }
    let plain_rate = median(&plain_rates).unwrap_or(0.0);
    let traced_rate = median(&traced_rates).unwrap_or(0.0);
    r.push("trace.ctx_per_s", traced_rate, "1/s");
    r.push("trace.overhead_ctx_per_s", traced_rate - plain_rate, "1/s");
    r
}
