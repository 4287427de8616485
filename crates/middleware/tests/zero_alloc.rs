//! Allocation and clock-read guards for the per-context hot path: once
//! warmed, an incremental check that detects nothing, a situation
//! round, watched or not, and a whole submit under retention allocate
//! nothing, and a submit that detects an inconsistency makes a fixed,
//! small number of allocations. Under each observability preset a
//! warmed submit reads the clock, allocates and writes trace records an
//! exact, pinned number of times. Harvesting a sharded engine's subject
//! loads allocates its result and nothing else.
//!
//! The binary's global allocator counts each thread's allocations, and
//! `ctxres_obs::clock_reads` each thread's clock readings, so tests
//! running on parallel threads do not see each other's.

use ctxres_constraint::{parse_constraints, IncrementalChecker, PredicateRegistry};
use ctxres_context::{
    Context, ContextKind, ContextPool, ContextState, Lifespan, LogicalTime, Point, Ticks,
};
use ctxres_core::strategies::{DropBad, DropLatest};
use ctxres_core::ResolutionStrategy;
use ctxres_middleware::{
    Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SituationEngine,
};
use ctxres_obs::{clock_reads, CounterKind, ObsConfig, ObsRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread count of allocations
/// (including the allocating half of a `realloc`).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments unchanged; the only extra work is bumping a thread-local
// counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const SPEED: &str = "constraint gap1:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
 constraint gap2:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)";

fn fix(subject: &str, seq: i64, x: f64) -> Context {
    Context::builder(ContextKind::new("location"), subject)
        .attr("pos", Point::new(x, 0.0))
        .attr("seq", seq)
        .stamp(LogicalTime::new(seq as u64))
        .build()
}

#[test]
fn warmed_check_that_detects_nothing_allocates_nothing() {
    let mut checker =
        IncrementalChecker::new(parse_constraints(SPEED).unwrap().into_iter().collect());
    let registry = PredicateRegistry::with_builtins();
    let mut pool = ContextPool::new();
    for seq in 0..12 {
        let now = LogicalTime::new(seq as u64);
        let id = pool.insert(fix("p", seq, seq as f64 * 0.5));
        let (found, allocs) = allocations(|| checker.on_added(&registry, &pool, now, id));
        assert_eq!(found, Ok(Vec::new()), "a clean walk detects nothing");
        if seq >= 1 {
            assert_eq!(allocs, 0, "check of seq {seq}");
        }
    }
    assert_eq!(checker.stats().pinned_evals, 12 * 4);

    let badge = pool.insert(Context::builder(ContextKind::new("badge"), "p").build());
    let (found, allocs) =
        allocations(|| checker.on_added(&registry, &pool, LogicalTime::new(12), badge));
    assert_eq!((found, allocs), (Ok(Vec::new()), 0), "an irrelevant kind");
}

#[test]
fn warmed_situation_round_allocates_nothing() {
    let situations = parse_constraints(
        "constraint p_near_home: exists a: location .
           subject_eq(a, \"p\") and within(a, -1.0, -1.0, 1.0, 1.0)
         constraint all_placed: forall a: location . has_attr(a, \"pos\")
         constraint q_seen: exists a: location . subject_eq(a, \"q\")",
    )
    .unwrap();
    let mut engine = SituationEngine::new(situations);
    let twin = engine.twin();
    assert_eq!((engine.len(), twin.len()), (3, 3));
    let registry = PredicateRegistry::with_builtins();
    let mut pool = ContextPool::new();
    for seq in 0..6 {
        let id = pool.insert(fix(["p", "q"][seq as usize % 2], seq, seq as f64));
        pool.set_state(id, ContextState::Consistent).unwrap();
    }
    let now = LogicalTime::new(6);
    engine.evaluate(&registry, &pool, now);
    let (active, allocs) = allocations(|| {
        let statuses = engine.evaluate(&registry, &pool, now);
        [statuses[0].active, statuses[1].active, statuses[2].active]
    });
    assert_eq!(active, [true, true, true]);
    assert_eq!(allocs, 0);

    // A watched engine skips the situations whose slices and clock did
    // not move, and neither skipping nor re-evaluating allocates.
    let mut watched = engine.twin();
    watched.watch(&registry, &mut pool);
    watched.evaluate(&registry, &pool, now);
    let warmed = watched.evaluations();
    let (active, allocs) = allocations(|| {
        let statuses = watched.evaluate(&registry, &pool, now);
        [statuses[0].active, statuses[1].active, statuses[2].active]
    });
    assert_eq!((active, allocs), ([true, true, true], 0));
    assert_eq!(watched.evaluations(), warmed, "nothing moved: all skipped");
    let id = pool.insert(fix("q", 6, 6.0));
    pool.set_state(id, ContextState::Consistent).unwrap();
    let (_, allocs) = allocations(|| watched.evaluate(&registry, &pool, now).len());
    assert_eq!(allocs, 0);
    assert_eq!(
        watched.evaluations(),
        warmed + 2,
        "a `q` arrival re-evaluates the kind-wide and the `q` situations only"
    );
}

/// A streaming engine's memory follows the window, not the stream:
/// with TTLs, retention, a use window, subject churn and no
/// violations, every context is checked, used, and then removed by its
/// doom note, and once the engine is warm a long stretch of submits
/// allocates nothing — so the bytes it holds stop growing too. The
/// stretch is twice the warm-up: a buffer that grew by one entry per
/// context during the warm-up would have to reallocate within it.
#[test]
fn warmed_submit_under_retention_allocates_nothing() {
    let (_, allocs, _) = warmed_retention_stream(false, ObsConfig::disabled());
    assert_eq!(allocs, 0, "{MEASURED} warmed submits");
}

/// Ground truth costs no allocation either: the shadow pool OPT-R is
/// measured on holds each expected context by sharing its body with
/// the strategy pool.
#[test]
fn warmed_submit_with_ground_truth_allocates_nothing() {
    let (_, allocs, _) = warmed_retention_stream(true, ObsConfig::disabled());
    assert_eq!(allocs, 0, "{MEASURED} warmed submits");
}

/// The observation budget of the same stream, as exact counts over its
/// measured submits: clock readings, allocations and trace records
/// under each preset. Per submit, the check, the addition's resolution
/// and the use each read the clock twice through one timed phase guard,
/// which feeds the profiler span, the latency histogram and the tail
/// stamps alike; index maintenance adds two with the profiler on; and
/// tail telemetry adds the ingress and end stamps. The provenance phase
/// opens only around a record the engine itself emits: this stream
/// detects nothing, and drop-bad writes its own verdict edges, so
/// tracing and profiling together read no more than profiling alone
/// does. A traced submit writes three records, one per fact: the
/// `Received` root, drop-bad's consistent verdict and the delivery.
/// Nothing allocates: the tail layer's threshold refresh merges bucket
/// counts in place, and the trace ring reserved its capacity on its
/// first record.
#[test]
fn warmed_submit_observation_budget_is_pinned() {
    let presets = [
        ("disabled", ObsConfig::disabled()),
        ("metrics_only", ObsConfig::metrics_only()),
        (
            "metrics_only profiled",
            ObsConfig::metrics_only().with_profile(1),
        ),
        (
            "metrics_only tail",
            ObsConfig::metrics_only().with_tail(true),
        ),
        ("enabled", ObsConfig::enabled()),
        ("enabled profiled", ObsConfig::enabled().with_profile(1)),
    ];
    let budget = presets.map(|(name, config)| {
        let (reads, allocs, records) = warmed_retention_stream(false, config);
        (name, reads, allocs, records)
    });
    assert_eq!(
        budget,
        [
            ("disabled", 0, 0, 0),
            ("metrics_only", 6 * MEASURED, 0, 0),
            ("metrics_only profiled", 8 * MEASURED, 0, 0),
            ("metrics_only tail", 8 * MEASURED, 0, 0),
            ("enabled", 8 * MEASURED, 0, 3 * MEASURED),
            ("enabled profiled", 10 * MEASURED, 0, 3 * MEASURED),
        ]
    );
}

/// Submits measured after the warm-up: twice the warm-up.
const MEASURED: u64 = 20_000;

/// Runs the retention stream through an engine observed under `obs`
/// and returns the clock readings, allocations and trace records of its
/// `MEASURED` submits after the warm-up.
fn warmed_retention_stream(track_ground_truth: bool, obs: ObsConfig) -> (u64, u64, u64) {
    // `ACTIVE` subjects report in turn, `FIXES` fixes each; then the
    // whole cohort leaves and fresh subjects take over.
    const ACTIVE: u64 = 16;
    const FIXES: u64 = 4;
    const WARM: u64 = MEASURED / 2;
    let trace: Vec<Context> = (0..WARM + MEASURED)
        .map(|n| {
            let subject = n / (ACTIVE * FIXES) * ACTIVE + n % ACTIVE;
            let seq = (n / ACTIVE % FIXES) as i64;
            let stamp = LogicalTime::new(n);
            Context::builder(ContextKind::new("location"), &format!("s{subject}"))
                .attr("pos", Point::new(subject as f64, 0.0))
                .attr("seq", seq)
                .stamp(stamp)
                .lifespan(Lifespan::with_ttl(stamp, Ticks::new(48)))
                .build()
        })
        .collect();
    let registry = ObsRegistry::shared(obs, 1);
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(3),
            track_ground_truth,
            retention: Some(Ticks::new(64)),
        })
        .obs(registry.handle(0))
        .build();
    let mut trace = trace.into_iter();
    for ctx in trace.by_ref().take(WARM as usize) {
        mw.submit(ctx);
    }
    let warm = *mw.stats();
    let records = || registry.snapshot().counter(CounterKind::EventsRecorded);
    let recorded = records();
    let reads = clock_reads();
    let (fresh, allocs) = allocations(|| trace.map(|ctx| mw.submit(ctx).fresh).sum::<usize>());
    let reads = clock_reads() - reads;
    let recorded = records() - recorded;
    assert_eq!(fresh, 0, "the trace violates nothing");
    let stats = mw.stats();
    assert_eq!(stats.received - warm.received, MEASURED);
    assert_eq!(
        stats.delivered - warm.delivered,
        MEASURED,
        "every context is used within its window"
    );
    assert_eq!(
        stats.compacted - warm.compacted,
        MEASURED,
        "and leaves one retention horizon after it expired"
    );
    assert!(mw.pool().live_slots() < 200, "{}", mw.pool().live_slots());
    (reads, allocs, recorded)
}

/// Each warmed detecting submit's allocations under the city stream's
/// engine configuration with `strategy`: the §2.2 speed constraint, a
/// use window of 0, retention 512 and TTL 512, no observer. Every 50th
/// context teleports, so its check finds one violation with its seq
/// predecessor, and the strategy discards the teleport: an eager one at
/// its addition, drop-bad at its use in the same instant. Requires every
/// other warmed submit to allocate nothing, and every teleport to be
/// discarded.
fn detecting_submit_allocations(strategy: Box<dyn ResolutionStrategy + Send>) -> Vec<u64> {
    const SUBJECTS: u64 = 16;
    const WARM: u64 = 4_000;
    const MEASURED: u64 = 8_000;
    const TELEPORT_EVERY: u64 = 50;
    const SPEED_ONLY: &str = "constraint speed:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";
    let trace = (0..WARM + MEASURED).map(|n| {
        let subject = n % SUBJECTS;
        let seq = (n / SUBJECTS) as i64;
        let stamp = LogicalTime::new(n);
        let x = if n % TELEPORT_EVERY == TELEPORT_EVERY - 1 {
            1_000.0
        } else {
            seq as f64
        };
        Context::builder(ContextKind::new("location"), &format!("s{subject}"))
            .attr("pos", Point::new(x, 0.0))
            .attr("seq", seq)
            .stamp(stamp)
            .lifespan(Lifespan::with_ttl(stamp, Ticks::new(512)))
            .build()
    });
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(SPEED_ONLY).unwrap())
        .strategy(strategy)
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: Some(Ticks::new(512)),
        })
        .build();
    let mut detecting = Vec::new();
    let mut quiet = 0;
    for (n, ctx) in trace.enumerate() {
        let (report, allocs) = allocations(|| mw.submit(ctx));
        if (n as u64) < WARM {
            continue;
        }
        if report.fresh > 0 {
            assert_eq!(report.fresh, 1, "submit {n}");
            detecting.push(allocs);
        } else {
            quiet += allocs;
        }
    }
    assert_eq!(detecting.len() as u64, MEASURED / TELEPORT_EVERY);
    assert_eq!(quiet, 0, "submits that detect nothing");
    assert_eq!(
        mw.stats().discarded,
        WARM / TELEPORT_EVERY + detecting.len() as u64
    );
    detecting
}

/// A warmed drop-bad submit that detects makes exactly the same 5
/// allocations every time:
///
/// * `IncrementalChecker::on_added` makes 2: the link its violation walk
///   names (the walk pushes it into the checker's reused buffer, so no
///   evidence is built) and the detection list. The detection shares
///   its constraint's name with the compiled constraint;
/// * the middleware makes 1, the inconsistency list; the detection's
///   name and link move into the `Inconsistency`;
/// * drop-bad's addition makes 1, its copy of the inconsistency's link
///   into Δ (the copy shares the name);
/// * drop-bad's use makes 1, the outcome's discard list. The flags of
///   which Δ entries already hold a bad member, and the list the
///   resolved inconsistency moves out of Δ into, are buffers the
///   strategy keeps.
///
/// Δ's count bookkeeping lists no bumped counts, drop-bad reads the Δ
/// members it decides on in place, and the use asks whether the doomed
/// context is among an inconsistency's maxima without listing them.
#[test]
fn warmed_detecting_submit_allocates_a_fixed_few() {
    let detecting = detecting_submit_allocations(Box::new(DropBad::new()));
    let (min, max) = (detecting.iter().min(), detecting.iter().max());
    assert_eq!((min, max), (Some(&5), Some(&5)), "per detecting submit");
}

/// An eager strategy's detecting submit makes exactly 4 allocations:
/// the checker's 2 and the middleware's inconsistency list as above,
/// and drop-latest's discard list. The discard's verdict reads the
/// implicating inconsistency where the submit holds it, so no copy of
/// its name or link is made.
#[test]
fn warmed_eager_detecting_submit_allocates_a_fixed_few() {
    let detecting = detecting_submit_allocations(Box::new(DropLatest::new()));
    let (min, max) = (detecting.iter().min(), detecting.iter().max());
    assert_eq!((min, max), (Some(&4), Some(&4)), "per detecting submit");
}

/// `ShardedMiddleware::subject_loads` allocates exactly its result: the
/// outer vector, one subject vector per shard, and one string per live
/// subject (each subject here has contexts of one kind only, so one
/// pool entry).
#[test]
fn subject_loads_allocate_only_their_result() {
    const SHARDS: usize = 2;
    const SUBJECTS: usize = 64;
    const FIXES: i64 = 3;
    let constraints = parse_constraints(SPEED).unwrap();
    let plan = ShardPlan::analyze(&constraints, SHARDS);
    let sharded = ShardedMiddleware::new(plan, |_| {
        Middleware::builder()
            .constraints(constraints.clone())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: None,
            })
            .build()
    });
    let trace: Vec<Context> = (0..FIXES)
        .flat_map(|seq| (0..SUBJECTS).map(move |s| fix(&format!("s{s}"), seq, seq as f64 * 0.5)))
        .collect();
    sharded.batch_add_owned(trace);

    let (loads, allocs) = allocations(|| sharded.subject_loads());
    assert_eq!(loads.len(), SHARDS);
    assert!(loads.iter().all(|l| !l.subjects.is_empty()), "{loads:?}");
    let live: usize = loads.iter().map(|l| l.subjects.len()).sum();
    assert_eq!(live, SUBJECTS);
    assert_eq!(
        loads.iter().map(|l| l.total()).sum::<usize>(),
        SUBJECTS * FIXES as usize
    );
    assert_eq!(allocs, (1 + SHARDS + SUBJECTS) as u64);
}
