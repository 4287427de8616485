//! Allocation guards for the per-context hot path: once warmed, an
//! incremental check that detects nothing, a situation round, watched
//! or not, and a whole submit under retention allocate nothing, and a
//! submit that detects an inconsistency makes a fixed, small number of
//! allocations. Harvesting a sharded engine's subject loads allocates
//! its result and nothing else.
//!
//! The binary's global allocator counts each thread's allocations, so
//! tests running on parallel threads do not see each other's.

use ctxres_constraint::{parse_constraints, IncrementalChecker, PredicateRegistry};
use ctxres_context::{
    Context, ContextKind, ContextPool, ContextState, Lifespan, LogicalTime, Point, Ticks,
};
use ctxres_core::strategies::DropBad;
use ctxres_middleware::{
    Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SituationEngine,
};
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
    warmed_retention_stream_allocates_nothing(false);
}

/// Ground truth costs no allocation either: the shadow pool OPT-R is
/// measured on holds each expected context by sharing its body with
/// the strategy pool.
#[test]
fn warmed_submit_with_ground_truth_allocates_nothing() {
    warmed_retention_stream_allocates_nothing(true);
}

fn warmed_retention_stream_allocates_nothing(track_ground_truth: bool) {
    // `ACTIVE` subjects report in turn, `FIXES` fixes each; then the
    // whole cohort leaves and fresh subjects take over.
    const ACTIVE: u64 = 16;
    const FIXES: u64 = 4;
    const WARM: u64 = 10_000;
    const MEASURED: u64 = 2 * WARM;
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
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(3),
            track_ground_truth,
            retention: Some(Ticks::new(64)),
        })
        .build();
    let mut trace = trace.into_iter();
    for ctx in trace.by_ref().take(WARM as usize) {
        mw.submit(ctx);
    }
    let warm = *mw.stats();
    let (fresh, allocs) = allocations(|| trace.map(|ctx| mw.submit(ctx).fresh).sum::<usize>());
    assert_eq!(fresh, 0, "the trace violates nothing");
    assert_eq!(allocs, 0, "{MEASURED} warmed submits");
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
}

/// The allocations of a submit that detects, under the city stream's
/// engine configuration: the §2.2 speed constraint, drop-bad, a use
/// window of 0, retention 512 and TTL 512, no observer. Every 50th
/// context teleports, so its check finds one violation with its seq
/// predecessor, drop-bad tracks it, and the use at the same instant
/// discards the teleport and resolves it. Once warm, every such submit
/// makes exactly the same 23 allocations, and every other submit none.
///
/// `IncrementalChecker::on_added` makes 17 of them: the evidence walk
/// and the detection it returns. The detection's name and link move
/// into the `Inconsistency`, drop-bad reads the Δ members it decides on
/// in place, and the resolved inconsistency moves out of Δ. The rest
/// are the inconsistency list, drop-bad's copy of the inconsistency
/// into Δ and the use's outcome. Δ's count bookkeeping lists no bumped
/// counts, and the use asks whether the doomed context is among an
/// inconsistency's maxima without listing them.
#[test]
fn warmed_detecting_submit_allocates_a_fixed_few() {
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
        .strategy(Box::new(DropBad::new()))
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
    let (min, max) = (detecting.iter().min(), detecting.iter().max());
    assert_eq!((min, max), (Some(&23), Some(&23)), "per detecting submit");
    assert_eq!(
        mw.stats().discarded,
        WARM / TELEPORT_EVERY + detecting.len() as u64
    );
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
