//! Property-based tests for the context pool and life cycle.

use ctxres_context::{
    Context, ContextBuilder, ContextId, ContextKind, ContextPool, ContextState, ContextValue,
    Lifespan, LogicalTime, Point, Ticks, SEQ_ATTR,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Insert {
        kind: u8,
        subject: u8,
        ttl: Option<u8>,
    },
    SetState {
        target: u8,
        state: ContextState,
    },
    Discard {
        target: u8,
    },
    Remove {
        target: u8,
    },
    Sweep {
        at: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u8..3, proptest::option::of(0u8..10))
            .prop_map(|(kind, subject, ttl)| Op::Insert { kind, subject, ttl }),
        (
            any::<u8>(),
            prop_oneof![
                Just(ContextState::Consistent),
                Just(ContextState::Bad),
                Just(ContextState::Inconsistent),
            ]
        )
            .prop_map(|(target, state)| Op::SetState { target, state }),
        any::<u8>().prop_map(|target| Op::Discard { target }),
        any::<u8>().prop_map(|target| Op::Remove { target }),
        (0u8..30).prop_map(|at| Op::Sweep { at }),
    ]
}

fn kind_name(k: u8) -> ContextKind {
    ContextKind::new(&format!("kind{k}"))
}

/// One step of the index-maintenance property: every way a context
/// enters or leaves the kind×subject indexes.
#[derive(Debug, Clone)]
enum IndexOp {
    Insert(Arrival),
    InsertBatch(Vec<Arrival>),
    Discard { target: u8 },
    Remove { target: u8 },
    Compact { back: u8 },
    Churn(Churn),
}

/// A retention-shaped step on `kind`: an immortal context of the other
/// kind (it pins the pool's oldest stored id), a burst of in-order
/// arrivals, removal of every context of `kind` but the `keep` newest
/// in `(stamp, id)` order — front pops past the point where a run drains
/// its dead prefix, emptying most subjects — and the same burst again,
/// whose subjects take the emptied subjects' buffers.
#[derive(Debug, Clone)]
struct Churn {
    kind: u8,
    subjects: Vec<u8>,
    ttl: u8,
    keep: u8,
}

/// A context to insert: `late` stamps it `back` ticks behind the clock
/// (an out-of-order arrival). Subjects are drawn from a wide range so
/// they come and go.
#[derive(Debug, Clone)]
struct Arrival {
    kind: u8,
    subject: u8,
    late: bool,
    back: u8,
    life: Life,
}

/// An arrival's lifespan, created `shift` ticks after its stamp
/// (before it when negative).
#[derive(Debug, Clone)]
enum Life {
    Forever,
    Ttl {
        ttl: u8,
        shift: i8,
    },
    /// A TTL so long that the deadline saturates at the end of the clock.
    Huge {
        shift: i8,
    },
}

fn life() -> impl Strategy<Value = Life> {
    // One arrival in eight is immortal and one in eight huge, so most
    // buckets stay bounded for a while before one of them arrives.
    (0u8..8, 0u8..12, -3i8..=3).prop_map(|(pick, ttl, shift)| match pick {
        0 => Life::Forever,
        1 => Life::Huge { shift },
        _ => Life::Ttl { ttl, shift },
    })
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (
        0u8..2,
        0u8..16,
        proptest::bool::weighted(0.3),
        0u8..8,
        life(),
    )
        .prop_map(|(kind, subject, late, back, life)| Arrival {
            kind,
            subject,
            late,
            back,
            life,
        })
}

fn index_op() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        arrival().prop_map(IndexOp::Insert),
        proptest::collection::vec(arrival(), 1..8).prop_map(IndexOp::InsertBatch),
        any::<u8>().prop_map(|target| IndexOp::Discard { target }),
        any::<u8>().prop_map(|target| IndexOp::Remove { target }),
        (0u8..10).prop_map(|back| IndexOp::Compact { back }),
        (
            0u8..2,
            proptest::collection::vec(0u8..16, 8..40),
            1u8..12,
            0u8..4
        )
            .prop_map(|(kind, subjects, ttl, keep)| IndexOp::Churn(Churn {
                kind,
                subjects,
                ttl,
                keep
            })),
    ]
}

fn arrive(a: &Arrival, clock: &mut LogicalTime) -> Context {
    arrival_builder(a, clock).build()
}

/// The builder [`arrive`] finishes: advances the clock and stamps the
/// arrival.
fn arrival_builder(a: &Arrival, clock: &mut LogicalTime) -> ContextBuilder {
    clock.advance();
    let stamp = if a.late {
        LogicalTime::new(clock.tick().saturating_sub(u64::from(a.back)))
    } else {
        *clock
    };
    let created =
        |shift: i8| LogicalTime::new(stamp.tick().saturating_add_signed(i64::from(shift)));
    let builder = Context::builder(kind_name(a.kind), &format!("s{}", a.subject)).stamp(stamp);
    match a.life {
        Life::Forever => builder,
        Life::Ttl { ttl, shift } => builder.lifespan(Lifespan::with_ttl(
            created(shift),
            Ticks::new(u64::from(ttl)),
        )),
        Life::Huge { shift } => {
            builder.lifespan(Lifespan::with_ttl(created(shift), Ticks::new(u64::MAX - 1)))
        }
    }
}

/// An arrival's seq attribute, relative to the clock tick it arrives
/// at: mostly rising, sometimes one that breaks a bucket's seq order.
#[derive(Debug, Clone)]
enum Seq {
    /// The clock tick.
    Tick,
    /// `back` ticks behind the clock: a duplicate or a step back.
    Behind(u8),
    Missing,
    /// The clock tick as a float.
    Float,
    /// The clock tick plus 2^52: too large for exact `f64` arithmetic.
    Huge,
}

fn seq() -> impl Strategy<Value = Seq> {
    (0u8..10, 0u8..4).prop_map(|(pick, back)| match pick {
        0 => Seq::Behind(back),
        1 => Seq::Missing,
        2 => Seq::Float,
        3 => Seq::Huge,
        _ => Seq::Tick,
    })
}

/// [`arrive`] with a seq attribute. Three subjects of one kind keep
/// buckets long enough for late arrivals to land inside a rising one.
fn arrive_seq(a: &Arrival, seq: &Seq, clock: &mut LogicalTime) -> Context {
    let a = Arrival {
        kind: 0,
        subject: a.subject % 3,
        ..a.clone()
    };
    let builder = arrival_builder(&a, clock);
    let tick = clock.tick() as i64;
    match seq {
        Seq::Tick => builder.attr(SEQ_ATTR, tick),
        Seq::Behind(back) => builder.attr(SEQ_ATTR, tick - i64::from(*back)),
        Seq::Missing => builder,
        Seq::Float => builder.attr(SEQ_ATTR, tick as f64),
        Seq::Huge => builder.attr(SEQ_ATTR, (1i64 << 52) + tick),
    }
    .build()
}

/// Attribute names the builder property draws from: the empty name,
/// [`SEQ_ATTR`], and names that are prefixes of one another, so repeats
/// and near misses are common.
const NAMES: [&str; 6] = ["", "a", "ab", "b", "pos", SEQ_ATTR];

/// One `ContextBuilder::attr` call: a name index into [`NAMES`] and a
/// value of any kind (a NaN float, and integer seqs on both sides of
/// [`Context::exact_seq`]'s bound, included).
fn attr_call() -> impl Strategy<Value = (usize, ContextValue)> {
    let value = prop_oneof![
        any::<bool>().prop_map(ContextValue::Bool),
        prop_oneof![
            Just(0i64),
            Just(-3),
            Just(41),
            Just((1 << 52) - 1),
            Just(1 << 52),
            Just(i64::MIN)
        ]
        .prop_map(ContextValue::Int),
        prop_oneof![Just(0.5), Just(-2.0), Just(f64::NAN)].prop_map(ContextValue::Float),
        prop_oneof![Just(""), Just("lab"), Just("lab-b")]
            .prop_map(|t: &str| ContextValue::Text(t.to_owned())),
        (0u8..3, 0u8..3).prop_map(|(x, y)| ContextValue::Point(Point::new(x.into(), y.into()))),
    ];
    (0..NAMES.len(), value)
}

/// Feeds `calls` to a builder and to the ordered map a context's
/// attributes must behave like.
fn built(calls: &[(usize, ContextValue)]) -> (Context, BTreeMap<String, ContextValue>) {
    let mut builder = Context::builder(ContextKind::new("k"), "s");
    let mut model = BTreeMap::new();
    for (name, value) in calls {
        builder = builder.attr(NAMES[*name], value.clone());
        model.insert(NAMES[*name].to_owned(), value.clone());
    }
    (builder.build(), model)
}

proptest! {
    /// Pool invariants hold under arbitrary operation sequences:
    /// index views agree with a straight scan, discarded contexts leave
    /// live views, available contexts are exactly the consistent live
    /// ones, and state transitions never corrupt storage.
    #[test]
    fn pool_invariants_under_random_ops(ops in proptest::collection::vec(op(), 1..60)) {
        let mut pool = ContextPool::new();
        let mut clock = LogicalTime::ZERO;
        let mut inserted: Vec<ContextId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { kind, subject, ttl } => {
                    clock.advance();
                    let mut builder = Context::builder(kind_name(kind), &format!("s{subject}"))
                        .stamp(clock);
                    if let Some(t) = ttl {
                        builder = builder.lifespan(Lifespan::with_ttl(clock, Ticks::new(u64::from(t))));
                    }
                    let id = pool.insert(builder.build());
                    prop_assert!(inserted.last().map(|last| *last < id).unwrap_or(true),
                        "ids must be monotonic");
                    inserted.push(id);
                }
                Op::SetState { target, state } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        let before = pool.get(*id).map(|c| c.state());
                        let result = pool.set_state(*id, state);
                        if let Some(before) = before {
                            // Result agrees with the life-cycle table.
                            prop_assert_eq!(result.is_ok(), before.transition(state).is_ok());
                        }
                    }
                }
                Op::Discard { target } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        if pool.contains(*id) {
                            pool.discard(*id).unwrap();
                            prop_assert_eq!(pool.get(*id).unwrap().state(), ContextState::Inconsistent);
                        }
                    }
                }
                Op::Remove { target } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        pool.remove(*id);
                        prop_assert!(pool.get(*id).is_none());
                    }
                }
                Op::Sweep { at } => {
                    let now = LogicalTime::new(u64::from(at));
                    pool.compact(now);
                    // A sweep removes through the same bulk purge as
                    // every retention pass; no live-at-now view may then
                    // contain an expired context.
                    for k in 0..3u8 {
                        for (_, c) in pool.of_kind_live_at(&kind_name(k), now) {
                            prop_assert!(c.is_live(now));
                        }
                    }
                }
            }

            // Global invariants after every operation.
            let scan: Vec<ContextId> = pool.iter().map(|(id, _)| id).collect();
            prop_assert_eq!(scan.len(), pool.len());
            for k in 0..3u8 {
                let kind = kind_name(k);
                for (id, c) in pool.of_kind(&kind) {
                    prop_assert_eq!(c.kind(), &kind);
                    prop_assert!(c.state() != ContextState::Inconsistent);
                    prop_assert!(pool.contains(id));
                }
            }
            for (id, c) in pool.available_at(clock) {
                prop_assert_eq!(c.state(), ContextState::Consistent);
                prop_assert!(c.is_live(clock));
                prop_assert!(pool.contains(id));
            }
            let stats = pool.stats();
            prop_assert_eq!(
                stats.consistent + stats.undecided + stats.bad + stats.inconsistent,
                stats.stored
            );
        }
    }

    /// The kind×subject index invariants hold under inserts (single and
    /// batched, with out-of-order stamps), discards, targeted removals
    /// and compaction sweeps: `of_kind` and `of_subject` list exactly the
    /// stored live contexts in `(stamp, id)` order, and so do
    /// `of_kind_live_at` / `of_subject_live_at` restricted to the
    /// contexts live at instants around the clock — immortal ones and
    /// lifespans created off their stamp included, so the views' skip
    /// past a bucket's expired prefix must bound every lifespan's
    /// deadline, not just its TTL. Retention-shaped churn pops runs at
    /// the front past their dead-prefix drains, empties subjects and
    /// re-creates them over reused buffers, and pins the id table with
    /// an immortal context. Every subject entry indexes at least one
    /// stored context (so subject churn cannot grow the index), every
    /// issued id resolves exactly while its context is stored, and
    /// `subject_counts` agrees with a reference model.
    #[test]
    fn index_invariants_under_random_ops(ops in proptest::collection::vec(index_op(), 1..80)) {
        let mut pool = ContextPool::new();
        let mut clock = LogicalTime::ZERO;
        // Reference: every stored context, with its discard flag.
        let mut model: BTreeMap<ContextId, (Context, bool)> = BTreeMap::new();
        let mut inserted: Vec<ContextId> = Vec::new();
        let pick = |inserted: &[ContextId], target: u8| {
            inserted.get(usize::from(target) % inserted.len().max(1)).copied()
        };
        for op in ops {
            match op {
                IndexOp::Insert(a) => {
                    let ctx = arrive(&a, &mut clock);
                    let id = pool.insert(ctx.clone());
                    model.insert(id, (ctx, false));
                    inserted.push(id);
                }
                IndexOp::InsertBatch(batch) => {
                    let ctxs: Vec<Context> = batch.iter().map(|a| arrive(a, &mut clock)).collect();
                    let ids = pool.insert_batch(ctxs.clone());
                    for (id, ctx) in ids.into_iter().zip(ctxs) {
                        model.insert(id, (ctx, false));
                        inserted.push(id);
                    }
                }
                IndexOp::Discard { target } => {
                    if let Some(id) = pick(&inserted, target) {
                        if let Some(entry) = model.get_mut(&id) {
                            pool.discard(id).unwrap();
                            entry.1 = true;
                        }
                    }
                }
                IndexOp::Remove { target } => {
                    if let Some(id) = pick(&inserted, target) {
                        prop_assert_eq!(pool.remove(id).is_some(), model.remove(&id).is_some());
                    }
                }
                IndexOp::Compact { back } => {
                    let horizon = LogicalTime::new(clock.tick().saturating_sub(u64::from(back)));
                    let before = model.len();
                    model.retain(|_, (c, discarded)| {
                        !(c.stamp() < horizon && (*discarded || !c.is_live(horizon)))
                    });
                    prop_assert_eq!(pool.compact(horizon), before - model.len());
                }
                IndexOp::Churn(churn) => {
                    let kind = kind_name(churn.kind);
                    clock.advance();
                    let pin = Context::builder(kind_name(1 - churn.kind), "s0").stamp(clock).build();
                    let id = pool.insert(pin.clone());
                    model.insert(id, (pin, false));
                    inserted.push(id);
                    for round in 0..2 {
                        for s in &churn.subjects {
                            clock.advance();
                            let ctx = Context::builder(kind.clone(), &format!("s{s}"))
                                .stamp(clock)
                                .lifespan(Lifespan::with_ttl(clock, Ticks::new(u64::from(churn.ttl))))
                                .build();
                            let id = pool.insert(ctx.clone());
                            model.insert(id, (ctx, false));
                            inserted.push(id);
                        }
                        if round == 0 {
                            let mut run: Vec<(LogicalTime, ContextId)> = model
                                .iter()
                                .filter(|(_, (c, _))| c.kind() == &kind)
                                .map(|(id, (c, _))| (c.stamp(), *id))
                                .collect();
                            run.sort();
                            let doomed = run.len() - usize::from(churn.keep).min(run.len());
                            for (_, id) in run.into_iter().take(doomed) {
                                prop_assert!(pool.remove(id).is_some());
                                model.remove(&id);
                            }
                        }
                    }
                }
            }

            prop_assert_eq!(pool.len(), model.len());
            // The id table: every id ever issued resolves exactly when
            // the context is stored, and arrival order lists the stored.
            for id in &inserted {
                prop_assert_eq!(pool.contains(*id), model.contains_key(id), "{}", id);
            }
            prop_assert_eq!(
                pool.iter().map(|(id, _)| id).collect::<Vec<_>>(),
                model.keys().copied().collect::<Vec<_>>()
            );
            let live = |keep: &dyn Fn(&Context) -> bool| {
                let mut ids: Vec<(LogicalTime, ContextId)> = model
                    .iter()
                    .filter(|(_, (c, discarded))| !discarded && keep(c))
                    .map(|(id, (c, _))| (c.stamp(), *id))
                    .collect();
                ids.sort();
                ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>()
            };
            let mut entries = BTreeSet::new();
            for (c, _) in model.values() {
                entries.insert((c.kind().clone(), c.subject().to_owned()));
            }
            for k in 0..2u8 {
                let kind = kind_name(k);
                let of_kind: Vec<ContextId> = pool.of_kind(&kind).map(|(id, _)| id).collect();
                prop_assert_eq!(of_kind, live(&|c| c.kind() == &kind));
                for s in 0..16u8 {
                    let subject = format!("s{s}");
                    let of_subject: Vec<ContextId> =
                        pool.of_subject(&kind, &subject).map(|(id, _)| id).collect();
                    prop_assert_eq!(
                        of_subject,
                        live(&|c| c.kind() == &kind && c.subject() == subject)
                    );
                }
            }
            let instants = [
                clock.tick().saturating_sub(3),
                clock.tick(),
                clock.tick() + 5,
                clock.tick() + 15,
            ];
            for now in instants.map(LogicalTime::new) {
                for k in 0..2u8 {
                    let kind = kind_name(k);
                    let of_kind: Vec<ContextId> =
                        pool.of_kind_live_at(&kind, now).map(|(id, _)| id).collect();
                    prop_assert_eq!(
                        of_kind,
                        live(&|c| c.kind() == &kind && c.is_live(now)),
                        "of_kind_live_at at {}", now
                    );
                    for s in 0..16u8 {
                        let subject = format!("s{s}");
                        let of_subject: Vec<ContextId> = pool
                            .of_subject_live_at(&kind, &subject, now)
                            .map(|(id, _)| id)
                            .collect();
                        prop_assert_eq!(
                            of_subject,
                            live(&|c| c.kind() == &kind && c.subject() == subject && c.is_live(now)),
                            "of_subject_live_at({}) at {}", subject, now
                        );
                    }
                }
            }
            prop_assert_eq!(pool.indexed_subjects(), entries.len());
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for (c, discarded) in model.values() {
                if !discarded {
                    *counts.entry(c.subject().to_owned()).or_default() += 1;
                }
            }
            prop_assert_eq!(pool.subject_counts(), counts);
        }
    }

    /// Seq-range views. Inserting contexts one at a time and as one
    /// `insert_batch` leave every subject bucket with the same seq order
    /// flag — across out-of-order stamps, broken seqs, discards and
    /// removals that empty buckets — and whenever the pool vouches for
    /// a bucket, `of_subject_seq_live_at` yields exactly the contexts of
    /// `of_subject_live_at` whose exact seq lies in the range.
    #[test]
    fn seq_views_match_scans_and_insert_paths(
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((arrival(), seq()), 1..8),
                proptest::option::of(any::<u8>()),
                proptest::option::of(any::<u8>()),
            ),
            1..30,
        )
    ) {
        let mut one_by_one = ContextPool::new();
        let mut batched = ContextPool::new();
        let mut clock = LogicalTime::ZERO;
        let mut inserted: Vec<ContextId> = Vec::new();
        for (batch, remove, discard) in steps {
            let ctxs: Vec<Context> = batch
                .iter()
                .map(|(a, seq)| arrive_seq(a, seq, &mut clock))
                .collect();
            for ctx in ctxs.clone() {
                inserted.push(one_by_one.insert(ctx));
            }
            batched.insert_batch(ctxs);
            if let Some(target) = remove {
                let id = inserted[usize::from(target) % inserted.len()];
                prop_assert_eq!(one_by_one.remove(id).is_some(), batched.remove(id).is_some());
            }
            if let Some(target) = discard {
                let id = inserted[usize::from(target) % inserted.len()];
                prop_assert_eq!(one_by_one.discard(id).is_ok(), batched.discard(id).is_ok());
            }
            let kind = kind_name(0);
            let tick = clock.tick() as i64;
            for s in 0..3u8 {
                let subject = format!("s{s}");
                for now in [clock.tick().saturating_sub(3), clock.tick(), clock.tick() + 5] {
                    let now = LogicalTime::new(now);
                    for (lo, hi) in [(i64::MIN, i64::MAX), (tick - 6, tick - 2), (tick - 3, tick - 3)] {
                        let view = |pool: &ContextPool| {
                            pool.of_subject_seq_live_at(&kind, &subject, lo..=hi, now)
                                .map(|it| it.map(|(id, _)| id).collect::<Vec<_>>())
                        };
                        let found = view(&one_by_one);
                        prop_assert_eq!(&found, &view(&batched), "subject {}", subject);
                        if let Some(found) = found {
                            let want: Vec<ContextId> = one_by_one
                                .of_subject_live_at(&kind, &subject, now)
                                .filter(|(_, c)| {
                                    c.exact_seq().is_some_and(|seq| (lo..=hi).contains(&seq))
                                })
                                .map(|(id, _)| id)
                                .collect();
                            prop_assert_eq!(
                                found, want,
                                "of_subject_seq_live_at({}, {}..={}) at {}", subject, lo, hi, now
                            );
                        }
                    }
                }
            }
        }
    }

    /// The four-state machine: any sequence of transitions keeps every
    /// context on a legal Fig. 8 path (at most one bad detour, ending in
    /// a terminal state or still undecided).
    #[test]
    fn life_cycle_paths_are_legal(
        steps in proptest::collection::vec(
            prop_oneof![
                Just(ContextState::Consistent),
                Just(ContextState::Bad),
                Just(ContextState::Inconsistent),
            ],
            0..6,
        )
    ) {
        let mut ctx = Context::builder(ContextKind::new("k"), "s").build();
        let mut path = vec![ctx.state()];
        for next in steps {
            if ctx.set_state(next).is_ok() {
                path.push(next);
            }
        }
        // Legal paths: U, U-C, U-B, U-I, U-B-I.
        let rendered: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        let p = rendered.join("-");
        prop_assert!(
            matches!(
                p.as_str(),
                "undecided"
                    | "undecided-consistent"
                    | "undecided-bad"
                    | "undecided-inconsistent"
                    | "undecided-bad-inconsistent"
            ),
            "illegal path {p}"
        );
    }

    /// A context's attribute slice behaves like an ordered map fed the
    /// same builder calls: last write wins, `attrs()` and the `Debug`
    /// form list names in order, every accessor reads what the map
    /// holds, and equality follows the maps' equality (a NaN attribute
    /// makes a context unequal even to itself). A clone shares the
    /// body but not the state.
    #[test]
    fn attribute_slice_matches_an_ordered_map(
        calls in proptest::collection::vec(attr_call(), 0..10),
        other in proptest::collection::vec(attr_call(), 0..3),
    ) {
        let (c, model) = built(&calls);
        let listed: Vec<String> = c.attrs().map(|(n, v)| format!("{n:?}: {v:?}")).collect();
        let expected: Vec<String> = model.iter().map(|(n, v)| format!("{n:?}: {v:?}")).collect();
        prop_assert_eq!(listed, expected);
        let debug = format!("{c:?}");
        let attrs_debug = format!("attrs: {model:?},");
        prop_assert!(debug.contains(&attrs_debug), "{debug}");
        for name in NAMES.iter().chain(&["abc", "se", "seqq"]) {
            let want = model.get(*name);
            prop_assert_eq!(format!("{:?}", c.attr(name)), format!("{want:?}"));
            prop_assert_eq!(
                c.number(name).map(f64::to_bits),
                want.and_then(ContextValue::as_f64).map(f64::to_bits)
            );
            prop_assert_eq!(c.text(name), want.and_then(ContextValue::as_text));
            prop_assert_eq!(c.point(name), want.and_then(ContextValue::as_point));
        }
        let seq = match model.get(SEQ_ATTR) {
            Some(ContextValue::Int(seq)) if seq.unsigned_abs() < 1 << 52 => Some(*seq),
            _ => None,
        };
        prop_assert_eq!(c.exact_seq(), seq);

        // The same map given in reverse name order builds an equal
        // context; another call sequence builds one equal exactly when
        // its map is.
        let reversed: Vec<(usize, ContextValue)> = model
            .iter()
            .rev()
            .map(|(n, v)| (NAMES.iter().position(|m| m == n).unwrap(), v.clone()))
            .collect();
        let (rebuilt, _) = built(&reversed);
        let has_nan = model
            .values()
            .any(|v| matches!(v, ContextValue::Float(f) if f.is_nan()));
        prop_assert_eq!(c == rebuilt, !has_nan);
        let (d, other_model) = built(&other);
        prop_assert_eq!(c == d, model == other_model);

        let mut e = c.clone();
        prop_assert_eq!(c == e, !has_nan);
        e.set_state(ContextState::Bad).unwrap();
        prop_assert_eq!((c.state(), e.state()), (ContextState::Undecided, ContextState::Bad));
        prop_assert!(c != e);
        prop_assert_eq!(format!("{:?}", e.attr(SEQ_ATTR)), format!("{:?}", c.attr(SEQ_ATTR)));
    }
}
