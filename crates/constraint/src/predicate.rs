//! Predicate registry: the extensible atoms of the constraint language.

use crate::error::EvalError;
use ctxres_context::{Context, ContextId, ContextValue, Point, SEQ_ATTR};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, LazyLock, PoisonError, RwLock};

/// A predicate argument after variable/attribute resolution.
#[derive(Debug, Clone)]
pub enum Resolved<'a> {
    /// A whole context bound by a quantifier (`Term::Var`).
    Ctx(ContextId, &'a Context),
    /// An owned value (predicates constructed directly, e.g. in tests).
    Value(ContextValue),
    /// A value borrowed from the pool or the constraint itself
    /// (`Term::Attr` / `Term::Const`) — the evaluators' allocation-free
    /// argument form.
    ValueRef(&'a ContextValue),
}

impl<'a> Resolved<'a> {
    /// The context, when the argument is one.
    pub fn ctx(&self) -> Option<(&'a Context, ContextId)> {
        match self {
            Resolved::Ctx(id, c) => Some((c, *id)),
            Resolved::Value(_) | Resolved::ValueRef(_) => None,
        }
    }

    /// The value, when the argument is one.
    pub fn value(&self) -> Option<&ContextValue> {
        match self {
            Resolved::Value(v) => Some(v),
            Resolved::ValueRef(v) => Some(v),
            Resolved::Ctx(..) => None,
        }
    }

    /// Context ids referenced by this argument (used for link evidence).
    pub fn referenced_id(&self) -> Option<ContextId> {
        match self {
            Resolved::Ctx(id, _) => Some(*id),
            Resolved::Value(_) | Resolved::ValueRef(_) => None,
        }
    }
}

/// A predicate name interned in the process-wide symbol table, so a
/// compiled call site reaches its registry entry by index instead of
/// hashing the name.
///
/// The table is append-only: it holds each distinct name any registry
/// registered or any constraint compiled, once, for the life of the
/// process. A symbol therefore means the same name in every registry,
/// including one built after the constraint was compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PredSym(u32);

impl PredSym {
    /// The builtins narrowing trusts by name (see
    /// [`PredicateRegistry::with_builtins`]), pre-seeded so they are
    /// constants.
    pub(crate) const SAME_SUBJECT: PredSym = PredSym(0);
    pub(crate) const SUBJECT_EQ: PredSym = PredSym(1);
    pub(crate) const SEQ_GAP: PredSym = PredSym(2);
    pub(crate) const SEQ_GAP_LE: PredSym = PredSym(3);

    /// The symbol of `name`, adding it to the table if the process has
    /// never seen it (the only case that takes the write lock).
    pub(crate) fn intern(name: &str) -> PredSym {
        if let Some(&sym) = SYMBOLS
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .ids
            .get(name)
        {
            return sym;
        }
        let mut table = SYMBOLS.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&sym) = table.ids.get(name) {
            return sym;
        }
        table.push(name)
    }

    /// The interned name (for error reports; takes the read lock).
    pub(crate) fn name(self) -> String {
        let table = SYMBOLS.read().unwrap_or_else(PoisonError::into_inner);
        table.names[self.index()].to_string()
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The process-wide predicate symbol table behind [`PredSym`]. Its
/// users recover the lock from poisoning: [`Symbols::push`] maps a name
/// only after storing it, so the table is valid at every step.
struct Symbols {
    ids: HashMap<Arc<str>, PredSym>,
    names: Vec<Arc<str>>,
}

impl Symbols {
    fn push(&mut self, name: &str) -> PredSym {
        let sym = PredSym(u32::try_from(self.names.len()).expect("under 2^32 predicate names"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, sym);
        sym
    }
}

static SYMBOLS: LazyLock<RwLock<Symbols>> = LazyLock::new(|| {
    let mut table = Symbols {
        ids: HashMap::new(),
        names: Vec::new(),
    };
    for (name, sym) in [
        ("same_subject", PredSym::SAME_SUBJECT),
        ("subject_eq", PredSym::SUBJECT_EQ),
        ("seq_gap", PredSym::SEQ_GAP),
        ("seq_gap_le", PredSym::SEQ_GAP_LE),
    ] {
        assert_eq!(table.push(name), sym);
    }
    RwLock::new(table)
});

type PredicateFn = Arc<dyn Fn(&[Resolved<'_>]) -> Result<bool, EvalError> + Send + Sync>;

#[derive(Clone)]
struct Entry {
    arity: usize,
    func: PredicateFn,
}

/// Registry mapping predicate names to their implementations.
///
/// Applications extend the language by registering domain predicates;
/// [`PredicateRegistry::with_builtins`] provides the standard library
/// listed in the crate docs (comparisons, topology, velocity, …).
///
/// ```
/// use ctxres_constraint::{PredicateRegistry, Resolved};
/// use ctxres_context::ContextValue;
///
/// let mut reg = PredicateRegistry::with_builtins();
/// reg.register("always", 0, |_| Ok(true));
/// let ok = reg.eval("always", &[]).unwrap();
/// assert!(ok);
/// let two = [
///     Resolved::Value(ContextValue::Int(1)),
///     Resolved::Value(ContextValue::Int(2)),
/// ];
/// assert!(reg.eval("lt", &two).unwrap());
/// ```
///
/// A clone shares the predicate implementations.
#[derive(Clone, Default)]
pub struct PredicateRegistry {
    /// Entries indexed by [`PredSym`]; `None` for a name this registry
    /// does not define.
    entries: Vec<Option<Entry>>,
    /// The registry's own name → symbol map, so by-name calls never
    /// touch the process-wide table.
    syms: HashMap<Arc<str>, PredSym>,
}

impl fmt::Debug for PredicateRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.syms.keys().map(|name| &**name).collect();
        names.sort_unstable();
        f.debug_struct("PredicateRegistry")
            .field("predicates", &names)
            .finish()
    }
}

impl PredicateRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PredicateRegistry::default()
    }

    /// Creates a registry pre-populated with the builtin predicates.
    ///
    /// | name | args | meaning |
    /// |------|------|---------|
    /// | `eq, ne, lt, le, gt, ge` | v, v | value comparison (numeric across int/float, text, bool) |
    /// | `same_subject` † | c, c | the two contexts concern the same subject |
    /// | `subject_eq` † | c, text | the context's subject equals the text |
    /// | `distinct` | c, c | the two bound contexts are different contexts |
    /// | `before` | c, c | first context's stamp strictly precedes the second's |
    /// | `time_gap_le` | c, c, n | stamps differ by at most `n` ticks |
    /// | `seq_gap` † | c, c, n | `b.seq - a.seq == n` (stream position gap) |
    /// | `seq_gap_le` † | c, c, n | `0 < b.seq - a.seq <= n` |
    /// | `dist_le` | c, c, d | Euclidean distance of `pos` attrs ≤ `d` |
    /// | `velocity_le` | c, c, v | implied speed between the `pos` attrs ≤ `v` per tick |
    /// | `within` | c, x0, y0, x1, y1 | `pos` lies in the axis-aligned rectangle |
    /// | `has_attr` | c, text | the context defines the named attribute |
    ///
    /// † Read by name outside the registry: the scope analysis trusts
    /// `same_subject` guards, [`CompiledEvaluator::holds`] scans only
    /// the literal subject's contexts for quantifiers led by a
    /// `subject_eq` guard, and a pinned check of a constraint guarded by
    /// `same_subject` and `seq_gap`/`seq_gap_le` looks up the pair's
    /// partner by seq ([`CompiledEvaluator::check_pinned`]). Narrowing
    /// trusts a name only while the registry defines it at its builtin
    /// arity (2, 2, 3 and 3 above); a registry that re-registers one at
    /// that arity must keep the builtin meaning (a counting forwarder to
    /// the builtin does).
    ///
    /// [`CompiledEvaluator::holds`]: crate::CompiledEvaluator::holds
    /// [`CompiledEvaluator::check_pinned`]: crate::CompiledEvaluator::check_pinned
    pub fn with_builtins() -> Self {
        static BUILTINS: LazyLock<PredicateRegistry> = LazyLock::new(PredicateRegistry::builtins);
        BUILTINS.clone()
    }

    /// Builds the registry [`PredicateRegistry::with_builtins`] clones,
    /// once per process.
    fn builtins() -> Self {
        let mut reg = PredicateRegistry::new();
        reg.register_comparison("eq", |o| o == Ordering::Equal, false);
        reg.register_comparison("ne", |o| o == Ordering::Equal, true);
        reg.register_comparison("lt", |o| o == Ordering::Less, false);
        reg.register_comparison("le", |o| o != Ordering::Greater, false);
        reg.register_comparison("gt", |o| o == Ordering::Greater, false);
        reg.register_comparison("ge", |o| o != Ordering::Less, false);

        reg.register("same_subject", 2, |args| {
            let (a, _) = ctx_arg("same_subject", args, 0)?;
            let (b, _) = ctx_arg("same_subject", args, 1)?;
            Ok(a.subject() == b.subject())
        });
        reg.register("subject_eq", 2, |args| {
            let (a, _) = ctx_arg("subject_eq", args, 0)?;
            let name = text_arg("subject_eq", args, 1)?;
            Ok(a.subject() == name)
        });
        reg.register("distinct", 2, |args| {
            let (_, ia) = ctx_arg("distinct", args, 0)?;
            let (_, ib) = ctx_arg("distinct", args, 1)?;
            Ok(ia != ib)
        });
        reg.register("before", 2, |args| {
            let (a, _) = ctx_arg("before", args, 0)?;
            let (b, _) = ctx_arg("before", args, 1)?;
            Ok(a.stamp() < b.stamp())
        });
        reg.register("time_gap_le", 3, |args| {
            let (a, _) = ctx_arg("time_gap_le", args, 0)?;
            let (b, _) = ctx_arg("time_gap_le", args, 1)?;
            let n = num_arg("time_gap_le", args, 2)?;
            let gap = if a.stamp() <= b.stamp() {
                (b.stamp() - a.stamp()).count()
            } else {
                (a.stamp() - b.stamp()).count()
            };
            Ok((gap as f64) <= n)
        });
        reg.register("seq_gap", 3, |args| {
            let sa = seq_of("seq_gap", args, 0)?;
            let sb = seq_of("seq_gap", args, 1)?;
            let n = num_arg("seq_gap", args, 2)?;
            Ok((sb - sa - n).abs() < f64::EPSILON)
        });
        reg.register("seq_gap_le", 3, |args| {
            let sa = seq_of("seq_gap_le", args, 0)?;
            let sb = seq_of("seq_gap_le", args, 1)?;
            let n = num_arg("seq_gap_le", args, 2)?;
            let gap = sb - sa;
            Ok(gap > 0.0 && gap <= n)
        });
        reg.register("dist_le", 3, |args| {
            let pa = pos_of("dist_le", args, 0)?;
            let pb = pos_of("dist_le", args, 1)?;
            let d = num_arg("dist_le", args, 2)?;
            Ok(pa.distance(pb) <= d)
        });
        reg.register("velocity_le", 3, |args| {
            let (a, _) = ctx_arg("velocity_le", args, 0)?;
            let (b, _) = ctx_arg("velocity_le", args, 1)?;
            let pa = pos_of("velocity_le", args, 0)?;
            let pb = pos_of("velocity_le", args, 1)?;
            let vmax = num_arg("velocity_le", args, 2)?;
            let dt = if a.stamp() <= b.stamp() {
                (b.stamp() - a.stamp()).count()
            } else {
                (a.stamp() - b.stamp()).count()
            } as f64;
            let dist = pa.distance(pb);
            if dt == 0.0 {
                // Two estimates for the same instant: any separation is an
                // infinite implied speed.
                Ok(dist == 0.0)
            } else {
                Ok(dist / dt <= vmax)
            }
        });
        reg.register("within", 5, |args| {
            let p = pos_of("within", args, 0)?;
            let x0 = num_arg("within", args, 1)?;
            let y0 = num_arg("within", args, 2)?;
            let x1 = num_arg("within", args, 3)?;
            let y1 = num_arg("within", args, 4)?;
            Ok(p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1)
        });
        reg.register("has_attr", 2, |args| {
            let (a, _) = ctx_arg("has_attr", args, 0)?;
            let name = text_arg("has_attr", args, 1)?;
            Ok(a.attr(name).is_some())
        });
        reg
    }

    /// Registers (or replaces) a predicate.
    pub fn register(
        &mut self,
        name: &str,
        arity: usize,
        func: impl Fn(&[Resolved<'_>]) -> Result<bool, EvalError> + Send + Sync + 'static,
    ) -> &mut Self {
        let sym = PredSym::intern(name);
        self.syms.insert(name.into(), sym);
        if self.entries.len() <= sym.index() {
            self.entries.resize_with(sym.index() + 1, || None);
        }
        self.entries[sym.index()] = Some(Entry {
            arity,
            func: Arc::new(func),
        });
        self
    }

    fn register_comparison(
        &mut self,
        name: &'static str,
        accept: fn(Ordering) -> bool,
        negate: bool,
    ) {
        self.register(name, 2, move |args| {
            let a = value_arg(name, args, 0)?;
            let b = value_arg(name, args, 1)?;
            match a.partial_cmp_value(b) {
                Some(o) => Ok(accept(o) != negate),
                None => Err(EvalError::Type {
                    name: name.to_owned(),
                    detail: format!("cannot compare {} with {}", a.type_name(), b.type_name()),
                }),
            }
        });
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.syms.contains_key(name)
    }

    /// Evaluates predicate `name` on resolved arguments.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownPredicate`] for unregistered names,
    /// [`EvalError::Arity`] on argument-count mismatch, and whatever the
    /// predicate itself raises.
    pub fn eval(&self, name: &str, args: &[Resolved<'_>]) -> Result<bool, EvalError> {
        match self.syms.get(name) {
            Some(&sym) => self.call(sym, args, || name.to_owned()),
            None => Err(EvalError::UnknownPredicate(name.to_owned())),
        }
    }

    /// [`PredicateRegistry::eval`] by symbol: the compiled call sites'
    /// path, which indexes instead of hashing the name.
    pub(crate) fn eval_sym(&self, sym: PredSym, args: &[Resolved<'_>]) -> Result<bool, EvalError> {
        self.call(sym, args, || sym.name())
    }

    /// Calls `sym`'s entry; `name` spells the predicate in an error.
    fn call(
        &self,
        sym: PredSym,
        args: &[Resolved<'_>],
        name: impl Fn() -> String,
    ) -> Result<bool, EvalError> {
        let Some(entry) = self.entry(sym) else {
            return Err(EvalError::UnknownPredicate(name()));
        };
        if entry.arity != args.len() {
            return Err(EvalError::Arity {
                name: name(),
                expected: entry.arity,
                actual: args.len(),
            });
        }
        (entry.func)(args)
    }

    /// The arity `sym` is registered at, if the registry defines it.
    pub(crate) fn arity(&self, sym: PredSym) -> Option<usize> {
        self.entry(sym).map(|entry| entry.arity)
    }

    fn entry(&self, sym: PredSym) -> Option<&Entry> {
        self.entries.get(sym.index())?.as_ref()
    }
}

fn ctx_arg<'a>(
    name: &str,
    args: &[Resolved<'a>],
    i: usize,
) -> Result<(&'a Context, ContextId), EvalError> {
    args[i].ctx().ok_or_else(|| EvalError::Type {
        name: name.to_owned(),
        detail: format!("argument {i} must be a context variable"),
    })
}

fn value_arg<'r, 'a>(
    name: &str,
    args: &'r [Resolved<'a>],
    i: usize,
) -> Result<&'r ContextValue, EvalError> {
    args[i].value().ok_or_else(|| EvalError::Type {
        name: name.to_owned(),
        detail: format!("argument {i} must be a value, not a bare context"),
    })
}

fn num_arg(name: &str, args: &[Resolved<'_>], i: usize) -> Result<f64, EvalError> {
    value_arg(name, args, i)?
        .as_f64()
        .ok_or_else(|| EvalError::Type {
            name: name.to_owned(),
            detail: format!("argument {i} must be numeric"),
        })
}

fn text_arg<'r>(name: &str, args: &'r [Resolved<'_>], i: usize) -> Result<&'r str, EvalError> {
    value_arg(name, args, i)?
        .as_text()
        .ok_or_else(|| EvalError::Type {
            name: name.to_owned(),
            detail: format!("argument {i} must be text"),
        })
}

fn pos_of(name: &str, args: &[Resolved<'_>], i: usize) -> Result<Point, EvalError> {
    let (c, _) = ctx_arg(name, args, i)?;
    c.point("pos").ok_or_else(|| EvalError::Type {
        name: name.to_owned(),
        detail: format!("context argument {i} lacks a point attribute \"pos\""),
    })
}

fn seq_of(name: &str, args: &[Resolved<'_>], i: usize) -> Result<f64, EvalError> {
    let (c, _) = ctx_arg(name, args, i)?;
    c.number(SEQ_ATTR).ok_or_else(|| EvalError::Type {
        name: name.to_owned(),
        detail: format!("context argument {i} lacks a numeric attribute \"{SEQ_ATTR}\""),
    })
}

/// A registry of `names` that forward to the builtins and count every
/// call into `calls`. Narrowing trusts the builtin names, so it stays on
/// for these forwarders and tests can count the work it leaves.
#[cfg(test)]
pub(crate) fn counting_builtins(
    names: &[(&str, usize)],
    calls: &Arc<std::sync::atomic::AtomicU64>,
) -> PredicateRegistry {
    let builtins = Arc::new(PredicateRegistry::with_builtins());
    let mut registry = PredicateRegistry::new();
    for &(name, arity) in names {
        let (builtins, calls, forwarded) =
            (Arc::clone(&builtins), Arc::clone(calls), name.to_owned());
        registry.register(name, arity, move |args| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            builtins.eval(&forwarded, args)
        });
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::{Context, ContextKind, LogicalTime};

    fn loc(subject: &str, seq: i64, t: u64, x: f64, y: f64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .attr("pos", Point::new(x, y))
            .attr("seq", seq)
            .stamp(LogicalTime::new(t))
            .build()
    }

    fn rc(ctx: &Context, id: u64) -> Resolved<'_> {
        Resolved::Ctx(ContextId::from_raw(id), ctx)
    }

    fn v(val: impl Into<ContextValue>) -> Resolved<'static> {
        Resolved::Value(val.into())
    }

    #[test]
    fn comparisons_work_numerically() {
        let reg = PredicateRegistry::with_builtins();
        assert!(reg.eval("eq", &[v(2i64), v(2.0)]).unwrap());
        assert!(reg.eval("ne", &[v(2i64), v(3i64)]).unwrap());
        assert!(reg.eval("lt", &[v(2i64), v(2.5)]).unwrap());
        assert!(reg.eval("le", &[v(2i64), v(2i64)]).unwrap());
        assert!(reg.eval("gt", &[v("b"), v("a")]).unwrap());
        assert!(reg.eval("ge", &[v(true), v(false)]).unwrap());
    }

    #[test]
    fn comparison_type_error_is_reported() {
        let reg = PredicateRegistry::with_builtins();
        let err = reg.eval("lt", &[v("text"), v(1i64)]).unwrap_err();
        assert!(matches!(err, EvalError::Type { .. }));
    }

    #[test]
    fn same_subject_and_distinct() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("peter", 0, 0, 0.0, 0.0);
        let b = loc("peter", 1, 1, 1.0, 0.0);
        let c = loc("mary", 2, 2, 0.0, 1.0);
        assert!(reg.eval("same_subject", &[rc(&a, 0), rc(&b, 1)]).unwrap());
        assert!(!reg.eval("same_subject", &[rc(&a, 0), rc(&c, 2)]).unwrap());
        assert!(reg.eval("distinct", &[rc(&a, 0), rc(&b, 1)]).unwrap());
        assert!(!reg.eval("distinct", &[rc(&a, 0), rc(&a, 0)]).unwrap());
    }

    #[test]
    fn velocity_le_uses_stamp_gap() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 0, 0.0, 0.0);
        let b = loc("p", 1, 2, 2.0, 0.0); // 2 m over 2 ticks = 1 m/tick
        assert!(reg
            .eval("velocity_le", &[rc(&a, 0), rc(&b, 1), v(1.0)])
            .unwrap());
        assert!(!reg
            .eval("velocity_le", &[rc(&a, 0), rc(&b, 1), v(0.5)])
            .unwrap());
    }

    #[test]
    fn velocity_le_zero_dt_requires_zero_distance() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 5, 0.0, 0.0);
        let b = loc("p", 1, 5, 1.0, 0.0);
        let c = loc("p", 2, 5, 0.0, 0.0);
        assert!(!reg
            .eval("velocity_le", &[rc(&a, 0), rc(&b, 1), v(100.0)])
            .unwrap());
        assert!(reg
            .eval("velocity_le", &[rc(&a, 0), rc(&c, 2), v(0.1)])
            .unwrap());
    }

    #[test]
    fn seq_gap_exact_and_bounded() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 3, 0, 0.0, 0.0);
        let b = loc("p", 5, 1, 0.0, 0.0);
        assert!(reg
            .eval("seq_gap", &[rc(&a, 0), rc(&b, 1), v(2i64)])
            .unwrap());
        assert!(!reg
            .eval("seq_gap", &[rc(&a, 0), rc(&b, 1), v(1i64)])
            .unwrap());
        assert!(reg
            .eval("seq_gap_le", &[rc(&a, 0), rc(&b, 1), v(2i64)])
            .unwrap());
        assert!(!reg
            .eval("seq_gap_le", &[rc(&b, 1), rc(&a, 0), v(2i64)])
            .unwrap());
    }

    #[test]
    fn within_rectangle() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 0, 2.0, 3.0);
        assert!(reg
            .eval("within", &[rc(&a, 0), v(0.0), v(0.0), v(5.0), v(5.0)])
            .unwrap());
        assert!(!reg
            .eval("within", &[rc(&a, 0), v(0.0), v(0.0), v(1.0), v(1.0)])
            .unwrap());
    }

    #[test]
    fn dist_le_measures_euclidean() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 0, 0.0, 0.0);
        let b = loc("p", 1, 1, 3.0, 4.0);
        assert!(reg
            .eval("dist_le", &[rc(&a, 0), rc(&b, 1), v(5.0)])
            .unwrap());
        assert!(!reg
            .eval("dist_le", &[rc(&a, 0), rc(&b, 1), v(4.9)])
            .unwrap());
    }

    #[test]
    fn subject_eq_and_has_attr() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("peter", 0, 0, 0.0, 0.0);
        assert!(reg.eval("subject_eq", &[rc(&a, 0), v("peter")]).unwrap());
        assert!(!reg.eval("subject_eq", &[rc(&a, 0), v("mary")]).unwrap());
        assert!(reg.eval("has_attr", &[rc(&a, 0), v("pos")]).unwrap());
        assert!(!reg
            .eval("has_attr", &[rc(&a, 0), v("temperature")])
            .unwrap());
    }

    #[test]
    fn unknown_predicate_and_arity_errors() {
        let reg = PredicateRegistry::with_builtins();
        assert!(matches!(
            reg.eval("no_such", &[]).unwrap_err(),
            EvalError::UnknownPredicate(_)
        ));
        assert!(matches!(
            reg.eval("eq", &[v(1i64)]).unwrap_err(),
            EvalError::Arity {
                expected: 2,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn custom_predicates_extend_the_language() {
        let mut reg = PredicateRegistry::with_builtins();
        reg.register("is_peter", 1, |args| {
            let (c, _) = args[0].ctx().ok_or(EvalError::Type {
                name: "is_peter".into(),
                detail: "need a context".into(),
            })?;
            Ok(c.subject() == "peter")
        });
        let a = loc("peter", 0, 0, 0.0, 0.0);
        assert!(reg.eval("is_peter", &[rc(&a, 0)]).unwrap());
        assert!(reg.contains("is_peter"));
    }

    #[test]
    fn before_orders_by_stamp() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 1, 0.0, 0.0);
        let b = loc("p", 1, 2, 0.0, 0.0);
        assert!(reg.eval("before", &[rc(&a, 0), rc(&b, 1)]).unwrap());
        assert!(!reg.eval("before", &[rc(&b, 1), rc(&a, 0)]).unwrap());
    }

    #[test]
    fn time_gap_le_is_symmetric() {
        let reg = PredicateRegistry::with_builtins();
        let a = loc("p", 0, 1, 0.0, 0.0);
        let b = loc("p", 1, 4, 0.0, 0.0);
        assert!(reg
            .eval("time_gap_le", &[rc(&a, 0), rc(&b, 1), v(3i64)])
            .unwrap());
        assert!(reg
            .eval("time_gap_le", &[rc(&b, 1), rc(&a, 0), v(3i64)])
            .unwrap());
        assert!(!reg
            .eval("time_gap_le", &[rc(&a, 0), rc(&b, 1), v(2i64)])
            .unwrap());
    }
}
