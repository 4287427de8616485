//! Deploy-time constraint compilation.
//!
//! [`Evaluator`](crate::Evaluator) walks the [`Formula`] AST directly:
//! every quantifier binding clones the variable name into an env vector,
//! every variable reference does a reverse linear scan by string
//! comparison, and every quantifier allocates a fresh domain `Vec`. None
//! of that work depends on the pool — it is the same on every call, so a
//! deployed constraint can pay it **once**.
//!
//! [`CompiledConstraint::compile`] lowers a [`Constraint`] into a
//! flattened program in which
//!
//! * every variable reference is resolved to a **slot** — an index into a
//!   reusable env scratch buffer (slots coincide with the structural
//!   quantifier ids, so pinning works unchanged);
//! * every quantifier's kind is **interned** into a per-constraint kind
//!   table (the distinct kinds are also exposed via
//!   [`CompiledConstraint::kinds`]);
//! * every predicate name is interned into a process-wide symbol
//!   ([`PredSym`]), so a call indexes the registry's entry table
//!   instead of hashing the name — in any registry, including one built
//!   after the constraint was compiled;
//! * constants are evaluated by reference ([`Resolved::ValueRef`]), never
//!   cloned.
//!
//! [`CompiledEvaluator`] then evaluates the program with **zero
//! per-binding allocations**: the env buffer and the per-quantifier
//! domain buffers live in an [`EvalScratch`] that the caller reuses
//! across calls (and across constraints — it grows to the largest slot
//! count seen). Link-evidence semantics are shared with the AST
//! evaluator via the `Evidence`/`Need` machinery in `eval`, so both
//! evaluators produce byte-identical [`CheckOutcome`]s.
//!
//! Every walker evaluates left to right and short-circuits: `and`,
//! `or` and `implies` skip the right operand when the left one decides.
//! The evidence walk visits every quantifier binding, so it lists every
//! violation; the truth walk stops a quantifier at its first deciding
//! binding. Under that rule a pinned check of a pair constraint needs
//! only the one partner its seq guard admits (see [`SeqGuard`]).
//! Narrowing trusts the builtins it reads by name only where the
//! registry defines them at their builtin arity (see [`Trusted`]).

use crate::ast::{Formula, Quantifier, Term};
use crate::constraint::Constraint;
use crate::error::EvalError;
use crate::eval::{
    combine_undecided, fold_exists, fold_forall, outcome_from, CheckOutcome, DomainMode, Evidence,
    Link, Need, Pin,
};
use crate::predicate::{PredSym, PredicateRegistry, Resolved};
use crate::schema::{constraint_scope, ConstraintScope};
use ctxres_context::{Context, ContextId, ContextKind, ContextPool, ContextValue, LogicalTime};
use std::ops::RangeInclusive;

/// A term lowered to slot-addressed form. Variable names are kept only
/// for error reporting (`UnboundVariable` / `MissingAttr` parity with
/// the AST evaluator); the hot path never compares or clones them.
#[derive(Debug, Clone, PartialEq)]
enum CTerm {
    /// A quantifier-bound context, read from env slot `slot`.
    Slot { slot: usize, var: String },
    /// An attribute of a bound context.
    Attr {
        slot: usize,
        var: String,
        attr: String,
    },
    /// A literal, evaluated by reference.
    Const(ContextValue),
}

/// A formula node with variables resolved to slots and kinds interned.
#[derive(Debug, Clone, PartialEq)]
enum CFormula {
    True,
    False,
    Not(Box<CFormula>),
    And(Box<CFormula>, Box<CFormula>),
    Or(Box<CFormula>, Box<CFormula>),
    Implies(Box<CFormula>, Box<CFormula>),
    Pred {
        /// The predicate's interned name: calls index the registry by it.
        sym: PredSym,
        args: Vec<CTerm>,
        /// Per-constraint predicate-occurrence id, assigned in lowering
        /// order. Together with the arguments' slot bindings it keys the
        /// per-batch [`PredMemo`].
        site: u32,
        /// The distinct env slots the arguments read (sorted). Two or
        /// fewer slots make the call memoizable; wider calls bypass the
        /// memo.
        slots: Vec<usize>,
    },
    Quant {
        q: Quantifier,
        /// Index into the constraint's kind table.
        kind_sym: usize,
        /// Env slot the binding writes (equals the structural qid, so
        /// [`CompiledEvaluator::check_pinned`] pins by slot).
        slot: usize,
        /// `Some(lit)` when only bindings about subject `lit` can decide
        /// the quantifier (see [`literal_subject`]):
        /// [`CompiledEvaluator::holds`] then scans that subject's bucket
        /// instead of the whole kind.
        subject: Option<String>,
        body: Box<CFormula>,
    },
}

/// A [`Constraint`] lowered for allocation-free evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledConstraint {
    name: String,
    program: CFormula,
    /// Interned quantifier kinds, indexed by `CFormula::Quant::kind_sym`.
    kind_table: Vec<ContextKind>,
    /// The distinct kinds quantified over (sorted; mirrors
    /// [`Constraint::kinds`]).
    kinds: Vec<ContextKind>,
    slot_count: usize,
    universal_positive: bool,
    /// Deploy-time sharding-scope verdict: `true` when
    /// [`constraint_scope`] proves every violating binding draws all its
    /// contexts from one subject. Pinned checks on such constraints
    /// quantify over the pool's per-subject index instead of the whole
    /// kind list.
    per_subject: bool,
    /// The seq guard of a per-subject pair constraint, if it has one.
    seq_guard: Option<SeqGuard>,
}

impl CompiledConstraint {
    /// Lowers `constraint` into slot-addressed form.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnboundVariable`] if the formula references a
    /// variable no enclosing quantifier binds — the AST evaluator would
    /// only discover this at evaluation time; compilation surfaces it at
    /// deploy time.
    pub fn compile(constraint: &Constraint) -> Result<Self, EvalError> {
        let mut kind_table = Vec::new();
        let mut scope: Vec<(&str, usize)> = Vec::new();
        let mut sites = 0u32;
        let program = lower(
            constraint.formula(),
            &mut kind_table,
            &mut scope,
            &mut sites,
        )?;
        let per_subject = constraint_scope(constraint) == ConstraintScope::PerSubject;
        Ok(CompiledConstraint {
            name: constraint.name().to_owned(),
            seq_guard: if per_subject {
                seq_guard(&program)
            } else {
                None
            },
            program,
            kinds: constraint.kinds().iter().cloned().collect(),
            kind_table,
            slot_count: constraint.quantifier_count(),
            universal_positive: constraint.is_universal_positive(),
            per_subject,
        })
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The distinct context kinds the constraint quantifies over
    /// (sorted). A pool change to any other kind cannot change this
    /// constraint's verdict.
    pub fn kinds(&self) -> &[ContextKind] {
        &self.kinds
    }

    /// Whether the constraint quantifies over `kind`.
    pub fn quantifies_over(&self, kind: &ContextKind) -> bool {
        self.kinds.binary_search(kind).is_ok()
    }

    /// Whether the formula lies in the incremental-checkable fragment.
    pub fn is_universal_positive(&self) -> bool {
        self.universal_positive
    }

    /// Whether every violating binding is provably same-subject (see
    /// [`constraint_scope`]). When true, a pinned check restricts every
    /// unpinned quantifier to the pinned context's subject bucket —
    /// O(subject track) instead of O(kind).
    pub fn is_per_subject(&self) -> bool {
        self.per_subject
    }

    /// Number of env slots (= quantifiers) the program uses.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Whether pinned checks can look up a pair's partner by seq: the
    /// constraint is per-subject and carries a `seq_gap`/`seq_gap_le`
    /// guard (see [`CompiledEvaluator::check_pinned`]).
    pub fn has_seq_guard(&self) -> bool {
        self.seq_guard.is_some()
    }

    /// The pool slices [`CompiledEvaluator::holds`] reads under
    /// `registry`, one per quantifier in program order: the quantifier's
    /// kind and the literal subject a leading `subject_eq(x, "lit")`
    /// guard narrows it to, or `None` where `holds` scans the whole
    /// kind: no such guard, or a registry that does not define
    /// `subject_eq` at its builtin arity 2.
    ///
    /// In [`DomainMode::AvailableOnly`], `holds` is then a function of
    /// `now` and of the available, unexpired contexts of these slices,
    /// given predicates that are pure functions of their arguments.
    pub fn slices(&self, registry: &PredicateRegistry) -> Vec<(&ContextKind, Option<&str>)> {
        let narrow = Trusted::of(registry).subject_eq;
        let mut slices = Vec::new();
        let mut stack = vec![&self.program];
        while let Some(f) = stack.pop() {
            match f {
                CFormula::True | CFormula::False | CFormula::Pred { .. } => {}
                CFormula::Not(a) => stack.push(a),
                CFormula::And(a, b) | CFormula::Or(a, b) | CFormula::Implies(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                CFormula::Quant {
                    kind_sym,
                    subject,
                    body,
                    ..
                } => {
                    let subject = subject.as_deref().filter(|_| narrow);
                    slices.push((&self.kind_table[*kind_sym], subject));
                    stack.push(body);
                }
            }
        }
        slices
    }
}

/// The guard `seq_gap(u, v, k)` — or `seq_gap_le(u, v, k)` with
/// `k >= 1` — of a per-subject constraint shaped
/// `forall … . G implies C`: a chain of `forall`s whose body is an
/// implication, where `G`'s left-to-right `and` spine is zero or more
/// `same_subject` leaves over two context variables, then the seq
/// predicate over two distinct chain variables and an integer literal.
///
/// A check pinning `u` (or `v`) to a context then only needs the other
/// variable's bindings whose seq is `pin.seq + k` (or `pin.seq - k`;
/// for `seq_gap_le` the `1..=k` range of gaps). Every other binding
/// reaches the seq leaf after `same_subject` leaves, which cannot raise
/// on context arguments, and the leaf is `Ok(false)` on it — so under
/// short-circuit evaluation the binding makes the implication true
/// without reading `C`: it neither decides the `forall` nor raises, and
/// skipping it leaves detections, links and `Ok`/`Err` unchanged.
///
/// That needs integer seqs whose `f64` arithmetic in the builtins is
/// exact. The pool's seq-ordered subject buckets vouch for it
/// ([`ContextPool::of_subject_seq_live_at`]); where they cannot, or the
/// pin's own seq is not exact, the check scans the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeqGuard {
    u: usize,
    v: usize,
    k: i64,
    /// `seq_gap_le` (gaps `1..=k`) rather than `seq_gap` (gap `k`).
    le: bool,
    /// Whether `same_subject` leaves precede the seq leaf.
    same_subject: bool,
}

/// Which of the builtins narrowing reads by name a registry defines at
/// the builtin arity. Narrowing skips bindings on the strength of a
/// predicate's builtin meaning; where the registry lacks the name or
/// registers it at another arity, every call raises
/// (`UnknownPredicate`/`Arity`), which skipping would hide.
#[derive(Debug, Clone, Copy)]
struct Trusted {
    same_subject: bool,
    subject_eq: bool,
    seq_gap: bool,
    seq_gap_le: bool,
}

impl Trusted {
    fn of(registry: &PredicateRegistry) -> Self {
        let builtin = |sym, arity| registry.arity(sym) == Some(arity);
        Trusted {
            same_subject: builtin(PredSym::SAME_SUBJECT, 2),
            subject_eq: builtin(PredSym::SUBJECT_EQ, 2),
            seq_gap: builtin(PredSym::SEQ_GAP, 3),
            seq_gap_le: builtin(PredSym::SEQ_GAP_LE, 3),
        }
    }
}

/// The slot a pinned check narrows by its [`SeqGuard`], and the
/// inclusive range of seqs that slot's bindings must carry.
#[derive(Debug, Clone, Copy)]
struct SeqWindow {
    slot: usize,
    lo: i64,
    hi: i64,
}

impl SeqGuard {
    /// Whether a check pinning `slot` can narrow by this guard under a
    /// registry trusted as `trusted`: it must trust every predicate the
    /// guard reads.
    fn narrows(&self, slot: usize, trusted: Trusted) -> bool {
        let defined = (!self.same_subject || trusted.same_subject)
            && if self.le {
                trusted.seq_gap_le
            } else {
                trusted.seq_gap
            };
        defined && (slot == self.u || slot == self.v)
    }

    /// The window for a check pinning `slot` (one of `u`, `v`) to a
    /// context with seq `pin`. Saturates at the `i64` range, which no
    /// exact seq reaches.
    fn window(&self, slot: usize, pin: i64) -> SeqWindow {
        let (min_gap, max_gap) = if self.le {
            (1, self.k)
        } else {
            (self.k, self.k)
        };
        let pin = i128::from(pin);
        let (other, lo, hi) = if slot == self.u {
            (self.v, pin + i128::from(min_gap), pin + i128::from(max_gap))
        } else {
            (self.u, pin - i128::from(max_gap), pin - i128::from(min_gap))
        };
        let clamp = |x: i128| x.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
        SeqWindow {
            slot: other,
            lo: clamp(lo),
            hi: clamp(hi),
        }
    }
}

impl SeqWindow {
    fn seqs(self) -> RangeInclusive<i64> {
        self.lo..=self.hi
    }
}

/// The [`SeqGuard`] of `program`, if it has the guarded shape. The
/// guard's variables are the chain's: nothing else is in its scope.
fn seq_guard(program: &CFormula) -> Option<SeqGuard> {
    let mut body = program;
    while let CFormula::Quant {
        q: Quantifier::Forall,
        body: inner,
        ..
    } = body
    {
        body = inner;
    }
    let CFormula::Implies(guard, _) = body else {
        return None;
    };
    let mut leaves = Vec::new();
    and_spine(guard, &mut leaves);
    let at = leaves.iter().position(|leaf| {
        !matches!(leaf, CFormula::Pred { sym: PredSym::SAME_SUBJECT, args, .. }
            if matches!(args.as_slice(), [CTerm::Slot { .. }, CTerm::Slot { .. }]))
    })?;
    let CFormula::Pred { sym, args, .. } = leaves[at] else {
        return None;
    };
    let le = *sym == PredSym::SEQ_GAP_LE;
    match args.as_slice() {
        [CTerm::Slot { slot: u, .. }, CTerm::Slot { slot: v, .. }, CTerm::Const(ContextValue::Int(k))]
            if (le || *sym == PredSym::SEQ_GAP) && u != v && (!le || *k >= 1) =>
        {
            Some(SeqGuard {
                u: *u,
                v: *v,
                k: *k,
                le,
                same_subject: at > 0,
            })
        }
        _ => None,
    }
}

/// The leaves of `f`'s `and` spine, left to right.
fn and_spine<'f>(f: &'f CFormula, leaves: &mut Vec<&'f CFormula>) {
    match f {
        CFormula::And(a, b) => {
            and_spine(a, leaves);
            and_spine(b, leaves);
        }
        leaf => leaves.push(leaf),
    }
}

fn lower<'f>(
    f: &'f Formula,
    kind_table: &mut Vec<ContextKind>,
    scope: &mut Vec<(&'f str, usize)>,
    sites: &mut u32,
) -> Result<CFormula, EvalError> {
    match f {
        Formula::True => Ok(CFormula::True),
        Formula::False => Ok(CFormula::False),
        Formula::Not(a) => Ok(CFormula::Not(Box::new(lower(a, kind_table, scope, sites)?))),
        Formula::And(a, b) => Ok(CFormula::And(
            Box::new(lower(a, kind_table, scope, sites)?),
            Box::new(lower(b, kind_table, scope, sites)?),
        )),
        Formula::Or(a, b) => Ok(CFormula::Or(
            Box::new(lower(a, kind_table, scope, sites)?),
            Box::new(lower(b, kind_table, scope, sites)?),
        )),
        Formula::Implies(a, b) => Ok(CFormula::Implies(
            Box::new(lower(a, kind_table, scope, sites)?),
            Box::new(lower(b, kind_table, scope, sites)?),
        )),
        Formula::Pred(call) => {
            let args = call
                .args
                .iter()
                .map(|t| lower_term(t, scope))
                .collect::<Result<Vec<_>, _>>()?;
            let mut slots: Vec<usize> = args
                .iter()
                .filter_map(|t| match t {
                    CTerm::Slot { slot, .. } | CTerm::Attr { slot, .. } => Some(*slot),
                    CTerm::Const(_) => None,
                })
                .collect();
            slots.sort_unstable();
            slots.dedup();
            let site = *sites;
            *sites += 1;
            Ok(CFormula::Pred {
                sym: PredSym::intern(&call.name),
                args,
                site,
                slots,
            })
        }
        Formula::Quant {
            q,
            var,
            kind,
            qid,
            body,
        } => {
            let kind_sym = match kind_table.iter().position(|k| k == kind) {
                Some(i) => i,
                None => {
                    kind_table.push(kind.clone());
                    kind_table.len() - 1
                }
            };
            scope.push((var, *qid));
            let body = lower(body, kind_table, scope, sites);
            scope.pop();
            let body = body?;
            Ok(CFormula::Quant {
                q: *q,
                kind_sym,
                slot: *qid,
                subject: literal_subject(*q, *qid, &body),
                body: Box::new(body),
            })
        }
    }
}

/// The literal subject a quantifier over `slot` narrows to under
/// [`CompiledEvaluator::holds`], if any. Two shapes qualify, both led
/// by a guard `subject_eq(x, "lit")` on the quantifier's own variable
/// `x` and a text literal:
///
/// * `exists x . subject_eq(x, "lit") and …` — the guard is the
///   leftmost leaf of the body's `and` spine;
/// * `forall x . (subject_eq(x, "lit") and …) implies …` — the guard is
///   the leftmost leaf of the antecedent's `and` spine.
///
/// The short-circuit evaluation reaches the guard before anything else
/// in the body. For a binding about another subject the guard is
/// `Ok(false)`, so the body is `Ok(false)` under `exists` and `Ok(true)`
/// under `forall` — neither decides the quantifier nor raises, and
/// skipping the binding changes nothing. Any other shape (the guard
/// under `or`, `not` or a bare `forall … and`, a guard on another
/// variable, a non-text literal) keeps the full kind domain.
fn literal_subject(q: Quantifier, slot: usize, body: &CFormula) -> Option<String> {
    let mut leaf = match (q, body) {
        (Quantifier::Exists, spine) => spine,
        (Quantifier::Forall, CFormula::Implies(antecedent, _)) => antecedent,
        (Quantifier::Forall, _) => return None,
    };
    while let CFormula::And(left, _) = leaf {
        leaf = left;
    }
    match leaf {
        CFormula::Pred {
            sym: PredSym::SUBJECT_EQ,
            args,
            ..
        } => match args.as_slice() {
            [CTerm::Slot { slot: guarded, .. }, CTerm::Const(ContextValue::Text(lit))]
                if *guarded == slot =>
            {
                Some(lit.clone())
            }
            _ => None,
        },
        _ => None,
    }
}

fn lower_term(t: &Term, scope: &[(&str, usize)]) -> Result<CTerm, EvalError> {
    let slot_of = |name: &str| {
        scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, slot)| *slot)
            .ok_or_else(|| EvalError::UnboundVariable(name.to_owned()))
    };
    match t {
        Term::Const(v) => Ok(CTerm::Const(v.clone())),
        Term::Var(name) => Ok(CTerm::Slot {
            slot: slot_of(name)?,
            var: name.clone(),
        }),
        Term::Attr(name, attr) => Ok(CTerm::Attr {
            slot: slot_of(name)?,
            var: name.clone(),
            attr: attr.clone(),
        }),
    }
}

/// Reusable evaluation buffers: the slot-indexed env and one domain
/// buffer per quantifier. Grows to the largest program seen and is then
/// allocation-free across calls.
#[derive(Debug, Default)]
pub struct EvalScratch {
    env: Vec<ContextId>,
    domains: Vec<Vec<ContextId>>,
    /// Pinned truth passes run with this scratch that had a seq guard
    /// to narrow by but scanned the bucket instead.
    seq_fallbacks: u64,
}

impl EvalScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Pinned truth passes
    /// ([`CompiledEvaluator::satisfied_pinned_batch`]) run with this
    /// scratch whose constraint has a seq guard on the pinned
    /// quantifier but which scanned the partner's subject bucket: the
    /// pool could not vouch for the bucket's seq order, or the pinned
    /// context's own seq is not an exact integer.
    pub fn seq_fallbacks(&self) -> u64 {
        self.seq_fallbacks
    }

    fn prepare(&mut self, slots: usize) {
        if self.env.len() < slots {
            self.env.resize(slots, ContextId::from_raw(u64::MAX));
            self.domains.resize_with(slots, Vec::new);
        }
    }
}

/// Multiply-rotate hasher for the memo table. The key is four small
/// integers probed millions of times per batch, where the std
/// SipHasher's keyed setup and finalization are a measurable share of
/// the whole check; HashDoS hardening buys nothing against our own
/// context ids.
#[derive(Default)]
struct MemoHasher(u64);

impl MemoHasher {
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for MemoHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

type MemoMap = std::collections::HashMap<
    (u32, u32, u64, u64),
    bool,
    std::hash::BuildHasherDefault<MemoHasher>,
>;

/// Per-batch predicate memo table for the batch-capped truth-only pass
/// ([`IncrementalChecker::check_with_plan`](crate::IncrementalChecker::check_with_plan)).
///
/// Predicate truth depends only on the call site (constraint index ×
/// lowering-order occurrence id) and the contexts bound to the slots its
/// arguments read — attributes, stamps, and truth tags are immutable, and
/// a batch never physically removes a context mid-flight — so a verdict
/// computed once can be replayed for every other batch member that binds
/// the same contexts. Only `Ok` verdicts are cached; errors are always
/// re-derived so the error stream stays identical to the memo-free path.
///
/// Two classes of call bypass the table entirely: calls reading more
/// than two slots, and calls reading the *pinned* quantifier's slot.
/// The latter is the important one — every check in a batch pins a
/// distinct context, so a key that includes the pin's id can never
/// recur within the batch, and memoizing it would pay the hash and the
/// insert for a structurally-impossible hit on exactly the hottest
/// sites (the binary predicates relating the new context to its
/// subject's track).
#[derive(Debug, Default)]
pub struct PredMemo {
    map: MemoMap,
    hits: u64,
    misses: u64,
}

impl PredMemo {
    /// Creates an empty memo table.
    pub fn new() -> Self {
        PredMemo::default()
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Memoizable lookups that had to evaluate the predicate.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Evaluates [`CompiledConstraint`]s against a [`ContextPool`].
///
/// Mirrors [`Evaluator`](crate::Evaluator) — same domain modes, same
/// short-circuit rule, same link-evidence semantics, identical
/// [`CheckOutcome`]s — but takes an [`EvalScratch`] so repeated checks
/// allocate nothing for bindings or quantifier domains.
#[derive(Debug)]
pub struct CompiledEvaluator<'r> {
    registry: &'r PredicateRegistry,
    domain: DomainMode,
    /// Which builtins narrowing may trust in `registry`, read once.
    trusted: Trusted,
}

impl<'r> CompiledEvaluator<'r> {
    /// Creates an evaluator quantifying over all live contexts.
    pub fn new(registry: &'r PredicateRegistry) -> Self {
        CompiledEvaluator::with_domain(registry, DomainMode::AllLive)
    }

    /// Creates an evaluator with an explicit quantification domain.
    pub fn with_domain(registry: &'r PredicateRegistry, domain: DomainMode) -> Self {
        CompiledEvaluator {
            registry,
            domain,
            trusted: Trusted::of(registry),
        }
    }

    /// Fully checks `constraint` over the live contexts of `pool` at
    /// instant `now`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from predicate evaluation, exactly as
    /// [`Evaluator::check`](crate::Evaluator::check) does.
    pub fn check(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        scratch: &mut EvalScratch,
    ) -> Result<CheckOutcome, EvalError> {
        self.run(constraint, pool, now, None, None, scratch)
    }

    /// Checks only **whether** `constraint` holds — no violation
    /// evidence. This is the situation hot path: situations consume
    /// only the truth value, so building per-binding evidence links is
    /// pure waste there.
    ///
    /// Like every truth walk, it stops a quantifier at its first
    /// deciding binding — an `exists` at its first witness, a `forall`
    /// at its first counterexample — iterating domains lazily straight
    /// off the pool. The truth value always equals
    /// [`check`](CompiledEvaluator::check)`.satisfied`; errors are
    /// lazier: an error in a binding the walk never reached is not
    /// surfaced (an `exists` that finds a witness before the erroring
    /// binding returns `Ok(true)` where `check` returns `Err`).
    ///
    /// A quantifier led by a literal subject guard (the shapes
    /// `literal_subject` accepts) iterates only that subject's live
    /// contexts, provided the registry defines `subject_eq` at its
    /// builtin arity 2 (otherwise every guard raises `UnknownPredicate`
    /// or `Arity`, which skipping would hide): the bindings it skips
    /// are exactly those on which the guard short-circuits to a
    /// non-deciding `Ok`, so the result — `Ok` or `Err` — is the full
    /// scan's. This relies on the registry's `subject_eq` meaning what
    /// the builtin means.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the branches actually evaluated.
    pub fn holds(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        let mut run = self.start(constraint, pool, now, None, None, None, 0, scratch);
        run.narrow = self.trusted.subject_eq;
        run.eval_truth(&constraint.program)
    }

    /// Checks `constraint` with quantifier `qid`'s domain restricted to
    /// the single context `ctx`.
    ///
    /// On a per-subject constraint every other quantifier ranges over
    /// `ctx`'s subject bucket, and when the constraint has a seq guard
    /// on `qid` (see [`CompiledConstraint::has_seq_guard`]) the guard's
    /// other variable ranges only over the seqs the guard admits —
    /// provided the registry defines `same_subject` and the guard's
    /// predicates at their builtin arities and means the builtins by
    /// them. Either way the outcome equals
    /// [`Evaluator::check_pinned`](crate::Evaluator::check_pinned)'s.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledEvaluator::check`].
    pub fn check_pinned(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        qid: usize,
        ctx: ContextId,
        scratch: &mut EvalScratch,
    ) -> Result<CheckOutcome, EvalError> {
        self.run(constraint, pool, now, Some(Pin { qid, ctx }), None, scratch)
    }

    /// [`check_pinned`](CompiledEvaluator::check_pinned) with every
    /// quantifier's domain optionally capped at `max_id`: only contexts
    /// with `id <= max_id` participate (`None` leaves the domains
    /// uncapped, exactly as `check_pinned`). With a whole batch
    /// pre-inserted, capping at the pinned context's own id reproduces
    /// exactly the domain a sequential submission would have seen at
    /// that arrival position (ids are allocated monotonically and never
    /// reused), so the outcome — violations, truncation, and error
    /// positions — is byte-identical to a sequential check.
    ///
    /// Batch-cap contract: callers must ensure every pooled context
    /// stamped after `now` has `id > max_id`. This holds whenever `now`
    /// is the prefix-max arrival clock of a monotonically-staged batch
    /// — the way `check_with_plan` callers invoke it — because earlier
    /// positions and the pre-batch population are all stamped at or
    /// before their own clock. Domain walks exploit it to stop at the
    /// first future-stamped bucket element instead of scanning the
    /// whole staged tail.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledEvaluator::check`].
    #[allow(clippy::too_many_arguments)]
    pub fn check_pinned_batch(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        qid: usize,
        ctx: ContextId,
        max_id: Option<ContextId>,
        scratch: &mut EvalScratch,
    ) -> Result<CheckOutcome, EvalError> {
        self.run(
            constraint,
            pool,
            now,
            Some(Pin { qid, ctx }),
            max_id,
            scratch,
        )
    }

    /// Truth-only twin of
    /// [`check_pinned_batch`](CompiledEvaluator::check_pinned_batch),
    /// the first pass of every pinned check: the same truth walk as
    /// [`holds`](CompiledEvaluator::holds), over the pinned, narrowed
    /// and optionally capped domains of the evidence walk. It builds no
    /// evidence and allocates nothing, and with a `memo` predicate
    /// calls are served from the per-batch table.
    ///
    /// The evidence walk visits every binding this walk visits, in the
    /// same order, plus those a quantifier's deciding binding let this
    /// walk skip. So the two truth values agree whenever both are `Ok`,
    /// and when this walk raises, the evidence walk raises too (the
    /// same error, unless a skipped binding raised first). `Ok(true)`
    /// lets the checker skip the evidence walk, dropping only errors in
    /// bindings no truth walk reaches.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the branches actually evaluated.
    #[allow(clippy::too_many_arguments)]
    pub fn satisfied_pinned_batch(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        qid: usize,
        ctx: ContextId,
        max_id: Option<ContextId>,
        scratch: &mut EvalScratch,
        memo: Option<&mut PredMemo>,
        memo_cid: u32,
    ) -> Result<bool, EvalError> {
        let pin = Some(Pin { qid, ctx });
        let mut run = self.start(constraint, pool, now, pin, max_id, memo, memo_cid, scratch);
        let truth = run.eval_truth(&constraint.program);
        if run.seq_scanned {
            run.scratch.seq_fallbacks += 1;
        }
        truth
    }

    fn run(
        &self,
        constraint: &CompiledConstraint,
        pool: &ContextPool,
        now: LogicalTime,
        pin: Option<Pin>,
        max_id: Option<ContextId>,
        scratch: &mut EvalScratch,
    ) -> Result<CheckOutcome, EvalError> {
        let ev = self
            .start(constraint, pool, now, pin, max_id, None, 0, scratch)
            .eval(&constraint.program, Need::ROOT)?;
        Ok(outcome_from(ev))
    }

    /// Sets up one evaluation of `constraint`, shared by every entry
    /// point.
    #[allow(clippy::too_many_arguments)]
    fn start<'a>(
        &self,
        constraint: &'a CompiledConstraint,
        pool: &'a ContextPool,
        now: LogicalTime,
        pin: Option<Pin>,
        max_id: Option<ContextId>,
        memo: Option<&'a mut PredMemo>,
        memo_cid: u32,
        scratch: &'a mut EvalScratch,
    ) -> Run<'a, 'r> {
        scratch.prepare(constraint.slot_count);
        // A per-subject constraint's violating bindings all share the
        // pinned context's subject, so the unpinned quantifiers only
        // need that subject's bucket of the kind index — provided the
        // registry trusts `same_subject`, which the scope proof reads.
        // Global constraints (or unpinned checks) keep the full kind
        // domain.
        let pinned = match pin {
            Some(p) if constraint.per_subject && self.trusted.same_subject => {
                pool.get(p.ctx).map(|c| (p, c))
            }
            _ => None,
        };
        // A seq guard on the pinned quantifier narrows its partner to
        // the guard's seq window — when the pin's seq is exact.
        let mut seq_window = None;
        let mut seq_scanned = false;
        if let (Some((p, ctx)), Some(guard)) = (pinned, constraint.seq_guard) {
            if guard.narrows(p.qid, self.trusted) {
                match ctx.exact_seq() {
                    Some(seq) => seq_window = Some(guard.window(p.qid, seq)),
                    None => seq_scanned = true,
                }
            }
        }
        Run {
            registry: self.registry,
            domain: self.domain,
            kind_table: &constraint.kind_table,
            pool,
            now,
            pin,
            pin_subject: pinned.map(|(_, c)| c.subject()),
            seq_window,
            seq_scanned,
            max_id,
            memo,
            memo_cid,
            narrow: false,
            scratch,
        }
    }
}

struct Run<'a, 'r> {
    registry: &'r PredicateRegistry,
    domain: DomainMode,
    kind_table: &'a [ContextKind],
    pool: &'a ContextPool,
    now: LogicalTime,
    pin: Option<Pin>,
    /// `Some(subject)` when the pinned constraint is per-subject: every
    /// unpinned quantifier's domain narrows to this subject's bucket.
    pin_subject: Option<&'a str>,
    /// The seq guard's window for the pinned check, if one applies.
    seq_window: Option<SeqWindow>,
    /// Whether a seq guard applied but the walk scanned the bucket.
    seq_scanned: bool,
    /// Batch cap: quantifier domains only admit contexts with
    /// `id <= max_id`, reproducing the pool a sequential submission
    /// would have seen at that arrival position.
    max_id: Option<ContextId>,
    /// Per-batch predicate memo, consulted only by the truth walk.
    memo: Option<&'a mut PredMemo>,
    /// Constraint index disambiguating `site` ids across the deployed
    /// constraint set in the memo key.
    memo_cid: u32,
    /// Whether [`Run::eval_truth`] scans a literal-subject quantifier's
    /// subject bucket instead of the whole kind.
    narrow: bool,
    scratch: &'a mut EvalScratch,
}

impl Run<'_, '_> {
    /// The evidence walk: truth plus links, short-circuiting
    /// connectives, visiting every binding of every quantifier so a
    /// violated constraint lists every violation.
    fn eval(&mut self, formula: &CFormula, need: Need) -> Result<Evidence, EvalError> {
        match formula {
            CFormula::True => Ok(Evidence::of(true)),
            CFormula::False => Ok(Evidence::of(false)),
            CFormula::Not(f) => {
                let mut ev = self.eval(f, need.flip())?;
                ev.truth = !ev.truth;
                Ok(ev)
            }
            CFormula::And(a, b) => {
                let ea = self.eval(a, need)?;
                if !ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, need)?;
                Ok(combine_undecided(ea, eb))
            }
            CFormula::Or(a, b) => {
                let ea = self.eval(a, need)?;
                if ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, need)?;
                Ok(combine_undecided(ea, eb))
            }
            CFormula::Implies(a, b) => {
                let mut ea = self.eval(a, need.flip())?;
                ea.truth = !ea.truth;
                if ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, need)?;
                Ok(combine_undecided(ea, eb))
            }
            CFormula::Pred { sym, args, .. } => {
                let mut witness = Link::new();
                let pool = self.pool;
                let env = &self.scratch.env;
                let truth = eval_pred_with(self.registry, *sym, args, |term| {
                    resolve_cterm(term, pool, env, &mut witness)
                })?;
                Ok(Evidence {
                    truth,
                    links: vec![witness],
                    truncated: false,
                })
            }
            CFormula::Quant {
                q,
                kind_sym,
                slot,
                body,
                ..
            } => {
                // Take the slot's domain buffer out of the scratch so the
                // recursive body evaluation can still borrow the scratch;
                // it is put back (error or not) before returning.
                let mut domain = std::mem::take(&mut self.scratch.domains[*slot]);
                domain.clear();
                self.fill_domain(&mut domain, *kind_sym, *slot);
                let mut per_binding: Vec<Evidence> = Vec::with_capacity(domain.len());
                let mut failed = None;
                for id in &domain {
                    self.scratch.env[*slot] = *id;
                    match self.eval(body, need) {
                        Ok(mut ev) => {
                            for link in &mut ev.links {
                                link.insert(*id);
                            }
                            per_binding.push(ev);
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                self.scratch.domains[*slot] = domain;
                if let Some(e) = failed {
                    return Err(e);
                }
                Ok(match q {
                    Quantifier::Forall => fold_forall(per_binding, need),
                    Quantifier::Exists => fold_exists(per_binding, need),
                })
            }
        }
    }

    /// Fills one quantifier's materialized domain for the evidence
    /// walk: the pin's singleton, else the seq guard's window, the
    /// subject bucket or the full kind index, live at `now`,
    /// state-filtered by the domain mode, and capped at `max_id` for a
    /// batch-capped check.
    fn fill_domain(&mut self, domain: &mut Vec<ContextId>, kind_sym: usize, slot: usize) {
        let pool = self.pool;
        let kind = &self.kind_table[kind_sym];
        match (self.pin, self.pin_subject) {
            (Some(p), _) if p.qid == slot => domain.push(p.ctx),
            (_, Some(subject)) => match self.seq_domain(kind, subject, slot) {
                Some(iter) => self.collect_domain(domain, iter),
                None => {
                    self.collect_domain(domain, pool.of_subject_live_at(kind, subject, self.now))
                }
            },
            _ => self.collect_domain(domain, pool.of_kind_live_at(kind, self.now)),
        }
    }

    /// The seq guard's window of `subject`'s bucket when it narrows
    /// `slot` and the pool vouches for the bucket's seq order; `None`
    /// leaves the caller to scan the bucket, noting the fallback when
    /// the guard applied.
    fn seq_domain<'a>(
        &mut self,
        kind: &ContextKind,
        subject: &str,
        slot: usize,
    ) -> Option<impl Iterator<Item = (ContextId, &'a Context)> + 'a>
    where
        Self: 'a,
    {
        let window = self.seq_window.filter(|w| w.slot == slot)?;
        let found = self
            .pool
            .of_subject_seq_live_at(kind, subject, window.seqs(), self.now);
        self.seq_scanned |= found.is_none();
        found
    }

    /// The shared tail of [`Run::fill_domain`]: state-filters a bucket
    /// iterator and applies the batch cap (see [`Run::admits`]).
    fn collect_domain<'p>(
        &self,
        domain: &mut Vec<ContextId>,
        iter: impl Iterator<Item = (ContextId, &'p Context)>,
    ) {
        for (id, c) in iter {
            match self.admits(id, c) {
                Some(true) => domain.push(id),
                Some(false) => {}
                None => break,
            }
        }
    }

    /// Whether a bucket element enters a quantifier's domain: `None`
    /// ends the walk. Buckets iterate in `(stamp, id)` order, and under
    /// the batch-cap contract (see
    /// [`CompiledEvaluator::check_pinned_batch`]) every pooled context
    /// stamped after `now` is a later batch member with `id > max_id` —
    /// so the first such element ends the sequential prefix and the
    /// staged tail is never scanned, keeping a capped walk the same
    /// cost as the sequential walk it reproduces.
    fn admits(&self, id: ContextId, c: &Context) -> Option<bool> {
        if let Some(max_id) = self.max_id {
            if c.stamp() > self.now {
                return None;
            }
            if id > max_id {
                return Some(false);
            }
        }
        Some(self.domain == DomainMode::AllLive || c.state().is_available())
    }

    /// The truth walk of [`CompiledEvaluator::holds`] and
    /// [`CompiledEvaluator::satisfied_pinned_batch`]: the bare truth
    /// value, short-circuiting connectives and stopping each quantifier
    /// at its first deciding binding. Domains are iterated lazily
    /// straight off the pool — the pin's singleton, the seq guard's
    /// window, the pinned subject's bucket, a literal subject's bucket
    /// when `narrow` is set, or the kind — so an `exists` whose witness
    /// comes early never visits the rest. Predicate calls consult the
    /// per-batch memo when one is given.
    fn eval_truth(&mut self, formula: &CFormula) -> Result<bool, EvalError> {
        match formula {
            CFormula::True => Ok(true),
            CFormula::False => Ok(false),
            CFormula::Not(f) => Ok(!self.eval_truth(f)?),
            CFormula::And(a, b) => Ok(self.eval_truth(a)? && self.eval_truth(b)?),
            CFormula::Or(a, b) => Ok(self.eval_truth(a)? || self.eval_truth(b)?),
            CFormula::Implies(a, b) => Ok(!self.eval_truth(a)? || self.eval_truth(b)?),
            CFormula::Pred {
                sym,
                args,
                site,
                slots,
            } => {
                let key = match self.memo {
                    Some(_) => self.memo_key(*site, slots),
                    None => None,
                };
                if let (Some(memo), Some(k)) = (self.memo.as_mut(), key) {
                    if let Some(&truth) = memo.map.get(&k) {
                        memo.hits += 1;
                        return Ok(truth);
                    }
                }
                let pool = self.pool;
                let env = &self.scratch.env;
                let truth = eval_pred_with(self.registry, *sym, args, |term| {
                    resolve_cterm_value(term, pool, env)
                })?;
                if let (Some(memo), Some(k)) = (self.memo.as_mut(), key) {
                    memo.misses += 1;
                    memo.map.insert(k, truth);
                }
                Ok(truth)
            }
            CFormula::Quant {
                q,
                kind_sym,
                slot,
                subject,
                body,
            } => {
                // `exists` returns at the first true body, `forall` at
                // the first false one.
                let deciding = matches!(q, Quantifier::Exists);
                let pool = self.pool;
                let kind = &self.kind_table[*kind_sym];
                match (self.pin, self.pin_subject) {
                    (Some(p), _) if p.qid == *slot => {
                        self.scratch.env[*slot] = p.ctx;
                        self.eval_truth(body)
                    }
                    (_, Some(pinned)) => match self.seq_domain(kind, pinned, *slot) {
                        Some(domain) => self.scan_quant(domain, *slot, body, deciding),
                        None => {
                            let domain = pool.of_subject_live_at(kind, pinned, self.now);
                            self.scan_quant(domain, *slot, body, deciding)
                        }
                    },
                    _ => match subject {
                        Some(literal) if self.narrow => {
                            let domain = pool.of_subject_live_at(kind, literal, self.now);
                            self.scan_quant(domain, *slot, body, deciding)
                        }
                        _ => {
                            let domain = pool.of_kind_live_at(kind, self.now);
                            self.scan_quant(domain, *slot, body, deciding)
                        }
                    },
                }
            }
        }
    }

    /// The per-batch memo key of a predicate call at `site` whose
    /// arguments read `slots`: call site × the contexts bound to those
    /// slots (≤ 2, padded). Wider calls bypass the memo, and so do calls
    /// reading the pinned slot: their keys include the pin's id, which
    /// is distinct for every check of the batch, so a hit is impossible
    /// and the table would only add hash-and-insert cost to the hottest
    /// sites.
    fn memo_key(&self, site: u32, slots: &[usize]) -> Option<(u32, u32, u64, u64)> {
        if slots.len() > 2 || self.pin.is_some_and(|p| slots.contains(&p.qid)) {
            return None;
        }
        let bound = |i: usize| {
            slots
                .get(i)
                .map_or(u64::MAX, |s| self.scratch.env[*s].raw())
        };
        Some((self.memo_cid, site, bound(0), bound(1)))
    }

    /// Short-circuit scan of one quantifier's `domain` for
    /// [`Run::eval_truth`]: returns `deciding` at the first admitted
    /// binding whose body evaluates to it, `!deciding` when the domain
    /// is exhausted.
    fn scan_quant<'p>(
        &mut self,
        domain: impl Iterator<Item = (ContextId, &'p Context)>,
        slot: usize,
        body: &CFormula,
        deciding: bool,
    ) -> Result<bool, EvalError> {
        for (id, ctx) in domain {
            match self.admits(id, ctx) {
                Some(true) => {}
                Some(false) => continue,
                None => break,
            }
            self.scratch.env[slot] = id;
            if self.eval_truth(body)? == deciding {
                return Ok(deciding);
            }
        }
        Ok(!deciding)
    }
}

/// Resolves predicate arguments and hands them to the registry entry of
/// `sym`, staging them in a stack array for the common arities (every
/// built-in predicate takes at most 5 arguments). Arguments resolve
/// left to right with `?` on each, so the first resolution error
/// propagates exactly as the heap-`Vec` fallback would, and unknown
/// names and arity mismatches raise at the call, as the tree-walking
/// evaluator raises them.
fn eval_pred_with<'a>(
    registry: &PredicateRegistry,
    sym: PredSym,
    args: &'a [CTerm],
    mut resolve: impl FnMut(&'a CTerm) -> Result<Resolved<'a>, EvalError>,
) -> Result<bool, EvalError> {
    match args {
        [] => registry.eval_sym(sym, &[]),
        [a] => registry.eval_sym(sym, &[resolve(a)?]),
        [a, b] => registry.eval_sym(sym, &[resolve(a)?, resolve(b)?]),
        [a, b, c] => registry.eval_sym(sym, &[resolve(a)?, resolve(b)?, resolve(c)?]),
        [a, b, c, d] => {
            registry.eval_sym(sym, &[resolve(a)?, resolve(b)?, resolve(c)?, resolve(d)?])
        }
        [a, b, c, d, e] => registry.eval_sym(
            sym,
            &[
                resolve(a)?,
                resolve(b)?,
                resolve(c)?,
                resolve(d)?,
                resolve(e)?,
            ],
        ),
        _ => {
            let mut resolved: Vec<Resolved<'a>> = Vec::with_capacity(args.len());
            for term in args {
                resolved.push(resolve(term)?);
            }
            registry.eval_sym(sym, &resolved)
        }
    }
}

/// [`resolve_cterm`] without witness tracking, for the boolean path.
fn resolve_cterm_value<'a>(
    term: &'a CTerm,
    pool: &'a ContextPool,
    env: &[ContextId],
) -> Result<Resolved<'a>, EvalError> {
    match term {
        CTerm::Const(v) => Ok(Resolved::ValueRef(v)),
        CTerm::Slot { slot, var } => {
            let id = env[*slot];
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
            Ok(Resolved::Ctx(id, ctx))
        }
        CTerm::Attr { slot, var, attr } => {
            let id = env[*slot];
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
            let value = ctx.attr(attr).ok_or_else(|| EvalError::MissingAttr {
                var: var.clone(),
                attr: attr.clone(),
            })?;
            Ok(Resolved::ValueRef(value))
        }
    }
}

fn resolve_cterm<'a>(
    term: &'a CTerm,
    pool: &'a ContextPool,
    env: &[ContextId],
    witness: &mut Link,
) -> Result<Resolved<'a>, EvalError> {
    match term {
        CTerm::Const(v) => Ok(Resolved::ValueRef(v)),
        CTerm::Slot { slot, var } => {
            let id = env[*slot];
            witness.insert(id);
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
            Ok(Resolved::Ctx(id, ctx))
        }
        CTerm::Attr { slot, var, attr } => {
            let id = env[*slot];
            witness.insert(id);
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(var.clone()))?;
            let value = ctx.attr(attr).ok_or_else(|| EvalError::MissingAttr {
                var: var.clone(),
                attr: attr.clone(),
            })?;
            Ok(Resolved::ValueRef(value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::parser::parse_constraint;
    use ctxres_context::{Context, ContextState, Point};

    fn registry() -> PredicateRegistry {
        PredicateRegistry::with_builtins()
    }

    fn loc_pool(points: &[(f64, f64)]) -> ContextPool {
        let mut pool = ContextPool::new();
        for (i, (x, y)) in points.iter().enumerate() {
            pool.insert(
                Context::builder(ContextKind::new("location"), "peter")
                    .attr("pos", Point::new(*x, *y))
                    .attr("seq", i as i64)
                    .stamp(LogicalTime::new(i as u64))
                    .build(),
            );
        }
        pool
    }

    fn assert_matches_naive(source: &str, pool: &ContextPool, now: LogicalTime) {
        let c = parse_constraint(source).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let reg = registry();
        let mut scratch = EvalScratch::new();
        for mode in [DomainMode::AllLive, DomainMode::AvailableOnly] {
            let naive = Evaluator::with_domain(&reg, mode).check(&c, pool, now);
            let compiled =
                CompiledEvaluator::with_domain(&reg, mode).check(&cc, pool, now, &mut scratch);
            assert_eq!(naive, compiled, "mode {mode:?} diverged for {source}");
        }
    }

    const SPEED: &str = "constraint speed:
       forall a: location, b: location .
         (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

    #[test]
    fn compiled_matches_naive_on_satisfied_and_violated_pools() {
        let now = LogicalTime::new(10);
        assert_matches_naive(SPEED, &loc_pool(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]), now);
        assert_matches_naive(SPEED, &loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]), now);
        assert_matches_naive(SPEED, &loc_pool(&[(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)]), now);
        assert_matches_naive(SPEED, &ContextPool::new(), now);
    }

    #[test]
    fn compiled_matches_naive_on_exists_and_attributes() {
        let now = LogicalTime::new(10);
        let pool = loc_pool(&[(0.0, 0.0), (50.0, 50.0)]);
        assert_matches_naive(
            "constraint has_mary: exists a: location . subject_eq(a, \"mary\")",
            &pool,
            now,
        );
        assert_matches_naive(
            "constraint feasible: forall a: location . within(a, -10.0, -10.0, 10.0, 10.0)",
            &pool,
            now,
        );
        assert_matches_naive(
            "constraint ordered: forall a: location, b: location . \
               seq_gap(a, b, 1) implies le(a.seq, b.seq)",
            &pool,
            now,
        );
    }

    #[test]
    fn compiled_respects_state_filtering() {
        let mut pool = loc_pool(&[(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)]);
        pool.set_state(ContextId::from_raw(1), ContextState::Inconsistent)
            .unwrap();
        assert_matches_naive(SPEED, &pool, LogicalTime::new(10));
        pool.set_state(ContextId::from_raw(0), ContextState::Consistent)
            .unwrap();
        assert_matches_naive(SPEED, &pool, LogicalTime::new(10));
    }

    /// Two interleaved subject tracks: `peter` teleports between his
    /// 2nd and 3rd reading, `mary` stays clean. Ids 0..=2 are peter's,
    /// 3..=5 mary's; stamps interleave the tracks.
    fn two_subject_pool() -> ContextPool {
        let mut pool = ContextPool::new();
        let tracks: [(&str, [(f64, f64); 3]); 2] = [
            ("peter", [(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]),
            ("mary", [(0.0, 1.0), (0.4, 1.0), (0.8, 1.0)]),
        ];
        for (s, (subject, points)) in tracks.iter().enumerate() {
            for (i, (x, y)) in points.iter().enumerate() {
                pool.insert(
                    Context::builder(ContextKind::new("location"), subject)
                        .attr("pos", Point::new(*x, *y))
                        .attr("seq", i as i64)
                        .stamp(LogicalTime::new((2 * i + s) as u64))
                        .build(),
                );
            }
        }
        pool
    }

    /// A per-subject constraint's pinned check narrows every unpinned
    /// quantifier to the pinned subject's bucket; the outcome must still
    /// be byte-identical to the naive evaluator's full-domain scan, for
    /// every pin point on a mixed-subject pool.
    #[test]
    fn subject_scoped_pinned_check_matches_naive_on_mixed_subjects() {
        let pool = two_subject_pool();
        let c = parse_constraint(SPEED).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        assert!(
            cc.is_per_subject(),
            "a same_subject-guarded forall pair must classify per-subject"
        );
        let reg = registry();
        let naive = Evaluator::new(&reg);
        let compiled = CompiledEvaluator::new(&reg);
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(10);
        let mut saw_violation = false;
        for qid in 0..2 {
            for raw in 0..6 {
                let id = ContextId::from_raw(raw);
                let outcome = compiled.check_pinned(&cc, &pool, now, qid, id, &mut scratch);
                saw_violation |= outcome.as_ref().is_ok_and(|o| !o.satisfied);
                assert_eq!(
                    naive.check_pinned(&c, &pool, now, qid, id),
                    outcome,
                    "pin qid={qid} ctx={raw}"
                );
            }
        }
        assert!(saw_violation, "peter's teleport must surface under pinning");
    }

    /// A constraint whose violations span subjects (`same_subject` only
    /// in the consequent) must stay `Global`: pinned checks keep the
    /// full kind domain, or the cross-subject violation would be missed.
    #[test]
    fn global_constraints_never_subject_restrict() {
        let pool = two_subject_pool();
        let src = "constraint cross: forall a: location, b: location . \
                   seq_gap(a, b, 1) implies same_subject(a, b)";
        let c = parse_constraint(src).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        assert!(
            !cc.is_per_subject(),
            "same_subject in the consequent guarantees nothing about violations"
        );
        let reg = registry();
        let naive = Evaluator::new(&reg);
        let compiled = CompiledEvaluator::new(&reg);
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(10);
        let full = compiled.check(&cc, &pool, now, &mut scratch).unwrap();
        assert!(!full.satisfied, "cross-subject seq gaps must violate");
        for qid in 0..2 {
            for raw in 0..6 {
                let id = ContextId::from_raw(raw);
                assert_eq!(
                    naive.check_pinned(&c, &pool, now, qid, id),
                    compiled.check_pinned(&cc, &pool, now, qid, id, &mut scratch),
                    "pin qid={qid} ctx={raw}"
                );
            }
        }
    }

    #[test]
    fn pinned_compiled_check_matches_naive() {
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]);
        let c = parse_constraint(SPEED).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let reg = registry();
        let naive = Evaluator::new(&reg);
        let compiled = CompiledEvaluator::new(&reg);
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(10);
        for qid in 0..2 {
            for raw in 0..3 {
                let id = ContextId::from_raw(raw);
                assert_eq!(
                    naive.check_pinned(&c, &pool, now, qid, id),
                    compiled.check_pinned(&cc, &pool, now, qid, id, &mut scratch),
                    "pin qid={qid} ctx={raw}"
                );
            }
        }
    }

    #[test]
    fn missing_attribute_error_matches_naive() {
        let mut pool = ContextPool::new();
        pool.insert(Context::builder(ContextKind::new("badge"), "p").build());
        let c = parse_constraint("constraint x: forall a: badge . eq(a.room, \"lab\")").unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let reg = registry();
        let naive = Evaluator::new(&reg).check(&c, &pool, LogicalTime::new(1));
        let compiled = CompiledEvaluator::new(&reg).check(
            &cc,
            &pool,
            LogicalTime::new(1),
            &mut EvalScratch::new(),
        );
        assert_eq!(naive, compiled);
        assert!(matches!(compiled, Err(EvalError::MissingAttr { .. })));
    }

    #[test]
    fn unbound_variable_is_a_compile_error() {
        let c = Constraint::new(
            "bad",
            Formula::pred(
                "has_attr",
                vec![Term::Var("ghost".into()), Term::Const("x".into())],
            ),
        );
        let err = CompiledConstraint::compile(&c).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable(v) if v == "ghost"));
    }

    #[test]
    fn shadowed_variables_resolve_to_innermost_binder() {
        // Inner `a` shadows the outer one: the body must compare the
        // inner binding against itself (always equal subjects).
        let source = "constraint shadow:
           forall a: location . exists a: location . same_subject(a, a)";
        let pool = loc_pool(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_matches_naive(source, &pool, LogicalTime::new(10));
    }

    #[test]
    fn kind_table_interns_and_exposes_kinds() {
        let c = parse_constraint(
            "constraint multi: forall a: location, b: location . forall r: rfid . distinct(a, r)",
        )
        .unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        assert_eq!(cc.kind_table.len(), 2, "location interned once");
        assert_eq!(cc.kinds().len(), 2);
        assert!(cc.quantifies_over(&ContextKind::new("location")));
        assert!(cc.quantifies_over(&ContextKind::new("rfid")));
        assert!(!cc.quantifies_over(&ContextKind::new("badge")));
        assert_eq!(cc.slot_count(), 3);
        assert_eq!(cc.name(), "multi");
        assert!(cc.is_universal_positive());
    }

    /// The literal subject of every quantifier in `cc`'s program, in
    /// lowering order.
    fn literal_subjects(cc: &CompiledConstraint) -> Vec<Option<String>> {
        fn walk(f: &CFormula, out: &mut Vec<Option<String>>) {
            match f {
                CFormula::Not(a) => walk(a, out),
                CFormula::And(a, b) | CFormula::Or(a, b) | CFormula::Implies(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                CFormula::Quant { subject, body, .. } => {
                    out.push(subject.clone());
                    walk(body, out);
                }
                CFormula::True | CFormula::False | CFormula::Pred { .. } => {}
            }
        }
        let mut out = Vec::new();
        walk(&cc.program, &mut out);
        out
    }

    /// `slices` names every quantifier's kind, in program order, with
    /// the literal subject `holds` narrows it to — and widens to the
    /// kind where the registry's `subject_eq` is not the builtin's.
    #[test]
    fn slices_are_what_holds_reads() {
        let c = parse_constraint(
            "constraint s: exists v: venue, n: noise .
               same_subject(v, n) and
               (forall b: badge . (subject_eq(b, \"peter\") and true) implies eq(b.room, \"x\")) and
               (exists r: ringer . subject_eq(r, \"mary\"))",
        )
        .unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let (venue, noise, badge, ringer) = (
            ContextKind::new("venue"),
            ContextKind::new("noise"),
            ContextKind::new("badge"),
            ContextKind::new("ringer"),
        );
        assert_eq!(
            cc.slices(&registry()),
            vec![
                (&venue, None),
                (&noise, None),
                (&badge, Some("peter")),
                (&ringer, Some("mary")),
            ]
        );
        let mut other_arity = registry();
        other_arity.register("subject_eq", 3, |_| Ok(true));
        assert_eq!(
            cc.slices(&other_arity),
            vec![
                (&venue, None),
                (&noise, None),
                (&badge, None),
                (&ringer, None)
            ]
        );
        assert!(cc
            .slices(&PredicateRegistry::new())
            .iter()
            .all(|(_, subject)| subject.is_none()));
    }

    /// `holds` short-circuits and narrows literal-subject quantifiers;
    /// `check` evaluates every binding of the full domain. On these
    /// sources the two must agree — `Ok` and `Err` alike — on pools
    /// with one subject, two subjects, and none. The second field says
    /// whether some quantifier of the source narrows.
    #[test]
    fn holds_agrees_with_check_satisfied() {
        let reg = registry();
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(10);
        let sources = [
            (SPEED, false),
            (
                "constraint has_mary: exists a: location . subject_eq(a, \"mary\")",
                true,
            ),
            (
                "constraint has_peter: exists a: location . subject_eq(a, \"peter\")",
                true,
            ),
            (
                "constraint feasible: forall a: location . within(a, -10.0, -10.0, 10.0, 10.0)",
                false,
            ),
            ("constraint nobody: forall a: location . false", false),
            ("constraint vacuous: exists a: location . true", false),
            // Narrowed: the guard leads a nested `and` spine.
            (
                "constraint peter_early_home: exists a: location .
                   (subject_eq(a, \"peter\") and within(a, -1.0, -1.0, 1.0, 1.0))
                     and le(a.seq, 1)",
                true,
            ),
            (
                "constraint mary_late_away: exists a: location .
                   subject_eq(a, \"mary\") and (ge(a.seq, 2) and not within(a, 0.0, 0.0, 0.5, 0.5))",
                true,
            ),
            // Narrowed: the guard leads the antecedent of an implication.
            (
                "constraint peter_stays_home: forall a: location .
                   (subject_eq(a, \"peter\") and le(a.seq, 1)) implies within(a, -1.0, -1.0, 1.0, 1.0)",
                true,
            ),
            (
                "constraint peter_always_home: forall a: location .
                   subject_eq(a, \"peter\") implies within(a, -1.0, -1.0, 1.0, 1.0)",
                true,
            ),
            // Not narrowed: another subject's binding falsifies the body.
            (
                "constraint only_peter: forall a: location .
                   subject_eq(a, \"peter\") and within(a, -10.0, -10.0, 10.0, 10.0)",
                false,
            ),
            // Not narrowed: the guard sits under `or` or `not`.
            (
                "constraint nobody_or_far: exists a: location .
                   subject_eq(a, \"nobody\") or within(a, 5.0, 5.0, 10.0, 10.0)",
                false,
            ),
            (
                "constraint not_peter: exists a: location . not subject_eq(a, \"peter\")",
                false,
            ),
            (
                "constraint not_peter_spine: exists a: location .
                   not (subject_eq(a, \"peter\") and le(a.seq, 5))",
                false,
            ),
            // Not narrowed: the guard reads the outer variable.
            (
                "constraint peter_meets_other: exists a: location . exists b: location .
                   subject_eq(a, \"peter\") and not same_subject(a, b)",
                false,
            ),
            // Not narrowed: a non-text literal makes `subject_eq` raise.
            ("constraint numeric: exists a: location . subject_eq(a, 3)", false),
        ];
        for pool in [
            loc_pool(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]),
            loc_pool(&[(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)]),
            two_subject_pool(),
            ContextPool::new(),
        ] {
            for (source, _) in sources {
                let c = parse_constraint(source).unwrap();
                let cc = CompiledConstraint::compile(&c).unwrap();
                for mode in [DomainMode::AllLive, DomainMode::AvailableOnly] {
                    let eval = CompiledEvaluator::with_domain(&reg, mode);
                    let full = eval
                        .check(&cc, &pool, now, &mut scratch)
                        .map(|o| o.satisfied);
                    let fast = eval.holds(&cc, &pool, now, &mut scratch);
                    assert_eq!(full, fast, "{source} under {mode:?}");
                }
            }
        }
        for (source, narrows) in sources {
            let cc = CompiledConstraint::compile(&parse_constraint(source).unwrap()).unwrap();
            assert_eq!(
                literal_subjects(&cc).iter().any(Option::is_some),
                narrows,
                "{source}"
            );
        }
    }

    /// A narrowed `exists` keeps the short-circuit's error behaviour:
    /// another subject's binding without the attribute is skipped as
    /// before, a matching subject's binding without it still raises,
    /// and without `subject_eq` in the registry nothing narrows.
    #[test]
    fn narrowed_exists_keeps_short_circuit_errors() {
        let badge = |subject: &str, room: Option<&str>| {
            let b = Context::builder(ContextKind::new("badge"), subject);
            match room {
                Some(room) => b.attr("room", room),
                None => b,
            }
            .build()
        };
        let c = parse_constraint(
            "constraint peter_in_office: exists b: badge .
               subject_eq(b, \"peter\") and eq(b.room, \"office\")",
        )
        .unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        assert_eq!(literal_subjects(&cc), vec![Some("peter".to_owned())]);
        let reg = registry();
        let eval = CompiledEvaluator::new(&reg);
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(1);

        let mut pool = ContextPool::new();
        pool.insert(badge("mary", None));
        pool.insert(badge("peter", Some("lab")));
        assert_eq!(eval.holds(&cc, &pool, now, &mut scratch), Ok(false));
        pool.insert(badge("peter", Some("office")));
        assert_eq!(eval.holds(&cc, &pool, now, &mut scratch), Ok(true));

        let mut pool = ContextPool::new();
        pool.insert(badge("mary", Some("office")));
        pool.insert(badge("peter", None));
        assert!(matches!(
            eval.holds(&cc, &pool, now, &mut scratch),
            Err(EvalError::MissingAttr { .. })
        ));

        let mut pool = ContextPool::new();
        pool.insert(badge("mary", Some("office")));
        let bare = PredicateRegistry::new();
        assert_eq!(
            CompiledEvaluator::new(&bare).holds(&cc, &pool, now, &mut scratch),
            Err(EvalError::UnknownPredicate("subject_eq".to_owned()))
        );
    }

    #[test]
    fn holds_short_circuits_past_erroring_bindings() {
        // First binding in insertion order satisfies the exists; a later
        // one is missing the attribute. `check` evaluates every binding
        // and errors; `holds` stops at the witness.
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("badge"), "peter")
                .attr("room", "office")
                .build(),
        );
        pool.insert(Context::builder(ContextKind::new("badge"), "mary").build());
        let c = parse_constraint("constraint x: exists a: badge . eq(a.room, \"office\")").unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let reg = registry();
        let eval = CompiledEvaluator::new(&reg);
        let mut scratch = EvalScratch::new();
        let now = LogicalTime::new(1);
        assert!(matches!(
            eval.check(&cc, &pool, now, &mut scratch),
            Err(EvalError::MissingAttr { .. })
        ));
        assert_eq!(eval.holds(&cc, &pool, now, &mut scratch), Ok(true));
    }

    /// The seq guard is marked exactly on per-subject `forall` chains
    /// whose antecedent's `and` spine reaches `seq_gap`/`seq_gap_le`
    /// over two chain variables and an integer literal through
    /// `same_subject` leaves only.
    #[test]
    fn seq_guards_mark_only_the_guarded_shape() {
        let guard = |antecedent: &str, consequent: &str| {
            let source = format!(
                "constraint c: forall a: location, b: location . ({antecedent}) implies {consequent}"
            );
            CompiledConstraint::compile(&parse_constraint(&source).unwrap())
                .unwrap()
                .seq_guard
        };
        let speed = |u, v, k, le, same_subject| {
            Some(SeqGuard {
                u,
                v,
                k,
                le,
                same_subject,
            })
        };
        let v = "velocity_le(a, b, 1.5)";
        assert_eq!(
            guard("same_subject(a, b) and seq_gap(a, b, 1)", v),
            speed(0, 1, 1, false, true)
        );
        assert_eq!(
            guard("same_subject(b, a) and seq_gap(b, a, 3)", v),
            speed(1, 0, 3, false, true)
        );
        assert_eq!(
            guard(
                "same_subject(a, b) and seq_gap_le(a, b, 2) and eq(a.zone, \"checkout\")",
                "eq(b.zone, \"checkout\")"
            ),
            speed(0, 1, 2, true, true)
        );
        assert_eq!(
            guard("seq_gap(a, b, 2) and same_subject(a, b)", v),
            speed(0, 1, 2, false, false),
            "no same_subject before the seq leaf"
        );
        assert_eq!(
            guard(
                "same_subject(a, b) and (seq_gap(a, b, -1) and has_attr(a, \"pos\"))",
                v
            ),
            speed(0, 1, -1, false, true),
            "a right-nested spine"
        );
        for antecedent in [
            "same_subject(a, b) and seq_gap_le(a, b, 0)",
            "same_subject(a, b) and seq_gap(a, b, 1.0)",
            "same_subject(a, b) and seq_gap(a, a, 1)",
            "same_subject(a, b) and distinct(a, b) and seq_gap(a, b, 1)",
            "same_subject(a, b) and not seq_gap(a, b, 1)",
            "same_subject(a, b) and (seq_gap(a, b, 1) or seq_gap(a, b, 2))",
            "has_attr(b, \"pos\") and same_subject(a, b) and seq_gap(a, b, 1)",
        ] {
            assert_eq!(guard(antecedent, v), None, "{antecedent}");
        }
        let global = "constraint g: forall a: location, b: location . \
                      seq_gap(a, b, 1) implies same_subject(a, b)";
        let cc = CompiledConstraint::compile(&parse_constraint(global).unwrap()).unwrap();
        assert!(
            !cc.is_per_subject() && !cc.has_seq_guard(),
            "no subject to narrow in"
        );
    }

    /// A counting forwarder of each predicate the constraint calls — and
    /// nothing else — keeps seq narrowing on: a pinned check reads only
    /// the guard's window. Without `seq_gap` the full scan's
    /// `UnknownPredicate` stands.
    #[test]
    fn seq_narrowing_follows_the_registry_names() {
        use crate::predicate::counting_builtins;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicU64::new(0));
        let points: Vec<(f64, f64)> = (0..20).map(|i| (f64::from(i) * 0.5, 0.0)).collect();
        let pool = loc_pool(&points);
        let c = parse_constraint(SPEED).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let now = LogicalTime::new(30);
        let pin = ContextId::from_raw(10);
        let mut scratch = EvalScratch::new();

        let counting = counting_builtins(
            &[("same_subject", 2), ("seq_gap", 3), ("velocity_le", 3)],
            &calls,
        );
        let eval = CompiledEvaluator::new(&counting);
        for qid in 0..2 {
            calls.store(0, Ordering::Relaxed);
            let got = eval.check_pinned(&cc, &pool, now, qid, pin, &mut scratch);
            assert_eq!(
                got,
                Evaluator::new(&registry()).check_pinned(&c, &pool, now, qid, pin)
            );
            assert_eq!(calls.load(Ordering::Relaxed), 3, "one partner: three calls");
        }
        assert_eq!(scratch.seq_fallbacks(), 0);

        let no_seq_gap = counting_builtins(&[("same_subject", 2), ("velocity_le", 3)], &calls);
        let first = ContextId::from_raw(0);
        assert_eq!(
            CompiledEvaluator::new(&no_seq_gap).check_pinned(
                &cc,
                &pool,
                now,
                1,
                first,
                &mut scratch
            ),
            Err(EvalError::UnknownPredicate("seq_gap".to_owned())),
            "the partner window of seq 0 pinned as `b` is empty, yet the scan raises"
        );
    }

    /// Narrowing trusts a builtin name only at its builtin arity. A
    /// registry that re-registers `seq_gap` or `subject_eq` at another
    /// arity makes every call raise `Arity`, so the narrowed walks must
    /// scan and raise it as the oracle does instead of skipping the
    /// bindings that raise.
    #[test]
    fn narrowing_requires_the_builtin_arity() {
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]);
        let now = LogicalTime::new(10);
        let mut scratch = EvalScratch::new();

        let mut two_arg_gap = registry();
        two_arg_gap.register("seq_gap", 2, |_| Ok(true));
        let c = parse_constraint(SPEED).unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        let seq0 = ContextId::from_raw(0);
        let want = Evaluator::new(&two_arg_gap).check_pinned(&c, &pool, now, 1, seq0);
        assert_eq!(
            want,
            Err(EvalError::Arity {
                name: "seq_gap".to_owned(),
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            CompiledEvaluator::new(&two_arg_gap).check_pinned(
                &cc,
                &pool,
                now,
                1,
                seq0,
                &mut scratch
            ),
            want,
            "seq 0 pinned as `b` has an empty partner window"
        );

        let mut three_arg_subject = registry();
        three_arg_subject.register("subject_eq", 3, |_| Ok(true));
        let c = parse_constraint(
            "constraint nobody: exists a: location . subject_eq(a, \"nobody\") and true",
        )
        .unwrap();
        let cc = CompiledConstraint::compile(&c).unwrap();
        assert_eq!(literal_subjects(&cc), vec![Some("nobody".to_owned())]);
        let want = Evaluator::new(&three_arg_subject)
            .check(&c, &pool, now)
            .map(|o| o.satisfied);
        assert!(matches!(
            want,
            Err(EvalError::Arity {
                expected: 3,
                actual: 2,
                ..
            })
        ));
        assert_eq!(
            CompiledEvaluator::new(&three_arg_subject).holds(&cc, &pool, now, &mut scratch),
            want,
            "nobody's bucket is empty"
        );
    }

    #[test]
    fn scratch_is_reusable_across_constraints_of_different_sizes() {
        let reg = registry();
        let mut scratch = EvalScratch::new();
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]);
        let now = LogicalTime::new(10);
        let big = CompiledConstraint::compile(&parse_constraint(SPEED).unwrap()).unwrap();
        let small = CompiledConstraint::compile(
            &parse_constraint("constraint one: exists a: location . true").unwrap(),
        )
        .unwrap();
        let eval = CompiledEvaluator::new(&reg);
        for _ in 0..3 {
            assert!(
                !eval
                    .check(&big, &pool, now, &mut scratch)
                    .unwrap()
                    .satisfied
            );
            assert!(
                eval.check(&small, &pool, now, &mut scratch)
                    .unwrap()
                    .satisfied
            );
        }
    }
}
