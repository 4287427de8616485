//! Deploy-time constraint compilation: the engine's one evaluator.
//!
//! [`Evaluator`](crate::Evaluator) walks the [`Formula`] AST directly:
//! every quantifier binding clones the variable name into an env vector,
//! every variable reference does a reverse linear scan by string
//! comparison, and every quantifier allocates a fresh domain `Vec`. None
//! of that work depends on the pool — it is the same on every call, so a
//! deployed constraint can pay it **once**. The engine evaluates only
//! compiled programs; the tree-walker stays as the oracle the tests hold
//! them against.
//!
//! [`CompiledConstraint::compile`] lowers any [`Constraint`] into a
//! flattened program in which
//!
//! * every variable reference is resolved to a **slot** — an index into a
//!   reusable env scratch buffer (slots coincide with the structural
//!   quantifier ids, so pinning works unchanged); a reference no
//!   enclosing quantifier binds lowers to a term that raises
//!   [`EvalError::UnboundVariable`] where the tree-walker raises it;
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
//! [`CompiledEvaluator`] then evaluates the program against the env
//! buffer of an [`EvalScratch`] that the caller reuses across calls
//! (and across constraints — it grows to the largest slot count seen),
//! iterating every quantifier domain straight off the pool.
//! Link-evidence semantics are shared with the AST evaluator via the
//! `Evidence`/`Need` machinery in `eval`, so both evaluators produce
//! byte-identical [`CheckOutcome`]s.
//!
//! Every walker evaluates left to right and short-circuits: `and`,
//! `or` and `implies` skip the right operand when the left one decides.
//! Three walks share one domain rule ([`Run::each_binding`]):
//!
//! * the **evidence walk** visits every quantifier binding and builds
//!   links per node, so it lists every violation;
//! * the **truth walk** builds nothing and stops a quantifier at its
//!   first deciding binding;
//! * the **violation walk** of a pinned check
//!   ([`CompiledEvaluator::name_violations_pinned`]) is the truth walk
//!   with one change on a *flat* program — a `forall` chain binding
//!   every quantifier over a quantifier-free body: no chain level stops
//!   at a counterexample, and each false binding pushes the binding
//!   itself as its link, which is the link the evidence walk builds for
//!   it. So one walk decides a pinned check and names its violations;
//!   only where a link need not be the binding, or the evidence walk
//!   would truncate, does the checker run the evidence walk instead.
//!
//! Under that rule a pinned check of a pair constraint needs only the
//! one partner its seq guard admits (see [`SeqGuard`]). Narrowing
//! trusts the builtins it reads by name only where the registry defines
//! them at their builtin arity (see [`Trusted`]).

use crate::ast::{Formula, Quantifier, Term};
use crate::constraint::Constraint;
use crate::error::EvalError;
use crate::eval::{
    combine_undecided, fold_exists, fold_forall, outcome_from, CheckOutcome, DomainMode, Evidence,
    Link, Need, Pin, MAX_LINKS,
};
use crate::predicate::{PredSym, PredicateRegistry, Resolved};
use ctxres_context::{
    Context, ContextId, ContextKind, ContextPool, ContextValue, LogicalTime, SubjectView,
};
use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

/// A term lowered to slot-addressed form. Variable names are kept only
/// for error reporting (`UnboundVariable` / `MissingAttr` parity with
/// the AST evaluator); the hot path never compares or clones them.
#[derive(Debug, Clone, PartialEq)]
enum CTerm {
    /// A quantifier-bound context, read from env slot `slot`.
    Slot { slot: usize, var: String },
    /// A variable, or an attribute of one, that no enclosing quantifier
    /// binds: resolving it raises [`EvalError::UnboundVariable`].
    Unbound { var: String },
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
        /// The narrowing that decides this leaf, if any.
        proof: Proof,
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

/// The narrowing that proves a guard leaf `Ok(true)` on every binding
/// it admits, so [`Run::eval_truth`] answers the leaf without resolving
/// its arguments or calling the registry (see [`Run::proves`]). Lowering
/// marks a leaf where [`subject_guard`], [`seq_guard`] and
/// [`literal_subject`] find it; the evidence walk ignores the marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proof {
    /// No narrowing decides the leaf: the walk calls it.
    None,
    /// A leading `same_subject` leaf of a subject guard: pinned-subject
    /// narrowing binds every chain variable to a context of the pinned
    /// subject.
    SameSubject,
    /// The [`SeqGuard`] leaf: the partner's bindings come from the
    /// guard's seq window around the pin's exact seq.
    SeqWindow,
    /// A quantifier's leading `subject_eq(x, "lit")`: `holds` binds `x`
    /// only to contexts about `lit`.
    LiteralSubject,
}

/// A [`Constraint`] lowered for allocation-free evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledConstraint {
    /// Shared with every [`crate::Detection`] of the constraint.
    pub(crate) name: Arc<str>,
    program: CFormula,
    /// Interned quantifier kinds, indexed by `CFormula::Quant::kind_sym`.
    kind_table: Vec<ContextKind>,
    /// The distinct kinds quantified over (sorted; mirrors
    /// [`Constraint::kinds`]).
    kinds: Vec<ContextKind>,
    slot_count: usize,
    universal_positive: bool,
    /// The program is a `forall` chain binding every quantifier, over a
    /// quantifier-free body: a violated binding's link is the binding
    /// (see [`CompiledEvaluator::name_violations_pinned`]).
    flat: bool,
    /// Deploy-time subject verdict (see
    /// [`CompiledConstraint::is_per_subject`]): the formula is
    /// universal-positive and, with two or more quantifiers, carries a
    /// [`subject_guard`].
    per_subject: bool,
    /// The seq guard of a per-subject pair constraint, if it has one.
    seq_guard: Option<SeqGuard>,
}

impl CompiledConstraint {
    /// Lowers `constraint` into slot-addressed form. Every constraint
    /// compiles: a variable no enclosing quantifier binds lowers to a
    /// term that raises [`EvalError::UnboundVariable`] when a walk
    /// reaches it, where the tree-walking evaluator raises it.
    pub fn compile(constraint: &Constraint) -> Self {
        let mut kind_table = Vec::new();
        let mut scope: Vec<(&str, usize)> = Vec::new();
        let mut program = lower(constraint.formula(), &mut kind_table, &mut scope);
        let slot_count = constraint.quantifier_count();
        let flat = forall_chain(&program) == slot_count;
        let guard = subject_guard(&mut program, slot_count);
        let guarded = guard.is_some();
        let seq_guard = guard.and_then(seq_guard);
        let universal_positive = constraint.is_universal_positive();
        CompiledConstraint {
            name: Arc::from(constraint.name()),
            flat,
            per_subject: universal_positive && (slot_count <= 1 || guarded),
            seq_guard,
            program,
            kinds: constraint.kinds().iter().cloned().collect(),
            kind_table,
            slot_count,
            universal_positive,
        }
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

    /// Whether the formula lies in the incremental-checkable fragment.
    pub fn is_universal_positive(&self) -> bool {
        self.universal_positive
    }

    /// Whether only contexts of one subject can meet in a binding that
    /// decides the constraint: the formula is universal-positive (so
    /// checks pin and never look for a witness) and, with two or more
    /// quantifiers, it is a `forall` chain over `G implies C` whose
    /// leading `same_subject` leaves in `G` tie every variable to one
    /// subject before anything else is read. Every other binding
    /// falsifies a leading leaf, which cannot raise on context
    /// arguments, so it holds without a call that could raise or add a
    /// link.
    ///
    /// This is the one per-subject proof. A pinned check of such a
    /// constraint restricts every unpinned quantifier to the pinned
    /// context's subject bucket — O(subject track) instead of O(kind) —
    /// and `ShardPlan::analyze` in `ctxres-middleware` partitions its
    /// kinds by subject. Both rely on the registry's `same_subject`
    /// meaning the builtin, and trust it only where
    /// [`PredicateRegistry::trusts_same_subject`] holds.
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
/// `forall … . G implies C` (see [`subject_guard`]): in `G`'s
/// left-to-right `and` spine, the seq predicate over two distinct chain
/// variables and an integer literal is the first leaf after the
/// `same_subject` leaves.
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
}

/// Which of the builtins narrowing reads by name a registry defines at
/// the builtin arity (for `same_subject`, the registry's own
/// [`PredicateRegistry::trusts_same_subject`], which subject sharding
/// also asks). Narrowing skips bindings on the strength of a
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
            same_subject: registry.trusts_same_subject(),
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
    /// registry trusted as `trusted`: it must trust the seq predicate
    /// (the subject narrowing it refines already trusts
    /// `same_subject`).
    fn narrows(&self, slot: usize, trusted: Trusted) -> bool {
        let defined = if self.le {
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

/// A pinned context as the narrowing of a per-subject pinned walk reads
/// it, looked up once: its subject, its kind, its subject's bucket of
/// that kind at the walk's instant, and its exact seq from the pool's
/// seq column. [`IncrementalChecker`](crate::IncrementalChecker) builds
/// one per submission and hands it to every pinned walk of the
/// submission; the public entry points build one per walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PinnedSubject<'a> {
    subject: &'a str,
    kind: &'a ContextKind,
    bucket: SubjectView<'a>,
    seq: Option<i64>,
}

impl<'a> PinnedSubject<'a> {
    /// Looks up stored context `id` at instant `now`; `None` when the
    /// pool does not hold it.
    pub(crate) fn of(pool: &'a ContextPool, id: ContextId, now: LogicalTime) -> Option<Self> {
        let ctx = pool.get(id)?;
        Some(PinnedSubject {
            subject: ctx.subject(),
            kind: ctx.kind(),
            bucket: pool.subject_view(ctx.kind(), ctx.subject(), now),
            seq: pool.exact_seq(id),
        })
    }

    /// The pinned subject's contexts of `kind` at `now`: the looked-up
    /// bucket for the pinned context's own kind, a fresh lookup for any
    /// other.
    fn bucket(
        &self,
        pool: &'a ContextPool,
        kind: &ContextKind,
        now: LogicalTime,
    ) -> SubjectView<'a> {
        if kind == self.kind {
            self.bucket
        } else {
            pool.subject_view(kind, self.subject, now)
        }
    }
}

/// The guard `G` of a program shaped `forall … . G implies C` — a
/// chain of `forall`s binding every quantifier of the program, whose
/// body is an implication — as the leaves of `G`'s left-to-right `and`
/// spine, when the `same_subject` leaves leading that spine, each over
/// two chain variables, tie every chain variable to one subject.
///
/// Narrowing a pinned check's unpinned quantifiers to the pinned
/// context's subject bucket is then invisible: a binding that puts
/// another subject's context into some quantifier falsifies one of the
/// leading leaves — which cannot raise on context arguments — before
/// anything else is read, so the implication holds without a call that
/// could raise or add a link. A spine that reads anything else before
/// the subjects are tied (`(seq_gap(a, b, 1) and same_subject(a, b))
/// implies …`, or a call to a variable no quantifier binds) keeps the
/// full kind domains, where such a read may raise.
///
/// Under that narrowing every leading `same_subject` leaf holds on
/// every binding, so the guard marks them [`Proof::SameSubject`].
fn subject_guard(program: &mut CFormula, slot_count: usize) -> Option<Vec<&mut CFormula>> {
    if forall_chain(program) != slot_count {
        return None;
    }
    let mut body = program;
    while let CFormula::Quant { body: inner, .. } = body {
        body = inner;
    }
    let CFormula::Implies(guard, _) = body else {
        return None;
    };
    let mut leaves = Vec::new();
    and_spine(guard, &mut leaves);
    // Slots are the chain's qids; each leading leaf merges two subject
    // classes.
    let mut class: Vec<usize> = (0..slot_count).collect();
    let mut ties = 0;
    for (u, v) in leaves.iter().map_while(|leaf| same_subject_pair(leaf)) {
        ties += 1;
        let (from, to) = (class[u], class[v]);
        class
            .iter_mut()
            .filter(|c| **c == from)
            .for_each(|c| *c = to);
    }
    if !class.iter().all(|c| *c == class[0]) {
        return None;
    }
    for leaf in &mut leaves[..ties] {
        mark(leaf, Proof::SameSubject);
    }
    Some(leaves)
}

/// The number of `forall`s leading `f`. With every quantifier among
/// them, the program is flat: the chain's body is quantifier-free.
fn forall_chain(mut f: &CFormula) -> usize {
    let mut chain = 0;
    while let CFormula::Quant {
        q: Quantifier::Forall,
        body,
        ..
    } = f
    {
        chain += 1;
        f = body;
    }
    chain
}

/// Marks predicate leaf `leaf` as decided by the narrowing `by`.
fn mark(leaf: &mut CFormula, by: Proof) {
    if let CFormula::Pred { proof, .. } = leaf {
        *proof = by;
    }
}

/// The two slots of a `same_subject` call over two bound variables.
fn same_subject_pair(f: &CFormula) -> Option<(usize, usize)> {
    match f {
        CFormula::Pred {
            sym: PredSym::SAME_SUBJECT,
            args,
            ..
        } => match args.as_slice() {
            [CTerm::Slot { slot: u, .. }, CTerm::Slot { slot: v, .. }] => Some((*u, *v)),
            _ => None,
        },
        _ => None,
    }
}

/// The [`SeqGuard`] among a [`subject_guard`]'s `leaves`, if the first
/// leaf after the `same_subject` ones is a seq predicate of that shape.
/// The window a pinned check draws the partner from holds exactly the
/// bindings on which the leaf is `Ok(true)`, so the leaf is marked
/// [`Proof::SeqWindow`].
fn seq_guard(mut leaves: Vec<&mut CFormula>) -> Option<SeqGuard> {
    let at = leaves
        .iter()
        .position(|leaf| same_subject_pair(leaf).is_none())?;
    let CFormula::Pred { sym, args, .. } = &*leaves[at] else {
        return None;
    };
    let le = *sym == PredSym::SEQ_GAP_LE;
    let guard = match args.as_slice() {
        [CTerm::Slot { slot: u, .. }, CTerm::Slot { slot: v, .. }, CTerm::Const(ContextValue::Int(k))]
            if (le || *sym == PredSym::SEQ_GAP) && u != v && (!le || *k >= 1) =>
        {
            SeqGuard {
                u: *u,
                v: *v,
                k: *k,
                le,
            }
        }
        _ => return None,
    };
    mark(leaves[at], Proof::SeqWindow);
    Some(guard)
}

/// The leaves of `f`'s `and` spine, left to right.
fn and_spine<'f>(f: &'f mut CFormula, leaves: &mut Vec<&'f mut CFormula>) {
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
) -> CFormula {
    let mut sub = |f: &'f Formula| Box::new(lower(f, kind_table, scope));
    match f {
        Formula::True => CFormula::True,
        Formula::False => CFormula::False,
        Formula::Not(a) => CFormula::Not(sub(a)),
        Formula::And(a, b) => CFormula::And(sub(a), sub(b)),
        Formula::Or(a, b) => CFormula::Or(sub(a), sub(b)),
        Formula::Implies(a, b) => CFormula::Implies(sub(a), sub(b)),
        Formula::Pred(call) => CFormula::Pred {
            sym: PredSym::intern(&call.name),
            args: call.args.iter().map(|t| lower_term(t, scope)).collect(),
            proof: Proof::None,
        },
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
            let mut body = lower(body, kind_table, scope);
            scope.pop();
            CFormula::Quant {
                q: *q,
                kind_sym,
                slot: *qid,
                subject: literal_subject(*q, *qid, &mut body),
                body: Box::new(body),
            }
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
///
/// On the bindings `holds` keeps, the guard is `Ok(true)`, so it is
/// marked [`Proof::LiteralSubject`].
fn literal_subject(q: Quantifier, slot: usize, body: &mut CFormula) -> Option<String> {
    let mut leaf = match (q, body) {
        (Quantifier::Exists, spine) => spine,
        (Quantifier::Forall, CFormula::Implies(antecedent, _)) => antecedent,
        (Quantifier::Forall, _) => return None,
    };
    while let CFormula::And(left, _) = leaf {
        leaf = left;
    }
    let CFormula::Pred {
        sym: PredSym::SUBJECT_EQ,
        args,
        proof,
        ..
    } = leaf
    else {
        return None;
    };
    match args.as_slice() {
        [CTerm::Slot { slot: guarded, .. }, CTerm::Const(ContextValue::Text(lit))]
            if *guarded == slot =>
        {
            *proof = Proof::LiteralSubject;
            Some(lit.clone())
        }
        _ => None,
    }
}

fn lower_term(t: &Term, scope: &[(&str, usize)]) -> CTerm {
    let slot_of = |name: &str| {
        scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, slot)| *slot)
    };
    let (name, attr) = match t {
        Term::Const(v) => return CTerm::Const(v.clone()),
        Term::Var(name) => (name, None),
        Term::Attr(name, attr) => (name, Some(attr)),
    };
    let var = name.clone();
    match (slot_of(name), attr) {
        (None, _) => CTerm::Unbound { var },
        (Some(slot), None) => CTerm::Slot { slot, var },
        (Some(slot), Some(attr)) => CTerm::Attr {
            slot,
            var,
            attr: attr.clone(),
        },
    }
}

/// Reusable evaluation buffers: the slot-indexed env, and the links the
/// checker's pinned checks name. Grows to the largest program (and the
/// most violations) seen and is then allocation-free across calls.
#[derive(Debug, Default)]
pub struct EvalScratch {
    env: Vec<ContextId>,
    /// The violations a plan step's pinned checks have named so far
    /// ([`CompiledEvaluator::name_violations_pinned`] pushes them), in
    /// walk order and not deduplicated.
    pub(crate) links: Vec<Link>,
    /// Pinned truth passes run with this scratch that had a seq guard
    /// to narrow by but scanned the bucket instead.
    seq_fallbacks: u64,
}

impl EvalScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Pinned truth passes — the truth walk
    /// ([`CompiledEvaluator::satisfied_pinned_batch`]) and the checker's
    /// violation walk — run with this scratch whose constraint has a
    /// seq guard on the pinned quantifier but which scanned the
    /// partner's subject bucket: the pool could not vouch for the
    /// bucket's seq order, or the pinned context's own seq is not an
    /// exact integer.
    pub fn seq_fallbacks(&self) -> u64 {
        self.seq_fallbacks
    }

    fn prepare(&mut self, slots: usize) {
        if self.env.len() < slots {
            self.env.resize(slots, ContextId::from_raw(u64::MAX));
        }
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
        let mut run = self.start(constraint, pool, now, None, None, scratch);
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
    /// [`check_pinned_batch`](CompiledEvaluator::check_pinned_batch):
    /// the same truth walk as [`holds`](CompiledEvaluator::holds), over
    /// the pinned, narrowed and optionally capped domains of the
    /// evidence walk. It builds no evidence and allocates nothing. The
    /// incremental checker's pinned checks run its violation-naming
    /// variant, which differs from it only by not stopping a flat
    /// program's chain at a counterexample.
    ///
    /// The evidence walk visits every binding this walk visits, in the
    /// same order, plus those a quantifier's deciding binding let this
    /// walk skip. So the two truth values agree whenever both are `Ok`,
    /// and when this walk raises, the evidence walk raises too (the
    /// same error, unless a skipped binding raised first).
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
    ) -> Result<bool, EvalError> {
        let pin = Some((Pin { qid, ctx }, None));
        let mut run = self.start(constraint, pool, now, pin, max_id, scratch);
        let truth = run.eval_truth(&constraint.program);
        if run.seq_scanned {
            run.scratch.seq_fallbacks += 1;
        }
        truth
    }

    /// The violation walk of one pinned check: the truth walk of
    /// [`satisfied_pinned_batch`](CompiledEvaluator::satisfied_pinned_batch),
    /// over its pinned, narrowed and optionally capped domains (the
    /// pinned context `ctx` already looked up at `now` as `pinned`, or
    /// `None` to look it up here when the walk narrows), that also names
    /// the check's violations: it pushes them onto `scratch.links` and
    /// returns `Ok(true)`.
    ///
    /// On a flat program (a `forall` chain binding every quantifier,
    /// over a quantifier-free body) no chain level stops at a
    /// counterexample, and each binding whose body is false pushes the
    /// binding — the set of the chain's contexts — as its link. Every
    /// argument the body reads is a chain variable, so that is the link
    /// the evidence walk builds for the binding. The walk visits the
    /// evidence walk's bindings in its order and evaluates each body
    /// with the same short-circuits, answering only the guard leaves
    /// its narrowing proved `Ok(true)`; so it raises the evidence walk's
    /// error, and its links, sorted and deduplicated, are the evidence
    /// walk's violations.
    ///
    /// It returns `Ok(false)`, leaving `scratch.links` as it found it,
    /// where it cannot name them and the caller must run the evidence
    /// walk ([`check_pinned_batch`](CompiledEvaluator::check_pinned_batch)):
    ///
    /// * on any other program, at its first false binding, where the
    ///   truth walk stops: there a link need not be the binding;
    /// * once it has pushed more than [`MAX_LINKS`] links, where the
    ///   evidence walk truncates. Every level of the chain collects a
    ///   subset of the walk's links, so below that bound no level
    ///   truncates.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the branches actually evaluated.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn name_violations_pinned<'a>(
        &self,
        constraint: &'a CompiledConstraint,
        pool: &'a ContextPool,
        now: LogicalTime,
        qid: usize,
        ctx: ContextId,
        pinned: Option<PinnedSubject<'a>>,
        max_id: Option<ContextId>,
        scratch: &'a mut EvalScratch,
    ) -> Result<bool, EvalError> {
        let from = scratch.links.len();
        let pin = Some((Pin { qid, ctx }, pinned));
        let mut run = self.start(constraint, pool, now, pin, max_id, scratch);
        let named = if constraint.flat {
            run.name_violations(&constraint.program, constraint.slot_count, from)
                .map(|flow| flow.is_continue())
        } else {
            run.eval_truth(&constraint.program)
        };
        if run.seq_scanned {
            run.scratch.seq_fallbacks += 1;
        }
        if !matches!(named, Ok(true)) {
            run.scratch.links.truncate(from);
        }
        named
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
        let pin = pin.map(|p| (p, None));
        let ev = self
            .start(constraint, pool, now, pin, max_id, scratch)
            .eval(&constraint.program, Need::ROOT)?;
        Ok(outcome_from(ev))
    }

    /// Sets up one evaluation of `constraint`, shared by every entry
    /// point. A pin may come with its context already looked up.
    fn start<'a>(
        &self,
        constraint: &'a CompiledConstraint,
        pool: &'a ContextPool,
        now: LogicalTime,
        pin: Option<(Pin, Option<PinnedSubject<'a>>)>,
        max_id: Option<ContextId>,
        scratch: &'a mut EvalScratch,
    ) -> Run<'a, 'r> {
        scratch.prepare(constraint.slot_count);
        // A per-subject constraint's deciding bindings all share the
        // pinned context's subject, so the unpinned quantifiers only
        // need that subject's bucket of the kind index — provided the
        // registry trusts `same_subject`, which the subject guard reads.
        // Other constraints (or unpinned checks) keep the full kind
        // domain.
        let pinned = match pin {
            Some((p, looked_up)) if constraint.per_subject && self.trusted.same_subject => {
                looked_up.or_else(|| PinnedSubject::of(pool, p.ctx, now))
            }
            _ => None,
        };
        let pin = pin.map(|(p, _)| p);
        // A seq guard on the pinned quantifier narrows its partner to
        // the guard's seq window — when the pin's seq is exact.
        let mut seq_window = None;
        let mut seq_scanned = false;
        if let (Some(p), Some(pinned), Some(guard)) = (pin, pinned, constraint.seq_guard) {
            if guard.narrows(p.qid, self.trusted) {
                match pinned.seq {
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
            pinned,
            seq_window,
            seq_scanned,
            max_id,
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
    /// `Some` when the pinned constraint is per-subject: every unpinned
    /// quantifier's domain narrows to the pinned subject's bucket.
    pinned: Option<PinnedSubject<'a>>,
    /// The seq guard's window for the pinned check, if one applies.
    seq_window: Option<SeqWindow>,
    /// Whether a seq guard applied but the walk scanned the bucket.
    seq_scanned: bool,
    /// Batch cap: quantifier domains only admit contexts with
    /// `id <= max_id`, reproducing the pool a sequential submission
    /// would have seen at that arrival position.
    max_id: Option<ContextId>,
    /// Whether [`Run::eval_truth`] scans a literal-subject quantifier's
    /// subject bucket instead of the whole kind.
    narrow: bool,
    scratch: &'a mut EvalScratch,
}

impl<'a> Run<'a, '_> {
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
                subject,
                body,
            } => {
                // Every binding is visited: the visit never breaks.
                let mut per_binding: Vec<Evidence> = Vec::new();
                let _ = self.each_binding(*kind_sym, *slot, subject.as_deref(), |run| {
                    let id = run.scratch.env[*slot];
                    let mut ev = run.eval(body, need)?;
                    for link in &mut ev.links {
                        link.insert(id);
                    }
                    per_binding.push(ev);
                    Ok(ControlFlow::Continue(()))
                })?;
                Ok(match q {
                    Quantifier::Forall => fold_forall(per_binding, need),
                    Quantifier::Exists => fold_exists(per_binding, need),
                })
            }
        }
    }

    /// Binds quantifier `slot` of kind `kind_sym` to each context of its
    /// domain in turn and calls `visit`, until a visit breaks (returned
    /// as `Break`) or raises. This is every walk's one domain rule: the
    /// pin's singleton; else, under pinned-subject narrowing, the seq
    /// guard's window or the pinned subject's bucket; else a literal
    /// `subject`'s bucket when `narrow` is set, or the whole kind. Every
    /// domain but the pin's is iterated lazily straight off the pool,
    /// live at `now`, state-filtered by the domain mode and capped at
    /// `max_id` for a batch-capped check (see [`Run::admits`]).
    fn each_binding(
        &mut self,
        kind_sym: usize,
        slot: usize,
        subject: Option<&str>,
        mut visit: impl FnMut(&mut Self) -> Result<ControlFlow<()>, EvalError>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let pool = self.pool;
        let kind = &self.kind_table[kind_sym];
        match (self.pin, self.pinned) {
            (Some(p), _) if p.qid == slot => {
                self.scratch.env[slot] = p.ctx;
                visit(self)
            }
            (_, Some(pinned)) => {
                let bucket = pinned.bucket(pool, kind, self.now);
                match self.seq_domain(bucket, slot) {
                    Some(domain) => self.bind_each(domain, slot, visit),
                    None => self.bind_each(bucket.live(), slot, visit),
                }
            }
            _ => match subject {
                Some(literal) if self.narrow => {
                    let domain = pool.of_subject_live_at(kind, literal, self.now);
                    self.bind_each(domain, slot, visit)
                }
                _ => self.bind_each(pool.of_kind_live_at(kind, self.now), slot, visit),
            },
        }
    }

    /// The loop of [`Run::each_binding`] over one bucket iterator.
    fn bind_each<'p>(
        &mut self,
        domain: impl Iterator<Item = (ContextId, &'p Context)>,
        slot: usize,
        mut visit: impl FnMut(&mut Self) -> Result<ControlFlow<()>, EvalError>,
    ) -> Result<ControlFlow<()>, EvalError> {
        for (id, ctx) in domain {
            match self.admits(id, ctx) {
                Some(true) => {}
                Some(false) => continue,
                None => break,
            }
            self.scratch.env[slot] = id;
            if visit(self)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// The seq guard's window of the pinned subject's `bucket` when it
    /// narrows `slot` and the pool vouches for the bucket's seq order;
    /// `None` leaves the caller to scan the bucket, noting the fallback
    /// when the guard applied.
    fn seq_domain(
        &mut self,
        bucket: SubjectView<'a>,
        slot: usize,
    ) -> Option<impl Iterator<Item = (ContextId, &'a Context)> + 'a> {
        let window = self.seq_window.filter(|w| w.slot == slot)?;
        let found = bucket.seq_live(window.seqs());
        self.seq_scanned |= found.is_none();
        found
    }

    /// Whether the narrowing that `proof` names is on in this truth
    /// walk, so the marked leaf is `Ok(true)` on every binding that
    /// reaches it.
    ///
    /// * [`Proof::SameSubject`]: the walk narrows to the pinned subject,
    ///   so every chain variable is bound to a context of that subject
    ///   (the pin or a member of its bucket), and `same_subject` holds
    ///   on any two of them.
    /// * [`Proof::SeqWindow`]: the seq window applies and the partner's
    ///   domain came from it, not from a scan (`seq_scanned`): the leaf
    ///   sits inside the partner's quantifier, which has run by the time
    ///   the leaf is reached, and every partner in the window has an
    ///   exact seq at exactly the gap the leaf asks of the pin's exact
    ///   seq, where the builtin's `f64` arithmetic is exact.
    /// * [`Proof::LiteralSubject`]: `holds` narrows literal quantifiers,
    ///   so the guarded variable ranges over the literal subject's
    ///   bucket only.
    ///
    /// Each holds under the [`Trusted`] builtin that enabled the
    /// narrowing, which the registry must mean by that name.
    fn proves(&self, proof: Proof) -> bool {
        match proof {
            Proof::None => false,
            Proof::SameSubject => self.pinned.is_some(),
            Proof::SeqWindow => self.seq_window.is_some() && !self.seq_scanned,
            Proof::LiteralSubject => self.narrow,
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
    /// at its first deciding binding, so an `exists` whose witness comes
    /// early never visits the rest of its domain.
    fn eval_truth(&mut self, formula: &CFormula) -> Result<bool, EvalError> {
        match formula {
            CFormula::True => Ok(true),
            CFormula::False => Ok(false),
            CFormula::Not(f) => Ok(!self.eval_truth(f)?),
            CFormula::And(a, b) => Ok(self.eval_truth(a)? && self.eval_truth(b)?),
            CFormula::Or(a, b) => Ok(self.eval_truth(a)? || self.eval_truth(b)?),
            CFormula::Implies(a, b) => Ok(!self.eval_truth(a)? || self.eval_truth(b)?),
            CFormula::Pred { proof, .. } if self.proves(*proof) => Ok(true),
            CFormula::Pred { sym, args, .. } => {
                let pool = self.pool;
                let env = &self.scratch.env;
                eval_pred_with(self.registry, *sym, args, |term| {
                    resolve_cterm_value(term, pool, env)
                })
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
                let flow = self.each_binding(*kind_sym, *slot, subject.as_deref(), |run| {
                    Ok(if run.eval_truth(body)? == deciding {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    })
                })?;
                Ok(flow.is_break() == deciding)
            }
        }
    }

    /// The violation walk of a flat program (see
    /// [`CompiledEvaluator::name_violations_pinned`]): each `forall` of
    /// the chain binds every context of its domain in turn, and the
    /// quantifier-free body gets the truth walk; a false body pushes the
    /// chain's `slots` contexts onto the scratch's links as one link.
    /// Breaks once the walk's links, those from index `from` on, number
    /// more than [`MAX_LINKS`].
    fn name_violations(
        &mut self,
        formula: &CFormula,
        slots: usize,
        from: usize,
    ) -> Result<ControlFlow<()>, EvalError> {
        if let CFormula::Quant {
            kind_sym,
            slot,
            subject,
            body,
            ..
        } = formula
        {
            return self.each_binding(*kind_sym, *slot, subject.as_deref(), |run| {
                run.name_violations(body, slots, from)
            });
        }
        if self.eval_truth(formula)? {
            return Ok(ControlFlow::Continue(()));
        }
        let mut link = Link::new();
        link.extend(self.scratch.env[..slots].iter().copied());
        let links = &mut self.scratch.links;
        links.push(link);
        Ok(if links.len() - from > MAX_LINKS {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        })
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
        CTerm::Unbound { var } => Err(EvalError::UnboundVariable(var.clone())),
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
        CTerm::Unbound { var } => Err(EvalError::UnboundVariable(var.clone())),
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
        let cc = CompiledConstraint::compile(&c);
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
        let cc = CompiledConstraint::compile(&c);
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

    /// Subject narrowing needs `same_subject` leaves that tie every
    /// variable before anything else is read. Here another subject's
    /// binding would reach a call that raises — an unknown predicate, a
    /// variable no quantifier binds, a seq the context lacks — or the
    /// tie itself names a variable out of scope, so pinned checks keep
    /// the full kind domains and raise as the oracle does.
    #[test]
    fn subject_narrowing_needs_a_leading_guard() {
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .attr("seq", 0i64)
                .build(),
        );
        pool.insert(Context::builder(ContextKind::new("badge"), "q").build());
        let reg = registry();
        let now = LogicalTime::new(3);
        for source in [
            "constraint unknown: forall a: location, b: badge .
               (ghost(a) and same_subject(a, b)) implies true",
            "constraint unbound: forall a: location, b: badge .
               (eq(zz, 1) and same_subject(a, b)) implies true",
            "constraint out_of_scope: forall b: badge .
               (forall a: location . true) implies not same_subject(a, b)",
            "constraint seq_first: forall a: location, b: badge .
               (seq_gap(a, b, 1) and same_subject(a, b)) implies false",
        ] {
            let c = parse_constraint(source).unwrap();
            let cc = CompiledConstraint::compile(&c);
            assert!(!cc.is_per_subject(), "{source}");
            let mut raised = false;
            for qid in 0..2 {
                for (id, _) in pool.iter() {
                    let want = Evaluator::new(&reg).check_pinned(&c, &pool, now, qid, id);
                    raised |= want.is_err();
                    assert_eq!(
                        CompiledEvaluator::new(&reg).check_pinned(
                            &cc,
                            &pool,
                            now,
                            qid,
                            id,
                            &mut EvalScratch::new()
                        ),
                        want,
                        "{source} pinned {qid}@{id}"
                    );
                }
            }
            assert!(raised, "{source}: some pin reaches the raising call");
        }
    }

    /// The one per-subject proof: universal-positive and, with two or
    /// more quantifiers, a leading `same_subject` guard tying every
    /// variable to one subject. The guard-shape cases live with the
    /// schema tests; these are the polarity and unknown-predicate ones.
    #[test]
    fn per_subject_verdicts() {
        for (per_subject, source) in [
            (true, "not exists a: location . subject_eq(a, \"anchor\")"),
            (
                false,
                "not forall a: location . within(a, 0.0, 0.0, 1.0, 1.0)",
            ),
            (
                false,
                "forall a: location, b: badge . (ghost(a) and same_subject(a, b)) implies true",
            ),
        ] {
            let source = format!("constraint c: {source}");
            let cc = CompiledConstraint::compile(&parse_constraint(&source).unwrap());
            assert_eq!(cc.is_per_subject(), per_subject, "{source}");
        }
    }

    /// A constraint whose violations span subjects (`same_subject` only
    /// in the consequent) is not per-subject: pinned checks keep the
    /// full kind domain, or the cross-subject violation would be missed.
    #[test]
    fn global_constraints_never_subject_restrict() {
        let pool = two_subject_pool();
        let src = "constraint cross: forall a: location, b: location . \
                   seq_gap(a, b, 1) implies same_subject(a, b)";
        let c = parse_constraint(src).unwrap();
        let cc = CompiledConstraint::compile(&c);
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
        let cc = CompiledConstraint::compile(&c);
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
        let cc = CompiledConstraint::compile(&c);
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

    /// A variable no enclosing quantifier binds compiles; a walk that
    /// reaches it raises `UnboundVariable`, as the tree-walker does, and
    /// one that short-circuits past it does not.
    #[test]
    fn unbound_variables_raise_where_the_oracle_does() {
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]);
        let now = LogicalTime::new(10);
        for source in [
            "constraint bare: has_attr(ghost, \"pos\")",
            "constraint reached: forall a: location . same_subject(a, ghost)",
            "constraint attr: forall a: location . eq(ghost.room, a.seq)",
            "constraint skipped: forall a: location . true or same_subject(a, ghost)",
            "constraint guarded: forall a: location . le(a.seq, 0) implies eq(ghost, 1)",
            "constraint out_of_scope: (forall a: location . true) and has_attr(a, \"pos\")",
            SPEED,
        ] {
            assert_matches_naive(source, &pool, now);
        }
        let c = parse_constraint("constraint reached: forall a: location . same_subject(a, ghost)")
            .unwrap();
        let got = CompiledEvaluator::new(&registry()).check(
            &CompiledConstraint::compile(&c),
            &pool,
            now,
            &mut EvalScratch::new(),
        );
        assert_eq!(got, Err(EvalError::UnboundVariable("ghost".to_owned())));
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
        let cc = CompiledConstraint::compile(&c);
        assert_eq!(cc.kind_table.len(), 2, "location interned once");
        assert_eq!(cc.kinds().len(), 2);
        assert_eq!(
            cc.kinds(),
            [ContextKind::new("location"), ContextKind::new("rfid")]
        );
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
        let cc = CompiledConstraint::compile(&c);
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
                let cc = CompiledConstraint::compile(&c);
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
            let cc = CompiledConstraint::compile(&parse_constraint(source).unwrap());
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
        let cc = CompiledConstraint::compile(&c);
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
        let cc = CompiledConstraint::compile(&c);
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
            CompiledConstraint::compile(&parse_constraint(&source).unwrap()).seq_guard
        };
        let speed = |u, v, k, le| Some(SeqGuard { u, v, k, le });
        let v = "velocity_le(a, b, 1.5)";
        assert_eq!(
            guard("same_subject(a, b) and seq_gap(a, b, 1)", v),
            speed(0, 1, 1, false)
        );
        assert_eq!(
            guard("same_subject(b, a) and seq_gap(b, a, 3)", v),
            speed(1, 0, 3, false)
        );
        assert_eq!(
            guard(
                "same_subject(a, b) and seq_gap_le(a, b, 2) and eq(a.zone, \"checkout\")",
                "eq(b.zone, \"checkout\")"
            ),
            speed(0, 1, 2, true)
        );
        assert_eq!(
            guard(
                "same_subject(a, b) and (seq_gap(a, b, -1) and has_attr(a, \"pos\"))",
                v
            ),
            speed(0, 1, -1, false),
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
            // The seq leaf reads another subject's bindings before
            // `same_subject` skips them: no subject narrowing at all.
            "seq_gap(a, b, 2) and same_subject(a, b)",
            "same_subject(a, ghost) and seq_gap(a, b, 1)",
        ] {
            assert_eq!(guard(antecedent, v), None, "{antecedent}");
        }
        let global = "constraint g: forall a: location, b: location . \
                      seq_gap(a, b, 1) implies same_subject(a, b)";
        let cc = CompiledConstraint::compile(&parse_constraint(global).unwrap());
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
        let cc = CompiledConstraint::compile(&c);
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

    /// Counting forwarders to the builtins under `names`, one counter
    /// per name, read back by [`counts`].
    fn per_name_counters(
        names: &[(&'static str, usize)],
    ) -> (
        PredicateRegistry,
        Vec<(&'static str, std::sync::Arc<std::sync::atomic::AtomicU64>)>,
    ) {
        use crate::predicate::counting_builtins;
        let mut registry = PredicateRegistry::new();
        let mut counters = Vec::new();
        for &(name, arity) in names {
            let calls = std::sync::Arc::default();
            let one = counting_builtins(&[(name, arity)], &calls);
            registry.register(name, arity, move |args| one.eval(name, args));
            counters.push((name, calls));
        }
        (registry, counters)
    }

    /// Each counter's calls since the last read, by name; resets them.
    fn counts(
        counters: &[(&'static str, std::sync::Arc<std::sync::atomic::AtomicU64>)],
    ) -> Vec<(&'static str, u64)> {
        use std::sync::atomic::Ordering;
        counters
            .iter()
            .map(|(name, calls)| (*name, calls.swap(0, Ordering::Relaxed)))
            .collect()
    }

    /// A truth walk answers a guard leaf without a call only where the
    /// narrowing that proves it ran, and only on the bindings that
    /// narrowing drew.
    ///
    /// * A seq-narrowed pinned walk calls only the consequent, once per
    ///   partner in the window.
    /// * A bucket whose seqs do not rise falls back to a scan: the walk
    ///   still skips `same_subject` (subject narrowing ran) but calls
    ///   `seq_gap` on every binding of the bucket.
    /// * A registry that fails `trusts_same_subject` narrows nothing and
    ///   skips nothing: the first `same_subject` leaf raises, as the
    ///   oracle's does.
    /// * A literal-narrowed `holds` calls no `subject_eq`.
    #[test]
    fn truth_walks_skip_only_the_leaves_their_narrowing_proved() {
        let c = parse_constraint(SPEED).unwrap();
        let cc = CompiledConstraint::compile(&c);
        let now = LogicalTime::new(30);
        let mut scratch = EvalScratch::new();
        let speed_names = [("same_subject", 2), ("seq_gap", 3), ("velocity_le", 3)];
        let (counting, counters) = per_name_counters(&speed_names);
        let eval = CompiledEvaluator::new(&counting);
        let oracle = Evaluator::new(&counting);

        // Seq-narrowed: the pin at seq 10 has one partner on each side.
        let points: Vec<(f64, f64)> = (0..20).map(|i| (f64::from(i) * 0.5, 0.0)).collect();
        let pool = loc_pool(&points);
        let pin = ContextId::from_raw(10);
        for qid in 0..2 {
            let got = eval.satisfied_pinned_batch(&cc, &pool, now, qid, pin, None, &mut scratch);
            assert_eq!(got, Ok(true), "pin qid={qid}");
            assert_eq!(
                counts(&counters),
                [("same_subject", 0), ("seq_gap", 0), ("velocity_le", 1)],
                "pin qid={qid}: the consequent only"
            );
        }
        assert_eq!(scratch.seq_fallbacks(), 0);

        // Fallback: seq 4 appears twice, so the bucket does not rise.
        let mut pool = ContextPool::new();
        for (stamp, seq) in [0i64, 1, 2, 3, 4, 4, 5].into_iter().enumerate() {
            pool.insert(
                Context::builder(ContextKind::new("location"), "peter")
                    .attr("pos", Point::new(0.0, 0.0))
                    .attr("seq", seq)
                    .stamp(LogicalTime::new(stamp as u64))
                    .build(),
            );
        }
        let pin = ContextId::from_raw(6);
        let got = eval.satisfied_pinned_batch(&cc, &pool, now, 1, pin, None, &mut scratch);
        assert_eq!(got, Ok(true));
        assert_eq!(
            counts(&counters),
            [("same_subject", 0), ("seq_gap", 7), ("velocity_le", 2)],
            "seq_gap on all seven bindings; both seq-4 contexts are partners"
        );
        assert_eq!(scratch.seq_fallbacks(), 1);
        let want = oracle.check_pinned(&c, &pool, now, 1, pin);
        assert_eq!(want.map(|o| o.satisfied), Ok(true));
        assert_eq!(
            counts(&counters),
            [("same_subject", 7), ("seq_gap", 7), ("velocity_le", 2)],
            "the oracle calls every leaf it reaches"
        );

        // Untrusted `same_subject` (registered at arity 3): no narrowing.
        let (mut untrusted, counters) = per_name_counters(&speed_names[1..]);
        untrusted.register("same_subject", 3, |_| Ok(true));
        assert!(!untrusted.trusts_same_subject());
        let pool = loc_pool(&points);
        let pin = ContextId::from_raw(10);
        let arity = Err(EvalError::Arity {
            name: "same_subject".to_owned(),
            expected: 3,
            actual: 2,
        });
        for qid in 0..2 {
            let got = CompiledEvaluator::new(&untrusted).satisfied_pinned_batch(
                &cc,
                &pool,
                now,
                qid,
                pin,
                None,
                &mut scratch,
            );
            assert_eq!(got, arity, "pin qid={qid}: the guard leaf is called");
            assert_eq!(
                Evaluator::new(&untrusted)
                    .check_pinned(&c, &pool, now, qid, pin)
                    .map(|o| o.satisfied),
                arity
            );
            assert_eq!(counts(&counters), [("seq_gap", 0), ("velocity_le", 0)]);
        }

        // Literal-narrowed `holds`: peter's bucket only, no `subject_eq`.
        let (counting, counters) = per_name_counters(&[("subject_eq", 2), ("within", 5)]);
        let situation = parse_constraint(
            "constraint mary_far: exists a: location .
               subject_eq(a, \"mary\") and not within(a, -1.0, -1.0, 1.0, 1.0)",
        )
        .unwrap();
        let sc = CompiledConstraint::compile(&situation);
        let pool = two_subject_pool();
        let got = CompiledEvaluator::new(&counting).holds(&sc, &pool, now, &mut scratch);
        assert_eq!(got, Ok(false), "mary stays near home");
        assert_eq!(
            counts(&counters),
            [("subject_eq", 0), ("within", 3)],
            "mary's three contexts, no guard call"
        );
        let full = Evaluator::new(&counting).check(&situation, &pool, now);
        assert_eq!(full.map(|o| o.satisfied), Ok(false));
        assert_eq!(
            counts(&counters),
            [("subject_eq", 6), ("within", 3)],
            "the oracle calls the guard on all six"
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
        let cc = CompiledConstraint::compile(&c);
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
        let cc = CompiledConstraint::compile(&c);
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
        let big = CompiledConstraint::compile(&parse_constraint(SPEED).unwrap());
        let small = CompiledConstraint::compile(
            &parse_constraint("constraint one: exists a: location . true").unwrap(),
        );
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
