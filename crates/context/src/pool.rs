//! The context pool: arena-backed, indexed storage of managed contexts.

use crate::context::{Context, ContextId, ContextKind};
use crate::error::ContextError;
use crate::state::ContextState;
use crate::time::LogicalTime;
use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Counters describing a pool's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total contexts ever inserted.
    pub inserted: u64,
    /// Contexts currently stored (any state).
    pub stored: usize,
    /// Contexts in the `Consistent` state.
    pub consistent: usize,
    /// Contexts in the `Undecided` state.
    pub undecided: usize,
    /// Contexts in the `Bad` state.
    pub bad: usize,
    /// Contexts in the `Inconsistent` (discarded) state.
    pub inconsistent: usize,
}

/// Per-kind occupancy watermark: how many live contexts a kind bucket
/// holds and how old the oldest of them is — the raw material for the
/// staleness estimators in the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindWatermark {
    /// The kind the watermark describes.
    pub kind: ContextKind,
    /// Live (not `Inconsistent`) contexts of the kind.
    pub live: usize,
    /// Stamp of the oldest live context, when one exists.
    pub oldest_stamp: Option<LogicalTime>,
    /// Time-to-live of the oldest live context, in ticks
    /// (`expires_at - stamp`); `None` when it never expires.
    pub oldest_ttl: Option<u64>,
}

/// Sentinel in the id → slot table for a removed context.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel in the seq column for a context without an
/// [exact seq](Context::exact_seq); no exact seq reaches it.
const NO_SEQ: i64 = i64::MIN;

/// [`KindBucket::reach`] once the bucket has indexed an immortal
/// context: no prefix of it can be proved dead.
const UNBOUNDED_REACH: u64 = u64::MAX;

/// How long after its stamp `ctx` can still be live: `expires_at −
/// stamp` (zero when it expires before its stamp), or
/// [`UNBOUNDED_REACH`] when it never expires. Reads the saturating
/// [`Lifespan::expires_at`](crate::Lifespan::expires_at), so a huge
/// TTL cannot wrap into a short reach.
fn reach_of(ctx: &Context) -> u64 {
    match ctx.lifespan().expires_at() {
        Some(deadline) => (deadline - ctx.stamp()).count(),
        None => UNBOUNDED_REACH,
    }
}

/// A generational reference into the slot arena. A handle is live only
/// while the slot's generation still matches: removing a context bumps
/// its slot's generation, instantly invalidating every outstanding
/// handle to it, and slot reuse hands the new occupant a fresh
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHandle {
    slot: u32,
    generation: u32,
}

#[cfg(test)]
thread_local! {
    /// Handles moved by index maintenance on this thread (memmoves and
    /// dead-prefix drains), read by the work-count test.
    static SHIFTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `moved` handles shifted by index maintenance; a no-op
/// outside tests.
#[inline(always)]
fn count_shifted(moved: usize) {
    #[cfg(test)]
    SHIFTED.with(|n| n.set(n.get() + moved as u64));
    #[cfg(not(test))]
    let _ = moved;
}

/// A run of slot handles ordered by `(stamp, id)` that pops at the
/// front in O(1). The run is `buf[head..]`; the handles before `head`
/// are dead. Retention removes a kind's oldest context, which sits at
/// the front, so a front removal advances `head` instead of shifting
/// the whole run, and the dead prefix is drained once it passes half
/// the buffer — fewer moves than pops, amortised. A run that empties
/// drains at once, so an empty run has an empty buffer.
#[derive(Debug, Default, Clone)]
struct HandleRun {
    buf: Vec<SlotHandle>,
    head: usize,
}

impl HandleRun {
    /// A run over a reused buffer, which must be empty.
    fn reusing(buf: Vec<SlotHandle>) -> Self {
        debug_assert!(buf.is_empty());
        HandleRun { buf, head: 0 }
    }

    fn as_slice(&self) -> &[SlotHandle] {
        &self.buf[self.head..]
    }

    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// The run as a plain vector, its dead prefix drained: for the
    /// sweeps, which work on a `Vec`.
    fn vec_mut(&mut self) -> &mut Vec<SlotHandle> {
        self.drain_dead();
        &mut self.buf
    }

    fn drain_dead(&mut self) {
        if self.head > 0 {
            count_shifted(self.buf.len() - self.head);
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Inserts `handle` in `(stamp, id)` order and returns its position
    /// in the run. In-order arrivals (the overwhelmingly common case)
    /// append; an out-of-order stamp binary-searches its position.
    fn insert(&mut self, stamps: &[LogicalTime], ids: &[ContextId], handle: SlotHandle) -> usize {
        let key = |h: SlotHandle| (stamps[h.slot as usize], ids[h.slot as usize]);
        let run = self.as_slice();
        match run.last() {
            Some(&last) if key(last) > key(handle) => {
                let at = run.partition_point(|&h| key(h) <= key(handle));
                count_shifted(run.len() - at);
                self.buf.insert(self.head + at, handle);
                at
            }
            _ => {
                self.buf.push(handle);
                self.buf.len() - self.head - 1
            }
        }
    }

    /// Removes `handle`, found by binary search on `(stamp, id)`. The
    /// oldest handle pops in O(1); any other costs the memmove that
    /// closes its gap.
    fn remove(&mut self, stamps: &[LogicalTime], ids: &[ContextId], handle: SlotHandle) {
        if self.buf.get(self.head) == Some(&handle) {
            self.head += 1;
            if self.head * 2 > self.buf.len() {
                self.drain_dead();
            }
            return;
        }
        let key = |h: SlotHandle| (stamps[h.slot as usize], ids[h.slot as usize]);
        let run = self.as_slice();
        let at = run.partition_point(|&h| key(h) < key(handle));
        debug_assert_eq!(run.get(at), Some(&handle), "index out of (stamp, id) order");
        if run.get(at) == Some(&handle) {
            count_shifted(run.len() - at - 1);
            self.buf.remove(self.head + at);
        }
    }
}

/// Secondary index for one context kind: every stored context of the
/// kind, plus a per-subject sub-index. Both hold generational slot
/// handles ordered by `(stamp, id)` — for in-order arrivals that is
/// plain append, out-of-order stamps pay one binary-searched insert.
#[derive(Debug, Default, Clone)]
struct KindBucket {
    all: HandleRun,
    /// Keyed by the contexts' shared subject `Arc` so lookups can borrow
    /// the caller's `&str` — a flat `(ContextKind, String)` key would
    /// force a key clone per lookup.
    by_subject: HashMap<Arc<str>, SubjectBucket>,
    /// Upper bound on [`reach_of`] over every context this bucket has
    /// indexed. It only grows (removals leave it alone), so every
    /// handle with `stamp + reach <= now` holds a context that expired
    /// by `now`: the live views binary-search past that prefix.
    reach: u64,
}

impl KindBucket {
    /// The entry of `subject`; a new subject's entry takes a spare
    /// buffer before it allocates.
    fn subject_entry(
        &mut self,
        subject: Arc<str>,
        spare: &mut Vec<Vec<SlotHandle>>,
    ) -> &mut SubjectBucket {
        self.by_subject
            .entry(subject)
            .or_insert_with(|| SubjectBucket {
                handles: HandleRun::reusing(spare.pop().unwrap_or_default()),
                seq_ordered: true,
            })
    }
}

/// One subject's share of a [`KindBucket`].
#[derive(Debug, Clone)]
struct SubjectBucket {
    /// The subject's handles, ordered by `(stamp, id)`.
    handles: HandleRun,
    /// Whether every context inserted since the entry was created
    /// carried an [exact seq](Context::exact_seq) lying strictly
    /// between its `(stamp, id)` neighbours' seqs. The handles' seqs
    /// then rise strictly in index order (removals keep that), so
    /// [`ContextPool::of_subject_seq_live_at`] finds a seq range by
    /// binary search. Once cleared it stays cleared: an entry that
    /// empties is dropped, and the subject's next context starts a
    /// fresh one.
    seq_ordered: bool,
}

/// How many emptied subject buffers a pool keeps for new subjects.
const SPARE_RUNS_MAX: usize = 64;

/// The kind → bucket table: a handful of entries found by equality. A
/// pool holds one kind on the city trace and a few in the paper's
/// apps, and the contexts of one kind usually share its `Arc<str>`, so
/// a lookup is a pointer compare or a short `memcmp` where a map would
/// hash the name.
#[derive(Debug, Default, Clone)]
struct KindTable(Vec<(ContextKind, KindBucket)>);

impl KindTable {
    fn get(&self, kind: &ContextKind) -> Option<&KindBucket> {
        self.0.iter().find(|(k, _)| k == kind).map(|(_, b)| b)
    }

    fn get_mut(&mut self, kind: &ContextKind) -> Option<&mut KindBucket> {
        self.0.iter_mut().find(|(k, _)| k == kind).map(|(_, b)| b)
    }

    /// The bucket of `kind`, created empty when the kind has none.
    fn entry(&mut self, kind: &ContextKind) -> &mut KindBucket {
        let at = match self.0.iter().position(|(k, _)| k == kind) {
            Some(at) => at,
            None => {
                self.0.push((kind.clone(), KindBucket::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    /// Drops the bucket of `kind`. Every reader of the table is
    /// order-free, so the last entry takes its place.
    fn remove(&mut self, kind: &ContextKind) {
        if let Some(at) = self.0.iter().position(|(k, _)| k == kind) {
            self.0.swap_remove(at);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&ContextKind, &KindBucket)> {
        self.0.iter().map(|(k, b)| (k, b))
    }
}

/// An opaque handle to one watched slice of a pool's available view,
/// returned by [`ContextPool::watch`] and read through
/// [`ContextPool::watch_version`]. It is meaningful only for the pool
/// that issued it (and that pool's clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchId(u32);

/// One watched slice: the contexts of `kind`, narrowed to `subject`
/// when one is given, and the count of availability flips among them.
#[derive(Debug, Clone)]
struct Watch {
    kind: ContextKind,
    subject: Option<Arc<str>>,
    version: u64,
}

/// Bumps the version of every watch whose slice holds a context of
/// `kind` about `subject`: one entered or left the available view.
/// Kept out of line so the unwatched path that guards every call stays
/// one branch.
#[inline(never)]
fn bump_watches(watches: &mut [Watch], kind: &ContextKind, subject: &str) {
    for w in watches {
        if w.kind == *kind && w.subject.as_deref().is_none_or(|s| s == subject) {
            w.version += 1;
        }
    }
}

/// Bumps the watches over `ctx`'s slices when `ctx` is available:
/// storing, releasing or discarding it then moves the available view.
fn note_available(watches: &mut [Watch], ctx: &Context) {
    if !watches.is_empty() && ctx.state().is_available() {
        bump_watches(watches, ctx.kind(), ctx.subject());
    }
}

/// Whether every handle in `handles` has an exact seq and the seqs rise
/// strictly. Run over the window an insertion touched, it keeps
/// [`SubjectBucket::seq_ordered`]: an index that rose before rises after
/// exactly when every adjacent pair holding a new handle does.
fn seqs_rise(handles: &[SlotHandle], seqs: &[i64]) -> bool {
    let mut prev = NO_SEQ;
    for h in handles {
        let seq = seqs[h.slot as usize];
        if seq == NO_SEQ || seq <= prev {
            return false;
        }
        prev = seq;
    }
    true
}

/// Indexed storage for the contexts a middleware manages.
///
/// The pool assigns [`ContextId`]s in arrival order and stores contexts
/// in a slot **arena** with parallel columns (payload, id, stamp,
/// generation), each payload a 16-byte [`Context`] handle whose body
/// other pools may share — a struct-of-arrays layout in which an id
/// lookup is one dense-table index instead of a tree walk, and the kind /
/// `(kind, subject)` secondary indexes hold generational slot handles,
/// so `of_kind` / `of_subject` iteration touches exactly the bucket, in
/// deterministic `(stamp, id)` order, with zero allocation. Discarded
/// (`Inconsistent`) contexts stay stored for post-mortem metrics but are
/// excluded from the live views that constraints quantify over. The
/// `*_live_at` views also skip the bucket's expired prefix by binary
/// search, so a pool that keeps every context still pays only for the
/// suffix that can be live.
///
/// Memory follows the stored contexts, not the ids ever issued: the id
/// table spans only the ids from the oldest stored context onward. A
/// stored context that never expires therefore pins the table's start,
/// and while it stays, the table keeps one entry per id issued since.
/// Removing the oldest context of a kind costs O(1) index work, and a
/// new subject reuses the buffer of one that emptied.
///
/// The indexes rely on a stored context's kind, subject, stamp and
/// lifespan never changing, which its immutable body guarantees; only
/// its handle's state changes. Insertion, removal,
/// [`ContextPool::set_state`] and [`ContextPool::discard`] are the only
/// ways a stored context changes, which is what lets
/// [`ContextPool::watch`] version slices of the available view.
///
/// ```
/// use ctxres_context::{Context, ContextKind, ContextPool, LogicalTime};
///
/// let mut pool = ContextPool::new();
/// let kind = ContextKind::new("location");
/// let id = pool.insert(Context::builder(kind.clone(), "peter").stamp(LogicalTime::new(1)).build());
/// assert_eq!(pool.of_kind(&kind).count(), 1);
/// assert_eq!(pool.get(id).unwrap().subject(), "peter");
/// ```
#[derive(Debug, Default, Clone)]
pub struct ContextPool {
    /// Payload column; `None` marks a free slot awaiting reuse.
    payloads: Vec<Option<Context>>,
    /// Id column, parallel to `payloads` (stale for free slots).
    slot_ids: Vec<ContextId>,
    /// Stamp column, parallel to `payloads` — index ordering reads it
    /// without touching the payload (stale for free slots).
    slot_stamps: Vec<LogicalTime>,
    /// [`Context::exact_seq`] column ([`NO_SEQ`] for none), parallel to
    /// `payloads` — the seq order of subject buckets reads it (stale for
    /// free slots).
    slot_seqs: Vec<i64>,
    /// Generation column, parallel to `payloads`; bumped on removal.
    generations: Vec<u32>,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// Dense id → slot table from `id_base` on, indexed by raw id minus
    /// `id_base` ([`NO_SLOT`] once removed). Ids are pool-assigned and
    /// never reused; the front pops as the oldest stored contexts
    /// leave, so `id_base + id_slots.len() == next_id` and the front
    /// entry, when there is one, is a stored context.
    id_slots: VecDeque<u32>,
    /// The raw id at the front of `id_slots`.
    id_base: u64,
    by_kind: KindTable,
    /// Emptied subject buffers, at most [`SPARE_RUNS_MAX`], that new
    /// subjects take before allocating.
    spare_runs: Vec<Vec<SlotHandle>>,
    next_id: u64,
    inserted: u64,
    stored: usize,
    /// Lifetime count of slot generation bumps (slot recycles): every
    /// removal invalidates a slot and returns it to the free list.
    recycles: u64,
    /// Watched slices of the available view, indexed by [`WatchId`].
    /// Kept apart from the subject buckets: a state flip reaches this
    /// list without a kind or subject lookup.
    watches: Vec<Watch>,
}

impl ContextPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ContextPool::default()
    }

    /// Inserts a context, assigning it the next arrival-ordered id: the
    /// slot arena takes it (a free slot's reuse, or growth) and its
    /// handle joins the kind and subject runs in `(stamp, id)` order.
    pub fn insert(&mut self, ctx: Context) -> ContextId {
        note_available(&mut self.watches, &ctx);
        let kind = ctx.kind().clone();
        let subject = Arc::clone(ctx.subject_arc());
        let reach = reach_of(&ctx);
        let id = ContextId::from_raw(self.next_id);
        self.next_id += 1;
        self.inserted += 1;
        self.stored += 1;
        let stamp = ctx.stamp();
        let seq = ctx.exact_seq().unwrap_or(NO_SEQ);
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.payloads[i] = Some(ctx);
                self.slot_ids[i] = id;
                self.slot_stamps[i] = stamp;
                self.slot_seqs[i] = seq;
                slot
            }
            None => {
                let slot = u32::try_from(self.payloads.len()).expect("pool slot count overflow");
                self.payloads.push(Some(ctx));
                self.slot_ids.push(id);
                self.slot_stamps.push(stamp);
                self.slot_seqs.push(seq);
                self.generations.push(0);
                slot
            }
        };
        self.id_slots.push_back(slot);
        let handle = SlotHandle {
            slot,
            generation: self.generations[slot as usize],
        };
        let bucket = self.by_kind.entry(&kind);
        bucket.reach = bucket.reach.max(reach);
        bucket.all.insert(&self.slot_stamps, &self.slot_ids, handle);
        let entry = bucket.subject_entry(subject, &mut self.spare_runs);
        let at = entry
            .handles
            .insert(&self.slot_stamps, &self.slot_ids, handle);
        if entry.seq_ordered {
            let run = entry.handles.as_slice();
            let window = at.saturating_sub(1)..(at + 2).min(run.len());
            entry.seq_ordered = seqs_rise(&run[window], &self.slot_seqs);
        }
        id
    }

    /// Inserts each context of `batch` in turn, as
    /// [`ContextPool::insert`] does. Only the benchmark's batched
    /// replay calls it; ROADMAP item 1's benchmark change deletes it.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = Context>) -> Vec<ContextId> {
        batch.into_iter().map(|c| self.insert(c)).collect()
    }

    fn slot_of(&self, id: ContextId) -> Option<usize> {
        let at = usize::try_from(id.raw().checked_sub(self.id_base)?).ok()?;
        let slot = *self.id_slots.get(at)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// Resolves a handle to its slot index if the generation still
    /// matches (i.e. the context it was issued for is still stored).
    fn resolve(&self, handle: SlotHandle) -> Option<usize> {
        let i = handle.slot as usize;
        (self.generations[i] == handle.generation).then_some(i)
    }

    /// Looks up a context by id.
    pub fn get(&self, id: ContextId) -> Option<&Context> {
        self.payloads[self.slot_of(id)?].as_ref()
    }

    /// Whether `id` refers to a stored context.
    pub fn contains(&self, id: ContextId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Number of stored contexts (any state).
    pub fn len(&self) -> usize {
        self.stored
    }

    /// Whether the pool stores no contexts.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Iterates over all stored contexts in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (ContextId, &Context)> {
        self.id_slots
            .iter()
            .filter(|&&slot| slot != NO_SLOT)
            .map(move |&slot| {
                let i = slot as usize;
                (
                    self.slot_ids[i],
                    self.payloads[i].as_ref().expect("occupied slot"),
                )
            })
    }

    /// Iterates a handle index, yielding live (not `Inconsistent`)
    /// contexts in the index's `(stamp, id)` order.
    fn iter_index<'a>(
        &'a self,
        index: Option<&'a [SlotHandle]>,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        index.into_iter().flatten().filter_map(move |&h| {
            let i = self.resolve(h)?;
            let c = self.payloads[i].as_ref()?;
            (c.state() != ContextState::Inconsistent).then_some((self.slot_ids[i], c))
        })
    }

    /// Iterates over *live* contexts of `kind` in `(stamp, id)` order.
    ///
    /// Live means: not discarded (`Inconsistent`). Constraints quantify
    /// over this view. Expired contexts are skipped by
    /// [`ContextPool::of_kind_live_at`]; this method ignores expiry.
    pub fn of_kind<'a>(
        &'a self,
        kind: &ContextKind,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter_index(self.by_kind.get(kind).map(|b| b.all.as_slice()))
    }

    /// The part of a bucket's `(stamp, id)`-ordered `index` that can
    /// hold a context live at `now`: it starts at the first handle with
    /// `stamp + reach > now`. Every handle before it expired by `now`
    /// (its deadline is at most `stamp + reach`), so the `is_live`
    /// filter would reject each one; a binary search skips them all.
    fn live_suffix<'a>(
        &self,
        index: &'a [SlotHandle],
        reach: u64,
        now: LogicalTime,
    ) -> &'a [SlotHandle] {
        if reach == UNBOUNDED_REACH {
            return index;
        }
        let start = index.partition_point(|h| {
            self.slot_stamps[h.slot as usize]
                .tick()
                .saturating_add(reach)
                <= now.tick()
        });
        &index[start..]
    }

    /// Iterates over live, unexpired contexts of `kind` at instant `now`,
    /// in `(stamp, id)` order, starting past the bucket's expired prefix.
    pub fn of_kind_live_at<'a>(
        &'a self,
        kind: &ContextKind,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        let index = self
            .by_kind
            .get(kind)
            .map(|b| self.live_suffix(b.all.as_slice(), b.reach, now));
        self.iter_index(index).filter(move |(_, c)| c.is_live(now))
    }

    /// Iterates over live contexts of `kind` about `subject`, in
    /// `(stamp, id)` order.
    pub fn of_subject<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter_index(
            self.by_kind
                .get(kind)
                .and_then(|b| b.by_subject.get(subject))
                .map(|e| e.handles.as_slice()),
        )
    }

    /// The contexts of `kind` about `subject` at instant `now`, looked
    /// up once: the subject's bucket, past its expired prefix. Every
    /// subject-scoped read of the pool goes through this view
    /// ([`ContextPool::of_subject_live_at`] and
    /// [`ContextPool::of_subject_seq_live_at`] are its two reads), so a
    /// caller that reads one subject many times at one instant — every
    /// pinned check of a submission — keeps the view instead of
    /// repeating the kind and subject lookups.
    pub fn subject_view<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
        now: LogicalTime,
    ) -> SubjectView<'a> {
        let (handles, seq_ordered) = match self.by_kind.get(kind).and_then(|b| {
            let entry = b.by_subject.get(subject)?;
            Some((b, entry))
        }) {
            Some((b, entry)) => (
                self.live_suffix(entry.handles.as_slice(), b.reach, now),
                entry.seq_ordered,
            ),
            None => (&[][..], true),
        };
        SubjectView {
            pool: self,
            handles,
            seq_ordered,
            now,
        }
    }

    /// Iterates over live, unexpired contexts of `kind` about `subject`
    /// at instant `now` — the domain a subject-scoped constraint check
    /// quantifies over instead of the whole kind.
    pub fn of_subject_live_at<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.subject_view(kind, subject, now).live()
    }

    /// [`ContextPool::of_subject_live_at`] restricted to the contexts
    /// whose [exact seq](Context::exact_seq) lies in `seqs`, found by
    /// binary search — or `None` when the pool cannot vouch for the
    /// bucket's seq order: some context inserted into it since it was
    /// last empty lacked an exact seq, or did not rise strictly above
    /// its `(stamp, id)` predecessor's seq and below its successor's.
    /// When `Some`, the iterator yields exactly the contexts
    /// `of_subject_live_at` yields with a seq in `seqs`, in the same
    /// order.
    pub fn of_subject_seq_live_at<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
        seqs: RangeInclusive<i64>,
        now: LogicalTime,
    ) -> Option<impl Iterator<Item = (ContextId, &'a Context)> + 'a> {
        self.subject_view(kind, subject, now).seq_live(seqs)
    }

    /// The [exact seq](Context::exact_seq) of stored context `id`, read
    /// from the pool's seq column.
    pub fn exact_seq(&self, id: ContextId) -> Option<i64> {
        let seq = self.slot_seqs[self.slot_of(id)?];
        (seq != NO_SEQ).then_some(seq)
    }

    /// Live (non-discarded) context count per subject, across all kinds,
    /// sorted by subject — the per-shard load histogram hot-shard
    /// rebalancing consumes. One vector sized to the pool's
    /// kind×subject entries, and one string per entry with a live
    /// context; a subject's entries of several kinds merge into one.
    pub fn subject_counts(&self) -> Vec<(String, usize)> {
        let mut counts = Vec::with_capacity(self.indexed_subjects());
        for (_, bucket) in self.by_kind.iter() {
            for (subject, entry) in &bucket.by_subject {
                let live = entry
                    .handles
                    .as_slice()
                    .iter()
                    .filter(|&&h| {
                        self.resolve(h)
                            .and_then(|i| self.payloads[i].as_ref())
                            .is_some_and(|c| c.state() != ContextState::Inconsistent)
                    })
                    .count();
                if live > 0 {
                    counts.push((subject.to_string(), live));
                }
            }
        }
        counts.sort_unstable();
        counts.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        counts
    }

    /// Iterates over the contexts currently *available* to applications
    /// (`Consistent` and unexpired), in arrival order.
    pub fn available_at<'a>(
        &'a self,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter()
            .filter(move |(_, c)| c.state().is_available() && c.is_live(now))
    }

    /// Transitions a context's state, enforcing the life cycle.
    ///
    /// # Errors
    ///
    /// [`ContextError::UnknownContext`] when `id` is absent;
    /// [`ContextError::IllegalTransition`] when the life cycle forbids it.
    pub fn set_state(&mut self, id: ContextId, next: ContextState) -> Result<(), ContextError> {
        let ctx = self
            .slot_of(id)
            .and_then(|slot| self.payloads[slot].as_mut())
            .ok_or(ContextError::UnknownContext(id))?;
        if self.watches.is_empty() {
            return ctx.set_state(next);
        }
        let was_available = ctx.state().is_available();
        ctx.set_state(next)?;
        if was_available != ctx.state().is_available() {
            bump_watches(&mut self.watches, ctx.kind(), ctx.subject());
        }
        Ok(())
    }

    /// Discards a context unconditionally, setting it `Inconsistent`
    /// regardless of its current state.
    ///
    /// The four-state life cycle of Fig. 8 belongs to the drop-bad
    /// strategy; the eager baseline strategies (drop-all in particular)
    /// discard contexts that were already delivered (`Consistent`), a
    /// transition the strict [`ContextPool::set_state`] rejects. This
    /// method is their escape hatch. Idempotent on already-discarded
    /// contexts.
    ///
    /// # Errors
    ///
    /// [`ContextError::UnknownContext`] when `id` is absent.
    pub fn discard(&mut self, id: ContextId) -> Result<(), ContextError> {
        let ctx = self
            .slot_of(id)
            .and_then(|slot| self.payloads[slot].as_mut())
            .ok_or(ContextError::UnknownContext(id))?;
        note_available(&mut self.watches, ctx);
        ctx.force_state(ContextState::Inconsistent);
        Ok(())
    }

    /// Watches one slice of the available view: the contexts of
    /// `kind`, or only those about `subject` when one is given. The
    /// slice's [version](ContextPool::watch_version) moves whenever one
    /// of its contexts enters or leaves the available view
    /// ([`ContextState::is_available`]): on the insertion of an
    /// available context, on a [`set_state`](ContextPool::set_state) or
    /// [`discard`](ContextPool::discard) that flips availability, and
    /// on the removal of an available context
    /// ([`remove`](ContextPool::remove), [`compact`](ContextPool::compact)).
    /// Expiry never moves it: a reader pairs the version with the clock.
    /// Watching a slice already watched returns its id again.
    ///
    /// Every watch costs each availability flip one comparison; a pool
    /// without watches pays one branch per change.
    pub fn watch(&mut self, kind: &ContextKind, subject: Option<&str>) -> WatchId {
        let at = self
            .watches
            .iter()
            .position(|w| w.kind == *kind && w.subject.as_deref() == subject)
            .unwrap_or_else(|| {
                self.watches.push(Watch {
                    kind: kind.clone(),
                    subject: subject.map(Arc::from),
                    version: 0,
                });
                self.watches.len() - 1
            });
        WatchId(u32::try_from(at).expect("pool watch count overflow"))
    }

    /// The version of a watched slice (see [`ContextPool::watch`]). It
    /// only grows, and it moved since an earlier read exactly when some
    /// context entered or left the slice's available view in between.
    ///
    /// # Panics
    ///
    /// Panics when `id` was issued by a pool other than this one or one
    /// it was cloned from.
    pub fn watch_version(&self, id: WatchId) -> u64 {
        self.watches[id.0 as usize].version
    }

    /// Frees a context's arena slot without touching the kind indexes;
    /// the caller unlinks the handle ([`ContextPool::remove`]) or purges
    /// each affected bucket once (bulk sweeps).
    fn release_slot(&mut self, id: ContextId) -> Option<Context> {
        let slot = self.slot_of(id)?;
        let ctx = self.payloads[slot].take()?;
        note_available(&mut self.watches, &ctx);
        self.id_slots[(id.raw() - self.id_base) as usize] = NO_SLOT;
        while self.id_slots.front() == Some(&NO_SLOT) {
            self.id_slots.pop_front();
            self.id_base += 1;
        }
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.free.push(slot as u32);
        self.stored -= 1;
        self.recycles += 1;
        Some(ctx)
    }

    /// Drops every dead handle from the kind/subject indexes of `kind`,
    /// and the bucket entries that become empty with them.
    fn purge_kind_index(&mut self, kind: &ContextKind) {
        let Some(bucket) = self.by_kind.get_mut(kind) else {
            return;
        };
        let generations = &self.generations;
        let stored = |h: &SlotHandle| generations[h.slot as usize] == h.generation;
        bucket.all.vec_mut().retain(stored);
        bucket.by_subject.retain(|_, entry| {
            let handles = entry.handles.vec_mut();
            handles.retain(stored);
            !handles.is_empty()
        });
        if bucket.all.is_empty() {
            self.by_kind.remove(kind);
        }
    }

    /// Physically removes the contexts selected by `doom`, purging each
    /// affected kind index once rather than per removal.
    ///
    /// Scans occupied slots directly rather than going through
    /// [`Self::iter`]: the id table spans every id issued since the
    /// oldest stored context, which one immortal context can pin for a
    /// whole run, so an id-ordered walk could make each sweep O(total
    /// inserts), while the slot arrays stay sized to the stored
    /// population. Removal needs no particular order.
    fn remove_where(&mut self, doom: impl Fn(&Context) -> bool) -> usize {
        let doomed: Vec<(ContextId, ContextKind)> = self
            .payloads
            .iter()
            .zip(&self.slot_ids)
            .filter_map(|(payload, &id)| payload.as_ref().map(|c| (id, c)))
            .filter(|(_, c)| doom(c))
            .map(|(id, c)| (id, c.kind().clone()))
            .collect();
        let mut kinds: Vec<ContextKind> = Vec::new();
        for (id, kind) in &doomed {
            self.release_slot(*id);
            if !kinds.contains(kind) {
                kinds.push(kind.clone());
            }
        }
        for kind in &kinds {
            self.purge_kind_index(kind);
        }
        doomed.len()
    }

    /// Bulk retention sweep: physically removes contexts stamped before
    /// `horizon` that are no longer useful — discarded (`Inconsistent`)
    /// ones and expired ones. Live and undecided recent contexts are
    /// untouched. Returns how many were removed.
    ///
    /// O(slots) per call. The middleware does not call it: it removes
    /// each context at the first horizon this predicate holds for it,
    /// from doom notes, so a sweep over a copy of its pool finds nothing
    /// left — which is how its tests use this method, as the oracle.
    pub fn compact(&mut self, horizon: LogicalTime) -> usize {
        self.remove_where(|c| {
            c.stamp() < horizon && (c.state() == ContextState::Inconsistent || !c.is_live(horizon))
        })
    }

    /// Physically removes a context and its index entries: its one
    /// handle is unlinked from the kind's run and from its subject's
    /// run, and a subject entry (or kind bucket) left empty is dropped,
    /// the subject's buffer kept for the next new subject. The oldest
    /// handle of a run pops in O(1); any other is found by binary search
    /// on `(stamp, id)` and costs one memmove to close the gap. Nothing
    /// else in the kind is touched.
    pub fn remove(&mut self, id: ContextId) -> Option<Context> {
        let slot = self.slot_of(id)?;
        let handle = SlotHandle {
            slot: slot as u32,
            generation: self.generations[slot],
        };
        let ctx = self.release_slot(id)?;
        // The released slot keeps its stamp and id columns until reuse,
        // so `handle` still sorts at its `(stamp, id)` position.
        if let Some(bucket) = self.by_kind.get_mut(ctx.kind()) {
            bucket.all.remove(&self.slot_stamps, &self.slot_ids, handle);
            if let Some(entry) = bucket.by_subject.get_mut(ctx.subject()) {
                entry
                    .handles
                    .remove(&self.slot_stamps, &self.slot_ids, handle);
                if entry.handles.is_empty() {
                    let emptied = bucket.by_subject.remove(ctx.subject());
                    if self.spare_runs.len() < SPARE_RUNS_MAX {
                        self.spare_runs.extend(emptied.map(|e| e.handles.buf));
                    }
                }
            }
            if bucket.all.is_empty() {
                self.by_kind.remove(ctx.kind());
            }
        }
        Some(ctx)
    }

    /// An id-free content fingerprint: one `(kind, subject, stamp,
    /// state)` entry per stored context, sorted. Two pools with equal
    /// signatures hold the same contexts in the same states, regardless
    /// of insertion order or id assignment — the determinism oracle the
    /// sharded-middleware tests compare against a single-threaded run.
    pub fn signature(&self) -> Vec<(ContextKind, String, LogicalTime, ContextState)> {
        let mut sig: Vec<_> = self
            .payloads
            .iter()
            .flatten()
            .map(|c| {
                (
                    c.kind().clone(),
                    c.subject().to_owned(),
                    c.stamp(),
                    c.state(),
                )
            })
            .collect();
        sig.sort_by(|a, b| (&a.0, &a.1, a.2, a.3 as u8).cmp(&(&b.0, &b.1, b.2, b.3 as u8)));
        sig
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            inserted: self.inserted,
            stored: self.stored,
            ..PoolStats::default()
        };
        for c in self.payloads.iter().flatten() {
            match c.state() {
                ContextState::Undecided => s.undecided += 1,
                ContextState::Consistent => s.consistent += 1,
                ContextState::Bad => s.bad += 1,
                ContextState::Inconsistent => s.inconsistent += 1,
            }
        }
        s
    }

    /// Occupied arena slots (== [`ContextPool::len`]): contexts
    /// currently stored, whatever their state.
    pub fn live_slots(&self) -> usize {
        self.stored
    }

    /// Arena slots on the free list, ready for reuse. `live + free`
    /// is the arena's high-water footprint.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Kind×subject index entries currently held. Every entry indexes
    /// at least one stored context, so this never exceeds
    /// [`ContextPool::len`]: subjects that come and go leave no empty
    /// entries behind.
    pub fn indexed_subjects(&self) -> usize {
        self.by_kind.iter().map(|(_, b)| b.by_subject.len()).sum()
    }

    /// Lifetime count of slot recycles (generation bumps). A recycle
    /// happens on every removal; a count that grows while `live_slots`
    /// stays flat means the arena is turning slots over rather than
    /// growing — the healthy steady state.
    pub fn slot_recycles(&self) -> u64 {
        self.recycles
    }

    /// Per-kind occupancy watermarks: for each kind with a bucket, the
    /// live context count plus the stamp and TTL of the oldest live
    /// context (the bucket is `(stamp, id)`-sorted, so the first live
    /// handle is the oldest). Feeds the staleness estimators in the
    /// observability layer.
    pub fn kind_watermarks(&self) -> Vec<KindWatermark> {
        let mut marks: Vec<KindWatermark> = self
            .by_kind
            .iter()
            .map(|(kind, bucket)| {
                let mut live = 0usize;
                let mut oldest: Option<&Context> = None;
                for &h in bucket.all.as_slice() {
                    let Some(i) = self.resolve(h) else { continue };
                    let Some(c) = self.payloads[i].as_ref() else {
                        continue;
                    };
                    if c.state() == ContextState::Inconsistent {
                        continue;
                    }
                    live += 1;
                    if oldest.is_none() {
                        oldest = Some(c);
                    }
                }
                KindWatermark {
                    kind: kind.clone(),
                    live,
                    oldest_stamp: oldest.map(|c| c.stamp()),
                    oldest_ttl: oldest.and_then(|c| {
                        let exp = c.lifespan().expires_at()?;
                        Some((exp - c.stamp()).count())
                    }),
                }
            })
            .collect();
        marks.sort_by(|a, b| a.kind.cmp(&b.kind));
        marks
    }
}

/// One subject's contexts of one kind at one instant, from
/// [`ContextPool::subject_view`]: the bucket's handles that can be live
/// at that instant and whether the pool vouches for their seq order. A
/// kind or subject the pool has never indexed gives an empty view.
#[derive(Debug, Clone, Copy)]
pub struct SubjectView<'a> {
    pool: &'a ContextPool,
    /// The bucket past its expired prefix, in `(stamp, id)` order.
    handles: &'a [SlotHandle],
    /// The bucket's [`SubjectBucket::seq_ordered`] (an empty view rises).
    seq_ordered: bool,
    now: LogicalTime,
}

impl<'a> SubjectView<'a> {
    /// Iterates over the view's live, unexpired contexts in
    /// `(stamp, id)` order — [`ContextPool::of_subject_live_at`].
    pub fn live(self) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        let now = self.now;
        self.pool
            .iter_index(Some(self.handles))
            .filter(move |(_, c)| c.is_live(now))
    }

    /// [`SubjectView::live`] restricted to the contexts whose exact seq
    /// lies in `seqs`, found by binary search, or `None` when the pool
    /// cannot vouch for the bucket's seq order —
    /// [`ContextPool::of_subject_seq_live_at`]. Seqs rise along the
    /// whole bucket, so they rise along the live part this view holds,
    /// and the expired prefix it skipped holds nothing `live` yields.
    pub fn seq_live(
        self,
        seqs: RangeInclusive<i64>,
    ) -> Option<impl Iterator<Item = (ContextId, &'a Context)> + 'a> {
        if !self.seq_ordered {
            return None;
        }
        let seq = |h: &SlotHandle| self.pool.slot_seqs[h.slot as usize];
        let lo = self.handles.partition_point(|h| seq(h) < *seqs.start());
        let run = self.handles[lo..].partition_point(|h| seq(h) <= *seqs.end());
        let window = SubjectView {
            handles: &self.handles[lo..lo + run],
            ..self
        };
        Some(window.live())
    }
}

impl Extend<Context> for ContextPool {
    fn extend<T: IntoIterator<Item = Context>>(&mut self, iter: T) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl FromIterator<Context> for ContextPool {
    fn from_iter<T: IntoIterator<Item = Context>>(iter: T) -> Self {
        let mut pool = ContextPool::new();
        pool.extend(iter);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Lifespan, Ticks};

    fn loc(subject: &str, t: u64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .stamp(LogicalTime::new(t))
            .build()
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        assert!(a < b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn kind_index_filters_by_kind() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(Context::builder(ContextKind::new("rfid"), "tag").build());
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("rfid")).count(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("nope")).count(), 0);
    }

    #[test]
    fn subject_index_filters_by_subject() {
        let mut pool = ContextPool::new();
        pool.insert(loc("peter", 1));
        pool.insert(loc("mary", 2));
        pool.insert(loc("peter", 3));
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_subject(&kind, "peter").count(), 2);
        assert_eq!(pool.of_subject(&kind, "mary").count(), 1);
    }

    #[test]
    fn discarded_contexts_leave_live_views() {
        let mut pool = ContextPool::new();
        let id = pool.insert(loc("p", 1));
        pool.set_state(id, ContextState::Inconsistent).unwrap();
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_kind(&kind).count(), 0);
        assert_eq!(pool.of_subject(&kind, "p").count(), 0);
        assert!(pool.contains(id), "kept for metrics");
    }

    #[test]
    fn available_view_requires_consistent_and_live() {
        let mut pool = ContextPool::new();
        let now = LogicalTime::new(10);
        let fresh = pool.insert(loc("p", 9));
        let stale = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(1))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(1), Ticks::new(2)))
                .build(),
        );
        pool.set_state(fresh, ContextState::Consistent).unwrap();
        pool.set_state(stale, ContextState::Consistent).unwrap();
        let avail: Vec<ContextId> = pool.available_at(now).map(|(id, _)| id).collect();
        assert_eq!(avail, vec![fresh]);
    }

    #[test]
    fn set_state_unknown_context_errors() {
        let mut pool = ContextPool::new();
        let err = pool.set_state(ContextId::from_raw(99), ContextState::Consistent);
        assert_eq!(
            err,
            Err(ContextError::UnknownContext(ContextId::from_raw(99)))
        );
    }

    #[test]
    fn remove_cleans_indexes() {
        let mut pool = ContextPool::new();
        let id = pool.insert(loc("p", 1));
        assert!(pool.remove(id).is_some());
        assert!(pool.remove(id).is_none());
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn stats_count_states() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        pool.insert(loc("p", 3));
        pool.set_state(a, ContextState::Consistent).unwrap();
        pool.set_state(b, ContextState::Bad).unwrap();
        let s = pool.stats();
        assert_eq!(s.inserted, 3);
        assert_eq!(s.stored, 3);
        assert_eq!(s.consistent, 1);
        assert_eq!(s.bad, 1);
        assert_eq!(s.undecided, 1);
        assert_eq!(s.inconsistent, 0);
    }

    #[test]
    fn from_iterator_collects() {
        let pool: ContextPool = (0..4).map(|t| loc("p", t)).collect();
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn arena_gauges_track_occupancy_and_recycles() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        assert_eq!(pool.live_slots(), 2);
        assert_eq!(pool.free_slots(), 0);
        assert_eq!(pool.slot_recycles(), 0);
        pool.remove(a).unwrap();
        assert_eq!(pool.live_slots(), 1);
        assert_eq!(pool.free_slots(), 1);
        assert_eq!(pool.slot_recycles(), 1);
        // Reuse the freed slot: occupancy recovers, the recycle count
        // keeps its history.
        let c = pool.insert(loc("p", 3));
        assert_eq!(pool.live_slots(), 2);
        assert_eq!(pool.free_slots(), 0);
        assert_eq!(pool.slot_recycles(), 1);
        pool.remove(b).unwrap();
        pool.remove(c).unwrap();
        assert_eq!(pool.slot_recycles(), 3);
    }

    #[test]
    fn kind_watermarks_report_oldest_live_context() {
        let mut pool = ContextPool::new();
        let oldest = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(2))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(2), Ticks::new(10)))
                .build(),
        );
        pool.insert(loc("p", 7));
        pool.insert(Context::builder(ContextKind::new("rfid"), "tag").build());

        let marks = pool.kind_watermarks();
        assert_eq!(marks.len(), 2);
        let loc_mark = &marks[0];
        assert_eq!(loc_mark.kind, ContextKind::new("location"));
        assert_eq!(loc_mark.live, 2);
        assert_eq!(loc_mark.oldest_stamp, Some(LogicalTime::new(2)));
        assert_eq!(loc_mark.oldest_ttl, Some(10));
        let rfid_mark = &marks[1];
        assert_eq!(rfid_mark.live, 1);
        assert_eq!(rfid_mark.oldest_ttl, None, "forever contexts have no ttl");

        // Discarding the oldest moves the watermark to the next live one.
        pool.discard(oldest).unwrap();
        let marks = pool.kind_watermarks();
        assert_eq!(marks[0].live, 1);
        assert_eq!(marks[0].oldest_stamp, Some(LogicalTime::new(7)));
        assert_eq!(marks[0].oldest_ttl, None);
    }

    #[test]
    fn compact_removes_only_old_dead_contexts() {
        let mut pool = ContextPool::new();
        let discarded_old = pool.insert(loc("p", 1));
        pool.discard(discarded_old).unwrap();
        let expired_old = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(2))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(2), Ticks::new(3)))
                .build(),
        );
        let live_old = pool.insert(loc("p", 3)); // lives forever
        let recent = pool.insert(loc("p", 90));
        let discarded_recent = pool.insert(loc("p", 95));
        pool.discard(discarded_recent).unwrap();

        let removed = pool.compact(LogicalTime::new(50));
        assert_eq!(removed, 2);
        assert!(!pool.contains(discarded_old));
        assert!(!pool.contains(expired_old));
        assert!(pool.contains(live_old), "undiscarded forever-contexts stay");
        assert!(pool.contains(recent));
        assert!(
            pool.contains(discarded_recent),
            "recent discards stay for metrics"
        );
    }

    #[test]
    fn signature_ignores_insertion_order() {
        let mut a = ContextPool::new();
        a.insert(loc("p", 1));
        a.insert(loc("q", 2));
        let mut b = ContextPool::new();
        b.insert(loc("q", 2));
        b.insert(loc("p", 1));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn of_kind_live_at_skips_expired() {
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(0))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(2)))
                .build(),
        );
        pool.insert(loc("p", 1));
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_kind_live_at(&kind, LogicalTime::new(1)).count(), 2);
        assert_eq!(pool.of_kind_live_at(&kind, LogicalTime::new(5)).count(), 1);
    }

    #[test]
    fn slot_reuse_invalidates_stale_ids_and_reorders_nothing() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        pool.remove(a);
        // The freed slot is reused, but the old id must stay dead.
        let c = pool.insert(loc("q", 3));
        assert!(pool.get(a).is_none());
        assert!(!pool.contains(a));
        assert_eq!(pool.get(c).unwrap().subject(), "q");
        let order: Vec<ContextId> = pool.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![b, c], "arrival order survives slot reuse");
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 2);
    }

    #[test]
    fn of_kind_order_is_stamp_then_id_even_for_stale_arrivals() {
        let mut pool = ContextPool::new();
        let late = pool.insert(loc("p", 10));
        let early = pool.insert(loc("p", 2)); // arrives after, stamped before
        let tie = pool.insert(loc("q", 10));
        let kind = ContextKind::new("location");
        let order: Vec<ContextId> = pool.of_kind(&kind).map(|(id, _)| id).collect();
        assert_eq!(order, vec![early, late, tie], "(stamp, id) order");
        let by_subject: Vec<ContextId> = pool.of_subject(&kind, "p").map(|(id, _)| id).collect();
        assert_eq!(by_subject, vec![early, late]);
    }

    #[test]
    fn of_subject_live_at_restricts_domain() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(loc("q", 2));
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(3))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(3), Ticks::new(2)))
                .build(),
        );
        let kind = ContextKind::new("location");
        assert_eq!(
            pool.of_subject_live_at(&kind, "p", LogicalTime::new(4))
                .count(),
            2
        );
        assert_eq!(
            pool.of_subject_live_at(&kind, "p", LogicalTime::new(9))
                .count(),
            1,
            "expired drops out"
        );
        assert_eq!(
            pool.of_subject_live_at(&kind, "q", LogicalTime::new(4))
                .count(),
            1
        );
    }

    #[test]
    fn subject_counts_track_live_contexts() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(loc("p", 2));
        let doomed = pool.insert(loc("q", 3));
        pool.insert(Context::builder(ContextKind::new("rfid"), "p").build());
        pool.insert(Context::builder(ContextKind::new("rfid"), "a").build());
        pool.discard(doomed).unwrap();
        // Sorted by subject; all kinds count, discarded contexts do not.
        assert_eq!(
            pool.subject_counts(),
            vec![("a".to_owned(), 1), ("p".to_owned(), 3)]
        );
    }

    #[test]
    fn seq_views_binary_search_rising_buckets_only() {
        let at = |subject: &str, t: u64, seq: Option<i64>| {
            let b =
                Context::builder(ContextKind::new("location"), subject).stamp(LogicalTime::new(t));
            match seq {
                Some(seq) => b.attr(crate::SEQ_ATTR, seq),
                None => b,
            }
            .build()
        };
        let kind = ContextKind::new("location");
        let now = LogicalTime::new(100);
        let seqs = |pool: &ContextPool, subject: &str, range: RangeInclusive<i64>| {
            pool.of_subject_seq_live_at(&kind, subject, range, now)
                .map(|it| it.map(|(_, c)| c.exact_seq().unwrap()).collect::<Vec<_>>())
        };
        let mut pool = ContextPool::new();
        for (t, seq) in [(1, 0), (2, 1), (4, 3), (3, 2)] {
            pool.insert(at("p", t, Some(seq)));
        }
        assert_eq!(
            seqs(&pool, "p", 1..=2),
            Some(vec![1, 2]),
            "a splice that fits"
        );
        assert_eq!(seqs(&pool, "p", 5..=9), Some(vec![]));
        assert_eq!(
            seqs(&pool, "nobody", 0..=9),
            Some(vec![]),
            "no bucket, no seqs"
        );

        let late = pool.insert(at("p", 5, Some(3)));
        assert_eq!(
            seqs(&pool, "p", 0..=9),
            None,
            "a duplicate seq clears the flag"
        );
        pool.remove(late);
        assert_eq!(
            seqs(&pool, "p", 0..=9),
            None,
            "and removal does not restore it"
        );

        let q: Vec<ContextId> = [Some(0), None]
            .map(|seq| pool.insert(at("q", 1, seq)))
            .into();
        assert_eq!(
            seqs(&pool, "q", 0..=9),
            None,
            "a missing seq clears the flag"
        );
        for id in q {
            pool.remove(id);
        }
        pool.insert(at("q", 7, Some(4)));
        assert_eq!(
            seqs(&pool, "q", 4..=4),
            Some(vec![4]),
            "an emptied bucket starts fresh"
        );
        pool.insert(at("q", 8, Some(1 << 52)));
        assert_eq!(
            seqs(&pool, "q", 0..=i64::MAX),
            None,
            "a seq of 2^52 is not exact"
        );
    }

    #[test]
    fn watch_versions_move_only_when_the_available_view_does() {
        let kind = ContextKind::new("location");
        let mut pool = ContextPool::new();
        let on_p = pool.watch(&kind, Some("p"));
        let on_kind = pool.watch(&kind, None);
        let on_q = pool.watch(&kind, Some("q"));
        let on_badges = pool.watch(&ContextKind::new("badge"), None);
        assert_eq!(
            pool.watch(&kind, Some("p")),
            on_p,
            "a slice is watched once"
        );
        let watches = [on_p, on_kind, on_q, on_badges];
        let mut seen = watches.map(|w| pool.watch_version(w));
        // Applies `change` and asserts which of the four versions moved.
        let mut step =
            |pool: &mut ContextPool, change: &dyn Fn(&mut ContextPool), moved: [bool; 4]| {
                change(pool);
                let now = watches.map(|w| pool.watch_version(w));
                for (i, (before, after)) in seen.iter().zip(&now).enumerate() {
                    assert_eq!(after > before, moved[i], "watch {i}");
                }
                seen = now;
            };
        let consistent = |mut ctx: Context| {
            ctx.set_state(ContextState::Consistent).unwrap();
            ctx
        };
        let expiring = Context::builder(kind.clone(), "p")
            .stamp(LogicalTime::new(0))
            .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(2)))
            .build();

        let undecided = pool.insert(loc("p", 1));
        step(&mut pool, &|_| {}, [false; 4]);
        step(
            &mut pool,
            &|pool| pool.set_state(undecided, ContextState::Consistent).unwrap(),
            [true, true, false, false],
        );
        step(
            &mut pool,
            &|pool| {
                assert!(pool.set_state(undecided, ContextState::Bad).is_err());
            },
            [false; 4],
        );
        let bad = pool.insert(loc("q", 2));
        step(
            &mut pool,
            &|pool| pool.set_state(bad, ContextState::Bad).unwrap(),
            [false; 4],
        );
        step(&mut pool, &|pool| pool.discard(bad).unwrap(), [false; 4]);
        step(
            &mut pool,
            &|pool| {
                pool.insert(consistent(loc("q", 3)));
            },
            [false, true, true, false],
        );
        let quiet = pool.insert(loc("q", 4));
        step(&mut pool, &|pool| pool.discard(quiet).unwrap(), [false; 4]);
        step(
            &mut pool,
            &|pool| pool.discard(undecided).unwrap(),
            [true, true, false, false],
        );
        step(
            &mut pool,
            &|pool| {
                pool.remove(undecided).unwrap();
                pool.remove(bad).unwrap();
            },
            [false; 4],
        );

        // Expiry moves nothing: the views change with the clock, the
        // versions do not.
        step(
            &mut pool,
            &|pool| {
                pool.insert(consistent(expiring.clone()));
            },
            [true, true, false, false],
        );
        step(
            &mut pool,
            &|pool| {
                assert_eq!(pool.available_at(LogicalTime::new(1)).count(), 2);
                assert_eq!(pool.available_at(LogicalTime::new(9)).count(), 1);
            },
            [false; 4],
        );
        step(
            &mut pool,
            &|pool| assert_eq!(pool.compact(LogicalTime::new(3)), 1),
            [true, true, false, false],
        );
        step(
            &mut pool,
            &|pool| assert_eq!(pool.compact(LogicalTime::new(99)), 1),
            [false; 4],
        );
        step(
            &mut pool,
            &|pool| {
                pool.insert_batch([consistent(loc("p", 5)), loc("q", 6)]);
            },
            [true, true, false, false],
        );
        let (p5, _) = pool.of_subject(&kind, "p").last().unwrap();
        step(
            &mut pool,
            &|pool| {
                pool.remove(p5).unwrap();
            },
            [true, true, false, false],
        );
        step(
            &mut pool,
            &|pool| {
                pool.insert(consistent(
                    Context::builder(ContextKind::new("badge"), "p").build(),
                ));
            },
            [false, false, false, true],
        );
    }

    #[test]
    fn fifo_removal_shifts_a_bounded_number_of_handles() {
        // Retention removes each kind's oldest context. At every pool
        // size the index moves fewer handles per removal than a small
        // constant, where closing the gap at the front of a plain
        // vector moves `live - 1`.
        let shifted = || SHIFTED.with(std::cell::Cell::get);
        let subject = |t: u64| format!("s{}", t % 37);
        for live in [16u64, 1024, 8192] {
            let mut pool = ContextPool::new();
            let mut ids: VecDeque<ContextId> = (0..live)
                .map(|t| pool.insert(loc(&subject(t), t)))
                .collect();
            let before = shifted();
            let removals = 4 * live.max(1024);
            for t in live..live + removals {
                ids.push_back(pool.insert(loc(&subject(t), t)));
                pool.remove(ids.pop_front().unwrap()).unwrap();
            }
            let per_removal = (shifted() - before) as f64 / removals as f64;
            assert!(
                per_removal < 2.0,
                "{live} live: {per_removal} handles shifted per removal"
            );
            assert_eq!(pool.len(), live as usize);
            assert_eq!(pool.iter().next().map(|(id, _)| id), ids.front().copied());
        }
    }

    #[test]
    fn bulk_sweep_purges_indexes_once() {
        let mut pool = ContextPool::new();
        for t in 0..50 {
            pool.insert(
                Context::builder(ContextKind::new("location"), "p")
                    .stamp(LogicalTime::new(t))
                    .lifespan(Lifespan::with_ttl(LogicalTime::new(t), Ticks::new(5)))
                    .build(),
            );
        }
        pool.insert(loc("p", 100));
        assert_eq!(pool.compact(LogicalTime::new(200)), 50);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 1);
        assert_eq!(
            pool.of_subject(&ContextKind::new("location"), "p").count(),
            1
        );
    }
}
