//! The write side of the one metric model: one table of cells per shard
//! slot.
//!
//! A cell is a [`Family`] and one counter, gauge or [`Histogram`]. Cells
//! that share their label values (the shard, and a kind, phase or
//! outcome) form a [`Group`], which carries the rule for when its cells
//! report. Every group but a kind's is laid out when the registry is
//! built; a kind's group is interned on its first
//! [`crate::ShardObs::kind_handle`] under the table's lock. Recording
//! finds a cell by index: a bump is one relaxed atomic, with no map
//! lookup, lock or allocation.
//!
//! [`report`] reads every shard's table in one loop. A group that
//! reports [`Report::Always`] yields one series per cell; a group that
//! reports [`Report::OnceWritten`] yields nothing until one of its cells
//! was written — a counter once nonzero, a gauge once set, a histogram
//! once it recorded. An unset gauge reads 0 where its group reports. A
//! cell whose family has no `shard` label is not reported per shard: it
//! folds into the largest reading any shard set (a kind's oldest live
//! age and its staleness), reported after every table.

use crate::metrics::{
    CounterKind, Histogram, MetricKind, BUCKETS, COUNTER_KINDS, METRIC_KINDS, RING_BUFFERED,
    RING_DROPPED,
};
use crate::profile::PHASES;
use crate::snapshot::{Family, MetricType, Reading, Series, Value};
use crate::tail::TAIL_OUTCOMES;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One metric cell: a family and its counter, gauge or histogram.
#[derive(Debug)]
pub(crate) struct Cell {
    family: Family,
    atom: Atom,
}

/// A counter's count or a gauge's `f64` bits, or a histogram.
#[derive(Debug)]
enum Atom {
    Scalar(AtomicU64),
    Histogram(Box<Histogram>),
}

/// The bits of a scalar cell nothing has written: a counter's 0, or for
/// a gauge a NaN that no conversion or arithmetic produces.
fn unwritten(kind: MetricType) -> u64 {
    match kind {
        MetricType::Gauge => u64::MAX,
        _ => 0,
    }
}

impl Cell {
    fn new(family: Family) -> Cell {
        let atom = match family.kind {
            MetricType::Histogram => Atom::Histogram(Box::default()),
            kind => Atom::Scalar(AtomicU64::new(unwritten(kind))),
        };
        Cell { family, atom }
    }

    /// Adds `n` to a counter, or records `n` into a histogram.
    pub(crate) fn add(&self, n: u64) {
        match &self.atom {
            Atom::Scalar(count) => {
                count.fetch_add(n, Ordering::Relaxed);
            }
            Atom::Histogram(h) => h.record(n),
        }
    }

    /// Sets a counter to a count kept elsewhere.
    pub(crate) fn store(&self, n: u64) {
        if let Atom::Scalar(count) = &self.atom {
            count.store(n, Ordering::Relaxed);
        }
    }

    /// Sets a gauge's reading; `None` unsets it.
    pub(crate) fn set(&self, reading: Option<f64>) {
        self.store(reading.map_or(unwritten(MetricType::Gauge), f64::to_bits));
    }

    /// Adds a histogram cell's bucket counts into `into` (a scalar cell
    /// adds nothing).
    pub(crate) fn merge_buckets(&self, into: &mut [u64; BUCKETS]) {
        if let Atom::Histogram(h) = &self.atom {
            h.merge_buckets(into);
        }
    }

    /// The cell's value (an unset gauge reads 0), and whether anything
    /// was written to it.
    pub(crate) fn read(&self) -> (Value, bool) {
        match &self.atom {
            Atom::Histogram(h) => {
                let h = h.snapshot();
                let written = h.count > 0;
                (Value::Histogram(h), written)
            }
            Atom::Scalar(bits) => {
                let bits = bits.load(Ordering::Relaxed);
                let written = bits != unwritten(self.family.kind);
                let value = match self.family.kind {
                    MetricType::Gauge if written => Value::Gauge(Reading(f64::from_bits(bits))),
                    MetricType::Gauge => Value::Gauge(Reading(0.0)),
                    _ => Value::Counter(bits),
                };
                (value, written)
            }
        }
    }
}

/// When a group's cells report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    /// From the moment the group exists.
    Always,
    /// Once any of the group's cells was written.
    OnceWritten,
}

/// Cells that share their label values and their [`Report`] rule.
/// Dereferences to the cells, in the order of the families it was laid
/// out with.
#[derive(Debug)]
pub(crate) struct Group {
    labels: Vec<String>,
    report: Report,
    cells: Vec<Cell>,
}

impl Group {
    fn new(labels: &[&str], report: Report, families: &[Family]) -> Group {
        Group {
            labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            report,
            cells: families.iter().copied().map(Cell::new).collect(),
        }
    }
}

impl Deref for Group {
    type Target = [Cell];

    fn deref(&self) -> &[Cell] {
        &self.cells
    }
}

/// One shard slot's metric cells, laid out group by group.
#[derive(Debug)]
pub(crate) struct Table {
    /// The core counters, in [`COUNTER_KINDS`] order. Always reports.
    pub(crate) counters: Group,
    /// The event ring's dropped count and buffered records. Always
    /// reports.
    pub(crate) ring: Group,
    /// The core histograms, in [`METRIC_KINDS`] order. Always reports.
    pub(crate) histograms: Group,
    /// [`crate::health::POOL_CELLS`], once published.
    pub(crate) pool: Group,
    /// One end-to-end histogram per outcome, in [`TAIL_OUTCOMES`] order,
    /// once it recorded.
    pub(crate) outcomes: [Group; TAIL_OUTCOMES.len()],
    /// [`crate::tail::CAPTURE_CELLS`], once something was captured.
    pub(crate) capture: Group,
    /// [`crate::tail::QUEUE_CELLS`], once something queued.
    pub(crate) queue: Group,
    /// [`crate::profile::PHASE_CELLS`] per phase, in [`PHASES`] order,
    /// once the phase completed a span.
    pub(crate) phases: [Group; PHASES.len()],
    /// [`crate::profile::ROOT_CELLS`], once the shard opened a root span.
    pub(crate) roots: Group,
    /// [`crate::health::KIND_CELLS`] per interned kind. Always reports.
    kinds: Mutex<Vec<Arc<Group>>>,
}

impl Table {
    /// The table of shard slot `shard`.
    pub(crate) fn new(shard: usize) -> Table {
        use Report::{Always, OnceWritten};
        let label = shard.to_string();
        let shard = [label.as_str()];
        Table {
            counters: Group::new(&shard, Always, &COUNTER_KINDS.map(CounterKind::family)),
            ring: Group::new(&shard, Always, &[RING_DROPPED, RING_BUFFERED]),
            histograms: Group::new(&shard, Always, &METRIC_KINDS.map(MetricKind::family)),
            pool: Group::new(&shard, OnceWritten, &crate::health::POOL_CELLS),
            outcomes: TAIL_OUTCOMES
                .map(|o| Group::new(&[&label, o.name()], OnceWritten, &[crate::tail::E2E])),
            capture: Group::new(&shard, OnceWritten, &crate::tail::CAPTURE_CELLS),
            queue: Group::new(&shard, OnceWritten, &crate::tail::QUEUE_CELLS),
            phases: PHASES.map(|p| {
                Group::new(
                    &[&label, p.name()],
                    OnceWritten,
                    &crate::profile::PHASE_CELLS,
                )
            }),
            roots: Group::new(&shard, OnceWritten, &crate::profile::ROOT_CELLS),
            kinds: Mutex::default(),
        }
    }

    /// The cells of `kind`, interned on first use. The lock is touched
    /// once per new kind per shard; recording goes through the returned
    /// group.
    pub(crate) fn kind(&self, kind: &str) -> Arc<Group> {
        let mut kinds = self.kinds.lock();
        if let Some(group) = kinds.iter().find(|g| g.labels[1] == kind) {
            return Arc::clone(group);
        }
        // Every group's first label value is the shard's.
        let group = Arc::new(Group::new(
            &[&self.counters.labels[0], kind],
            Report::Always,
            &crate::health::KIND_CELLS,
        ));
        kinds.push(Arc::clone(&group));
        group
    }
}

/// Reports every table's cells in one loop, shard by shard (a shard's
/// kinds sorted by name), each group by its [`Report`] rule; then each
/// folded cell's worst reading across shards.
pub(crate) fn report<'a>(tables: impl Iterator<Item = &'a Table>, out: &mut Vec<Series>) {
    let mut worst: BTreeMap<(&str, Vec<String>), (Family, f64)> = BTreeMap::new();
    for table in tables {
        let mut kinds = table.kinds.lock().clone();
        kinds.sort_by(|a, b| a.labels.cmp(&b.labels));
        let fixed = [&table.counters, &table.ring, &table.histograms, &table.pool]
            .into_iter()
            .chain(&table.outcomes)
            .chain([&table.capture, &table.queue])
            .chain(&table.phases)
            .chain([&table.roots]);
        for group in fixed.chain(kinds.iter().map(|k| &**k)) {
            let read: Vec<(Value, bool)> = group.iter().map(Cell::read).collect();
            if group.report == Report::OnceWritten && !read.iter().any(|(_, written)| *written) {
                continue;
            }
            let labels: Vec<&str> = group.labels.iter().map(String::as_str).collect();
            for (cell, (value, written)) in group.iter().zip(read) {
                let family = cell.family;
                if family.labels.first() == Some(&"shard") {
                    out.push(family.series(&labels, value));
                } else if let (true, Some(x)) = (written, value.gauge()) {
                    let key = (family.name, group.labels[1..].to_vec());
                    let entry = worst.entry(key).or_insert((family, x));
                    entry.1 = entry.1.max(x);
                }
            }
        }
    }
    for ((_, labels), (family, x)) in worst {
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        out.push(family.series(&labels, Value::Gauge(Reading(x))));
    }
}
