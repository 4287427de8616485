//! In-memory spans for the traced run, recorded from the benchmark's
//! side of each call into the engine and written out as one JSON file
//! when the run ends.

use crate::measure::nanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

const NO_SPAN: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `shard.batch_add_owned`.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The batch, context or grid-cell index the span belongs to; every
    /// span of one ingest call shares it.
    pub tag: u64,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The ingest call in flight, so callbacks running inside the engine
    /// (strategy decorator, observer) can name their parent.
    current: AtomicU32,
}

/// A shared, append-only span log.
#[derive(Debug, Clone)]
pub struct SpanLog(Arc<Inner>);

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog(Arc::new(Inner {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(NO_SPAN),
        }))
    }
}

impl SpanLog {
    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.0
            .spans
            .lock()
            .expect("the span log is never held across a panic")
    }

    fn ns(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.0.origin))
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        tag: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            tag,
        };
        let mut spans = self.spans();
        spans.push(span);
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: Option<u32>, tag: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, tag)
    }

    /// Ends an open span now.
    pub fn close(&self, id: u32) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans().get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Marks `id` as the ingest call in flight (or none).
    pub fn set_current(&self, id: Option<u32>) {
        self.0
            .current
            .store(id.unwrap_or(NO_SPAN), Ordering::Relaxed);
    }

    /// The ingest call in flight, if any.
    pub fn current(&self) -> Option<u32> {
        let id = self.0.current.load(Ordering::Relaxed);
        (id != NO_SPAN).then_some(id)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to it). Children of one parent may
    /// overlap — shard threads run side by side — so coverage is a union,
    /// not a sum.
    pub fn self_times(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                if let Some(list) = children.get_mut(p as usize) {
                    list.push((s.start_ns, s.end_ns));
                }
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let selfs = self.self_times();
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans().iter().zip(selfs) {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// Writes every span, with its self time, plus per-name totals as one
    /// JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let selfs = self.self_times();
        let by_name = self.self_ns_by_name();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"tag\",\"self_ns\"],\"spans\":["
        );
        for (i, (s, self_ns)) in self.spans().iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n[{i},\"{}\",{},{},{parent},{},{self_ns}]",
                s.name, s.start_ns, s.end_ns, s.tag
            );
        }
        out.push_str("\n],\"self_ns_by_name\":{");
        for (i, (name, ns)) in by_name.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{ns}");
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let log = SpanLog::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = log.record("root", at(0), at(100), None, 0);
        // Two overlapping children cover [10, 50) together: 40 ms.
        log.record("a", at(10), at(40), Some(root), 0);
        log.record("b", at(20), at(50), Some(root), 0);
        let selfs = log.self_times();
        assert_eq!(selfs[0], 60_000_000);
        assert_eq!(selfs[1], 30_000_000);
    }
}
