//! Bounded per-shard event ring buffer.

use crate::event::TraceRecord;
use std::collections::VecDeque;

/// Capacity of each shard's event ring: 2^16 records, large enough for
/// every event of the experiment workloads. Only tracing configurations
/// push to the ring, and an unpushed ring allocates nothing.
pub const RING_CAPACITY: usize = 1 << 16;

/// A bounded ring of trace records.
///
/// When full, pushing evicts the **oldest** record (classic ring
/// semantics: the tail of a long run is what a debugger usually wants)
/// and bumps the dropped counter — truncation is never silent. Pushing
/// never blocks on anything but the per-shard lock the owner wraps the
/// ring in. The first push reserves the whole capacity, so no later
/// push allocates: a traced engine's trace memory is bounded from its
/// first record, and the pages it never writes stay untouched.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.capacity);
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(record);
    }

    /// Removes and returns every buffered record, oldest first. The
    /// dropped counter is *not* reset — it reports lifetime truncation.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }

    /// Records evicted because the ring was full, over the ring's
    /// lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use ctxres_context::ContextId;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            shard: 0,
            seq,
            at: seq,
            event: TraceEvent::Delivered {
                ctx: ContextId::from_raw(seq),
            },
        }
    }

    #[test]
    fn push_within_capacity_drops_nothing() {
        let mut ring = EventRing::new(4);
        for i in 0..4 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted first"
        );
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain keeps the lifetime counter");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(rec(0));
        ring.push(rec(1));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }
}
