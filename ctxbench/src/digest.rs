//! Verdict digests: an order-independent fingerprint of every context's
//! outcome, so a sharded run can be compared with a sequential one.
//!
//! A [`VerdictTap`] is a plain [`MiddlewareObserver`] registered through
//! `MiddlewareBuilder::observer`. Contexts are identified by
//! `(subject, stamp)` rather than by id, because ids are per pool and a
//! sharded engine (and its rebalancing) renumbers them.

use crate::alloc;
use ctxres_context::{Context, ContextId};
use ctxres_middleware::{MiddlewareObserver, SubmitReport, UseRecord};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// SplitMix64's finalizer: a cheap 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The identity of a context that survives re-numbering.
pub fn identity(ctx: &Context) -> u64 {
    let h = fnv(FNV_SEED, ctx.subject().as_bytes());
    mix(fnv(h, &ctx.stamp().tick().to_le_bytes()))
}

/// The outcome fingerprint of one run. Every field is a sum, so the
/// digests of disjoint shards add up to the digest of the whole run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Contexts submitted.
    pub contexts: u64,
    /// Fresh inconsistencies reported by submissions.
    pub detections: u64,
    /// Contexts the strategy discarded, as reported by submissions.
    pub discards: u64,
    /// Uses that delivered the context.
    pub delivered: u64,
    /// Uses that withheld it.
    pub withheld: u64,
    /// Contexts never used (discarded on arrival or still buffered).
    pub unused: u64,
    /// Wrapping sum of per-context outcome hashes.
    pub hash: u64,
}

impl Digest {
    /// Adds another digest into this one.
    pub fn absorb(&mut self, other: &Digest) {
        self.contexts += other.contexts;
        self.detections += other.detections;
        self.discards += other.discards;
        self.delivered += other.delivered;
        self.withheld += other.withheld;
        self.unused += other.unused;
        self.hash = self.hash.wrapping_add(other.hash);
    }

    /// A single-line hexadecimal rendering.
    pub fn render(&self) -> String {
        format!(
            "ctx={} det={} disc={} del={} wh={} unused={} hash={:016x}",
            self.contexts,
            self.detections,
            self.discards,
            self.delivered,
            self.withheld,
            self.unused,
            self.hash
        )
    }
}

#[derive(Debug, Default)]
struct TapState {
    digest: Digest,
    /// Identity of every submitted, not-yet-used context.
    pending: HashMap<ContextId, u64>,
    /// Uses that arrived before their context's submission report (a
    /// zero window uses a context inside its own `submit`).
    early_uses: Vec<(ContextId, bool)>,
    /// Traced runs only: when each submission report arrived.
    stamps: Option<Vec<Instant>>,
}

impl TapState {
    fn fold_use(&mut self, ident: u64, delivered: bool) {
        if delivered {
            self.digest.delivered += 1;
        } else {
            self.digest.withheld += 1;
        }
        let tag = if delivered { 0x5a5a } else { 0xa5a5 };
        self.digest.hash = self.digest.hash.wrapping_add(mix(ident ^ tag));
    }
}

/// A cloneable observer handle folding one engine's verdicts into a
/// [`Digest`]. Clone it before handing one copy to the builder.
#[derive(Debug, Clone, Default)]
pub struct VerdictTap(Arc<Mutex<TapState>>);

impl VerdictTap {
    /// A tap that also stamps the arrival time of every submission
    /// report (for the traced run's verdict latencies).
    pub fn stamped() -> Self {
        let tap = VerdictTap::default();
        tap.state().stamps = Some(Vec::new());
        tap
    }

    fn state(&self) -> MutexGuard<'_, TapState> {
        self.0
            .lock()
            .expect("a verdict tap is never held across a panic")
    }

    /// The digest so far; contexts still awaiting use count as unused.
    pub fn digest(&self) -> Digest {
        let state = self.state();
        let mut d = state.digest;
        d.unused += state.pending.len() as u64;
        // A use whose submission never reported is a broken event
        // stream; it surfaces as a digest mismatch.
        d.withheld += state.early_uses.len() as u64 * 1_000_000;
        d
    }

    /// Takes the submission stamps recorded since the last call.
    pub fn take_stamps(&self) -> Vec<Instant> {
        self.state()
            .stamps
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

// Both callbacks run inside the engine's call, so their own allocations
// are kept out of the traced run's allocation counts.
impl MiddlewareObserver for VerdictTap {
    fn on_submitted(&mut self, report: &SubmitReport, ctx: &Context) {
        let now = Instant::now();
        alloc::uncounted(|| {
            let mut state = self.state();
            if let Some(stamps) = state.stamps.as_mut() {
                stamps.push(now);
            }
            let ident = identity(ctx);
            let fresh = report.fresh as u64;
            let discarded = report.discarded.len() as u64;
            state.digest.contexts += 1;
            state.digest.detections += fresh;
            state.digest.discards += discarded;
            let item = mix(ident ^ mix(fresh.wrapping_add(1) ^ (discarded << 32)));
            state.digest.hash = state.digest.hash.wrapping_add(item);
            match state.early_uses.iter().position(|(id, _)| *id == report.id) {
                Some(i) => {
                    let (_, delivered) = state.early_uses.swap_remove(i);
                    state.fold_use(ident, delivered);
                }
                None => {
                    state.pending.insert(report.id, ident);
                }
            }
        });
    }

    fn on_used(&mut self, record: &UseRecord) {
        alloc::uncounted(|| {
            let mut state = self.state();
            match state.pending.remove(&record.id) {
                Some(ident) => state.fold_use(ident, record.delivered),
                None => state.early_uses.push((record.id, record.delivered)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_add_up_independently_of_order() {
        let a = Digest {
            contexts: 2,
            detections: 1,
            hash: 7,
            ..Digest::default()
        };
        let b = Digest {
            contexts: 3,
            discards: 4,
            hash: u64::MAX,
            ..Digest::default()
        };
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.contexts, 5);
        assert_eq!(ab.hash, 6);
    }
}
