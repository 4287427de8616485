//! Concurrent front-end: one middleware shared between producer and
//! consumer threads.
//!
//! The paper's setup has a client thread producing contexts while
//! applications consume them (§4.1). [`SharedMiddleware`] wraps a
//! [`Middleware`] in an `Arc<Mutex<…>>` so context sources pump into it
//! from any number of threads while applications poll their
//! subscriptions from others. Event ordering within a source is
//! preserved; cross-source ordering follows channel arrival, as in any
//! real deployment.

use crate::middleware::Middleware;
use crossbeam::channel::Receiver;
use ctxres_context::Context;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// A thread-shareable middleware handle.
///
/// ```
/// use ctxres_middleware::{Middleware, SharedMiddleware};
/// use ctxres_core::strategies::DropBad;
///
/// let mw = Middleware::builder().strategy(Box::new(DropBad::new())).build();
/// let shared = SharedMiddleware::new(mw);
/// let for_thread = shared.clone();
/// std::thread::spawn(move || {
///     let _stats = *for_thread.lock().stats();
/// })
/// .join()
/// .unwrap();
/// ```
#[derive(Clone)]
pub struct SharedMiddleware {
    inner: Arc<Mutex<Middleware>>,
}

impl std::fmt::Debug for SharedMiddleware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMiddleware").finish_non_exhaustive()
    }
}

impl SharedMiddleware {
    /// Wraps a middleware for sharing.
    pub fn new(middleware: Middleware) -> Self {
        SharedMiddleware {
            inner: Arc::new(Mutex::new(middleware)),
        }
    }

    /// Locks the middleware for direct access (submit, poll, stats, …).
    pub fn lock(&self) -> MutexGuard<'_, Middleware> {
        self.inner.lock()
    }

    /// Consumes a context channel to exhaustion, submitting every
    /// context. Blocks the calling thread; run one pump per source
    /// thread, or funnel several producers into one channel.
    ///
    /// Returns how many contexts were pumped.
    pub fn pump(&self, source: Receiver<Context>) -> usize {
        let mut n = 0;
        for ctx in source {
            self.lock().submit(ctx);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::MiddlewareConfig;
    use crate::subscription::SubscriptionFilter;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{ContextKind, LogicalTime, Point, Ticks};
    use ctxres_core::strategies::DropBad;

    fn shared() -> SharedMiddleware {
        let mw = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint region: forall a: location . within(a, -1000.0, -1000.0, 1000.0, 1000.0)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig { window: Ticks::new(0), track_ground_truth: false, retention: None })
            .build();
        SharedMiddleware::new(mw)
    }

    fn loc(subject: &str, t: u64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .attr("pos", Point::new(t as f64 * 0.1, 0.0))
            .attr("seq", t as i64)
            .stamp(LogicalTime::new(t))
            .build()
    }

    #[test]
    fn producers_and_consumers_share_one_middleware() {
        let shared = shared();
        let feed = shared.lock().subscribe(SubscriptionFilter::all());

        let (tx_a, rx_a) = crossbeam::channel::bounded(16);
        let (tx_b, rx_b) = crossbeam::channel::bounded(16);
        let (pumped, seen) = std::thread::scope(|scope| {
            let pumps = [rx_a, rx_b].map(|rx| scope.spawn(|| shared.pump(rx)));
            for (tx, subject) in [(tx_a, "alice"), (tx_b, "bob")] {
                scope.spawn(move || {
                    for t in 0..50 {
                        tx.send(loc(subject, t)).unwrap();
                    }
                });
            }
            // A consumer polls concurrently while production runs.
            let consumer = scope.spawn(|| {
                let mut seen = 0;
                while seen < 100 {
                    seen += shared.lock().poll(feed).len();
                    std::thread::yield_now();
                }
                seen
            });
            let pumped = pumps.map(|pump| pump.join().unwrap());
            shared.lock().drain();
            (pumped, consumer.join().unwrap())
        });
        assert_eq!(pumped, [50, 50]);
        assert_eq!(seen, 100);
        assert_eq!(shared.lock().stats().delivered, 100);
    }

    #[test]
    fn pump_returns_on_channel_close() {
        let shared = shared();
        let (tx, rx) = crossbeam::channel::unbounded();
        tx.send(loc("a", 0)).unwrap();
        drop(tx);
        assert_eq!(shared.pump(rx), 1);
    }
}
