//! RAII timing spans.

use crate::metrics::MetricKind;
use crate::registry::ShardObs;
use std::time::Instant;

/// A span-style timing guard: created around a hot-path section, it
/// records the elapsed nanoseconds into the owning shard's histogram
/// for `kind` when dropped.
///
/// When the handle is disabled the guard holds no clock reading and its
/// drop is a no-op — the cost of an armed-vs-disarmed span is one
/// branch, which is what keeps `ObsConfig::disabled()` runs at tier-1
/// speed.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct ObsSpan<'a> {
    obs: &'a ShardObs,
    kind: MetricKind,
    start: Option<Instant>,
}

impl<'a> ObsSpan<'a> {
    pub(crate) fn new(obs: &'a ShardObs, kind: MetricKind) -> Self {
        let start = obs.is_enabled().then(Instant::now);
        ObsSpan { obs, kind, start }
    }

    /// Ends the span early (otherwise it ends when dropped).
    pub fn finish(self) {}
}

impl Drop for ObsSpan<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.observe(self.kind, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry};

    #[test]
    fn span_records_into_the_histogram() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let obs = registry.handle(0);
        {
            let _span = obs.span(MetricKind::CheckLatency);
            std::hint::black_box(1 + 1);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram(MetricKind::CheckLatency).count, 1);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let obs = ShardObs::disabled();
        {
            let _span = obs.span(MetricKind::ResolveLatency);
        }
        // Nothing to assert against — the guard simply must not panic
        // and must not have read the clock.
        assert!(!obs.is_enabled());
    }
}
