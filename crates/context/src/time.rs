//! Logical time for deterministic simulation.
//!
//! All `ctxres` components run on a logical clock: experiments are
//! reproducible bit-for-bit from their seed because nothing reads the wall
//! clock. A [`LogicalTime`] is a monotonically increasing tick counter and
//! a [`Lifespan`] bounds how long a context stays usable (the paper's
//! "available period").

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation's logical clock.
///
/// Ordered, cheap to copy, and never tied to the wall clock.
///
/// ```
/// use ctxres_context::LogicalTime;
/// let t = LogicalTime::new(3);
/// assert!(t < t + 2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LogicalTime(u64);

impl LogicalTime {
    /// The origin of logical time.
    pub const ZERO: LogicalTime = LogicalTime(0);

    /// Creates a logical time at tick `tick`.
    pub const fn new(tick: u64) -> Self {
        LogicalTime(tick)
    }

    /// Returns the raw tick counter.
    pub const fn tick(self) -> u64 {
        self.0
    }

    /// Returns the number of ticks elapsed since `earlier`, saturating at
    /// zero when `earlier` is in the future.
    pub fn since(self, earlier: LogicalTime) -> Ticks {
        Ticks(self.0.saturating_sub(earlier.0))
    }

    /// Advances the clock by one tick.
    pub fn advance(&mut self) {
        self.0 += 1;
    }
}

impl fmt::Display for LogicalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for LogicalTime {
    fn from(tick: u64) -> Self {
        LogicalTime(tick)
    }
}

impl Add<u64> for LogicalTime {
    type Output = LogicalTime;

    fn add(self, rhs: u64) -> LogicalTime {
        LogicalTime(self.0 + rhs)
    }
}

impl Add<Ticks> for LogicalTime {
    type Output = LogicalTime;

    fn add(self, rhs: Ticks) -> LogicalTime {
        LogicalTime(self.0 + rhs.0)
    }
}

impl AddAssign<u64> for LogicalTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<LogicalTime> for LogicalTime {
    type Output = Ticks;

    fn sub(self, rhs: LogicalTime) -> Ticks {
        self.since(rhs)
    }
}

/// A span of logical time, measured in ticks.
///
/// ```
/// use ctxres_context::{LogicalTime, Ticks};
/// assert_eq!(LogicalTime::new(7) - LogicalTime::new(4), Ticks::new(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ticks(u64);

impl Ticks {
    /// A zero-length span.
    pub const ZERO: Ticks = Ticks(0);

    /// Creates a span of `n` ticks.
    pub const fn new(n: u64) -> Self {
        Ticks(n)
    }

    /// Returns the raw tick count.
    pub const fn count(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

impl From<u64> for Ticks {
    fn from(n: u64) -> Self {
        Ticks(n)
    }
}

impl Add for Ticks {
    type Output = Ticks;

    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

/// The available period of a context (paper §3.2: a context "is still
/// available until it expires according to its own available period").
///
/// A lifespan pairs the creation instant with an optional time-to-live.
/// A `ttl` of `None` means the context never expires on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Lifespan {
    created: LogicalTime,
    ttl: Option<Ticks>,
}

impl Lifespan {
    /// A lifespan starting at `created` that never expires.
    pub const fn forever(created: LogicalTime) -> Self {
        Lifespan { created, ttl: None }
    }

    /// A lifespan starting at `created` that expires after `ttl` ticks.
    pub const fn with_ttl(created: LogicalTime, ttl: Ticks) -> Self {
        Lifespan {
            created,
            ttl: Some(ttl),
        }
    }

    /// The instant this lifespan began.
    pub const fn created(self) -> LogicalTime {
        self.created
    }

    /// The configured time-to-live, if any.
    pub const fn ttl(self) -> Option<Ticks> {
        self.ttl
    }

    /// The instant at which the context expires, if it ever does.
    ///
    /// Saturates at the end of the clock: a TTL too long to add to
    /// `created` yields `u64::MAX` ticks rather than wrapping round to
    /// an early deadline (or panicking in debug builds).
    pub fn expires_at(self) -> Option<LogicalTime> {
        self.ttl
            .map(|t| LogicalTime(self.created.0.saturating_add(t.0)))
    }

    /// Whether the context is still live at instant `now`.
    ///
    /// Expiry is exclusive: a context with ttl 5 created at t0 is live at
    /// t4 and expired at t5.
    pub fn is_live(self, now: LogicalTime) -> bool {
        match self.expires_at() {
            Some(deadline) => now < deadline,
            None => true,
        }
    }
}

impl Default for Lifespan {
    fn default() -> Self {
        Lifespan::forever(LogicalTime::ZERO)
    }
}

impl fmt::Display for Lifespan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ttl {
            Some(t) => write!(f, "[{} +{}]", self.created, t),
            None => write!(f, "[{} +∞]", self.created),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_time_orders_and_adds() {
        let a = LogicalTime::new(5);
        let b = a + 3;
        assert!(b > a);
        assert_eq!(b.tick(), 8);
        assert_eq!(b - a, Ticks::new(3));
    }

    #[test]
    fn since_saturates() {
        let early = LogicalTime::new(2);
        let late = LogicalTime::new(9);
        assert_eq!(late.since(early), Ticks::new(7));
        assert_eq!(early.since(late), Ticks::ZERO);
    }

    #[test]
    fn advance_increments() {
        let mut t = LogicalTime::ZERO;
        t.advance();
        t.advance();
        assert_eq!(t, LogicalTime::new(2));
    }

    #[test]
    fn add_assign_works() {
        let mut t = LogicalTime::new(1);
        t += 4;
        assert_eq!(t.tick(), 5);
    }

    #[test]
    fn forever_lifespan_never_expires() {
        let l = Lifespan::forever(LogicalTime::new(1));
        assert!(l.is_live(LogicalTime::new(u64::MAX)));
        assert_eq!(l.expires_at(), None);
    }

    #[test]
    fn ttl_lifespan_expiry_is_exclusive() {
        let l = Lifespan::with_ttl(LogicalTime::new(10), Ticks::new(5));
        assert!(l.is_live(LogicalTime::new(14)));
        assert!(!l.is_live(LogicalTime::new(15)));
        assert_eq!(l.expires_at(), Some(LogicalTime::new(15)));
    }

    #[test]
    fn huge_ttl_saturates_instead_of_wrapping() {
        let l = Lifespan::with_ttl(LogicalTime::new(5), Ticks::new(u64::MAX - 1));
        assert_eq!(l.expires_at(), Some(LogicalTime::new(u64::MAX)));
        assert!(l.is_live(LogicalTime::new(5)));
        assert!(l.is_live(LogicalTime::new(u64::MAX - 1)));
        let max = Lifespan::with_ttl(LogicalTime::new(u64::MAX), Ticks::new(u64::MAX));
        assert_eq!(max.expires_at(), Some(LogicalTime::new(u64::MAX)));
    }

    #[test]
    fn ticks_add() {
        assert_eq!(Ticks::new(2) + Ticks::new(3), Ticks::new(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(LogicalTime::new(4).to_string(), "t4");
        assert_eq!(Ticks::new(2).to_string(), "2 ticks");
        assert_eq!(
            Lifespan::with_ttl(LogicalTime::new(1), Ticks::new(2)).to_string(),
            "[t1 +2 ticks]"
        );
    }
}
