//! The simulation clock.

use cqla_units::Seconds;

/// A point in simulated time, stored as integer nanoseconds.
///
/// Using an integer clock (rather than `f64` seconds) makes ordering
/// total and platform-independent, which keeps every timing in this
/// workspace deterministic. One nanosecond of resolution is 4 orders of
/// magnitude below the 10 µs ion-trap clock cycle, so rounding is
/// negligible.
///
/// # Examples
///
/// ```
/// use cqla_sim::SimTime;
/// use cqla_units::Seconds;
///
/// let t = SimTime::from_duration(Seconds::new(0.3));
/// assert!((t.to_duration().as_secs() - 0.3).abs() < 1e-9);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: Self = Self(0);

    /// Creates a time from a typed duration offset from zero, rounding to
    /// the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_duration(d: Seconds) -> Self {
        let secs = d.as_secs();
        assert!(
            secs.is_finite() && secs >= 0.0,
            "simulation time must be finite and non-negative, got {secs}"
        );
        let nanos = secs * 1e9;
        assert!(
            nanos <= u64::MAX as f64,
            "simulation time overflow: {secs} s"
        );
        Self(nanos.round() as u64)
    }

    /// Returns the time as a typed duration since time zero.
    #[must_use]
    pub fn to_duration(self) -> Seconds {
        Seconds::new(self.0 as f64 / 1e9)
    }

    /// Returns this time advanced by a typed duration.
    pub(crate) fn advance(self, d: Seconds) -> Self {
        Self(self.0 + Self::from_duration(d).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_duration(Seconds::new(1.0));
        let b = SimTime::from_duration(Seconds::new(2.0));
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn duration_round_trip() {
        let t = SimTime::from_duration(Seconds::from_millis(3.1));
        assert!((t.to_duration().as_millis() - 3.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_duration(Seconds::new(-1.0));
    }
}
