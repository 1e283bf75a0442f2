//! Hit/miss statistics for simulation reports.

/// Hit/miss counter reporting a rate, used for cache statistics.
///
/// # Examples
///
/// ```
/// use cqla_sim::stats::RateCounter;
///
/// let mut c = RateCounter::new();
/// c.hit();
/// c.hit();
/// c.miss();
/// assert!((c.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateCounter {
    hits: u64,
    misses: u64,
}

impl RateCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Number of hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total events observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was observed).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_counter_empty_rate_is_zero() {
        assert_eq!(RateCounter::new().rate(), 0.0);
    }

    #[test]
    fn rate_counter_counts() {
        let mut c = RateCounter::new();
        c.hit();
        c.miss();
        c.miss();
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.total(), 3);
        assert!((c.rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
