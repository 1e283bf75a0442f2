//! Capacity-limited resources (parallel transfer channels).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cqla_units::Seconds;

use crate::SimTime;

/// A pool of `k` identical channels, each able to carry one transfer at a
/// time.
///
/// This models the paper's bounded "parallel transfers possible between
/// memory and cache" (Table 5's `Par Xfer` column). A request books the
/// earliest available channel at or after the request time.
///
/// # Examples
///
/// ```
/// use cqla_sim::{ChannelPool, SimTime};
/// use cqla_units::Seconds;
///
/// let mut pool = ChannelPool::new(2);
/// let d = Seconds::new(1.0);
/// pool.book(SimTime::ZERO, d);
/// pool.book(SimTime::ZERO, d);
/// pool.book(SimTime::ZERO, d); // must wait for a channel
/// assert_eq!(pool.all_idle_at(), SimTime::from_duration(Seconds::new(2.0)));
/// ```
#[derive(Debug)]
pub struct ChannelPool {
    /// Earliest free time per channel (min-heap).
    free_at: BinaryHeap<Reverse<SimTime>>,
}

impl ChannelPool {
    /// Creates a pool with `capacity` parallel channels.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-width transfer network can
    /// never make progress and indicates a configuration bug.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "channel pool capacity must be positive");
        Self {
            free_at: std::iter::repeat_n(Reverse(SimTime::ZERO), capacity).collect(),
        }
    }

    /// Books the earliest available channel at or after `now` for
    /// `duration`.
    pub fn book(&mut self, now: SimTime, duration: Seconds) {
        let Reverse(free) = self
            .free_at
            .pop()
            .expect("pool invariant: heap holds exactly `capacity` entries");
        self.free_at.push(Reverse(free.max(now).advance(duration)));
    }

    /// The instant at which every booked transfer has completed.
    #[must_use]
    pub fn all_idle_at(&self) -> SimTime {
        self.free_at
            .iter()
            .map(|Reverse(t)| *t)
            .max()
            .expect("pool invariant: heap holds exactly `capacity` entries")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bookings_at_zero_finish_after_ceil_b_over_k_rounds() {
        let d = Seconds::new(2.0);
        // (bookings b, channels k): empty, b < k, b = k, b = k + 1, and a
        // single channel that serializes everything.
        for (b, k) in [(0u32, 3usize), (2, 3), (3, 3), (4, 3), (3, 1)] {
            let mut pool = ChannelPool::new(k);
            for _ in 0..b {
                pool.book(SimTime::ZERO, d);
            }
            let rounds = b.div_ceil(k as u32);
            assert_eq!(
                pool.all_idle_at(),
                SimTime::from_duration(d * f64::from(rounds)),
                "b={b} k={k}"
            );
        }
    }

    fn at(secs: f64) -> SimTime {
        SimTime::from_duration(Seconds::new(secs))
    }

    #[test]
    fn serializes_when_full() {
        let mut pool = ChannelPool::new(1);
        let d = Seconds::new(2.0);
        pool.book(SimTime::ZERO, d);
        pool.book(SimTime::ZERO, d);
        assert_eq!(pool.all_idle_at(), at(4.0));
        // A request made while the only channel is busy waits for it.
        pool.book(at(1.0), d);
        assert_eq!(pool.all_idle_at(), at(6.0));
    }

    #[test]
    fn parallel_channels_do_not_block_each_other() {
        let mut pool = ChannelPool::new(3);
        for secs in [1.0, 3.0, 2.0] {
            pool.book(SimTime::ZERO, Seconds::new(secs));
        }
        // The longest transfer, not the sum, sets the completion time.
        assert_eq!(pool.all_idle_at(), at(3.0));
    }

    #[test]
    fn booking_after_now_starts_at_now() {
        let mut pool = ChannelPool::new(1);
        pool.book(at(5.0), Seconds::new(1.0));
        assert_eq!(pool.all_idle_at(), at(6.0));
    }

    #[test]
    fn utilization_accounts_for_capacity() {
        // Two one-second transfers on two channels keep the pool fully busy
        // until t = 1 s: busy time / (capacity * span) is exactly one.
        let mut pool = ChannelPool::new(2);
        let d = Seconds::new(1.0);
        pool.book(SimTime::ZERO, d);
        pool.book(SimTime::ZERO, d);
        let span = pool.all_idle_at().to_duration();
        assert_eq!(span, d);
        assert!(((d * 2.0) / span / 2.0 - 1.0).abs() < 1e-12);
        // The same work on one channel takes twice as long.
        let mut single = ChannelPool::new(1);
        single.book(SimTime::ZERO, d);
        single.book(SimTime::ZERO, d);
        assert_eq!(single.all_idle_at(), at(2.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ChannelPool::new(0);
    }
}
