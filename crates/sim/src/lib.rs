//! Deterministic resource-timing kernel.
//!
//! The CQLA memory-hierarchy study (paper §5.2) prices level-1 operand
//! fetches through a bounded number of transfer channels. This crate
//! provides the pieces that pricing is built from:
//!
//! * [`SimTime`] — a totally ordered clock (integer nanoseconds, so
//!   orderings are exact and runs are reproducible),
//! * [`ChannelPool`] — a capacity-limited resource (the paper's "parallel
//!   transfers possible between memory and cache"),
//!
//! plus the [`stats`] hit/miss counter the cache simulator reports with.
//!
//! # Examples
//!
//! ```
//! use cqla_sim::{ChannelPool, SimTime};
//! use cqla_units::Seconds;
//!
//! // Five transfers over two channels take three service rounds.
//! let mut pool = ChannelPool::new(2);
//! for _ in 0..5 {
//!     pool.book(SimTime::ZERO, Seconds::new(1.0));
//! }
//! assert_eq!(pool.all_idle_at(), SimTime::from_duration(Seconds::new(3.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
pub mod stats;
mod time;

pub use channel::ChannelPool;
pub use time::SimTime;
