//! A scoped-thread work-stealing executor for embarrassingly parallel
//! job grids — the one executor behind sweeps, grids, server jobs and
//! the fleet's workers.
//!
//! Built on [`std::thread::scope`] only — no external dependencies. Jobs
//! are dealt round-robin into one double-ended queue per worker; each
//! worker drains its own queue from the front and, when empty, steals
//! from the back of a sibling's queue. The jobs of a sweep vary widely in
//! cost (a 1024-bit adder point costs ~100× a 32-bit one), so stealing —
//! not static chunking — is what keeps all cores busy to the end.
//!
//! Results are written back by job index and handed to the caller's
//! delivery callback as soon as the contiguous prefix is complete, so
//! both the streamed deliveries and the returned vector follow
//! submission order no matter which worker ran what: callers get
//! determinism for free and can diff parallel output byte-for-byte
//! against a serial run.

use std::collections::VecDeque;
use std::sync::Mutex;

/// The number of workers to use by default: every available core.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item on `threads` workers, hands each result to
/// `deliver` in submission order, and returns the results in that same
/// order.
///
/// `deliver(i, &result)` runs once per item, one call at a time, as
/// soon as results `0..=i` are all done — so a caller can stream a
/// document while the pool is still computing its tail. It runs on
/// whichever worker completed the prefix, while that worker holds the
/// reorder lock: a slow callback delays delivery, never correctness.
///
/// `threads == 1` runs inline on the calling thread (no spawn, same code
/// path for the closure), which gives tests a serial reference. Requests
/// beyond the job count are clamped — a worker without a possible job is
/// never spawned.
///
/// A zero thread count is a caller bug: front ends must validate user
/// input (the CLI rejects `--threads 0` with a usage error) before it
/// reaches the pool. Debug builds assert; release builds clamp to one
/// worker rather than deadlock or spawn nothing.
///
/// # Panics
///
/// Propagates panics from `f` and `deliver` (the scope joins all
/// workers first), and asserts `threads > 0` in debug builds.
///
/// # Examples
///
/// ```
/// use cqla_sweep::pool;
///
/// let items = vec![1u64, 2, 3, 4, 5];
/// let mut seen = Vec::new();
/// let squares = pool::map(&items, 4, |_, &x| x * x, |i, &sq| seen.push((i, sq)));
/// assert_eq!(squares, [1, 4, 9, 16, 25]);
/// assert_eq!(seen, [(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
/// ```
pub fn map<T, R, F, D>(items: &[T], threads: usize, f: F, deliver: D) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    D: FnMut(usize, &R) + Send,
{
    debug_assert!(
        threads > 0,
        "pool::map called with zero threads; validate --threads at the CLI layer"
    );
    let threads = threads.clamp(1, items.len().max(1));
    let reorder = Mutex::new(Reorder {
        slots: (0..items.len()).map(|_| None).collect(),
        next: 0,
        deliver,
    });
    let run = |idx: usize| {
        let value = f(idx, &items[idx]);
        reorder.lock().expect("reorder lock").land(idx, value);
    };
    if threads == 1 {
        (0..items.len()).for_each(run);
    } else {
        // Deal jobs round-robin so every worker starts with a share
        // spanning the grid (cheap and expensive points alike).
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
            .map(|w| Mutex::new((w..items.len()).step_by(threads).collect()))
            .collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let (queues, run) = (&queues, &run);
                    scope.spawn(move || {
                        while let Some(idx) = next_job(queues, w) {
                            run(idx);
                        }
                    })
                })
                .collect();
            // Join explicitly: the scope alone only waits for each
            // closure to return, while a join waits for its thread to
            // exit and hand its allocator arena back, so the next
            // pool's threads reuse arenas instead of creating more.
            for worker in workers {
                worker.join().expect("pool worker panicked");
            }
        });
    }
    reorder
        .into_inner()
        .expect("reorder lock")
        .slots
        .into_iter()
        .map(|slot| slot.expect("every job ran exactly once"))
        .collect()
}

/// Completed-but-undelivered results plus the index of the next one to
/// deliver: the only place submission order is restored.
struct Reorder<R, D> {
    slots: Vec<Option<R>>,
    next: usize,
    deliver: D,
}

impl<R, D: FnMut(usize, &R)> Reorder<R, D> {
    /// Stores job `idx`'s result, then delivers the contiguous prefix.
    fn land(&mut self, idx: usize, value: R) {
        debug_assert!(self.slots[idx].is_none(), "job {idx} ran twice");
        self.slots[idx] = Some(value);
        while let Some(Some(ready)) = self.slots.get(self.next) {
            (self.deliver)(self.next, ready);
            self.next += 1;
        }
    }
}

/// Pops the next job for worker `w`: front of its own queue, else steal
/// from the back of the first non-empty sibling queue.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = queues[w].lock().expect("queue lock").pop_front() {
        return Some(idx);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        if let Some(idx) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Burns roughly `spins` iterations of work the optimizer keeps.
    fn spin(spins: u64, seed: u64) -> u64 {
        (0..spins).fold(0u64, |acc, i| {
            acc.wrapping_add(std::hint::black_box(i) ^ seed)
        })
    }

    #[test]
    fn preserves_submission_order_at_any_thread_count() {
        // Skewed cost: early items are the expensive ones, so under
        // parallelism later items finish first and must wait in the
        // reorder buffer before they are delivered.
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut delivered = Vec::new();
            let out = map(
                &items,
                threads,
                |i, &x| {
                    assert_eq!(i as u64, x, "index must match item position");
                    spin((97 - x) * 2_000, x);
                    x * 3
                },
                |i, &r| delivered.push((i, r)),
            );
            let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, expected, "threads={threads}");
            let indices: Vec<usize> = delivered.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..97).collect::<Vec<_>>(), "threads={threads}");
            let values: Vec<u64> = delivered.iter().map(|&(_, r)| r).collect();
            assert_eq!(values, out, "deliveries equal the returned Vec");
        }
        let mut calls = 0;
        let empty = map(&[] as &[u32], 4, |_, &x| x, |_, _| calls += 1);
        assert!(empty.is_empty());
        assert_eq!(calls, 0, "an empty input delivers nothing");
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        map(
            &items,
            7,
            |_, &i| {
                counters[i].fetch_add(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn stealing_drains_skewed_workloads() {
        // One pathological job plus many cheap ones: the cheap jobs must
        // not wait behind the expensive one (they live in other queues
        // and are stolen while worker 0 grinds).
        let items: Vec<u64> = (0..32).collect();
        let out = map(
            &items,
            4,
            |_, &x| {
                let t0 = Instant::now();
                spin(if x == 0 { 2_000_000 } else { 10 }, x);
                t0.elapsed()
            },
            |_, _| {},
        );
        assert_eq!(out.len(), 32);
        // The expensive job really was the slow one.
        let slowest = out.iter().enumerate().max_by_key(|(_, d)| **d);
        assert_eq!(slowest.map(|(i, _)| i), Some(0));
        assert!(out[0] > Duration::ZERO);
    }

    #[test]
    fn clamps_thread_count_to_job_count() {
        let out = map(&[1u32, 2], 16, |_, &x| x + 1, |_, _| {});
        assert_eq!(out, [2, 3]);
    }
}
