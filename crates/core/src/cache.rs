//! The quantum cache simulator (paper §5.2, Fig 7).
//!
//! "To study the behavior of the CQLA with a cache and multiple encoding
//! levels, we developed a simulator that models a cache" — this is that
//! simulator. Instructions come from an assembly-level stream; operands
//! live either in the level-1 cache or in level-2 memory; replacement is
//! least-recently-used. Two instruction-fetch policies are modeled:
//!
//! * [`FetchPolicy::InOrder`] — issue in program order (the paper's
//!   non-optimized baseline, ~20% hit rate),
//! * [`FetchPolicy::OptimizedLookahead`] — the paper's optimization: the
//!   whole program is the fetch window; a dependency list is built and the
//!   next instruction is chosen to maximize the probability that all its
//!   operands are already cached (~85% hit rate).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use cqla_circuit::{Circuit, DependencyDag, QubitId};
use cqla_sim::stats::RateCounter;

/// Instruction-fetch policy of the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FetchPolicy {
    /// Program order.
    InOrder,
    /// Dependency-aware selection maximizing cached operands (static
    /// scheduling over the full program window).
    OptimizedLookahead,
}

impl core::fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InOrder => write!(f, "in-order"),
            Self::OptimizedLookahead => write!(f, "optimized"),
        }
    }
}

/// Where a qubit currently lives, from the cache's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// Never touched yet — created in the cache on first use (no
    /// transfer).
    Unborn,
    /// In level-2 memory — touching it costs a code transfer.
    Memory,
    /// In the level-1 cache.
    Cached,
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRun {
    /// Execution order (indices into the instruction stream, one entry per
    /// executed instruction per repetition).
    order: Vec<usize>,
    /// Operand accesses that found their qubit cached.
    hits: u64,
    /// Accesses that had to pull the qubit from level-2 memory.
    fetch_misses: u64,
    /// First-touch allocations (scratch created directly in cache).
    allocations: u64,
}

impl CacheRun {
    /// Execution order chosen by the fetch policy (instruction indices;
    /// repeats when the stream was run multiple times).
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Operand accesses that hit the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Operand accesses served from level-2 memory (each one is a code
    /// transfer the hierarchy must pay for).
    #[must_use]
    pub fn fetch_misses(&self) -> u64 {
        self.fetch_misses
    }

    /// First-touch allocations (no transfer).
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total operand accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.fetch_misses + self.allocations
    }

    /// Cache hit rate over all operand accesses (the Fig 7 metric).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// The cache simulator.
///
/// # Examples
///
/// ```
/// use cqla_core::{CacheSim, FetchPolicy};
/// use cqla_workloads::DraperAdder;
///
/// let adder = DraperAdder::new(64);
/// let circuit = adder.circuit();
/// let sim = CacheSim::new(128);
/// let inorder = sim.run(&circuit, FetchPolicy::InOrder, &[], 1);
/// let optimized = sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1);
/// // The paper's central cache result: fetch policy, not size, drives the
/// // hit rate.
/// assert!(optimized.hit_rate() > inorder.hit_rate() + 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    capacity: usize,
}

impl CacheSim {
    /// Creates a simulator with a cache holding `capacity` logical qubits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { capacity }
    }

    /// Cache capacity in logical qubits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runs `repetitions` back-to-back executions of `circuit` (cache state
    /// persisting across repetitions, as in repeated additions of a modular
    /// exponentiation).
    ///
    /// `memory_resident` lists the qubits that start in level-2 memory
    /// (application inputs); all other qubits are scratch born in the
    /// cache on first touch. Evicted qubits of either kind return to
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    #[must_use]
    pub fn run(
        &self,
        circuit: &Circuit,
        policy: FetchPolicy,
        memory_resident: &[QubitId],
        repetitions: u32,
    ) -> CacheRun {
        assert!(repetitions > 0, "at least one repetition required");
        let mut state = CacheState::new(self.capacity, circuit.num_qubits(), memory_resident);
        let mut order = Vec::with_capacity(circuit.len() * repetitions as usize);
        let mut counter = RateCounter::new();
        let mut fetch_misses = 0u64;
        let mut allocations = 0u64;

        for _ in 0..repetitions {
            let sequence = match policy {
                FetchPolicy::InOrder => (0..circuit.len()).collect::<Vec<_>>(),
                FetchPolicy::OptimizedLookahead => optimized_order(circuit, &state),
            };
            for &i in &sequence {
                for q in circuit.gates()[i].qubits() {
                    match state.access(q) {
                        AccessKind::Hit => counter.hit(),
                        AccessKind::FetchMiss => {
                            counter.miss();
                            fetch_misses += 1;
                        }
                        AccessKind::Allocation => {
                            counter.miss();
                            allocations += 1;
                        }
                    }
                }
                order.push(i);
            }
        }
        CacheRun {
            order,
            hits: counter.hits(),
            fetch_misses,
            allocations,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Hit,
    FetchMiss,
    Allocation,
}

/// LRU cache state over qubit residences.
#[derive(Debug, Clone)]
struct CacheState {
    capacity: usize,
    residence: Vec<Residence>,
    /// LRU stamps for cached qubits.
    stamp: HashMap<QubitId, u64>,
    /// Lazy min-heap over `(stamp, qubit)` pairs: every stamp update
    /// pushes, eviction pops until the top matches the qubit's current
    /// stamp. Stamps are unique (the clock ticks per access), so the
    /// first live entry *is* the least recently used qubit — the same
    /// victim the full `min_by_key` scan used to find.
    lru: BinaryHeap<Reverse<(u64, u32)>>,
    clock: u64,
}

impl CacheState {
    fn new(capacity: usize, num_qubits: u32, memory_resident: &[QubitId]) -> Self {
        let mut residence = vec![Residence::Unborn; num_qubits as usize];
        for q in memory_resident {
            residence[q.index() as usize] = Residence::Memory;
        }
        Self {
            capacity,
            residence,
            stamp: HashMap::new(),
            lru: BinaryHeap::new(),
            clock: 0,
        }
    }

    fn is_cached(&self, q: QubitId) -> bool {
        self.residence[q.index() as usize] == Residence::Cached
    }

    fn access(&mut self, q: QubitId) -> AccessKind {
        self.access_with_eviction(q).0
    }

    /// As [`CacheState::access`], additionally reporting the qubit the
    /// access evicted, if any (the optimized-fetch selector rescores
    /// ready instructions touching it).
    fn access_with_eviction(&mut self, q: QubitId) -> (AccessKind, Option<QubitId>) {
        self.clock += 1;
        let idx = q.index() as usize;
        let kind = match self.residence[idx] {
            Residence::Cached => AccessKind::Hit,
            Residence::Memory => AccessKind::FetchMiss,
            Residence::Unborn => AccessKind::Allocation,
        };
        let evicted = if kind == AccessKind::Hit {
            self.touch(q);
            None
        } else {
            self.insert(q)
        };
        (kind, evicted)
    }

    fn touch(&mut self, q: QubitId) {
        self.stamp.insert(q, self.clock);
        self.lru.push(Reverse((self.clock, q.index())));
    }

    fn insert(&mut self, q: QubitId) -> Option<QubitId> {
        let mut evicted = None;
        if self.stamp.len() >= self.capacity {
            // Evict the least recently used qubit back to memory: pop
            // stale heap entries until one matches a current stamp.
            let victim = loop {
                let Reverse((t, idx)) = self.lru.pop().expect("cache non-empty when at capacity");
                let candidate = QubitId::new(idx);
                if self.stamp.get(&candidate) == Some(&t) {
                    break candidate;
                }
            };
            self.stamp.remove(&victim);
            self.residence[victim.index() as usize] = Residence::Memory;
            evicted = Some(victim);
        }
        self.residence[q.index() as usize] = Residence::Cached;
        self.touch(q);
        evicted
    }
}

/// The paper's optimized fetch: repeatedly pick the dependency-ready
/// instruction with the most operands currently cached (ties to the
/// earliest instruction). The cache state is *simulated forward* during
/// selection so later picks see the effects of earlier ones.
///
/// The selection key is `(fully cached, cached operands, earliest)`.
/// Rather than rescoring every ready instruction per pick (quadratic in
/// the window), the ready set lives in one ordered bucket per
/// `(full, cached)` score, and only instructions whose operands changed
/// residence — the picked gate's operands and the eviction victims —
/// are rescored. Scores are unique per instruction (the program-order
/// tie-break), so the bucket walk picks exactly the instruction the
/// full scan would.
fn optimized_order(circuit: &Circuit, initial: &CacheState) -> Vec<usize> {
    let dag = DependencyDag::new(circuit);
    let n = dag.num_gates();
    let gate_qubits: Vec<Vec<QubitId>> = (0..n).map(|i| circuit.gates()[i].qubits()).collect();
    let mut indegree: Vec<usize> = (0..n).map(|i| dag.predecessors(i).len()).collect();
    let mut state = initial.clone();
    let mut order = Vec::with_capacity(n);

    // Buckets indexed by `full * 4 + cached` (arity <= 3), each ordered
    // by instruction index; NOT_READY marks gates outside the window.
    const NOT_READY: u8 = u8::MAX;
    let mut buckets: [std::collections::BTreeSet<usize>; 8] = Default::default();
    let mut bucket_of: Vec<u8> = vec![NOT_READY; n];
    // Ready instructions touching each qubit, for targeted rescoring.
    let mut ready_on: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_qubits() as usize];

    let score = |i: usize, state: &CacheState, gate_qubits: &[Vec<QubitId>]| -> u8 {
        let qubits = &gate_qubits[i];
        let cached = qubits.iter().filter(|&&q| state.is_cached(q)).count() as u8;
        let full = u8::from(usize::from(cached) == qubits.len());
        full * 4 + cached
    };

    for i in 0..n {
        if indegree[i] == 0 {
            let b = score(i, &state, &gate_qubits);
            bucket_of[i] = b;
            buckets[b as usize].insert(i);
            for &q in &gate_qubits[i] {
                ready_on[q.index() as usize].push(i);
            }
        }
    }

    let mut flipped: Vec<QubitId> = Vec::new();
    for _ in 0..n {
        // Highest-scoring bucket, earliest instruction within it.
        let chosen = (0..8usize)
            .rev()
            .find_map(|b| buckets[b].first().copied())
            .expect("a dependency-ready instruction exists");
        buckets[bucket_of[chosen] as usize].remove(&chosen);
        bucket_of[chosen] = NOT_READY;
        for &q in &gate_qubits[chosen] {
            ready_on[q.index() as usize].retain(|&g| g != chosen);
        }

        flipped.clear();
        for &q in &gate_qubits[chosen] {
            let was_cached = state.is_cached(q);
            let (_, evicted) = state.access_with_eviction(q);
            if !was_cached {
                flipped.push(q);
            }
            if let Some(victim) = evicted {
                flipped.push(victim);
            }
        }
        order.push(chosen);

        for &s in dag.successors(chosen) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                let b = score(s, &state, &gate_qubits);
                bucket_of[s] = b;
                buckets[b as usize].insert(s);
                for &q in &gate_qubits[s] {
                    ready_on[q.index() as usize].push(s);
                }
            }
        }

        // Rescore the ready instructions whose operands moved.
        for &q in &flipped {
            for &g in &ready_on[q.index() as usize] {
                let b = score(g, &state, &gate_qubits);
                if b != bucket_of[g] {
                    buckets[bucket_of[g] as usize].remove(&g);
                    bucket_of[g] = b;
                    buckets[b as usize].insert(g);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n, "optimized order must be complete");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_workloads::DraperAdder;

    fn qid(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let run = CacheSim::new(4).run(&c, FetchPolicy::InOrder, &[], 1);
        assert_eq!(run.allocations(), 2);
        assert_eq!(run.hits(), 2);
        assert_eq!(run.fetch_misses(), 0);
        assert_eq!(run.accesses(), 4);
    }

    #[test]
    fn memory_resident_qubits_fetch_on_first_touch() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let run = CacheSim::new(4).run(&c, FetchPolicy::InOrder, &[qid(0)], 1);
        assert_eq!(run.fetch_misses(), 1);
        assert_eq!(run.allocations(), 1);
    }

    #[test]
    fn lru_eviction_returns_qubits_to_memory() {
        // Capacity 2, touch 3 qubits, then re-touch the first: it must
        // have been evicted and re-fetched.
        let mut c = Circuit::new(3);
        c.x(0);
        c.x(1);
        c.x(2);
        c.x(0);
        let run = CacheSim::new(2).run(&c, FetchPolicy::InOrder, &[], 1);
        assert_eq!(run.allocations(), 3);
        assert_eq!(run.fetch_misses(), 1);
        assert_eq!(run.hits(), 0);
    }

    #[test]
    fn warm_cache_improves_second_repetition() {
        let adder = DraperAdder::new(16);
        let circuit = adder.circuit();
        let sim = CacheSim::new(200); // larger than the working set
        let cold = sim.run(&circuit, FetchPolicy::InOrder, &[], 1);
        let warm = sim.run(&circuit, FetchPolicy::InOrder, &[], 2);
        // The second pass hits everything (cache exceeds the working set),
        // so the overall rate rises toward 100%.
        assert!(
            warm.hit_rate() > cold.hit_rate() + 0.1,
            "cold {:.2}, warm {:.2}",
            cold.hit_rate(),
            warm.hit_rate()
        );
        assert!(warm.hit_rate() > 0.7, "warm {:.2}", warm.hit_rate());
    }

    #[test]
    fn optimized_order_is_a_valid_topological_order() {
        let adder = DraperAdder::new(16);
        let circuit = adder.circuit();
        let run = CacheSim::new(24).run(&circuit, FetchPolicy::OptimizedLookahead, &[], 1);
        assert_eq!(run.order().len(), circuit.len());
        let dag = DependencyDag::new(&circuit);
        let mut position = vec![0usize; circuit.len()];
        for (pos, &i) in run.order().iter().enumerate() {
            position[i] = pos;
        }
        for i in 0..circuit.len() {
            for &p in dag.predecessors(i) {
                assert!(
                    position[p] < position[i],
                    "instr {i} before predecessor {p}"
                );
            }
        }
    }

    #[test]
    fn optimized_beats_in_order_on_the_adder() {
        // Fig 7's headline: the optimized fetch dominates the unoptimized
        // one at every cache size.
        let adder = DraperAdder::new(64);
        let circuit = adder.circuit();
        for capacity in [64usize, 96, 128] {
            let sim = CacheSim::new(capacity);
            let a = sim.run(&circuit, FetchPolicy::InOrder, &[], 2);
            let b = sim.run(&circuit, FetchPolicy::OptimizedLookahead, &[], 2);
            assert!(
                b.hit_rate() > a.hit_rate(),
                "capacity {capacity}: optimized {:.2} <= in-order {:.2}",
                b.hit_rate(),
                a.hit_rate()
            );
        }
    }

    #[test]
    fn fetch_policy_matters_more_than_cache_size() {
        // Paper: "the increase in hit-rate is more pronounced due to the
        // optimized fetch than increasing cache size."
        let adder = DraperAdder::new(64);
        let circuit = adder.circuit();
        let small_optimized = CacheSim::new(64)
            .run(&circuit, FetchPolicy::OptimizedLookahead, &[], 2)
            .hit_rate();
        let big_inorder = CacheSim::new(128)
            .run(&circuit, FetchPolicy::InOrder, &[], 2)
            .hit_rate();
        assert!(
            small_optimized > big_inorder,
            "optimized@64 {small_optimized:.2} <= in-order@128 {big_inorder:.2}"
        );
    }

    #[test]
    fn hit_rate_bounds() {
        let adder = DraperAdder::new(32);
        let circuit = adder.circuit();
        for policy in [FetchPolicy::InOrder, FetchPolicy::OptimizedLookahead] {
            let run = CacheSim::new(48).run(&circuit, policy, &[], 1);
            let rate = run.hit_rate();
            assert!((0.0..=1.0).contains(&rate), "{policy}: {rate}");
            assert_eq!(
                run.accesses(),
                run.hits() + run.fetch_misses() + run.allocations()
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CacheSim::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        let c = Circuit::new(1);
        let _ = CacheSim::new(1).run(&c, FetchPolicy::InOrder, &[], 0);
    }
}
