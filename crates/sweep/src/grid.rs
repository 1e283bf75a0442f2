//! Grid execution: run a registry-driven [`Grid`] on the work-stealing
//! pool and merge the per-point artifact documents.
//!
//! A [`Grid`] (parsed by [`cqla_core::experiments::grid`] against an
//! experiment's declared parameters) expands to a deterministic,
//! submission-order list of parameter assignments. [`GridRun::execute`]
//! fans one job out per point — each job resolves a fresh registry
//! instance, applies the point's overrides, and runs it — and the
//! results merge into one JSON document:
//!
//! ```json
//! {
//!   "artifact": "fig2",
//!   "grid": "bits=32..=128:*2",
//!   "points": 3,
//!   "results": [{"params": {"bits": "32", "cap": "15"}, "data": …}, …]
//! }
//! ```
//!
//! Determinism contract: like [`crate::SweepRun::to_json`], the merged
//! document depends only on the grid description — byte-identical across
//! runs and thread counts. The CLI (`cqla run <id> k=set…`,
//! `cqla sweep <id> k=set…`) and the HTTP service (`GET /v1/run/{id}`,
//! `POST /v1/sweep/{id}`) all emit exactly this document, which is what
//! lets the service cache *per point*: every point's single-run body is
//! the same bytes a direct single-value request would produce, exposed
//! through the [`PointCache`] hook.
//!
//! This module also owns the streamed-document framing every document
//! kind shares — grid documents here and sweep documents in
//! [`crate::engine`]: a head object ([`grid_head`],
//! [`crate::engine::sweep_head`]) rendered by [`prologue`], one
//! [`fragment`] per result, delivered to a [`PointSink`], and
//! [`DOCUMENT_EPILOGUE`].

use cqla_core::experiments::{find, Grid};
use cqla_core::json::Json;
use cqla_core::EvalCtx;

use crate::pool;

/// One executed grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// The clause-level overrides that select this point (base + axis
    /// assignments, in clause order) — what a user would pass to
    /// `cqla run <id>` to reproduce it alone.
    pub overrides: Vec<(String, String)>,
    /// The fully resolved parameter surface after applying the
    /// overrides (declared order, rendered values).
    pub params: Vec<(String, String)>,
    /// The structured result (the single-run document's `data`).
    pub data: Json,
    /// The paper-style text rendering. Empty when the point was served
    /// from a [`PointCache`] (cached bodies carry only the JSON).
    pub text: String,
    /// Whether the experiment's self-checks passed.
    pub passed: bool,
}

impl GridPoint {
    /// This point's entry in the merged document's `results` array —
    /// the unit the streamed-document framing re-indents into a
    /// fragment (see [`fragment`]).
    #[must_use]
    pub fn result_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                ),
            ),
            ("data", self.data.clone()),
        ])
    }
}

/// The streamed document's head: `head`'s fields (the document minus
/// its `results` array) followed by the opening bracket of `results`.
/// Concatenating `prologue` + [`fragment`] for every result in order +
/// [`DOCUMENT_EPILOGUE`] is byte-identical to the merged document
/// ([`document`] of the same head and results, pretty-printed, plus a
/// newline) — the contract that lets the HTTP service stream grids and
/// jobs without buffering them, and lets a worker fleet splice shards.
/// Both document kinds use it: [`grid_head`] and
/// [`crate::engine::sweep_head`] build their heads.
#[must_use]
pub fn prologue(head: &Json) -> String {
    let head = head.to_pretty();
    let head = head
        .strip_suffix("\n}")
        .expect("pretty object ends with a closing brace");
    format!("{head},\n  \"results\": [")
}

/// One result's streamed fragment: the separator (for every result
/// after the first) plus the result object re-indented to its depth
/// inside the `results` array. The re-indent is a plain string
/// substitution on newlines, which is exact because the JSON printer
/// never emits a literal newline inside a string (control characters
/// are escaped).
#[must_use]
pub fn fragment(index: usize, result: &Json) -> String {
    let pretty = result.to_pretty().replace('\n', "\n    ");
    let sep = if index == 0 { "" } else { "," };
    format!("{sep}\n    {pretty}")
}

/// The streamed document's tail: closes the `results` array and the
/// document, with the trailing newline every CLI/HTTP body carries.
pub const DOCUMENT_EPILOGUE: &str = "\n  ]\n}\n";

/// The merged document: `head`'s fields followed by the `results`
/// array — what [`prologue`], [`fragment`] and [`DOCUMENT_EPILOGUE`]
/// stream piecewise.
///
/// # Panics
///
/// Panics if `head` is not a JSON object.
#[must_use]
pub fn document(head: Json, results: Vec<Json>) -> Json {
    let Json::Obj(mut fields) = head else {
        panic!("a document head is a JSON object");
    };
    fields.push(("results".to_owned(), Json::Arr(results)));
    Json::Obj(fields)
}

/// A grid document's head: the artifact id, the grid expression and
/// the point count.
#[must_use]
pub fn grid_head(id: &str, spec: &str, points: usize) -> Json {
    Json::obj([
        ("artifact", Json::from(id)),
        ("grid", Json::from(spec)),
        ("points", Json::Int(points as i64)),
    ])
}

/// Receives a streamed document's fragments incrementally, **in
/// submission order**, as the pool completes them: fragment `i` is
/// delivered only after fragments `0..i`, no matter which worker
/// finished first. [`GridRun`] and [`crate::SweepRun`] render each
/// result's [`fragment`]; the HTTP service streams it to the client,
/// and job runs append it to their progress log.
///
/// Called from pool worker threads (hence `Sync`), one call at a time —
/// but not necessarily from the same thread each time.
pub trait PointSink: Sync {
    /// One completed result's fragment, at its submission-order index.
    fn fragment(&self, index: usize, fragment: String);
}

/// A per-point result cache the grid executor can read through and
/// populate — the HTTP service plugs its results cache in here, so a
/// grid run reuses previously computed single-run documents and leaves
/// one cache entry per point behind.
///
/// `get` returns the cached *single-run body* for a point's overrides
/// (the pretty `{"artifact", "data"}` document plus trailing newline —
/// exactly what a single-value request produces); `put` stores a body
/// the executor just computed. Only *passing* runs are ever `put` (the
/// body format does not record the verdict, so a cached point is
/// reported as passed); implementations should uphold the same
/// invariant for entries they populate elsewhere.
///
/// # The single-flight contract
///
/// An implementation may *coalesce* concurrent cold misses: `get` may
/// block while another thread computes the same point, then return that
/// thread's body. To support it, the executor promises that every `get`
/// returning `None` is followed by exactly one of `put` (the computed
/// body) or [`abandon`] (the run failed its self-checks, or the
/// computation unwound) for the same overrides — `abandon` runs from a
/// drop guard, so the promise holds even across a panic. A plain
/// non-coalescing cache ignores `abandon` (the default no-op).
///
/// [`abandon`]: PointCache::abandon
pub trait PointCache: Sync {
    /// The cached single-run body for these overrides, if any.
    fn get(&self, overrides: &[(String, String)]) -> Option<String>;
    /// Stores a freshly computed single-run body for these overrides.
    fn put(&self, overrides: &[(String, String)], body: &str);
    /// Signals that the computation promised after a `None` from `get`
    /// will not deliver a cacheable body, releasing any waiters a
    /// single-flight implementation parked on it. Default: no-op.
    fn abandon(&self, _overrides: &[(String, String)]) {}
}

/// Calls [`PointCache::abandon`] on drop unless disarmed by `put` —
/// the executor's half of the single-flight contract, panic-safe.
struct AbandonGuard<'a> {
    cache: &'a dyn PointCache,
    overrides: &'a [(String, String)],
    armed: bool,
}

impl Drop for AbandonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abandon(self.overrides);
        }
    }
}

/// The no-op cache behind plain [`GridRun::execute`].
struct NoCache;

impl PointCache for NoCache {
    fn get(&self, _overrides: &[(String, String)]) -> Option<String> {
        None
    }

    fn put(&self, _overrides: &[(String, String)], _body: &str) {}
}

/// A completed grid run: every point's document in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRun {
    id: String,
    spec: String,
    points: Vec<GridPoint>,
}

impl GridRun {
    /// Executes every grid point on `threads` workers.
    ///
    /// # Examples
    ///
    /// ```
    /// use cqla_core::experiments::{find, Grid};
    /// use cqla_sweep::grid::GridRun;
    ///
    /// let exp = find("fig2").unwrap();
    /// let grid = Grid::parse("fig2", &exp.specs(), "bits=8,16").unwrap();
    /// let run = GridRun::execute(&grid, 2);
    /// assert_eq!(run.points().len(), 2);
    /// assert!(run.passed());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the grid names an experiment the registry no longer
    /// has, or a value `Experiment::set` rejects — both impossible for
    /// grids produced by [`Grid::parse`], which validates id and values
    /// against the same registry surface (the completeness test in
    /// `tests/registry.rs` pins that contract).
    #[must_use]
    pub fn execute(grid: &Grid, threads: usize) -> Self {
        Self::execute_cached(grid, threads, &NoCache)
    }

    /// Executes the grid, reading each point through `cache` and
    /// populating it on misses. Cached points keep their JSON but have
    /// no text rendering (cached bodies are JSON documents).
    ///
    /// # Panics
    ///
    /// As [`GridRun::execute`].
    #[must_use]
    pub fn execute_cached(grid: &Grid, threads: usize, cache: &dyn PointCache) -> Self {
        Self::run(grid, threads, cache, |_, _| {})
    }

    /// Executes the grid, delivering each completed point's
    /// [`fragment`] to `sink` in submission order as soon as it (and
    /// every earlier point) is done — the incremental hook behind the
    /// HTTP service's streamed grid responses and resumable jobs. The
    /// sink observes exactly the order [`GridRun::points`] will report
    /// (see [`pool::map`]).
    ///
    /// The sink runs on pool worker threads while the reorder lock is
    /// held: a sink that blocks (say, on a slow client's socket) stalls
    /// delivery, not correctness — callers on the serving path bound
    /// that with write timeouts.
    ///
    /// # Panics
    ///
    /// As [`GridRun::execute`].
    #[must_use]
    pub fn execute_streamed(
        grid: &Grid,
        threads: usize,
        cache: &dyn PointCache,
        sink: &dyn PointSink,
    ) -> Self {
        Self::run(grid, threads, cache, |index, point: &GridPoint| {
            sink.fragment(index, fragment(index, &point.result_json()));
        })
    }

    fn run(
        grid: &Grid,
        threads: usize,
        cache: &dyn PointCache,
        deliver: impl FnMut(usize, &GridPoint) + Send,
    ) -> Self {
        let id = grid.id().to_owned();
        // One evaluation context for the whole grid: neighboring points
        // share most memo keys, and the lock discipline matches the
        // `PointCache` single-flight contract (workers never serialize
        // on each other's computations).
        let ctx = EvalCtx::new();
        let points = pool::map(
            &grid.points(),
            threads,
            |_, overrides| run_point(&id, overrides, cache, &ctx),
            deliver,
        );
        Self {
            id,
            spec: grid.spec().to_owned(),
            points,
        }
    }

    /// The experiment id the grid ran.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The expression text the grid was parsed from.
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Per-point results in submission order.
    #[must_use]
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Whether every point's self-checks passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.points.iter().all(|p| p.passed)
    }

    /// The merged grid document. Deterministic: depends only on the
    /// grid description, never on thread count or cache state.
    #[must_use]
    pub fn to_json(&self) -> Json {
        document(
            grid_head(&self.id, &self.spec, self.points.len()),
            self.points.iter().map(GridPoint::result_json).collect(),
        )
    }

    /// Renders the paper-style text for terminal output: one banner and
    /// rendering per point.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "grid {}: {} point(s){}\n",
            self.id,
            self.points.len(),
            if self.spec.is_empty() {
                String::new()
            } else {
                format!(" ({})", self.spec)
            }
        );
        for p in &self.points {
            let assignment = p
                .overrides
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "\n== {}{}{} ==\n{}\n",
                self.id,
                if assignment.is_empty() { "" } else { " " },
                assignment,
                p.text
            ));
        }
        out
    }
}

/// Executes one grid point: resolve the experiment, apply the
/// overrides, read through the cache (upholding the single-flight
/// contract), run on a miss.
fn run_point(
    id: &str,
    overrides: &[(String, String)],
    cache: &dyn PointCache,
    ctx: &EvalCtx,
) -> GridPoint {
    let mut exp = find(id).expect("grid experiment is registered");
    for (key, value) in overrides {
        exp.set(key, value)
            .expect("grid-validated value accepted by set");
    }
    let params: Vec<(String, String)> = exp
        .params()
        .iter()
        .map(|p| (p.key.to_owned(), p.value.clone()))
        .collect();
    if let Some(point) = cached_point(cache, overrides, &params) {
        return point;
    }
    // `get` returned None: if the cache coalesces, we now own the
    // flight and must resolve it — `put` on success, `abandon` (via the
    // guard, so a panicking run counts too) otherwise.
    let mut guard = AbandonGuard {
        cache,
        overrides,
        armed: true,
    };
    let output = exp.run_ctx(ctx);
    // Failing runs are never cached: the cached body cannot
    // carry the verdict, so a hit is reported as passed.
    if output.passed {
        let body = format!("{}\n", output.document(id).to_pretty());
        cache.put(overrides, &body);
        guard.armed = false;
    }
    drop(guard);
    GridPoint {
        overrides: overrides.to_vec(),
        params,
        data: output.data,
        text: output.text,
        passed: output.passed,
    }
}

/// Rebuilds a [`GridPoint`] from a cached single-run body, if present
/// and parseable.
fn cached_point(
    cache: &dyn PointCache,
    overrides: &[(String, String)],
    params: &[(String, String)],
) -> Option<GridPoint> {
    let body = cache.get(overrides)?;
    let data = cqla_core::json::parse(&body).ok()?.get("data")?.clone();
    Some(GridPoint {
        overrides: overrides.to_vec(),
        params: params.to_vec(),
        data,
        text: String::new(),
        passed: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_core::experiments;
    use std::sync::Mutex;

    fn grid(id: &str, expr: &str) -> Grid {
        let exp = find(id).unwrap();
        Grid::parse(id, &exp.specs(), expr).unwrap()
    }

    #[test]
    fn grid_run_matches_single_runs_pointwise() {
        let run = GridRun::execute(&grid("fig2", "bits=8..=32:*2"), 3);
        assert_eq!(run.points().len(), 3);
        for (point, bits) in run.points().iter().zip(["8", "16", "32"]) {
            let mut exp = find("fig2").unwrap();
            exp.set("bits", bits).unwrap();
            let single = exp.run();
            assert_eq!(point.data, single.data, "bits={bits}");
            assert_eq!(point.text, single.text, "bits={bits}");
            assert_eq!(point.params[0], ("bits".to_owned(), bits.to_owned()));
        }
        assert!(run.passed());
    }

    #[test]
    fn merged_document_is_deterministic_across_thread_counts() {
        let g = grid("fig2", "bits=8,16,24 cap=4,8");
        let serial = GridRun::execute(&g, 1).to_json().to_pretty();
        let parallel = GridRun::execute(&g, 4).to_json().to_pretty();
        assert_eq!(serial, parallel);
        let doc = cqla_core::json::parse(&serial).unwrap();
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("fig2"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(6.0));
        assert_eq!(
            doc.get("results").and_then(Json::as_arr).map(<[_]>::len),
            Some(6)
        );
    }

    #[test]
    fn compile_seed_grids_are_deterministic_across_thread_counts() {
        // The compile workload generator is seeded, so a grid over
        // seeds must be as reproducible as any analytic experiment:
        // the merged document is byte-identical however the pool
        // splits the points.
        let g = grid("compile", "seed=1,2,3,4 qubits=8 gates=48");
        let serial = GridRun::execute(&g, 1).to_json().to_pretty();
        let parallel = GridRun::execute(&g, 4).to_json().to_pretty();
        assert_eq!(serial, parallel);
        let doc = cqla_core::json::parse(&serial).unwrap();
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("compile"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn point_cache_is_read_through_and_populated() {
        struct MapCache(Mutex<std::collections::HashMap<String, String>>);
        impl PointCache for MapCache {
            fn get(&self, overrides: &[(String, String)]) -> Option<String> {
                self.0
                    .lock()
                    .unwrap()
                    .get(&format!("{overrides:?}"))
                    .cloned()
            }
            fn put(&self, overrides: &[(String, String)], body: &str) {
                self.0
                    .lock()
                    .unwrap()
                    .insert(format!("{overrides:?}"), body.to_owned());
            }
        }
        let cache = MapCache(Mutex::new(std::collections::HashMap::new()));
        let g = grid("fig2", "bits=8,16");
        let cold = GridRun::execute_cached(&g, 2, &cache);
        assert_eq!(cache.0.lock().unwrap().len(), 2, "one entry per point");
        // Every cached body is the exact single-run document.
        for point in cold.points() {
            let mut exp = find("fig2").unwrap();
            for (k, v) in &point.overrides {
                exp.set(k, v).unwrap();
            }
            let expected = format!("{}\n", exp.run().document("fig2").to_pretty());
            assert_eq!(cache.get(&point.overrides).as_deref(), Some(&*expected));
        }
        // A warm run produces the same merged document without text.
        let warm = GridRun::execute_cached(&g, 2, &cache);
        assert_eq!(warm.to_json().to_pretty(), cold.to_json().to_pretty());
        assert!(warm.points().iter().all(|p| p.text.is_empty()));
    }

    #[test]
    fn streamed_framing_concatenates_to_the_merged_document() {
        /// Collects each delivered result's fragment in arrival order.
        struct Fragments(Mutex<Vec<String>>);
        impl PointSink for Fragments {
            fn fragment(&self, _index: usize, fragment: String) {
                self.0.lock().unwrap().push(fragment);
            }
        }
        let quick = crate::Sweep::builtin("quick").unwrap();
        let grids = [
            grid("fig2", "bits=8..=32:*2"),
            grid("machine", "code=steane,bacon-shor bits=32,64"),
        ];
        assert_eq!(grids[1].len(), 4);
        // Per document: (kind, prologue, delivered fragments, merged).
        let streamed_at = |threads: usize| {
            let sink = Fragments(Mutex::new(Vec::new()));
            let run = crate::SweepRun::execute_streamed(&quick, threads, &sink);
            let head = crate::engine::sweep_head(run.name(), run.results().len());
            let mut docs = vec![(
                "quick",
                prologue(&head),
                sink.0.into_inner().unwrap(),
                run.to_json(),
            )];
            for g in &grids {
                let sink = Fragments(Mutex::new(Vec::new()));
                let run = GridRun::execute_streamed(g, threads, &NoCache, &sink);
                let head = grid_head(run.id(), run.spec(), run.points().len());
                let fragments = sink.0.into_inner().unwrap();
                docs.push((g.id(), prologue(&head), fragments, run.to_json()));
            }
            docs
        };
        let serial = streamed_at(1);
        for threads in [1, 2, 3, 8] {
            for (doc, reference) in streamed_at(threads).into_iter().zip(&serial) {
                let (kind, prologue, fragments, merged) = doc;
                let merged = format!("{}\n", merged.to_pretty());
                let whole = format!("{prologue}{}{DOCUMENT_EPILOGUE}", fragments.concat());
                assert_eq!(whole, merged, "{kind} at threads={threads}");
                // A stream cut after K fragments glues to a resume from
                // K — here replayed from the serial run's fragments.
                for k in 0..=fragments.len() {
                    let cut = format!("{prologue}{}", fragments[..k].concat());
                    let resumed = format!("{}{DOCUMENT_EPILOGUE}", reference.2[k..].concat());
                    assert_eq!(
                        cut + &resumed,
                        merged,
                        "{kind} cut at {k}, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn sink_sees_every_point_in_submission_order() {
        struct Recorder(Mutex<Vec<(usize, String)>>);
        impl PointSink for Recorder {
            fn fragment(&self, index: usize, fragment: String) {
                self.0.lock().unwrap().push((index, fragment));
            }
        }
        let g = grid("fig2", "bits=8,16,24 cap=4,8");
        for threads in [1, 4] {
            let sink = Recorder(Mutex::new(Vec::new()));
            let run = GridRun::execute_streamed(&g, threads, &NoCache, &sink);
            let seen = sink.0.into_inner().unwrap();
            assert_eq!(seen.len(), run.points().len(), "threads {threads}");
            for (slot, (index, delivered)) in seen.iter().enumerate() {
                assert_eq!(*index, slot, "threads {threads}");
                assert_eq!(
                    delivered,
                    &fragment(slot, &run.points()[slot].result_json()),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn every_miss_is_resolved_with_a_put_and_never_abandoned() {
        #[derive(Default)]
        struct Flights {
            puts: Mutex<usize>,
            abandons: Mutex<usize>,
        }
        impl PointCache for Flights {
            fn get(&self, _overrides: &[(String, String)]) -> Option<String> {
                None
            }
            fn put(&self, _overrides: &[(String, String)], _body: &str) {
                *self.puts.lock().unwrap() += 1;
            }
            fn abandon(&self, _overrides: &[(String, String)]) {
                *self.abandons.lock().unwrap() += 1;
            }
        }
        let cache = Flights::default();
        let run = GridRun::execute_cached(&grid("fig2", "bits=8,16"), 2, &cache);
        assert!(run.passed());
        assert_eq!(*cache.puts.lock().unwrap(), 2, "one put per cold miss");
        assert_eq!(
            *cache.abandons.lock().unwrap(),
            0,
            "passing runs resolve via put"
        );
    }

    #[test]
    fn empty_expression_runs_the_default_point() {
        let run = GridRun::execute(&grid("table2", ""), 1);
        assert_eq!(run.points().len(), 1);
        let default = experiments::find("table2").unwrap().run();
        assert_eq!(run.points()[0].data, default.data);
        assert!(run.render_text().contains("== table2 =="));
    }
}
