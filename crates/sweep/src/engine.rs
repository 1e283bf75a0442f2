//! The sweep executor: runs a [`Sweep`]'s job grid on the work-stealing
//! pool and packages results, timings, and serialization.
//!
//! Determinism contract: [`SweepRun::to_json`] depends only on the sweep
//! description — it is byte-identical across runs and thread counts
//! (the pool restores submission order, every job is a pure function of
//! its point, and the JSON layer formats floats reproducibly). Timing
//! lives in the separate [`SweepRun::timing_json`], which is expected to
//! differ run to run and feeds the benchmark baseline.

use std::time::{Duration, Instant};

use cqla_core::{
    CqlaConfig, EvalCtx, HierarchyConfig, HierarchyResult, HierarchyStudy, SpecializationResult,
    SpecializationStudy,
};

use crate::grid::{document, fragment, PointSink};
use crate::json::{Json, ToJson};
use crate::pool;
use crate::spec::{DesignPoint, Sweep};

/// What the engine computes at one design point: always the flat-CQLA
/// specialization; the memory hierarchy too when the point asks for
/// transfer channels.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Flat CQLA evaluation (Table 4 quantities).
    pub specialization: SpecializationResult,
    /// Memory-hierarchy evaluation (Table 5 quantities), when
    /// `par_xfer` is set.
    pub hierarchy: Option<HierarchyResult>,
}

impl PointOutcome {
    /// Evaluates one design point. This is the pure function the pool
    /// fans out.
    #[must_use]
    pub fn evaluate(point: &DesignPoint) -> Self {
        Self::evaluate_ctx(point, &EvalCtx::new())
    }

    /// Evaluates one design point against a shared memoization context.
    /// Neighboring grid points differ in one axis and share the rest, so
    /// a sweep-wide `ctx` lets each DAG schedule, cache-simulator pass,
    /// and ECC table be computed once per distinct key instead of once
    /// per point. Byte-identical to [`PointOutcome::evaluate`].
    #[must_use]
    pub fn evaluate_ctx(point: &DesignPoint, ctx: &EvalCtx) -> Self {
        let tech = point.tech.params();
        let specialization = SpecializationStudy::new(&tech).evaluate_ctx(
            CqlaConfig::new(point.code, point.input_bits, point.blocks),
            ctx,
        );
        let hierarchy = point.par_xfer.map(|par_xfer| {
            let mut config =
                HierarchyConfig::new(point.code, point.input_bits, par_xfer, point.blocks);
            config.cache_factor = point.cache_factor;
            HierarchyStudy::new(&tech).evaluate_ctx(config, ctx)
        });
        Self {
            specialization,
            hierarchy,
        }
    }
}

impl ToJson for PointOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("specialization", self.specialization.to_json()),
            ("hierarchy", self.hierarchy.to_json()),
        ])
    }
}

/// One executed job: point, outcome, and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The design point evaluated.
    pub point: DesignPoint,
    /// What it computed.
    pub outcome: PointOutcome,
    /// Wall-clock time of this job on its worker.
    pub duration: Duration,
}

impl JobResult {
    /// This result's entry in the sweep document's `results` array —
    /// the unit the streamed-document framing re-indents into a
    /// fragment (see [`crate::grid::fragment`]). Deterministic:
    /// duration is excluded.
    #[must_use]
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("point", self.point.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

/// A sweep document's head: the sweep name and the point count. Framed
/// by [`crate::grid::prologue`] like every streamed document, so a
/// worker fleet can stream sweep shards too.
#[must_use]
pub fn sweep_head(name: &str, points: usize) -> Json {
    Json::obj([("sweep", Json::from(name)), ("points", points.to_json())])
}

/// A completed sweep: every job result in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    name: String,
    threads: usize,
    results: Vec<JobResult>,
}

impl SweepRun {
    /// Executes the sweep on `threads` workers (see
    /// [`pool::default_threads`] for the all-cores default).
    ///
    /// # Examples
    ///
    /// ```
    /// use cqla_sweep::{Sweep, SweepRun};
    ///
    /// let sweep = Sweep::builtin("quick").unwrap();
    /// let run = SweepRun::execute(&sweep, 2);
    /// assert_eq!(run.results().len(), sweep.len());
    /// ```
    #[must_use]
    pub fn execute(sweep: &Sweep, threads: usize) -> Self {
        Self::run(sweep, threads, |_, _| {})
    }

    /// Executes the sweep, delivering each completed result's
    /// [`fragment`] to `sink` in submission order as soon as it (and
    /// every earlier result) is done — the incremental hook behind
    /// streamed sweep jobs. The sink observes exactly the order
    /// [`SweepRun::results`] will report (see [`pool::map`]).
    #[must_use]
    pub fn execute_streamed(sweep: &Sweep, threads: usize, sink: &dyn PointSink) -> Self {
        Self::run(sweep, threads, |index, result: &JobResult| {
            sink.fragment(index, fragment(index, &result.result_json()));
        })
    }

    fn run(sweep: &Sweep, threads: usize, deliver: impl FnMut(usize, &JobResult) + Send) -> Self {
        // Record the *effective* worker count (the pool clamps to the job
        // count): the timing document is the cross-PR perf baseline, and
        // a phantom thread count would make comparisons misleading.
        let threads = threads.clamp(1, sweep.len().max(1));
        // One memoization context for the whole run: points share DAG
        // schedules, cache-simulator passes, and ECC tables across
        // worker threads (same lock discipline as a grid `PointCache`).
        let ctx = EvalCtx::new();
        let results = pool::map(
            sweep.points(),
            threads,
            |_, point| {
                let started = Instant::now();
                let outcome = PointOutcome::evaluate_ctx(point, &ctx);
                JobResult {
                    point: *point,
                    outcome,
                    duration: started.elapsed(),
                }
            },
            deliver,
        );
        Self {
            name: sweep.name().to_owned(),
            threads,
            results,
        }
    }

    /// The sweep's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worker count the run used.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Per-job results in submission order.
    #[must_use]
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    /// The deterministic result document: depends only on the sweep
    /// description, never on thread count or timing.
    #[must_use]
    pub fn to_json(&self) -> Json {
        document(
            sweep_head(&self.name, self.results.len()),
            self.results.iter().map(JobResult::result_json).collect(),
        )
    }

    /// The timing document: per-job wall-clock plus aggregate stats.
    /// Not deterministic — this is the benchmark-baseline artifact.
    #[must_use]
    pub fn timing_json(&self) -> Json {
        let total: Duration = self.results.iter().map(|r| r.duration).sum();
        let slowest = self
            .results
            .iter()
            .max_by_key(|r| r.duration)
            .map(|r| {
                Json::obj([
                    ("point", Json::from(r.point.label())),
                    ("seconds", Json::Num(r.duration.as_secs_f64())),
                ])
            })
            .unwrap_or(Json::Null);
        Json::obj([
            ("sweep", Json::from(self.name.as_str())),
            ("threads", self.threads.to_json()),
            ("points", self.results.len().to_json()),
            ("cpu_seconds_total", Json::Num(total.as_secs_f64())),
            (
                "mean_job_seconds",
                Json::Num(if self.results.is_empty() {
                    0.0
                } else {
                    total.as_secs_f64() / self.results.len() as f64
                }),
            ),
            ("slowest_job", slowest),
            (
                "job_seconds",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| Json::Num(r.duration.as_secs_f64()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the paper-style text table for terminal output.
    #[must_use]
    pub fn render_text(&self) -> String {
        use cqla_core::report::{fmt3, TextTable};
        let mut t = TextTable::new([
            "point",
            "area x",
            "speedup",
            "GP(flat)",
            "L1 speedup",
            "GP(1:2)",
        ]);
        for r in &self.results {
            let s = &r.outcome.specialization;
            let (l1, gp) = r.outcome.hierarchy.as_ref().map_or_else(
                || ("-".to_owned(), "-".to_owned()),
                |h| (fmt3(h.l1_speedup), fmt3(h.gain_product_conservative)),
            );
            t.push_row([
                r.point.label(),
                fmt3(s.area_reduction),
                fmt3(s.speedup),
                fmt3(s.gain_product),
                l1,
                gp,
            ]);
        }
        format!(
            "sweep {}: {} points on {} thread(s)\n{}",
            self.name,
            self.results.len(),
            self.threads,
            t
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, TechPoint};
    use cqla_ecc::Code;

    fn small_sweep() -> Sweep {
        Sweep::cartesian(
            "test",
            DesignPoint {
                par_xfer: Some(10),
                ..DesignPoint::paper_default()
            },
            &[
                Axis::Tech(TechPoint::ALL.to_vec()),
                Axis::Code(Code::ALL.to_vec()),
                Axis::InputBitsPrimaryBlocks(vec![32, 64]),
            ],
        )
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let sweep = small_sweep();
        let serial = SweepRun::execute(&sweep, 1);
        let parallel = SweepRun::execute(&sweep, 4);
        assert_eq!(serial.results().len(), parallel.results().len());
        for (s, p) in serial.results().iter().zip(parallel.results()) {
            assert_eq!(s.point, p.point);
            assert_eq!(s.outcome, p.outcome, "point {}", s.point.label());
        }
        // The deterministic documents are byte-identical.
        assert_eq!(serial.to_json().to_pretty(), parallel.to_json().to_pretty());
    }

    #[test]
    fn hierarchy_evaluated_only_when_requested() {
        let flat = DesignPoint::paper_default();
        assert!(PointOutcome::evaluate(&flat).hierarchy.is_none());
        let mut with = flat;
        with.par_xfer = Some(10);
        let outcome = PointOutcome::evaluate(&with);
        let h = outcome.hierarchy.expect("hierarchy requested");
        assert!(h.l1_speedup > 1.0);
        // Both views price the same flat machine.
        assert_eq!(
            outcome.specialization.config.compute_blocks(),
            h.config.blocks
        );
    }

    #[test]
    fn cache_factor_flows_into_the_hierarchy_config() {
        let mut p = DesignPoint::paper_default();
        p.par_xfer = Some(10);
        p.cache_factor = 1.5;
        let h = PointOutcome::evaluate(&p).hierarchy.unwrap();
        assert!((h.config.cache_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn json_document_has_one_result_per_point() {
        let sweep = Sweep::builtin("quick").unwrap();
        let run = SweepRun::execute(&sweep, 2);
        let doc = run.to_json();
        assert_eq!(
            doc.get("results").unwrap().as_arr().unwrap().len(),
            sweep.len()
        );
        // And it parses back.
        assert!(crate::json::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn recorded_thread_count_is_the_effective_one() {
        let sweep = Sweep::builtin("quick").unwrap();
        let run = SweepRun::execute(&sweep, 64);
        assert_eq!(run.threads(), sweep.len(), "clamped to the job count");
        assert_eq!(
            run.timing_json().get("threads").unwrap().as_f64(),
            Some(sweep.len() as f64)
        );
    }

    #[test]
    fn timing_json_reports_stats() {
        let run = SweepRun::execute(&Sweep::builtin("quick").unwrap(), 2);
        let t = run.timing_json();
        assert!(t.get("cpu_seconds_total").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            t.get("job_seconds").unwrap().as_arr().unwrap().len(),
            run.results().len()
        );
    }

    #[test]
    fn streamed_framing_concatenates_to_the_merged_document() {
        for spec in ["quick", "table5"] {
            let sweep = Sweep::builtin(spec).unwrap();
            let run = SweepRun::execute(&sweep, 3);
            let head = sweep_head(run.name(), run.results().len());
            let mut streamed = crate::grid::prologue(&head);
            for (i, result) in run.results().iter().enumerate() {
                streamed.push_str(&fragment(i, &result.result_json()));
            }
            streamed.push_str(crate::grid::DOCUMENT_EPILOGUE);
            assert_eq!(
                streamed,
                format!("{}\n", run.to_json().to_pretty()),
                "spec {spec:?}"
            );
        }
    }

    #[test]
    fn sink_sees_every_result_in_submission_order() {
        struct Recorder(std::sync::Mutex<Vec<(usize, String)>>);
        impl PointSink for Recorder {
            fn fragment(&self, index: usize, fragment: String) {
                self.0.lock().unwrap().push((index, fragment));
            }
        }
        let sweep = Sweep::builtin("quick").unwrap();
        for threads in [1, 4] {
            let sink = Recorder(std::sync::Mutex::new(Vec::new()));
            let run = SweepRun::execute_streamed(&sweep, threads, &sink);
            let seen = sink.0.into_inner().unwrap();
            assert_eq!(seen.len(), run.results().len(), "threads {threads}");
            for (slot, (index, delivered)) in seen.iter().enumerate() {
                assert_eq!(*index, slot, "threads {threads}");
                assert_eq!(
                    delivered,
                    &fragment(slot, &run.results()[slot].result_json()),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn text_rendering_lists_every_point() {
        let run = SweepRun::execute(&Sweep::builtin("quick").unwrap(), 2);
        let text = run.render_text();
        for r in run.results() {
            assert!(text.contains(&r.point.label()), "{}", r.point.label());
        }
    }
}
