//! Sample studies: measure random assignments and estimate the optimum.
//!
//! A [`SampleStudy`] is the paper's Step 1 + Step 2 bundle: draw `n` iid
//! random assignments, measure each through a [`PerformanceModel`], and
//! feed the performances to the Peaks-Over-Threshold estimator of the
//! optimal system performance. The prefix views support the paper's
//! 1000/2000/5000 sample-size comparison (Figures 10–12) without
//! re-measuring.

use crate::assignment::Assignment;
use crate::measure::{measure_slots, Journal, Ladder, Measure, NoPeers};
use crate::model::{MeasureError, PerformanceModel};
use crate::persist;
use crate::sampling::sample_assignments;
use crate::CoreError;
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_evt::resilient::{
    estimate_resilient, estimate_resilient_obs, EstimateReport, ResilientConfig,
};
use optassign_exec::Parallelism;
use optassign_obs::{Event, Obs};
use optassign_stats::rng::StdRng;
use optassign_store::CampaignStore;

/// Salt separating a slot's measurement stream from every other use of
/// the campaign seed.
const MEASURE_SALT: u64 = 0x4D45_4153_5552_4531;
/// Salt for a slot's replacement-draw stream (used only after the
/// slot's primary assignment exhausts its retries).
const REDRAW_SALT: u64 = 0x5245_4452_4157_5331;

/// Bookkeeping from a fault-tolerant measurement campaign
/// (see [`SampleStudy::run_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasurementLog {
    /// Total measurement attempts, including failures.
    pub attempts: usize,
    /// Attempts beyond the first for assignments that were eventually
    /// measured (the retry overhead).
    pub retries: usize,
    /// Assignments abandoned after the per-assignment retry budget and
    /// replaced by a fresh draw.
    pub redrawn: usize,
}

impl MeasurementLog {
    /// Attempts consumed beyond the one-per-sample minimum — the paper's
    /// "extra samples" cost of running on faulty infrastructure.
    pub fn extra_attempts(&self, n: usize) -> usize {
        self.attempts.saturating_sub(n)
    }
}

/// A measured sample of random task assignments.
#[derive(Debug, Clone)]
pub struct SampleStudy {
    assignments: Vec<Assignment>,
    performances: Vec<f64>,
}

/// The slot ids `0..n` of a single-batch campaign.
fn slot_ids(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

impl SampleStudy {
    /// Draws `n` iid random assignments (seeded) and measures each one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when the model's workload does not
    /// fit its machine.
    ///
    /// # Examples
    ///
    /// ```
    /// use optassign::model::SyntheticModel;
    /// use optassign::study::SampleStudy;
    /// use optassign::Topology;
    ///
    /// let model = SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6);
    /// let study = SampleStudy::run(&model, 200, 1).unwrap();
    /// assert!(study.best_performance() <= 1.0e6);
    /// ```
    pub fn run<M: PerformanceModel + Sync>(
        model: &M,
        n: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::run_with(
            model,
            n,
            seed,
            Parallelism::default(),
            &Obs::disabled(),
            None,
        )
    }

    /// [`SampleStudy::run`] with an explicit worker count, observability,
    /// and optionally a durable store.
    ///
    /// The assignments are drawn from the same sequential stream as the
    /// serial path and each slot's measurement is a pure function of its
    /// assignment, so the result is **bit-identical for every worker
    /// count** — parallelism is purely a throughput knob.
    /// The measurement fan-out reports per-task latency and worker
    /// utilization through `obs` (see [`optassign_exec::parallel_map`]),
    /// the campaign is bracketed by `study_start`/`study_done` events, and
    /// the total measurement count lands in `study_measurements_total`.
    /// Results are bit-identical to the unobserved run.
    ///
    /// With a `store`, every measurement is written to the store's
    /// write-ahead log, and a study whose records are already (partially)
    /// journaled — an interrupted run, or the same call repeated —
    /// replays them instead of re-measuring. Slots with no journal record
    /// consult the store's content-addressed evaluation cache (keyed by
    /// [`Assignment::canonical_hash`]) before evaluating the model.
    /// Replays, hits and misses land in `exec_replayed_total`,
    /// `exec_cache_hits_total` and `exec_cache_misses_total`.
    ///
    /// **Resume contract:** a run killed at any point and re-invoked with
    /// the same arguments produces the study an uninterrupted run would
    /// have, bit for bit, at any worker count. A cache hit returns the
    /// value of whichever *equivalent* assignment (same canonical class)
    /// the store measured first. Neither the simulator nor
    /// `SyntheticModel` is invariant under the machine's symmetry, so a
    /// run that resolves draws through the cache matches a store-free run
    /// only while no class repeats among them; small spaces repeat often
    /// (fig3's 6-task space has 1,526 classes). Distinct models need
    /// distinct store directories (DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// As [`SampleStudy::run`]. Store I/O failures never fail the study —
    /// they are counted on the store handle
    /// ([`CampaignStore::io_errors`]).
    pub fn run_with<M: PerformanceModel + Sync>(
        model: &M,
        n: usize,
        seed: u64,
        parallelism: Parallelism,
        obs: &Obs,
        store: Option<&CampaignStore>,
    ) -> Result<Self, CoreError> {
        let span = obs.span("study_run_ns");
        obs.emit(|| {
            Event::new("study_start")
                .with("n", n)
                .with("seed", seed)
                .with("workers", parallelism.workers)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let primaries = sample_assignments(n, model.tasks(), model.topology(), &mut rng)?;
        let journal = store.map(|store| Journal {
            store,
            campaign: persist::study_campaign_id(seed, n, model.tasks(), model.topology()),
            sequence: 0,
        });
        let slots = measure_slots(&slot_ids(n), &primaries, journal, &NoPeers, obs, |s, p| {
            Measure::Plain.run(model, s, p, parallelism, obs)
        })?;
        let (assignments, performances): (Vec<Assignment>, Vec<f64>) = slots
            .into_iter()
            .filter_map(|(slot, _)| slot.measured)
            .unzip();
        obs.counter_add("study_measurements_total", performances.len() as u64);
        let study = SampleStudy {
            assignments,
            performances,
        };
        let elapsed = span.finish();
        obs.emit(|| {
            Event::new("study_done")
                .with("n", study.len())
                .with("best", study.best_performance())
                .with("wall_ns", elapsed)
        });
        Ok(study)
    }

    /// Measures `n` assignments through the fallible
    /// [`PerformanceModel::try_evaluate_at`] path, retrying failed
    /// measurements and redrawing assignments whose retry budget is
    /// exhausted.
    ///
    /// Each drawn assignment gets `1 + max_retries` measurement attempts;
    /// if all fail, the draw is abandoned and a fresh assignment is drawn
    /// in its place (a failed attempt says nothing about the placement, so
    /// redrawing preserves the iid sampling the estimator needs). On a
    /// model whose measurements never fail, this produces *exactly* the
    /// same study as [`SampleStudy::run`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::Infeasible`] — the workload does not fit the machine.
    /// * [`CoreError::Measurement`] — some slot exhausted its share of the
    ///   attempt budget (`4 × (1 + max_retries)` attempts per slot, with
    ///   the whole campaign floored at 64 attempts) without producing a
    ///   measurement; the first such slot's last failure is attached.
    pub fn run_resilient<M: PerformanceModel + Sync>(
        model: &M,
        n: usize,
        seed: u64,
        max_retries: usize,
    ) -> Result<(Self, MeasurementLog), CoreError> {
        Self::run_resilient_with(
            model,
            n,
            seed,
            max_retries,
            Parallelism::default(),
            &Obs::disabled(),
            None,
        )
    }

    /// [`SampleStudy::run_resilient`] with an explicit worker count,
    /// observability, and optionally a durable store.
    ///
    /// The `n` primary assignments come from the same sequential stream
    /// as [`SampleStudy::run`] (so on a fault-free model the study is
    /// *identical* to the plain run, for any worker count). Each slot
    /// then measures independently: its fault stream is
    /// `split_seed(seed, slot)`-derived, its attempts are numbered
    /// within the slot, and replacement draws after an abandoned
    /// assignment come from a slot-private stream. No parallel state is
    /// shared, reductions ([`MeasurementLog`] sums, error selection) are
    /// order-fixed, and the result is **bit-identical for every worker
    /// count**.
    ///
    /// Beyond the fan-out instrumentation of [`SampleStudy::run_with`],
    /// the aggregated [`MeasurementLog`] is recorded as a
    /// `measurement_log` event and accumulated into the
    /// `study_attempts_total`, `study_retries_total`, and
    /// `study_redrawn_total` counters; a campaign that rejects a
    /// non-finite measurement at ingestion bumps `study_rejected_total`
    /// and records a `measurement_rejected` event.
    ///
    /// A `store` gives the same replay/resume semantics as
    /// [`SampleStudy::run_with`]. The journal records each slot's
    /// attempt/retry/redraw bookkeeping, so a resumed campaign's
    /// [`MeasurementLog`] is bit-identical too. A slot resolved from the
    /// evaluation cache consumes **zero** attempts (it skips its fault
    /// stream entirely), so a warm-cache run can report fewer attempts
    /// than a cold one — deterministically.
    ///
    /// # Errors
    ///
    /// As [`SampleStudy::run_resilient`]; when several slots exhaust
    /// their budgets, the smallest slot index's error is returned
    /// regardless of worker count, and nothing is journaled.
    pub fn run_resilient_with<M: PerformanceModel + Sync>(
        model: &M,
        n: usize,
        seed: u64,
        max_retries: usize,
        parallelism: Parallelism,
        obs: &Obs,
        store: Option<&CampaignStore>,
    ) -> Result<(Self, MeasurementLog), CoreError> {
        let span = obs.span("study_resilient_ns");
        obs.emit(|| {
            Event::new("study_start")
                .with("n", n)
                .with("seed", seed)
                .with("workers", parallelism.workers)
                .with("max_retries", max_retries)
                .with("resilient", true)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let primaries = sample_assignments(n, model.tasks(), model.topology(), &mut rng)?;
        // Per-slot share of the legacy campaign budget
        // 4·n·(1+max_retries) attempts, floored at 64 campaign-wide.
        let per_slot_attempts = n.max(1) * (1 + max_retries);
        let ladder = Ladder {
            stream_salt: seed ^ MEASURE_SALT,
            redraw_salt: seed ^ REDRAW_SALT,
            max_retries,
            draw_cap: 4usize.max(64usize.div_ceil(per_slot_attempts)),
            exhausted_is_error: true,
        };
        let journal = store.map(|store| Journal {
            store,
            campaign: persist::resilient_campaign_id(
                seed,
                n,
                max_retries,
                model.tasks(),
                model.topology(),
            ),
            sequence: 0,
        });
        let slots = measure_slots(&slot_ids(n), &primaries, journal, &NoPeers, obs, |s, p| {
            Measure::Ladder(ladder).run(model, s, p, parallelism, obs)
        })?;

        let mut log = MeasurementLog::default();
        let mut assignments = Vec::with_capacity(n);
        let mut performances = Vec::with_capacity(n);
        for (slot, _) in slots {
            log.attempts += slot.attempts;
            log.retries += slot.retries;
            log.redrawn += slot.redrawn;
            if let Some((assignment, value)) = slot.measured {
                assignments.push(assignment);
                performances.push(value);
            }
        }
        let study = match SampleStudy::from_measurements(assignments, performances) {
            Ok(study) => study,
            Err(e) => {
                obs.counter_add("study_rejected_total", 1);
                obs.emit(|| Event::new("measurement_rejected").with("error", e.to_string()));
                return Err(e);
            }
        };
        obs.counter_add("study_measurements_total", study.len() as u64);
        obs.counter_add("study_attempts_total", log.attempts as u64);
        obs.counter_add("study_retries_total", log.retries as u64);
        obs.counter_add("study_redrawn_total", log.redrawn as u64);
        let elapsed = span.finish();
        obs.emit(|| {
            Event::new("measurement_log")
                .with("n", study.len())
                .with("attempts", log.attempts)
                .with("retries", log.retries)
                .with("redrawn", log.redrawn)
                .with("extra_attempts", log.extra_attempts(n))
                .with("best", study.best_performance())
                .with("wall_ns", elapsed)
        });
        Ok((study, log))
    }

    /// Wraps externally measured data (e.g. measurements reused across
    /// studies, or real-hardware numbers).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Domain`] when the vectors disagree in length or
    /// are empty, and [`CoreError::Measurement`] when a performance value
    /// is non-finite — a NaN admitted here would surface much later as a
    /// comparison panic or a corrupted tail fit, so ingestion is where it
    /// is rejected.
    pub fn from_measurements(
        assignments: Vec<Assignment>,
        performances: Vec<f64>,
    ) -> Result<Self, CoreError> {
        if assignments.len() != performances.len() || assignments.is_empty() {
            return Err(CoreError::Domain(format!(
                "mismatched or empty study: {} assignments, {} performances",
                assignments.len(),
                performances.len()
            )));
        }
        if let Some(&bad) = performances.iter().find(|p| !p.is_finite()) {
            return Err(CoreError::Measurement(MeasureError::NonFinite(bad)));
        }
        Ok(SampleStudy {
            assignments,
            performances,
        })
    }

    /// The measured performances, in draw order.
    pub fn performances(&self) -> &[f64] {
        &self.performances
    }

    /// The drawn assignments, in draw order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Number of measured assignments.
    pub fn len(&self) -> usize {
        self.performances.len()
    }

    /// Whether the study is empty (never true for a constructed study).
    pub fn is_empty(&self) -> bool {
        self.performances.is_empty()
    }

    /// Best measured performance.
    pub fn best_performance(&self) -> f64 {
        self.performances
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The best-performing assignment in the sample.
    ///
    /// Cannot panic: non-finite performances (which ingestion rejects, but
    /// a custom [`PerformanceModel::evaluate`] could still emit through
    /// [`SampleStudy::run`]) are skipped rather than compared, matching
    /// [`SampleStudy::best_performance`]'s NaN-ignoring maximum.
    pub fn best_assignment(&self) -> &Assignment {
        let mut idx = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &p) in self.performances.iter().enumerate() {
            if p.is_finite() && p > best {
                best = p;
                idx = i;
            }
        }
        &self.assignments[idx]
    }

    /// A study over the first `n` draws — an iid subsample, used for the
    /// paper's sample-size comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Domain`] when `n` is zero or exceeds the
    /// study size — an out-of-range prefix is a caller bug, but one a
    /// typed error reports far more usefully than a panic deep inside a
    /// long measurement campaign.
    pub fn prefix(&self, n: usize) -> Result<SampleStudy, CoreError> {
        if n == 0 || n > self.len() {
            return Err(CoreError::Domain(format!(
                "prefix size {n} out of range 1..={}",
                self.len()
            )));
        }
        Ok(SampleStudy {
            assignments: self.assignments[..n].to_vec(),
            performances: self.performances[..n].to_vec(),
        })
    }

    /// Extends the study with additional measured draws (the iterative
    /// algorithm's N_delta step).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Domain`] when the vectors disagree in
    /// length, and [`CoreError::Measurement`] when a performance value
    /// is non-finite — the same ingestion contract as
    /// [`SampleStudy::from_measurements`]; on error the study is left
    /// unchanged.
    pub fn extend_measured(
        &mut self,
        assignments: Vec<Assignment>,
        performances: Vec<f64>,
    ) -> Result<(), CoreError> {
        if assignments.len() != performances.len() {
            return Err(CoreError::Domain(format!(
                "mismatched extension: {} assignments, {} performances",
                assignments.len(),
                performances.len()
            )));
        }
        if let Some(&bad) = performances.iter().find(|p| !p.is_finite()) {
            return Err(CoreError::Measurement(MeasureError::NonFinite(bad)));
        }
        self.assignments.extend(assignments);
        self.performances.extend(performances);
        Ok(())
    }

    /// Runs the POT estimation of the optimal system performance over this
    /// study's measurements.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures (too little data, unbounded tail).
    pub fn estimate_optimal(&self, config: &PotConfig) -> Result<PotAnalysis, CoreError> {
        PotAnalysis::run(&self.performances, config).map_err(CoreError::from)
    }

    /// Runs the resilient estimation ladder
    /// ([`optassign_evt::resilient::estimate_resilient`]) over this study's
    /// measurements. On clean data the result is identical to
    /// [`SampleStudy::estimate_optimal`]; on contaminated or degenerate
    /// data it degrades through the fallback ladder instead of failing,
    /// and the returned report says which estimator actually ran.
    ///
    /// # Errors
    ///
    /// Propagates ladder failures (fewer than ten finite observations, or
    /// a restrictive [`optassign_evt::resilient::FallbackPolicy`]).
    pub fn estimate_resilient(
        &self,
        config: &ResilientConfig,
    ) -> Result<EstimateReport, CoreError> {
        estimate_resilient(&self.performances, config).map_err(CoreError::from)
    }

    /// [`SampleStudy::estimate_resilient`] with observability: rung
    /// attempts, degradations, and the final estimate are recorded
    /// through `obs` (see
    /// [`optassign_evt::resilient::estimate_resilient_obs`]). The
    /// returned report is bit-identical to the unobserved call.
    ///
    /// # Errors
    ///
    /// As [`SampleStudy::estimate_resilient`].
    pub fn estimate_resilient_obs(
        &self,
        config: &ResilientConfig,
        obs: &Obs,
    ) -> Result<EstimateReport, CoreError> {
        estimate_resilient_obs(&self.performances, config, obs).map_err(CoreError::from)
    }

    /// The paper's Figure 12 metric for this study: estimated headroom
    /// `(UPB − best observed) / UPB`.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn improvement_headroom(&self, config: &PotConfig) -> Result<f64, CoreError> {
        Ok(self.estimate_optimal(config)?.improvement_headroom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SyntheticModel;
    use optassign_sim::Topology;

    fn model() -> SyntheticModel {
        SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6)
    }

    #[test]
    fn study_is_reproducible() {
        let m = model();
        let a = SampleStudy::run(&m, 100, 7).unwrap();
        let b = SampleStudy::run(&m, 100, 7).unwrap();
        assert_eq!(a.performances(), b.performances());
        let c = SampleStudy::run(&m, 100, 8).unwrap();
        assert_ne!(a.performances(), c.performances());
    }

    #[test]
    fn best_tracks_maximum() {
        let m = model();
        let s = SampleStudy::run(&m, 500, 1).unwrap();
        let max = s
            .performances()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.best_performance(), max);
        assert_eq!(m.evaluate(s.best_assignment()), max);
        assert!(max <= m.true_optimum() + 1e-9);
    }

    #[test]
    fn prefix_is_a_true_prefix() {
        let m = model();
        let s = SampleStudy::run(&m, 300, 2).unwrap();
        let p = s.prefix(100).unwrap();
        assert_eq!(p.len(), 100);
        assert_eq!(p.performances(), &s.performances()[..100]);
        assert!(p.best_performance() <= s.best_performance());
    }

    #[test]
    fn prefix_bounds_checked() {
        let m = model();
        let s = SampleStudy::run(&m, 10, 3).unwrap();
        for bad in [0, 11, usize::MAX] {
            match s.prefix(bad) {
                Err(CoreError::Domain(msg)) => {
                    assert!(msg.contains("out of range"), "unhelpful message: {msg}")
                }
                other => panic!("expected Domain error for prefix({bad}), got {other:?}"),
            }
        }
        assert!(s.prefix(10).is_ok());
    }

    #[test]
    fn estimation_brackets_synthetic_optimum() {
        // 6 tasks on 64 contexts: random sharing losses give a bounded
        // distribution whose upper endpoint is the zero-sharing optimum.
        let m = model();
        let s = SampleStudy::run(&m, 4000, 4).unwrap();
        let est = s.estimate_optimal(&PotConfig::default()).unwrap();
        let truth = m.true_optimum();
        assert!(
            est.upb.point >= s.best_performance(),
            "UPB below best observation"
        );
        assert!(
            (est.upb.point - truth).abs() / truth < 0.05,
            "UPB {} vs truth {truth}",
            est.upb.point
        );
        let headroom = s.improvement_headroom(&PotConfig::default()).unwrap();
        assert!((0.0..0.2).contains(&headroom), "headroom = {headroom}");
    }

    #[test]
    fn from_measurements_validates() {
        let m = model();
        let s = SampleStudy::run(&m, 10, 5).unwrap();
        let ok =
            SampleStudy::from_measurements(s.assignments().to_vec(), s.performances().to_vec());
        assert!(ok.is_ok());
        assert!(SampleStudy::from_measurements(s.assignments().to_vec(), vec![1.0]).is_err());
        assert!(SampleStudy::from_measurements(vec![], vec![]).is_err());
    }

    #[test]
    fn from_measurements_rejects_non_finite() {
        let m = model();
        let s = SampleStudy::run(&m, 10, 5).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut perfs = s.performances().to_vec();
            perfs[4] = bad;
            match SampleStudy::from_measurements(s.assignments().to_vec(), perfs) {
                Err(CoreError::Measurement(crate::model::MeasureError::NonFinite(_))) => {}
                other => panic!("expected NonFinite rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn resilient_run_on_clean_model_matches_plain_run() {
        let m = model();
        let plain = SampleStudy::run(&m, 120, 11).unwrap();
        let (resilient, log) = SampleStudy::run_resilient(&m, 120, 11, 3).unwrap();
        assert_eq!(plain.performances(), resilient.performances());
        assert_eq!(plain.assignments(), resilient.assignments());
        assert_eq!(log.attempts, 120);
        assert_eq!(log.retries, 0);
        assert_eq!(log.redrawn, 0);
        assert_eq!(log.extra_attempts(120), 0);
    }

    #[test]
    fn resilient_run_recovers_from_injected_faults() {
        use crate::fault::{FaultPlan, FaultyModel};
        let m = FaultyModel::new(model(), FaultPlan::light(3));
        let (study, log) = SampleStudy::run_resilient(&m, 400, 12, 3).unwrap();
        assert_eq!(study.len(), 400);
        assert!(study.performances().iter().all(|p| p.is_finite()));
        // A 1% failure rate over 400 draws virtually guarantees retries.
        assert!(log.attempts > 400, "attempts = {}", log.attempts);
        assert!(log.retries > 0);
    }

    #[test]
    fn resilient_run_errors_when_budget_exhausted() {
        use crate::fault::{FaultPlan, FaultyModel};
        // Every measurement fails: the attempt budget must trip, typed.
        let plan = FaultPlan {
            fail_rate: 1.0,
            ..FaultPlan::none(1)
        };
        let m = FaultyModel::new(model(), plan);
        match SampleStudy::run_resilient(&m, 50, 13, 2) {
            Err(CoreError::Measurement(_)) => {}
            other => panic!("expected Measurement error, got {other:?}"),
        }
    }

    #[test]
    fn resilient_estimate_matches_strict_on_clean_study() {
        let m = model();
        let s = SampleStudy::run(&m, 2000, 14).unwrap();
        let strict = s.estimate_optimal(&PotConfig::default()).unwrap();
        let report = s
            .estimate_resilient(&optassign_evt::ResilientConfig::default())
            .unwrap();
        assert_eq!(report.upb.point, strict.upb.point);
        assert!(!report.is_degraded());
    }

    #[test]
    fn best_assignment_skips_non_finite_without_panicking() {
        let m = model();
        let s = SampleStudy::run(&m, 20, 15).unwrap();
        // Build a study with a NaN smuggled in past ingestion.
        let mut smuggled = s.clone();
        smuggled.performances[0] = f64::NAN;
        let best = smuggled.best_assignment();
        let best_perf = smuggled.best_performance();
        assert!(best_perf.is_finite());
        assert_eq!(m.evaluate(best), best_perf);
    }

    #[test]
    fn extend_grows_the_study() {
        let m = model();
        let mut s = SampleStudy::run(&m, 50, 6).unwrap();
        let extra = SampleStudy::run(&m, 25, 7).unwrap();
        s.extend_measured(extra.assignments().to_vec(), extra.performances().to_vec())
            .unwrap();
        assert_eq!(s.len(), 75);
        assert!(!s.is_empty());
    }

    #[test]
    fn extend_rejects_mismatched_lengths_without_mutating() {
        let m = model();
        let mut s = SampleStudy::run(&m, 20, 6).unwrap();
        let extra = SampleStudy::run(&m, 5, 7).unwrap();
        match s.extend_measured(extra.assignments().to_vec(), vec![1.0, 2.0]) {
            Err(CoreError::Domain(msg)) => {
                assert!(msg.contains("mismatched"), "unhelpful message: {msg}")
            }
            other => panic!("expected Domain error, got {other:?}"),
        }
        assert_eq!(s.len(), 20, "failed extension must not mutate the study");
    }

    #[test]
    fn extend_rejects_non_finite_without_mutating() {
        let m = model();
        let mut s = SampleStudy::run(&m, 20, 6).unwrap();
        let extra = SampleStudy::run(&m, 3, 7).unwrap();
        let mut perfs = extra.performances().to_vec();
        perfs[1] = f64::NAN;
        match s.extend_measured(extra.assignments().to_vec(), perfs) {
            Err(CoreError::Measurement(crate::model::MeasureError::NonFinite(_))) => {}
            other => panic!("expected NonFinite rejection, got {other:?}"),
        }
        assert_eq!(s.len(), 20, "failed extension must not mutate the study");
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("optassign-study-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistent_run_matches_plain_and_warm_rerun_skips_evaluation() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts evaluations so the warm-cache contract is checkable.
        struct Counting<'a> {
            inner: &'a SyntheticModel,
            evals: AtomicUsize,
        }
        impl PerformanceModel for Counting<'_> {
            fn tasks(&self) -> usize {
                self.inner.tasks()
            }
            fn topology(&self) -> optassign_sim::Topology {
                self.inner.topology()
            }
            fn evaluate(&self, a: &Assignment) -> f64 {
                self.evals.fetch_add(1, Ordering::Relaxed);
                self.inner.evaluate(a)
            }
        }

        let dir = store_dir("plain");
        // Zero jitter makes the model canonical-invariant, so
        // cross-campaign cache hits are exact (see the cache-key note on
        // [`SampleStudy::run_with`]).
        let mut m = model();
        m.jitter = 0.0;
        let plain = SampleStudy::run(&m, 80, 21).unwrap();
        let store = CampaignStore::open(&dir).unwrap();
        let counting = Counting {
            inner: &m,
            evals: AtomicUsize::new(0),
        };
        let cold = SampleStudy::run_with(
            &counting,
            80,
            21,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(cold.performances(), plain.performances());
        assert_eq!(counting.evals.load(Ordering::Relaxed), 80);

        // Same campaign on the same store: full replay, zero evaluations —
        // both on the live handle and on a fresh open.
        let warm = SampleStudy::run_with(
            &counting,
            80,
            21,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(warm.performances(), plain.performances());
        assert_eq!(counting.evals.load(Ordering::Relaxed), 80);
        drop(store);
        let reopened = CampaignStore::open(&dir).unwrap();
        let resumed = SampleStudy::run_with(
            &counting,
            80,
            21,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&reopened),
        )
        .unwrap();
        assert_eq!(resumed.performances(), plain.performances());
        assert_eq!(counting.evals.load(Ordering::Relaxed), 80);

        // A different seed is a different campaign but shares the
        // evaluation cache: only assignments never seen before evaluate.
        let fresh_plain = SampleStudy::run(&m, 80, 22).unwrap();
        let fresh = SampleStudy::run_with(
            &counting,
            80,
            22,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&reopened),
        )
        .unwrap();
        assert_eq!(fresh.performances(), fresh_plain.performances());
        assert!(counting.evals.load(Ordering::Relaxed) <= 160);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolution_counters_tell_replays_from_cache_hits() {
        let dir = store_dir("counters");
        let store = CampaignStore::open(&dir).unwrap();
        // 24 tasks: no assignment class repeats among 120 draws, so only
        // the shared prefix can hit the cache (6 tasks repeat often).
        let m = SyntheticModel::new(Topology::ultrasparc_t2(), 24, 1.0e6);
        let resolve = |n: usize| {
            let obs = Obs::metrics_only();
            SampleStudy::run_with(&m, n, 41, Parallelism::default(), &obs, Some(&store)).unwrap();
            let snap = obs.metrics();
            [
                "exec_replayed_total",
                "exec_cache_hits_total",
                "exec_cache_misses_total",
                "exec_regions_total",
            ]
            .map(|name| snap.counter(name))
        };
        assert_eq!(resolve(80), [0, 0, 80, 1], "cold: every slot measures");
        // The same campaign again: every slot replays from the journal,
        // and a batch with nothing left to measure enters no parallel
        // region.
        assert_eq!(resolve(80), [80, 0, 0, 0], "rerun");
        // A longer study on the same seed is another campaign whose first
        // 80 draws are the first one's: they hit the evaluation cache.
        assert_eq!(resolve(120), [0, 80, 40, 1], "longer study");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_resilient_run_matches_plain_with_log() {
        use crate::fault::{FaultPlan, FaultyModel};
        let dir = store_dir("resilient");
        let m = FaultyModel::new(model(), FaultPlan::light(29));
        let (plain, plain_log) = SampleStudy::run_resilient(&m, 90, 29, 3).unwrap();
        let store = CampaignStore::open(&dir).unwrap();
        m.reset();
        let (cold, cold_log) = SampleStudy::run_resilient_with(
            &m,
            90,
            29,
            3,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(cold.performances(), plain.performances());
        assert_eq!(cold.assignments(), plain.assignments());
        assert_eq!(cold_log, plain_log);

        // Replay restores the full bookkeeping, not just the values.
        drop(store);
        let reopened = CampaignStore::open(&dir).unwrap();
        m.reset();
        let (warm, warm_log) = SampleStudy::run_resilient_with(
            &m,
            90,
            29,
            3,
            Parallelism::default(),
            &Obs::disabled(),
            Some(&reopened),
        )
        .unwrap();
        assert_eq!(warm.performances(), plain.performances());
        assert_eq!(warm.assignments(), plain.assignments());
        assert_eq!(warm_log, plain_log);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let m = model();
        let serial =
            SampleStudy::run_with(&m, 200, 17, Parallelism::serial(), &Obs::disabled(), None)
                .unwrap();
        for workers in [2, 4, 7] {
            let par = SampleStudy::run_with(
                &m,
                200,
                17,
                Parallelism::new(workers),
                &Obs::disabled(),
                None,
            )
            .unwrap();
            assert_eq!(
                par.performances(),
                serial.performances(),
                "workers={workers}"
            );
            assert_eq!(par.assignments(), serial.assignments(), "workers={workers}");
        }
    }

    #[test]
    fn parallel_resilient_run_is_bit_identical_to_serial() {
        use crate::fault::{FaultPlan, FaultyModel};
        // The harsh plan includes stuck-counter faults, whose per-stream
        // memory persists across campaigns on a shared model — so each
        // worker count gets a freshly reset model, as a real experiment
        // would.
        let m = FaultyModel::new(model(), FaultPlan::harsh(23));
        let (serial, serial_log) = SampleStudy::run_resilient_with(
            &m,
            150,
            23,
            3,
            Parallelism::serial(),
            &Obs::disabled(),
            None,
        )
        .unwrap();
        for workers in [2, 4, 7] {
            m.reset();
            let (par, par_log) = SampleStudy::run_resilient_with(
                &m,
                150,
                23,
                3,
                Parallelism::new(workers),
                &Obs::disabled(),
                None,
            )
            .unwrap();
            assert_eq!(
                par.performances(),
                serial.performances(),
                "workers={workers}"
            );
            assert_eq!(par.assignments(), serial.assignments(), "workers={workers}");
            assert_eq!(par_log, serial_log, "workers={workers}");
        }
    }

    #[test]
    fn observed_runs_are_bit_identical_and_record_measurements() {
        use optassign_obs::{FakeClock, MemoryRecorder, Obs};
        use std::sync::Arc;

        let m = model();
        let plain =
            SampleStudy::run_with(&m, 120, 31, Parallelism::serial(), &Obs::disabled(), None)
                .unwrap();
        let (plain_res, plain_log) = SampleStudy::run_resilient_with(
            &m,
            120,
            31,
            2,
            Parallelism::serial(),
            &Obs::disabled(),
            None,
        )
        .unwrap();
        for workers in [1, 4] {
            let recorder = Arc::new(MemoryRecorder::default());
            let obs = Obs::new(
                Box::new(Arc::clone(&recorder)),
                Box::new(Arc::new(FakeClock::new(0))),
            );
            let par = Parallelism::new(workers);
            let observed = SampleStudy::run_with(&m, 120, 31, par, &obs, None).unwrap();
            assert_eq!(observed.performances(), plain.performances());

            let (obs_res, obs_log) =
                SampleStudy::run_resilient_with(&m, 120, 31, 2, par, &obs, None).unwrap();
            assert_eq!(obs_res.performances(), plain_res.performances());
            assert_eq!(obs_log, plain_log);

            let metrics = obs.metrics();
            assert_eq!(metrics.counter("study_measurements_total"), 240);
            assert_eq!(metrics.counter("study_attempts_total"), 120);
            let lines = recorder.lines();
            assert!(lines.iter().any(|l| l.contains("\"measurement_log\"")));
            assert!(lines.iter().any(|l| l.contains("\"study_done\"")));
        }
    }

    #[test]
    fn resilient_budget_error_is_deterministic_across_worker_counts() {
        use crate::fault::{FaultPlan, FaultyModel};
        let plan = FaultPlan {
            fail_rate: 1.0,
            ..FaultPlan::none(1)
        };
        let m = FaultyModel::new(model(), plan);
        let serial_err = match SampleStudy::run_resilient_with(
            &m,
            30,
            13,
            2,
            Parallelism::serial(),
            &Obs::disabled(),
            None,
        ) {
            Err(CoreError::Measurement(e)) => e,
            other => panic!("expected Measurement error, got {other:?}"),
        };
        for workers in [2, 4, 7] {
            match SampleStudy::run_resilient_with(
                &m,
                30,
                13,
                2,
                Parallelism::new(workers),
                &Obs::disabled(),
                None,
            ) {
                Err(CoreError::Measurement(e)) => {
                    assert_eq!(e, serial_err, "workers={workers}")
                }
                other => panic!("expected Measurement error, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausted_persistent_resilient_run_journals_nothing() {
        use crate::fault::{FaultPlan, FaultyModel};
        // Most slots measure, a few exhaust every draw: the run fails on
        // the smallest such slot, and not even the measured slots reach
        // the journal.
        let plan = FaultPlan {
            fail_rate: 0.6,
            ..FaultPlan::none(2)
        };
        let m = FaultyModel::new(model(), plan);
        let campaign = persist::resilient_campaign_id(13, 20, 0, m.tasks(), m.topology());
        let mut serial_err = None;
        for workers in [1, 2, 4, 7] {
            let par = Parallelism::new(workers);
            let unstored =
                SampleStudy::run_resilient_with(&m, 20, 13, 0, par, &Obs::disabled(), None);
            let dir = store_dir(&format!("exhausted-{workers}"));
            let store = CampaignStore::open(&dir).unwrap();
            let stored =
                SampleStudy::run_resilient_with(&m, 20, 13, 0, par, &Obs::disabled(), Some(&store));
            let err = match (unstored, stored) {
                (Err(CoreError::Measurement(a)), Err(CoreError::Measurement(b))) => {
                    assert_eq!(a, b, "workers={workers}");
                    a
                }
                other => panic!("expected two Measurement errors, got {other:?}"),
            };
            // Every worker count reports the same (smallest) failing slot.
            assert_eq!(
                serial_err.get_or_insert_with(|| err.clone()),
                &err,
                "workers={workers}"
            );
            assert!((0..20).all(|slot| store.lookup_slot(campaign, 0, slot).is_none()));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
