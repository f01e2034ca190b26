//! Resilient UPB estimation: input sanitization plus a fallback ladder.
//!
//! [`PotAnalysis::run`] is deliberately strict — any non-finite input, tied
//! tail, or optimizer failure aborts the analysis. That is the right
//! contract for clean simulator output, but real measurement pipelines
//! feed the estimator contaminated samples: dropped runs, outlier spikes,
//! quantized ties (see `optassign::fault` in the core crate). This module
//! wraps the strict pipeline in a provenance-tracking retry ladder:
//!
//! 1. **Profile MLE** — the paper's estimator, exactly as
//!    [`PotAnalysis::run`] computes it. Clean inputs never descend past
//!    this rung, so resilient estimates on clean data are *identical* to
//!    the strict pipeline's.
//! 2. **Restarted MLE** — refits the tail with
//!    [`fit_mle_restarts`](crate::fit::fit_mle_restarts) (seeded,
//!    perturbed Nelder–Mead initial simplices) and takes the UPB from the
//!    profile likelihood, or from the refitted model's upper bound when
//!    the profile itself will not converge.
//! 3. **Threshold rescan** — re-runs the strict pipeline across a ladder
//!    of exceedance fractions; a spuriously non-negative shape estimate at
//!    one threshold is often an artifact of that threshold.
//! 4. **PWM** — the Hosking–Wallis probability-weighted-moments fit, whose
//!    closed form cannot fail to converge; the UPB is the fitted model's
//!    upper bound, reported without a likelihood-based interval.
//! 5. **Bootstrap of the maximum** — the estimator of last resort: the
//!    observed maximum with a percentile-bootstrap lower band. It cannot
//!    extrapolate past the data (see [`crate::bootstrap`]) and is reported
//!    as degraded.
//!
//! Every successful estimate comes back as an [`EstimateReport`] recording
//! which rung produced it, how many rungs failed before it, how many
//! non-finite inputs were discarded, and the goodness-of-fit diagnostics
//! when a GPD fit exists.

use crate::bootstrap::bootstrap_max;
use crate::fit::{self, FitMethod};
use crate::pot::{self, PotAnalysis, PotConfig, ThresholdRule};
use crate::profile::{estimate_upb, UpbEstimate};
use crate::EvtError;
use optassign_obs::{Event, Obs};

/// How far down the fallback ladder the resilient estimator may descend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Rung 1 only: behave exactly like the strict pipeline and propagate
    /// its error. Useful as the ablation baseline.
    Strict,
    /// Rungs 1–3: only profile-likelihood / MLE-grade estimates.
    Profile,
    /// All five rungs; the estimator only errors when fewer than ten
    /// finite observations survive sanitization.
    Full,
}

/// Configuration for [`estimate_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientConfig {
    /// The strict pipeline configuration used for rung 1 (and rung 2's
    /// threshold).
    pub base: PotConfig,
    /// Ladder depth.
    pub policy: FallbackPolicy,
    /// Perturbed Nelder–Mead restarts consumed by rung 2.
    pub restarts: usize,
    /// Exceedance fractions scanned by rung 3 (and rung 4), in order.
    pub rescan_fractions: Vec<f64>,
    /// Replicates for the rung-5 bootstrap.
    pub bootstrap_replicates: usize,
    /// Seed for the perturbed restarts and the bootstrap.
    pub seed: u64,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            base: PotConfig::default(),
            policy: FallbackPolicy::Full,
            restarts: 4,
            // Wider thresholds first (more exceedances stabilize the fit),
            // then tighter ones (a cleaner tail may fit where a wide one
            // mixed in the distribution body).
            rescan_fractions: vec![0.075, 0.10, 0.15, 0.035, 0.025],
            bootstrap_replicates: 400,
            seed: 0,
        }
    }
}

/// Which rung of the ladder produced an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateMethod {
    /// Rung 1: the paper's profile-likelihood MLE at the configured
    /// threshold.
    ProfileMle,
    /// Rung 2: MLE after seeded perturbed restarts.
    RestartedMle,
    /// Rung 3: profile MLE at a rescanned exceedance fraction.
    ThresholdRescan {
        /// The fraction that produced the accepted estimate.
        fraction: f64,
    },
    /// Rung 4: PWM fit; UPB is the fitted model's upper bound.
    Pwm {
        /// The exceedance fraction of the accepted PWM fit.
        fraction: f64,
    },
    /// Rung 5: observed maximum with a bootstrap lower band.
    BootstrapMax,
}

impl EstimateMethod {
    /// Whether the estimate lost the profile-likelihood grounding the
    /// paper's method relies on. Degraded estimates cannot certify a
    /// convergence gap (they do not extrapolate past the data reliably).
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            EstimateMethod::Pwm { .. } | EstimateMethod::BootstrapMax
        )
    }

    /// Short stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            EstimateMethod::ProfileMle => "profile-mle",
            EstimateMethod::RestartedMle => "restarted-mle",
            EstimateMethod::ThresholdRescan { .. } => "threshold-rescan",
            EstimateMethod::Pwm { .. } => "pwm",
            EstimateMethod::BootstrapMax => "bootstrap-max",
        }
    }
}

/// A rung that was tried and failed before the accepted estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedAttempt {
    /// Which stage failed (same vocabulary as [`EstimateMethod::name`]).
    pub stage: &'static str,
    /// Rendered error.
    pub error: String,
}

/// Goodness-of-fit diagnostics carried over from the strict pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct GofDiagnostics {
    /// R² of the mean-excess tail above the threshold.
    pub mean_excess_r2: f64,
    /// R² of the GPD Q–Q plot.
    pub quantile_plot_r2: f64,
    /// Kolmogorov–Smirnov distance between exceedances and the fit.
    pub ks_distance: f64,
}

/// A resilient estimate with full provenance.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The estimate. For degraded methods `ci_high` is `None` and, for
    /// [`EstimateMethod::BootstrapMax`], `shape`, `threshold` and
    /// `max_log_likelihood` are `NaN` (no model was fitted).
    pub upb: UpbEstimate,
    /// The rung that produced [`EstimateReport::upb`].
    pub method: EstimateMethod,
    /// Non-finite observations discarded by sanitization.
    pub discarded: usize,
    /// Finite observations used.
    pub n_used: usize,
    /// Best finite observation.
    pub best_observed: f64,
    /// Rungs that failed before the accepted one (provenance trail).
    pub attempts: Vec<FailedAttempt>,
    /// GoF diagnostics, when the winning rung fitted a GPD through the
    /// strict pipeline.
    pub diagnostics: Option<GofDiagnostics>,
}

impl EstimateReport {
    /// Number of failed attempts consumed before the accepted estimate.
    pub fn retries(&self) -> usize {
        self.attempts.len()
    }

    /// Whether the accepted estimate is degraded
    /// (see [`EstimateMethod::is_degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.method.is_degraded()
    }

    /// The paper's headroom metric, `(UPB − best observed)/UPB`.
    pub fn improvement_headroom(&self) -> f64 {
        if self.upb.point.is_nan() || self.upb.point <= 0.0 {
            return 0.0;
        }
        ((self.upb.point - self.best_observed) / self.upb.point).max(0.0)
    }

    /// Renders this report as a structured journal event (kind
    /// `estimate`), carrying the winning rung, the UPB, the gap, and
    /// the ladder's provenance counters.
    pub fn to_event(&self) -> Event {
        let mut e = Event::new("estimate")
            .with("method", self.method.name())
            .with("degraded", self.is_degraded())
            .with("upb", self.upb.point)
            .with("ci_low", self.upb.ci_low)
            .with("best_observed", self.best_observed)
            .with("gap", self.improvement_headroom())
            .with("n_used", self.n_used)
            .with("discarded", self.discarded)
            .with("rung_failures", self.retries());
        if let EstimateMethod::ThresholdRescan { fraction } | EstimateMethod::Pwm { fraction } =
            self.method
        {
            e = e.with("fraction", fraction);
        }
        e
    }
}

/// Runs the fallback ladder over a (possibly contaminated) sample.
///
/// # Errors
///
/// * [`EvtError::NotEnoughData`] when fewer than ten finite observations
///   survive sanitization (no rung can work with less).
/// * With [`FallbackPolicy::Strict`] or [`FallbackPolicy::Profile`], the
///   last rung's error when every permitted rung failed.
///
/// # Examples
///
/// ```
/// use optassign_evt::gpd::Gpd;
/// use optassign_evt::resilient::{estimate_resilient, ResilientConfig};
///
/// let g = Gpd::new(-0.4, 1.0).unwrap();
/// let mut rng = optassign_stats::rng::StdRng::seed_from_u64(8);
/// let mut sample: Vec<f64> = (0..2000).map(|_| 10.0 + g.sample(&mut rng)).collect();
/// sample[7] = f64::NAN; // a corrupted measurement
/// let report = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
/// assert_eq!(report.discarded, 1);
/// assert!((report.upb.point - 12.5).abs() < 0.5);
/// ```
pub fn estimate_resilient(
    sample: &[f64],
    cfg: &ResilientConfig,
) -> Result<EstimateReport, EvtError> {
    // ---- rung 0: sanitize ----------------------------------------------
    let clean: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
    let discarded = sample.len() - clean.len();
    if clean.len() < 10 {
        return Err(EvtError::NotEnoughData {
            what: "resilient estimation (finite observations)",
            needed: 10,
            got: clean.len(),
        });
    }
    let best_observed = clean.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut attempts: Vec<FailedAttempt> = Vec::new();
    let report = |upb, method, attempts, diagnostics| EstimateReport {
        upb,
        method,
        discarded,
        n_used: clean.len(),
        best_observed,
        attempts,
        diagnostics,
    };

    // ---- rung 1: the paper's pipeline, verbatim -------------------------
    match PotAnalysis::run(&clean, &cfg.base) {
        Ok(a) => {
            return Ok(report(
                a.upb.clone(),
                EstimateMethod::ProfileMle,
                attempts,
                Some(diagnostics_of(&a)),
            ));
        }
        Err(e) => {
            if cfg.policy == FallbackPolicy::Strict {
                return Err(e);
            }
            attempts.push(FailedAttempt {
                stage: "profile-mle",
                error: e.to_string(),
            });
        }
    }

    let sorted = optassign_stats::descriptive::sorted(&clean);

    // ---- rung 2: restarted MLE at the base threshold ---------------------
    match restarted_mle(&sorted, cfg, best_observed) {
        Ok(upb) => return Ok(report(upb, EstimateMethod::RestartedMle, attempts, None)),
        Err(e) => attempts.push(FailedAttempt {
            stage: "restarted-mle",
            error: e.to_string(),
        }),
    }

    // ---- rung 3: threshold rescan ---------------------------------------
    for &f in &cfg.rescan_fractions {
        let scan_cfg = PotConfig {
            threshold: ThresholdRule::FractionAbove(f),
            ..cfg.base.clone()
        };
        match PotAnalysis::run(&clean, &scan_cfg) {
            Ok(a) => {
                return Ok(report(
                    a.upb.clone(),
                    EstimateMethod::ThresholdRescan { fraction: f },
                    attempts,
                    Some(diagnostics_of(&a)),
                ));
            }
            Err(e) => attempts.push(FailedAttempt {
                stage: "threshold-rescan",
                error: format!("fraction {f}: {e}"),
            }),
        }
    }
    if cfg.policy == FallbackPolicy::Profile {
        return Err(EvtError::Numerical(format!(
            "all profile-grade rungs failed ({} attempts); policy forbids degraded estimates",
            attempts.len()
        )));
    }

    // ---- rung 4: PWM across the same fractions ---------------------------
    let base_fraction = match cfg.base.threshold {
        ThresholdRule::FractionAbove(f) => Some(f),
        ThresholdRule::MostLinearTail { max_fraction } => Some(max_fraction),
        ThresholdRule::Explicit(_) => None,
    };
    for f in base_fraction.iter().chain(cfg.rescan_fractions.iter()) {
        match pwm_upb(&sorted, *f, best_observed, cfg.base.confidence) {
            Ok(upb) => {
                return Ok(report(
                    upb,
                    EstimateMethod::Pwm { fraction: *f },
                    attempts,
                    None,
                ));
            }
            Err(e) => attempts.push(FailedAttempt {
                stage: "pwm",
                error: format!("fraction {f}: {e}"),
            }),
        }
    }

    // ---- rung 5: bootstrap of the maximum --------------------------------
    let boot = bootstrap_max(
        &clean,
        cfg.bootstrap_replicates.max(1),
        cfg.base.confidence,
        cfg.seed ^ 0xB007,
    )?;
    let upb = UpbEstimate {
        // The honest degraded point estimate is the observed maximum: the
        // bootstrap cannot extrapolate beyond it, only band it from below.
        point: boot.observed_max,
        ci_low: boot.ci_low,
        ci_high: None,
        confidence: cfg.base.confidence,
        shape: f64::NAN,
        threshold: f64::NAN,
        n_exceedances: 0,
        max_log_likelihood: f64::NAN,
    };
    Ok(report(upb, EstimateMethod::BootstrapMax, attempts, None))
}

/// [`estimate_resilient`] with observability: each failed rung becomes
/// an `estimate_attempt` event (threshold scans carry their fraction in
/// the error text), the accepted estimate an `estimate` event, and the
/// ladder's outcome lands in the `evt_*` counters plus the
/// `evt_estimate_ns` span histogram.
///
/// The returned report — and every numeric inside it — is bit-identical
/// to the unobserved call: the estimator runs first, untouched, and the
/// recording happens after the fact from its provenance trail.
///
/// # Errors
///
/// As [`estimate_resilient`].
pub fn estimate_resilient_obs(
    sample: &[f64],
    cfg: &ResilientConfig,
    obs: &Obs,
) -> Result<EstimateReport, EvtError> {
    let span = obs.span("evt_estimate_ns");
    let result = estimate_resilient(sample, cfg);
    span.finish();
    match &result {
        Ok(report) => {
            for attempt in &report.attempts {
                obs.counter_add("evt_rung_failures_total", 1);
                obs.emit(|| {
                    Event::new("estimate_attempt")
                        .with("stage", attempt.stage)
                        .with("error", attempt.error.as_str())
                });
            }
            obs.counter_add("evt_estimates_total", 1);
            if report.is_degraded() {
                obs.counter_add("evt_degraded_total", 1);
            }
            obs.emit(|| report.to_event());
        }
        Err(e) => {
            obs.counter_add("evt_estimate_errors_total", 1);
            obs.emit(|| Event::new("estimate_failed").with("error", e.to_string()));
        }
    }
    result
}

fn diagnostics_of(a: &PotAnalysis) -> GofDiagnostics {
    GofDiagnostics {
        mean_excess_r2: a.mean_excess_r2,
        quantile_plot_r2: a.quantile_plot_r2,
        ks_distance: a.ks_distance,
    }
}

/// The strict pipeline's threshold for the top `fraction` of the
/// ascending-sorted sample, with the exceedances over it (the ladder needs
/// raw exceedances, not a full analysis).
fn exceedances_at(sorted: &[f64], fraction: f64) -> Option<(f64, Vec<f64>)> {
    if sorted.len() < 2 || !(fraction > 0.0 && fraction < 1.0) {
        return None;
    }
    let u = pot::threshold_for_fraction(sorted, fraction);
    let ys: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|&x| x > u)
        .map(|x| x - u)
        .collect();
    if ys.len() < fit::MIN_EXCEEDANCES {
        None
    } else {
        Some((u, ys))
    }
}

/// Rung 2: refit with perturbed restarts; profile UPB if it converges,
/// otherwise the refitted model's own upper bound.
fn restarted_mle(
    sorted: &[f64],
    cfg: &ResilientConfig,
    best_observed: f64,
) -> Result<UpbEstimate, EvtError> {
    let fraction = match cfg.base.threshold {
        ThresholdRule::FractionAbove(f) => f,
        ThresholdRule::MostLinearTail { max_fraction } => max_fraction,
        ThresholdRule::Explicit(_) => 0.05,
    };
    let (u, ys) = exceedances_at(sorted, fraction).ok_or(EvtError::NotEnoughData {
        what: "exceedances over threshold",
        needed: fit::MIN_EXCEEDANCES,
        got: 0,
    })?;
    let fit = fit::fit_mle_restarts(&ys, cfg.restarts, cfg.seed ^ 0x5EED)?;
    match estimate_upb(u, &ys, cfg.base.confidence) {
        Ok(upb) => Ok(upb),
        Err(profile_err) => {
            // The profile would not converge but the refitted model did:
            // report its implied bound, floored at the best observation.
            let bound = fit.gpd.upper_bound().ok_or(profile_err)?;
            Ok(UpbEstimate {
                point: (u + bound).max(best_observed),
                ci_low: best_observed,
                ci_high: None,
                confidence: cfg.base.confidence,
                shape: fit.gpd.shape(),
                threshold: u,
                n_exceedances: ys.len(),
                max_log_likelihood: fit.log_likelihood,
            })
        }
    }
}

/// Rung 4: PWM fit at one fraction; succeeds only for a bounded tail.
fn pwm_upb(
    sorted: &[f64],
    fraction: f64,
    best_observed: f64,
    confidence: f64,
) -> Result<UpbEstimate, EvtError> {
    let (u, ys) = exceedances_at(sorted, fraction).ok_or(EvtError::NotEnoughData {
        what: "exceedances over threshold",
        needed: fit::MIN_EXCEEDANCES,
        got: 0,
    })?;
    let f = fit::fit_pwm(&ys)?;
    debug_assert_eq!(f.method, FitMethod::ProbabilityWeightedMoments);
    let bound = f.gpd.upper_bound().ok_or(EvtError::UnboundedTail {
        shape: f.gpd.shape(),
    })?;
    Ok(UpbEstimate {
        point: (u + bound).max(best_observed),
        ci_low: best_observed,
        ci_high: None,
        confidence,
        shape: f.gpd.shape(),
        threshold: u,
        n_exceedances: ys.len(),
        max_log_likelihood: f.log_likelihood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpd::Gpd;

    fn bounded_sample(n: usize, seed: u64) -> Vec<f64> {
        let g = Gpd::new(-0.4, 2.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(seed);
        (0..n).map(|_| 100.0 + g.sample(&mut rng)).collect()
    }

    #[test]
    fn clean_input_is_identical_to_strict_pipeline() {
        let sample = bounded_sample(3000, 41);
        let strict = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        let resilient = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert_eq!(resilient.method, EstimateMethod::ProfileMle);
        assert_eq!(resilient.upb, strict.upb);
        assert_eq!(resilient.retries(), 0);
        assert_eq!(resilient.discarded, 0);
        assert!(!resilient.is_degraded());
        let d = resilient.diagnostics.expect("rung 1 carries diagnostics");
        assert_eq!(d.ks_distance, strict.ks_distance);
    }

    #[test]
    fn non_finite_observations_are_discarded_not_fatal() {
        let mut sample = bounded_sample(2000, 42);
        sample[3] = f64::NAN;
        sample[100] = f64::INFINITY;
        sample[500] = f64::NEG_INFINITY;
        assert!(PotAnalysis::run(&sample, &PotConfig::default()).is_err());
        let r = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert_eq!(r.discarded, 3);
        assert_eq!(r.n_used, 1997);
        assert!((r.upb.point - 105.0).abs() < 1.0, "upb = {}", r.upb.point);
    }

    #[test]
    fn strict_policy_propagates_the_error() {
        let mut sample = bounded_sample(2000, 43);
        sample[0] = f64::NAN;
        let cfg = ResilientConfig {
            policy: FallbackPolicy::Strict,
            ..ResilientConfig::default()
        };
        // Sanitization still applies; the remaining sample is clean, so
        // strict mode succeeds here…
        assert!(estimate_resilient(&sample, &cfg).is_ok());
        // …but a sample the strict pipeline rejects (unbounded tail) fails.
        let g = Gpd::new(0.4, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(44);
        let heavy: Vec<f64> = (0..2000).map(|_| 10.0 + g.sample(&mut rng)).collect();
        match estimate_resilient(&heavy, &cfg) {
            Err(EvtError::UnboundedTail { .. }) => {}
            other => panic!("expected UnboundedTail, got {other:?}"),
        }
    }

    #[test]
    fn heavy_tail_degrades_to_bootstrap_under_full_policy() {
        // A genuinely heavy tail defeats every model-based rung; the full
        // ladder must still return something usable and honest.
        let g = Gpd::new(0.5, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(45);
        let heavy: Vec<f64> = (0..1500).map(|_| 10.0 + g.sample(&mut rng)).collect();
        let r = estimate_resilient(&heavy, &ResilientConfig::default()).unwrap();
        assert!(r.is_degraded(), "method = {:?}", r.method);
        let best = heavy.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(r.upb.point >= best - 1e-9);
        assert!(r.retries() > 0, "the ladder must record failed rungs");
    }

    #[test]
    fn profile_policy_refuses_degraded_estimates() {
        let g = Gpd::new(0.5, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(46);
        let heavy: Vec<f64> = (0..1500).map(|_| 10.0 + g.sample(&mut rng)).collect();
        let cfg = ResilientConfig {
            policy: FallbackPolicy::Profile,
            ..ResilientConfig::default()
        };
        assert!(estimate_resilient(&heavy, &cfg).is_err());
    }

    #[test]
    fn all_tied_sample_degrades_gracefully() {
        // Every observation identical: no exceedances exist over any
        // threshold, every model rung fails, and the bootstrap returns the
        // (only) observed value.
        let sample = vec![7.5; 500];
        let r = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert_eq!(r.method, EstimateMethod::BootstrapMax);
        assert_eq!(r.upb.point, 7.5);
        assert_eq!(r.upb.ci_high, None);
        assert!(r.upb.shape.is_nan());
    }

    #[test]
    fn tiny_sample_is_a_typed_error() {
        let sample = bounded_sample(8, 47);
        match estimate_resilient(&sample, &ResilientConfig::default()) {
            Err(EvtError::NotEnoughData {
                needed: 10, got: 8, ..
            }) => {}
            other => panic!("expected NotEnoughData, got {other:?}"),
        }
        // All-NaN input degenerates the same way.
        let nans = vec![f64::NAN; 100];
        assert!(estimate_resilient(&nans, &ResilientConfig::default()).is_err());
    }

    #[test]
    fn small_sample_skips_to_bootstrap() {
        // 50 observations: below PotAnalysis' 100-sample floor, above the
        // bootstrap floor. The ladder must land on the bootstrap rung.
        let sample = bounded_sample(50, 48);
        let r = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert_eq!(r.method, EstimateMethod::BootstrapMax);
        let best = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.upb.point, best);
    }

    #[test]
    fn quantized_ties_survive_via_fallback() {
        // Coarse quantization creates heavy ties in the tail — a classic
        // strict-pipeline killer (zero exceedances over a tied threshold).
        let sample: Vec<f64> = bounded_sample(2000, 49)
            .into_iter()
            .map(|x| (x / 0.5).round() * 0.5)
            .collect();
        let r = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        // Whatever rung wins, the estimate must bracket the observed data
        // and stay near the true bound (105).
        let best = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(r.upb.point >= best - 1e-9);
        assert!((r.upb.point - 105.0).abs() < 3.0, "upb = {}", r.upb.point);
    }

    #[test]
    fn deterministic_given_config() {
        let mut sample = bounded_sample(1200, 50);
        sample[17] = f64::NAN;
        let a = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        let b = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert_eq!(a.upb, b.upb);
        assert_eq!(a.method, b.method);
    }

    #[test]
    fn observed_estimate_is_bit_identical_and_journals_provenance() {
        use optassign_obs::{MemoryRecorder, MonotonicClock, Obs};
        use std::sync::Arc;
        let mut sample = bounded_sample(1500, 52);
        sample[9] = f64::NAN;
        let plain = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(MonotonicClock::new()));
        let observed = estimate_resilient_obs(&sample, &ResilientConfig::default(), &obs).unwrap();
        assert_eq!(observed.upb, plain.upb);
        assert_eq!(observed.method, plain.method);
        assert_eq!(observed.attempts, plain.attempts);
        let lines = rec.lines();
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"estimate\"")),
            "journal: {lines:?}"
        );
        let snap = obs.metrics();
        assert_eq!(snap.counter("evt_estimates_total"), 1);
        assert!(snap.histogram("evt_estimate_ns").is_some());
    }

    #[test]
    fn observed_estimate_records_failures() {
        use optassign_obs::{MemoryRecorder, MonotonicClock, Obs};
        use std::sync::Arc;
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(MonotonicClock::new()));
        let tiny = bounded_sample(5, 53);
        assert!(estimate_resilient_obs(&tiny, &ResilientConfig::default(), &obs).is_err());
        assert_eq!(obs.metrics().counter("evt_estimate_errors_total"), 1);
        assert!(rec
            .lines()
            .iter()
            .any(|l| l.contains("\"kind\":\"estimate_failed\"")));
    }

    #[test]
    fn headroom_matches_pot_analysis() {
        let sample = bounded_sample(3000, 51);
        let strict = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        let r = estimate_resilient(&sample, &ResilientConfig::default()).unwrap();
        assert!((r.improvement_headroom() - strict.improvement_headroom()).abs() < 1e-12);
    }
}
