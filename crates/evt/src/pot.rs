//! The complete Peaks-Over-Threshold pipeline (paper §3.3.2, Steps 1–4).
//!
//! [`PotAnalysis::run`] takes the measured performances of a sample of
//! random task assignments and produces the estimated optimal system
//! performance with its confidence interval, together with the fit
//! diagnostics a practitioner would inspect (mean-excess linearity, Q–Q
//! correlation, KS distance).

use crate::diagnostics::{ks_distance, QuantilePlot};
use crate::fit::{self, FitMethod, GpdFit};
use crate::mean_excess::MeanExcessPlot;
use crate::profile::{estimate_upb, UpbEstimate};
use crate::EvtError;

/// How the POT threshold `u` is chosen.
///
/// The paper selects `u` from the sample mean-excess plot, constrained so
/// that at most 5% of the sample exceeds it (to avoid biasing the GPD fit
/// toward the distribution's median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdRule {
    /// Use the `(1 − fraction)` empirical quantile: exceedances are exactly
    /// the top `fraction` of the sample. The paper's 5% cap corresponds to
    /// `FractionAbove(0.05)`.
    FractionAbove(f64),
    /// Scan candidate fractions (from `max_fraction` down to a floor that
    /// keeps at least [`fit::MIN_EXCEEDANCES`] points) and pick the one
    /// whose mean-excess tail is most linear (highest R²). Automates the
    /// paper's graphical judgement.
    MostLinearTail {
        /// Upper limit on the exceedance fraction (the paper's 5% rule).
        max_fraction: f64,
    },
    /// An explicit threshold value chosen by the analyst.
    Explicit(f64),
}

impl Default for ThresholdRule {
    fn default() -> Self {
        ThresholdRule::FractionAbove(0.05)
    }
}

/// Configuration for a [`PotAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct PotConfig {
    /// Threshold selection rule.
    pub threshold: ThresholdRule,
    /// Confidence level for the UPB interval (the paper uses 0.95).
    pub confidence: f64,
    /// Parameter estimator for the reported GPD fit.
    pub estimator: FitMethod,
}

impl Default for PotConfig {
    fn default() -> Self {
        PotConfig {
            threshold: ThresholdRule::default(),
            confidence: 0.95,
            estimator: FitMethod::MaximumLikelihood,
        }
    }
}

/// Result of a full POT analysis over a performance sample.
#[derive(Debug, Clone)]
pub struct PotAnalysis {
    /// The selected threshold `u`.
    pub threshold: f64,
    /// Exceedances `y = x − u` (ascending).
    pub exceedances: Vec<f64>,
    /// The GPD fitted to the exceedances.
    pub fit: GpdFit,
    /// Estimated optimal system performance (UPB) with confidence interval.
    pub upb: UpbEstimate,
    /// Best (largest) observation in the sample.
    pub best_observed: f64,
    /// Number of observations in the input sample.
    pub sample_size: usize,
    /// R² of the mean-excess tail above `u` (linearity check, Step 2).
    pub mean_excess_r2: f64,
    /// R² of the GPD Q–Q plot (Step 2's quantile plot).
    pub quantile_plot_r2: f64,
    /// Kolmogorov–Smirnov distance between exceedances and the fitted GPD.
    pub ks_distance: f64,
}

impl PotAnalysis {
    /// Runs the full POT pipeline over a sample of measured performances.
    ///
    /// # Errors
    ///
    /// * [`EvtError::NotEnoughData`] when the sample (or the exceedance
    ///   set implied by the threshold rule) is too small.
    /// * [`EvtError::UnboundedTail`] when the fitted shape is non-negative
    ///   (no finite optimum under the model) — the paper's method requires
    ///   `ξ̂ < 0`, which holds for performance measurements of real finite
    ///   systems.
    /// * [`EvtError::Domain`] for invalid configuration values.
    ///
    /// # Examples
    ///
    /// ```
    /// use optassign_evt::pot::{PotAnalysis, PotConfig, ThresholdRule};
    /// use optassign_evt::gpd::Gpd;
    ///
    /// let g = Gpd::new(-0.5, 1.0).unwrap();
    /// let mut rng = optassign_stats::rng::StdRng::seed_from_u64(4);
    /// let sample: Vec<f64> = (0..2000).map(|_| 5.0 + g.sample(&mut rng)).collect();
    /// let cfg = PotConfig { threshold: ThresholdRule::FractionAbove(0.05), ..PotConfig::default() };
    /// let a = PotAnalysis::run(&sample, &cfg).unwrap();
    /// assert!(a.upb.point >= a.best_observed);
    /// ```
    pub fn run(sample: &[f64], config: &PotConfig) -> Result<Self, EvtError> {
        if sample.len() < 100 {
            return Err(EvtError::NotEnoughData {
                what: "pot analysis",
                needed: 100,
                got: sample.len(),
            });
        }
        if sample.iter().any(|x| !x.is_finite()) {
            return Err(EvtError::Domain("sample values must be finite"));
        }
        let sorted = optassign_stats::descriptive::sorted(sample);
        let n = sorted.len();
        let best_observed = sorted[n - 1];

        let u = select_threshold(&sorted, &config.threshold)?;
        let exceedances: Vec<f64> = sorted
            .iter()
            .copied()
            .filter(|&x| x > u)
            .map(|x| x - u)
            .collect();
        if exceedances.len() < fit::MIN_EXCEEDANCES {
            return Err(EvtError::NotEnoughData {
                what: "exceedances over threshold",
                needed: fit::MIN_EXCEEDANCES,
                got: exceedances.len(),
            });
        }

        let fit = match config.estimator {
            FitMethod::MaximumLikelihood => fit::fit_mle(&exceedances)?,
            FitMethod::ProbabilityWeightedMoments => fit::fit_pwm(&exceedances)?,
        };
        let upb = estimate_upb(u, &exceedances, config.confidence)?;

        let me_plot = MeanExcessPlot::new(&sorted)?;
        let mean_excess_r2 = me_plot
            .linearity_above(u)
            .map(|f| f.r_squared)
            .unwrap_or(f64::NAN);
        let quantile_plot_r2 = QuantilePlot::new(&exceedances, &fit.gpd)
            .map(|q| q.r_squared())
            .unwrap_or(f64::NAN);
        let ks = ks_distance(&exceedances, &fit.gpd)?;

        Ok(PotAnalysis {
            threshold: u,
            exceedances,
            fit,
            upb,
            best_observed,
            sample_size: n,
            mean_excess_r2,
            quantile_plot_r2,
            ks_distance: ks,
        })
    }

    /// Gap between the estimated optimum and the best observation,
    /// `(UPB − best)/UPB` — the paper's "possible performance improvement"
    /// (Figure 12).
    pub fn improvement_headroom(&self) -> f64 {
        if self.upb.point <= 0.0 {
            return 0.0;
        }
        ((self.upb.point - self.best_observed) / self.upb.point).max(0.0)
    }

    /// Model-based estimate of the performance of the top-`top_fraction`
    /// assignment (e.g. `0.01` = the boundary of the best 1%).
    ///
    /// §3.2 of the paper reads this off the empirical CDF when *all*
    /// assignments can be run; with only a sample, the fitted GPD tail
    /// extrapolates it: for overall exceedance probability `p`, the
    /// quantile is `u + G⁻¹(1 − p/ζᵤ)` where `ζᵤ` is the fraction of the
    /// sample above the threshold.
    ///
    /// # Errors
    ///
    /// Returns [`EvtError::Domain`] when `top_fraction` is not in `(0, 1)`
    /// or lies outside the tail the model covers (above the threshold's
    /// exceedance fraction).
    pub fn tail_quantile(&self, top_fraction: f64) -> Result<f64, EvtError> {
        if !(top_fraction > 0.0 && top_fraction < 1.0) {
            return Err(EvtError::Domain("top_fraction must be in (0, 1)"));
        }
        let zeta = self.exceedances.len() as f64 / self.sample_size as f64;
        if top_fraction >= zeta {
            return Err(EvtError::Domain(
                "top_fraction is below the threshold: use the empirical CDF there",
            ));
        }
        let q = 1.0 - top_fraction / zeta;
        Ok(self.threshold + self.fit.gpd.quantile(q)?)
    }

    /// The estimated performance *difference* across the best
    /// `top_fraction` of assignments, as a fraction of the optimum —
    /// the paper's "performance difference in P% of the best-performing
    /// task assignments" (§3.2, reported as 0.6% for the top 1% of the
    /// 6-thread study).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PotAnalysis::tail_quantile`].
    pub fn top_band_width(&self, top_fraction: f64) -> Result<f64, EvtError> {
        let boundary = self.tail_quantile(top_fraction)?;
        Ok(((self.upb.point - boundary) / self.upb.point).max(0.0))
    }
}

/// Applies a [`ThresholdRule`] to an ascending-sorted sample.
fn select_threshold(sorted: &[f64], rule: &ThresholdRule) -> Result<f64, EvtError> {
    let n = sorted.len();
    match *rule {
        ThresholdRule::Explicit(u) => {
            if !u.is_finite() {
                return Err(EvtError::Domain("explicit threshold must be finite"));
            }
            Ok(u)
        }
        ThresholdRule::FractionAbove(f) => {
            if !(f > 0.0 && f < 1.0) {
                return Err(EvtError::Domain("fraction must be in (0, 1)"));
            }
            Ok(threshold_for_fraction(sorted, f))
        }
        ThresholdRule::MostLinearTail { max_fraction } => {
            if !(max_fraction > 0.0 && max_fraction < 1.0) {
                return Err(EvtError::Domain("max_fraction must be in (0, 1)"));
            }
            let me = MeanExcessPlot::new(sorted)?;
            let min_fraction = (fit::MIN_EXCEEDANCES.max(20) as f64 / n as f64).min(max_fraction);
            let mut best: Option<(f64, f64)> = None; // (r2, u)
            let steps = 8;
            for i in 0..=steps {
                let f = min_fraction + (max_fraction - min_fraction) * i as f64 / steps as f64;
                let u = threshold_for_fraction(sorted, f);
                if let Ok(fitline) = me.linearity_above(u) {
                    let r2 = fitline.r_squared;
                    if best.map(|(b, _)| r2 > b).unwrap_or(true) {
                        best = Some((r2, u));
                    }
                }
            }
            best.map(|(_, u)| u).ok_or(EvtError::NotEnoughData {
                what: "linear-tail threshold scan",
                needed: fit::MIN_EXCEEDANCES,
                got: 0,
            })
        }
    }
}

/// The threshold below which exactly (up to ties) `fraction` of the sorted
/// sample lies above. `sorted` must hold at least two observations.
pub(crate) fn threshold_for_fraction(sorted: &[f64], fraction: f64) -> f64 {
    let n = sorted.len();
    let k = ((n as f64 * fraction).round() as usize).clamp(1, n - 1);
    // Exceedances are the top k observations; threshold sits at the element
    // just below them.
    sorted[n - k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpd::Gpd;

    fn bounded_sample(n: usize, seed: u64) -> (Vec<f64>, f64) {
        // Location 100, GPD(−0.4, 2.0) tail ⇒ true max 100 + 5 = 105.
        let g = Gpd::new(-0.4, 2.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(seed);
        let v: Vec<f64> = (0..n).map(|_| 100.0 + g.sample(&mut rng)).collect();
        (v, 105.0)
    }

    #[test]
    fn pipeline_estimates_true_bound() {
        let (sample, truth) = bounded_sample(5000, 31);
        let a = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        assert!(
            (a.upb.point - truth).abs() < 1.0,
            "upb = {}, truth = {truth}",
            a.upb.point
        );
        assert!(a.upb.point >= a.best_observed);
        assert!(a.fit.gpd.shape() < 0.0);
        assert_eq!(a.sample_size, 5000);
        // Top 5% of 5000 = 250 exceedances (up to ties).
        assert!((240..=260).contains(&a.exceedances.len()));
    }

    #[test]
    fn headroom_shrinks_with_sample_size() {
        let (s1, _) = bounded_sample(500, 32);
        let (s2, _) = bounded_sample(5000, 32);
        let a1 = PotAnalysis::run(&s1, &PotConfig::default()).unwrap();
        let a2 = PotAnalysis::run(&s2, &PotConfig::default()).unwrap();
        // More samples ⇒ best observed closer to the optimum (Figure 12).
        assert!(a2.improvement_headroom() <= a1.improvement_headroom() + 0.01);
    }

    #[test]
    fn diagnostics_look_healthy_on_gpd_data() {
        let (sample, _) = bounded_sample(3000, 33);
        let a = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        assert!(a.quantile_plot_r2 > 0.95, "qq r2 = {}", a.quantile_plot_r2);
        assert!(a.ks_distance < 0.1, "ks = {}", a.ks_distance);
    }

    #[test]
    fn explicit_and_fraction_thresholds() {
        let (sample, _) = bounded_sample(2000, 34);
        let sorted = optassign_stats::descriptive::sorted(&sample);
        let u5 = select_threshold(&sorted, &ThresholdRule::FractionAbove(0.05)).unwrap();
        let above = sorted.iter().filter(|&&x| x > u5).count();
        assert!((90..=110).contains(&above), "above = {above}");

        let cfg = PotConfig {
            threshold: ThresholdRule::Explicit(u5),
            ..PotConfig::default()
        };
        let a = PotAnalysis::run(&sample, &cfg).unwrap();
        assert_eq!(a.threshold, u5);
    }

    #[test]
    fn most_linear_tail_rule_runs() {
        let (sample, truth) = bounded_sample(4000, 35);
        let cfg = PotConfig {
            threshold: ThresholdRule::MostLinearTail { max_fraction: 0.05 },
            ..PotConfig::default()
        };
        let a = PotAnalysis::run(&sample, &cfg).unwrap();
        assert!((a.upb.point - truth).abs() < 1.5, "upb = {}", a.upb.point);
    }

    #[test]
    fn pwm_estimator_variant() {
        let (sample, truth) = bounded_sample(4000, 36);
        let cfg = PotConfig {
            estimator: FitMethod::ProbabilityWeightedMoments,
            ..PotConfig::default()
        };
        let a = PotAnalysis::run(&sample, &cfg).unwrap();
        assert_eq!(a.fit.method, FitMethod::ProbabilityWeightedMoments);
        assert!((a.upb.point - truth).abs() < 1.5);
    }

    #[test]
    fn tail_quantile_matches_truth_and_ordering() {
        let (sample, truth) = bounded_sample(5000, 38);
        let a = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        // The top-1% boundary sits below the optimum and above the top-2%.
        let q1 = a.tail_quantile(0.01).unwrap();
        let q2 = a.tail_quantile(0.02).unwrap();
        assert!(q2 < q1 && q1 < a.upb.point);
        // Compare against the true distribution's quantile:
        // x_q = 100 + G_truth⁻¹(0.99).
        let g = Gpd::new(-0.4, 2.0).unwrap();
        let want = 100.0 + g.quantile(0.99).unwrap();
        assert!((q1 - want).abs() < 0.2, "q1 = {q1}, want {want}");
        let _ = truth;
        // Band width is a small positive fraction and shrinks with P.
        let w1 = a.top_band_width(0.01).unwrap();
        let w2 = a.top_band_width(0.02).unwrap();
        assert!(w1 > 0.0 && w2 > w1, "w1 {w1}, w2 {w2}");
    }

    #[test]
    fn tail_quantile_domain_checks() {
        let (sample, _) = bounded_sample(2000, 39);
        let a = PotAnalysis::run(&sample, &PotConfig::default()).unwrap();
        assert!(a.tail_quantile(0.0).is_err());
        assert!(a.tail_quantile(1.0).is_err());
        // 10% is below the 5% threshold: out of the modelled tail.
        assert!(a.tail_quantile(0.10).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let (sample, _) = bounded_sample(2000, 37);
        assert!(PotAnalysis::run(&sample[..50], &PotConfig::default()).is_err());
        let bad_cfg = PotConfig {
            threshold: ThresholdRule::FractionAbove(2.0),
            ..PotConfig::default()
        };
        assert!(PotAnalysis::run(&sample, &bad_cfg).is_err());
        let mut with_nan = sample.clone();
        with_nan[0] = f64::NAN;
        assert!(PotAnalysis::run(&with_nan, &PotConfig::default()).is_err());
    }
}
