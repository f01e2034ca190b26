//! Bootstrap baseline for optimum estimation — the method EVT replaces.
//!
//! A natural (but wrong) alternative to the paper's POT estimator is to
//! bootstrap the sample maximum: resample with replacement, record each
//! replicate's maximum, and report percentile intervals. The fundamental
//! flaw: no replicate can ever exceed the observed maximum, so the
//! estimator cannot extrapolate into the unobserved tail — it
//! systematically *underestimates* the optimum that EVT is designed to
//! reach. This module implements the baseline so the ablation experiment
//! can demonstrate the gap (see `crates/bench/src/bin/ablation_bootstrap.rs`).

use crate::EvtError;
use optassign_exec::{parallel_map, split_seed, Parallelism};
use optassign_obs::Obs;
use optassign_stats::rng::Rng;

/// Result of bootstrapping the sample maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapMax {
    /// Mean of the replicate maxima.
    pub point: f64,
    /// Lower percentile bound of the replicate maxima.
    pub ci_low: f64,
    /// Upper percentile bound of the replicate maxima — **never exceeds
    /// the observed sample maximum**, which is the method's flaw.
    pub ci_high: f64,
    /// The observed sample maximum.
    pub observed_max: f64,
    /// Number of bootstrap replicates used.
    pub replicates: usize,
}

/// Percentile bootstrap of the sample maximum.
///
/// # Errors
///
/// Returns [`EvtError::NotEnoughData`] for samples below 10 observations
/// and [`EvtError::Domain`] for a confidence outside `(0, 1)` or zero
/// replicates.
///
/// # Examples
///
/// ```
/// use optassign_evt::bootstrap::bootstrap_max;
///
/// let sample: Vec<f64> = (0..500).map(|i| (i as f64).sin().abs()).collect();
/// let b = bootstrap_max(&sample, 200, 0.95, 1).unwrap();
/// // The bootstrap cannot see past the data.
/// assert!(b.ci_high <= b.observed_max);
/// ```
pub fn bootstrap_max(
    sample: &[f64],
    replicates: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapMax, EvtError> {
    bootstrap_max_with(sample, replicates, confidence, seed, Parallelism::default())
}

/// [`bootstrap_max`] with an explicit worker count.
///
/// Each replicate resamples from its own RNG stream (derived with
/// [`optassign_exec::split_seed`]) and writes its maximum into a
/// pre-indexed slot, so the result is **bit-identical for every worker
/// count**, including the serial path.
///
/// # Errors
///
/// As [`bootstrap_max`].
pub fn bootstrap_max_with(
    sample: &[f64],
    replicates: usize,
    confidence: f64,
    seed: u64,
    parallelism: Parallelism,
) -> Result<BootstrapMax, EvtError> {
    if sample.len() < 10 {
        return Err(EvtError::NotEnoughData {
            what: "bootstrap",
            needed: 10,
            got: sample.len(),
        });
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(EvtError::Domain("confidence must be in (0, 1)"));
    }
    if replicates == 0 {
        return Err(EvtError::Domain("replicates must be non-zero"));
    }
    let n = sample.len();
    let mut maxima = parallel_map(parallelism, replicates, &Obs::disabled(), |r| {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(split_seed(seed, r as u64));
        let mut m = f64::NEG_INFINITY;
        for _ in 0..n {
            let v = sample[rng.gen_range(0..n)];
            if v > m {
                m = v;
            }
        }
        m
    });
    maxima.sort_by(f64::total_cmp);
    let alpha = 1.0 - confidence;
    let lo_idx = ((alpha / 2.0) * replicates as f64) as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * replicates as f64) as usize).min(replicates - 1);
    let point = maxima.iter().sum::<f64>() / replicates as f64;
    let observed_max = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Ok(BootstrapMax {
        point,
        ci_low: maxima[lo_idx],
        ci_high: maxima[hi_idx],
        observed_max,
        replicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpd::Gpd;

    fn bounded_sample(n: usize, seed: u64) -> Vec<f64> {
        let g = Gpd::new(-0.4, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(seed);
        (0..n).map(|_| 10.0 + g.sample(&mut rng)).collect()
    }

    #[test]
    fn never_exceeds_observed_maximum() {
        let sample = bounded_sample(1000, 1);
        let b = bootstrap_max(&sample, 500, 0.95, 2).unwrap();
        assert!(b.ci_high <= b.observed_max + 1e-12);
        assert!(b.point <= b.observed_max);
        assert!(b.ci_low <= b.ci_high);
    }

    #[test]
    fn underestimates_true_bound_that_evt_reaches() {
        // True upper bound: 10 + 1/0.4 = 12.5. The bootstrap tops out at
        // the observed max; the POT estimator extrapolates beyond it.
        let sample = bounded_sample(2000, 3);
        let boot = bootstrap_max(&sample, 400, 0.95, 4).unwrap();
        assert!(boot.ci_high < 12.5);

        let pot = crate::pot::PotAnalysis::run(&sample, &crate::pot::PotConfig::default())
            .expect("bounded tail");
        assert!(pot.upb.point > boot.ci_high);
        assert!((pot.upb.point - 12.5f64).abs() < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let sample = bounded_sample(300, 5);
        let a = bootstrap_max(&sample, 100, 0.9, 7).unwrap();
        let b = bootstrap_max(&sample, 100, 0.9, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_resampling_is_bit_identical_to_serial() {
        let sample = bounded_sample(500, 8);
        let serial = bootstrap_max_with(&sample, 240, 0.95, 11, Parallelism::serial()).unwrap();
        for workers in [2, 4, 7] {
            let par =
                bootstrap_max_with(&sample, 240, 0.95, 11, Parallelism::new(workers)).unwrap();
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn input_validation() {
        let sample = bounded_sample(300, 6);
        assert!(bootstrap_max(&sample[..5], 100, 0.9, 0).is_err());
        assert!(bootstrap_max(&sample, 0, 0.9, 0).is_err());
        assert!(bootstrap_max(&sample, 100, 1.5, 0).is_err());
    }
}
