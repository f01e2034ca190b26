//! Deterministic fault injection for measurement pipelines.
//!
//! The paper's method fits a GPD to the top ≤5% of measured performances —
//! exactly the regime real measurement infrastructure corrupts: dropped
//! runs, outlier spikes, quantized ties, stuck counters, and plain noise.
//! [`FaultyModel`] wraps any [`PerformanceModel`] and injects such faults
//! according to a [`FaultPlan`], fully determined by the plan's seed, the
//! assignment and each measurement's `(stream, attempt)` key, so every
//! degraded experiment is replayable bit-for-bit.
//!
//! Faults are keyed on that explicit pair rather than on a call counter,
//! so the parallel runners can measure slots in any interleaving and
//! still produce bit-identical results for every worker count. They flow
//! only through the fallible keyed path,
//! [`PerformanceModel::try_evaluate_at`]; the infallible
//! [`PerformanceModel::evaluate`] passes through to the wrapped model
//! untouched, which keeps ground truth available for relative-error
//! reporting in robustness studies.

use crate::assignment::Assignment;
use crate::model::{MeasureError, PerformanceModel};
use optassign_sim::Topology;
use optassign_stats::rng::{Rng, StdRng};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// What faults to inject, and how often.
///
/// All rates are probabilities per measurement in `[0, 1]`; value faults
/// (spike, noise, heavy tail, stuck) are drawn independently, so one
/// measurement can suffer several at once, like a real bad run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed driving every fault decision.
    pub seed: u64,
    /// Probability a measurement is lost entirely
    /// ([`MeasureError::Failed`]).
    pub fail_rate: f64,
    /// Probability of an outlier spike (multiplicative, up to
    /// `spike_factor` upward or its reciprocal downward).
    pub spike_rate: f64,
    /// Largest spike multiplier (must be > 1 when `spike_rate > 0`).
    pub spike_factor: f64,
    /// Probability of Gaussian relative noise.
    pub noise_rate: f64,
    /// Standard deviation of the Gaussian noise, relative to the value.
    pub noise_sd: f64,
    /// Probability of heavy-tailed (Pareto) multiplicative noise — the
    /// kind that produces occasional extreme values a Gaussian never
    /// would.
    pub heavy_tail_rate: f64,
    /// Pareto tail index of the heavy-tailed noise (smaller = heavier;
    /// must be > 0 when `heavy_tail_rate > 0`).
    pub heavy_tail_alpha: f64,
    /// Quantization step: values are rounded to multiples of this,
    /// manufacturing ties. `0.0` disables quantization.
    pub quantize_step: f64,
    /// Probability the instrument repeats its previous reading instead of
    /// taking a new one (stuck counter).
    pub stuck_rate: f64,
}

impl FaultPlan {
    /// No faults at all: the fallible path passes the wrapped model's
    /// readings through unchanged.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 5.0,
            noise_rate: 0.0,
            noise_sd: 0.01,
            heavy_tail_rate: 0.0,
            heavy_tail_alpha: 1.5,
            quantize_step: 0.0,
            stuck_rate: 0.0,
        }
    }

    /// The light disturbance profile of the acceptance scenario: 1% lost
    /// measurements, 0.5% outlier spikes, 0.1% Gaussian noise.
    pub fn light(seed: u64) -> FaultPlan {
        FaultPlan {
            fail_rate: 0.01,
            spike_rate: 0.005,
            noise_rate: 0.001,
            ..FaultPlan::none(seed)
        }
    }

    /// A harsh profile exercising every fault class at once.
    pub fn harsh(seed: u64) -> FaultPlan {
        FaultPlan {
            fail_rate: 0.05,
            spike_rate: 0.02,
            noise_rate: 0.05,
            noise_sd: 0.05,
            heavy_tail_rate: 0.01,
            stuck_rate: 0.02,
            ..FaultPlan::none(seed)
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_clean(&self) -> bool {
        self.fail_rate <= 0.0
            && self.spike_rate <= 0.0
            && self.noise_rate <= 0.0
            && self.heavy_tail_rate <= 0.0
            && self.quantize_step <= 0.0
            && self.stuck_rate <= 0.0
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Measurements attempted through the fallible path.
    pub attempts: u64,
    /// Measurements lost ([`MeasureError::Failed`]).
    pub failures: u64,
    /// Outlier spikes applied.
    pub spikes: u64,
    /// Gaussian noise applications.
    pub noisy: u64,
    /// Heavy-tailed noise applications.
    pub heavy_tails: u64,
    /// Values replaced by the previous reading.
    pub stuck: u64,
    /// Values rounded to the quantization grid.
    pub quantized: u64,
}

impl FaultStats {
    /// Accumulates another counter set into this one (all fields are
    /// sums, so merging is order-free — safe under any interleaving).
    fn merge(&mut self, other: &FaultStats) {
        self.attempts += other.attempts;
        self.failures += other.failures;
        self.spikes += other.spikes;
        self.noisy += other.noisy;
        self.heavy_tails += other.heavy_tails;
        self.stuck += other.stuck;
        self.quantized += other.quantized;
    }
}

/// A [`PerformanceModel`] decorator injecting deterministic, seed-driven
/// measurement faults.
///
/// # Examples
///
/// ```
/// use optassign::fault::{FaultPlan, FaultyModel};
/// use optassign::model::{PerformanceModel, SyntheticModel};
/// use optassign::sampling::random_assignment;
/// use optassign::Topology;
///
/// let inner = SyntheticModel::new(Topology::ultrasparc_t2(), 4, 1.0e6);
/// let faulty = FaultyModel::new(inner, FaultPlan::light(7));
/// let mut rng = optassign_stats::rng::StdRng::seed_from_u64(1);
/// let a = random_assignment(4, faulty.topology(), &mut rng).unwrap();
/// // The infallible path is untouched ground truth…
/// assert!(faulty.evaluate(&a).is_finite());
/// // …while the fallible path may fail or perturb (deterministically).
/// let _ = faulty.try_evaluate_at(&a, 0, 0);
/// ```
#[derive(Debug)]
pub struct FaultyModel<M> {
    inner: M,
    plan: FaultPlan,
    /// Previous reading per stream, for stuck-counter repeats. Calls
    /// within one stream are sequential (a slot's attempts never run
    /// concurrently), so this is deterministic for any worker count.
    stream_last: Mutex<HashMap<u64, f64>>,
    /// Injection counts; sums, so order-free under any interleaving.
    stats: Mutex<FaultStats>,
}

/// Mutex poisoning only happens after a panic elsewhere; the fault state
/// is still internally consistent, so recover the guard rather than
/// propagate the poison.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<M: PerformanceModel> FaultyModel<M> {
    /// Wraps `inner` with the given fault plan.
    ///
    /// # Panics
    ///
    /// Panics when a rate is outside `[0, 1]`, `spike_factor <= 1` with a
    /// positive spike rate, or `heavy_tail_alpha <= 0` with a positive
    /// heavy-tail rate.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        for (name, rate) in [
            ("fail_rate", plan.fail_rate),
            ("spike_rate", plan.spike_rate),
            ("noise_rate", plan.noise_rate),
            ("heavy_tail_rate", plan.heavy_tail_rate),
            ("stuck_rate", plan.stuck_rate),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{name} {rate} not in [0, 1]");
        }
        assert!(
            plan.spike_rate <= 0.0 || plan.spike_factor > 1.0,
            "spike_factor must exceed 1"
        );
        assert!(
            plan.heavy_tail_rate <= 0.0 || plan.heavy_tail_alpha > 0.0,
            "heavy_tail_alpha must be positive"
        );
        FaultyModel {
            inner,
            plan,
            stream_last: Mutex::new(HashMap::new()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counts so far.
    pub fn stats(&self) -> FaultStats {
        *lock(&self.stats)
    }

    /// Resets the per-stream stuck state and the stats, so a fresh
    /// experiment replays the same faults.
    pub fn reset(&self) {
        lock(&self.stream_last).clear();
        *lock(&self.stats) = FaultStats::default();
    }

    /// The fault RNG for one keyed measurement: keyed by plan seed, the
    /// assignment's contexts, the slot's stream, and the attempt number
    /// within the slot — no global state, so the draw is identical no
    /// matter which worker performs it or when.
    fn fault_rng_at(&self, assignment: &Assignment, stream: u64, attempt: u32) -> StdRng {
        let mut h: u64 = self.plan.seed ^ 0x9E37_79B9_7F4A_7C15;
        for &c in assignment.contexts() {
            h ^= c as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F);
        StdRng::seed_from_u64(h)
    }
}

impl<M: PerformanceModel> PerformanceModel for FaultyModel<M> {
    fn tasks(&self) -> usize {
        self.inner.tasks()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    /// Ground truth: delegates to the wrapped model with no injection.
    fn evaluate(&self, assignment: &Assignment) -> f64 {
        self.inner.evaluate(assignment)
    }

    fn try_evaluate_at(
        &self,
        assignment: &Assignment,
        stream: u64,
        attempt: u32,
    ) -> Result<f64, MeasureError> {
        let mut rng = self.fault_rng_at(assignment, stream, attempt);
        let mut stats = FaultStats::default();
        stats.attempts += 1;

        let outcome = (|| {
            if rng.gen_bool(self.plan.fail_rate) {
                stats.failures += 1;
                return Err(MeasureError::Failed(format!(
                    "injected fault (stream {stream:#x}, attempt {attempt})"
                )));
            }
            let mut value = self.inner.try_evaluate_at(assignment, stream, attempt)?;
            // The value-fault chain: stuck → spike → noise → heavy tail
            // → quantize → floor → finite check. The stuck-counter fault
            // repeats the *stream's* previous reading: calls within a
            // stream are sequential, so this is order-free across slots.
            // A stream's first reading has no predecessor and passes
            // through unchanged.
            if rng.gen_bool(self.plan.stuck_rate) {
                if let Some(prev) = lock(&self.stream_last).get(&stream).copied() {
                    stats.stuck += 1;
                    value = prev;
                }
            }
            if rng.gen_bool(self.plan.spike_rate) {
                stats.spikes += 1;
                let magnitude = 1.0 + (self.plan.spike_factor - 1.0) * rng.next_f64();
                value *= if rng.gen_bool(0.5) {
                    magnitude
                } else {
                    1.0 / magnitude
                };
            }
            if rng.gen_bool(self.plan.noise_rate) {
                stats.noisy += 1;
                value *= 1.0 + self.plan.noise_sd * standard_normal(&mut rng);
            }
            if rng.gen_bool(self.plan.heavy_tail_rate) {
                stats.heavy_tails += 1;
                // Pareto(α) multiplier, ≥ 1: rare extreme inflations.
                let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
                value *= u.powf(-1.0 / self.plan.heavy_tail_alpha);
            }
            if self.plan.quantize_step > 0.0 {
                stats.quantized += 1;
                value = (value / self.plan.quantize_step).round() * self.plan.quantize_step;
            }
            // A pile-up of downward faults can cross zero; performance is
            // a rate, so floor at zero rather than emit a negative reading.
            value = value.max(0.0);
            if !value.is_finite() {
                return Err(MeasureError::NonFinite(value));
            }
            if self.plan.stuck_rate > 0.0 {
                lock(&self.stream_last).insert(stream, value);
            }
            Ok(value)
        })();
        lock(&self.stats).merge(&stats);
        outcome
    }
}

/// A standard-normal draw via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SyntheticModel;
    use crate::sampling::sample_assignments;

    fn inner() -> SyntheticModel {
        SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6)
    }

    fn assignments(n: usize) -> Vec<Assignment> {
        let mut rng = StdRng::seed_from_u64(99);
        sample_assignments(n, 6, Topology::ultrasparc_t2(), &mut rng).unwrap()
    }

    #[test]
    fn reset_replays_the_same_faults() {
        // Ten streams with ascending attempts, so every stream has a
        // previous reading (live stuck state) when `reset` clears it.
        let m = FaultyModel::new(inner(), FaultPlan::harsh(3));
        let run = || {
            assignments(100)
                .iter()
                .enumerate()
                .map(|(i, a)| m.try_evaluate_at(a, i as u64 % 10, (i / 10) as u32))
                .collect::<Vec<_>>()
        };
        let xs = run();
        let stats = m.stats();
        m.reset();
        let ys = run();
        assert_eq!(xs, ys);
        assert_eq!(m.stats(), stats);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            fail_rate: 0.10,
            spike_rate: 0.05,
            ..FaultPlan::none(5)
        };
        let m = FaultyModel::new(inner(), plan);
        for (i, a) in assignments(2000).iter().enumerate() {
            let _ = m.try_evaluate_at(a, i as u64, 0);
        }
        let s = m.stats();
        assert_eq!(s.attempts, 2000);
        let fail_frac = s.failures as f64 / s.attempts as f64;
        assert!((fail_frac - 0.10).abs() < 0.03, "failure rate {fail_frac}");
        let spike_frac = s.spikes as f64 / (s.attempts - s.failures) as f64;
        assert!((spike_frac - 0.05).abs() < 0.02, "spike rate {spike_frac}");
    }

    #[test]
    fn quantization_manufactures_ties() {
        let plan = FaultPlan {
            quantize_step: 10_000.0,
            ..FaultPlan::none(2)
        };
        let m = FaultyModel::new(inner(), plan);
        let values: Vec<f64> = assignments(300)
            .iter()
            .enumerate()
            .map(|(i, a)| m.try_evaluate_at(a, i as u64, 0).unwrap())
            .collect();
        for v in &values {
            assert_eq!(v % 10_000.0, 0.0, "value {v} off-grid");
        }
        let distinct: std::collections::BTreeSet<u64> =
            values.iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() < values.len(), "no ties were created");
    }

    #[test]
    fn stuck_repeats_the_streams_previous_reading() {
        let plan = FaultPlan {
            stuck_rate: 1.0,
            ..FaultPlan::none(4)
        };
        let m = FaultyModel::new(inner(), plan);
        let xs = assignments(10);
        let first = m.try_evaluate_at(&xs[0], 0, 0).unwrap();
        // Every later reading on the stream repeats its first.
        for (attempt, a) in (1..).zip(&xs[1..]) {
            assert_eq!(m.try_evaluate_at(a, 0, attempt).unwrap(), first);
        }
        // Another stream has no previous reading to repeat.
        assert_eq!(m.try_evaluate_at(&xs[1], 1, 0).unwrap(), m.evaluate(&xs[1]));
        assert_eq!(m.stats().stuck, 9);
    }

    #[test]
    fn ground_truth_path_never_faulted() {
        let m = FaultyModel::new(inner(), FaultPlan::harsh(8));
        let clean = inner();
        for a in assignments(100) {
            assert_eq!(m.evaluate(&a), clean.evaluate(&a));
        }
    }

    #[test]
    fn keyed_faults_do_not_depend_on_cross_stream_order() {
        // The (stream, attempt)-keyed path must give every stream the
        // same outcomes no matter how streams interleave — the property
        // the parallel runners rely on. Attempts within a stream stay
        // sequential (as a slot's retries are); only the cross-stream
        // order changes.
        let xs = assignments(48);
        let run = |stream_order: Vec<usize>| {
            let m = FaultyModel::new(inner(), FaultPlan::harsh(21));
            let mut out = vec![Vec::new(); xs.len()];
            for &i in &stream_order {
                let stream = 1_000 + i as u64;
                for attempt in 0..3u32 {
                    out[i].push(m.try_evaluate_at(&xs[i], stream, attempt));
                }
            }
            out
        };
        let forward = run((0..xs.len()).collect());
        let backward = run((0..xs.len()).rev().collect());
        assert_eq!(forward, backward);
    }

    #[test]
    fn keyed_path_is_transparent_on_a_clean_plan() {
        let m = FaultyModel::new(inner(), FaultPlan::none(6));
        for (i, a) in assignments(30).iter().enumerate() {
            assert_eq!(m.try_evaluate_at(a, i as u64, 0).unwrap(), m.evaluate(a));
        }
        assert!(m.plan().is_clean());
        assert_eq!(m.stats().failures, 0);
    }

    #[test]
    fn keyed_retries_draw_fresh_faults() {
        // Different attempt numbers on the same (assignment, stream) key
        // must produce different fault draws, or retrying would be
        // pointless.
        let m = FaultyModel::new(
            inner(),
            FaultPlan {
                fail_rate: 0.5,
                ..FaultPlan::none(11)
            },
        );
        let a = &assignments(1)[0];
        let mut saw_failure = false;
        let mut saw_success = false;
        for attempt in 0..64u32 {
            match m.try_evaluate_at(a, 7, attempt) {
                Ok(_) => saw_success = true,
                Err(MeasureError::Failed(_)) => saw_failure = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_failure && saw_success);
    }

    #[test]
    fn faulty_model_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FaultyModel<SyntheticModel>>();
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn rejects_bad_rates() {
        FaultyModel::new(
            inner(),
            FaultPlan {
                fail_rate: 1.5,
                ..FaultPlan::none(0)
            },
        );
    }
}
