//! Counters, gauges, and fixed-bucket histograms with order-fixed
//! aggregation.
//!
//! Everything parallel workers can touch is integer-valued: counters are
//! `u64` and histograms observe `u64` values, so accumulation is exact
//! and commutative — the merged totals are identical no matter which
//! worker measured what. Float gauges exist for sequential orchestration
//! values (a worker count, a scale factor) and are last-write-wins.
//!
//! Storage is `BTreeMap`-keyed, so iteration — and therefore every
//! exporter's output — is in deterministic (lexicographic) name order.

use std::collections::BTreeMap;

/// Default histogram bounds for durations in nanoseconds:
/// 1µs … 100s in decade steps (an `+Inf` overflow bucket is implicit).
pub const LATENCY_BUCKETS_NS: [u64; 9] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// Default histogram bounds for dimensionless values (queue depths,
/// retry counts, sample sizes): powers of four.
pub const VALUE_BUCKETS: [u64; 9] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are cumulative-exclusive at export time only; internally each
/// slot counts observations `<=` its bound, with one extra overflow slot
/// (`+Inf`). `sum`, `min` and `max` are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram with the given ascending upper bounds.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram's observations into this one.
    ///
    /// Matching bounds merge bucket-by-bucket. Mismatched bounds (same
    /// metric name registered with different buckets — a caller bug)
    /// merge deterministically but lossily: the other histogram's
    /// observations land in the overflow bucket, while `sum`, `count`,
    /// `min` and `max` stay exact.
    pub fn merge_from(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        } else if let Some(last) = self.counts.last_mut() {
            *last += other.count;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper bounds of the finite buckets.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket observation counts; the last entry is the `+Inf`
    /// overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating at `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// within the bucket holding the target rank, Prometheus
    /// `histogram_quantile`-style: a bucket spans `(previous bound,
    /// bound]` (the first starts at 0) and observations are assumed
    /// uniform inside it. The estimate is clamped to the exact observed
    /// `[min, max]`, so `quantile(0.0)` is the minimum, `quantile(1.0)`
    /// the maximum, and a rank landing in the `+Inf` overflow bucket
    /// reports the maximum. `None` when empty or `q` is out of range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let (min, max) = (self.min as f64, self.max as f64);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &in_bucket) in self.counts.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            let next = cumulative + in_bucket;
            if next as f64 >= target {
                if i == self.bounds.len() {
                    // Overflow bucket: no finite upper edge to
                    // interpolate against, but the exact max is known.
                    return Some(max);
                }
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let upper = self.bounds[i] as f64;
                let into = (target - cumulative as f64) / in_bucket as f64;
                let estimate = lower + (upper - lower) * into;
                return Some(estimate.clamp(min, max));
            }
            cumulative = next;
        }
        Some(max)
    }

    /// Rebuilds a histogram from exported parts (the shape
    /// [`MetricsRegistry::to_json`] renders), for offline analysis of a
    /// journal's `metrics_snapshot`. `None` when the parts are not
    /// mutually consistent (`counts` must have one slot more than
    /// `bounds` and sum to `count`).
    #[must_use]
    pub fn from_parts(
        bounds: Vec<u64>,
        counts: Vec<u64>,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Option<Self> {
        if counts.len() != bounds.len() + 1 {
            return None;
        }
        let count: u64 = counts.iter().try_fold(0u64, |a, &c| a.checked_add(c))?;
        if (count == 0) != (min.is_none() && max.is_none()) {
            return None;
        }
        Some(Histogram {
            bounds,
            counts,
            sum,
            count,
            min: min.unwrap_or(u64::MAX),
            max: max.unwrap_or(0),
        })
    }
}

/// A set of named counters, gauges, and histograms.
///
/// Plain-owned (no interior mutability): use one registry per thread and
/// merge worker-local registries in a fixed order, or share one behind
/// [`crate::Obs`]'s mutex.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram, creating it
    /// with [`LATENCY_BUCKETS_NS`] on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_with(name, value, &LATENCY_BUCKETS_NS);
    }

    /// Records one observation into the named histogram, creating it
    /// with the given bounds on first use (later calls reuse the
    /// existing buckets).
    pub fn observe_with(&mut self, name: &str, value: u64, bounds: &[u64]) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge (see [`Histogram::merge_from`]), gauges take the other
    /// registry's value. Call in a fixed order when combining per-worker
    /// registries.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, delta) in &other.counters {
            self.counter_add(name, *delta);
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, theirs) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge_from(theirs);
            } else {
                self.histograms.insert(name.clone(), theirs.clone());
            }
        }
    }

    /// The named counter's value (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Reconstructs a registry from the document produced by
    /// [`MetricsRegistry::to_json`] — how the fleet plane turns a
    /// worker's `/metrics.json` scrape back into mergeable series. Series
    /// that do not round-trip (malformed histograms, non-numeric values)
    /// are skipped rather than failing the whole snapshot.
    #[must_use]
    pub fn from_json(doc: &crate::journal::Json) -> MetricsRegistry {
        use crate::journal::Json;
        let mut registry = MetricsRegistry::default();
        if let Some(members) = doc.get("counters").and_then(Json::as_object) {
            for (name, value) in members {
                if let Some(value) = value.as_u64() {
                    registry.counter_add(name, value);
                }
            }
        }
        if let Some(members) = doc.get("gauges").and_then(Json::as_object) {
            for (name, value) in members {
                if let Some(value) = value.as_f64() {
                    registry.gauge_set(name, value);
                }
            }
        }
        if let Some(members) = doc.get("histograms").and_then(Json::as_object) {
            for (name, value) in members {
                let bounds: Option<Vec<u64>> = value
                    .get("bounds")
                    .and_then(Json::as_array)
                    .map(|items| items.iter().map(Json::as_u64).collect())
                    .unwrap_or(None);
                let counts: Option<Vec<u64>> = value
                    .get("counts")
                    .and_then(Json::as_array)
                    .map(|items| items.iter().map(Json::as_u64).collect())
                    .unwrap_or(None);
                let (Some(bounds), Some(counts)) = (bounds, counts) else {
                    continue;
                };
                let sum = value.get("sum").and_then(Json::as_u64).unwrap_or(0);
                let min = value.get("min").and_then(Json::as_u64);
                let max = value.get("max").and_then(Json::as_u64);
                if let Some(hist) = Histogram::from_parts(bounds, counts, sum, min, max) {
                    registry.histograms.insert(name.clone(), hist);
                }
            }
        }
        registry
    }

    /// A copy of this registry with `key="value"` merged into every
    /// series name's label set — how a fleet-wide scrape keeps the same
    /// metric from different instances apart. Merging relabeled copies
    /// with [`MetricsRegistry::merge_from`] never collides as long as
    /// each instance gets a distinct value.
    #[must_use]
    pub fn relabeled(&self, key: &str, value: &str) -> MetricsRegistry {
        let labels = [(key, value)];
        let mut out = MetricsRegistry::default();
        for (name, v) in &self.counters {
            out.counters
                .insert(crate::export::labeled(name, &labels), *v);
        }
        for (name, v) in &self.gauges {
            out.gauges.insert(crate::export::labeled(name, &labels), *v);
        }
        for (name, h) in &self.histograms {
            out.histograms
                .insert(crate::export::labeled(name, &labels), h.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = MetricsRegistry::default();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter("a"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 10, 11, 1_000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_026);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(1_000));
        let mean = h.mean().expect("non-empty");
        assert!((mean - 256.5).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new(&LATENCY_BUCKETS_NS);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_of_a_uniform_distribution() {
        // 1..=100 into decade buckets: every quantile is exactly its
        // rank, because the interpolation assumption holds exactly.
        let bounds: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        let mut h = Histogram::new(&bounds);
        for v in 1..=100u64 {
            h.observe(v);
        }
        for (q, expected) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0), (0.1, 10.0)] {
            let got = h.quantile(q).expect("non-empty");
            assert!((got - expected).abs() < 1e-9, "q={q}: {got} != {expected}");
        }
        assert_eq!(h.quantile(0.0), Some(1.0)); // clamped to exact min
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn quantiles_of_a_skewed_distribution() {
        // 90 fast observations and 10 slow ones: p50 interpolates inside
        // the first bucket, p95 and p99 land in the slow bucket.
        let mut h = Histogram::new(&[100, 10_000]);
        for _ in 0..90 {
            h.observe(50);
        }
        for _ in 0..10 {
            h.observe(9_000);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((p50 - 55.555).abs() < 0.01, "p50={p50}"); // 100 * 50/90
        let p95 = h.quantile(0.95).expect("non-empty");
        assert!((p95 - 5_050.0).abs() < 1e-6, "p95={p95}"); // midway into (100, 10000]
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!(
            (p99 - 9_000.0).abs() < 1e-6,
            "p99 clamped to max, got {p99}"
        );
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_max() {
        let mut h = Histogram::new(&[10]);
        h.observe(5);
        h.observe(1_000);
        h.observe(2_000);
        assert_eq!(h.quantile(0.99), Some(2_000.0));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistency() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 50, 500] {
            h.observe(v);
        }
        let rebuilt = Histogram::from_parts(
            h.bounds().to_vec(),
            h.bucket_counts().to_vec(),
            h.sum(),
            h.min(),
            h.max(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));
        // counts length must be bounds + 1.
        assert!(Histogram::from_parts(vec![10], vec![1], 1, Some(1), Some(1)).is_none());
        // an empty histogram cannot carry extremes.
        assert!(Histogram::from_parts(vec![10], vec![0, 0], 0, Some(1), None).is_none());
        let empty = Histogram::from_parts(vec![10], vec![0, 0], 0, None, None).expect("empty ok");
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn merge_is_order_independent_for_integer_metrics() {
        let mk = |vals: &[u64]| {
            let mut r = MetricsRegistry::default();
            for &v in vals {
                r.counter_add("n", 1);
                r.observe_with("h", v, &VALUE_BUCKETS);
            }
            r
        };
        let a = mk(&[1, 70, 3]);
        let b = mk(&[100_000, 2]);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "u64 merge must be commutative");
        assert_eq!(ab.counter("n"), 5);
        assert_eq!(ab.histogram("h").map(Histogram::sum), Some(100_076));
    }

    #[test]
    fn mismatched_bucket_merge_is_lossy_but_exact_in_aggregates() {
        let mut a = Histogram::new(&[10]);
        a.observe(5);
        let mut b = Histogram::new(&[20]);
        b.observe(15);
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 20);
        // The foreign observation lands in the overflow bucket.
        assert_eq!(a.bucket_counts(), &[1, 1]);
    }

    #[test]
    fn relabeled_copies_embed_the_instance_label() {
        let mut r = MetricsRegistry::default();
        r.counter_add("hits", 3);
        r.counter_add("hits{zone=\"a\"}", 1);
        r.gauge_set("depth", 2.0);
        r.observe("lat_ns", 7);
        let tagged = r.relabeled("instance", "w1");
        assert_eq!(tagged.counter("hits{instance=\"w1\"}"), 3);
        assert_eq!(tagged.counter("hits{zone=\"a\",instance=\"w1\"}"), 1);
        assert_eq!(tagged.gauge("depth{instance=\"w1\"}"), Some(2.0));
        assert!(tagged.histogram("lat_ns{instance=\"w1\"}").is_some());
        // Relabeled copies from distinct instances merge without collision.
        let mut merged = tagged.clone();
        merged.merge_from(&r.relabeled("instance", "w2"));
        assert_eq!(merged.counter("hits{instance=\"w1\"}"), 3);
        assert_eq!(merged.counter("hits{instance=\"w2\"}"), 3);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut r = MetricsRegistry::default();
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        let mut other = MetricsRegistry::default();
        other.gauge_set("g", 7.0);
        r.merge_from(&other);
        assert_eq!(r.gauge("g"), Some(7.0));
    }
}
