//! Deterministic scoped-thread parallel execution.
//!
//! The paper's estimation pipeline is embarrassingly parallel: §3 draws
//! `n` iid random assignments and measures each independently, and the
//! iterative algorithm of §5.3 adds `N_delta` independent measurements
//! per round. This crate provides the execution engine those layers
//! share, with one non-negotiable contract:
//!
//! > **Output is bit-identical for every worker count, including 1.**
//!
//! Three mechanisms make that hold:
//!
//! 1. **Seed-splitting** — randomness is never drawn from a shared
//!    stream inside a parallel region. Each task index derives its own
//!    stream with [`split_seed`], so the values a slot sees do not
//!    depend on scheduling order.
//! 2. **Pre-indexed slots** — every task writes its result into the
//!    slot for its index; nothing is appended in completion order.
//! 3. **Order-fixed reduction** — results come back in index order,
//!    never in the order workers finish. A fallible caller maps to
//!    `Result`s and collects them, which reports the error of the
//!    *smallest* failing index.
//!
//! There is one map, [`parallel_map`]. It knows nothing about caches or
//! journals: the caller resolves what it already knows and maps only the
//! rest.
//!
//! The engine is dependency-free beyond the workspace's observability
//! crate (`std::thread::scope` only) and the `workers == 1` path is a
//! plain sequential loop, so serial callers pay nothing.
//!
//! ## Observability
//!
//! The map takes an [`Obs`] handle and reports per-task latency, queue
//! occupancy, and worker utilization. Instrumentation follows the
//! crate's own rules: each worker accumulates into a thread-local
//! [`MetricsRegistry`] (integer-valued, so totals are exact and
//! commutative) and the locals merge in spawn order after the join —
//! recording never touches task inputs or reduction order, so the
//! determinism contract holds with any recorder attached.

use optassign_obs::{lane_span_id, Event, MetricsRegistry, Obs, SpanGuard, VALUE_BUCKETS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Derives an independent, reproducible RNG seed for one task index.
///
/// SplitMix64-style finalizer over the pair `(seed, index)`: the golden
/// ratio increment separates consecutive indices by a full avalanche,
/// so per-slot streams are statistically independent of each other and
/// of the parent stream. Pure function — same `(seed, index)` in, same
/// stream out, on every platform and worker count.
#[must_use]
pub const fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker-count policy for a parallel region.
///
/// `workers == 1` means a plain sequential loop (no threads spawned).
/// Because every parallel path in the workspace is bit-identical to its
/// serial path, the choice of worker count is purely a throughput knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Number of worker threads to use (at least 1).
    pub workers: usize,
}

impl Parallelism {
    /// Environment variable consulted by [`Parallelism::default`] and
    /// [`Parallelism::max_available`].
    pub const ENV_VAR: &'static str = "OPTASSIGN_WORKERS";

    /// Sequential execution: one worker, no threads spawned.
    #[must_use]
    pub const fn serial() -> Self {
        Self { workers: 1 }
    }

    /// Exactly `workers` workers (floored at 1).
    #[must_use]
    pub const fn new(workers: usize) -> Self {
        Self {
            workers: if workers == 0 { 1 } else { workers },
        }
    }

    /// All hardware threads the OS reports (at least 1).
    #[must_use]
    pub fn available() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::new(workers)
    }

    /// Worker count requested through `OPTASSIGN_WORKERS`, if the
    /// variable is set to a positive integer.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(Self::ENV_VAR).ok()?;
        let workers: usize = raw.trim().parse().ok()?;
        (workers > 0).then(|| Self::new(workers))
    }

    /// Throughput-oriented default for experiment binaries:
    /// `OPTASSIGN_WORKERS` if set, otherwise every available core.
    #[must_use]
    pub fn max_available() -> Self {
        Self::from_env().unwrap_or_else(Self::available)
    }
}

/// Library default: `OPTASSIGN_WORKERS` if set, otherwise serial.
///
/// Library entry points stay single-threaded unless the caller (or the
/// environment) opts in; binaries that want "all cores" use
/// [`Parallelism::max_available`] explicitly.
impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env().unwrap_or_else(Self::serial)
    }
}

/// Indices are claimed from a shared counter in chunks; this caps the
/// chunk size so the tail of a batch still load-balances.
const MAX_CHUNK: usize = 32;

fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).clamp(1, MAX_CHUNK)
}

/// Per-worker instrumentation accumulator: times each task through the
/// shared clock into a worker-local [`MetricsRegistry`]. Everything it
/// records is integer-valued (exact, commutative accumulation) and the
/// locals merge in spawn order after the join, so recording never
/// depends on — or influences — scheduling.
struct WorkerStats<'a> {
    obs: &'a Obs,
    local: MetricsRegistry,
    /// Clock reading when this worker timed its first task (`None` if it
    /// never ran one) and when its last task finished — the bounds of
    /// the worker's lane span in the trace timeline.
    first_ns: Option<u64>,
    last_ns: u64,
}

impl<'a> WorkerStats<'a> {
    fn new(obs: &'a Obs) -> Self {
        WorkerStats {
            obs,
            local: MetricsRegistry::default(),
            first_ns: None,
            last_ns: 0,
        }
    }

    /// Runs one task, recording its latency. Pure pass-through when the
    /// handle is disabled.
    fn time<T>(&mut self, task: impl FnOnce() -> T) -> T {
        if !self.obs.enabled() {
            return task();
        }
        let t0 = self.obs.now_ns();
        let value = task();
        let end_ns = self.obs.now_ns();
        let dt = end_ns.saturating_sub(t0);
        if self.first_ns.is_none() {
            self.first_ns = Some(t0);
        }
        self.last_ns = end_ns;
        self.local.observe("exec_task_ns", dt);
        self.local.counter_add("exec_tasks_total", 1);
        self.local.counter_add("exec_busy_ns_total", dt);
        value
    }

    /// Records the queue occupancy (unclaimed indices) seen at a chunk
    /// claim.
    fn queue_depth(&mut self, remaining: usize) {
        if self.obs.enabled() {
            self.local
                .observe_with("exec_queue_depth", remaining as u64, &VALUE_BUCKETS);
        }
    }
}

/// Region-level summary: merges the worker-local registries in spawn
/// order, emits each worker's lane span (spawn order again, so the
/// journal is deterministic), closes the region span, and records one
/// `exec_region` event (with the busy/wall worker-utilization ratio).
///
/// Lane spans carry derived ids ([`lane_span_id`] over the region span's
/// id and the worker index) with the region span as parent, and render
/// on `tid = 1 + worker_index` in the Chrome trace — track 0 stays the
/// orchestration timeline. All of this happens after the join, outside
/// the parallel region, so tracing cannot perturb scheduling.
fn finish_region(
    obs: &Obs,
    region: SpanGuard<'_>,
    n: usize,
    workers: usize,
    stats: &[WorkerStats],
) {
    if !obs.enabled() {
        drop(region);
        return;
    }
    let region_id = region.id();
    let mut busy_ns = 0u64;
    let mut tasks = 0u64;
    for (worker, s) in stats.iter().enumerate() {
        busy_ns = busy_ns.saturating_add(s.local.counter("exec_busy_ns_total"));
        tasks += s.local.counter("exec_tasks_total");
        obs.merge_metrics(&s.local);
        if let Some(first_ns) = s.first_ns {
            obs.record_lane_span(
                "exec_lane_ns",
                lane_span_id(region_id, worker as u64),
                region_id,
                1 + worker as u64,
                first_ns,
                s.last_ns,
            );
        }
    }
    let wall_ns = region.finish();
    obs.counter_add("exec_regions_total", 1);
    obs.gauge_set("exec_workers", workers as f64);
    let denom = wall_ns.saturating_mul(workers as u64);
    let utilization = if denom == 0 {
        0.0
    } else {
        busy_ns as f64 / denom as f64
    };
    obs.emit(|| {
        Event::new("exec_region")
            .with("n", n)
            .with("workers", workers)
            .with("tasks", tasks)
            .with("wall_ns", wall_ns)
            .with("busy_ns", busy_ns)
            .with("utilization", utilization)
    });
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// With `workers == 1` this is a plain loop. Otherwise `f` runs on
/// scoped threads; each worker claims chunks of indices from a shared
/// counter, keeps `(index, value)` pairs locally, and the pairs are
/// merged into pre-indexed slots after all workers join. `f` must be
/// a pure function of its index (draw randomness only from a stream
/// derived via [`split_seed`]) for the bit-identical guarantee to hold.
///
/// Per-task latency, queue occupancy, and worker utilization land in
/// `obs` under the region's `exec_region_ns` span; instrumentation only
/// reads the clock and appends to worker-local registries, so the
/// results are bit-identical with any recorder (or [`Obs::disabled`]).
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn parallel_map<T, F>(par: Parallelism, n: usize, obs: &Obs, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.workers.min(n.max(1));
    let region = obs.span("exec_region_ns");
    if workers <= 1 {
        let mut stats = WorkerStats::new(obs);
        let out = (0..n).map(|i| stats.time(|| f(i))).collect();
        finish_region(obs, region, n, 1, std::slice::from_ref(&stats));
        return out;
    }

    let next = AtomicUsize::new(0);
    let chunk = chunk_size(n, workers);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut locals: Vec<WorkerStats> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut stats = WorkerStats::new(obs);
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    stats.queue_depth(n - start);
                    for i in start..(start + chunk).min(n) {
                        local.push((i, stats.time(|| f(i))));
                    }
                }
                (local, stats)
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok((local, stats)) => {
                    collected.extend(local);
                    locals.push(stats);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    finish_region(obs, region, n, workers, &locals);

    // Order-fixed reduction: sort by index, independent of which worker
    // produced what and when.
    collected.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), n);
    collected.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_separates_indices() {
        let seeds: Vec<u64> = (0..64).map(|i| split_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "adjacent indices must not collide"
        );
        // Different parents give different streams for the same index.
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn split_seed_is_pure() {
        assert_eq!(split_seed(0xDEAD_BEEF, 17), split_seed(0xDEAD_BEEF, 17));
    }

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::serial().workers, 1);
        assert_eq!(Parallelism::new(0).workers, 1);
        assert_eq!(Parallelism::new(6).workers, 6);
        assert!(Parallelism::available().workers >= 1);
    }

    #[test]
    fn parallel_map_matches_serial_for_all_worker_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial: Vec<u64> = (0..257).map(f).collect();
        for workers in [1, 2, 3, 4, 7, 16] {
            let par = parallel_map(Parallelism::new(workers), 257, &Obs::disabled(), f);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        for n in [0usize, 1, 2] {
            let out = parallel_map(Parallelism::new(8), n, &Obs::disabled(), |i| i * 2);
            assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn observed_map_is_bit_identical_and_counts_every_task() {
        use optassign_obs::{FakeClock, NullRecorder};
        let f = |i: usize| (i as u64).wrapping_mul(0xABCD).rotate_left(11);
        let plain = parallel_map(Parallelism::serial(), 100, &Obs::disabled(), f);
        for workers in [1, 4] {
            let clock = std::sync::Arc::new(FakeClock::new(0));
            let obs = Obs::new(
                Box::new(NullRecorder),
                Box::new(std::sync::Arc::clone(&clock)),
            );
            let observed = parallel_map(Parallelism::new(workers), 100, &obs, |i| {
                clock.advance(10);
                f(i)
            });
            assert_eq!(observed, plain, "workers={workers}");
            let snap = obs.metrics();
            assert_eq!(snap.counter("exec_tasks_total"), 100, "workers={workers}");
            assert_eq!(snap.counter("exec_regions_total"), 1);
            assert!(snap.histogram("exec_task_ns").is_some());
            assert!(snap.histogram("exec_region_ns").is_some());
        }
    }

    #[test]
    fn disabled_obs_map_records_nothing() {
        let obs = Obs::disabled();
        let out = parallel_map(Parallelism::new(4), 50, &obs, |i| i + 1);
        assert_eq!(out.len(), 50);
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn seed_split_streams_are_schedule_independent() {
        // Simulate "each slot draws from its own stream": the resulting
        // table must not depend on worker count.
        let gen = |i: usize| {
            let mut s = split_seed(99, i as u64);
            let mut vals = [0u64; 4];
            for v in &mut vals {
                s = split_seed(s, 1);
                *v = s;
            }
            vals
        };
        let serial = parallel_map(Parallelism::serial(), 64, &Obs::disabled(), gen);
        for workers in [2, 4, 7] {
            let par = parallel_map(Parallelism::new(workers), 64, &Obs::disabled(), gen);
            assert_eq!(par, serial);
        }
    }
}
