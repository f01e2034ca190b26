//! The one slot-measurement path.
//!
//! The paper has one measurement operation: draw random assignments and
//! measure each independently (§3 Step 1), repeated for every `N_delta`
//! round of the iterative algorithm (§5.3). Every campaign kind — the
//! plain and resilient [`crate::study::SampleStudy`] runs, the iterative
//! loop's in-process batches, and a fleet worker's leased slots —
//! measures through [`measure_slots`], which fixes in one place:
//!
//! * the **slot-resolution policy**: the store's journal (replay), its
//!   evaluation cache, the peer caches, and only then the model;
//! * the **measurement**: ground truth through `evaluate_batch`, or the
//!   keyed retry/redraw [`Ladder`] with a batched first attempt;
//! * the **journaling order**: freshly resolved, measured slots in slot
//!   order, then the batch marker with the call's slot count.

use crate::model::{MeasureError, PerformanceModel};
use crate::persist;
use crate::sampling::random_assignment;
use crate::{Assignment, CoreError};
use optassign_exec::{split_seed, try_parallel_map_batched, Parallelism};
use optassign_obs::Obs;
use optassign_stats::rng::StdRng;
use optassign_store::CampaignStore;

/// Outcome of one slot of a measurement batch: either a measured
/// assignment or an abandoned slot, plus the attempts it consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// The measured assignment and its performance; `None` when every
    /// draw exhausted its retry budget and the slot was abandoned.
    pub measured: Option<(Assignment, f64)>,
    /// Measurement attempts the slot consumed (successes and failures).
    pub attempts: usize,
    /// Retries among those attempts.
    pub retries: usize,
    /// Primary/replacement assignments abandoned and redrawn.
    pub redrawn: usize,
}

impl SlotOutcome {
    /// A measured slot with no retries or redraws.
    fn known(assignment: Assignment, value: f64, attempts: usize) -> Self {
        SlotOutcome {
            measured: Some((assignment, value)),
            attempts,
            retries: 0,
            redrawn: 0,
        }
    }
}

/// A read-only source of already-measured values keyed by canonical
/// assignment hash — the federation interface a fleet worker consults
/// before spending model evaluations on a leased slot. Lookup order is
/// fixed (own journal, own cache, peers), so for a given peer
/// configuration the journaled bytes are deterministic; with no peers
/// (or none that answer) the worker journals exactly what a single node
/// would.
pub trait PeerCache {
    /// The measured value for a canonical assignment hash, if any peer
    /// knows it. Must be cheap to call serially per miss slot.
    fn lookup(&self, key: u64) -> Option<f64>;
}

/// The empty federation: every lookup misses.
pub struct NoPeers;

impl PeerCache for NoPeers {
    fn lookup(&self, _key: u64) -> Option<f64> {
        None
    }
}

/// How a slot was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseResolution {
    /// Already journaled in this store; replayed, not re-run.
    Replayed,
    /// Served from the store's own evaluation cache at zero attempts.
    CacheHit,
    /// Served from a federated peer cache at zero attempts.
    PeerHit,
    /// Evaluated against the model.
    Evaluated,
    /// Evaluated, but every draw failed; nothing was journaled.
    Abandoned,
}

impl LeaseResolution {
    /// Stable snake_case name for wire formats and journals.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LeaseResolution::Replayed => "replayed",
            LeaseResolution::CacheHit => "cache_hit",
            LeaseResolution::PeerHit => "peer_hit",
            LeaseResolution::Evaluated => "evaluated",
            LeaseResolution::Abandoned => "abandoned",
        }
    }
}

/// The keyed retry/redraw ladder of one slot.
///
/// The slot's primary assignment gets `1 + max_retries` attempts keyed
/// `(split_seed(stream_salt, slot), k)`; an exhausted assignment is
/// replaced from the slot's private redraw stream
/// `split_seed(redraw_salt, slot)`, up to `draw_cap` draws. Everything a
/// slot does is a pure function of the salts and its slot id —
/// independent of every other slot and of scheduling order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ladder {
    /// Salt of the slots' measurement streams.
    pub stream_salt: u64,
    /// Salt of the slots' replacement-draw streams.
    pub redraw_salt: u64,
    /// Retries per assignment before it is abandoned and redrawn.
    pub max_retries: usize,
    /// Draws per slot.
    pub draw_cap: usize,
    /// Whether a slot whose every draw failed is an error (a study needs
    /// every slot) or an abandoned outcome (an iterative batch drops it).
    pub exhausted_is_error: bool,
}

impl Ladder {
    /// Climbs one slot's ladder. `first` is the outcome of the slot's
    /// first attempt (key 0 on the primary), prefetched for its whole
    /// chunk through [`PerformanceModel::try_evaluate_batch_at`]; the
    /// keyed contract makes it exactly what the scalar call would return.
    fn climb<M: PerformanceModel>(
        &self,
        model: &M,
        primary: &Assignment,
        slot: u64,
        first: Result<f64, MeasureError>,
    ) -> Result<SlotOutcome, CoreError> {
        let stream = split_seed(self.stream_salt, slot);
        let mut redraw_rng: Option<StdRng> = None;
        let mut current = primary.clone();
        let mut out = SlotOutcome {
            measured: None,
            attempts: 0,
            retries: 0,
            redrawn: 0,
        };
        let mut last_err = MeasureError::Failed("no measurement attempted".into());
        // Consumed by the first iteration (draw 0, attempt 0).
        let mut prefetched = Some(first);
        for draw in 0..self.draw_cap {
            for attempt in 0..=self.max_retries {
                out.attempts += 1;
                let key = (draw * (self.max_retries + 1) + attempt) as u32;
                let outcome = match prefetched.take() {
                    Some(r) => r,
                    None => model.try_evaluate_at(&current, stream, key),
                };
                match outcome {
                    Ok(v) => {
                        out.retries = attempt;
                        out.measured = Some((current, v));
                        return Ok(out);
                    }
                    Err(e) => last_err = e,
                }
            }
            out.redrawn += 1;
            if draw + 1 < self.draw_cap {
                let r = redraw_rng.get_or_insert_with(|| {
                    StdRng::seed_from_u64(split_seed(self.redraw_salt, slot))
                });
                current = random_assignment(model.tasks(), model.topology(), r)?;
            }
        }
        if self.exhausted_is_error {
            return Err(CoreError::Measurement(MeasureError::Failed(format!(
                "slot {slot}: budget of {} draws × {} attempts exhausted; last error: {last_err}",
                self.draw_cap,
                self.max_retries + 1
            ))));
        }
        Ok(out)
    }
}

/// How a slot that nothing resolves is measured.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Measure {
    /// Ground truth through [`PerformanceModel::evaluate_batch`]: one
    /// attempt per slot, never fails, values admitted as they come.
    Plain,
    /// The fallible keyed retry/redraw ladder.
    Ladder(Ladder),
}

impl Measure {
    /// Measures the chunk `idxs` of a batch in one batched model call
    /// (the ladder finishes retries and redraws per slot).
    fn chunk<M: PerformanceModel>(
        self,
        model: &M,
        slots: &[u64],
        primaries: &[Assignment],
        idxs: &[usize],
    ) -> Vec<Result<SlotOutcome, CoreError>> {
        let chunk: Vec<Assignment> = idxs.iter().map(|&i| primaries[i].clone()).collect();
        match self {
            Measure::Plain => {
                let values = model.evaluate_batch(&chunk);
                chunk
                    .into_iter()
                    .zip(values)
                    .map(|(a, v)| Ok(SlotOutcome::known(a, v, 1)))
                    .collect()
            }
            Measure::Ladder(ladder) => {
                let keys: Vec<(u64, u32)> = idxs
                    .iter()
                    .map(|&i| (split_seed(ladder.stream_salt, slots[i]), 0))
                    .collect();
                let first = model.try_evaluate_batch_at(&chunk, &keys);
                idxs.iter()
                    .zip(first)
                    .map(|(&i, f)| ladder.climb(model, &primaries[i], slots[i], f))
                    .collect()
            }
        }
    }
}

/// Where a batch journals: its store, campaign and sequence.
#[derive(Clone, Copy)]
pub(crate) struct Journal<'a> {
    pub store: &'a CampaignStore,
    pub campaign: u64,
    pub sequence: u64,
}

/// Resolves, measures, and journals one batch of slots: slot `slots[i]`
/// with primary assignment `primaries[i]`.
///
/// Each slot resolves in a fixed order: its journal record (replayed,
/// never re-journaled), the store's evaluation cache, the peer caches,
/// and only then the model, through `measure`. Cache and peer hits cost
/// zero attempts and never touch the slot's fault stream. Every lookup
/// precedes the parallel region, and cache inserts only happen at the
/// batch marker, so what a slot sees never depends on scheduling. After
/// the region, freshly resolved measured slots are journaled in slot
/// order, then the batch marker with `slots.len()`; an abandoned slot
/// journals nothing and re-measures deterministically on resume.
///
/// # Errors
///
/// The error of the smallest failing slot; nothing is journaled then.
/// Store I/O failures are counted on the store handle, never raised.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure_slots<M: PerformanceModel + Sync>(
    model: &M,
    slots: &[u64],
    primaries: &[Assignment],
    journal: Option<Journal<'_>>,
    peers: &dyn PeerCache,
    measure: Measure,
    parallelism: Parallelism,
    obs: &Obs,
) -> Result<Vec<(SlotOutcome, LeaseResolution)>, CoreError> {
    let topo = model.topology();
    let (resolved, resolutions): (Vec<Option<SlotOutcome>>, Vec<LeaseResolution>) = slots
        .iter()
        .zip(primaries)
        .map(|(&slot, primary)| {
            let replayed = journal
                .and_then(|j| j.store.lookup_slot(j.campaign, j.sequence, slot))
                .and_then(|rec| {
                    persist::assignment_from_record(&rec, topo).map(|a| SlotOutcome {
                        measured: Some((a, rec.value)),
                        attempts: rec.attempts as usize,
                        retries: rec.retries as usize,
                        redrawn: rec.redrawn as usize,
                    })
                });
            if replayed.is_some() {
                return (replayed, LeaseResolution::Replayed);
            }
            let key = primary.canonical_hash();
            let hit = journal
                .and_then(|j| j.store.cache_lookup(key))
                .map(|v| (v, LeaseResolution::CacheHit))
                .or_else(|| peers.lookup(key).map(|v| (v, LeaseResolution::PeerHit)));
            match hit {
                Some((v, how)) => (Some(SlotOutcome::known(primary.clone(), v, 0)), how),
                None => (None, LeaseResolution::Evaluated),
            }
        })
        .unzip();

    let outcomes = try_parallel_map_batched(parallelism, resolved, obs, |idxs| {
        measure.chunk(model, slots, primaries, idxs)
    })?;

    if let Some(j) = journal {
        for ((outcome, &resolution), &slot) in outcomes.iter().zip(&resolutions).zip(slots) {
            match &outcome.measured {
                Some((a, v)) if resolution != LeaseResolution::Replayed => {
                    j.store.append_measurement(&persist::slot_record(
                        j.campaign,
                        j.sequence,
                        slot as usize,
                        a,
                        *v,
                        outcome.attempts,
                        outcome.retries,
                        outcome.redrawn,
                    ));
                }
                _ => {}
            }
        }
        j.store
            .end_batch(j.campaign, j.sequence, slots.len() as u64);
    }
    Ok(outcomes
        .into_iter()
        .zip(resolutions)
        .map(|(outcome, resolution)| match outcome.measured {
            Some(_) => (outcome, resolution),
            None => (outcome, LeaseResolution::Abandoned),
        })
        .collect())
}
