//! The one slot-measurement path.
//!
//! The paper has one measurement operation: draw random assignments and
//! measure each independently (§3 Step 1), repeated for every `N_delta`
//! round of the iterative algorithm (§5.3). Every campaign kind — the
//! plain and resilient [`crate::study::SampleStudy`] runs, the iterative
//! loop's batches on any backend, and a fleet worker's leased slots —
//! measures through [`measure_slots`], which fixes in one place:
//!
//! * the **slot-resolution policy**: the slot's own journal record
//!   (replay), on a fleet worker a peer's record of the same slot, and
//!   only then the measurement — a model through [`Measure::run`], or a
//!   fleet coordinator's leases. Nothing resolves a slot from another
//!   slot's value, so a persistent run equals a store-free run bit for
//!   bit, whatever the model;
//! * the **journaling order**: freshly resolved, measured slots in slot
//!   order, then the batch marker with the call's slot count.

use crate::model::{MeasureError, PerformanceModel};
use crate::persist;
use crate::sampling::random_assignment;
use crate::{Assignment, CoreError};
use optassign_exec::{parallel_map, split_seed, Parallelism};
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

/// A read-only source of other stores' journal records, keyed by slot —
/// the federation interface a fleet worker consults before spending
/// model evaluations on a leased slot. With no peers (or none that
/// answer) the worker journals exactly what a single node would.
pub trait PeerSlots {
    /// A peer's record of slot `slot` of batch `sequence` of `campaign`,
    /// as the contexts of the measured assignment and its value. Must be
    /// cheap to call serially per unresolved slot.
    fn lookup(&self, campaign: u64, sequence: u64, slot: u64) -> Option<(Vec<usize>, f64)>;
}

/// The empty federation: every lookup misses.
pub struct NoPeers;

impl PeerSlots for NoPeers {
    fn lookup(&self, _campaign: u64, _sequence: u64, _slot: u64) -> Option<(Vec<usize>, f64)> {
        None
    }
}

/// How a slot was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseResolution {
    /// Already journaled in this store; replayed, not re-run.
    Replayed,
    /// Served from a federated peer's record of the same slot at zero
    /// attempts.
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
    /// Climbs one slot's ladder from its primary assignment.
    fn climb<M: PerformanceModel>(
        &self,
        model: &M,
        primary: &Assignment,
        slot: u64,
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
        for draw in 0..self.draw_cap {
            for attempt in 0..=self.max_retries {
                out.attempts += 1;
                let key = (draw * (self.max_retries + 1) + attempt) as u32;
                match model.try_evaluate_at(&current, stream, key) {
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
    /// Ground truth through [`PerformanceModel::evaluate`]: one attempt
    /// per slot, never fails, values admitted as they come.
    Plain,
    /// The fallible keyed retry/redraw ladder.
    Ladder(Ladder),
}

impl Measure {
    /// Measures slot `slots[i]` with primary `primaries[i]`, one slot
    /// per task of [`parallel_map`]. Every slot runs, even after another
    /// fails, and the error reported is the smallest failing slot's, at
    /// any worker count. An empty batch enters no parallel region.
    pub(crate) fn run<M: PerformanceModel + Sync>(
        self,
        model: &M,
        slots: &[u64],
        primaries: &[Assignment],
        parallelism: Parallelism,
        obs: &Obs,
    ) -> Result<Vec<SlotOutcome>, CoreError> {
        if slots.is_empty() {
            return Ok(Vec::new());
        }
        // Outcomes come back in slot order, so collecting them stops at
        // the smallest failing slot.
        parallel_map(parallelism, slots.len(), obs, |i| match self {
            Measure::Plain => Ok(SlotOutcome::known(
                primaries[i].clone(),
                model.evaluate(&primaries[i]),
                1,
            )),
            Measure::Ladder(ladder) => ladder.climb(model, &primaries[i], slots[i]),
        })
        .into_iter()
        .collect()
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
/// never re-journaled), a peer's record of the same `(campaign,
/// sequence, slot)` whose contexts equal the primary's, and only then
/// `measure`, which gets the unresolved slots (ascending, with their
/// primaries) and returns one outcome per slot. A peer hit costs zero
/// attempts and never touches the slot's fault stream. Then freshly
/// resolved measured slots are journaled in slot order, then the batch
/// marker with `slots.len()`; an abandoned slot journals nothing and
/// re-measures deterministically on resume. Each slot counts once:
/// `exec_replayed_total`, `exec_peer_hits_total` or
/// `exec_measured_total`.
///
/// # Errors
///
/// `measure`'s error, or a wrong number of outcomes from it; nothing is
/// journaled then. Store I/O failures are counted on the store handle,
/// never raised.
pub(crate) fn measure_slots(
    slots: &[u64],
    primaries: &[Assignment],
    journal: Option<Journal<'_>>,
    peers: &dyn PeerSlots,
    obs: &Obs,
    measure: impl FnOnce(&[u64], &[Assignment]) -> Result<Vec<SlotOutcome>, CoreError>,
) -> Result<Vec<(SlotOutcome, LeaseResolution)>, CoreError> {
    let (resolved, resolutions): (Vec<Option<SlotOutcome>>, Vec<LeaseResolution>) = slots
        .iter()
        .zip(primaries)
        .map(|(&slot, primary)| {
            let Some(j) = journal else {
                return (None, LeaseResolution::Evaluated);
            };
            let replayed = j
                .store
                .lookup_slot(j.campaign, j.sequence, slot)
                .and_then(|rec| {
                    persist::assignment_from_record(&rec, primary.topology()).map(|a| SlotOutcome {
                        measured: Some((a, rec.value)),
                        attempts: rec.attempts as usize,
                        retries: rec.retries as usize,
                        redrawn: rec.redrawn as usize,
                    })
                });
            if replayed.is_some() {
                return (replayed, LeaseResolution::Replayed);
            }
            match peers.lookup(j.campaign, j.sequence, slot) {
                Some((contexts, v)) if contexts == primary.contexts() => (
                    Some(SlotOutcome::known(primary.clone(), v, 0)),
                    LeaseResolution::PeerHit,
                ),
                _ => (None, LeaseResolution::Evaluated),
            }
        })
        .unzip();
    for (counter, what) in [
        ("exec_replayed_total", LeaseResolution::Replayed),
        ("exec_peer_hits_total", LeaseResolution::PeerHit),
        ("exec_measured_total", LeaseResolution::Evaluated),
    ] {
        let n = resolutions.iter().filter(|&&r| r == what).count();
        obs.counter_add(counter, n as u64);
    }

    let (fresh_slots, fresh_primaries): (Vec<u64>, Vec<Assignment>) = resolved
        .iter()
        .zip(slots.iter().zip(primaries))
        .filter(|(outcome, _)| outcome.is_none())
        .map(|(_, (&slot, primary))| (slot, primary.clone()))
        .unzip();
    let mut measured = measure(&fresh_slots, &fresh_primaries)?.into_iter();
    let outcomes: Option<Vec<SlotOutcome>> = resolved
        .into_iter()
        .map(|outcome| outcome.or_else(|| measured.next()))
        .collect();
    let Some(outcomes) = outcomes.filter(|_| measured.next().is_none()) else {
        return Err(CoreError::Measurement(MeasureError::Failed(format!(
            "measurement answered a wrong number of outcomes for {} unresolved slots",
            fresh_slots.len()
        ))));
    };

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
