//! Campaign identity and record plumbing for the durable store.
//!
//! The store-taking entry points in [`crate::study`] and
//! [`crate::iterative`] journal every measurement into an
//! [`optassign_store::CampaignStore`] and resume interrupted campaigns by
//! deterministic replay: the algorithm re-runs from its seed, and any
//! slot whose record is already journaled skips measurement, restoring
//! the logged value and bookkeeping instead. Because slots are pure
//! functions of `(seed, slot, attempt)` and reductions are order-fixed,
//! a resumed campaign is bit-identical to an uninterrupted one.
//!
//! A campaign's records are keyed by a **campaign identity**: a
//! fingerprint of the seed and every shape parameter that influences the
//! measurement sequence. Two campaigns share records only when their
//! identities collide on purpose: the same call repeated, or a plain
//! study of another size on the same seed, whose slots are the same
//! draws (see [`study_campaign_id`]). The identity
//! deliberately excludes the worker count — resuming at a different
//! `parallelism` is supported and exact — and cannot include the model
//! itself (models are arbitrary code), so **distinct models or fault
//! plans must use distinct store directories**; the bench layer scopes
//! its per-benchmark stores accordingly.

use crate::assignment::Assignment;
use crate::iterative::IterativeConfig;
use optassign_sim::Topology;
use optassign_store::fingerprint;
use optassign_store::record::MeasurementRecord;

pub use optassign_store::io::{FaultyIo, IoFaultPlan, RealIo, StoreIo};
pub use optassign_store::{fsck, CampaignStore, FsckReport};

/// Salt separating plain-study campaigns from every other campaign kind.
const STUDY_SALT: u64 = 0x5354_5544_5943_4D50;
/// Salt for resilient-study campaigns (same seed/n as a plain study must
/// not share records: the measurement sequences differ).
const RESILIENT_SALT: u64 = 0x5253_4C4E_5443_4D50;
/// Salt for iterative-algorithm campaigns.
const ITER_SALT: u64 = 0x4954_4552_4354_4D50;

fn topology_parts(topo: Topology) -> [u64; 3] {
    [
        topo.cores as u64,
        topo.pipes_per_core as u64,
        topo.strands_per_pipe as u64,
    ]
}

/// Campaign identity of a persistent [`crate::study::SampleStudy::run_with`].
/// It leaves out the sample size: slot `k` is the `k`-th draw of the
/// seeded stream measured on its own, whatever `n` is, so studies of
/// different sizes on one seed share their common prefix of records.
#[must_use]
pub fn study_campaign_id(seed: u64, tasks: usize, topo: Topology) -> u64 {
    let t = topology_parts(topo);
    fingerprint(&[STUDY_SALT, seed, tasks as u64, t[0], t[1], t[2]])
}

/// Campaign identity of a persistent
/// [`crate::study::SampleStudy::run_resilient_with`]. Unlike the plain
/// study's, it includes `n`: each slot's draw cap depends on it.
#[must_use]
pub fn resilient_campaign_id(
    seed: u64,
    n: usize,
    max_retries: usize,
    tasks: usize,
    topo: Topology,
) -> u64 {
    let t = topology_parts(topo);
    fingerprint(&[
        RESILIENT_SALT,
        seed,
        n as u64,
        max_retries as u64,
        tasks as u64,
        t[0],
        t[1],
        t[2],
    ])
}

/// Campaign identity of
/// [`crate::iterative::run_iterative_persistent`]: the seed plus every
/// [`IterativeConfig`] field that shapes the measurement sequence.
/// `parallelism` is excluded — the resume contract holds at any worker
/// count, so a campaign may be resumed with a different one.
#[must_use]
pub fn iterative_campaign_id(
    seed: u64,
    config: &IterativeConfig,
    tasks: usize,
    topo: Topology,
) -> u64 {
    use optassign_evt::resilient::FallbackPolicy;
    let t = topology_parts(topo);
    let fallback = match config.fallback {
        FallbackPolicy::Strict => 0u64,
        FallbackPolicy::Profile => 1,
        FallbackPolicy::Full => 2,
    };
    fingerprint(&[
        ITER_SALT,
        seed,
        config.n_init as u64,
        config.n_delta as u64,
        config.acceptable_loss.to_bits(),
        config.confidence.to_bits(),
        config.max_samples as u64,
        config.max_eval_retries as u64,
        config.eval_budget as u64,
        config.stall_rounds as u64,
        config.min_rel_improvement.to_bits(),
        config.estimate_failure_limit as u64,
        fallback,
        tasks as u64,
        t[0],
        t[1],
        t[2],
    ])
}

/// Builds the journal record for one resolved campaign slot. Only
/// `measure::measure_slots` journals slots, so every store — a single
/// node's, a fleet coordinator's, a worker's shard — carries
/// byte-identical records for the same slot.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub(crate) fn slot_record(
    campaign: u64,
    sequence: u64,
    slot: usize,
    assignment: &Assignment,
    value: f64,
    attempts: usize,
    retries: usize,
    redrawn: usize,
) -> MeasurementRecord {
    MeasurementRecord {
        campaign,
        sequence,
        slot: slot as u64,
        key: assignment.canonical_hash(),
        value,
        attempts: attempts.min(u32::MAX as usize) as u32,
        retries: retries.min(u32::MAX as usize) as u32,
        redrawn: redrawn.min(u32::MAX as usize) as u32,
        contexts: assignment
            .contexts()
            .iter()
            .map(|&c| c.min(u32::MAX as usize) as u32)
            .collect(),
    }
}

/// Rebuilds the measured assignment journaled in `record`, validating it
/// against the model's topology. Returns `None` when the record does not
/// describe a feasible assignment for this topology — the caller then
/// re-measures the slot.
#[must_use]
pub fn assignment_from_record(record: &MeasurementRecord, topo: Topology) -> Option<Assignment> {
    let contexts: Vec<usize> = record.contexts.iter().map(|&c| c as usize).collect();
    Assignment::new(contexts, topo).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Topology {
        Topology::ultrasparc_t2()
    }

    #[test]
    fn campaign_ids_separate_kinds_and_parameters() {
        let study = study_campaign_id(7, 6, t2());
        assert_eq!(study, study_campaign_id(7, 6, t2()));
        assert_ne!(study, study_campaign_id(8, 6, t2()));
        assert_ne!(study, study_campaign_id(7, 7, t2()));
        assert_ne!(study, study_campaign_id(7, 6, Topology::new(4, 2, 4)));
        // The resilient study's draw cap depends on n, so n separates
        // its campaigns.
        let resilient = resilient_campaign_id(7, 100, 0, 6, t2());
        assert_ne!(resilient, resilient_campaign_id(7, 101, 0, 6, t2()));
        // Same parameters, different campaign kind: distinct records.
        assert_ne!(study, resilient);
    }

    #[test]
    fn iterative_id_ignores_parallelism_only() {
        use optassign_exec::Parallelism;
        let base = IterativeConfig::default();
        let id = iterative_campaign_id(3, &base, 6, t2());
        let reparallel = IterativeConfig {
            parallelism: Parallelism::new(7),
            ..base.clone()
        };
        assert_eq!(id, iterative_campaign_id(3, &reparallel, 6, t2()));
        let retarget = IterativeConfig {
            acceptable_loss: 0.05,
            ..base.clone()
        };
        assert_ne!(id, iterative_campaign_id(3, &retarget, 6, t2()));
        let rebudget = IterativeConfig {
            eval_budget: base.eval_budget + 1,
            ..base
        };
        assert_ne!(id, iterative_campaign_id(3, &rebudget, 6, t2()));
    }

    #[test]
    fn slot_record_roundtrips_the_assignment() {
        let a = Assignment::new(vec![0, 9, 33], t2()).unwrap();
        let rec = slot_record(1, 2, 3, &a, 4.5, 6, 1, 0);
        assert_eq!(rec.key, a.canonical_hash());
        assert_eq!(rec.contexts, vec![0, 9, 33]);
        let back = assignment_from_record(&rec, t2()).unwrap();
        assert_eq!(back, a);
        // A record whose contexts collide is rejected, not trusted.
        let mut bad = rec;
        bad.contexts = vec![0, 0, 0];
        assert!(assignment_from_record(&bad, t2()).is_none());
    }
}
