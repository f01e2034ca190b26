//! Golden-value regression tests.
//!
//! Two anchors that must never drift silently:
//!
//! * Figure 2's capture probabilities have the closed form
//!   `P(A) = 1 − ((100 − P)/100)^n`; the table below pins a grid of them
//!   to full double precision.
//! * A small fixed-seed iterative run pins the end-to-end pipeline
//!   (sampling → measurement → POT estimate → stopping rule). Any change
//!   to the RNG streams, the estimator, or the loop shows up here first.
//!
//! * The write-ahead log bytes of four fixed-seed persistent campaigns
//!   (plain study, resilient study, iterative run, leased slots) pin the
//!   record order and the attempt/retry/redraw bookkeeping of every
//!   measurement path, which the cross-path byte-identity tests cannot
//!   see once the paths share code.
//!
//! If an intentional change moves these values, re-derive the goldens and
//! say so in the commit message — that is the point of the test.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{
    measure_leased_slots, run_iterative, run_iterative_persistent, IterativeConfig, LeaseRequest,
    LeaseResolution, LeasedSlot, PeerCache,
};
use optassign::model::SyntheticModel;
use optassign::persist::CampaignStore;
use optassign::probability::capture_probability;
use optassign::sampling::sample_assignments;
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_obs::Obs;
use optassign_stats::rng::StdRng;
use optassign_store::WAL_FILE;
use std::path::{Path, PathBuf};

#[test]
fn fig2_capture_probabilities_match_the_closed_form() {
    // (n, top fraction, 1 − (1 − f)^n) — values computed independently.
    let golden = [
        (10, 0.01, 0.095_617_924_991_195_59),
        (10, 0.05, 0.401_263_060_761_621_3),
        (10, 0.25, 0.943_686_485_290_527_3),
        (100, 0.01, 0.633_967_658_726_770_9),
        (100, 0.05, 0.994_079_470_779_666),
        (100, 0.25, 0.999_999_999_999_679_3),
        (300, 0.01, 0.950_959_105_928_714_2),
        (300, 0.05, 0.999_999_792_469_665_2),
        (500, 0.01, 0.993_429_516_957_585_4),
        (1000, 0.01, 0.999_956_828_752_589_3),
    ];
    for (n, f, expected) in golden {
        let p = capture_probability(n, f).unwrap();
        assert!(
            (p - expected).abs() < 1e-12,
            "P(n={n}, f={f}) = {p}, golden {expected}"
        );
    }
    // The paper's headline anchor: 459 samples capture a top-1%
    // assignment with ≥ 99% probability.
    assert!(capture_probability(459, 0.01).unwrap() > 0.99);
    assert!(capture_probability(458, 0.01).unwrap() < 0.99);
}

#[test]
fn fixed_seed_iterative_run_matches_goldens() {
    let model = SyntheticModel::new(Topology::ultrasparc_t2(), 8, 2.0e6);
    let cfg = IterativeConfig {
        n_init: 400,
        n_delta: 100,
        acceptable_loss: 0.006,
        ..IterativeConfig::default()
    };
    let r = run_iterative(&model, &cfg, 2024).unwrap();

    // Discrete goldens hold exactly.
    assert!(r.converged, "stopped with {:?}", r.stop);
    assert_eq!(r.samples_used, 1000);
    assert_eq!(r.evaluations, 1000);
    assert_eq!(r.trace.len(), 7);
    assert_eq!(
        r.best_assignment.contexts(),
        &[56, 12, 28, 51, 46, 3, 37, 22]
    );

    // Floating-point goldens: the pipeline is deterministic, so equality
    // should be bit-exact; the tolerance only shields against libm
    // differences across platforms.
    let close = |got: f64, want: f64| (got - want).abs() <= want.abs() * 1e-9;
    assert!(
        close(r.best_performance, 1_998_369.155_981_07),
        "best_performance = {:?}",
        r.best_performance
    );
    assert!(
        close(r.final_estimate.upb.point, 2_008_874.095_561_118_3),
        "upb = {:?}",
        r.final_estimate.upb.point
    );
    assert!(
        close(r.trace[0].gap, 0.006_425_516_068_270_274),
        "first gap = {:?}",
        r.trace[0].gap
    );
    assert!(
        close(r.trace[6].gap, 0.005_229_267_281_240_04),
        "last gap = {:?}",
        r.trace[6].gap
    );
}

/// Length and 64-bit FNV-1a digest of a store's `campaign.wal`.
fn wal_digest(dir: &Path) -> (usize, u64) {
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("campaign.wal exists");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), hash)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optassign-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A model whose measurements fail 30% of the time and are otherwise
/// exact: retries and redraws happen, values stay plain arithmetic.
fn flaky() -> FaultyModel<SyntheticModel> {
    let plan = FaultPlan {
        fail_rate: 0.3,
        ..FaultPlan::none(5)
    };
    FaultyModel::new(
        SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6),
        plan,
    )
}

/// Answers for exactly one canonical key.
struct OnePeer(u64);

impl PeerCache for OnePeer {
    fn lookup(&self, key: u64) -> Option<f64> {
        (key == self.0).then_some(777_777.0)
    }
}

#[test]
fn wal_bytes_of_every_measurement_path_match_goldens() {
    let synthetic = SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6);
    let par = Parallelism::new(2);
    let obs = Obs::disabled();

    // Plain study, then a longer study on the same seed: its first 60
    // slots are evaluation-cache hits journaled at zero attempts.
    let dir = fresh_dir("study");
    let store = CampaignStore::open(&dir).unwrap();
    SampleStudy::run_with(&synthetic, 60, 7, par, &obs, Some(&store)).unwrap();
    SampleStudy::run_with(&synthetic, 90, 7, par, &obs, Some(&store)).unwrap();
    drop(store);
    let study = wal_digest(&dir);

    // Resilient study with retries and redraws, then a longer one on the
    // same seed whose first-draw primaries hit the cache.
    let dir_res = fresh_dir("resilient");
    let store = CampaignStore::open(&dir_res).unwrap();
    let model = flaky();
    let (_, log) =
        SampleStudy::run_resilient_with(&model, 80, 11, 1, par, &obs, Some(&store)).unwrap();
    assert!(log.retries > 0 && log.redrawn > 0, "{log:?}");
    SampleStudy::run_resilient_with(&model, 100, 11, 1, par, &obs, Some(&store)).unwrap();
    drop(store);
    let resilient = wal_digest(&dir_res);

    // Iterative campaign on the same flaky model.
    let dir_iter = fresh_dir("iterative");
    let store = CampaignStore::open(&dir_iter).unwrap();
    let cfg = IterativeConfig {
        n_init: 100,
        n_delta: 50,
        acceptable_loss: 0.001,
        max_samples: 250,
        max_eval_retries: 1,
        parallelism: par,
        ..IterativeConfig::default()
    };
    let r = run_iterative_persistent(&flaky(), &cfg, 13, &store).unwrap();
    assert!(r.evaluations > r.samples_used);
    drop(store);
    let iterative = wal_digest(&dir_iter);

    // A strided lease over one 40-slot batch, one slot served by a peer.
    let dir_lease = fresh_dir("lease");
    let store = CampaignStore::open(&dir_lease).unwrap();
    let model = flaky();
    let mut rng = StdRng::seed_from_u64(17);
    let primaries = sample_assignments(40, 6, Topology::ultrasparc_t2(), &mut rng).unwrap();
    let slots: Vec<LeasedSlot> = (1..40)
        .step_by(3)
        .map(|slot| LeasedSlot {
            slot: slot as u64,
            primary: primaries[slot].clone(),
        })
        .collect();
    let peer = OnePeer(slots[4].primary.canonical_hash());
    let lease = LeaseRequest {
        campaign: 0xC0FFEE,
        sequence: 3,
        batch_salt: 0x5EED,
        want: 40,
        max_retries: 1,
        draw_cap: 4,
        slots,
    };
    let out = measure_leased_slots(&model, &lease, &store, &peer, par, &obs, 0).unwrap();
    assert_eq!(out[4].resolution, LeaseResolution::PeerHit);
    drop(store);
    let leased = wal_digest(&dir_lease);

    for d in [dir, dir_res, dir_iter, dir_lease] {
        let _ = std::fs::remove_dir_all(d);
    }
    assert_eq!(
        [study, resilient, iterative, leased],
        [
            (14_032, 0xa3b2_9e42_8fdf_ddea),
            (16_822, 0x9af1_16a7_ad15_7ca0),
            (9_345, 0x83e2_0d1c_5b27_efca),
            (1_254, 0x73a3_498f_f86e_f88d),
        ],
        "[study, resilient, iterative, leased] (len, fnv1a64) of campaign.wal"
    );
}
