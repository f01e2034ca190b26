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
//! * The case-study workloads (every `Benchmark`, two deep pipelines) and
//!   what both simulation engines report on them pin the `netapps`
//!   builders and the engines to the numbers every experiment starts from.
//!
//! If an intentional change moves these values, re-derive the goldens and
//! say so in the commit message — that is the point of the test.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{
    measure_leased_slots, run_iterative, run_iterative_persistent, IterativeConfig, LeaseRequest,
    LeaseResolution, PeerSlots,
};
use optassign::model::SyntheticModel;
use optassign::persist::CampaignStore;
use optassign::probability::capture_probability;
use optassign::sampling::sample_assignments;
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_netapps::deep::build_deep_ipfwd;
use optassign_netapps::Benchmark;
use optassign_obs::Obs;
use optassign_sim::{BatchSimulator, MachineConfig, SimReport, Simulator, WorkloadSpec};
use optassign_stats::rng::StdRng;
use optassign_store::WAL_FILE;
use std::fmt::Write;
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

/// 64-bit FNV-1a digest of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Length and 64-bit FNV-1a digest of a store's `campaign.wal`.
fn wal_digest(dir: &Path) -> (usize, u64) {
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("campaign.wal exists");
    (bytes.len(), fnv1a(&bytes))
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

/// Holds a record of exactly one slot: `(campaign, sequence, slot)` and
/// the contexts it measured.
struct OnePeer((u64, u64, u64), Vec<usize>);

impl PeerSlots for OnePeer {
    fn lookup(&self, campaign: u64, sequence: u64, slot: u64) -> Option<(Vec<usize>, f64)> {
        ((campaign, sequence, slot) == self.0).then(|| (self.1.clone(), 777_777.0))
    }
}

#[test]
fn wal_bytes_of_every_measurement_path_match_goldens() {
    let synthetic = SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6);
    let par = Parallelism::new(2);
    let obs = Obs::disabled();

    // Plain study, then a longer study on the same seed: the same
    // campaign, whose first 60 slots replay and the other 30 measure.
    let dir = fresh_dir("study");
    let store = CampaignStore::open(&dir).unwrap();
    SampleStudy::run_with(&synthetic, 60, 7, par, &obs, Some(&store)).unwrap();
    SampleStudy::run_with(&synthetic, 90, 7, par, &obs, Some(&store)).unwrap();
    drop(store);
    let study = wal_digest(&dir);

    // Resilient study with retries and redraws, then a longer one on the
    // same seed: another campaign (its draw cap depends on n), measured
    // in full.
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
    let slots: Vec<u64> = (1..40).step_by(3).collect();
    let primaries: Vec<_> = slots
        .iter()
        .map(|&s| primaries[s as usize].clone())
        .collect();
    let peer = OnePeer((0xC0FFEE, 3, slots[4]), primaries[4].contexts().to_vec());
    let lease = LeaseRequest {
        campaign: 0xC0FFEE,
        sequence: 3,
        batch_salt: 0x5EED,
        max_retries: 1,
        draw_cap: 4,
        slots,
        primaries,
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
            (8_415, 0x752f_14d1_6df6_8650),
            (16_822, 0x7efc_3f8b_d6f2_4f39),
            (9_345, 0x83e2_0d1c_5b27_efca),
            (1_254, 0xb175_abae_6ca1_6ec6),
        ],
        "[study, resilient, iterative, leased] (len, fnv1a64) of campaign.wal"
    );
}

/// The experiment harness's base seed (`optassign_bench::BASE_SEED`).
const HARNESS_SEED: u64 = 0x0A5F_2012;

/// FNV-1a over every field of `reports`, floats as raw bits.
fn report_digest(reports: &[SimReport]) -> u64 {
    let mut text = String::new();
    for r in reports {
        let SimReport {
            measured_cycles,
            clock_hz,
            packets_transmitted,
            per_task_transmits,
            per_task_iterations,
            l1d_hit_rates,
            l2_hit_rate,
            issue_slots_granted,
            first_transmit_cycle,
            last_transmit_cycle,
        } = r;
        let l1d: Vec<u64> = l1d_hit_rates.iter().map(|h| h.to_bits()).collect();
        writeln!(
            text,
            "{measured_cycles} {:x} {packets_transmitted} {per_task_transmits:?} \
             {per_task_iterations:?} {l1d:x?} {:x} {issue_slots_granted} \
             {first_transmit_cycle:?} {last_transmit_cycle:?}",
            clock_hz.to_bits(),
            l2_hit_rate.to_bits(),
        )
        .unwrap();
    }
    fnv1a(text.as_bytes())
}

/// `case: workload digest, report digest`, captured from the scalar
/// engine. The workload digest is FNV-1a over the spec's `Debug`
/// rendering: every task name, program op, code size, region and queue.
const CASE_STUDY_GOLDEN: [&str; 37] = [
    "IPFwd-L1 x2 seed 0x1: 0cd3c8ed1fd46bf9 b3e8d660d0918f36",
    "IPFwd-L1 x8 seed 0x1: 2fa2563b98ea1902 6be2259788f7994b",
    "IPFwd-Mem x2 seed 0x1: 733ed217de230409 8d3e1d079cf2b90a",
    "IPFwd-Mem x8 seed 0x1: 9ed6684cafcb713c 37350fd3f77c3b69",
    "Packet analyzer x2 seed 0x1: f9a3040bd03f0613 f9965dd9729fcc1b",
    "Packet analyzer x8 seed 0x1: 1352f3341219d3ca 7f952d8324ecacd8",
    "Aho-Corasick x2 seed 0x1: 28d11931ed164f19 14800b98e7ee7431",
    "Aho-Corasick x8 seed 0x1: 4d839dde9bcdd126 e5917d46551e0ca8",
    "Stateful x2 seed 0x1: ce3871f92c17d21f 2c5ee5bd2fc9e7d5",
    "Stateful x8 seed 0x1: 33eefc11ede6bd95 d9d79fd7fd1964e1",
    "IPFwd-intadd x2 seed 0x1: 390d1ad1ccace0a7 c8fa53965a5b332b",
    "IPFwd-intadd x8 seed 0x1: 0aeb69d5b90a51c4 d7794dd531a6c565",
    "IPFwd-intmul x2 seed 0x1: a1f2ed639631696d cbbdb2dcfebad2eb",
    "IPFwd-intmul x8 seed 0x1: 6dcf11ff494136b6 9f9398c903f56de2",
    "deep-ipfwd x2 p3 seed 0x1: e134bc91912b2b47 58d3a8cf994dee16",
    "deep-ipfwd x8 p2 seed 0x1: 15794d2e4fafc973 08aff22e1966ec16",
    "IPFwd-L1 x2 seed 0xa5f2012: efda3e9daea20c83 e53c49d4884afe81",
    "IPFwd-L1 x8 seed 0xa5f2012: f5c73c7418122c14 cd9cc08a0e75010b",
    "IPFwd-Mem x2 seed 0xa5f2012: d49ed0da16159753 01de02bd07089683",
    "IPFwd-Mem x8 seed 0xa5f2012: a97b06bc5cea3056 91454c686f009c25",
    "Packet analyzer x2 seed 0xa5f2012: 54b6fe2fcadde14d 26ec6fe795a6b2e6",
    "Packet analyzer x8 seed 0xa5f2012: c4eaf1ab67134d5c 21693758f6e1e0b9",
    "Aho-Corasick x2 seed 0xa5f2012: a5abc65f8dbfdd13 9869c4a1e4e67676",
    "Aho-Corasick x8 seed 0xa5f2012: 4d7e6d1f3c6d4e28 d79ba4d79c573ef0",
    "Stateful x2 seed 0xa5f2012: bb82be4751fc2b15 e9c83c549526eaff",
    "Stateful x8 seed 0xa5f2012: d0b80088912a11af 0123f15e46fbd718",
    "IPFwd-intadd x2 seed 0xa5f2012: 4ea4da7760694c11 0a7ab4d6ebda6657",
    "IPFwd-intadd x8 seed 0xa5f2012: 77f69a425291638e 9afd955c5f1c4e82",
    "IPFwd-intmul x2 seed 0xa5f2012: 66043b6bd338e517 67288b013576ffc0",
    "IPFwd-intmul x8 seed 0xa5f2012: 7cb86a2b1f33d070 5397e9ed98804f0d",
    "deep-ipfwd x2 p3 seed 0xa5f2012: f5712a74d518a721 781514eee2c0a2b1",
    "deep-ipfwd x8 p2 seed 0xa5f2012: e9269c711ea4dba1 bd5c44d9407e8019",
    "IPFwd-L1 x8 case study: f5c73c7418122c14 2d9db9293bd7f0d7",
    "IPFwd-Mem x8 case study: a97b06bc5cea3056 053dced522defdea",
    "Packet analyzer x8 case study: c4eaf1ab67134d5c 87e7b89bff9b99dc",
    "Aho-Corasick x8 case study: 4d7e6d1f3c6d4e28 c84d437638ccdca9",
    "Stateful x8 case study: d0b80088912a11af 5ecff05be6805c83",
];

#[test]
fn case_study_workloads_and_reports_match_goldens() {
    const SHORT: (u64, u64) = (2_000, 8_000);
    const CASE_STUDY: (u64, u64) = (20_000, 80_000);
    let every_benchmark = [
        Benchmark::IpFwdL1,
        Benchmark::IpFwdMem,
        Benchmark::PacketAnalyzer,
        Benchmark::AhoCorasick,
        Benchmark::Stateful,
        Benchmark::IpFwdIntAdd,
        Benchmark::IpFwdIntMul,
    ];
    // (case, workload, seeded random assignments, window)
    let mut cases: Vec<(String, WorkloadSpec, usize, (u64, u64))> = Vec::new();
    for seed in [1, HARNESS_SEED] {
        for bench in every_benchmark {
            for instances in [2, 8] {
                let case = format!("{} x{instances} seed {seed:#x}", bench.name());
                cases.push((case, bench.build_workload(instances, seed), 3, SHORT));
            }
        }
        for (instances, stages) in [(2, 3), (8, 2)] {
            let case = format!("deep-ipfwd x{instances} p{stages} seed {seed:#x}");
            cases.push((case, build_deep_ipfwd(instances, stages, seed), 3, SHORT));
        }
    }
    for bench in Benchmark::paper_suite() {
        let case = format!("{} x8 case study", bench.name());
        cases.push((case, bench.build_workload(8, HARNESS_SEED), 1, CASE_STUDY));
    }

    let machine = MachineConfig::ultrasparc_t2();
    let mut actual = Vec::new();
    for (case, workload, n, (warmup, measure)) in &cases {
        let mut rng = StdRng::seed_from_u64(workload.seed());
        let assignments =
            sample_assignments(*n, workload.tasks().len(), machine.topology, &mut rng).unwrap();
        let mut batch = BatchSimulator::new(&machine, workload).unwrap();
        let reports: Vec<SimReport> = assignments
            .iter()
            .map(|a| {
                let scalar = Simulator::new(&machine, workload, a.contexts())
                    .unwrap()
                    .run(*warmup, *measure);
                let batched = batch.run_one(a.contexts(), *warmup, *measure).unwrap();
                assert_eq!(batched, scalar, "batch engine diverged on {case}");
                scalar
            })
            .collect();
        let workload_digest = fnv1a(format!("{workload:?}").as_bytes());
        actual.push(format!(
            "{case}: {workload_digest:016x} {:016x}",
            report_digest(&reports)
        ));
    }
    // Printed as table rows, so a deliberate change can be re-derived.
    for row in &actual {
        println!("    {row:?},");
    }
    assert_eq!(
        actual, CASE_STUDY_GOLDEN,
        "case: workload digest, report digest"
    );
}
