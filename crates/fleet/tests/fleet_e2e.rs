//! End-to-end fleet fabric tests, in process: a coordinator and three
//! loopback workers, one of which dies mid-campaign, must journal a
//! store byte-identical to the single-node run — at any worker thread
//! count, and on a simulator campaign that redraws equivalent
//! placements — and a warm rerun against federated peers must perform
//! zero model evaluations and reproduce the cold run.

use optassign::iterative::run_iterative_persistent;
use optassign::persist::{iterative_campaign_id, CampaignStore};
use optassign::{Parallelism, PerformanceModel};
use optassign_fleet::{
    run_fleet_campaign, start_plane, FleetConfig, PlaneConfig, Worker, WorkerConfig,
};
use optassign_obs::{fleet_counters, Obs};
use optassign_optd::client::http_call;
use optassign_optd::spec::CampaignSpec;
use optassign_store::wal;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Small enough to finish in seconds, but with enough rounds (the tight
/// loss target pins the stop at `max_samples`) that killing a worker
/// once leases are flowing reliably lands mid-campaign, with plenty of
/// batches left to exercise re-leasing among the survivors.
const SPEC: &str = r#"{"tenant":"fleet-e2e","seed":411,
  "model":{"kind":"synthetic","tasks":16,"base_pps":2000000},
  "config":{"n_init":300,"n_delta":60,"acceptable_loss":0.0005,
            "max_samples":2400,"eval_budget":20000}}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fleet-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::from_json(SPEC).unwrap()
}

fn wal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("campaign.wal")).unwrap()
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics()
        .counters()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

fn start_worker(dir: &Path, threads: usize, peers: Vec<String>, obs: &Obs) -> Worker {
    let config = WorkerConfig {
        data_dir: dir.to_path_buf(),
        ctrl_addr: "127.0.0.1:0".into(),
        peer_addr: "127.0.0.1:0".into(),
        peers,
        parallelism: Parallelism::new(threads),
        journal: None,
    };
    Worker::start(&config, obs).unwrap()
}

/// The single-node reference journal for [`SPEC`].
fn reference_wal(root: &Path) -> Vec<u8> {
    let spec = spec();
    let model = spec.model.build();
    let dir = root.join("ref");
    let store = CampaignStore::open(&dir).unwrap();
    run_iterative_persistent(&model, &spec.config, spec.seed, &store).unwrap();
    store.sync();
    wal_bytes(&dir)
}

/// Runs the fleet campaign over three workers, killing one once leases
/// are flowing, and returns the coordinator's WAL bytes.
fn fleet_wal_with_death(root: &Path, tag: &str, threads: usize) -> Vec<u8> {
    let spec = spec();
    let obs = Obs::metrics_only();
    let w0 = start_worker(&root.join(format!("{tag}-w0")), threads, Vec::new(), &obs);
    let w1 = start_worker(&root.join(format!("{tag}-w1")), threads, Vec::new(), &obs);
    let w2 = start_worker(&root.join(format!("{tag}-w2")), threads, Vec::new(), &obs);
    let addrs = vec![w0.ctrl_addr(), w1.ctrl_addr(), w2.ctrl_addr()];

    // Kill worker 1 once the campaign is under way: wait until at least
    // one full batch of leases has been issued, then shut it down. It
    // has answered leases by then, and nothing ever reads its shard, so
    // the coordinator's journal must hold those slots from the lease
    // answers alone while the rest of the campaign re-leases.
    let victim = Arc::new(Mutex::new(Some(w1)));
    let killer_victim = Arc::clone(&victim);
    let killer_obs = obs.clone();
    let killer = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(20);
        while counter(&killer_obs, fleet_counters::LEASES_ISSUED) < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut w = killer_victim.lock().unwrap().take()?;
        let journaled = w.store().journaled_measurements();
        w.shutdown();
        Some(journaled)
    });

    let fleet_dir = root.join(format!("{tag}-fleet"));
    let config = FleetConfig::new(&fleet_dir, addrs);
    let outcome = run_fleet_campaign(&spec, &config, &obs).unwrap();
    let victim_journaled = killer.join().unwrap();
    drop(victim);
    drop(w0);
    drop(w2);

    assert!(
        counter(&obs, fleet_counters::WORKERS_LOST) >= 1,
        "the victim worker should have been declared dead mid-campaign"
    );
    assert!(
        victim_journaled.unwrap_or(0) >= 1,
        "the victim should have answered leases before it was shut down"
    );
    wal_bytes(&outcome.merged_dir)
}

#[test]
fn merged_wal_is_byte_identical_to_single_node_despite_worker_death() {
    let root = temp_dir("identity");
    let reference = reference_wal(&root);
    assert!(!reference.is_empty());
    for threads in [1usize, 4] {
        let merged = fleet_wal_with_death(&root, &format!("par{threads}"), threads);
        assert_eq!(
            merged, reference,
            "merged WAL diverged from the single-node journal at {threads} worker threads"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Length and FNV-1a-64 of a byte string: compares WALs without dumping
/// them on failure.
fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), hash)
}

#[test]
fn coordinator_journals_a_simulator_campaign_like_a_single_node() {
    // One IPFwd instance has few distinct placements, so later batches
    // redraw classes measured in earlier ones, and the simulator measures
    // equivalent placements differently: the coordinator must lease and
    // journal every such slot exactly where a single node measures it.
    let spec = CampaignSpec::from_json(
        r#"{"tenant":"fleet-hits","seed":20120301,
            "model":{"kind":"netapps","benchmark":"IPFwd-L1","instances":1,
                     "warmup_cycles":500,"measure_cycles":1000},
            "config":{"n_init":100,"n_delta":40,"acceptable_loss":0.0005,
                      "max_samples":300,"eval_budget":5000}}"#,
    )
    .unwrap();
    let root = temp_dir("hits");
    let reference = {
        let dir = root.join("ref");
        let store = CampaignStore::open(&dir).unwrap();
        run_iterative_persistent(&spec.model.build(), &spec.config, spec.seed, &store).unwrap();
        store.sync();
        wal_bytes(&dir)
    };

    let obs = Obs::metrics_only();
    let threads = Parallelism::default().workers;
    let w0 = start_worker(&root.join("w0"), threads, Vec::new(), &obs);
    let w1 = start_worker(&root.join("w1"), threads, Vec::new(), &obs);
    let outcome = run_fleet_campaign(
        &spec,
        &FleetConfig::new(root.join("fleet"), vec![w0.ctrl_addr(), w1.ctrl_addr()]),
        &obs,
    )
    .unwrap();
    drop(w0);
    drop(w1);

    let fleet = wal_bytes(&outcome.merged_dir);
    assert_eq!(
        digest(&fleet),
        digest(&reference),
        "fleet WAL (len, fnv1a64) diverged from the single-node journal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// End offset of every complete frame of a WAL, starting at the magic:
/// `[len: u32 LE][crc: u64 LE][payload]` frames after 8 magic bytes.
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = vec![wal::WAL_MAGIC.len()];
    let mut off = wal::WAL_MAGIC.len();
    while off + wal::FRAME_HEADER_LEN <= wal.len() {
        let len = u32::from_le_bytes(wal[off..off + 4].try_into().unwrap()) as usize;
        off += wal::FRAME_HEADER_LEN + len;
        ends.push(off);
    }
    assert_eq!(off, wal.len(), "no torn tail");
    ends
}

#[test]
fn coordinator_resumes_its_own_journal_from_every_record_boundary() {
    // A coordinator killed anywhere reruns on its own data dir: every
    // slot its journal holds replays (neither leased nor re-journaled),
    // the rest is leased, and the journal and result come out exactly
    // as an uninterrupted run's. This seed runs to the sample cap.
    let spec = CampaignSpec::from_json(
        r#"{"tenant":"fleet-resume","seed":5,
            "model":{"kind":"synthetic","tasks":8,"base_pps":1000000},
            "config":{"n_init":100,"n_delta":20,"acceptable_loss":0.0005,
                      "max_samples":160,"eval_budget":2000}}"#,
    )
    .unwrap();
    let root = temp_dir("resume");
    let worker = start_worker(&root.join("w0"), 1, Vec::new(), &Obs::metrics_only());
    let run = |dir: &Path, obs: &Obs| {
        run_fleet_campaign(&spec, &FleetConfig::new(dir, vec![worker.ctrl_addr()]), obs).unwrap()
    };
    let full = run(&root.join("full"), &Obs::disabled());
    let wal = wal_bytes(&full.merged_dir);
    let result = format!("{:?}", full.result);

    let ends = frame_ends(&wal);
    assert!(ends.len() > 160, "{} frames", ends.len() - 1);
    let mid_frame = (ends[ends.len() / 2] + ends[ends.len() / 2 + 1]) / 2;
    for cut in ends.iter().copied().chain([mid_frame]) {
        let dir = root.join(format!("cut-{cut}"));
        std::fs::create_dir_all(dir.join("merged")).unwrap();
        std::fs::write(dir.join("merged").join("campaign.wal"), &wal[..cut]).unwrap();
        let resumed = run(&dir, &Obs::disabled());
        assert!(
            wal_bytes(&resumed.merged_dir) == wal,
            "WAL diverged at cut {cut}"
        );
        assert_eq!(format!("{:?}", resumed.result), result, "cut {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A rerun on the complete journal leases nothing.
    let obs = Obs::metrics_only();
    let rerun = run(&root.join("full"), &obs);
    assert_eq!(counter(&obs, fleet_counters::LEASES_ISSUED), 0);
    assert_eq!(counter(&obs, "exec_replayed_total"), 160);
    assert!(wal_bytes(&rerun.merged_dir) == wal);
    assert_eq!(format!("{:?}", rerun.result), result);
    drop(worker);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn traced_fleet_run_merges_identically_and_journals_cross_process_rpcs() {
    // Distributed tracing end to end: with span events on and every
    // process journaling into one shared recorder, the merged WAL must
    // stay byte-identical to the single-node reference (tracing never
    // perturbs), and the journal must pair coordinator-side rpc_client
    // events with worker-side rpc_server events under the campaign's
    // trace id — at 1 and 4 worker threads.
    use optassign_obs::{Json, MemoryRecorder, MonotonicClock};
    let root = temp_dir("traced");
    let reference = reference_wal(&root);
    for threads in [1usize, 4] {
        let recorder = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(
            Box::new(Arc::clone(&recorder)),
            Box::<MonotonicClock>::default(),
        );
        obs.enable_span_events();
        let tag = format!("tr{threads}");
        let w0 = start_worker(&root.join(format!("{tag}-w0")), threads, Vec::new(), &obs);
        let w1 = start_worker(&root.join(format!("{tag}-w1")), threads, Vec::new(), &obs);
        let outcome = run_fleet_campaign(
            &spec(),
            &FleetConfig::new(
                root.join(format!("{tag}-fleet")),
                vec![w0.ctrl_addr(), w1.ctrl_addr()],
            ),
            &obs,
        )
        .unwrap();
        drop(w0);
        drop(w1);
        assert_eq!(
            wal_bytes(&outcome.merged_dir),
            reference,
            "tracing perturbed the merged WAL at {threads} threads"
        );

        let lines = recorder.lines();
        let parsed = |kind: &str| -> Vec<Json> {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
                .filter_map(|l| Json::parse(l))
                .collect()
        };
        let clients = parsed("rpc_client");
        let servers = parsed("rpc_server");
        assert!(
            !clients.is_empty(),
            "no rpc_client events at {threads} threads"
        );
        assert!(
            !servers.is_empty(),
            "no rpc_server events at {threads} threads"
        );
        // Every rpc event lives in the campaign's trace.
        for event in clients.iter().chain(&servers) {
            assert_eq!(
                event.get("trace").and_then(Json::as_u64),
                Some(outcome.campaign),
                "rpc event outside the campaign trace"
            );
        }
        // Worker-side server spans remember their coordinator-side
        // client parents: the causal edge the stitcher pairs on.
        let client_ids: std::collections::HashSet<u64> = clients
            .iter()
            .filter_map(|v| v.get("id").and_then(Json::as_u64))
            .collect();
        let paired = servers
            .iter()
            .filter_map(|v| v.get("remote_parent").and_then(Json::as_u64))
            .filter(|p| client_ids.contains(p))
            .count();
        assert!(paired > 0, "no rpc_server paired with an rpc_client");
        // The lease measurement itself parents under the lease's server
        // span as a lane span.
        assert!(
            lines.iter().any(|l| l.contains("fleet_lease_measure_ns")),
            "no worker-side lease-measure span"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_rerun_against_federated_peers_performs_zero_evaluations() {
    let root = temp_dir("warm");
    // Six tasks repeat equivalence classes within a batch, and the
    // synthetic model's jitter measures equivalent placements
    // differently, so only a peer that answers for the very slot
    // reproduces the cold run.
    let spec = CampaignSpec::from_json(
        r#"{"tenant":"fleet-warm","seed":7,
            "model":{"kind":"synthetic","tasks":6,"base_pps":1000000},
            "config":{"n_init":100,"n_delta":20,"acceptable_loss":0.0005,
                      "max_samples":300,"eval_budget":5000}}"#,
    )
    .unwrap();

    // Cold run, no failures, to produce a complete merged store.
    let cold_obs = Obs::metrics_only();
    let cw0 = start_worker(&root.join("cold-w0"), 1, Vec::new(), &cold_obs);
    let cw1 = start_worker(&root.join("cold-w1"), 1, Vec::new(), &cold_obs);
    let cold = run_fleet_campaign(
        &spec,
        &FleetConfig::new(root.join("cold"), vec![cw0.ctrl_addr(), cw1.ctrl_addr()]),
        &cold_obs,
    )
    .unwrap();
    drop(cw0);
    drop(cw1);
    assert!(counter(&cold_obs, fleet_counters::SLOT_EVALS) > 0);

    // A federation source serving the merged store's slots (copied, so
    // the comparison artifact stays untouched).
    let source_dir = root.join("source");
    std::fs::create_dir_all(&source_dir).unwrap();
    std::fs::copy(
        cold.merged_dir.join("campaign.wal"),
        source_dir.join("campaign.wal"),
    )
    .unwrap();
    let source_obs = Obs::metrics_only();
    let source = start_worker(&source_dir, 1, Vec::new(), &source_obs);

    // Warm rerun: fresh worker stores, fresh coordinator, peers pointed
    // at the source. Every slot must resolve without touching the model.
    let warm_obs = Obs::metrics_only();
    let peers = vec![source.peer_addr()];
    let ww0 = start_worker(&root.join("warm-w0"), 1, peers.clone(), &warm_obs);
    let ww1 = start_worker(&root.join("warm-w1"), 1, peers, &warm_obs);
    let warm = run_fleet_campaign(
        &spec,
        &FleetConfig::new(root.join("warm"), vec![ww0.ctrl_addr(), ww1.ctrl_addr()]),
        &warm_obs,
    )
    .unwrap();
    drop(ww0);
    drop(ww1);
    drop(source);

    assert_eq!(
        counter(&warm_obs, fleet_counters::SLOT_EVALS),
        0,
        "a warm rerun must serve every slot from replay or peers"
    );
    assert!(counter(&warm_obs, fleet_counters::PEER_HITS) > 0);
    // Each slot takes the peer's record of that very slot, so the warm
    // trajectory is the cold one, value for value; only the attempts
    // differ (a peer hit costs none).
    assert_eq!(warm.result.evaluations, 0);
    assert_eq!(warm.result.samples_used, cold.result.samples_used);
    assert_eq!(warm.result.stop.name(), cold.result.stop.name());
    assert_eq!(warm.result.best_assignment, cold.result.best_assignment);
    assert_eq!(
        warm.result.best_performance.to_bits(),
        cold.result.best_performance.to_bits()
    );
    assert_eq!(
        format!("{:?}", warm.result.trace),
        format!("{:?}", cold.result.trace)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_worker_refuses_a_second_model_under_one_fingerprint() {
    // The fingerprint leaves the model out, so these two campaigns share
    // one; a worker that measured one's leases on the other's model would
    // journal wrong values under the right slots.
    let spec_with = |base_pps: u32| {
        CampaignSpec::from_json(&format!(
            r#"{{"tenant":"fleet-models","seed":3,
                "model":{{"kind":"synthetic","tasks":8,"base_pps":{base_pps}}},
                "config":{{"n_init":100,"n_delta":20,"max_samples":200}}}}"#
        ))
        .unwrap()
    };
    let (first, second) = (spec_with(1_000_000), spec_with(2_000_000));
    let fingerprint = |spec: &CampaignSpec| {
        let model = spec.model.build();
        iterative_campaign_id(spec.seed, &spec.config, model.tasks(), model.topology())
    };
    assert_eq!(fingerprint(&first), fingerprint(&second));
    let root = temp_dir("models");
    let worker = start_worker(&root.join("w0"), 1, Vec::new(), &Obs::disabled());
    let install = |spec: &CampaignSpec| {
        let path = format!("/v1/campaigns?campaign={}", fingerprint(spec));
        http_call(&worker.ctrl_addr(), "POST", &path, Some(&spec.to_json()))
            .unwrap()
            .0
    };
    assert_eq!(install(&first), 201);
    assert_eq!(install(&first), 201, "the same spec again is accepted");
    assert_eq!(install(&second), 409);
    drop(worker);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn plane_serves_every_workers_series_under_its_instance_label() {
    let root = temp_dir("plane");
    let worker_obs = Obs::metrics_only();
    worker_obs.counter_add("plane_probe_total", 2);
    let worker = start_worker(&root.join("w0"), 1, Vec::new(), &worker_obs);
    let peer = worker.peer_addr();
    let plane = start_plane(
        &PlaneConfig {
            addr: "127.0.0.1:0".into(),
            journal: None,
            worker_peers: vec![peer.clone()],
        },
        &Obs::metrics_only(),
    )
    .unwrap();
    let addr = plane.addr().to_string();

    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = http_call(&addr, "GET", "/v1/fleet/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("plane_probe_total{{instance=\"{peer}\"}} 2")),
        "{body}"
    );
    assert!(body.contains("instance=\"coordinator\""), "{body}");

    let (status, body) = http_call(&addr, "GET", "/v1/trace/merged", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"traceEvents\":["), "{body}");

    drop(plane);
    drop(worker);
    let _ = std::fs::remove_dir_all(&root);
}
