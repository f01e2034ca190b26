//! Service-level benchmarks of the `optd` daemon: steady-state step
//! throughput under 4 concurrent tenants, and best-query latency while
//! those tenants are being stepped.
//!
//! Both entries compare the online service against its zero-overhead
//! reference, so the "speedup" ratio sits at or below 1.0 by
//! construction and measures pure service overhead:
//!
//! * `step_throughput_4_tenants` — scalar is the offline driver
//!   (`run_iterative_persistent`) running the same four campaigns
//!   sequentially; batch is the daemon draining them through the stride
//!   scheduler. Same admission path, same seeds, byte-identical WALs —
//!   the ratio is offline-ns over daemon-ns per evaluation.
//! * `best_query_under_4_tenants` — scalar is the HTTP
//!   `GET /v1/campaigns/{id}/best` latency against an idle daemon;
//!   batch is the same query while four campaigns are actively
//!   stepping. The ratio is idle-ns over loaded-ns, so lock-contention
//!   regressions drag it down.
//!
//! `--json <path>` writes the report the perf gate (`bench_gate`)
//! consumes; bench.sh gates it with a low floor since the expected
//! ratios hover below 1.0, unlike the batched-evaluation benches.

use optassign::iterative::run_iterative_persistent;
use optassign::persist::CampaignStore;
use optassign_bench::microbench::{bench, bench_report_json, group, BenchEntry};
use optassign_httpd::{HttpConfig, HttpServer};
use optassign_obs::Obs;
use optassign_optd::client::http_call;
use optassign_optd::daemon::{Daemon, DaemonConfig};
use optassign_optd::{admission, api, CampaignSpec, SubmitOutcome};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Four tenants with distinct seeds and budgets (so the stride scheduler
/// actually interleaves them at different rates), each bounded by
/// `max_samples` to a deterministic multi-round campaign.
const TENANT_SPECS: [&str; 4] = [
    r#"{"tenant":"t1","seed":101,"model":{"kind":"synthetic","tasks":8},
        "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.0005,
                  "max_samples":600,"eval_budget":10000}}"#,
    r#"{"tenant":"t2","seed":102,"model":{"kind":"synthetic","tasks":8},
        "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.0005,
                  "max_samples":800,"eval_budget":20000}}"#,
    r#"{"tenant":"t3","seed":103,"model":{"kind":"synthetic","tasks":8},
        "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.0005,
                  "max_samples":1000,"eval_budget":30000}}"#,
    r#"{"tenant":"t4","seed":104,"model":{"kind":"synthetic","tasks":8},
        "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.0005,
                  "max_samples":1200,"eval_budget":40000}}"#,
];

/// A campaign that converges in one step: the idle-latency target.
const QUICK_SPEC: &str = r#"{"tenant":"idle","seed":11,
    "model":{"kind":"synthetic","tasks":8},
    "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.05,
              "eval_budget":20000}}"#;

/// A campaign that keeps stepping for the whole measurement window: a
/// gap target of 1e-5 needs ~300k samples, far beyond what the loaded
/// query bench lets it accumulate before the daemon is shut down.
const LONG_SPEC_TEMPLATE: &str = r#"{"tenant":"TENANT","seed":SEED,
    "model":{"kind":"synthetic","tasks":8},
    "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.00001,
              "max_samples":10000000,"eval_budget":20000000}}"#;

fn json_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().expect("--json needs a path"));
        }
    }
    None
}

fn parse_specs(texts: &[&str]) -> Vec<CampaignSpec> {
    texts
        .iter()
        .map(|t| CampaignSpec::from_json(t).expect("bench spec"))
        .collect()
}

/// Runs the specs sequentially through the offline persistent driver —
/// the same admission path and store layout the daemon uses — and
/// returns the total evaluations consumed.
fn run_offline(specs: &[CampaignSpec], root: &Path) -> usize {
    let mut evaluations = 0;
    for (i, spec) in specs.iter().enumerate() {
        let (effective, _review) = admission::admit(spec)
            .expect("admission")
            .expect("bench spec must be admissible");
        let dir = root.join(format!("offline-{i}"));
        std::fs::create_dir_all(&dir).expect("campaign dir");
        let store = CampaignStore::open(&dir).expect("campaign store");
        let model = effective.model.build();
        let result = run_iterative_persistent(&model, &effective.config, effective.seed, &store)
            .expect("offline campaign");
        evaluations += result.evaluations;
    }
    evaluations
}

/// Submits the specs to a fresh daemon and blocks until every campaign
/// has left the running state.
fn run_daemon(specs: &[CampaignSpec], data_dir: PathBuf) {
    let daemon =
        Daemon::start(DaemonConfig::new(data_dir), Obs::metrics_only()).expect("daemon start");
    let handle = daemon.handle();
    for spec in specs {
        match handle.submit(spec).expect("submit") {
            SubmitOutcome::Admitted { .. } => {}
            SubmitOutcome::Rejected { .. } => panic!("bench spec rejected at admission"),
        }
    }
    while !handle.drained() {
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn main() {
    let root = std::env::temp_dir().join(format!("optd-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");
    let specs = parse_specs(&TENANT_SPECS);
    let mut entries = Vec::new();

    group("optd_step_throughput");
    // Evaluation counts are deterministic (same seeds, same effective
    // configs), so one priming run prices every timed run.
    let total_evals = run_offline(&specs, &root.join("prime")) as f64;
    println!(
        "  └ {total_evals} evaluations across {} tenants",
        specs.len()
    );

    let mut run = 0usize;
    let offline_ns = bench("optd/4_tenants/offline_driver", || {
        run += 1;
        let dir = root.join(format!("off-{run}"));
        let evals = run_offline(&specs, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        evals
    }) / total_evals;
    let mut run = 0usize;
    let daemon_ns = bench("optd/4_tenants/daemon_drain", || {
        run += 1;
        let dir = root.join(format!("svc-{run}"));
        run_daemon(&specs, dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
    }) / total_evals;
    println!(
        "  └ daemon overhead vs offline driver: {:.1}% (ratio {:.3})",
        (daemon_ns / offline_ns - 1.0) * 100.0,
        offline_ns / daemon_ns
    );
    entries.push(BenchEntry {
        name: "optd/step_throughput_4_tenants".to_string(),
        baseline_ns: offline_ns,
        candidate_ns: daemon_ns,
    });

    group("optd_best_query_latency");
    // One shared service instance: an idle finished campaign first, then
    // four long-running tenants layered on top for the loaded pass.
    let obs = Obs::metrics_only();
    let daemon = Daemon::start(DaemonConfig::new(root.join("query")), obs.clone())
        .expect("query daemon start");
    let handle = daemon.handle();
    let http_config = HttpConfig {
        thread_name: "optd-bench-http",
        rejected_counter: api::REJECTED_COUNTER,
        allowed_methods: &["GET", "POST", "DELETE"],
        max_body_bytes: 64 * 1024,
    };
    let server = HttpServer::start(
        "127.0.0.1:0",
        obs.clone(),
        http_config,
        api::handler(handle.clone(), obs),
    )
    .expect("http server");
    let addr = server.addr().to_string();

    let quick = CampaignSpec::from_json(QUICK_SPEC).expect("quick spec");
    match handle.submit(&quick).expect("submit quick") {
        SubmitOutcome::Admitted { .. } => {}
        SubmitOutcome::Rejected { .. } => panic!("quick spec rejected at admission"),
    }
    while !handle.drained() {
        std::thread::sleep(Duration::from_micros(200));
    }
    let best_path = "/v1/campaigns/c000001/best";
    let idle_ns = bench("optd/best_query/idle", || {
        let (status, body) = http_call(&addr, "GET", best_path, None).expect("idle query");
        assert_eq!(status, 200, "{body}");
        body
    });

    for (i, seed) in [21u64, 22, 23, 24].iter().enumerate() {
        let text = LONG_SPEC_TEMPLATE
            .replace("TENANT", &format!("load{i}"))
            .replace("SEED", &seed.to_string());
        let spec = CampaignSpec::from_json(&text).expect("long spec");
        match handle.submit(&spec).expect("submit long") {
            SubmitOutcome::Admitted { .. } => {}
            SubmitOutcome::Rejected { .. } => panic!("long spec rejected at admission"),
        }
    }
    let loaded_ns = bench("optd/best_query/under_4_tenants", || {
        let (status, body) = http_call(&addr, "GET", best_path, None).expect("loaded query");
        assert_eq!(status, 200, "{body}");
        body
    });
    println!(
        "  └ query latency under load vs idle: {:.2}x (ratio {:.3})",
        loaded_ns / idle_ns,
        idle_ns / loaded_ns
    );
    entries.push(BenchEntry {
        name: "optd/best_query_under_4_tenants".to_string(),
        baseline_ns: idle_ns,
        candidate_ns: loaded_ns,
    });

    // The long campaigns never converge by design; shutting the daemon
    // down mid-campaign is the normal service exit path.
    drop(server);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);

    if let Some(path) = json_path() {
        let report = bench_report_json("optd", &entries);
        std::fs::write(&path, &report).expect("write bench report");
        println!("\nwrote {path}");
    }
}
