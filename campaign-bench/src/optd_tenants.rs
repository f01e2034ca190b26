//! `optd-tenants`: four tenants, each a closed-loop HTTP client of one
//! optd daemon. A tenant submits a campaign, polls it every
//! [`POLL`] until it finishes, reads its best assignment and deletes
//! it, then submits the next. A campaign's time is what its tenant sees:
//! from sending the submit to reading the finished state, including the
//! wait while the stride scheduler steps the other tenants.
//!
//! Set-up is a fresh service's first campaign: starting the daemon and
//! its HTTP endpoint, then running the fixed history campaign through
//! them cold, as a tenant would. Its WAL must match the offline driver's
//! byte for byte.

use crate::common::{
    campaign_seed, check_best, ns_since, obs_for, spec_json, wal_size, History, Layers, Outcome,
    HISTORY_SEED, MIN_CAMPAIGNS, SETUP_REPEATS,
};
use crate::Args;
use optassign_httpd::{HttpConfig, HttpServer};
use optassign_obs::{Json, Obs};
use optassign_optd::api;
use optassign_optd::client::http_call;
use optassign_optd::daemon::{Daemon, DaemonConfig};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// As many tenants as the repository's own optd bench runs at once
/// (`crates/bench/benches/optd.rs`).
const TENANTS: u64 = 4;
/// The shipped `optd_client`'s default `--poll-ms`.
const POLL: Duration = Duration::from_millis(50);

struct Service {
    // Field order is drop order: the endpoint stops before the daemon.
    _server: HttpServer,
    _daemon: Daemon,
    addr: String,
}

fn start_service(dir: PathBuf, obs: &Obs) -> Result<Service, String> {
    let config = DaemonConfig {
        workers: Some(1),
        ..DaemonConfig::new(dir)
    };
    let daemon = Daemon::start(config, obs.clone()).map_err(|e| e.to_string())?;
    let http = HttpConfig {
        thread_name: "optd-http",
        rejected_counter: api::REJECTED_COUNTER,
        allowed_methods: &["GET", "POST", "DELETE"],
        max_body_bytes: 64 * 1024,
    };
    let server = HttpServer::start(
        "127.0.0.1:0",
        obs.clone(),
        http,
        api::handler(daemon.handle(), obs.clone()),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    match http_call(&addr, "GET", "/healthz", None) {
        Ok((200, _)) => Ok(Service {
            _server: server,
            _daemon: daemon,
            addr,
        }),
        other => Err(format!("optd /healthz answered {other:?}")),
    }
}

fn call_json(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Json), String> {
    let (status, text) = http_call(addr, method, path, body).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).ok_or_else(|| format!("{method} {path}: unparsable body"))?;
    Ok((status, doc))
}

/// One tenant campaign as the client saw it.
struct Finished {
    name: String,
    elapsed_ns: u64,
    end: Instant,
    samples: u64,
    contexts: Vec<usize>,
    performance: f64,
    wal_bytes: u64,
}

fn run_campaign(addr: &str, data: &Path, tenant: &str, seed: u64) -> Result<Finished, String> {
    let start = Instant::now();
    let (status, doc) = call_json(
        addr,
        "POST",
        "/v1/campaigns",
        Some(&spec_json(tenant, seed)),
    )?;
    if status != 201 {
        return Err(format!("submit answered {status}"));
    }
    let name = doc
        .get("campaign")
        .and_then(|c| c.get("id"))
        .and_then(Json::as_str)
        .ok_or("submit answer has no campaign id")?
        .to_string();
    let path = format!("/v1/campaigns/{name}");
    let samples = loop {
        let (status, view) = call_json(addr, "GET", &path, None)?;
        match (status, view.get("state").and_then(Json::as_str)) {
            (200, Some("running")) => std::thread::sleep(POLL),
            (200, Some("finished")) => {
                break view
                    .get("samples")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{name}: finished without a sample count"))?;
            }
            other => return Err(format!("{name}: {other:?}")),
        }
    };
    let elapsed_ns = ns_since(start);
    let end = Instant::now();
    let (status, best) = call_json(addr, "GET", &format!("{path}/best"), None)?;
    let contexts: Option<Vec<usize>> =
        best.get("assignment")
            .and_then(Json::as_array)
            .and_then(|a| {
                a.iter()
                    .map(|c| c.as_u64().and_then(|c| usize::try_from(c).ok()))
                    .collect()
            });
    let performance = best.get("performance").and_then(Json::as_f64);
    let (200, Some(contexts), Some(performance)) = (status, contexts, performance) else {
        return Err(format!("{name}: malformed best answer"));
    };
    Ok(Finished {
        wal_bytes: wal_size(&data.join(&name)),
        name,
        elapsed_ns,
        end,
        samples,
        contexts,
        performance,
    })
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let obs = obs_for(args.trace);
    let mut out = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };

    let history = History::measure(scratch)?;
    for i in 0..SETUP_REPEATS {
        let dir = scratch.join(format!("cold-{i}"));
        let start = Instant::now();
        let fresh = start_service(dir.clone(), &Obs::disabled())?;
        let first = run_campaign(&fresh.addr, &dir, "history", HISTORY_SEED)?;
        out.setup_ns.push(ns_since(start));
        drop(fresh);
        out.checks_ok &= history.matches(&dir.join(first.name));
    }

    let data = scratch.join("optd");
    let service = start_service(data.clone(), &obs)?;

    let results: Mutex<Vec<Result<Finished, String>>> = Mutex::new(Vec::new());
    let window = Instant::now();
    std::thread::scope(|s| {
        for tenant in 0..TENANTS {
            let (addr, data, results) = (&service.addr, &data, &results);
            s.spawn(move || {
                let name = format!("tenant{tenant}");
                let mut index = 0u64;
                while index == 0 || window.elapsed() < args.run_for {
                    let seed = campaign_seed(args.seed, tenant, index);
                    let r = run_campaign(addr, data, &name, seed);
                    if let Ok(f) = &r {
                        let path = format!("/v1/campaigns/{}", f.name);
                        let _ = http_call(addr, "DELETE", &path, None);
                    }
                    results.lock().expect("results lock").push(r);
                    index += 1;
                }
            });
        }
    });

    let results = results
        .into_inner()
        .map_err(|_| "a tenant thread panicked")?;
    let mut layers = Layers::default();
    let mut last_end = window;
    for r in results {
        out.attempted += 1;
        match r {
            Ok(f) if check_best(&history.model, &f.contexts, f.performance, &mut layers) => {
                out.finished(f.elapsed_ns, f.samples as usize);
                layers.wal_bytes += f.wal_bytes;
                last_end = last_end.max(f.end);
            }
            Ok(f) => {
                eprintln!("{}: best assignment does not reproduce", f.name);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("{e}");
                out.failed += 1;
            }
        }
    }
    out.window_ns = u64::try_from((last_end - window).as_nanos()).unwrap_or(u64::MAX);
    if out.campaign_ns.len() < MIN_CAMPAIGNS {
        return Err(format!("only {} campaigns finished", out.campaign_ns.len()));
    }
    drop(service);
    layers.absorb(&obs.metrics(), "exec_region_ns");
    out.layers = layers;
    Ok(out)
}
