//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index); this library holds the pieces they
//! share: command-line scaling, the live `--serve` endpoint, the
//! measured-pool construction for the five-benchmark case study, and
//! plain-text rendering helpers.
//!
//! All experiments are deterministic: a fixed base seed flows through the
//! assignment sampler, the simulator's address streams, and the traffic
//! configuration.

pub mod ascii;
pub mod microbench;

use optassign::model::SimModel;
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{CoreError, Parallelism};
use optassign_httpd::{Handler, HttpConfig, HttpServer, Request, Response};
use optassign_netapps::Benchmark;
use optassign_obs::{
    Event, JsonlRecorder, MonotonicClock, Obs, Recorder, StderrProgress, Tee, TelemetryHub,
};
use optassign_sim::MachineConfig;
use optassign_store::io::RealIo;
use std::path::PathBuf;
use std::sync::Arc;

/// Base RNG seed for every experiment.
pub const BASE_SEED: u64 = 0x0A5F_2012;

/// Number of pipeline instances in the paper's case study (24 threads).
pub const PAPER_INSTANCES: usize = 8;

/// The paper's sample sizes for Figures 10–12.
pub const PAPER_SAMPLE_SIZES: [usize; 3] = [1000, 2000, 5000];

/// Simulation windows used by the experiments (cycles).
pub const WARMUP_CYCLES: u64 = 20_000;
/// Measurement window (cycles).
pub const MEASURE_CYCLES: u64 = 80_000;

/// Shared command-line arguments of the experiment binaries: sample
/// scaling, worker policy, and the observability sink.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Multiplier on sample sizes (1.0 = the paper's sizes).
    pub factor: f64,
    /// Explicit worker count from `--workers`; `None` defers to
    /// `OPTASSIGN_WORKERS` and then to all available cores.
    pub workers: Option<usize>,
    /// Destination of the JSONL event journal (`--metrics <path>` or
    /// `OPTASSIGN_METRICS`); `None` keeps stderr progress only.
    pub metrics: Option<PathBuf>,
    /// Root of the durable campaign store (`--checkpoint <dir>` or
    /// `OPTASSIGN_CHECKPOINT`); `None` runs without persistence.
    pub checkpoint: Option<PathBuf>,
    /// `--resume`: the run expects checkpoint state to already exist and
    /// warns loudly when it does not. Replay itself is automatic — any
    /// run with `--checkpoint` picks up whatever the store holds.
    pub resume: bool,
    /// Bind address for the live telemetry endpoint (`--serve <addr>` or
    /// `OPTASSIGN_SERVE`, e.g. `127.0.0.1:9184`; port `0` picks an
    /// ephemeral port). `None` — the default — serves nothing.
    pub serve: Option<String>,
}

/// Every flag of the experiment binaries, with the name of its value.
const FLAGS: [(&str, &str); 6] = [
    ("--scale", " F"),
    ("--workers", " N"),
    ("--metrics", " PATH"),
    ("--checkpoint", " DIR"),
    ("--resume", ""),
    ("--serve", " ADDR"),
];

impl BenchArgs {
    /// Parses `--scale <f>`, `--workers <n>`, `--metrics <path>`,
    /// `--checkpoint <dir>`, `--serve <addr>` and `--resume` from the
    /// process arguments; scale defaults to 1.0, the metrics path falls
    /// back to the `OPTASSIGN_METRICS` environment variable, and the
    /// checkpoint directory to `OPTASSIGN_CHECKPOINT`. An argument that
    /// [`BenchArgs::parse`] rejects prints the error and a usage line to
    /// stderr and exits with status 2, before any work starts.
    pub fn from_args() -> BenchArgs {
        Self::from_args_honouring(&FLAGS.map(|(flag, _)| flag))
    }

    /// [`BenchArgs::from_args`] for a binary that honours only the flags
    /// in `honoured`: any other flag is a usage error (exit status 2)
    /// whose usage line lists the honoured flags.
    pub fn from_args_honouring(honoured: &[&str]) -> BenchArgs {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse_honouring(args, honoured).unwrap_or_else(|e| {
            let usage: String = FLAGS
                .iter()
                .filter(|(flag, _)| honoured.contains(flag))
                .map(|(flag, value)| format!(" [{flag}{value}]"))
                .collect();
            eprintln!("error: {e}");
            eprintln!("usage: {program}{usage}");
            std::process::exit(2)
        })
    }

    /// [`BenchArgs::from_args`] over an explicit argument list
    /// (testable; `std::env::args().skip(1)`-shaped).
    ///
    /// # Errors
    ///
    /// An unknown argument, a flag without its value, a scale that is not
    /// a finite number, or a worker count that is not a positive integer.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<BenchArgs, String> {
        Self::parse_honouring(args, &FLAGS.map(|(flag, _)| flag))
    }

    /// [`BenchArgs::parse`] that also rejects a flag missing from
    /// `honoured`.
    fn parse_honouring<I: IntoIterator<Item = String>>(
        args: I,
        honoured: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut factor = 1.0f64;
        let mut workers = None;
        let mut metrics: Option<PathBuf> = None;
        let mut checkpoint: Option<PathBuf> = None;
        let mut resume = false;
        let mut serve: Option<String> = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if FLAGS.iter().any(|(known, _)| *known == flag) && !honoured.contains(&&*flag) {
                return Err(format!("{flag} is not supported by this binary"));
            }
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    let f = v.parse::<f64>().ok().filter(|f| f.is_finite());
                    factor = f.ok_or_else(|| format!("--scale {v}: not a finite number"))?;
                }
                "--workers" => {
                    let v = value()?;
                    let n = v.parse::<usize>().ok().filter(|&w| w > 0);
                    workers =
                        Some(n.ok_or_else(|| format!("--workers {v}: not a positive integer"))?);
                }
                "--metrics" => metrics = Some(PathBuf::from(value()?)),
                "--checkpoint" => checkpoint = Some(PathBuf::from(value()?)),
                "--serve" => serve = Some(value()?),
                "--resume" => resume = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if metrics.is_none() {
            metrics = std::env::var_os("OPTASSIGN_METRICS")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        if checkpoint.is_none() {
            checkpoint = std::env::var_os("OPTASSIGN_CHECKPOINT")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        if resume && checkpoint.is_none() {
            eprintln!("[store] --resume without --checkpoint (or OPTASSIGN_CHECKPOINT); nothing to resume from");
        }
        if serve.is_none() {
            serve = std::env::var("OPTASSIGN_SERVE")
                .ok()
                .filter(|v| !v.is_empty());
        }
        Ok(BenchArgs {
            factor: factor.clamp(0.01, 10.0),
            workers,
            metrics,
            checkpoint,
            resume,
            serve,
        })
    }

    /// The worker policy for this run: `--workers` if given, then
    /// `OPTASSIGN_WORKERS`, then every available core. Results are
    /// bit-identical regardless (see `optassign_exec`), so this only
    /// changes wall-clock time.
    pub fn parallelism(&self) -> Parallelism {
        self.workers
            .map(Parallelism::new)
            .unwrap_or_else(Parallelism::max_available)
    }

    /// Scales a paper sample size, keeping it statistically usable
    /// (at least 300 so the 5% tail keeps ≥ 15 exceedances).
    pub fn sample(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.factor) as usize).max(300)
    }

    /// The three Figure-10/11/12 sample sizes at this scale.
    pub fn sample_sizes(&self) -> [usize; 3] {
        PAPER_SAMPLE_SIZES.map(|n| self.sample(n))
    }

    /// Builds this run's observability handle: stderr progress always,
    /// plus the JSONL journal when `--metrics` (or `OPTASSIGN_METRICS`)
    /// was given, plus the live telemetry endpoint when `--serve` (or
    /// `OPTASSIGN_SERVE`) was given. A journal file that cannot be
    /// created, or a telemetry address that cannot be bound, degrades
    /// with a warning rather than aborting the experiment.
    ///
    /// With either sink configured, span tracing is switched on
    /// ([`Obs::enable_span_events`]) so the journal and the `/trace`
    /// endpoint carry the run's span hierarchy. Tracing and serving are
    /// both read-only observers: stdout output is bit-identical with
    /// them on or off (`scripts/check.sh` diffs exactly that).
    pub fn obs(&self) -> Obs {
        let progress: Box<dyn Recorder> = Box::new(StderrProgress);
        let recorder: Box<dyn Recorder> = match &self.metrics {
            Some(path) => match JsonlRecorder::create(path) {
                Ok(journal) => Box::new(Tee(progress, Box::new(journal))),
                Err(e) => {
                    eprintln!(
                        "[obs] cannot create {}: {e}; continuing without a journal",
                        path.display()
                    );
                    progress
                }
            },
            None => progress,
        };
        let hub = self.serve.as_ref().map(|_| Arc::new(TelemetryHub::new()));
        let recorder: Box<dyn Recorder> = match &hub {
            Some(hub) => Box::new(Tee(recorder, Box::new(Arc::clone(hub)))),
            None => recorder,
        };
        let obs = Obs::new(recorder, Box::<MonotonicClock>::default());
        if self.metrics.is_some() || self.serve.is_some() {
            obs.enable_span_events();
        }
        if let (Some(addr), Some(hub)) = (&self.serve, hub) {
            match serve_telemetry(addr, &obs, hub) {
                Ok(server) => {
                    eprintln!("[telemetry] listening on {}", server.addr());
                    // The endpoint serves until the process exits; the
                    // accept thread needs no explicit join on the way out.
                    std::mem::forget(server);
                }
                Err(e) => {
                    eprintln!("[telemetry] cannot bind {addr}: {e}; continuing without telemetry");
                }
            }
        }
        obs
    }

    /// Opens this run's durable campaign store under the `--checkpoint`
    /// root, scoped to `scope` (experiments with distinct models must not
    /// share a store — campaign identities cannot cover the model itself,
    /// so each benchmark/fault-plan cell gets its own subdirectory).
    ///
    /// `None` when no checkpoint root was configured, and on open
    /// failure — a broken store degrades to a non-persistent run with a
    /// warning, never an abort. With `--resume`, a missing store
    /// directory warns that there is nothing to resume. Damage found on
    /// open (torn tail, quarantined frames) is reported through `obs` —
    /// the `store_tail_truncated_total` / `store_frames_quarantined_total`
    /// counters plus warning events — and as a stderr warning.
    pub fn store(&self, scope: &str, obs: &Obs) -> Option<CampaignStore> {
        let root = self.checkpoint.as_ref()?;
        let dir = root.join(scope);
        if self.resume && !dir.is_dir() {
            eprintln!(
                "[store] --resume: no checkpoint at {}; starting fresh",
                dir.display()
            );
        }
        match CampaignStore::open_with(&dir, &RealIo, obs) {
            Ok(store) => {
                eprintln!(
                    "[store] {}: {} journaled measurements",
                    dir.display(),
                    store.journaled_measurements()
                );
                let report = store.open_report();
                if !report.is_clean() {
                    eprintln!(
                        "[store] {}: repaired on open ({} frames quarantined, {} torn-tail bytes truncated)",
                        dir.display(),
                        report.quarantined_frames,
                        report.tail_truncated_bytes
                    );
                }
                Some(store)
            }
            Err(e) => {
                eprintln!(
                    "[store] cannot open {}: {e}; continuing without persistence",
                    dir.display()
                );
                None
            }
        }
    }

    /// Finishes an observed run: records a final `metrics_snapshot`
    /// event into the journal, writes a Prometheus-text sidecar next to
    /// it (`<path>.prom`), and flushes. A no-op without `--metrics`.
    pub fn finish(&self, obs: &Obs) {
        obs.record_metrics_snapshot();
        obs.flush();
        if let Some(path) = &self.metrics {
            let mut sidecar = path.clone().into_os_string();
            sidecar.push(".prom");
            let sidecar = PathBuf::from(sidecar);
            match std::fs::write(&sidecar, obs.metrics().to_prometheus()) {
                Ok(()) => eprintln!(
                    "[obs] journal: {}; metrics: {}",
                    path.display(),
                    sidecar.display()
                ),
                Err(e) => eprintln!("[obs] cannot write {}: {e}", sidecar.display()),
            }
        }
    }

    /// Measures the case-study pool of `n` random assignments for `bench`:
    /// [`case_study_model`] at seed `BASE_SEED ^ seed_tag(bench)`, on this
    /// run's worker policy, journaled into the benchmark's store scope
    /// `pool-<bench>` under `--checkpoint`. Every pool of a benchmark is a
    /// prefix of one seeded draw sequence and one campaign, so binaries
    /// that share a checkpoint measure each draw once: a pool replays
    /// every draw the journal holds and measures only the rest (DESIGN.md
    /// §8). Progress events go to `obs` and the pool's wall time to its
    /// `pool_ns` histogram. The pool is bit-identical however it is
    /// observed, stored or parallelized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when the case-study workload does
    /// not fit the machine (a build misconfiguration, not a runtime hazard).
    pub fn pool(&self, bench: Benchmark, n: usize, obs: &Obs) -> Result<SampleStudy, CoreError> {
        let parallelism = self.parallelism();
        let scope = format!("pool-{}", bench.name().to_lowercase().replace(' ', "-"));
        let store = self.store(&scope, obs);
        obs.emit(|| {
            progress(
                "pool",
                format!(
                    "{}: measuring {n} random assignments ({} workers)…",
                    bench.name(),
                    parallelism.workers
                ),
            )
        });
        let span = obs.span("pool_ns");
        let seed = BASE_SEED ^ seed_tag(bench);
        let model = case_study_model(bench);
        let study = SampleStudy::run_with(&model, n, seed, parallelism, obs, store.as_ref())?;
        let elapsed = span.finish();
        if let Some(store) = &store {
            report_store(store);
        }
        obs.emit(|| {
            progress(
                "pool",
                format!("{}: done in {:.1}s", bench.name(), elapsed as f64 / 1.0e9),
            )
        });
        Ok(study)
    }
}

/// Starts the live `--serve` endpoint on `addr`: `/progress` and
/// `/trace` from `hub` (which must be teed into `obs`'s recorder), plus
/// the HTTP core's `/healthz`, `/metrics` and `/metrics.json` from `obs`.
/// Everything served is a snapshot, so a run is bit-identical with the
/// endpoint on or off.
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn serve_telemetry(
    addr: &str,
    obs: &Obs,
    hub: Arc<TelemetryHub>,
) -> std::io::Result<HttpServer> {
    let handler: Arc<Handler> = Arc::new(move |req: &Request| match req.path.as_str() {
        "/progress" => Response::json(200, hub.progress_json()),
        "/trace" => Response::json(200, hub.trace_json()),
        _ => Response::not_found(),
    });
    HttpServer::start(
        addr,
        obs.clone(),
        HttpConfig::read_only("bench-telemetry", "telemetry_requests_rejected_total"),
        handler,
    )
}

/// Builds a `progress` event ([`StderrProgress`] renders these as
/// `[stage] message` on stderr; the JSONL journal keeps them too).
pub fn progress(stage: &'static str, message: String) -> Event {
    Event::new("progress")
        .with("stage", stage)
        .with("message", message)
}

/// Builds the simulator-backed model for one benchmark of the case study
/// (8 instances, 24 threads).
pub fn case_study_model(bench: Benchmark) -> SimModel {
    let machine = MachineConfig::ultrasparc_t2();
    let workload = bench.build_workload(PAPER_INSTANCES, BASE_SEED);
    SimModel::new(machine, workload).with_windows(WARMUP_CYCLES, MEASURE_CYCLES)
}

/// Builds a simulator-backed model for a smaller study (e.g. Figure 1's
/// two-instance, 6-thread workload), with a longer measurement window:
/// fewer tasks transmit fewer packets per cycle, so stability needs more
/// cycles.
pub fn case_study_model_small(bench: Benchmark, instances: usize) -> SimModel {
    let machine = MachineConfig::ultrasparc_t2();
    let workload = bench.build_workload(instances, BASE_SEED);
    SimModel::new(machine, workload).with_windows(WARMUP_CYCLES, 3 * MEASURE_CYCLES)
}

/// Prints a one-line store summary to stderr (stdout stays reserved for
/// the experiment's deterministic table output, so interrupted-vs-clean
/// runs can be diffed on stdout alone).
pub fn report_store(store: &CampaignStore) {
    store.sync();
    eprintln!(
        "[store] {} journaled measurements; {} I/O errors",
        store.journaled_measurements(),
        store.io_errors()
    );
}

/// One benchmark's Figure-10/11/12 numbers at one sample size.
#[derive(Debug, Clone)]
pub struct SizePoint {
    /// Sample size `n`.
    pub n: usize,
    /// Best measured performance among the first `n` draws.
    pub best: f64,
    /// POT analysis over the first `n` draws; `None` when the sample's
    /// tail did not (yet) support a bounded fit — the iterative
    /// algorithm's signal to keep sampling.
    pub analysis: Option<optassign_evt::pot::PotAnalysis>,
}

/// Measures one benchmark's 24-thread pool ([`BenchArgs::pool`]) at the
/// largest of `args`' Figure-10/11/12 sample sizes and analyzes its
/// prefixes at all three (iid prefixes of one pool are statistically
/// equivalent to the paper's independent draws; see DESIGN.md §14).
///
/// # Errors
///
/// Propagates pool-measurement failures.
pub fn sample_size_analysis(
    args: &BenchArgs,
    bench: Benchmark,
    obs: &Obs,
) -> Result<Vec<SizePoint>, CoreError> {
    use optassign_evt::pot::{PotAnalysis, PotConfig};
    let sizes = args.sample_sizes();
    let [.., largest] = sizes;
    let pool = args.pool(bench, largest, obs)?;
    sizes
        .iter()
        .map(|&n| {
            let study = pool.prefix(n)?;
            let analysis = PotAnalysis::run(study.performances(), &PotConfig::default()).ok();
            Ok(SizePoint {
                n,
                best: study.best_performance(),
                analysis,
            })
        })
        .collect()
}

/// Distinct per-benchmark seed component.
pub fn seed_tag(bench: Benchmark) -> u64 {
    match bench {
        Benchmark::IpFwdL1 => 0x11,
        Benchmark::IpFwdMem => 0x22,
        Benchmark::PacketAnalyzer => 0x33,
        Benchmark::AhoCorasick => 0x44,
        Benchmark::Stateful => 0x55,
        Benchmark::IpFwdIntAdd => 0x66,
        Benchmark::IpFwdIntMul => 0x77,
    }
}

/// Formats a PPS value the way the paper's figures label them.
pub fn fmt_pps(pps: f64) -> String {
    if pps >= 1.0e6 {
        format!("{:.3} MPPS", pps / 1.0e6)
    } else {
        format!("{:.0} PPS", pps)
    }
}

/// Renders a simple aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(factor: f64, workers: Option<usize>) -> BenchArgs {
        BenchArgs {
            factor,
            workers,
            metrics: None,
            checkpoint: None,
            resume: false,
            serve: None,
        }
    }

    #[test]
    fn scale_floors_small_samples() {
        assert_eq!(plain(0.01, None).sample(1000), 300);
        assert_eq!(plain(1.0, None).sample_sizes(), [1000, 2000, 5000]);
    }

    #[test]
    fn explicit_workers_win_over_defaults() {
        assert_eq!(plain(1.0, Some(3)).parallelism(), Parallelism::new(3));
        assert!(plain(1.0, None).parallelism().workers >= 1);
    }

    #[test]
    fn parse_handles_all_flags() {
        let args = BenchArgs::parse(
            [
                "--scale",
                "0.5",
                "--workers",
                "2",
                "--metrics",
                "/tmp/run.jsonl",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.factor, 0.5);
        assert_eq!(args.workers, Some(2));
        assert_eq!(args.metrics, Some(PathBuf::from("/tmp/run.jsonl")));
        // A bare number, a bad worker count, a misspelt flag, a flag
        // without its value and a scale that is not a number are errors,
        // never a silently rescaled run.
        let bad: [&[&str]; 9] = [
            &["2.0"],
            &["--workers", "0"],
            &["--workers", "two"],
            &["--worker", "8"],
            &["--scale", "O.1"],
            &["--scale", "inf"],
            &["--scale"],
            &["--metrics"],
            &["--scale", "0.5", "--resume", "extra"],
        ];
        for args in bad {
            let parsed = BenchArgs::parse(args.iter().map(|a| a.to_string()));
            assert!(parsed.is_err(), "{args:?} parsed as {parsed:?}");
        }
        // A binary that honours only `--scale` rejects every other flag.
        for &(flag, _) in &FLAGS[1..] {
            let parsed = BenchArgs::parse_honouring([flag, "1"].map(String::from), &["--scale"]);
            assert!(parsed.is_err_and(|e| e.contains("not supported")), "{flag}");
        }
    }

    #[test]
    fn parse_serve_flag() {
        let args = BenchArgs::parse(["--serve", "127.0.0.1:0"].map(String::from)).unwrap();
        assert_eq!(args.serve.as_deref(), Some("127.0.0.1:0"));
        if std::env::var_os("OPTASSIGN_SERVE").is_none() {
            assert_eq!(BenchArgs::parse(Vec::<String>::new()).unwrap().serve, None);
        }
    }

    #[test]
    fn serving_obs_handle_answers_health_checks() {
        let args = BenchArgs {
            serve: Some("127.0.0.1:0".to_string()),
            ..plain(1.0, None)
        };
        let obs = args.obs();
        assert!(obs.span_events_enabled());
        // The handle works as a normal Obs; the endpoint itself is
        // exercised by `serve_telemetry_answers_progress_trace_and_metrics`
        // and the check.sh serve smoke (the server address is only printed
        // to stderr here, so this test just verifies wiring doesn't abort).
        obs.counter_add("smoke_total", 1);
        obs.flush();
    }

    #[test]
    fn serve_telemetry_answers_progress_trace_and_metrics() {
        use optassign_obs::{FakeClock, Json, NullRecorder};
        use optassign_optd::client::http_call;
        let hub = Arc::new(TelemetryHub::new());
        let clock = Arc::new(FakeClock::new(0));
        let obs = Obs::new(
            Box::new(Tee(Box::new(NullRecorder), Box::new(Arc::clone(&hub)))),
            Box::new(Arc::clone(&clock)),
        );
        obs.enable_span_events();
        {
            let _span = obs.span("iter_round_ns");
            clock.advance(2_000);
        }
        obs.record(
            Event::new("iteration")
                .with("samples", 200u64)
                .with("best_observed", 41.5)
                .with("estimated_optimal", 50.0)
                .with("gap", 0.17)
                .with("method", "pot"),
        );
        let server = serve_telemetry("127.0.0.1:0", &obs, hub).expect("bind");
        let addr = server.addr().to_string();
        let get = |path: &str| http_call(&addr, "GET", path, None).expect("request");

        let (status, body) = get("/progress");
        assert_eq!(status, 200);
        let v = Json::parse(&body).expect("valid json");
        assert_eq!(v.get("round").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("gap").and_then(Json::as_f64), Some(0.17));

        let (status, body) = get("/trace");
        assert_eq!(status, 200);
        assert!(body.contains("\"name\":\"iter_round_ns\""), "{body}");
        assert!(body.ends_with("\"displayTimeUnit\":\"ns\"}"), "{body}");

        let (status, body) = get("/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("iter_round_ns_count 1"), "{body}");

        let (status, _) = get("/nope");
        assert_eq!(status, 404);
    }

    #[test]
    fn parse_checkpoint_and_resume() {
        let args =
            BenchArgs::parse(["--checkpoint", "/tmp/ckpt", "--resume"].map(String::from)).unwrap();
        assert_eq!(args.checkpoint, Some(PathBuf::from("/tmp/ckpt")));
        assert!(args.resume);
        let args = BenchArgs::parse(["--scale", "0.5"].map(String::from)).unwrap();
        assert!(!args.resume);
        // No checkpoint root configured: no store, regardless of scope.
        if std::env::var_os("OPTASSIGN_CHECKPOINT").is_none() {
            assert!(args.store("fig13", &Obs::disabled()).is_none());
        }
    }

    #[test]
    fn store_scopes_are_separate_directories() {
        let root =
            std::env::temp_dir().join(format!("optassign-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let args = BenchArgs {
            checkpoint: Some(root.clone()),
            ..plain(1.0, None)
        };
        let a = args.store("cell-a", &Obs::disabled()).expect("store opens");
        let b = args.store("cell-b", &Obs::disabled()).expect("store opens");
        drop((a, b));
        assert!(root.join("cell-a").is_dir());
        assert!(root.join("cell-b").is_dir());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_larger_pool_measures_only_the_draws_the_checkpoint_lacks() {
        let root =
            std::env::temp_dir().join(format!("optassign-bench-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let stored = BenchArgs {
            checkpoint: Some(root.clone()),
            ..plain(1.0, None)
        };
        let bench = Benchmark::IpFwdL1;
        stored.pool(bench, 20, &Obs::disabled()).expect("fits");
        // The 30-draw pool is the same campaign grown: its first 20
        // draws replay from the journal, the other 10 are simulated.
        let obs = Obs::metrics_only();
        let grown = stored.pool(bench, 30, &obs).expect("fits");
        assert_eq!(obs.metrics().counter("exec_replayed_total"), 20);
        assert_eq!(obs.metrics().counter("exec_measured_total"), 10);
        let fresh = plain(1.0, None)
            .pool(bench, 30, &Obs::disabled())
            .expect("fits");
        let bits = |s: &SampleStudy| {
            s.performances()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&grown), bits(&fresh));
        assert_eq!(grown.assignments(), fresh.assignments());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scale_factor_is_clamped() {
        assert_eq!(
            BenchArgs::parse(["--scale", "1000"].map(String::from))
                .unwrap()
                .factor,
            10.0
        );
        assert_eq!(
            BenchArgs::parse(["--scale", "0.000001"].map(String::from))
                .unwrap()
                .factor,
            0.01
        );
    }

    #[test]
    fn fmt_pps_units() {
        assert_eq!(fmt_pps(1_500_000.0), "1.500 MPPS");
        assert_eq!(fmt_pps(900.0), "900 PPS");
    }

    #[test]
    fn seed_tags_are_distinct() {
        let all = [
            Benchmark::IpFwdL1,
            Benchmark::IpFwdMem,
            Benchmark::PacketAnalyzer,
            Benchmark::AhoCorasick,
            Benchmark::Stateful,
            Benchmark::IpFwdIntAdd,
            Benchmark::IpFwdIntMul,
        ];
        let set: std::collections::HashSet<u64> = all.iter().map(|b| seed_tag(*b)).collect();
        assert_eq!(set.len(), all.len());
    }
}
