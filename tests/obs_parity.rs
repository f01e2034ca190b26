//! The observability contract, end to end: attaching a recorder — any
//! recorder — to a pipeline must not change a single bit of its output,
//! at any worker count. The journal is derived *from* the computation
//! and never feeds back into it.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{run_iterative, run_iterative_obs, IterativeConfig};
use optassign::model::SyntheticModel;
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_evt::ResilientConfig;
use optassign_obs::{FakeClock, Json, JsonlRecorder, MemoryRecorder, NullRecorder, Obs};
use optassign_store::WAL_FILE;
use std::sync::Arc;

fn model() -> SyntheticModel {
    SyntheticModel::new(Topology::ultrasparc_t2(), 8, 2.0e6)
}

/// A full recorder + fake clock, with a handle on the captured lines.
fn recording_obs() -> (Obs, Arc<MemoryRecorder>) {
    let recorder = Arc::new(MemoryRecorder::default());
    let obs = Obs::new(
        Box::new(Arc::clone(&recorder)),
        Box::new(Arc::new(FakeClock::new(0))),
    );
    (obs, recorder)
}

#[test]
fn run_resilient_is_bit_identical_with_recording_on_and_off() {
    let faulty = FaultyModel::new(model(), FaultPlan::light(41));
    let (base, base_log) = SampleStudy::run_resilient_with(
        &faulty,
        200,
        41,
        3,
        Parallelism::serial(),
        &Obs::disabled(),
        None,
    )
    .unwrap();
    let base_report = base
        .estimate_resilient(&ResilientConfig::default())
        .unwrap();

    for workers in [1, 4] {
        let par = Parallelism::new(workers);
        // NullRecorder: enabled metrics, discarded events.
        faulty.reset();
        let null_obs = Obs::new(
            Box::new(NullRecorder),
            Box::new(Arc::new(FakeClock::new(0))),
        );
        let (null_study, null_log) =
            SampleStudy::run_resilient_with(&faulty, 200, 41, 3, par, &null_obs, None).unwrap();
        // Full recorder capturing every event.
        faulty.reset();
        let (full_obs, recorder) = recording_obs();
        let (full_study, full_log) =
            SampleStudy::run_resilient_with(&faulty, 200, 41, 3, par, &full_obs, None).unwrap();

        for (study, log) in [(&null_study, null_log), (&full_study, full_log)] {
            assert_eq!(
                study.performances(),
                base.performances(),
                "workers={workers}"
            );
            assert_eq!(study.assignments(), base.assignments(), "workers={workers}");
            assert_eq!(log, base_log, "workers={workers}");
        }
        let report = full_study
            .estimate_resilient_obs(&ResilientConfig::default(), &full_obs)
            .unwrap();
        assert_eq!(report.upb.point, base_report.upb.point);
        assert_eq!(report.method, base_report.method);
        assert!(!recorder.lines().is_empty(), "recorder captured nothing");
    }
}

#[test]
fn wal_bytes_are_identical_across_batch_sizes_and_worker_counts() {
    // The durable journal is derived from the campaign's *results*, which
    // are pinned bit for bit at every worker count — so the WAL a
    // persistent run leaves behind must be byte-identical at every worker
    // count, and a warm re-run (pure replay) must leave it untouched.
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!("optassign-obs-wal-{tag}-{}", std::process::id()))
    };
    let build = || FaultyModel::new(model(), FaultPlan::light(53));

    let mut reference: Option<(Vec<u8>, Vec<f64>)> = None;
    for workers in [1usize, 4] {
        let dir = scratch(&format!("w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let par = Parallelism::new(workers);
        let store = CampaignStore::open(&dir).unwrap();
        let (study, _log) = SampleStudy::run_resilient_with(
            &build(),
            120,
            53,
            3,
            par,
            &Obs::disabled(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(store.io_errors(), 0);
        drop(store);
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert!(!wal.is_empty(), "empty WAL at workers={workers}");

        match &reference {
            None => reference = Some((wal.clone(), study.performances().to_vec())),
            Some((ref_wal, ref_perf)) => {
                assert_eq!(&wal, ref_wal, "WAL bytes diverged at workers={workers}");
                assert_eq!(study.performances(), &ref_perf[..]);
            }
        }

        // Warm re-run: the completed campaign replays from the journal
        // without touching the model's fault stream, reproduces the
        // same study, and appends nothing to the WAL.
        let reopened = CampaignStore::open(&dir).unwrap();
        let (warm, _warm_log) = SampleStudy::run_resilient_with(
            &build(),
            120,
            53,
            3,
            par,
            &Obs::disabled(),
            Some(&reopened),
        )
        .unwrap();
        assert_eq!(warm.performances(), study.performances());
        drop(reopened);
        let wal_after = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(
            wal_after, wal,
            "warm replay mutated the WAL at workers={workers}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn wal_bytes_are_identical_with_tracing_on_and_off() {
    // Distributed-tracing instrumentation (span events, rpc spans) obeys
    // the same never-perturbs contract as plain recording: the WAL a
    // persistent run writes is byte-identical whether span tracing is
    // fully on or observability is disabled entirely, at any worker
    // count.
    let scratch = |tag: &str| {
        std::env::temp_dir().join(format!(
            "optassign-obs-trace-wal-{tag}-{}",
            std::process::id()
        ))
    };
    let build = || FaultyModel::new(model(), FaultPlan::light(59));
    let mut reference: Option<(Vec<u8>, Vec<f64>)> = None;
    for workers in [1usize, 4] {
        for traced in [false, true] {
            let dir = scratch(&format!("w{workers}t{traced}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (obs, recorder) = recording_obs();
            if traced {
                obs.enable_span_events();
            }
            let effective = if traced { obs } else { Obs::disabled() };
            let store = CampaignStore::open(&dir).unwrap();
            let (study, _log) = SampleStudy::run_resilient_with(
                &build(),
                120,
                59,
                3,
                Parallelism::new(workers),
                &effective,
                Some(&store),
            )
            .unwrap();
            drop(store);
            let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
            assert!(!wal.is_empty());
            if traced {
                assert!(
                    recorder
                        .lines()
                        .iter()
                        .any(|l| l.contains("\"kind\":\"span\"")),
                    "tracing produced no span events at workers={workers}"
                );
            }
            match &reference {
                None => reference = Some((wal, study.performances().to_vec())),
                Some((ref_wal, ref_perf)) => {
                    assert_eq!(
                        &wal, ref_wal,
                        "WAL diverged at workers={workers} traced={traced}"
                    );
                    assert_eq!(study.performances(), &ref_perf[..]);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn run_iterative_is_bit_identical_with_recording_on_and_off() {
    let faulty = FaultyModel::new(model(), FaultPlan::light(43));
    let mk = |workers: usize| IterativeConfig {
        n_init: 300,
        n_delta: 100,
        acceptable_loss: 0.05,
        parallelism: Parallelism::new(workers),
        ..IterativeConfig::default()
    };
    let base = run_iterative(&faulty, &mk(1), 43).unwrap();

    for workers in [1, 4] {
        let null_obs = Obs::new(
            Box::new(NullRecorder),
            Box::new(Arc::new(FakeClock::new(0))),
        );
        let (full_obs, recorder) = recording_obs();
        for obs in [&null_obs, &full_obs] {
            let run = run_iterative_obs(&faulty, &mk(workers), 43, obs).unwrap();
            assert_eq!(run.samples_used, base.samples_used, "workers={workers}");
            assert_eq!(run.evaluations, base.evaluations, "workers={workers}");
            assert_eq!(run.best_performance, base.best_performance);
            assert_eq!(run.final_estimate.upb.point, base.final_estimate.upb.point);
            assert_eq!(run.trace, base.trace, "workers={workers}");
            assert_eq!(run.events, base.events, "workers={workers}");
            assert_eq!(run.stop, base.stop, "workers={workers}");
        }
        // The journal mirrors the run: one iteration line per round.
        let lines = recorder.lines();
        let rounds = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"iteration\""))
            .count();
        assert_eq!(rounds, base.trace.len(), "workers={workers}");
    }
}

#[test]
fn span_lineage_is_identical_at_one_and_four_workers() {
    // Span ids are allocated by a sequential counter in orchestration
    // code, so the span hierarchy — ids, parents, names, in journal
    // order — must be worker-count independent. Worker-lane spans (lane
    // > 0) are the one legitimately worker-dependent part: they get
    // derived hash ids and are excluded from the lineage comparison.
    let run = |workers: usize| -> Vec<String> {
        let (obs, recorder) = recording_obs();
        obs.enable_span_events();
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.10,
            parallelism: Parallelism::new(workers),
            ..IterativeConfig::default()
        };
        run_iterative_obs(&model(), &cfg, 47, &obs).unwrap();
        recorder.lines()
    };
    let spans = |lines: &[String]| -> Vec<(String, u64, u64)> {
        lines
            .iter()
            .filter_map(|l| Json::parse(l))
            .filter(|v| v.kind() == Some("span"))
            .filter(|v| v.get("lane").and_then(Json::as_u64) == Some(0))
            .map(|v| {
                (
                    v.get("name").and_then(Json::as_str).unwrap().to_string(),
                    v.get("id").and_then(Json::as_u64).unwrap(),
                    v.get("parent").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect()
    };

    let serial_lines = run(1);
    let parallel_lines = run(4);
    let serial = spans(&serial_lines);
    let parallel = spans(&parallel_lines);
    assert!(!serial.is_empty(), "no span events recorded");
    assert_eq!(
        serial, parallel,
        "span lineage differs across worker counts"
    );
    // Nesting is real: at least one span has a nonzero parent that is
    // itself a recorded span id.
    let ids: std::collections::HashSet<u64> = serial.iter().map(|(_, id, _)| *id).collect();
    assert!(
        serial
            .iter()
            .any(|(_, _, parent)| *parent != 0 && ids.contains(parent)),
        "no nested spans in {serial:?}"
    );

    // Worker-lane spans exist at 4 workers, carry high-bit hash ids
    // (disjoint from counter ids), and parent onto a real region span.
    let lanes: Vec<Json> = parallel_lines
        .iter()
        .filter_map(|l| Json::parse(l))
        .filter(|v| v.kind() == Some("span"))
        .filter(|v| v.get("lane").and_then(Json::as_u64) > Some(0))
        .collect();
    assert!(!lanes.is_empty(), "no lane spans at 4 workers");
    for lane in &lanes {
        let id = lane.get("id").and_then(Json::as_u64).unwrap();
        let parent = lane.get("parent").and_then(Json::as_u64).unwrap();
        assert!(id >= 1 << 63, "lane id {id} collides with counter ids");
        assert!(ids.contains(&parent), "lane span orphaned from {parent}");
        assert_eq!(
            lane.get("name").and_then(Json::as_str),
            Some("exec_lane_ns")
        );
    }
}

#[test]
fn journal_lines_are_parseable_jsonl() {
    let (obs, recorder) = recording_obs();
    let m = model();
    let cfg = IterativeConfig {
        n_init: 300,
        n_delta: 100,
        acceptable_loss: 0.10,
        parallelism: Parallelism::new(2),
        ..IterativeConfig::default()
    };
    run_iterative_obs(&m, &cfg, 47, &obs).unwrap();
    obs.record_metrics_snapshot();

    let lines = recorder.lines();
    assert!(!lines.is_empty());
    for line in &lines {
        // Minimal JSONL sanity without a JSON dependency: one object per
        // line, no embedded newlines, balanced braces and quotes outside
        // of strings.
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'));
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for c in line.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON in {line}");
        assert!(!in_str, "unterminated string in {line}");
        assert!(
            line.contains("\"kind\":"),
            "journal line lacks kind: {line}"
        );
    }
    assert!(lines
        .iter()
        .any(|l| l.contains("\"kind\":\"metrics_snapshot\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"kind\":\"iterative_done\"")));
}

#[test]
fn jsonl_recorder_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("optassign-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    {
        let journal = JsonlRecorder::create(&path).unwrap();
        let obs = Obs::new(Box::new(journal), Box::new(Arc::new(FakeClock::new(0))));
        let study =
            SampleStudy::run_with(&model(), 200, 7, Parallelism::new(2), &obs, None).unwrap();
        assert_eq!(study.len(), 200);
        obs.record_metrics_snapshot();
        obs.flush();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().any(|l| l.contains("\"kind\":\"study_done\"")));
    assert!(text
        .lines()
        .any(|l| l.contains("\"kind\":\"metrics_snapshot\"")));
    std::fs::remove_dir_all(&dir).ok();
}
