#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, tests.
#
# Library crates additionally deny `unwrap()`/`expect()` outside tests —
# measurement and estimation failures must flow through the typed error
# paths (CoreError / EvtError / MeasureError), never panic.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the (slow) full test suite; lints and build only.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> bash -n scripts/repro_all.sh"
bash -n scripts/repro_all.sh

# Library crates: panic-free discipline on top of the standard lints.
LIB_CRATES=(optassign-obs optassign-exec optassign-store optassign-stats optassign-sim optassign-evt optassign-netapps optassign-httpd optassign-optd optassign-fleet optassign)
for crate in "${LIB_CRATES[@]}"; do
    echo "==> cargo clippy -p ${crate} --lib (deny warnings, unwrap_used, expect_used)"
    cargo clippy -q -p "${crate}" --lib -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used
done

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo build --workspace"
cargo build -q --workspace

# campaign-bench is its own workspace, so the build above never compiles
# it; build it here so an API change breaks this gate, not the benchmark.
echo "==> cargo build campaign-bench"
cargo build -q --release --offline --manifest-path campaign-bench/Cargo.toml

if [[ "${FAST}" == "0" ]]; then
    # Run the suite serial and parallel: results must be bit-identical, so
    # both runs exercise the same assertions — the second one catches any
    # scheduling-dependent drift in the parallel engine.
    echo "==> cargo test --workspace (OPTASSIGN_WORKERS=1)"
    OPTASSIGN_WORKERS=1 cargo test -q --workspace
    echo "==> cargo test --workspace (OPTASSIGN_WORKERS=4)"
    OPTASSIGN_WORKERS=4 cargo test -q --workspace

    # Metrics-enabled smoke: fig13 at minimal scale must emit a parseable
    # JSONL journal with per-round gap traces and a final metrics snapshot.
    echo "==> fig13 --metrics smoke"
    METRICS_TMP="$(mktemp -d)"
    trap 'rm -rf "${METRICS_TMP}"' EXIT
    cargo run -q --release -p optassign-bench --bin fig13 -- \
        --scale 0.01 --workers 2 --metrics "${METRICS_TMP}/fig13.jsonl" >/dev/null
    grep -q '"kind":"iteration"' "${METRICS_TMP}/fig13.jsonl"
    grep -q '"kind":"metrics_snapshot"' "${METRICS_TMP}/fig13.jsonl"
    grep -q '_bucket{le=' "${METRICS_TMP}/fig13.jsonl.prom"

    # Kill-and-resume smoke: fig13 with a checkpoint, SIGKILLed mid-run,
    # must resume to the exact stdout of an uninterrupted run.
    echo "==> fig13 kill-and-resume smoke"
    cargo run -q --release -p optassign-bench --bin fig13 -- \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-clean" \
        >"${METRICS_TMP}/clean.out"
    # Run the binary directly — SIGKILLing a `cargo run` wrapper would
    # orphan the experiment, leaving it racing the resumed run below.
    target/release/fig13 \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-killed" \
        >"${METRICS_TMP}/killed.out" 2>/dev/null &
    FIG13_PID=$!
    # Let it journal part of the campaign, then kill it hard. A too-early
    # kill (empty log) and a too-late one (complete log) both still
    # exercise valid resume points, so the timing need not be exact.
    sleep 2
    kill -9 "${FIG13_PID}" 2>/dev/null || true
    wait "${FIG13_PID}" 2>/dev/null || true
    cargo run -q --release -p optassign-bench --bin fig13 -- \
        --scale 0.01 --workers 4 --checkpoint "${METRICS_TMP}/ckpt-killed" --resume \
        >"${METRICS_TMP}/resumed.out"
    diff "${METRICS_TMP}/clean.out" "${METRICS_TMP}/resumed.out"

    # Live-telemetry smoke: fig13 with --serve (plus tracing via
    # --metrics) must answer /healthz, /metrics, and /progress mid-run,
    # and its stdout must be bit-identical to a plain serve-off run —
    # the never-perturbs contract, end to end.
    echo "==> fig13 --serve telemetry smoke"
    cargo run -q --release -p optassign-bench --bin fig13 -- \
        --scale 0.01 --workers 2 >"${METRICS_TMP}/serve-off.out"
    target/release/fig13 \
        --scale 0.01 --workers 2 --serve 127.0.0.1:0 \
        --metrics "${METRICS_TMP}/serve.jsonl" \
        >"${METRICS_TMP}/serve-on.out" 2>"${METRICS_TMP}/serve.err" &
    SERVE_PID=$!
    # The endpoint comes up before the measurement campaign; poll briefly
    # for the bound address on stderr.
    SERVE_ADDR=""
    for _ in $(seq 1 50); do
        SERVE_ADDR="$(sed -n 's/^\[telemetry\] listening on //p' "${METRICS_TMP}/serve.err" | head -n1)"
        [[ -n "${SERVE_ADDR}" ]] && break
        sleep 0.1
    done
    [[ -n "${SERVE_ADDR}" ]] || { echo "telemetry endpoint never came up"; exit 1; }
    # Mid-run scrapes: the measurement campaign runs for seconds, so the
    # endpoint must be answering right now, while work is in flight.
    curl -fsS "http://${SERVE_ADDR}/healthz" | grep -qx 'ok'
    curl -fsS "http://${SERVE_ADDR}/metrics" >"${METRICS_TMP}/mid.prom"
    curl -fsS "http://${SERVE_ADDR}/progress" | grep -q '"round":'
    wait "${SERVE_PID}"
    # The iteration gauge: live if round 1 had completed by scrape time,
    # and always in the final Prometheus sidecar.
    grep -q '^iter_round ' "${METRICS_TMP}/mid.prom" "${METRICS_TMP}/serve.jsonl.prom"
    diff "${METRICS_TMP}/serve-off.out" "${METRICS_TMP}/serve-on.out"

    # A mistyped flag is a usage error (exit 2) before any work starts.
    # `--scale 0.01` comes last, so a parser that skipped the typo would
    # run a tiny experiment and fail here in seconds, not at full scale.
    echo "==> fig13 mistyped-flag smoke"
    rc=0; target/release/fig13 --workerz 2 --scale 0.01 >/dev/null 2>&1 || rc=$?; [[ "${rc}" == 2 ]]

    # Pool-sharing smoke: fig10 measures every benchmark's case-study pool
    # into a checkpoint; fig12 on the same checkpoint must replay all five
    # 300-draw pools from the journal — no simulator evaluation, and no
    # replay counted as a cache hit — and print exactly what a
    # checkpoint-free fig12 prints.
    echo "==> fig10/fig12 shared-pool smoke"
    cargo run -q --release -p optassign-bench --bin fig10 -- \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-pools" >/dev/null
    cargo run -q --release -p optassign-bench --bin fig12 -- \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-pools" \
        --metrics "${METRICS_TMP}/fig12.jsonl" >"${METRICS_TMP}/fig12-shared.out"
    grep -qx 'exec_cache_misses_total 0' "${METRICS_TMP}/fig12.jsonl.prom"
    grep -qx 'exec_cache_hits_total 0' "${METRICS_TMP}/fig12.jsonl.prom"
    grep -qx 'exec_replayed_total 1500' "${METRICS_TMP}/fig12.jsonl.prom"
    target/release/fig12 --scale 0.01 --workers 2 >"${METRICS_TMP}/fig12-plain.out"
    diff "${METRICS_TMP}/fig12-plain.out" "${METRICS_TMP}/fig12-shared.out"
    # fig7 on the same (journaled) IPFwd-L1 pool: a 300-draw pool with no
    # bounded POT fit reports an unresolved tail and exits 0.
    cargo run -q --release -p optassign-bench --bin fig7 -- \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-pools" >/dev/null

    # Each experiment binary honours a flag or rejects it (exit 2 before
    # any work): ext_selection takes --scale and --workers only, so its
    # --metrics is refused; ablation_predictor refuses a checkpoint (it
    # times the simulator study), and ext_deep_pipeline honours every
    # flag.
    echo "==> experiment-flag smokes"
    cargo build -q --release -p optassign-bench --bin ext_selection \
        --bin ablation_predictor --bin ext_deep_pipeline --bin ext_scheduler_eval
    rc=0; target/release/ext_selection --workers 1 --metrics "${METRICS_TMP}/sel.jsonl" --scale 0.01 >/dev/null 2>&1 || rc=$?; [[ "${rc}" == 2 && ! -e "${METRICS_TMP}/sel.jsonl" ]]
    rc=0; target/release/ablation_predictor --checkpoint "${METRICS_TMP}/ckpt-abl" --scale 0.01 >/dev/null 2>&1 || rc=$?; [[ "${rc}" == 2 && ! -e "${METRICS_TMP}/ckpt-abl" ]]
    target/release/ext_deep_pipeline --scale 0.01 --workers 2 --metrics "${METRICS_TMP}/deep.jsonl" --checkpoint "${METRICS_TMP}/ckpt-deep" >/dev/null; grep -qx 'exec_cache_misses_total 900' "${METRICS_TMP}/deep.jsonl.prom"; [[ -d "${METRICS_TMP}/ckpt-deep/deep-p3" ]]
    # ext_scheduler_eval at a scale whose 300-draw pools may have no
    # bounded tail: it reports the tail unresolved and exits 0, after
    # running local search and best-of-n on SimModel::evaluate.
    target/release/ext_scheduler_eval --scale 0.1 --workers 2 >"${METRICS_TMP}/sched.out"
    grep -q 'local search' "${METRICS_TMP}/sched.out"

    # obs_report smoke: deterministic tables from the serve run's journal,
    # tolerant of its exact content; chrome trace export parses as JSON.
    echo "==> obs_report smoke"
    cargo run -q --release -p optassign-bench --bin obs_report -- \
        "${METRICS_TMP}/serve.jsonl" --chrome-trace "${METRICS_TMP}/serve.trace.json" \
        >"${METRICS_TMP}/report.out"
    grep -q '== convergence ==' "${METRICS_TMP}/report.out"
    grep -q '== phase latency (ns) ==' "${METRICS_TMP}/report.out"
    grep -q 'iter_round_ns' "${METRICS_TMP}/report.out"
    grep -q '"traceEvents":\[' "${METRICS_TMP}/serve.trace.json"
    # Same journal, same report: the analysis itself is deterministic.
    cargo run -q --release -p optassign-bench --bin obs_report -- \
        "${METRICS_TMP}/serve.jsonl" >"${METRICS_TMP}/report2.out"
    diff "${METRICS_TMP}/report.out" "${METRICS_TMP}/report2.out"

    # Chaos-fabric soak: seeded kill/corrupt/repair/resume rounds under
    # injected storage faults plus a guaranteed quarantine round-trip;
    # the final resumed campaign must be bit-identical to a fault-free
    # run. Run twice: the seed alone fixes every fault and torn tail, so
    # both runs print the same line.
    echo "==> chaos_soak --scale smoke (twice, same stdout)"
    cargo build -q --release -p optassign-bench --bin chaos_soak
    target/release/chaos_soak --scale smoke 2>/dev/null >"${METRICS_TMP}/chaos1.out"
    target/release/chaos_soak --scale smoke 2>/dev/null >"${METRICS_TMP}/chaos2.out"
    grep -q '^chaos_soak: OK' "${METRICS_TMP}/chaos1.out"
    diff "${METRICS_TMP}/chaos1.out" "${METRICS_TMP}/chaos2.out"

    # Corrupt-then-fsck-then-resume smoke: flip one byte inside the clean
    # checkpoint's log, repair it with store_fsck (which must quarantine
    # the damaged frame), and resume — stdout must still match the
    # uninterrupted run exactly.
    echo "==> store_fsck corrupt-and-repair smoke"
    WAL="${METRICS_TMP}/ckpt-clean/fig13-ipfwd-l1/campaign.wal"
    printf '\xff' | dd of="${WAL}" bs=1 seek=200 count=1 conv=notrunc status=none
    cargo run -q --release -p optassign-bench --bin store_fsck -- \
        "${METRICS_TMP}/ckpt-clean/fig13-ipfwd-l1" --repair \
        >"${METRICS_TMP}/fsck.out"
    grep -q 'quarantined frames  : 1' "${METRICS_TMP}/fsck.out"
    grep -q 'store_fsck: OK' "${METRICS_TMP}/fsck.out"
    cargo run -q --release -p optassign-bench --bin fig13 -- \
        --scale 0.01 --workers 2 --checkpoint "${METRICS_TMP}/ckpt-clean" --resume \
        >"${METRICS_TMP}/repaired.out"
    diff "${METRICS_TMP}/clean.out" "${METRICS_TMP}/repaired.out"
    # A store directory that does not exist is an I/O error (exit 1),
    # not a clean store.
    rc=0; target/release/store_fsck "${METRICS_TMP}/no-such-store" >/dev/null 2>&1 || rc=$?; [[ "${rc}" == 1 ]]

    # Online-service smoke: start the optd daemon (journaled, span
    # tracing on), drive a small fig13-style netapps campaign through
    # the optd_client binary (with a client-side trace), then check the
    # daemon's campaign WAL is byte-identical to the offline driver's
    # (`optd offline` runs run_iterative_persistent through the same
    # admission path) — tracing must never perturb the campaign bytes.
    echo "==> optd online-service smoke"
    cargo build -q --release -p optassign-optd
    OPTD_DATA="${METRICS_TMP}/optd-data"
    cat >"${METRICS_TMP}/optd-spec.json" <<'EOF'
{"tenant":"smoke","seed":20120301,
 "model":{"kind":"netapps","benchmark":"IPFwd-L1","instances":8,
          "warmup_cycles":2000,"measure_cycles":4000},
 "config":{"n_init":100,"n_delta":50,"acceptable_loss":0.05,
           "max_samples":400,"eval_budget":2000}}
EOF
    target/release/optd serve --data "${OPTD_DATA}" \
        --addr-file "${METRICS_TMP}/optd-addr" --workers 2 \
        --journal "${METRICS_TMP}/optd.jsonl" >/dev/null &
    OPTD_PID=$!
    for _ in $(seq 1 50); do
        [[ -s "${METRICS_TMP}/optd-addr" ]] && break
        sleep 0.1
    done
    [[ -s "${METRICS_TMP}/optd-addr" ]] || { echo "optd never came up"; exit 1; }
    # A retry limit no attempt budget can spend is refused with a 422
    # before anything is stored, so the real campaign is still c000001.
    sed 's/"eval_budget":2000}/"eval_budget":2000,"max_eval_retries":18446744073709551615}/' \
        "${METRICS_TMP}/optd-spec.json" >"${METRICS_TMP}/optd-hostile.json"
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"${METRICS_TMP}/optd-hostile.json" "http://$(cat "${METRICS_TMP}/optd-addr")/v1/campaigns"); [[ "${code}" == 422 ]]
    target/release/optd_client --addr "$(cat "${METRICS_TMP}/optd-addr")" \
        --spec "${METRICS_TMP}/optd-spec.json" --timeout-s 120 \
        --trace "${METRICS_TMP}/optd-client.jsonl" \
        >"${METRICS_TMP}/optd-client.out"
    grep -q 'finished' "${METRICS_TMP}/optd-client.out"
    # Per-tenant SLO gauges on the daemon's Prometheus endpoint, and the
    # daemon-side spans carrying the client's trace context.
    curl -fsS "http://$(cat "${METRICS_TMP}/optd-addr")/metrics" \
        >"${METRICS_TMP}/optd.prom"
    grep -Eq 'optd_tenant_slo_state\{[^}]*tenant="smoke"' "${METRICS_TMP}/optd.prom"
    grep -Eq 'optd_tenant_budget_spent\{[^}]*tenant="smoke"' "${METRICS_TMP}/optd.prom"
    grep -q '"kind":"rpc_client"' "${METRICS_TMP}/optd-client.jsonl"
    grep -q '"kind":"rpc_server"' "${METRICS_TMP}/optd.jsonl"
    kill "${OPTD_PID}" 2>/dev/null || true
    wait "${OPTD_PID}" 2>/dev/null || true
    target/release/optd offline --spec "${METRICS_TMP}/optd-spec.json" \
        --data "${OPTD_DATA}-offline" >/dev/null
    cmp "${OPTD_DATA}/c000001/campaign.wal" "${OPTD_DATA}-offline/campaign.wal"

    # Fleet-fabric smoke: a coordinator and three loopback workers, one
    # of them SIGKILLed mid-campaign, must still journal a WAL
    # byte-identical to the `optd offline` single-node reference — the
    # distributed fabric contract (DESIGN.md §12), end to end across
    # real processes.
    echo "==> fleet distributed-fabric smoke"
    cargo build -q --release -p optassign-fleet
    FLEET_DIR="${METRICS_TMP}/fleet"
    mkdir -p "${FLEET_DIR}"
    # A netapps (simulator-backed) model: slow enough per evaluation
    # that the mid-campaign kill below lands while leases are flowing.
    cat >"${FLEET_DIR}/spec.json" <<'EOF'
{"tenant":"fleet-smoke","seed":20120301,
 "model":{"kind":"netapps","benchmark":"IPFwd-L1","instances":8,
          "warmup_cycles":2000,"measure_cycles":4000},
 "config":{"n_init":100,"n_delta":50,"acceptable_loss":0.0005,
           "max_samples":600,"eval_budget":8000}}
EOF
    FLEET_PIDS=()
    for w in 0 1 2; do
        target/release/fleet work --data "${FLEET_DIR}/w${w}" \
            --addr-file "${FLEET_DIR}/w${w}.addr" \
            --peer-addr-file "${FLEET_DIR}/w${w}.peer" \
            --journal "${FLEET_DIR}/w${w}.jsonl" >/dev/null &
        FLEET_PIDS+=($!)
    done
    for w in 0 1 2; do
        for _ in $(seq 1 50); do
            [[ -s "${FLEET_DIR}/w${w}.addr" && -s "${FLEET_DIR}/w${w}.peer" ]] && break
            sleep 0.1
        done
        [[ -s "${FLEET_DIR}/w${w}.addr" ]] || { echo "fleet worker ${w} never came up"; exit 1; }
    done
    # Hard-kill the middle worker once the campaign is under way; the
    # coordinator must re-lease the slots the worker never answered (the
    # ones it did answer are already in the coordinator's journal). An
    # early or late kill still exercises a valid (if less interesting)
    # schedule.
    ( sleep 0.3; kill -9 "${FLEET_PIDS[1]}" 2>/dev/null ) &
    KILLER_PID=$!
    # The coordinator journals its side of every lease RPC and runs the
    # observability plane; with --serve it keeps serving the merged
    # timeline after the campaign, so it runs in the background here.
    target/release/fleet run --spec "${FLEET_DIR}/spec.json" \
        --data "${FLEET_DIR}/coordinator" \
        --worker "$(cat "${FLEET_DIR}/w0.addr")" \
        --worker "$(cat "${FLEET_DIR}/w1.addr")" \
        --worker "$(cat "${FLEET_DIR}/w2.addr")" \
        --journal "${FLEET_DIR}/coordinator.jsonl" \
        --serve 127.0.0.1:0 --serve-addr-file "${FLEET_DIR}/plane.addr" \
        --worker-peer "$(cat "${FLEET_DIR}/w0.peer")" \
        --worker-peer "$(cat "${FLEET_DIR}/w1.peer")" \
        --worker-peer "$(cat "${FLEET_DIR}/w2.peer")" \
        >"${FLEET_DIR}/run.out" &
    RUN_PID=$!
    # The plane binds before the campaign starts; scrape it mid-run.
    for _ in $(seq 1 50); do
        [[ -s "${FLEET_DIR}/plane.addr" ]] && break
        sleep 0.1
    done
    [[ -s "${FLEET_DIR}/plane.addr" ]] || { echo "fleet plane never came up"; exit 1; }
    PLANE="http://$(cat "${FLEET_DIR}/plane.addr")"
    curl -fsS "${PLANE}/healthz" | grep -qx 'ok'
    curl -fsS "${PLANE}/v1/fleet/metrics" >/dev/null
    # Wait for the campaign itself to finish (the process keeps serving).
    for _ in $(seq 1 600); do
        grep -q 'campaign finished' "${FLEET_DIR}/run.out" && break
        kill -0 "${RUN_PID}" 2>/dev/null || break
        sleep 0.2
    done
    grep -q 'campaign finished' "${FLEET_DIR}/run.out"
    wait "${KILLER_PID}" 2>/dev/null || true
    # Single pane of glass over the finished fleet: instance-labelled
    # series from the coordinator and the surviving workers, and one
    # stitched Chrome trace with cross-process flow arrows.
    curl -fsS "${PLANE}/v1/fleet/metrics" >"${FLEET_DIR}/fleet.prom"
    grep -q 'instance="coordinator"' "${FLEET_DIR}/fleet.prom"
    grep -qF "instance=\"$(cat "${FLEET_DIR}/w0.peer")\"" "${FLEET_DIR}/fleet.prom"
    curl -fsS "${PLANE}/v1/trace/merged" >"${FLEET_DIR}/merged-live.json"
    grep -q '"ph":"s"' "${FLEET_DIR}/merged-live.json"
    grep -q '"ph":"f"' "${FLEET_DIR}/merged-live.json"
    # Every endpoint answers the same observability routes: a surviving
    # worker's control endpoint serves Prometheus text too. Saved to a
    # file first: under pipefail, grep -q exiting early can fail curl.
    curl -fsS "http://$(cat "${FLEET_DIR}/w0.addr")/metrics" >"${FLEET_DIR}/w0.prom"
    grep -q '^# TYPE http_requests_total counter' "${FLEET_DIR}/w0.prom"
    kill "${RUN_PID}" 2>/dev/null || true
    wait "${RUN_PID}" 2>/dev/null || true
    for pid in "${FLEET_PIDS[@]}"; do
        kill -9 "${pid}" 2>/dev/null || true
        wait "${pid}" 2>/dev/null || true
    done
    target/release/optd offline --spec "${FLEET_DIR}/spec.json" \
        --data "${FLEET_DIR}/offline" >/dev/null
    cmp "${FLEET_DIR}/coordinator/merged/campaign.wal" \
        "${FLEET_DIR}/offline/campaign.wal"
    # The coordinator's journal is the only thing it writes.
    [[ "$(ls "${FLEET_DIR}/coordinator")" == "merged" ]]

    # Coordinator resume smoke: rerun the campaign on the coordinator's
    # own data dir against one fresh worker. Every slot replays from the
    # journal, so the run prints the same result, leaves the WAL equal to
    # the single-node one, and leases nothing: the fresh worker's shard
    # holds only the 8-byte log magic.
    echo "==> fleet coordinator resume smoke"
    target/release/fleet work --data "${FLEET_DIR}/w3" \
        --addr-file "${FLEET_DIR}/w3.addr" >/dev/null &
    W3_PID=$!
    for _ in $(seq 1 50); do
        [[ -s "${FLEET_DIR}/w3.addr" ]] && break
        sleep 0.1
    done
    rc=0
    target/release/fleet run --spec "${FLEET_DIR}/spec.json" \
        --data "${FLEET_DIR}/coordinator" \
        --worker "$(cat "${FLEET_DIR}/w3.addr")" >"${FLEET_DIR}/rerun.out" || rc=$?
    kill "${W3_PID}" 2>/dev/null || true
    wait "${W3_PID}" 2>/dev/null || true
    [[ "${rc}" == 0 ]]
    diff <(grep 'campaign finished' "${FLEET_DIR}/run.out") \
        <(grep 'campaign finished' "${FLEET_DIR}/rerun.out")
    cmp "${FLEET_DIR}/coordinator/merged/campaign.wal" \
        "${FLEET_DIR}/offline/campaign.wal"
    [[ "$(stat -c %s "${FLEET_DIR}/w3/campaign.wal")" == 8 ]]
    # Offline stitch over the journal files on disk — this one also sees
    # the SIGKILLed worker's journal (unreachable over HTTP), so its
    # possibly-torn tail must stay within the malformed-line budget.
    echo "==> obs_report --fleet stitched-timeline smoke"
    cargo run -q --release -p optassign-bench --bin obs_report -- \
        --fleet "${FLEET_DIR}" --max-malformed 10 >"${FLEET_DIR}/fleet-report.out"
    grep -Eq '[1-9][0-9]* cross-process pair\(s\)' "${FLEET_DIR}/fleet-report.out"
    grep -q '"traceEvents":\[' "${FLEET_DIR}/merged_trace.json"

    # Perf-trajectory smoke: the model's evaluation path, measured at
    # a tiny window and diffed against the committed BENCH_*.json
    # baselines (>10% speedup-ratio regression fails; see DESIGN.md §10).
    echo "==> bench.sh --smoke perf gate"
    scripts/bench.sh --smoke
fi

echo "==> all checks passed"
