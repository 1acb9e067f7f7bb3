#!/usr/bin/env bash
# Tier-1 verification: full build + ctest across sanitizer configurations —
# plain, AddressSanitizer (-DHDD_SANITIZE=address) and UndefinedBehavior-
# Sanitizer (-DHDD_SANITIZE=undefined, recovery disabled so any UB fails
# the run). Separate build directories so the configurations never share
# object files. Every configuration additionally re-runs the `analysis`,
# `eval`, `obs` and `fault` test labels on their own, so a static-verifier,
# drive-level decision, metrics or fault-injection regression is called
# out by name even when the full suite is noisy (the `eval` label holds
# the voting window, the holdout protocol and the fleet scorer that share
# them; the `fault` label is the randomized
# kill-and-resume property harness — hundreds of seeded fault schedules,
# also exercised under ASan).
# The plain configuration also smoke-tests `--metrics-out -` end to end,
# boots a real `hddpredict serve` daemon for an ingest/query/metrics
# round trip and again for a tracing round trip (`hddpredict trace`
# fetching /debug/trace, span chain asserted from the JSON), and a
# ThreadSanitizer build runs the `obs`, `serve`, `pipeline`, `concurrency`
# and `eval` labels plus DurableFleetTest by name (sharded counters, the
# span rings, the multi-threaded daemon, the pool-parallel fleet scorer
# and holdout evaluation, and journaled observe_samples all claim
# TSan-clean).
# The full (non-fast) run additionally stretches the serve soak test to
# ~30 s of fault-injected mixed operations (HDD_SOAK_MS=30000) and
# replays the checked-in fuzz corpus through the five fuzz entry points
# under ASan+UBSan (tools/fuzz.sh --regress).
# Before any build, tools/static.sh gates the concurrency contracts
# (thread-safety-annotation suppression audit; clang -Wthread-safety and
# clang-tidy concurrency-* when LLVM is installed). Sanitizer configs
# compile with HDD_LOCK_ORDER_CHECKS, so the runtime lock-rank checker
# (src/common/lock_order.h) is live throughout the ASan/UBSan/TSan legs.
#
# Usage: tools/check.sh [--fast] [jobs]
#   --fast   static gate + plain configuration only (skips the sanitizers)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
  shift
fi
JOBS="${1:-$(nproc)}"

run_config() {
  local build_dir="$1"
  shift
  echo "=== configure ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== build ${build_dir} ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ctest ${build_dir} ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
  echo "=== ctest ${build_dir} (label: analysis) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L analysis
  echo "=== ctest ${build_dir} (label: eval) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L eval
  echo "=== ctest ${build_dir} (label: obs) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L obs
  echo "=== ctest ${build_dir} (label: fault) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L fault
  echo "=== ctest ${build_dir} (label: serve) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L serve
  echo "=== ctest ${build_dir} (label: pipeline) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L pipeline
  echo "=== ctest ${build_dir} (label: concurrency) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L concurrency
  echo "=== ctest ${build_dir} (label: fuzz) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L fuzz
}

# Bounded serve soak: the multi-client ingest/query/stats loop against a
# fault-injecting store (tests/serve_soak_test.cpp) stretched to ~30 s of
# mixed operations, with the byte-identical-resume and fd-leak assertions
# it always carries. The default ctest pass runs the same test at ~2 s;
# this leg is the longer shake-out.
soak_smoke() {
  local build_dir="$1"
  echo "=== serve soak (label: soak, HDD_SOAK_MS=30000) ==="
  HDD_SOAK_MS=30000 ctest --test-dir "${build_dir}" \
      --output-on-failure -L soak
}

# End-to-end smoke of the metrics pipeline: generate -> train -> ingest ->
# replay --metrics-out -, then assert the three headline instrument names
# made it into the Prometheus dump.
obs_smoke() {
  local build_dir="$1"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local bin="${build_dir}/tools/hddpredict"
  echo "=== obs smoke (${bin}) ==="
  "${bin}" generate --out "${tmp}/fleet.csv" --scale 0.02 --family W \
      --seed 11 --interval 2 > /dev/null
  "${bin}" train --data "${tmp}/fleet.csv" --model "${tmp}/m.tree" \
      > /dev/null
  "${bin}" ingest --store "${tmp}/store" --data "${tmp}/fleet.csv" \
      > /dev/null
  "${bin}" replay --store "${tmp}/store" --model "${tmp}/m.tree" \
      --voters 5 --metrics-out - > "${tmp}/metrics.txt"
  local name
  for name in hdd_fleet_samples_scored_total \
              hdd_fleet_batch_latency_ns \
              hdd_store_recovery_outcomes_total; do
    if ! grep -q "${name}" "${tmp}/metrics.txt"; then
      echo "obs smoke FAILED: ${name} missing from metrics dump" >&2
      return 1
    fi
  done
  echo "=== obs smoke passed ==="
}

# End-to-end smoke of the daemon: boot `serve` on an ephemeral port, push
# a fleet through the wire client, query a drive, scrape /metrics over
# HTTP, then shut down via the wire op and assert a clean exit.
serve_smoke() {
  local build_dir="$1"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local bin="${build_dir}/tools/hddpredict"
  echo "=== serve smoke (${bin}) ==="
  "${bin}" generate --out "${tmp}/fleet.csv" --scale 0.02 --family W \
      --seed 11 --interval 2 > /dev/null
  "${bin}" train --data "${tmp}/fleet.csv" --model "${tmp}/m.tree" \
      > /dev/null
  "${bin}" serve --store "${tmp}/store" --model "${tmp}/m.tree" \
      --port 0 --port-file "${tmp}/port" > "${tmp}/serve.log" &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    [[ -s "${tmp}/port" ]] && { port="$(cat "${tmp}/port")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "serve smoke FAILED: daemon never wrote its port file" >&2
    kill "${serve_pid}" 2> /dev/null || true
    return 1
  fi
  "${bin}" client --addr "127.0.0.1:${port}" --op ingest \
      --data "${tmp}/fleet.csv" | grep -q "ingested" || {
    echo "serve smoke FAILED: wire ingest" >&2; return 1; }
  "${bin}" client --addr "127.0.0.1:${port}" --op stats \
      | grep -q "drives" || {
    echo "serve smoke FAILED: stats" >&2; return 1; }
  "${bin}" client --addr "127.0.0.1:${port}" --op metrics \
      | grep -q "hdd_serve_ingest_samples_total" || {
    echo "serve smoke FAILED: /metrics scrape" >&2; return 1; }
  "${bin}" client --addr "127.0.0.1:${port}" --op shutdown > /dev/null
  if ! wait "${serve_pid}"; then
    echo "serve smoke FAILED: daemon exited non-zero" >&2
    cat "${tmp}/serve.log" >&2
    return 1
  fi
  grep -q "served" "${tmp}/serve.log" || {
    echo "serve smoke FAILED: no shutdown summary" >&2; return 1; }
  echo "=== serve smoke passed ==="
}

# End-to-end smoke of the continuous-update pipeline: ingest a fleet into
# a store, run one forced autoretrain cycle against it, and assert the
# promoted generation shows up both in the CLI summary and as the
# hdd_pipeline_generation gauge in the metrics dump.
pipeline_smoke() {
  local build_dir="$1"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local bin="${build_dir}/tools/hddpredict"
  echo "=== pipeline smoke (${bin}) ==="
  "${bin}" generate --out "${tmp}/fleet.csv" --scale 0.02 --family W \
      --seed 11 --interval 2 > /dev/null
  "${bin}" train --data "${tmp}/fleet.csv" --model "${tmp}/m.tree" \
      > /dev/null
  "${bin}" ingest --store "${tmp}/store" --data "${tmp}/fleet.csv" \
      > /dev/null
  "${bin}" autoretrain --store "${tmp}/store" --model "${tmp}/m.tree" \
      --failed-data "${tmp}/fleet.csv" --cycles 1 \
      --metrics-out "${tmp}/metrics.txt" > "${tmp}/out.txt"
  grep -q "generation 0 -> 1" "${tmp}/out.txt" || {
    echo "pipeline smoke FAILED: no generation bump in CLI summary" >&2
    cat "${tmp}/out.txt" >&2
    return 1
  }
  grep -q "^hdd_pipeline_generation 1" "${tmp}/metrics.txt" || {
    echo "pipeline smoke FAILED: hdd_pipeline_generation gauge not 1" >&2
    return 1
  }
  echo "=== pipeline smoke passed ==="
}

# End-to-end smoke of request tracing: boot `serve` (tracing defaults on),
# push a fleet through the wire client so a traced request crosses the
# daemon, fetch the flight recorder with `hddpredict trace`, and assert
# the JSON parses and holds the ingest -> journal span chain.
trace_smoke() {
  local build_dir="$1"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local bin="${build_dir}/tools/hddpredict"
  echo "=== trace smoke (${bin}) ==="
  "${bin}" generate --out "${tmp}/fleet.csv" --scale 0.02 --family W \
      --seed 11 --interval 2 > /dev/null
  "${bin}" train --data "${tmp}/fleet.csv" --model "${tmp}/m.tree" \
      > /dev/null
  "${bin}" serve --store "${tmp}/store" --model "${tmp}/m.tree" \
      --fsync always --port 0 --port-file "${tmp}/port" \
      > "${tmp}/serve.log" &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    [[ -s "${tmp}/port" ]] && { port="$(cat "${tmp}/port")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "trace smoke FAILED: daemon never wrote its port file" >&2
    kill "${serve_pid}" 2> /dev/null || true
    return 1
  fi
  "${bin}" client --addr "127.0.0.1:${port}" --op ingest \
      --data "${tmp}/fleet.csv" > /dev/null || {
    echo "trace smoke FAILED: wire ingest" >&2; return 1; }
  "${bin}" trace --addr "127.0.0.1:${port}" --ms 60000 \
      --out "${tmp}/trace.json" > /dev/null || {
    echo "trace smoke FAILED: hddpredict trace" >&2; return 1; }
  "${bin}" client --addr "127.0.0.1:${port}" --op shutdown > /dev/null
  wait "${serve_pid}" || {
    echo "trace smoke FAILED: daemon exited non-zero" >&2
    cat "${tmp}/serve.log" >&2
    return 1
  }
  if command -v python3 > /dev/null; then
    python3 - "${tmp}/trace.json" << 'EOF' || return 1
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
names = {e["name"] for e in trace["traceEvents"]}
need = {"serve.request", "wire.parse", "shard.queue_wait", "shard.ingest",
        "fleet.ingest", "store.append", "store.fsync", "wire.respond"}
missing = need - names
if missing:
    sys.exit("trace smoke FAILED: spans missing from /debug/trace: "
             + ", ".join(sorted(missing)))
EOF
  else
    local name
    for name in serve.request shard.ingest store.fsync wire.respond; do
      grep -q "\"${name}\"" "${tmp}/trace.json" || {
        echo "trace smoke FAILED: span ${name} missing" >&2; return 1; }
    done
  fi
  echo "=== trace smoke passed ==="
}

# Concurrency-contract gate (suppression audit + clang thread-safety build
# + clang-tidy; skips the LLVM layers gracefully when clang is absent).
echo "=== static gate (tools/static.sh) ==="
tools/static.sh "${JOBS}"

run_config build
obs_smoke build
serve_smoke build
pipeline_smoke build
trace_smoke build
if [[ "${FAST}" == "1" ]]; then
  echo "=== fast check passed (static gate + plain) ==="
  exit 0
fi
soak_smoke build
run_config build-asan -DHDD_SANITIZE=address
run_config build-ubsan -DHDD_SANITIZE=undefined

# Fuzz corpus regression under ASan+UBSan: every checked-in seed replayed
# through the five fuzz entry points (tools/fuzz.sh builds build-fuzz with
# clang/libFuzzer when available, gcc standalone-replay binaries
# otherwise).
tools/fuzz.sh --regress "${JOBS}"

# ThreadSanitizer over the concurrency surfaces: the sharded-atomic
# counters, the multi-threaded serve daemon, the hot-swap/shadow path of
# the update pipeline, the fleet scorer's and holdout evaluation's
# DriveVoteState pushes on pool workers, and observe_samples' blocks
# writing disjoint slices of the scorer's shared scratch all claim
# TSan-clean, so hold them to that.
echo "=== configure build-tsan (-DHDD_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DHDD_SANITIZE=thread
echo "=== build build-tsan (obs_test trace_test serve_test pipeline_test retrain_loop_test update_test lock_order_test fleet_test eval_test adversarial_test durable_fleet_test) ==="
cmake --build build-tsan -j "${JOBS}" \
    --target obs_test trace_test serve_test pipeline_test \
        retrain_loop_test update_test lock_order_test fleet_test eval_test \
        adversarial_test durable_fleet_test
echo "=== ctest build-tsan (labels: obs serve pipeline concurrency eval) ==="
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -L 'obs|serve|pipeline|concurrency|eval'
echo "=== ctest build-tsan (DurableFleetTest) ==="
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -R '^DurableFleetTest'

echo "=== all checks passed (static gate + plain + soak + asan + ubsan + fuzz regress + tsan-obs/serve/pipeline/concurrency/eval/durable-fleet) ==="
