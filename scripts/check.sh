#!/usr/bin/env bash
# Every CI gate, defined once. `bash scripts/check.sh` runs all stages in
# order; `bash scripts/check.sh STAGE...` runs the named ones. CI runs one
# stage per matrix job (.github/workflows/ci.yml), and tests/ci_stages.rs
# keeps its matrix list equal to STAGES. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(fmt clippy test check serve-smoke bench scale benchmark-smoke figures doc)

run() {
  echo "==> $*"
  "$@"
}

stage_fmt() {
  run cargo fmt --all -- --check
}

stage_clippy() {
  run cargo clippy --workspace --all-targets -- -D warnings
}

stage_test() {
  # Every crate's unit, integration and property tests, not only the
  # root package's (the workspace has no default-members). This includes
  # the source lints (`workspace_is_lint_clean` and the csqp-lint
  # fixture tests), the csqp-verify mutant and bounds suites, and the
  # serve integration tests over live loopback servers: memo on/off,
  # the memory-budget gate, the chaos, reply-fault and catalog-fault
  # soaks, and pipelined digest equality.
  run cargo test --release --workspace -q
}

stage_check() {
  # Static analyzer, every stage: random plan sweep, optimizer traces,
  # negative fixtures, the protocol and system model checks, memo
  # consistency through QueryService, the catalog drift pass with its
  # mutants, and bound soundness with its mutants. Then the example
  # workloads with more servers and other seeds.
  run cargo run --release --bin csqp-check -- --plans 1000
  run cargo run --release --bin csqp-check -- --plans 250 --servers 4 --seed 17
  run cargo run --release --bin csqp-check -- --plans 250 --servers 8 --seed 42
  # The session protocol model check one level deeper than the sweep's
  # default depth.
  run cargo run --release --bin csqp-check -- --protocol --depth 12
  # Composed system model check (N sessions over the shared
  # admission/worker model) with a hard wall-time budget; its state and
  # transition counts must equal BENCH_check.json's.
  run cargo run --release --bin csqp-check -- --system --sessions 3 --depth 10 --budget-secs 5
}

stage_serve_smoke() {
  run cargo run --release --bin csqp-load -- --serve --clients 8 --seconds 2 --fail-on-rejects
}

stage_bench() {
  # The pinned 1000-query seeded mix: every warm plan must be
  # byte-identical to its cold counterpart, and the warm/cold speedup
  # must reach a third of BENCH_optimizer.json's.
  run cargo run --release -p csqp-bench --bin csqp-bench
  # Simulator perf gate: the pinned pre-planned execution mix
  # (determinism-gated). Events/sec must reach a third of
  # BENCH_sim.json's; the event count and digest must equal it.
  run cargo run --release -p csqp-bench --bin csqp-bench -- --sim
}

stage_scale() {
  # Idle-session scale wall on the platform reactor (epoll on Linux): at
  # least 2,000 sessions, up to 100k as the descriptor budget allows.
  # With the idle fleet still parked, a pinned closed-loop load must
  # serve without errors and keep the epoll_ctl count within a budget
  # of its own query and session counts (the interest cache must make
  # re-registration free).
  run cargo test --release -p csqp-serve --test scale -- --ignored
}

stage_benchmark_smoke() {
  # csqp-benchmark builds against crates/* by path, so a change to an API
  # it imports breaks here first. The smoke runs all four workloads
  # against a real csqp-serve child and checks every reply. It is the
  # serving perf gate: each workload's throughput must reach a third of
  # the committed BENCH_smoke.jsonl's (BENCH_smoke.bounds.json). --out
  # appends, so the run file starts empty, and it must hold one run per
  # BENCHMARK.json workload, because compare skips a missing workload.
  local runs=target/bench/benchmark-smoke.jsonl
  mkdir -p target/bench
  rm -f "$runs"
  run cargo run --release --manifest-path csqp-benchmark/Cargo.toml -- --smoke --out "$runs"
  local want got
  want=$(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | grep -c '"name"')
  got=$(wc -l < "$runs")
  if [ "$got" -ne "$want" ]; then
    echo "$runs has $got runs; BENCHMARK.json declares $want workloads" >&2
    exit 1
  fi
  run cargo run --release --quiet --manifest-path csqp-benchmark/Cargo.toml -- compare BENCH_smoke.jsonl "$runs" --bounds BENCH_smoke.bounds.json
  run cargo test --release --manifest-path csqp-benchmark/Cargo.toml
}

stage_figures() {
  # EXPERIMENTS.md quotes results/ as the output of exactly this run; any
  # change that moves a simulated or optimized number must regenerate and
  # commit the series.
  local out
  out="$(mktemp -d)"
  echo "==> cargo run --release -p csqp-experiments -- --out $out all > /dev/null"
  cargo run --release -p csqp-experiments -- --out "$out" all > /dev/null
  run diff -r "$out" results
  rm -rf "$out"
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps
}

if [ "$#" -eq 0 ]; then
  set -- "${STAGES[@]}"
fi
for stage in "$@"; do
  if [[ " ${STAGES[*]} " != *" $stage "* ]]; then
    echo "unknown stage '$stage'; stages: ${STAGES[*]}" >&2
    exit 2
  fi
done
for stage in "$@"; do
  echo "=== stage $stage"
  "stage_${stage//-/_}"
done
echo "All checks passed: $*"
