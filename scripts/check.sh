#!/usr/bin/env bash
# Every CI gate, defined once. `bash scripts/check.sh` runs all stages in
# order; `bash scripts/check.sh STAGE...` runs the named ones. CI runs one
# stage per matrix job (.github/workflows/ci.yml), and tests/ci_stages.rs
# keeps its matrix list equal to STAGES. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(fmt clippy test check lint-and-model serve-smoke memo-bench bounds-check
  chaos-smoke pipeline-smoke catalog-chaos benchmark-smoke figures doc)

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
  # root package's (the workspace has no default-members).
  run cargo test --release --workspace -q
}

stage_check() {
  # Static analyzer: random plan sweep, optimizer traces, negative
  # fixtures; then the example workloads with more servers and other seeds.
  run cargo run --release --bin csqp-check -- --plans 1000
  run cargo run --release --bin csqp-check -- --plans 250 --servers 4 --seed 17
  run cargo run --release --bin csqp-check -- --plans 250 --servers 8 --seed 42
}

stage_lint_and_model() {
  # Source-level determinism lints: wall-clock, RNG, hash-order,
  # unbounded-channel, wire-code coverage, allowlist hygiene.
  run cargo run --release -p csqp-lint --bin csqp-lint
  # Fixture tests: every rule still trips on its minimal bad source.
  run cargo test --release -p csqp-lint
  # Bounded-exhaustive model check of the session protocol, at the
  # default depth and one deeper setting.
  run cargo run --release --bin csqp-check -- --protocol
  run cargo run --release --bin csqp-check -- --protocol --depth 12
  # Composed system model check (N sessions over the shared
  # admission/worker model) with a hard wall-time budget; its state and
  # transition counts must equal BENCH_check.json's.
  run cargo run --release --bin csqp-check -- --system --sessions 3 --depth 10 --budget-secs 5
  # Mutant suite: every protocol- and system-level property must still
  # catch its seeded bug with a minimal trace.
  run cargo test --release -p csqp-verify mutant
}

stage_serve_smoke() {
  run cargo run --release --bin csqp-load -- --serve --clients 8 --seconds 2 --fail-on-rejects
}

stage_memo_bench() {
  # The pinned 1000-query seeded mix: every warm plan must be
  # byte-identical to its cold counterpart, and the warm/cold speedup
  # must reach a third of BENCH_optimizer.json's.
  run cargo run --release -p csqp-bench --bin csqp-bench
  # Memo-consistency pass: populate a table through the real probe path,
  # replay every cell byte-identically, verify every entry (witness,
  # generation, Table-1 conformance), then prove a generation bump forces
  # recomputation.
  run cargo run --release --bin csqp-check -- --memo
  # Loopback acceptance smoke: memo-on and memo-off servers serve the same
  # seeded two-step mix with byte-identical digests, hits > 0.
  run cargo run --release --bin csqp-load -- --memo-smoke --clients 4
}

stage_bounds_check() {
  # Bound-soundness wall: actual <= bound on every operator edge across
  # the policy x objective optimizer sweep and seeded random plans, plus
  # the seeded mutants (dropped key, growing operator, unsound key
  # declaration, hostile width) each caught with their typed diagnostic.
  run cargo run --release --bin csqp-check -- --bounds
  # Bounds mutant tests in the analyzer crate itself.
  run cargo test --release -p csqp-verify bounds
  # Admission smoke: a budget-starved server must degrade HY/DS to QS
  # (never execute over budget) and serve digests identical to an honest
  # all-QS server, with the conservation identity intact.
  run cargo run --release --bin csqp-load -- --serve --mem-budget 300 --clients 2 --queries 6 --seed 42
  # Simulator perf gate: the pinned pre-planned execution mix
  # (determinism-gated). Events/sec must reach a third of
  # BENCH_sim.json's; the event count and digest must equal it.
  run cargo run --release -p csqp-bench --bin csqp-bench -- --sim
}

stage_chaos_smoke() {
  # Seeded fault-injection soak: each schedule runs twice and the reply
  # digests must reproduce.
  local seed
  for seed in 1 2 3 5 8 13 21 34; do
    run cargo run --release --bin csqp-load -- --serve --chaos "$seed" --schedules 2 --chaos-queries 10 --intensity 0.5
  done
}

stage_pipeline_smoke() {
  # Pipelined digest equality, then the chaos soak, on one server.
  run cargo run --release --bin csqp-load -- --serve --pipeline 8 --chaos 13 --clients 4 --queries 6 --schedules 2 --chaos-queries 10 --intensity 0.5
  # Reply-path faults: the server mangles RESULT frames from the same
  # seeded plan.
  run cargo run --release --bin csqp-load -- --serve --chaos 21 --reply-faults --schedules 2 --chaos-queries 10 --intensity 0.6
  # Idle-session scale wall on the platform reactor (epoll on Linux): at
  # least 2,000 sessions, up to 100k as the descriptor budget allows.
  run cargo test --release -p csqp-serve --test scale -- --ignored
  # Mixed idle+active reactor bench: parks 512 idle sessions, runs a
  # pinned closed-loop load, gates the epoll_ctl count (the interest
  # cache must make re-registration free), and QPS must reach a third of
  # BENCH_reactor.json's.
  run cargo run --release --bin csqp-load -- --serve --bench-reactor --clients 4 --queries 32 --seed 42
}

stage_catalog_chaos() {
  # Catalog-consistency pass: seeded drift schedule replayed twice
  # through the replication layer with identical digests, the honest
  # trace audited by the drift-conformance pass, an epoch bump forcing
  # memoized planning to recompute, and three seeded trace mutants each
  # caught with their typed diagnostic.
  run cargo run --release --bin csqp-check -- --catalog
  # Catalog-fault soaks: withheld/torn/reordered/poisoned epoch
  # propagation against two fresh inline servers per seed; the reply
  # digests must match and both drift traces must audit clean.
  local seed
  for seed in 7 13 21 34; do
    run cargo run --release --bin csqp-load -- --serve --chaos "$seed" --catalog-faults --schedules 2 --chaos-queries 12 --intensity 0.6
  done
  # Serve perf gate: pinned closed-loop run; QPS must reach a third of
  # BENCH_serve.json's.
  run cargo run --release --bin csqp-load -- --serve --bench-serve --clients 4 --queries 64 --seed 42
}

stage_benchmark_smoke() {
  # csqp-benchmark builds against crates/* by path, so a change to an API
  # it imports breaks here first. The smoke runs all four workloads
  # against a real csqp-serve child and checks every reply.
  run cargo run --release --manifest-path csqp-benchmark/Cargo.toml -- --smoke
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
