//! `csqp-lint` — source-level determinism lints for the workspace.
//!
//! The paper reproduction's core claim is that every number it prints
//! is a pure function of configuration and seed. The compiler cannot
//! enforce the conventions that keep that true, so this crate does,
//! with a handful of token-level rules over the stripped sources (see
//! [`scan::strip`]):
//!
//! * **wall-clock-use** — no `Instant::now` / `SystemTime::now` /
//!   `thread::sleep` outside the justified [`ALLOWLIST`]. Simulated
//!   time comes from the cost model; real time is reserved for the
//!   serving/bench edges where latency *is* the measurement.
//! * **unseeded-rng** — no `thread_rng` / `from_entropy` / `OsRng` /
//!   `rand::random` anywhere. All randomness flows through seeded
//!   `SimRng` streams.
//! * **hash-iter-order** — `HashMap` / `HashSet` may only appear in
//!   files with an allowlist entry explaining why their nondeterministic
//!   iteration order cannot leak into digests, metrics, or the wire.
//!   New code defaults to `BTreeMap` / `BTreeSet` / arrays.
//! * **unbounded-channel** — no unbounded `mpsc::channel()` (an
//!   admission path with no backpressure is how a serving stack falls
//!   over at load), and no lock guard held across a blocking I/O call
//!   (`.recv()`, frame reads/writes, `accept`) on the same expression —
//!   unless the file carries a justified allowlist entry.
//! * **wire-code-coverage** — every variant of a `pub enum ErrorCode`
//!   must appear in both its encode (`ErrorCode::V => "…"`) and decode
//!   (`"…" => ErrorCode::V`) tables in the defining file, and every
//!   `DiagCode` variant in its `as_str` table. A code that cannot be
//!   decoded or documented is a silent protocol hole.
//! * **raw-syscall** — no `extern` blocks (C-ABI syscall bindings)
//!   outside the justified allowlist. The workspace deliberately binds
//!   the handful of syscalls it needs (`poll`, `epoll_*`, rlimits)
//!   through one audited module, `csqp_net::poll`; an extern block
//!   anywhere else is either a duplicate shim or a new unsafe surface
//!   that belongs there instead.
//! * **numeric-truncation** — in the bound/cost arithmetic crates
//!   (`crates/verify`, `crates/cost`, `crates/catalog`), no bare
//!   narrowing `as` cast: a rounded float fed straight to `as`
//!   (`.round() as u64` and friends) or an integer cast to a narrower
//!   target (`as u32` / `as u16` / …). A silent NaN→garbage or
//!   wraparound here corrupts a guaranteed bound the admission gate
//!   then trusts. Route float conversions through
//!   `csqp_catalog::num::sat_u64` (documented saturating semantics) and
//!   integer narrowing through `try_from` / `u32::from`, or justify the
//!   site in the allowlist.
//! * **catalog-mutation** — no direct `Catalog` mutation (`.place(…)` /
//!   `.set_cached_fraction(…)`) outside the justified allowlist. The
//!   served catalog is derived per request from the placement seed, the
//!   spec and the declared cache, and the memo fingerprint covers
//!   exactly those inputs; a catalog mutated in place after that
//!   derivation would price plans on state no fingerprint names, so a
//!   memo hit could replay a plan for a different catalog.
//!   Construction-time call sites (tests, benches, workload generators,
//!   the per-request derivation itself) carry entries saying so.
//! * **dead-pub** — every `pub fn` in non-test source (`crates/*/src`,
//!   `src/`, `examples/`, `csqp-benchmark/src`, minus `#[cfg(test)]`
//!   items and `#![cfg(test)]` files) must be named somewhere else in
//!   non-test source; a `use` does not count. A public function that
//!   only tests call is API nobody runs. Entries naming the function
//!   and its reason (a test oracle, say) keep the few that stay on
//!   purpose (see [`dead_pub`]).
//!
//! Allowlist hygiene is itself checked: an entry that matches nothing,
//! or carries no justification, is reported as **stale-allow** so the
//! list cannot rot into a blanket waiver.
//!
//! Findings are ordinary [`csqp_core::diag::Diagnostic`]s collected in
//! a [`csqp_verify::Report`], with `path` set to `file:line`. The
//! `csqp-lint` binary (and the `workspace_is_lint_clean` test) runs
//! [`lint_workspace`] over every `.rs` file outside `target/`,
//! `vendor/`, and `tests/fixtures/`.

pub mod dead_pub;
pub mod scan;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use csqp_core::diag::{DiagCode, Diagnostic};
use csqp_verify::Report;

use dead_pub::{is_non_test_source, FileUse};
use scan::{find_token, has_token, is_ident, strip};

/// The rule dimensions an [`Allow`] entry can waive.
///
/// `wire-code-coverage` is deliberately absent: a wire code that cannot
/// be decoded is a bug with no justifiable variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleKind {
    /// `Instant::now` / `SystemTime::now` / `thread::sleep`.
    WallClock,
    /// `thread_rng` / `from_entropy` / `OsRng` / `rand::random`.
    UnseededRng,
    /// Any use of `HashMap` / `HashSet`.
    HashOrder,
    /// Unbounded `mpsc::channel()`, or a lock held across blocking I/O.
    UnboundedChannel,
    /// Direct `Catalog` mutation (`.place(…)` /
    /// `.set_cached_fraction(…)`) outside the coordinator/epoch API.
    CatalogMutation,
    /// A bare narrowing `as` cast in the bound/cost arithmetic crates.
    NumericTruncation,
    /// An `extern` block: a raw C-ABI syscall binding.
    ExternSyscall,
    /// The named `pub fn` has no caller in non-test source.
    DeadPub(&'static str),
}

impl RuleKind {
    /// The diagnostic code a violation of this rule carries.
    pub fn code(self) -> DiagCode {
        match self {
            RuleKind::WallClock => DiagCode::WallClockUse,
            RuleKind::UnseededRng => DiagCode::UnseededRng,
            RuleKind::HashOrder => DiagCode::HashIterOrder,
            RuleKind::UnboundedChannel => DiagCode::UnboundedChannel,
            RuleKind::CatalogMutation => DiagCode::CatalogMutation,
            RuleKind::NumericTruncation => DiagCode::NumericTruncation,
            RuleKind::ExternSyscall => DiagCode::RawSyscall,
            RuleKind::DeadPub(_) => DiagCode::DeadPub,
        }
    }

    /// The rule's kebab-case name, as printed in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::WallClock => "wall-clock-use",
            RuleKind::UnseededRng => "unseeded-rng",
            RuleKind::HashOrder => "hash-iter-order",
            RuleKind::UnboundedChannel => "unbounded-channel",
            RuleKind::CatalogMutation => "catalog-mutation",
            RuleKind::NumericTruncation => "numeric-truncation",
            RuleKind::ExternSyscall => "raw-syscall",
            RuleKind::DeadPub(_) => "dead-pub",
        }
    }
}

/// One justified exemption: `path` (workspace-relative, `/`-separated)
/// may violate `rule` because `why`. A `dead-pub` entry names the
/// function in its rule and `path` is the file defining it.
#[derive(Clone, Copy, Debug)]
pub struct Allow {
    /// Workspace-relative path of the exempted file.
    pub path: &'static str,
    /// The rule the file is exempt from.
    pub rule: RuleKind,
    /// The justification. Empty justifications are reported as
    /// `stale-allow`.
    pub why: &'static str,
}

/// The justified allowlist. Every entry names one file, one rule, and
/// the reason the rule does not apply there. `csqp-lint` reports any
/// entry that stops matching, so deleting the last wall-clock call in a
/// file forces the entry's deletion too.
pub const ALLOWLIST: &[Allow] = &[
    // ---- wall-clock-use: the edges where real time is the subject ----
    Allow {
        path: "crates/core/src/cancel.rs",
        rule: RuleKind::WallClock,
        why: "deadline home: tokens capture an absolute Instant once and every \
              other crate asks the token instead of the clock",
    },
    Allow {
        path: "crates/serve/src/engine.rs",
        rule: RuleKind::WallClock,
        why: "converts each request's relative deadline_ms to an absolute \
              Instant at admission and stamps enqueue time for latency metrics",
    },
    Allow {
        path: "crates/serve/src/server.rs",
        rule: RuleKind::WallClock,
        why: "workers measure real queue-wait and service latency; those \
              durations are the serving metrics, not simulated results",
    },
    Allow {
        path: "crates/serve/src/chaos.rs",
        rule: RuleKind::WallClock,
        why: "the chaos soak budgets fault pauses and reconnect timeouts in \
              real time against a live server",
    },
    Allow {
        path: "crates/serve/src/load.rs",
        rule: RuleKind::WallClock,
        why: "the load generator paces open-loop arrivals and measures \
              client-observed latency; wall time is the instrument",
    },
    Allow {
        path: "crates/net/src/chaos.rs",
        rule: RuleKind::WallClock,
        why: "fault plans inject real pauses (thread::sleep) to simulate \
              network stalls on live sockets; durations are seed-derived",
    },
    Allow {
        path: "crates/catalog/src/memory.rs",
        rule: RuleKind::WallClock,
        why: "test-only perf guard bounding catalog build time; a ceiling on \
              runtime, never an experiment result",
    },
    Allow {
        path: "crates/bench/src/bin/memo_bench.rs",
        rule: RuleKind::WallClock,
        why: "csqp-bench times cold-vs-warm planning throughput; wall time is \
              the measurement and plans are cross-checked for byte equality",
    },
    Allow {
        path: "crates/experiments/src/bin/main.rs",
        rule: RuleKind::WallClock,
        why: "progress reporting for long sweeps; timings are printed to \
              stderr and never enter result files",
    },
    Allow {
        path: "src/bin/check.rs",
        rule: RuleKind::WallClock,
        why: "reports model-checker wall time against its explicit <10s \
              exploration budget; timing never affects the verdict",
    },
    Allow {
        path: "src/bin/serve.rs",
        rule: RuleKind::WallClock,
        why: "metrics cadence and the --seconds shutdown timer of the live \
              server binary",
    },
    Allow {
        path: "src/bin/load.rs",
        rule: RuleKind::WallClock,
        why: "--bench-reactor parks an idle-session fleet and polls the live \
              server's session gauge until it settles before measuring; the \
              wait bounds setup and never enters a reported rate",
    },
    Allow {
        path: "crates/serve/tests/loopback.rs",
        rule: RuleKind::WallClock,
        why: "integration tests bound waits on a live loopback server",
    },
    Allow {
        path: "crates/serve/tests/pipeline.rs",
        rule: RuleKind::WallClock,
        why: "pipeline-window proptest stamps issue times on a live window",
    },
    Allow {
        path: "crates/serve/tests/scale.rs",
        rule: RuleKind::WallClock,
        why: "scale test paces a live server and bounds its total runtime",
    },
    // ---- raw-syscall: the one audited FFI surface ----------------------
    Allow {
        path: "crates/net/src/poll.rs",
        rule: RuleKind::ExternSyscall,
        why: "the workspace's single syscall-binding module: poll(2), \
              epoll(7), and rlimit shims declared against the already- \
              linked C library, wrapped in safe Reactor/Waker APIs and \
              exercised by the reactor contract test",
    },
    // ---- hash-iter-order: uses whose ordering provably cannot leak ----
    Allow {
        path: "crates/net/src/chaos.rs",
        rule: RuleKind::HashOrder,
        why: "test-only HashSet for dedup assertions; only membership and \
              cardinality are observed",
    },
    Allow {
        path: "crates/optimizer/src/dp.rs",
        rule: RuleKind::HashOrder,
        why: "memo table keyed by relation bitmask; lookups only, winners \
              chosen by deterministic cost comparison",
    },
    Allow {
        path: "crates/optimizer/src/random.rs",
        rule: RuleKind::HashOrder,
        why: "test-only HashSet counting distinct sampled shapes",
    },
    Allow {
        path: "crates/optimizer/src/search.rs",
        rule: RuleKind::HashOrder,
        why: "test-only HashMap compared per-key against expected results",
    },
    Allow {
        path: "crates/serve/src/engine.rs",
        rule: RuleKind::HashOrder,
        why: "shard session table keyed by connection id; poll readiness, not \
              map order, drives work, and replies go to per-session sockets",
    },
    // (crates/serve/src/server.rs once held a HashOrder entry for its
    // plan cache; the cache is now the csqp-memo table, which is
    // BTree-ordered by construction and needs no exemption.)
    Allow {
        path: "crates/serve/src/load.rs",
        rule: RuleKind::HashOrder,
        why: "per-client outstanding-query window keyed by query id; replies \
              re-associate by id and the digest folds order-independently",
    },
    // ---- unbounded-channel: bounds established elsewhere --------------
    Allow {
        path: "crates/serve/src/engine.rs",
        rule: RuleKind::UnboundedChannel,
        why: "registration and completion channels are bounded by \
              construction: registrations by the accept loop's session cap, \
              completions by queue_depth plus the per-session windows the \
              system model checker explores",
    },
    Allow {
        path: "crates/serve/src/server.rs",
        rule: RuleKind::UnboundedChannel,
        why: "a worker holds the shared receiver lock only while parked in \
              recv() with no other state held; query processing runs after \
              the guard drops, so the park cannot stall another worker's \
              processing",
    },
    // ---- catalog-mutation: construction-time call sites ---------------
    Allow {
        path: "crates/catalog/src/placement.rs",
        rule: RuleKind::CatalogMutation,
        why: "defines Catalog::place / set_cached_fraction and the seeded \
              placement generators; the primitive's home",
    },
    Allow {
        path: "crates/core/src/bind.rs",
        rule: RuleKind::CatalogMutation,
        why: "test-only catalogs built to bind plans against",
    },
    Allow {
        path: "crates/cost/src/model.rs",
        rule: RuleKind::CatalogMutation,
        why: "doc examples and tests construct catalogs before costing; \
              nothing is served from them",
    },
    Allow {
        path: "crates/cost/tests/cost_properties.rs",
        rule: RuleKind::CatalogMutation,
        why: "property tests build a fresh seeded catalog per case",
    },
    Allow {
        path: "crates/engine/src/build.rs",
        rule: RuleKind::CatalogMutation,
        why: "test catalogs for materializing page layouts",
    },
    Allow {
        path: "crates/engine/src/layout.rs",
        rule: RuleKind::CatalogMutation,
        why: "test catalogs for extent-map construction",
    },
    Allow {
        path: "crates/bench/src/bin/memo_bench.rs",
        rule: RuleKind::CatalogMutation,
        why: "the bench builds its seeded placement once at startup, before \
              any planning it measures",
    },
    Allow {
        path: "crates/experiments/src/ext_multiquery.rs",
        rule: RuleKind::CatalogMutation,
        why: "experiment driver builds scenario placements before the sweep; \
              single-threaded, never served",
    },
    Allow {
        path: "crates/experiments/src/ext_navigation.rs",
        rule: RuleKind::CatalogMutation,
        why: "experiment driver adjusts cached fractions between sweep \
              points; single-threaded, never served",
    },
    Allow {
        path: "crates/optimizer/src/cost_wall.rs",
        rule: RuleKind::CatalogMutation,
        why: "test-only wall builds one fixture catalog per grid cell",
    },
    Allow {
        path: "crates/optimizer/src/exhaustive.rs",
        rule: RuleKind::CatalogMutation,
        why: "test catalogs for cross-checking planners",
    },
    Allow {
        path: "crates/optimizer/src/search.rs",
        rule: RuleKind::CatalogMutation,
        why: "doc examples and tests construct catalogs to plan against",
    },
    Allow {
        path: "crates/optimizer/src/twostep.rs",
        rule: RuleKind::CatalogMutation,
        why: "doc examples and tests construct catalogs; the runtime step \
              only reads cached fractions",
    },
    Allow {
        path: "crates/optimizer/tests/alloc_budget.rs",
        rule: RuleKind::CatalogMutation,
        why: "allocation-budget tests build one seeded catalog per topology \
              before counting",
    },
    Allow {
        path: "crates/optimizer/tests/memo_identity.rs",
        rule: RuleKind::CatalogMutation,
        why: "memo identity tests mutate a catalog precisely to prove a \
              generation bump forces recomputation",
    },
    Allow {
        path: "crates/optimizer/tests/move_properties.rs",
        rule: RuleKind::CatalogMutation,
        why: "property tests build a fresh seeded catalog per case",
    },
    Allow {
        path: "crates/serve/src/server.rs",
        rule: RuleKind::CatalogMutation,
        why: "derives each request's catalog from the placement seed, the \
              spec and the declared cache on a fresh copy; runtime drift \
              moves epoch numbers only, never a catalog",
    },
    Allow {
        path: "crates/serve/tests/loopback.rs",
        rule: RuleKind::CatalogMutation,
        why: "integration-test fixture catalogs",
    },
    Allow {
        path: "crates/verify/src/invariants.rs",
        rule: RuleKind::CatalogMutation,
        why: "the cost-invariant checker builds grown catalog copies to test \
              monotonicity; doc examples build fixtures",
    },
    Allow {
        path: "crates/verify/src/lib.rs",
        rule: RuleKind::CatalogMutation,
        why: "doc examples and tests construct catalogs for the checker",
    },
    Allow {
        path: "crates/workload/src/lib.rs",
        rule: RuleKind::CatalogMutation,
        why: "the seeded placement generators: catalogs are their output, \
              produced before anything serves",
    },
    Allow {
        path: "src/bin/check.rs",
        rule: RuleKind::CatalogMutation,
        why: "the memo-consistency stage builds one fixture catalog per \
              cell to site-select against; nothing is served from them",
    },
    Allow {
        path: "examples/multi_query.rs",
        rule: RuleKind::CatalogMutation,
        why: "example sets cached fractions while building its scenario",
    },
    Allow {
        path: "examples/navigation.rs",
        rule: RuleKind::CatalogMutation,
        why: "example sets the cached fraction its sweep varies",
    },
    Allow {
        path: "tests/engine_cost_consistency.rs",
        rule: RuleKind::CatalogMutation,
        why: "integration test builds fixture placements per case",
    },
    Allow {
        path: "tests/future_work.rs",
        rule: RuleKind::CatalogMutation,
        why: "integration tests sweep cached fractions across scenarios",
    },
    Allow {
        path: "tests/policy_claims.rs",
        rule: RuleKind::CatalogMutation,
        why: "integration tests build the placements the paper's claims are \
              checked against",
    },
    // ---- dead-pub: public functions only tests call, on purpose -------
    // Each reason starts with its kind: a "test oracle" is a slower exact
    // answer tests judge the production path against; a "test probe"
    // exposes private state to a test in another crate; an
    // "integration-test helper" serves a tests/ file and must live where
    // it is.
    Allow {
        path: "crates/optimizer/src/exhaustive.rs",
        rule: RuleKind::DeadPub("exhaustive_optimum"),
        why: "test oracle: exhaustive enumeration the randomized two-phase \
              search is checked against on small queries",
    },
    Allow {
        path: "crates/optimizer/src/dp.rs",
        rule: RuleKind::DeadPub("dp_join_order"),
        why: "test oracle: System-R DP join order the randomized 2-step \
              compile is held within a factor of on HiSel 10-way",
    },
    Allow {
        path: "crates/cost/src/model.rs",
        rule: RuleKind::DeadPub("memoized_sizes"),
        why: "test probe: the optimizer's cost wall checks every memoized \
              size bit for bit against a direct Estimator read",
    },
    Allow {
        path: "crates/cost/src/model.rs",
        rule: RuleKind::DeadPub("memoized_hash_plans"),
        why: "test probe: the optimizer's cost wall checks every memoized \
              hash layout against a direct hybrid_hash_plan call",
    },
    Allow {
        path: "crates/net/src/poll.rs",
        rule: RuleKind::DeadPub("raise_nofile_limit"),
        why: "integration-test helper that must stay in the audited syscall \
              module: the serve scale test needs RLIMIT_NOFILE raised, and \
              extern bindings live only in csqp_net::poll",
    },
];

const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now", "thread::sleep"];
const RNG_PATTERNS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "rand::random"];
const HASH_PATTERNS: &[&str] = &["HashMap", "HashSet"];
/// The unbounded constructor. `mpsc::sync_channel` (bounded) does not
/// contain this as a substring, so it never trips.
const UNBOUNDED_CHANNEL_PATTERNS: &[&str] = &["mpsc::channel"];
/// Blocking calls that must not run under a held lock (same-expression
/// heuristic: `lock` and one of these on one line). A worker parked in
/// `recv()` while holding a shared mutex serializes the whole pool.
const BLOCKING_CALL_PATTERNS: &[&str] = &[
    "recv",
    "recv_timeout",
    "read_frame",
    "write_frame",
    "accept",
];
/// Method-call spellings of the raw catalog mutators. Matched as plain
/// substrings (the leading `.` rules out the `fn` definitions and any
/// free functions of the same name); the definitions live in
/// `crates/catalog/src/placement.rs`, which carries its own entry.
const CATALOG_MUTATION_PATTERNS: &[&str] = &[".place(", ".set_cached_fraction("];
/// The crates whose arithmetic feeds guaranteed bounds and costs; only
/// files under these prefixes are subject to `numeric-truncation`.
const TRUNCATION_SCOPE: &[&str] = &["crates/verify/", "crates/cost/", "crates/catalog/"];
/// A rounded float fed straight to `as`: the spelling that silently
/// maps NaN to 0 and relies on implicit saturation at every call site.
/// Matched as plain substrings (the leading `.` needs no token
/// boundary).
const TRUNCATION_FLOAT_PATTERNS: &[&str] = &[".round() as", ".floor() as", ".ceil() as"];
/// Integer casts to a narrower target; widening spellings (`as u64`,
/// `as f64`, `as usize`) are deliberately absent.
const TRUNCATION_INT_PATTERNS: &[&str] =
    &["as u32", "as u16", "as u8", "as i32", "as i16", "as i8"];
/// The raw-syscall pattern: any `extern` block or declaration. After
/// [`scan::strip`] the ABI string's contents are blanked but the
/// keyword survives, so the token is enough.
const EXTERN_SYSCALL_PATTERNS: &[&str] = &["extern"];

struct AllowState {
    allow: Allow,
    hit: bool,
}

/// The lint driver: holds the allowlist and its hit-tracking across a
/// run, so [`Linter::finish`] can report entries that matched nothing.
pub struct Linter {
    allows: Vec<AllowState>,
    /// What each non-test file defines and calls, for `dead-pub`.
    uses: Vec<(String, FileUse)>,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new()
    }
}

impl Linter {
    /// A linter armed with the built-in [`ALLOWLIST`].
    pub fn new() -> Linter {
        Linter::with_allows(ALLOWLIST)
    }

    /// A linter with a custom allowlist (used by the stale-allow tests).
    pub fn with_allows(allows: &[Allow]) -> Linter {
        Linter {
            allows: allows
                .iter()
                .map(|&allow| AllowState { allow, hit: false })
                .collect(),
            uses: Vec::new(),
        }
    }

    /// True when `rel` is exempt from `rule`; marks the entry as used.
    fn allowed(&mut self, rel: &str, rule: RuleKind) -> bool {
        let mut any = false;
        for st in &mut self.allows {
            if st.allow.rule == rule && st.allow.path == rel {
                st.hit = true;
                any = true;
            }
        }
        any
    }

    /// Lint one source file. `rel` is the workspace-relative path
    /// (`/`-separated) used for allowlist matching and diagnostics.
    pub fn lint_source(&mut self, rel: &str, source: &str) -> Vec<Diagnostic> {
        let stripped = strip(source);
        let mut out = Vec::new();
        for (idx, line) in stripped.lines().enumerate() {
            let lineno = idx + 1;
            for &pat in WALL_CLOCK_PATTERNS {
                if has_token(line, pat) && !self.allowed(rel, RuleKind::WallClock) {
                    out.push(at(
                        DiagCode::WallClockUse,
                        rel,
                        lineno,
                        format!("wall-clock call `{pat}` outside the justified allowlist"),
                    ));
                }
            }
            for &pat in RNG_PATTERNS {
                if has_token(line, pat) && !self.allowed(rel, RuleKind::UnseededRng) {
                    out.push(at(
                        DiagCode::UnseededRng,
                        rel,
                        lineno,
                        format!("unseeded randomness `{pat}`; derive a SimRng stream instead"),
                    ));
                }
            }
            for &pat in HASH_PATTERNS {
                if has_token(line, pat) && !self.allowed(rel, RuleKind::HashOrder) {
                    out.push(at(
                        DiagCode::HashIterOrder,
                        rel,
                        lineno,
                        format!(
                            "`{pat}` without a hash-iter-order allowlist entry; \
                             use a BTree collection or justify the ordering"
                        ),
                    ));
                }
            }
            for &pat in UNBOUNDED_CHANNEL_PATTERNS {
                if has_token(line, pat) && !self.allowed(rel, RuleKind::UnboundedChannel) {
                    out.push(at(
                        DiagCode::UnboundedChannel,
                        rel,
                        lineno,
                        format!(
                            "unbounded `{pat}()` gives the producer no backpressure; \
                             use `mpsc::sync_channel` or justify the bound elsewhere"
                        ),
                    ));
                }
            }
            for &pat in EXTERN_SYSCALL_PATTERNS {
                if has_token(line, pat) && !self.allowed(rel, RuleKind::ExternSyscall) {
                    out.push(at(
                        DiagCode::RawSyscall,
                        rel,
                        lineno,
                        format!(
                            "`{pat}` binding outside the audited syscall module; \
                             add the shim to csqp_net::poll or justify the site"
                        ),
                    ));
                }
            }
            for &pat in CATALOG_MUTATION_PATTERNS {
                if line.contains(pat) && !self.allowed(rel, RuleKind::CatalogMutation) {
                    out.push(at(
                        DiagCode::CatalogMutation,
                        rel,
                        lineno,
                        format!(
                            "direct catalog mutation `{pat}…)` outside catalog \
                             construction; the served catalog derives from the \
                             placement seed, spec and declared cache the memo \
                             fingerprint covers, and a later mutation prices \
                             plans on state no fingerprint names — derive the \
                             catalog from those inputs or justify the \
                             construction-time call site"
                        ),
                    ));
                }
            }
            if TRUNCATION_SCOPE.iter().any(|&s| rel.starts_with(s)) {
                for &pat in TRUNCATION_FLOAT_PATTERNS {
                    if line.contains(pat) && !self.allowed(rel, RuleKind::NumericTruncation) {
                        out.push(at(
                            DiagCode::NumericTruncation,
                            rel,
                            lineno,
                            format!(
                                "bare `{pat} …` cast in bound/cost arithmetic maps NaN \
                                 to 0 silently; convert through csqp_catalog::sat_u64 \
                                 or justify the site"
                            ),
                        ));
                    }
                }
                for &pat in TRUNCATION_INT_PATTERNS {
                    if has_token(line, pat) && !self.allowed(rel, RuleKind::NumericTruncation) {
                        out.push(at(
                            DiagCode::NumericTruncation,
                            rel,
                            lineno,
                            format!(
                                "bare narrowing `{pat}` cast in bound/cost arithmetic \
                                 wraps silently; use try_from/From or justify the site"
                            ),
                        ));
                    }
                }
            }
            if has_token(line, "lock")
                && BLOCKING_CALL_PATTERNS
                    .iter()
                    .any(|&pat| has_token(line, pat))
                && !self.allowed(rel, RuleKind::UnboundedChannel)
            {
                out.push(at(
                    DiagCode::UnboundedChannel,
                    rel,
                    lineno,
                    "lock held across a blocking call stalls every other holder; \
                     drop the guard first or justify why the wait is the point"
                        .to_string(),
                ));
            }
        }
        out.extend(wire_coverage(rel, &stripped));
        if is_non_test_source(rel) {
            if let Some(uses) = dead_pub::scan(&stripped) {
                self.uses.push((rel.to_string(), uses));
            }
        }
        out
    }

    /// The `dead-pub` findings over every file linted so far: `pub fn`s
    /// whose names no non-test code mentions.
    fn dead_pubs(&mut self) -> Vec<Diagnostic> {
        let uses = std::mem::take(&mut self.uses);
        let called: BTreeSet<&str> = uses
            .iter()
            .flat_map(|(_, u)| u.mentions.iter().map(String::as_str))
            .collect();
        let mut out = Vec::new();
        for (rel, u) in &uses {
            for (line, name) in &u.defs {
                if called.contains(name.as_str()) {
                    continue;
                }
                let exempt = self.allows.iter_mut().any(|st| {
                    let hit = st.allow.path == rel.as_str()
                        && matches!(st.allow.rule, RuleKind::DeadPub(f) if f == name);
                    st.hit |= hit;
                    hit
                });
                if !exempt {
                    out.push(at(
                        DiagCode::DeadPub,
                        rel,
                        *line,
                        format!(
                            "`pub fn {name}` has no caller outside tests; delete it, \
                             narrow it to the tests that use it, or justify it"
                        ),
                    ));
                }
            }
        }
        out
    }

    /// Report `dead-pub` findings, then allowlist entries that never
    /// matched or carry no justification. Call once, after every file
    /// has been linted.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        let mut out = self.dead_pubs();
        for st in self.allows {
            let rule = match st.allow.rule {
                RuleKind::DeadPub(name) => format!("dead-pub` for `{name}"),
                rule => rule.name().to_string(),
            };
            if st.allow.why.trim().is_empty() {
                let mut d = Diagnostic::new(
                    DiagCode::StaleAllow,
                    format!("allowlist entry for rule `{rule}` has no justification"),
                );
                d.path = Some(st.allow.path.to_string());
                out.push(d);
            }
            if !st.hit {
                let mut d = Diagnostic::new(
                    DiagCode::StaleAllow,
                    format!("allowlist entry for rule `{rule}` matched nothing; delete it"),
                );
                d.path = Some(st.allow.path.to_string());
                out.push(d);
            }
        }
        out
    }
}

/// Build a diagnostic anchored at `rel:lineno`.
fn at(code: DiagCode, rel: &str, lineno: usize, detail: String) -> Diagnostic {
    let mut d = Diagnostic::new(code, detail);
    d.path = Some(format!("{rel}:{lineno}"));
    d
}

/// The wire-code-coverage rule: in any file defining `enum ErrorCode`
/// or `enum DiagCode`, every variant must appear in the encode table
/// (`Enum::V => "…"`), and `ErrorCode` variants also in the decode
/// table (`"…" => Enum::V`).
fn wire_coverage(rel: &str, stripped: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (enum_name, needs_decode) in [("ErrorCode", true), ("DiagCode", false)] {
        let Some((def_line, variants)) = enum_variants(stripped, enum_name) else {
            continue;
        };
        for v in variants {
            let qualified = format!("{enum_name}::{v}");
            let mut encoded = false;
            let mut decoded = false;
            for line in stripped.lines() {
                let Some(pos) = find_token(line, &qualified) else {
                    continue;
                };
                if line[pos + qualified.len()..].contains("=>") {
                    encoded = true;
                }
                if line[..pos].contains("=>") {
                    decoded = true;
                }
            }
            if !encoded {
                out.push(at(
                    DiagCode::WireCodeCoverage,
                    rel,
                    def_line,
                    format!(
                        "{qualified} has no encode arm (`{qualified} => …`) in its defining file"
                    ),
                ));
            }
            if needs_decode && !decoded {
                out.push(at(
                    DiagCode::WireCodeCoverage,
                    rel,
                    def_line,
                    format!(
                        "{qualified} has no decode arm (`… => {qualified}`) in its defining file"
                    ),
                ));
            }
        }
    }
    out
}

/// Find `enum name { … }` in stripped source; return its 1-based
/// definition line and the unit-variant identifiers in the body.
fn enum_variants(stripped: &str, name: &str) -> Option<(usize, Vec<String>)> {
    let pat = format!("enum {name}");
    let pos = find_token(stripped, &pat)?;
    let def_line = stripped[..pos].matches('\n').count() + 1;
    let open = pos + stripped[pos..].find('{')?;
    let mut depth = 0usize;
    let mut end = open;
    for (off, c) in stripped[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + off;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &stripped[open + 1..end];
    let mut variants = Vec::new();
    for chunk in body.split(',') {
        let t = chunk.trim();
        // Take the leading identifier; skip attributes and blanks.
        let ident: String = t.chars().take_while(|&c| is_ident(c)).collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(ident);
        }
    }
    Some((def_line, variants))
}

/// Statistics and findings of a whole-workspace run.
#[derive(Debug)]
pub struct LintRun {
    /// Every finding, including stale-allow hygiene findings.
    pub report: Report,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lint every `.rs` file under `root`, excluding `target/`, `vendor/`,
/// `.git/`, and `tests/fixtures/` trees (fixtures are intentionally
/// dirty). Files are visited in sorted order so the report itself is
/// deterministic.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut linter = Linter::new();
    let mut report = Report::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        report.extend(linter.lint_source(&rel.replace('\\', "/"), &source));
    }
    report.extend(linter.finish());
    Ok(LintRun {
        report,
        files_scanned: files.len(),
    })
}

/// Directory names whose subtrees are never linted.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|&s| name == s) {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn allowlist_entries_all_carry_justifications() {
        for a in ALLOWLIST {
            assert!(
                !a.why.trim().is_empty(),
                "{} ({:?}) has an empty justification",
                a.path,
                a.rule
            );
        }
    }

    #[test]
    fn clean_source_yields_no_diagnostics() {
        let mut l = Linter::with_allows(&[]);
        let src = "use std::collections::BTreeMap;\npub fn f() -> u32 { 7 }\n";
        assert!(l.lint_source("x.rs", src).is_empty());
        assert!(l.finish().is_empty());
    }

    #[test]
    fn allowlisted_file_is_suppressed_and_entry_counts_as_used() {
        let allows = [Allow {
            path: "a.rs",
            rule: RuleKind::WallClock,
            why: "test",
        }];
        let mut l = Linter::with_allows(&allows);
        let src = "let t = Instant::now();";
        assert!(l.lint_source("a.rs", src).is_empty());
        assert!(
            !l.lint_source("b.rs", src).is_empty(),
            "other files still trip"
        );
        assert!(
            l.finish().is_empty(),
            "the entry was used, so no stale-allow"
        );
    }

    #[test]
    fn unused_or_bare_allows_are_stale() {
        let allows = [
            Allow {
                path: "never.rs",
                rule: RuleKind::HashOrder,
                why: "justified but unused",
            },
            Allow {
                path: "bare.rs",
                rule: RuleKind::WallClock,
                why: "  ",
            },
        ];
        let mut l = Linter::with_allows(&allows);
        assert!(l.lint_source("bare.rs", "Instant::now()").is_empty());
        let stale = l.finish();
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert!(stale.iter().all(|d| d.code == DiagCode::StaleAllow));
    }

    #[test]
    fn extern_blocks_trip_raw_syscall_unless_allowlisted() {
        let mut l = Linter::with_allows(&[]);
        let src = "unsafe extern \"C\" {\n    fn close(fd: i32) -> i32;\n}\n";
        let ds = l.lint_source("shim.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, DiagCode::RawSyscall);

        let allows = [Allow {
            path: "crates/net/src/poll.rs",
            rule: RuleKind::ExternSyscall,
            why: "the audited module",
        }];
        let mut l = Linter::with_allows(&allows);
        assert!(l.lint_source("crates/net/src/poll.rs", src).is_empty());
        assert!(l.finish().is_empty());
    }

    #[test]
    fn wire_coverage_finds_missing_decode_arm() {
        let src = "\
pub enum ErrorCode {
    Known,
    Forgotten,
}
impl ErrorCode {
    fn as_str(&self) -> &str {
        match self {
            ErrorCode::Known => \"known\",
            ErrorCode::Forgotten => \"forgotten\",
        }
    }
    fn parse(s: &str) -> Option<ErrorCode> {
        match s {
            \"known\" => Some(ErrorCode::Known),
            _ => None,
        }
    }
}
";
        let mut l = Linter::with_allows(&[]);
        let ds = l.lint_source("wire.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, DiagCode::WireCodeCoverage);
        assert!(ds[0].detail.contains("Forgotten"));
        assert!(ds[0].detail.contains("decode"));
    }

    #[test]
    fn numeric_truncation_flags_only_the_bound_cost_crates() {
        let src = "let p = (t as f64 / per).ceil() as u64;\nlet n = len as u32;\n";
        let mut l = Linter::with_allows(&[]);
        let ds = l.lint_source("crates/cost/src/x.rs", src);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.code == DiagCode::NumericTruncation));
        assert!(
            l.lint_source("crates/serve/src/x.rs", src).is_empty(),
            "the rule is scoped to the arithmetic crates"
        );
    }

    #[test]
    fn numeric_truncation_spares_helpers_and_honors_allows() {
        let mut l = Linter::with_allows(&[]);
        let clean = "let p = sat_u64(x.ceil());\nlet w = u64::from(n);\nlet f = t as f64;\n";
        assert!(l.lint_source("crates/catalog/src/y.rs", clean).is_empty());

        let allows = [Allow {
            path: "crates/verify/src/z.rs",
            rule: RuleKind::NumericTruncation,
            why: "test",
        }];
        let mut l = Linter::with_allows(&allows);
        assert!(l
            .lint_source("crates/verify/src/z.rs", "let n = x.round() as u64;")
            .is_empty());
        assert!(l.finish().is_empty());
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let mut l = Linter::with_allows(&[]);
        let src = "// Instant::now\nlet s = \"HashMap thread_rng\";\n/* OsRng */\n";
        assert!(l.lint_source("doc.rs", src).is_empty());
    }
}
