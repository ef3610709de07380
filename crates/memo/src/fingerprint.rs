//! Structural fingerprints for memo groups and entries.
//!
//! A fingerprint is a 128-bit hash of a *typed byte preimage* — never of a
//! formatted string. The preimage encodes the workload spec parameters, the
//! compiled plan's postorder structure, the policy/objective pair, the
//! quantized client-cache state, and the placement environment, each value
//! prefixed with a type tag so that distinct field sequences can never
//! serialize to the same bytes. The preimage itself is retained as a
//! *witness*: a probe only hits when the stored witness bytes compare equal,
//! so a 128-bit collision is counted and treated as a miss rather than ever
//! serving a foreign plan.

use csqp_core::{Annotation, LogicalOp, Plan, Policy};
use csqp_cost::Objective;
use csqp_workload::WorkloadSpec;

/// 64-bit FNV-1a over `bytes` starting from `basis`.
#[inline]
fn fnv1a_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Standard 64-bit FNV-1a over `bytes`: the workspace's one deterministic
/// byte mixer. Memo fingerprints, serving seeds (re-exported as
/// `csqp_serve::server::fnv1a`) and reply digests all hash with it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS_A, bytes)
}

/// Standard FNV-1a 64 offset basis.
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent stream basis (the standard basis re-mixed), giving
/// the fingerprint its 128 bits.
const FNV_BASIS_B: u64 = 0x9ae1_6a3b_2f90_404f;

/// A 128-bit structural fingerprint (two independent FNV-1a streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u64; 2]);

impl Fingerprint {
    /// Hash a preimage.
    pub fn of(preimage: &Preimage) -> Fingerprint {
        let bytes = preimage.bytes();
        Fingerprint([fnv1a(bytes), fnv1a_from(FNV_BASIS_B, bytes)])
    }

    /// Derive a deterministic RNG seed from this fingerprint and a
    /// purpose-distinguishing salt. Both the memoized and the cold
    /// optimization paths seed their annealing streams from this, which is
    /// what makes a memo hit byte-identical to a cold run.
    #[inline]
    pub fn seed(self, salt: u64) -> u64 {
        (self.0[0].rotate_left(17) ^ self.0[1]).wrapping_add(salt)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Type tags prefixed to every preimage field. Tags make the encoding
/// prefix-free per field kind: `push_u32(1), push_u32(2)` and
/// `push_u64(...)` can never produce identical byte runs.
mod tag {
    pub const U8: u8 = 0x01;
    pub const U32: u8 = 0x02;
    pub const U64: u8 = 0x03;
    pub const F64: u8 = 0x04;
    pub const SLICE: u8 = 0x05;
    pub const SECTION: u8 = 0x06;
}

/// A typed byte preimage under construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Preimage {
    bytes: Vec<u8>,
}

impl Preimage {
    /// Start an empty preimage.
    pub fn new() -> Preimage {
        Preimage::default()
    }

    /// Rebuild a preimage from witness bytes exported by the table — the
    /// verify pass re-derives fingerprints from stored witnesses with this.
    pub fn from_raw(bytes: &[u8]) -> Preimage {
        Preimage {
            bytes: bytes.to_vec(),
        }
    }

    /// The accumulated bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Open a named section (a domain separator between field groups).
    pub fn section(&mut self, name: &str) {
        self.bytes.push(tag::SECTION);
        self.push_raw_len(name.len());
        self.bytes.extend_from_slice(name.as_bytes());
    }

    /// Append a tagged byte.
    pub fn push_u8(&mut self, v: u8) {
        self.bytes.push(tag::U8);
        self.bytes.push(v);
    }

    /// Append a tagged 32-bit value.
    pub fn push_u32(&mut self, v: u32) {
        self.bytes.push(tag::U32);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a tagged 64-bit value.
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.push(tag::U64);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a float by its exact bit pattern (no formatting, no rounding).
    pub fn push_f64(&mut self, v: f64) {
        self.bytes.push(tag::F64);
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed byte slice.
    pub fn push_slice(&mut self, v: &[u8]) {
        self.bytes.push(tag::SLICE);
        self.push_raw_len(v.len());
        self.bytes.extend_from_slice(v);
    }

    fn push_raw_len(&mut self, len: usize) {
        self.bytes.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Encode a workload spec by its typed parameters.
    pub fn push_spec(&mut self, spec: &WorkloadSpec) {
        self.section("spec");
        match *spec {
            WorkloadSpec::Chain { n, selectivity } => {
                self.push_u8(0);
                self.push_u32(n);
                self.push_f64(selectivity);
            }
            WorkloadSpec::Star { n, selectivity } => {
                self.push_u8(1);
                self.push_u32(n);
                self.push_f64(selectivity);
            }
            WorkloadSpec::Spj {
                n,
                join_sel,
                selection,
                every_k,
            } => {
                self.push_u8(2);
                self.push_u32(n);
                self.push_f64(join_sel);
                self.push_f64(selection);
                self.push_u32(every_k);
            }
        }
    }

    /// Encode a plan structurally: reachable nodes in postorder, ids
    /// remapped to postorder positions. Unreachable arena garbage left by
    /// optimizer tree surgery does not perturb the fingerprint, and two
    /// plans encode identically iff they are structurally identical after
    /// [`Plan::compact`].
    pub fn push_plan(&mut self, plan: &Plan) {
        self.section("plan");
        let order = plan.postorder();
        let mut remap = vec![u32::MAX; plan.arena_len()];
        for (pos, id) in order.iter().enumerate() {
            remap[id.index()] = pos as u32;
        }
        self.push_u32(order.len() as u32);
        for id in &order {
            let n = plan.node(*id);
            match n.op {
                LogicalOp::Display => self.push_u8(0),
                LogicalOp::Join => self.push_u8(1),
                LogicalOp::Select { rel } => {
                    self.push_u8(2);
                    self.push_u32(rel.0);
                }
                LogicalOp::Aggregate { groups } => {
                    self.push_u8(3);
                    self.push_u64(groups);
                }
                LogicalOp::Scan { rel } => {
                    self.push_u8(4);
                    self.push_u32(rel.0);
                }
            }
            self.push_u8(annotation_tag(n.ann));
            for c in n.children {
                match c {
                    Some(cid) => self.push_u32(remap[cid.index()]),
                    None => self.push_u32(u32::MAX),
                }
            }
        }
    }

    /// Encode the placement environment.
    pub fn push_env(&mut self, env: &Env) {
        self.section("env");
        self.push_u64(env.placement_seed);
        self.push_u32(env.num_servers);
    }

    /// Encode the quantized per-relation cache levels.
    pub fn push_buckets(&mut self, buckets: &CacheBuckets) {
        self.section("cache");
        self.push_slice(buckets.levels());
    }
}

/// Stable index of a policy (position in [`Policy::ALL`]).
pub fn policy_tag(policy: Policy) -> u8 {
    match policy {
        Policy::DataShipping => 0,
        Policy::QueryShipping => 1,
        Policy::HybridShipping => 2,
    }
}

/// Stable index of an objective.
pub fn objective_tag(objective: Objective) -> u8 {
    match objective {
        Objective::Communication => 0,
        Objective::ResponseTime => 1,
        Objective::TotalCost => 2,
    }
}

/// Stable index of an annotation (position in [`Annotation::ALL`]).
fn annotation_tag(ann: Annotation) -> u8 {
    match ann {
        Annotation::Client => 0,
        Annotation::Consumer => 1,
        Annotation::Producer => 2,
        Annotation::InnerRel => 3,
        Annotation::OuterRel => 4,
        Annotation::PrimaryCopy => 5,
    }
}

/// The placement environment a server materializes queries under. Two
/// servers with different placements must never share memo entries, so the
/// environment is part of every group fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Env {
    /// The server's placement seed (`ServerConfig::placement_seed`).
    pub placement_seed: u64,
    /// Number of server sites in the simulated topology.
    pub num_servers: u32,
}

/// Number of quantization steps for a client-cache fraction: fractions are
/// rounded to multiples of `1/CACHE_QUANT_STEPS`, giving
/// `CACHE_QUANT_STEPS + 1` buckets (0 ..= 8). The load generator's declared
/// fractions (0, 0.25, 0.5) are all exactly representable, so quantization
/// is lossless for the seeded mixes while still bounding the key space for
/// arbitrary clients.
pub const CACHE_QUANT_STEPS: u8 = 8;

/// Quantize a declared cache fraction to its bucket index.
pub fn quantize_fraction(f: f64) -> u8 {
    let clamped = f.clamp(0.0, 1.0);
    (clamped * f64::from(CACHE_QUANT_STEPS)).round() as u8
}

/// The representative fraction a bucket plans with.
pub fn bucket_fraction(bucket: u8) -> f64 {
    f64::from(bucket.min(CACHE_QUANT_STEPS)) / f64::from(CACHE_QUANT_STEPS)
}

/// Quantized per-relation client-cache levels, in relation-id order. This
/// is the "quantized client-cache-state" axis of a memo winner key.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheBuckets {
    levels: Vec<u8>,
}

impl CacheBuckets {
    /// Quantize declared fractions, one per relation in relation-id order.
    /// Trailing zero levels are trimmed so "nothing cached" encodes
    /// identically regardless of relation count.
    pub fn quantize(fractions: &[f64]) -> CacheBuckets {
        let mut levels: Vec<u8> = fractions.iter().map(|&f| quantize_fraction(f)).collect();
        while levels.last() == Some(&0) {
            levels.pop();
        }
        CacheBuckets { levels }
    }

    /// The raw bucket indices.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// The representative fractions the planner should apply, as
    /// `(relation index, fraction)` pairs for non-zero buckets.
    pub fn planning_fractions(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (i as u32, bucket_fraction(b)))
    }
}

impl std::fmt::Display for CacheBuckets {
    /// Renders the levels as `b<l0>.<l1>…`; the empty (nothing-cached)
    /// state renders as `b-`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.levels.is_empty() {
            return f.write_str("b-");
        }
        f.write_str("b")?;
        for (i, level) in self.levels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{level}")?;
        }
        Ok(())
    }
}

/// A fully keyed probe for the *compiled* layer of a group: the join-order
/// plan produced at compile time, which depends on the spec and the
/// policy/objective pair but not on runtime cache state.
#[derive(Debug, Clone)]
pub struct CompiledProbe {
    /// Group identity: fingerprint of (spec, env).
    pub group: Fingerprint,
    /// Entry identity: fingerprint of the full compiled-key preimage.
    pub fingerprint: Fingerprint,
    /// The exact preimage bytes, retained as a collision witness.
    pub witness: Vec<u8>,
    /// The spec this probe keys.
    pub spec: WorkloadSpec,
    /// The environment this probe keys.
    pub env: Env,
    /// Policy index ([`policy_tag`]).
    pub policy: u8,
    /// Objective index ([`objective_tag`]).
    pub objective: u8,
}

impl CompiledProbe {
    /// Build the probe for `(spec, policy, objective)` under `env`.
    pub fn new(
        spec: &WorkloadSpec,
        policy: Policy,
        objective: Objective,
        env: Env,
    ) -> CompiledProbe {
        let group = group_fingerprint(spec, env);
        let mut p = Preimage::new();
        p.section("compiled");
        p.push_spec(spec);
        p.push_env(&env);
        p.push_u8(policy_tag(policy));
        p.push_u8(objective_tag(objective));
        CompiledProbe {
            group,
            fingerprint: Fingerprint::of(&p),
            witness: p.bytes().to_vec(),
            spec: spec.clone(),
            env,
            policy: policy_tag(policy),
            objective: objective_tag(objective),
        }
    }

    /// The deterministic compile-stream seed for this key.
    pub fn compile_seed(&self) -> u64 {
        self.fingerprint.seed(SEED_SALT_COMPILE)
    }
}

/// A fully keyed probe for the *winner* layer of a group: the site-selected
/// annotated plan for one (policy × objective × cache-bucket) cell, keyed
/// over the compiled plan it was selected from.
#[derive(Debug, Clone)]
pub struct SelectProbe {
    /// Group identity: fingerprint of (spec, env).
    pub group: Fingerprint,
    /// Entry identity: fingerprint of the full winner-key preimage
    /// (including the compiled plan's structure).
    pub fingerprint: Fingerprint,
    /// The exact preimage bytes, retained as a collision witness.
    pub witness: Vec<u8>,
    /// The spec this probe keys.
    pub spec: WorkloadSpec,
    /// The environment this probe keys.
    pub env: Env,
    /// Policy index ([`policy_tag`]).
    pub policy: u8,
    /// Objective index ([`objective_tag`]).
    pub objective: u8,
    /// Quantized client-cache state.
    pub buckets: CacheBuckets,
}

impl SelectProbe {
    /// Build the probe for site selection of `compiled` under the given
    /// policy/objective/cache-state cell.
    pub fn new(
        spec: &WorkloadSpec,
        compiled: &Plan,
        policy: Policy,
        objective: Objective,
        buckets: CacheBuckets,
        env: Env,
    ) -> SelectProbe {
        let group = group_fingerprint(spec, env);
        let mut p = Preimage::new();
        p.section("winner");
        p.push_spec(spec);
        p.push_env(&env);
        p.push_u8(policy_tag(policy));
        p.push_u8(objective_tag(objective));
        p.push_buckets(&buckets);
        p.push_plan(compiled);
        SelectProbe {
            group,
            fingerprint: Fingerprint::of(&p),
            witness: p.bytes().to_vec(),
            spec: spec.clone(),
            env,
            policy: policy_tag(policy),
            objective: objective_tag(objective),
            buckets,
        }
    }

    /// The deterministic site-selection annealing seed for this key. Cold
    /// and memoized runs both use it, so a hit is byte-identical to a miss
    /// re-optimized from scratch.
    pub fn select_seed(&self) -> u64 {
        self.fingerprint.seed(SEED_SALT_SELECT)
    }
}

/// Salt for compile-stream seeds derived from fingerprints.
pub const SEED_SALT_COMPILE: u64 = 0xC044_11ED;
/// Salt for site-selection annealing seeds derived from fingerprints.
pub const SEED_SALT_SELECT: u64 = 0x5E1E_C7ED;

/// The group key: fingerprint of (spec, env) alone — the logical-plan
/// group all compiled/winner entries for that workload hang off.
pub fn group_fingerprint(spec: &WorkloadSpec, env: Env) -> Fingerprint {
    let mut p = Preimage::new();
    p.section("group");
    p.push_spec(spec);
    p.push_env(&env);
    Fingerprint::of(&p)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use csqp_catalog::RelId;
    use csqp_core::JoinTree;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::Chain {
            n: 3,
            selectivity: 1e-4,
        }
    }

    fn env() -> Env {
        Env {
            placement_seed: 7,
            num_servers: 4,
        }
    }

    fn a_plan(spec: &WorkloadSpec) -> Plan {
        let q = spec.build();
        JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        )
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let s = spec();
        let f1 = group_fingerprint(&s, env());
        let f2 = group_fingerprint(&s, env());
        assert_eq!(f1, f2);
        let other = WorkloadSpec::Chain {
            n: 4,
            selectivity: 1e-4,
        };
        assert_ne!(f1, group_fingerprint(&other, env()));
        let other_env = Env {
            placement_seed: 8,
            num_servers: 4,
        };
        assert_ne!(f1, group_fingerprint(&s, other_env));
    }

    #[test]
    fn plan_encoding_ignores_arena_garbage() {
        let s = spec();
        let plan = a_plan(&s);
        let mut dirty = plan.clone();
        dirty.push(csqp_core::PlanNode {
            op: LogicalOp::Scan { rel: RelId(0) },
            ann: Annotation::Client,
            children: [None, None],
        });
        let mut a = Preimage::new();
        a.push_plan(&plan);
        let mut b = Preimage::new();
        b.push_plan(&dirty);
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn plan_encoding_sees_annotations() {
        let s = spec();
        let plan = a_plan(&s);
        let mut rean = plan.clone();
        let scan = rean.scan_nodes()[0];
        rean.node_mut(scan).ann = Annotation::Client;
        let mut a = Preimage::new();
        a.push_plan(&plan);
        let mut b = Preimage::new();
        b.push_plan(&rean);
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn quantization_is_exact_on_the_load_mix() {
        for (f, expect) in [(0.0, 0), (0.25, 2), (0.5, 4), (1.0, 8)] {
            let b = quantize_fraction(f);
            assert_eq!(b, expect);
            assert_eq!(bucket_fraction(b), f);
        }
        // Out-of-range declarations clamp instead of panicking.
        assert_eq!(quantize_fraction(-0.5), 0);
        assert_eq!(quantize_fraction(7.0), CACHE_QUANT_STEPS);
    }

    #[test]
    fn buckets_trim_trailing_zeros() {
        let a = CacheBuckets::quantize(&[0.25, 0.0, 0.0]);
        let b = CacheBuckets::quantize(&[0.25]);
        assert_eq!(a, b);
        assert_eq!(a.levels(), &[2]);
        let none = CacheBuckets::quantize(&[0.0, 0.0]);
        assert_eq!(none.levels(), &[] as &[u8]);
        let fr: Vec<(u32, f64)> = a.planning_fractions().collect();
        assert_eq!(fr, vec![(0, 0.25)]);
    }

    #[test]
    fn probes_distinguish_every_axis() {
        let s = spec();
        let plan = a_plan(&s);
        let base = SelectProbe::new(
            &s,
            &plan,
            Policy::HybridShipping,
            Objective::ResponseTime,
            CacheBuckets::quantize(&[0.25]),
            env(),
        );
        let by_policy = SelectProbe::new(
            &s,
            &plan,
            Policy::QueryShipping,
            Objective::ResponseTime,
            CacheBuckets::quantize(&[0.25]),
            env(),
        );
        let by_objective = SelectProbe::new(
            &s,
            &plan,
            Policy::HybridShipping,
            Objective::TotalCost,
            CacheBuckets::quantize(&[0.25]),
            env(),
        );
        let by_cache = SelectProbe::new(
            &s,
            &plan,
            Policy::HybridShipping,
            Objective::ResponseTime,
            CacheBuckets::quantize(&[0.5]),
            env(),
        );
        for other in [&by_policy, &by_objective, &by_cache] {
            assert_ne!(base.fingerprint, other.fingerprint);
            assert_ne!(base.witness, other.witness);
            assert_ne!(base.select_seed(), other.select_seed());
        }
        // Same key ⇒ same fingerprint, witness, and derived seed.
        let again = SelectProbe::new(
            &s,
            &plan,
            Policy::HybridShipping,
            Objective::ResponseTime,
            CacheBuckets::quantize(&[0.25]),
            env(),
        );
        assert_eq!(base.fingerprint, again.fingerprint);
        assert_eq!(base.witness, again.witness);
        assert_eq!(base.select_seed(), again.select_seed());
    }

    #[test]
    fn compiled_probe_is_cache_state_independent() {
        let s = spec();
        let a = CompiledProbe::new(&s, Policy::HybridShipping, Objective::ResponseTime, env());
        let b = CompiledProbe::new(&s, Policy::HybridShipping, Objective::ResponseTime, env());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.compile_seed(), b.compile_seed());
        let c = CompiledProbe::new(&s, Policy::DataShipping, Objective::ResponseTime, env());
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
