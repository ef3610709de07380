//! Two-phase randomized search: iterative improvement followed by
//! simulated annealing, after Ioannidis and Kang \[IK90\].
//!
//! "This study uses the same parameter settings to control the II and SA
//! phases as used in \[IK90\]" (§3.1.1, footnote 6): II restarts from
//! random plans and walks downhill to local minima; SA starts from the
//! best II plan at a temperature proportional to its cost, accepts uphill
//! moves with probability `exp(-Δ/T)`, runs a number of moves per stage
//! proportional to the join count, cools geometrically, and freezes when
//! the temperature is exhausted or several stages pass without
//! improvement. The parameters are configurable ([`OptConfig`]) with an
//! IK90-flavoured default and a `fast` preset for tests and benches.

use csqp_core::cancel::{CancelToken, StopReason};
use csqp_core::{Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_simkernel::rng::SimRng;

use crate::moves::MoveSet;
use crate::random::{random_neighbor, random_plan};

/// Search parameters.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Number of II random restarts.
    pub ii_starts: usize,
    /// Consecutive non-improving neighbors before II declares a local
    /// minimum.
    pub ii_patience: usize,
    /// SA starting temperature as a fraction of the II-best cost.
    pub sa_t0_factor: f64,
    /// Geometric cooling rate per SA stage.
    pub sa_alpha: f64,
    /// SA moves per stage, per join in the query.
    pub sa_moves_per_join: usize,
    /// SA freezes after this many stages without improving the best plan.
    pub sa_frozen_stages: usize,
    /// Stop SA when the temperature falls below this fraction of the
    /// starting temperature.
    pub sa_min_temp_frac: f64,
    /// Disable the commute extension to search the paper's literal move
    /// space.
    pub paper_moves_only: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            ii_starts: 12,
            ii_patience: 50,
            sa_t0_factor: 0.1,
            sa_alpha: 0.95,
            sa_moves_per_join: 16,
            sa_frozen_stages: 4,
            sa_min_temp_frac: 1e-3,
            paper_moves_only: false,
        }
    }
}

impl OptConfig {
    /// A cheaper preset for unit tests and criterion benches.
    pub fn fast() -> OptConfig {
        OptConfig {
            ii_starts: 9,
            ii_patience: 30,
            sa_t0_factor: 0.1,
            sa_alpha: 0.9,
            sa_moves_per_join: 10,
            sa_frozen_stages: 3,
            sa_min_temp_frac: 1e-2,
            paper_moves_only: false,
        }
    }
}

/// The outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// The best plan found.
    pub plan: Plan,
    /// Its metric value under the configured objective.
    pub cost: f64,
    /// Plans evaluated across both phases (diagnostic).
    pub evaluations: u64,
}

/// The randomized two-phase optimizer.
///
/// ```
/// use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
/// use csqp_core::Policy;
/// use csqp_cost::{CostModel, Objective};
/// use csqp_optimizer::{OptConfig, Optimizer};
/// use csqp_simkernel::rng::SimRng;
///
/// let query = QuerySpec::new(
///     vec![Relation::benchmark(RelId(0), "A"), Relation::benchmark(RelId(1), "B")],
///     vec![JoinEdge { a: RelId(0), b: RelId(1), selectivity: 1e-4 }],
/// );
/// let mut catalog = Catalog::new(1);
/// catalog.place(RelId(0), SiteId::server(1));
/// catalog.place(RelId(1), SiteId::server(1));
/// let sys = SystemConfig::default(); // Table 2
/// let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
///
/// let optimizer = Optimizer::new(
///     &model, Policy::QueryShipping, Objective::Communication, OptConfig::fast());
/// let result = optimizer.optimize(&query, &mut SimRng::seed_from_u64(1));
/// // One server: query shipping sends exactly the 250-page result.
/// assert_eq!(result.cost.round(), 250.0);
/// ```
pub struct Optimizer<'a> {
    model: &'a CostModel<'a>,
    policy: Policy,
    objective: Objective,
    config: OptConfig,
}

impl<'a> Optimizer<'a> {
    /// Build an optimizer over `model`, producing plans in `policy`'s
    /// space that minimize `objective`.
    pub fn new(
        model: &'a CostModel<'a>,
        policy: Policy,
        objective: Objective,
        config: OptConfig,
    ) -> Optimizer<'a> {
        Optimizer {
            model,
            policy,
            objective,
            config,
        }
    }

    /// The metric a plan is judged by. For the communication objective a
    /// small total-cost tie-break is added so that plans shipping the
    /// same page count prefer less work — in particular it steers the
    /// walk away from "free" local Cartesian products (§4.3.1: the
    /// optimizer "will not join them locally as the result would be a
    /// Cartesian product"). The weight trades 100 seconds of work per
    /// page: a cross product costs hours (thousands of page-equivalents)
    /// while legitimate plans differ by well under a page-equivalent.
    /// The full-overlap response-time model leaves many plans tied; a
    /// small total-cost term breaks those ties towards plans that do
    /// less work (which is also what the simulator rewards).
    ///
    /// Both terms are read from one [`csqp_cost::PlanCost`], so each
    /// candidate is bound and costed once.
    pub(crate) fn eval(&self, plan: &Plan, evals: &mut u64) -> Option<f64> {
        *evals += 1;
        let cost = self.model.cost_plan(plan)?;
        let primary = cost.get(self.objective);
        Some(match self.objective {
            Objective::Communication => primary + 1e-2 * cost.total_seconds,
            Objective::ResponseTime => primary + 1e-3 * cost.total_seconds,
            Objective::TotalCost => primary,
        })
    }

    fn move_set(&self) -> MoveSet {
        let mut set = MoveSet::for_policy(self.policy);
        if self.config.paper_moves_only {
            set.commute = false;
        }
        set
    }

    /// Run two-phase optimization (II then SA).
    pub fn optimize(&self, query: &csqp_catalog::QuerySpec, rng: &mut SimRng) -> OptResult {
        let inert = CancelToken::inert();
        match self.optimize_guarded(query, rng, &inert) {
            Ok(r) => r,
            // An inert token never reports a stop reason.
            Err(_) => unreachable!("inert cancel token cannot stop the search"),
        }
    }

    /// Run two-phase optimization (II then SA), probing `guard` between
    /// search steps. Returns `Err` the moment the token reports a stop
    /// reason — the serving layer uses this to abandon dead work (a
    /// vanished client, an expired deadline) within a few cost-model
    /// evaluations instead of finishing the whole search.
    pub fn optimize_guarded(
        &self,
        query: &csqp_catalog::QuerySpec,
        rng: &mut SimRng,
        guard: &CancelToken,
    ) -> Result<OptResult, StopReason> {
        let mut evals = 0;
        let (plan, cost) = self.iterative_improvement(query, rng, &mut evals, guard)?;
        let (plan, cost) = self.simulated_annealing(plan, cost, rng, &mut evals, guard)?;
        Ok(OptResult {
            plan,
            cost,
            evaluations: evals,
        })
    }

    /// Run only the site-selection half of the search (annotation moves)
    /// from a fixed starting plan — used by 2-step optimization at query
    /// execution time (§5).
    ///
    /// # Panics
    /// Panics when `start` does not bind: 2-step hands this function the
    /// compile-time plan, which bound when it was produced.
    pub fn site_selection(&self, start: Plan, rng: &mut SimRng) -> OptResult {
        let inert = CancelToken::inert();
        match self.site_selection_guarded(start, rng, &inert) {
            Ok(r) => r,
            // An inert token never reports a stop reason.
            Err(_) => unreachable!("inert cancel token cannot stop the search"),
        }
    }

    /// Cancellable [`Optimizer::site_selection`]: probes `guard` between
    /// annotation moves and stops with the token's reason.
    ///
    /// # Panics
    /// Panics when `start` does not bind, exactly like `site_selection`.
    #[allow(clippy::expect_used)]
    pub fn site_selection_guarded(
        &self,
        start: Plan,
        rng: &mut SimRng,
        guard: &CancelToken,
    ) -> Result<OptResult, StopReason> {
        let mut evals = 0;
        let cost = self
            .eval(&start, &mut evals)
            .expect("starting plan must be bindable");
        let set = MoveSet::site_selection_only();
        let (plan, cost) = self.descend(start, cost, set, rng, &mut evals, guard)?;
        let (plan, cost) = self.anneal(plan, cost, set, rng, &mut evals, guard)?;
        Ok(OptResult {
            plan,
            cost,
            evaluations: evals,
        })
    }

    /// Phase 1: iterative improvement over random restarts.
    ///
    /// For hybrid shipping, restarts cycle through plans drawn from the
    /// hybrid, data-shipping and query-shipping spaces: every pure plan
    /// is a legal hybrid plan (§2.2.3), and seeding with them guarantees
    /// the larger search space never converges *worse* than a pure
    /// policy would, matching the paper's "hybrid-shipping at least
    /// matches the best performance of data and query shipping".
    // Invariant panic: `random_plan` returns checker-verified plans and
    // those always bind, so the first start already populates `best`.
    #[allow(clippy::expect_used)]
    fn iterative_improvement(
        &self,
        query: &csqp_catalog::QuerySpec,
        rng: &mut SimRng,
        evals: &mut u64,
        guard: &CancelToken,
    ) -> Result<(Plan, f64), StopReason> {
        let set = self.move_set();
        let start_spaces: &[Policy] = match self.policy {
            Policy::HybridShipping => &[
                Policy::HybridShipping,
                Policy::DataShipping,
                Policy::QueryShipping,
            ],
            p => std::slice::from_ref(match p {
                Policy::DataShipping => &Policy::DataShipping,
                _ => &Policy::QueryShipping,
            }),
        };
        // The hybrid space is roughly the union of three spaces; give it a
        // proportionally larger restart budget (the paper instead gave the
        // optimizer a generous fixed time budget, ~40 s per query on a
        // 1996 workstation, §3.1.1).
        let starts = match self.policy {
            Policy::HybridShipping => 2 * self.config.ii_starts.max(1),
            _ => self.config.ii_starts.max(1),
        };
        let mut best: Option<(Plan, f64)> = None;
        for i in 0..starts {
            if let Some(reason) = guard.stop_reason() {
                // Stop between restarts only if nothing usable exists yet;
                // otherwise the caller still prefers a stop to a stale plan.
                return Err(reason);
            }
            let space = start_spaces[i % start_spaces.len()];
            let start = random_plan(query, space, rng);
            let Some(mut cost) = self.eval(&start, evals) else {
                continue;
            };
            let mut plan = start;
            if space != self.policy {
                // First converge inside the pure space (cheap, small
                // neighborhood), then refine with the full hybrid moves.
                let pure_set = MoveSet::for_policy(space);
                (plan, cost) = self.descend_in(space, plan, cost, pure_set, rng, evals, guard)?;
            }
            let (plan, cost) = self.descend(plan, cost, set, rng, evals, guard)?;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
        Ok(best.expect("at least one random start must bind"))
    }

    /// Greedy descent to a local minimum (in this optimizer's policy).
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        plan: Plan,
        cost: f64,
        set: MoveSet,
        rng: &mut SimRng,
        evals: &mut u64,
        guard: &CancelToken,
    ) -> Result<(Plan, f64), StopReason> {
        self.descend_in(self.policy, plan, cost, set, rng, evals, guard)
    }

    /// Greedy descent restricted to `space`'s moves.
    ///
    /// The give-up patience scales with the size of the current move
    /// list: a hybrid 10-way plan has dozens of applicable moves, and a
    /// fixed small patience would declare a "local minimum" long before
    /// the neighborhood was sampled (IK90 define a local minimum by the
    /// neighborhood, not by a fixed number of draws).
    #[allow(clippy::too_many_arguments)]
    fn descend_in(
        &self,
        space: Policy,
        mut plan: Plan,
        mut cost: f64,
        set: MoveSet,
        rng: &mut SimRng,
        evals: &mut u64,
        guard: &CancelToken,
    ) -> Result<(Plan, f64), StopReason> {
        let mut stuck = 0;
        let mut patience = self
            .config
            .ii_patience
            .max(3 * crate::moves::applicable_moves(&plan, space, set).len());
        while stuck < patience {
            if let Some(reason) = guard.stop_reason() {
                return Err(reason);
            }
            match random_neighbor(&plan, self.model.query(), space, set, rng) {
                Some((cand, _)) => match self.eval(&cand, evals) {
                    Some(c) if c < cost => {
                        plan = cand;
                        cost = c;
                        stuck = 0;
                        patience = self
                            .config
                            .ii_patience
                            .max(3 * crate::moves::applicable_moves(&plan, space, set).len());
                    }
                    _ => stuck += 1,
                },
                None => stuck += 1,
            }
        }
        Ok((plan, cost))
    }

    /// Phase 2: simulated annealing from the II-best plan.
    fn simulated_annealing(
        &self,
        plan: Plan,
        cost: f64,
        rng: &mut SimRng,
        evals: &mut u64,
        guard: &CancelToken,
    ) -> Result<(Plan, f64), StopReason> {
        self.anneal(plan, cost, self.move_set(), rng, evals, guard)
    }

    #[allow(clippy::too_many_arguments)]
    fn anneal(
        &self,
        start: Plan,
        start_cost: f64,
        set: MoveSet,
        rng: &mut SimRng,
        evals: &mut u64,
        guard: &CancelToken,
    ) -> Result<(Plan, f64), StopReason> {
        let joins = start.join_nodes().len().max(1);
        let moves_per_stage = self.config.sa_moves_per_join * joins;
        let t0 = self.config.sa_t0_factor * start_cost.max(f64::MIN_POSITIVE);
        let mut t = t0;
        let (mut cur, mut cur_cost) = (start.clone(), start_cost);
        let (mut best, mut best_cost) = (start, start_cost);
        let mut stages_without_improvement = 0;

        while t > self.config.sa_min_temp_frac * t0
            && stages_without_improvement < self.config.sa_frozen_stages
        {
            let mut improved = false;
            for _ in 0..moves_per_stage {
                if let Some(reason) = guard.stop_reason() {
                    return Err(reason);
                }
                let Some((cand, _)) =
                    random_neighbor(&cur, self.model.query(), self.policy, set, rng)
                else {
                    continue;
                };
                let Some(c) = self.eval(&cand, evals) else {
                    continue;
                };
                let delta = c - cur_cost;
                if delta <= 0.0 || rng.unit() < (-delta / t).exp() {
                    cur = cand;
                    cur_cost = c;
                    if cur_cost < best_cost {
                        best = cur.clone();
                        best_cost = cur_cost;
                        improved = true;
                    }
                }
            }
            if improved {
                stages_without_improvement = 0;
            } else {
                stages_without_improvement += 1;
            }
            t *= self.config.sa_alpha;
        }
        Ok((best, best_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
    use csqp_core::{bind, BindContext, LogicalOp};

    fn chain(n: u32) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: 1e-4,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    fn catalog(n_rels: u32, n_servers: u32) -> Catalog {
        let mut c = Catalog::new(n_servers);
        for i in 0..n_rels {
            c.place(RelId(i), SiteId::server(1 + i % n_servers));
        }
        c
    }

    #[test]
    fn qs_minimizes_communication_to_result_size() {
        // One server: the known optimum is shipping only the 250-page
        // result (Fig 2's QS line).
        let q = chain(2);
        let cat = catalog(2, 1);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::QueryShipping,
            Objective::Communication,
            OptConfig::fast(),
        );
        let mut rng = SimRng::seed_from_u64(2);
        let res = opt.optimize(&q, &mut rng);
        assert!((res.cost - 250.0).abs() < 1.0, "cost {}", res.cost);
    }

    #[test]
    fn hybrid_matches_best_pure_policy_on_communication() {
        // Fig 2's key claim: HY = min(DS, QS) everywhere.
        let q = chain(2);
        let cfg = SystemConfig::default();
        for cached in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut cat = catalog(2, 1);
            cat.set_cached_fraction(RelId(0), cached);
            cat.set_cached_fraction(RelId(1), cached);
            let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
            let mut results = std::collections::HashMap::new();
            for policy in Policy::ALL {
                let opt =
                    Optimizer::new(&model, policy, Objective::Communication, OptConfig::fast());
                let mut rng = SimRng::seed_from_u64(77);
                let res = opt.optimize(&q, &mut rng);
                results.insert(policy.short(), res.cost.round());
            }
            let hy = results["HY"];
            let best_pure = results["DS"].min(results["QS"]);
            assert!(
                hy <= best_pure + 1.0,
                "cached {cached}: HY {hy} vs best pure {best_pure} ({results:?})"
            );
        }
    }

    #[test]
    fn optimizer_respects_policy_and_wellformedness() {
        let q = chain(5);
        let cat = catalog(5, 3);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        for policy in Policy::ALL {
            let opt = Optimizer::new(&model, policy, Objective::ResponseTime, OptConfig::fast());
            let mut rng = SimRng::seed_from_u64(13);
            let res = opt.optimize(&q, &mut rng);
            res.plan.validate_structure(&q).unwrap();
            policy.validate(&res.plan).unwrap();
            assert!(csqp_core::is_well_formed(&res.plan));
            assert!(res.evaluations > 10);
        }
    }

    #[test]
    fn optimization_is_deterministic_per_seed() {
        let q = chain(4);
        let cat = catalog(4, 2);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::ResponseTime,
            OptConfig::fast(),
        );
        let a = opt.optimize(&q, &mut SimRng::seed_from_u64(42));
        let b = opt.optimize(&q, &mut SimRng::seed_from_u64(42));
        assert_eq!(a.plan.render_compact(), b.plan.render_compact());
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn site_selection_keeps_join_order() {
        let q = chain(4);
        let cat = catalog(4, 2);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::ResponseTime,
            OptConfig::fast(),
        );
        let mut rng = SimRng::seed_from_u64(3);
        let start = crate::random::random_plan(&q, Policy::HybridShipping, &mut rng);
        let res = opt.site_selection(start.clone(), &mut rng);
        // Join order (leaf sequence) unchanged; only annotations may move.
        let leaves = |p: &Plan| -> Vec<String> {
            p.postorder()
                .into_iter()
                .filter_map(|id| match p.node(id).op {
                    LogicalOp::Scan { rel } => Some(rel.to_string()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(leaves(&start), leaves(&res.plan));
    }

    #[test]
    fn cancelled_token_stops_search_immediately() {
        let q = chain(4);
        let cat = catalog(4, 2);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::ResponseTime,
            OptConfig::fast(),
        );
        let token = CancelToken::inert();
        token.cancel();
        let mut rng = SimRng::seed_from_u64(42);
        let res = opt.optimize_guarded(&q, &mut rng, &token);
        assert_eq!(res.err(), Some(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_stops_search_with_typed_reason() {
        let q = chain(4);
        let cat = catalog(4, 2);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::ResponseTime,
            OptConfig::fast(),
        );
        let token = CancelToken::expired();
        let mut rng = SimRng::seed_from_u64(42);
        let res = opt.optimize_guarded(&q, &mut rng, &token);
        assert_eq!(res.err(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn guarded_search_matches_unguarded_with_inert_token() {
        let q = chain(4);
        let cat = catalog(4, 2);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::ResponseTime,
            OptConfig::fast(),
        );
        let a = opt.optimize(&q, &mut SimRng::seed_from_u64(7));
        let token = CancelToken::inert();
        let b = opt
            .optimize_guarded(&q, &mut SimRng::seed_from_u64(7), &token)
            .unwrap();
        assert_eq!(a.plan.render_compact(), b.plan.render_compact());
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn hybrid_avoids_cross_products_on_chains() {
        let q = chain(6);
        let cat = catalog(6, 3);
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let opt = Optimizer::new(
            &model,
            Policy::HybridShipping,
            Objective::TotalCost,
            OptConfig::fast(),
        );
        let res = opt.optimize(&q, &mut SimRng::seed_from_u64(8));
        for j in res.plan.join_nodes() {
            let n = res.plan.node(j);
            let l = res.plan.rel_set(n.children[0].unwrap());
            let r = res.plan.rel_set(n.children[1].unwrap());
            assert!(q.joinable(l, r), "cross product survived: {}", res.plan);
        }
        // And the result binds.
        bind(
            &res.plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
    }
}
