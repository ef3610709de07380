//! Bit-exactness wall for the simulator hot path.
//!
//! The kernel and the disk precompute service times, the kernel reuses
//! action buffers, the event queue holds the earliest event outside its
//! heap and the elevator is a sorted `Vec`. None of that may move a
//! single event or a single nanosecond, so this wall pins every
//! observable of a run — response time, wire counters, utilization
//! bits, per-site disk and CPU accounting, per-operator waits and the
//! event count — across a grid that reaches every service-time path:
//!
//! * DS, QS and hybrid plans (fault RPCs, remote channels, local scans);
//! * minimum and maximum join memory (spill, write-behind, `DrainWrites`);
//! * client caches of 0, 50 and 100% (fault RPCs vs client-disk reads);
//! * no external load, or 50 random reads/s on server 1 (a busy elevator);
//! * 2-, 5- (with an aggregate) and 10-way (bushy) chains with a selection;
//!
//! plus one concurrent `execute_many` run, one `navigate` session, four
//! identical queries whose scans queue requests for the very same pages
//! (the elevator's arrival tie-break), and an operator issuing a
//! thousand distinct CPU bursts (the CPU service-time path). The
//! goldens were recorded before the hot-path changes landed.

#![cfg(test)]

use csqp_catalog::{BufAlloc, Catalog, QuerySpec, RelId, SiteId, SystemConfig};
use csqp_core::{bind, Annotation, BindContext, BoundPlan, JoinTree, LogicalOp};
use csqp_simkernel::rng::SimRng;
use csqp_simkernel::SimDuration;
use csqp_workload::{cache_all, chain_query, random_placement, MODERATE_SEL};

use crate::build::ExecutionBuilder;
use crate::kernel::{Engine, ProcReport};
use crate::metrics::{ExecutionMetrics, MultiQueryMetrics};
use crate::process::{Action, OperatorProc, ResumeInput};

/// FNV-1a over the canonical rendering of one run.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Integer nanoseconds: `SimDuration`'s `Debug` rounds to microseconds.
fn ns(d: SimDuration) -> u64 {
    d.as_nanos()
}

/// Every field at full precision (floats via their round-trip `Debug`).
fn render_shared(
    out: &mut String,
    wire: (u64, u64, u64, f64),
    disk: &[csqp_disk::disk::DiskStats],
    cpu: &[SimDuration],
    ops: &[ProcReport],
) {
    use std::fmt::Write;
    let _ = write!(out, "wire {wire:?};");
    for d in disk {
        let _ = write!(
            out,
            "disk {} {} {} {} {} {};",
            d.reads,
            d.writes,
            d.cache_hits,
            d.streaming,
            d.media,
            ns(d.busy)
        );
    }
    for c in cpu {
        let _ = write!(out, "cpu {};", ns(*c));
    }
    for op in ops {
        let w = op.waits;
        let _ = write!(
            out,
            "op {} {} {} {} {} {} {} {};",
            op.label,
            ns(w.cpu),
            ns(w.disk),
            ns(w.wire),
            ns(w.input),
            ns(w.emit),
            ns(w.drain),
            ns(w.sleep)
        );
    }
}

fn digest(m: &ExecutionMetrics) -> (u64, u64) {
    let mut s = format!("rt {} tuples {};", ns(m.response_time), m.result_tuples);
    let wire = (
        m.pages_sent,
        m.control_msgs,
        m.bytes_sent,
        m.link_utilization,
    );
    render_shared(&mut s, wire, &m.disk, &m.cpu_busy, &m.operators);
    (m.events_handled, fnv1a(s.as_bytes()))
}

fn digest_many(m: &MultiQueryMetrics) -> (u64, u64) {
    let mut s = format!("makespan {};", ns(m.makespan));
    for q in &m.per_query {
        s += &format!("q {} {};", ns(q.response_time), q.result_tuples);
    }
    let wire = (
        m.pages_sent,
        m.control_msgs,
        m.bytes_sent,
        m.link_utilization,
    );
    render_shared(&mut s, wire, &m.disk, &m.cpu_busy, &m.operators);
    (m.events_handled, fnv1a(s.as_bytes()))
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Ds,
    Qs,
    Hy,
}

/// An `n`-way chain with a selection on R0; the 5-way one aggregates.
fn wall_query(n: u32) -> QuerySpec {
    let q = chain_query(n, MODERATE_SEL).with_selection(RelId(0), 0.2);
    if n == 5 {
        q.with_aggregate(300)
    } else {
        q
    }
}

/// Seeded placement over two servers with `cache` of every relation
/// cached at the client.
fn wall_catalog(q: &QuerySpec, cache: f64) -> Catalog {
    let mut rng = SimRng::seed_from_u64(q.num_relations() as u64);
    let mut cat = random_placement(q, 2, &mut rng);
    cache_all(&mut cat, q, cache);
    cat
}

/// DS: everything at the client. QS: joins at their inner producer,
/// scans at the primary copy. Hybrid: even relations scanned at the
/// client, joins at their consumer or outer producer, aggregate at its
/// consumer, so the plan mixes fault RPCs, local scans and remote
/// channels in both directions.
// Invariant panic: the annotations above never form a cycle.
#[allow(clippy::expect_used)]
fn wall_plan(q: &QuerySpec, cat: &Catalog, shape: Shape) -> BoundPlan {
    let order: Vec<RelId> = q.relations.iter().map(|r| r.id).collect();
    let tree = if order.len() >= 10 {
        JoinTree::balanced(&order)
    } else {
        JoinTree::left_deep(&order)
    };
    let mut plan = match shape {
        Shape::Ds => tree.into_plan(q, Annotation::Consumer, Annotation::Client),
        Shape::Qs | Shape::Hy => tree.into_plan(q, Annotation::InnerRel, Annotation::PrimaryCopy),
    };
    // Joins that build into a parent join follow their consumer; the
    // others run at their outer producer, which is never such a join,
    // so no annotation chain can cycle.
    let mut builds_into_join = Vec::new();
    for id in plan.postorder() {
        if let (LogicalOp::Join, Some(inner)) = (plan.node(id).op, plan.node(id).children[0]) {
            builds_into_join.push(inner);
        }
    }
    for id in plan.postorder() {
        let node = plan.node_mut(id);
        let ann = &mut node.ann;
        match (shape, node.op) {
            (Shape::Hy, LogicalOp::Scan { rel }) if rel.0 % 2 == 0 => *ann = Annotation::Client,
            (Shape::Hy, LogicalOp::Join) if builds_into_join.contains(&id) => {
                *ann = Annotation::Consumer
            }
            (Shape::Hy, LogicalOp::Join) => *ann = Annotation::OuterRel,
            (Shape::Ds | Shape::Hy, LogicalOp::Aggregate { .. }) => *ann = Annotation::Consumer,
            _ => {}
        }
    }
    bind(
        &plan,
        BindContext {
            catalog: cat,
            query_site: SiteId::CLIENT,
        },
    )
    .expect("wall plans bind")
}

fn wall_config(alloc: BufAlloc) -> SystemConfig {
    let mut sys = SystemConfig::default();
    sys.buf_alloc = alloc;
    sys
}

/// The grid, in golden order: shape × allocation × cache × load × size.
fn grid() -> Vec<(Shape, BufAlloc, f64, bool, u32)> {
    let mut cells = Vec::new();
    for shape in [Shape::Ds, Shape::Qs, Shape::Hy] {
        for alloc in [BufAlloc::Min, BufAlloc::Max] {
            for cache in [0.0, 0.5, 1.0] {
                for loaded in [false, true] {
                    for n in [2, 5, 10] {
                        cells.push((shape, alloc, cache, loaded, n));
                    }
                }
            }
        }
    }
    cells
}

fn run_cell((shape, alloc, cache, loaded, n): (Shape, BufAlloc, f64, bool, u32)) -> (u64, u64) {
    let q = wall_query(n);
    let cat = wall_catalog(&q, cache);
    let sys = wall_config(alloc);
    let bound = wall_plan(&q, &cat, shape);
    let mut builder = ExecutionBuilder::new(&q, &cat, &sys).with_seed(n as u64 + 11);
    if loaded {
        builder = builder.with_load(SiteId::server(1), 50.0);
    }
    digest(&builder.execute(&bound))
}

/// `(events_handled, FNV-1a of the full-precision rendering)` per cell
/// of [`grid`].
const GOLDENS: [(u64, u64); 108] = [
    (6680, 0x753813ae3cbbc621),
    (18930, 0x01095e7bd94c245f),
    (47797, 0xc819c7eef04ef1c1),
    (7645, 0x133f0dedb86db3c5),
    (20877, 0xfa4253ea688ed039),
    (54255, 0x11754847bf304487),
    (5180, 0xbb5ce16c84a77899),
    (15180, 0x846263018e417dd7),
    (40297, 0xf338b022f4fc77c3),
    (6019, 0x0331c66b9a66e767),
    (17272, 0xd1b784eefa91829b),
    (48320, 0x6710836b764b2eee),
    (3680, 0x492da5c171926571),
    (11430, 0xd3c27d38df5f658e),
    (32797, 0x369c46804ff6b517),
    (4371, 0x38be4539dfb4716e),
    (13607, 0xc0da1a6eed82123a),
    (42099, 0x8e46d21358f26b32),
    (5210, 0xcc6da19ed5648a38),
    (13050, 0xbf6f49bde64da6c8),
    (28455, 0xf4e73c5ebcdbf6dd),
    (6058, 0x73c6e42bbf2a928e),
    (14394, 0x2106fb4108388689),
    (31288, 0x9d7df1859b01c5be),
    (3710, 0x43fc56781b5f4e4d),
    (9300, 0xb4d5d4da89ff2ad3),
    (20955, 0xe2ba6929087702ee),
    (4244, 0xff259e03183cba72),
    (10282, 0xf97ae39b8780ffd4),
    (23139, 0xa98623a9c128d194),
    (2210, 0x59dbdb332e4306dd),
    (5550, 0xb531634e6a138a4a),
    (13453, 0x15f07e344e570393),
    (2385, 0x958227b4da38bd07),
    (5971, 0x8a1a85e78e8a3a37),
    (15507, 0x532ee8e32216483f),
    (4580, 0xd69f28e7565de858),
    (12954, 0x29835ca439d1f4cf),
    (35946, 0xb0ac3457c7c3f8dd),
    (5443, 0x3d4b0ac6e45d4319),
    (15115, 0x3c1a597d6d1837b8),
    (46538, 0x87a7d90bccaea9d5),
    (4580, 0xd69f28e7565de858),
    (12954, 0x29835ca439d1f4cf),
    (35946, 0xb0ac3457c7c3f8dd),
    (5443, 0x3d4b0ac6e45d4319),
    (15115, 0x3c1a597d6d1837b8),
    (46538, 0x87a7d90bccaea9d5),
    (4580, 0xd69f28e7565de858),
    (12954, 0x29835ca439d1f4cf),
    (35946, 0xb0ac3457c7c3f8dd),
    (5443, 0x3d4b0ac6e45d4319),
    (15115, 0x3c1a597d6d1837b8),
    (46538, 0x87a7d90bccaea9d5),
    (3110, 0xc7fd3e8a7e08d42e),
    (7074, 0x2e4074a780c3f88f),
    (16612, 0x97b5b007a1d340d6),
    (3795, 0x187e4fbdfa3555ea),
    (8098, 0x85fa5caab0bfa97c),
    (19203, 0xd0505b5d31389277),
    (3110, 0xc7fd3e8a7e08d42e),
    (7074, 0x2e4074a780c3f88f),
    (16612, 0x97b5b007a1d340d6),
    (3795, 0x187e4fbdfa3555ea),
    (8098, 0x85fa5caab0bfa97c),
    (19203, 0xd0505b5d31389277),
    (3110, 0xc7fd3e8a7e08d42e),
    (7074, 0x2e4074a780c3f88f),
    (16612, 0x97b5b007a1d340d6),
    (3795, 0x187e4fbdfa3555ea),
    (8098, 0x85fa5caab0bfa97c),
    (19203, 0xd0505b5d31389277),
    (5480, 0x317041301b4b3ff5),
    (17430, 0x563dfedaa3dc6e90),
    (45098, 0x6731ad528e51bd3a),
    (7340, 0x424f04d77d3650bd),
    (19302, 0x07bc94b7a8aa53b4),
    (51294, 0xab87182c87dbb780),
    (4730, 0x94d0fbac40537302),
    (15180, 0x945826b4b7dc1476),
    (41347, 0x714581f586d5f008),
    (6590, 0x01c56d0c82811b2f),
    (17066, 0x117f3cf6c1dba4c6),
    (47022, 0xf55ed302145a4820),
    (3980, 0xcb0bd1f0cb9dc246),
    (12930, 0x368d1bf29ee2279a),
    (37596, 0x808cf5150fc403e0),
    (5804, 0xa0eb5b248e756db7),
    (14885, 0x20a31fb7c52130ce),
    (43126, 0x51f208bfe80ab0a2),
    (4010, 0x3e76caf2573717ca),
    (11550, 0x5dfd13aa8db8d6fc),
    (25756, 0x8fe51d30df7c9104),
    (4708, 0x1fd59b1cc62934ba),
    (12790, 0x77c3766eec80b98e),
    (28466, 0xf6f10768e918e157),
    (3260, 0x3d44bc5c03067067),
    (9300, 0x41864ee006d232d4),
    (22006, 0x541afee4bc45772a),
    (3930, 0x375438c2f2c914b6),
    (10338, 0x156d44e5af49bf89),
    (24245, 0xeb5be95c014791ea),
    (2510, 0x2c2bf2f8456b4297),
    (7050, 0x7591a98a467615bd),
    (18258, 0xb214fcece9c826f0),
    (3141, 0xee50e40327c293db),
    (7718, 0xa7d370f86d037297),
    (20173, 0x2fb630075af969ad),
];

/// A DS and a hybrid 5-way query running concurrently under load.
const MANY_GOLDEN: (u64, u64) = (35022, 0xece03ebc3a0a1262);

/// A 400-step navigation over a half-cached relation under load.
const NAVIGATE_GOLDEN: (u64, u64) = (2163, 0xa64d282a2174e486);

/// Four identical QS queries against one server.
const IDENTICAL_GOLDEN: (u64, u64) = (15320, 0xac1839c45b65cc39);

/// `(events, response time in ns)` of [`CpuBurner`].
const CPU_BURST_GOLDEN: (u64, u64) = (3001, 738_920_340_000);

#[test]
fn simulator_grid_matches_the_goldens() {
    let cells = grid();
    assert_eq!(cells.len(), GOLDENS.len());
    for (i, (cell, want)) in cells.into_iter().zip(GOLDENS).enumerate() {
        assert_eq!(run_cell(cell), want, "cell {i}: {cell:?}");
    }
}

#[test]
fn concurrent_queries_match_the_golden() {
    let q = wall_query(5);
    let cat = wall_catalog(&q, 0.5);
    let sys = wall_config(BufAlloc::Min);
    let plans = [
        wall_plan(&q, &cat, Shape::Ds),
        wall_plan(&q, &cat, Shape::Hy),
    ];
    let m = ExecutionBuilder::new(&q, &cat, &sys)
        .with_load(SiteId::server(1), 50.0)
        .with_seed(3)
        .execute_many(&plans);
    assert_eq!(digest_many(&m), MANY_GOLDEN);
}

#[test]
fn navigation_matches_the_golden() {
    let q = wall_query(2);
    let cat = wall_catalog(&q, 0.5);
    let sys = wall_config(BufAlloc::Min);
    let m = ExecutionBuilder::new(&q, &cat, &sys)
        .with_load(SiteId::server(1), 50.0)
        .with_seed(5)
        .navigate(RelId(0), 400, 0.7);
    assert_eq!(digest(&m), NAVIGATE_GOLDEN);
}

#[test]
fn identical_queries_match_the_golden() {
    let q = wall_query(2);
    let mut cat = random_placement(&q, 1, &mut SimRng::seed_from_u64(1));
    cache_all(&mut cat, &q, 0.0);
    let sys = wall_config(BufAlloc::Min);
    let plans: Vec<BoundPlan> = (0..4).map(|_| wall_plan(&q, &cat, Shape::Qs)).collect();
    let m = ExecutionBuilder::new(&q, &cat, &sys).execute_many(&plans);
    assert_eq!(digest_many(&m), IDENTICAL_GOLDEN);
}

/// Burns 1,000 distinct instruction counts at the client, three times
/// over, so a cache of CPU service times that handed back another
/// count's duration would move the golden.
struct CpuBurner {
    step: u64,
}

impl OperatorProc for CpuBurner {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        if self.step == 3_000 {
            out.push(Action::Done);
            return;
        }
        let v = self.step % 1_000;
        self.step += 1;
        out.push(Action::Cpu {
            site: SiteId::CLIENT,
            instr: v * v * 37 + v,
        });
    }

    fn label(&self) -> String {
        "cpu-burner".into()
    }
}

#[test]
fn cpu_bursts_match_the_golden() {
    let mut e = Engine::new(SystemConfig::default(), &Default::default(), 1);
    e.add_display_proc(Box::new(CpuBurner { step: 0 }));
    let rt = e.run();
    assert_eq!((e.events_handled(), rt.as_nanos()), CPU_BURST_GOLDEN);
}
