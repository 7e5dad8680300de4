//! The exact fluid engine workloads: `exact_fig8` (the paper's Fig 8
//! grid) and `exact_flaps` (the same traces under seeded cable flaps).
//!
//! Both replay the four synthetic Facebook-like traces on networks
//! derived from the mini topo-1 Clos layout. MPTCP-8 networks route over
//! a shared route table built in set-up from the union of the traces'
//! pairs; the Clos ECMP network routes per flow. Cells run serially,
//! trace-major: fault-free cells through `flowsim::simulate_with_provider`
//! as the Fig 8 experiment runs them, faulted cells through
//! `flowsim::simulate_with_telemetry`, which replays the fault schedule
//! under the invariant auditor and reports the allocator's counters.

use crate::harness::{self, Cell, Opts, Report};
use crate::trace::{self, span, Delayed, Traced, Tracer, ECMP, MPTCP};
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{
    AllocTelemetry, EcmpProvider, FaultPlan, FaultSchedule, FlowSpec, MptcpProvider, PathProvider,
    SimConfig, Transport,
};
use netgraph::{Graph, LinkId, NodeId};
use routing::SharedRouteTable;
use std::sync::Arc;
use std::time::{Duration, Instant};
use topology::{ClosParams, DcNetwork, RandomGraphParams, TwoStageParams};
use traffic::traces::TraceParams;
use traffic::Workload;

/// Which exact workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 8: four traces on six networks, fault-free.
    Fig8,
    /// Flat-tree global (MPTCP-8) and Clos (ECMP) under cable flaps.
    Flaps,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Fig8 => "exact_fig8",
            Kind::Flaps => "exact_flaps",
        }
    }
}

/// MPTCP subflows (the paper's main configuration).
const K: usize = 8;
/// Fraction of switch-switch cables that flap in an `exact_flaps` cell.
const FLAP_FRACTION: f64 = 0.10;
/// Mean cable down time (s); each flap scales it by U[0.5, 1.5).
const FLAP_MEAN_DOWN_S: f64 = 0.3;
/// Window in which flaps start (s); the traces span one second.
const FLAP_WINDOW: (f64, f64) = (0.05, 0.4);

/// The mini topo-1 Clos layout Fig 8 runs on at default scale: 256
/// servers, uniform layers, 4:1 at the edge.
fn topo1() -> ClosParams {
    ClosParams {
        pods: 4,
        edges_per_pod: 4,
        aggs_per_pod: 4,
        servers_per_edge: 16,
        edge_uplinks: 4,
        agg_uplinks: 4,
        num_cores: 16,
        link_gbps: 10.0,
    }
}

/// The four traces, sized to topo-1 and drawn from `seed`.
fn traces(seed: u64) -> Vec<Workload> {
    let clos = topo1();
    let n = clos.total_servers();
    let rack = clos.servers_per_edge;
    let pod = clos.edges_per_pod * clos.servers_per_edge;
    vec![
        TraceParams::hadoop1(n, rack, pod, seed).generate(),
        TraceParams::hadoop2(n, rack, pod, seed).generate(),
        TraceParams::web(n, rack, pod, seed).generate(),
        TraceParams::cache(n, rack, pod, seed).generate(),
    ]
}

enum Routing {
    Ecmp,
    Mptcp(Arc<SharedRouteTable>),
}

struct Net {
    name: &'static str,
    net: DcNetwork,
    routing: Routing,
}

/// Builds the networks and their route tables: the set-up `setup_s`
/// times.
fn setup(kind: Kind, seed: u64, traces: &[Workload], tr: Option<&Tracer>) -> Vec<Net> {
    let clos = topo1();
    let (m, n) = span(tr, "core.profile.best_mn", || {
        flat_tree::profile::best_mn(&clos)
    })
    .expect("topo-1 is profilable");
    let built: Vec<(&'static str, DcNetwork, bool)> = span(tr, "topology.build", || {
        let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid flat-tree params");
        let mode = |m| ft.instantiate(&ModeAssignment::uniform(ft.pods(), m)).net;
        match kind {
            Kind::Fig8 => {
                let clos_net = mode(PodMode::Clos);
                vec![
                    ("ft-global", mode(PodMode::Global), true),
                    ("ft-local", mode(PodMode::Local), true),
                    ("ft-clos-ksp", clos_net.clone(), true),
                    ("ft-clos-ecmp", clos_net, false),
                    (
                        "random-graph",
                        RandomGraphParams::from_clos(&clos, seed).build(),
                        true,
                    ),
                    ("two-stage-rg", TwoStageParams { clos, seed }.build(), true),
                ]
            }
            Kind::Flaps => vec![
                ("ft-global", mode(PodMode::Global), true),
                ("ft-clos-ecmp", mode(PodMode::Clos), false),
            ],
        }
    });
    let union: Vec<(usize, usize)> = traces
        .iter()
        .flat_map(|t| t.flows.iter().map(|f| (f.src, f.dst)))
        .collect();
    built
        .into_iter()
        .map(|(name, net, mptcp)| {
            let routing = if mptcp {
                let table = span(tr, "routing.table_build", || {
                    SharedRouteTable::build_for_pairs(&net.graph, K, &switch_pairs(&net, &union))
                });
                if let Some(t) = tr {
                    t.count("routing.table_pairs", table.pair_count() as f64);
                }
                Routing::Mptcp(Arc::new(table))
            } else {
                Routing::Ecmp
            };
            Net { name, net, routing }
        })
        .collect()
}

/// The ingress/egress switch pairs of server-index pairs (intra-rack
/// pairs need no switch paths).
fn switch_pairs(net: &DcNetwork, pairs: &[(usize, usize)]) -> Vec<(NodeId, NodeId)> {
    let g = &net.graph;
    pairs
        .iter()
        .filter_map(|&(s, d)| {
            let si = g.server_uplink_switch(net.servers[s])?;
            let di = g.server_uplink_switch(net.servers[d])?;
            (si != di).then_some((si, di))
        })
        .collect()
}

/// Every duplex switch-switch cable, one direction each.
fn cables(g: &Graph) -> Vec<LinkId> {
    g.link_ids()
        .filter(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch()
                && g.node(info.dst).kind.is_switch()
                && info.reverse.is_none_or(|r| r.0 > l.0)
        })
        .collect()
}

struct CellInput {
    name: String,
    net: usize,
    flows: Vec<FlowSpec>,
    schedule: FaultSchedule,
}

/// Binds each trace to each network's servers and, for `exact_flaps`,
/// draws the cell's flap plan from the seed.
fn bind(kind: Kind, nets: &[Net], traces: &[Workload], seed: u64) -> Vec<CellInput> {
    let mut cells = Vec::new();
    for trace in traces {
        for (ni, n) in nets.iter().enumerate() {
            let flows = trace
                .flows
                .iter()
                .map(|f| FlowSpec {
                    id: f.id,
                    src: n.net.servers[f.src],
                    dst: n.net.servers[f.dst],
                    bytes: f.bytes,
                    start: f.start,
                })
                .collect();
            let schedule = match kind {
                Kind::Fig8 => FaultSchedule::empty(),
                Kind::Flaps => {
                    let g = &n.net.graph;
                    let mut plan = FaultPlan::new(seed ^ ((cells.len() as u64 + 1) << 32));
                    plan.random_link_flaps(
                        &cables(g),
                        FLAP_FRACTION,
                        FLAP_MEAN_DOWN_S,
                        FLAP_WINDOW,
                    );
                    plan.compile(g)
                        .expect("the plan names links of its own graph")
                }
            };
            cells.push(CellInput {
                name: format!("{}/{}", trace.name, n.name),
                net: ni,
                flows,
                schedule,
            });
        }
    }
    cells
}

/// The network's route source, delayed and traced as requested.
fn provider<'t>(
    routing: &Routing,
    tr: Option<&'t Tracer>,
    delay: Option<Duration>,
) -> Box<dyn PathProvider + 't> {
    let (mut p, layer): (Box<dyn PathProvider + 't>, _) = match routing {
        Routing::Ecmp => (Box::new(EcmpProvider::new()), &ECMP),
        Routing::Mptcp(t) => (
            Box::new(MptcpProvider::with_shared(t.clone(), true)),
            &MPTCP,
        ),
    };
    if let Some(d) = delay {
        p = Box::new(Delayed::new(p, d));
    }
    match tr {
        Some(t) => Box::new(Traced::new(p, t, layer)),
        None => p,
    }
}

/// Route calls recorded so far, over both provider layers.
fn route_calls(tr: &Tracer) -> f64 {
    tr.counter(trace::ECMP.calls) + tr.counter(trace::MPTCP.calls)
}

/// Counters only the audited engine entry point reports.
const AUDIT_COUNTERS: [&str; 8] = [
    "flowsim.parks",
    "flowsim.revives",
    "flowsim.audit_violations",
    "mcf.alloc.epochs",
    "mcf.alloc.rounds",
    "mcf.alloc.dirty_links",
    "mcf.alloc.link_scans",
    "mcf.alloc.link_scans_naive",
];

/// Simulates every cell once. `audited` runs the cells through
/// `simulate_with_telemetry` (invariant auditor and allocator
/// counters), otherwise through `simulate_with_provider`, the entry
/// point the Fig 8 experiment uses.
fn pass(
    nets: &[Net],
    inputs: &[CellInput],
    tr: Option<&Tracer>,
    delay: Option<Duration>,
    audited: bool,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(inputs.len());
    for c in inputs {
        let n = &nets[c.net];
        let g = &n.net.graph;
        let cfg = SimConfig {
            transport: match n.routing {
                Routing::Ecmp => Transport::TcpEcmp,
                Routing::Mptcp(_) => Transport::mptcp8(),
            },
            ..SimConfig::default()
        };
        let calls_before = tr.map_or(0.0, route_calls);
        let mut tel = AllocTelemetry::default();
        let t = Instant::now();
        let mut p = provider(&n.routing, tr, delay);
        let (result, audit) = span(tr, "flowsim.engine", || {
            if audited {
                let out = flowsim::simulate_with_telemetry(
                    g,
                    &c.flows,
                    &cfg,
                    &c.schedule,
                    &mut *p,
                    &mut tel,
                )
                .expect("inputs are valid by construction");
                (out.result, Some(out.audit))
            } else {
                (
                    flowsim::simulate_with_provider(g, &c.flows, &cfg, &mut *p),
                    None,
                )
            }
        });
        drop(p);
        let secs = t.elapsed().as_secs_f64();
        let violations = audit.map_or(0, |a| a.violations());
        if let Some(tr) = tr {
            let flows = c.flows.len() as f64;
            let events = flows + result.completed_count() as f64 + c.schedule.events.len() as f64;
            tr.count("flowsim.events", events);
            tr.count("flowsim.reroutes", route_calls(tr) - calls_before - flows);
            if let Some(a) = audit {
                let counts = [
                    a.parked as f64,
                    a.revived as f64,
                    violations as f64,
                    tel.epochs as f64,
                    tel.rounds as f64,
                    tel.dirty_links as f64,
                    tel.link_scans as f64,
                    tel.link_scans_naive as f64,
                ];
                for (name, v) in AUDIT_COUNTERS.into_iter().zip(counts) {
                    tr.count(name, v);
                }
            }
        }
        cells.push(Cell {
            name: c.name.clone(),
            flows: c.flows.len(),
            records: result.records,
            violations,
            secs,
        });
    }
    cells
}

/// Prints each cell's FCT percentiles (ms) in the Fig 8 table layout.
fn print_table(cells: &[Cell]) {
    eprintln!("cell p10 p50 p90 p99 mean done");
    for c in cells {
        let fcts = harness::sorted_fcts_ms(&c.records);
        let mean = fcts.iter().sum::<f64>() / fcts.len() as f64;
        eprintln!(
            "{} {:.3} {:.3} {:.3} {:.3} {:.3} {:.0}%",
            c.name,
            harness::percentile(&fcts, 10.0),
            harness::percentile(&fcts, 50.0),
            harness::percentile(&fcts, 90.0),
            harness::percentile(&fcts, 99.0),
            mean,
            100.0 * fcts.len() as f64 / c.flows as f64
        );
    }
}

/// Runs the workload: untraced end-to-end, or traced per-layer.
pub fn run(kind: Kind, opts: &Opts) -> Result<Report, String> {
    let name = kind.name();
    // Fault-free cells take the Fig 8 entry point; faulted ones the
    // audited one, the only entry point that replays a fault schedule
    // and reports the allocator's counters.
    let audited = kind == Kind::Flaps;
    if !opts.trace {
        let traces = traces(opts.seed);
        let (nets, setup_s) = harness::timed_setups(|| setup(kind, opts.seed, &traces, None));
        let inputs = bind(kind, &nets, &traces, opts.seed);
        let (verdict, flows_per_s) = harness::timed_passes(opts.seconds, || {
            let mut cells = pass(&nets, &inputs, None, opts.route_delay, audited);
            if opts.tables {
                print_table(&cells);
            }
            let secs = cells.iter().map(|c| c.secs).collect();
            (harness::check_pass(name, &mut cells, opts), secs)
        });
        return harness::end_to_end(verdict, flows_per_s, setup_s);
    }
    let tr = Tracer::new();
    let t0 = Instant::now();
    let traces = tr.span("bench.inputs", || traces(opts.seed));
    let nets = setup(kind, opts.seed, &traces, Some(&tr));
    let inputs = tr.span("bench.inputs", || bind(kind, &nets, &traces, opts.seed));
    let u0 = Instant::now();
    let untraced = harness::pass_seconds(&pass(&nets, &inputs, None, opts.route_delay, audited));
    if !audited {
        // One more, audited, pass to read the allocator's counters; its
        // spans and time are not part of the traced run.
        let side = Tracer::new();
        pass(&nets, &inputs, Some(&side), opts.route_delay, true);
        for name in AUDIT_COUNTERS {
            tr.count(name, side.counter(name));
        }
    }
    let excluded = u0.elapsed().as_secs_f64();
    let mut cells = pass(&nets, &inputs, Some(&tr), opts.route_delay, audited);
    let traced = harness::pass_seconds(&cells);
    let verdict = tr.span("bench.check", || {
        harness::check_pass(name, &mut cells, opts)
    });
    let wall = t0.elapsed().as_secs_f64() - excluded;
    Ok(harness::per_layer(
        &tr,
        verdict,
        wall,
        traced,
        untraced,
        &[],
    ))
}
