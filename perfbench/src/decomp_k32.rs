//! `decomp_k32`: the decomposed simulation of a k=32 fat-tree (8,192
//! servers) and its three uniform flat-tree conversions, each carrying
//! an 8,192-flow permutation — the production-scale pass `bigsim --full`
//! runs. Its time goes to ECMP routing inside `decomp::populations`
//! and, in set-up, to the flat-tree `(m, n)` profiling sweep.

use crate::harness::{self, Cell, Opts, Report};
use crate::trace::{span, Delayed, Traced, Tracer, ECMP};
use decomp::DecompConfig;
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{EcmpProvider, FlowSpec, PathProvider};
use std::time::{Duration, Instant};
use topology::{fat_tree, DcNetwork};

const NAME: &str = "decomp_k32";
/// Fat-tree arity.
const K: usize = 32;
/// Bytes per permutation flow (as `bigsim`).
const FLOW_BYTES: f64 = 1e7;

/// The fat-tree and the flat-tree in each uniform mode, built over the
/// same k=32 layout with the profiled `(m, n)`.
fn setup(tr: Option<&Tracer>) -> Vec<(&'static str, DcNetwork)> {
    let clos = fat_tree(K);
    let fat = span(tr, "topology.build", || clos.build().net);
    let (m, n) = span(tr, "core.profile.best_mn", || {
        flat_tree::profile::best_mn(&clos)
    })
    .expect("a fat-tree is profilable");
    let mut nets = vec![("fat-tree", fat)];
    span(tr, "topology.build", || {
        let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid flat-tree params");
        for (name, mode) in [
            ("flat-tree/clos", PodMode::Clos),
            ("flat-tree/local", PodMode::Local),
            ("flat-tree/global", PodMode::Global),
        ] {
            let net = ft
                .instantiate(&ModeAssignment::uniform(ft.pods(), mode))
                .net;
            nets.push((name, net));
        }
    });
    nets
}

/// One permutation from the seed, bound to each network's servers.
fn bind(nets: &[(&'static str, DcNetwork)], pairs: &[(usize, usize)]) -> Vec<Vec<FlowSpec>> {
    nets.iter()
        .map(|(_, net)| {
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| FlowSpec {
                    id: i as u64,
                    src: net.servers[s],
                    dst: net.servers[d],
                    bytes: FLOW_BYTES,
                    start: 0.0,
                })
                .collect()
        })
        .collect()
}

/// The ECMP provider `decomp::decompose` uses, delayed and traced as
/// requested.
fn provider<'t>(tr: Option<&'t Tracer>, delay: Option<Duration>) -> Box<dyn PathProvider + 't> {
    let mut p: Box<dyn PathProvider + 't> = Box::new(EcmpProvider::new());
    if let Some(d) = delay {
        p = Box::new(Delayed::new(p, d));
    }
    match tr {
        Some(t) => Box::new(Traced::new(p, t, &ECMP)),
        None => p,
    }
}

/// Prints one network's row of the `bigsim` table (times in ms).
fn print_row(name: &str, out: &decomp::DecompOutcome) {
    let fcts = harness::sorted_fcts_ms(&out.result.records);
    let s = &out.stats;
    eprintln!(
        "{name} {}/{} links {} clusters {} simflows {} mean {:.3} p50 {:.3} p99 {:.3} max {:.3}",
        fcts.len(),
        s.flows,
        s.loaded_links,
        s.clusters,
        s.sim_flows,
        fcts.iter().sum::<f64>() / fcts.len() as f64,
        harness::percentile(&fcts, 50.0),
        harness::percentile(&fcts, 99.0),
        fcts[fcts.len() - 1]
    );
}

/// Decomposes every network once.
fn pass(
    nets: &[(&'static str, DcNetwork)],
    flows: &[Vec<FlowSpec>],
    tr: Option<&Tracer>,
    opts: &Opts,
) -> Vec<Cell> {
    let cfg = DecompConfig::default();
    let mut cells = Vec::with_capacity(nets.len());
    for ((name, net), flows) in nets.iter().zip(flows) {
        let t = Instant::now();
        let mut p = provider(tr, opts.route_delay);
        let out = span(tr, "decomp.decompose", || {
            decomp::decompose_with_provider(&net.graph, flows, &cfg, &mut *p)
        })
        .expect("a permutation is valid and single-path");
        drop(p);
        let secs = t.elapsed().as_secs_f64();
        if let Some(tr) = tr {
            tr.count("decomp.loaded_links", out.stats.loaded_links as f64);
            tr.count("decomp.clusters", out.stats.clusters as f64);
            tr.count("decomp.sim_flows", out.stats.sim_flows as f64);
        }
        if opts.tables {
            print_row(name, &out);
        }
        cells.push(Cell {
            name: (*name).to_string(),
            flows: flows.len(),
            records: out.result.records,
            violations: 0,
            secs,
        });
    }
    cells
}

/// Runs `decompose`'s stages one by one through their public entry
/// points, each in its own span of `tr`, with route calls as child
/// spans. Returns the memory high-water mark (MB) right after the first
/// `populations` call.
fn stages(
    nets: &[(&'static str, DcNetwork)],
    flows: &[Vec<FlowSpec>],
    tr: &Tracer,
    delay: Option<Duration>,
) -> Result<f64, String> {
    let cfg = DecompConfig::default();
    let mut hwm = None;
    for ((_, net), flows) in nets.iter().zip(flows) {
        let g = &net.graph;
        let mut p = provider(Some(tr), delay);
        let (pops, _paths) = tr
            .span("decomp.populations", || {
                decomp::populations(g, flows, &mut *p)
            })
            .expect("a permutation is valid and single-path");
        if hwm.is_none() {
            hwm = Some(harness::peak_rss_mb()?);
        }
        let sigs = tr.span("decomp.signatures", || decomp::signatures(g, &pops));
        let clusters = tr.span("decomp.cluster", || {
            decomp::cluster(&sigs, cfg.threshold, cfg.clustering)
        });
        tr.span("decomp.link_sim", || {
            for info in &clusters.clusters {
                let pop = &pops[info.rep];
                decomp::simulate_link_local(g.link(pop.link).capacity_gbps, pop)
                    .expect("a loaded link's population is valid");
            }
        });
    }
    hwm.ok_or_else(|| "no network to decompose".to_string())
}

/// Runs the workload: untraced end-to-end, or traced per-layer.
pub fn run(opts: &Opts) -> Result<Report, String> {
    if !opts.trace {
        let pairs = traffic::patterns::permutation(fat_tree(K).total_servers(), opts.seed);
        let (nets, setup_s) = harness::timed_setups(|| setup(None));
        let flows = bind(&nets, &pairs);
        let (verdict, flows_per_s) = harness::timed_passes(opts.seconds, || {
            let mut cells = pass(&nets, &flows, None, opts);
            let secs = cells.iter().map(|c| c.secs).collect();
            (harness::check_pass(NAME, &mut cells, opts), secs)
        });
        return harness::end_to_end(verdict, flows_per_s, setup_s);
    }
    // The traced run is set-up plus one traced `decompose` pass. Two
    // more passes sit outside its wall time: the same pass untraced, for
    // the tracing overhead, and a stage-by-stage pass in a tracer of its
    // own, which splits `decompose`'s self time into its stages.
    let tr = Tracer::new();
    let t0 = Instant::now();
    let pairs = tr.span("bench.inputs", || {
        traffic::patterns::permutation(fat_tree(K).total_servers(), opts.seed)
    });
    let nets = setup(Some(&tr));
    let flows = tr.span("bench.inputs", || bind(&nets, &pairs));
    let x0 = Instant::now();
    let stage_tr = Tracer::new();
    let hwm = stages(&nets, &flows, &stage_tr, opts.route_delay)?;
    let quiet = Opts {
        tables: false,
        ..opts.clone()
    };
    let untraced = harness::pass_seconds(&pass(&nets, &flows, None, &quiet));
    let excluded = x0.elapsed().as_secs_f64();
    let mut cells = pass(&nets, &flows, Some(&tr), opts);
    let traced = harness::pass_seconds(&cells);
    let verdict = tr.span("bench.check", || {
        harness::check_pass(NAME, &mut cells, opts)
    });
    let wall = t0.elapsed().as_secs_f64() - excluded;
    // `decompose`'s self time minus its stages' self times: what its
    // private aggregation costs (a residual, so it carries their noise).
    let stage = stage_tr.self_seconds();
    let secs = |s: &str| stage.get(s).copied().unwrap_or(0.0);
    let decompose_self = tr
        .self_seconds()
        .get("decomp.decompose")
        .copied()
        .unwrap_or(0.0);
    let names = [
        "decomp.populations",
        "decomp.signatures",
        "decomp.cluster",
        "decomp.link_sim",
    ];
    let aggregate = decompose_self - names.iter().map(|s| secs(s)).sum::<f64>();
    Ok(harness::per_layer(
        &tr,
        verdict,
        wall,
        traced,
        untraced,
        &[
            ("decomp.populations_s", secs(names[0])),
            ("decomp.signatures_s", secs(names[1])),
            ("decomp.cluster_s", secs(names[2])),
            ("decomp.link_sim_s", secs(names[3])),
            ("decomp.populations_hwm_mb", hwm),
            ("decomp.aggregate_s", aggregate),
        ],
    ))
}
