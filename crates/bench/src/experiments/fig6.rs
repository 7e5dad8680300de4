//! Figure 6 — average flow throughput of MPTCP + k-shortest-path routing
//! (k ∈ {4, 8, 12}) against the LP baselines, normalized to LP minimum,
//! on four flat-tree configurations (topo-1 global, topo-1 local,
//! topo-2 global, topo-5 global) and the four synthetic traffics of §5.1.

use super::common;
use crate::report::{f3, print_table};
use crate::sweep::sweep;
use crate::Scale;
use flat_tree::{FlatTreeInstance, PodMode};
use mcf::concurrent::max_concurrent_flow;
use mcf::greedy::{max_total_flow, mean};
use routing::RouteTable;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topology::DcNetwork;
use traffic::patterns;

/// The four panels of Figure 6.
pub const PANELS: [(usize, PodMode); 4] = [
    (1, PodMode::Global),
    (1, PodMode::Local),
    (2, PodMode::Global),
    (5, PodMode::Global),
];

/// One (panel, traffic) measurement, all values normalized to LP-min.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Topology index (Table 2 row).
    pub topo: usize,
    /// Flat-tree mode.
    pub mode: String,
    /// Traffic pattern name (traffic-1..4).
    pub traffic: String,
    /// LP minimum (always 1.0 after normalization).
    pub lp_min: f64,
    /// LP average, normalized.
    pub lp_avg: f64,
    /// MPTCP with 4/8/12 paths, normalized.
    pub mptcp: [f64; 3],
}

/// The four §5.1 traffic patterns over a network of `n` servers grouped
/// into `pods` pods.
pub fn traffics(n: usize, pods: usize, seed: u64) -> Vec<(String, Vec<(usize, usize)>)> {
    let per_pod = n / pods;
    let hot = if n >= 200 { 100 } else { (n / 2).max(4) };
    let m2m = if n >= 40 { 20 } else { (n / 4).max(2) };
    vec![
        ("traffic-1".into(), patterns::permutation(n, seed)),
        ("traffic-2".into(), patterns::pod_stride(pods, per_pod)),
        ("traffic-3".into(), patterns::hot_spot(n, hot)),
        ("traffic-4".into(), patterns::clustered_all_to_all(n, m2m)),
    ]
}

/// One (panel, traffic) job for the sweep driver. The route tables are
/// per-(panel, k), built once and shared across the panel's four
/// traffic cells instead of a private lazy table per cell.
struct Job<'a> {
    topo: usize,
    mode: PodMode,
    net: &'a DcNetwork,
    tname: String,
    pairs: Vec<(usize, usize)>,
    tables: Arc<[Arc<RouteTable>]>,
}

/// Runs all panels: the (panel, traffic) cells are independent, so they
/// go through [`sweep`] and come back in panel-major order.
pub fn run(scale: Scale) -> Vec<Cell> {
    let ks = [4usize, 8, 12];
    // Topology construction is cheap next to the LP/MPTCP cells; build
    // every panel's instance serially, then fan the cells out.
    let insts: Vec<(usize, PodMode, FlatTreeInstance)> = PANELS
        .iter()
        .map(|&(topo_idx, mode)| {
            let clos = common::topo(topo_idx, scale.full);
            let ft = common::flat_tree_over(clos);
            (topo_idx, mode, common::instance(&ft, mode))
        })
        .collect();
    let jobs: Vec<Job> = insts
        .iter()
        .flat_map(|(topo_idx, mode, inst)| {
            let net = &inst.net;
            let tr = traffics(net.num_servers(), net.num_pods(), scale.seed);
            // Precompute one route table per k over the union of this
            // panel's traffic pairs; all four cells share them.
            let union: Vec<(usize, usize)> =
                tr.iter().flat_map(|(_, p)| p.iter().copied()).collect();
            let tables: Arc<[Arc<RouteTable>]> = ks
                .iter()
                .map(|&k| common::route_table(net, &union, k))
                .collect();
            tr.into_iter().map(move |(tname, pairs)| Job {
                topo: *topo_idx,
                mode: *mode,
                net,
                tname,
                pairs,
                tables: tables.clone(),
            })
        })
        .collect();
    sweep(&jobs, |_, job| {
        let net = job.net;
        // LP baselines with NIC-rate demands.
        let coms = common::commodities(net, &job.pairs, common::nic_gbps());
        let lp_min = max_concurrent_flow(&net.graph, &coms, 0.12);
        let lp_min_avg = lp_min.lambda * common::nic_gbps();
        // The true LP-average optimum is >= both the greedy packing
        // value and the LP-min average (the LP-min solution is
        // feasible for the average objective), so report the better
        // of the two lower bounds.
        let lp_avg = mean(&max_total_flow(&net.graph, &coms)).max(lp_min_avg);
        let mut mptcp = [0.0f64; 3];
        for (i, table) in job.tables.iter().enumerate() {
            let rates = common::mptcp_rates(net, &job.pairs, table);
            mptcp[i] = crate::report::mean(&rates) / lp_min_avg;
        }
        Cell {
            topo: job.topo,
            mode: format!("{:?}", job.mode).to_lowercase(),
            traffic: job.tname.clone(),
            lp_min: 1.0,
            lp_avg: lp_avg / lp_min_avg,
            mptcp,
        }
    })
}

/// Prints the cells as one table (panel-major).
pub fn print(cells: &[Cell]) {
    let body: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("topo-{} {}", c.topo, c.mode),
                c.traffic.clone(),
                f3(c.lp_min),
                f3(c.lp_avg),
                f3(c.mptcp[0]),
                f3(c.mptcp[1]),
                f3(c.mptcp[2]),
            ]
        })
        .collect();
    print_table(
        "Figure 6: avg flow throughput normalized to LP minimum",
        &[
            "topology", "traffic", "LP min", "LP avg", "MPTCP-4", "MPTCP-8", "MPTCP-12",
        ],
        &body,
    );
}
