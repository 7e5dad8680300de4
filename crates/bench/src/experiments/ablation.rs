//! Design-choice ablations the paper points at its prior study for:
//! the §3.2 pod–core wiring patterns ("our previous paper contains
//! evaluation of these wiring patterns") and the §3.4 `(m, n)`
//! sensitivity ("the sensitivity test for this approach is in our prior
//! paper").

use super::common;
use crate::report::{f3, print_table};
use crate::Scale;
use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode, WiringPattern};
use netgraph::metrics::avg_server_path_length;
use serde::{Deserialize, Serialize};

/// One ablation candidate's metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Candidate {
    /// Which knob ("wiring" or "mn").
    pub knob: String,
    /// Candidate label (e.g. "Pattern1" or "(m=1,n=2)").
    pub label: String,
    /// Average server-pair path length in global mode.
    pub global_apl: f64,
    /// Mean permutation-traffic throughput (Gbps, 8-path MPTCP).
    pub permutation_gbps: f64,
}

fn measure(ft: &FlatTree, seed: u64) -> (f64, f64) {
    let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
    let apl = avg_server_path_length(&inst.net.graph).expect("nonempty");
    let pairs = traffic::patterns::permutation(inst.net.num_servers(), seed);
    let table = common::route_table(&inst.net, &pairs, 8);
    let rates = common::mptcp_rates(&inst.net, &pairs, &table);
    (apl, crate::report::mean(&rates))
}

/// Runs both ablations on the topo-1 mini device set.
pub fn run(scale: Scale) -> Vec<Candidate> {
    let clos = common::topo(1, scale.full);
    let mut out = Vec::new();

    // Wiring pattern ablation, at an (m, n) where the patterns differ
    // (m = 2 shares a factor with h/r on this layout).
    for pattern in [WiringPattern::Pattern1, WiringPattern::Pattern2] {
        let mut params = FlatTreeParams::new(clos, 2, 1);
        params.wiring = pattern;
        let Ok(ft) = FlatTree::new(params) else {
            continue; // a pattern can be infeasible for this (m, n); skip
        };
        let (apl, thr) = measure(&ft, scale.seed);
        out.push(Candidate {
            knob: "wiring".into(),
            label: format!("{pattern:?}"),
            global_apl: apl,
            permutation_gbps: thr,
        });
    }

    // (m, n) sensitivity across the feasible grid.
    for point in flat_tree::profile::profile_mn(&clos) {
        let params = FlatTreeParams::new(clos, point.m, point.n);
        let Ok(ft) = FlatTree::new(params) else {
            continue;
        };
        let (apl, thr) = measure(&ft, scale.seed);
        out.push(Candidate {
            knob: "mn".into(),
            label: format!("(m={},n={})", point.m, point.n),
            global_apl: apl,
            permutation_gbps: thr,
        });
    }
    out
}

/// The §3.4 selection rule cross-checked against throughput: does the
/// APL-minimizing (m, n) land within `tolerance` of the
/// throughput-maximizing one? Returns (apl_best, throughput_best).
pub fn profiling_agreement(cands: &[Candidate]) -> (String, String) {
    let mn: Vec<&Candidate> = cands.iter().filter(|c| c.knob == "mn").collect();
    let apl_best = mn
        .iter()
        .min_by(|a, b| a.global_apl.total_cmp(&b.global_apl))
        .expect("nonempty");
    let thr_best = mn
        .iter()
        .max_by(|a, b| a.permutation_gbps.total_cmp(&b.permutation_gbps))
        .expect("nonempty");
    (apl_best.label.clone(), thr_best.label.clone())
}

/// Prints both ablations.
pub fn print(cands: &[Candidate]) {
    let body: Vec<Vec<String>> = cands
        .iter()
        .map(|c| {
            vec![
                c.knob.clone(),
                c.label.clone(),
                f3(c.global_apl),
                f3(c.permutation_gbps),
            ]
        })
        .collect();
    print_table(
        "Ablations: wiring pattern and (m, n) sensitivity (extension)",
        &["knob", "candidate", "global-mode APL", "permutation Gbps"],
        &body,
    );
    let (apl_best, thr_best) = profiling_agreement(cands);
    // ftlint::allow(FTL-R002): part of the golden stdout contract the experiment bins print
    println!(
        "\n§3.4 profiling picks {apl_best} by path length; \
         throughput prefers {thr_best}"
    );
}
