//! Hybrid mode as a product feature (§2.1, §3.5, §5.2): "the flat-tree
//! network is organized into functionally separate zones each having a
//! different topology. Clusters of different sizes can be placed into
//! suitable zones to optimize their performance."
//!
//! Two tenants share a 4-pod flat-tree: a rack-local "Hadoop" tenant in
//! pods 0-1 and a network-wide "analytics" tenant in pods 2-3. We measure
//! both tenants' mean FCT under uniform Clos, uniform global, and the
//! hybrid assignment [Clos, Clos, Global, Global]: the hybrid should give
//! *each* tenant (approximately) its best-mode performance at once.

use super::common;
use crate::report::{f3, print_table};
use crate::Scale;
use flat_tree::{FlatTreeInstance, ModeAssignment, PodMode};
use flowsim::{FlowSpec, RunOpts, SimConfig, Transport};
use serde::{Deserialize, Serialize};

/// Mean FCT (ms) of both tenants under one assignment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Assignment label.
    pub assignment: String,
    /// Rack-local tenant (pods 0-1) mean FCT in ms.
    pub rack_tenant_ms: f64,
    /// Network-wide tenant (pods 2-3) mean FCT in ms.
    pub wide_tenant_ms: f64,
}

fn tenant_flows(
    inst: &FlatTreeInstance,
    pods: std::ops::Range<usize>,
    rack_local: bool,
    rack_size: usize,
    bytes: f64,
) -> Vec<FlowSpec> {
    let mut servers = Vec::new();
    for p in pods {
        servers.extend(inst.net.pod_servers[p].iter().copied());
    }
    let n = servers.len();
    let mut flows = Vec::new();
    for (i, &src) in servers.iter().enumerate() {
        let dst = if rack_local {
            let base = i / rack_size * rack_size;
            servers[base + (i + 1 - base) % rack_size]
        } else {
            servers[(i + n / 2) % n]
        };
        if dst != src {
            flows.push(FlowSpec {
                id: i as u64,
                src,
                dst,
                bytes,
                start: 0.0,
            });
        }
    }
    flows
}

fn mean_fct_ms(inst: &FlatTreeInstance, flows: &[FlowSpec]) -> f64 {
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 4,
            coupled: true,
        },
        ..SimConfig::default()
    };
    let res = flowsim::run(&inst.net.graph, flows, &cfg, RunOpts::default())
        .expect("workload is valid")
        .result;
    res.mean_fct().expect("flows complete") * 1e3
}

/// Runs all three assignments.
pub fn run(scale: Scale) -> Vec<Row> {
    let clos = common::topo(1, scale.full);
    let rack_size = clos.servers_per_edge;
    let ft = common::flat_tree_over(clos);
    let pods = ft.pods();
    assert!(pods >= 4, "hybrid experiment needs >= 4 pods");
    let half = pods / 2;
    let assignments = vec![
        (
            "uniform-clos".to_string(),
            ModeAssignment::uniform(pods, PodMode::Clos),
        ),
        (
            "uniform-global".to_string(),
            ModeAssignment::uniform(pods, PodMode::Global),
        ),
        (
            "hybrid".to_string(),
            ModeAssignment::hybrid(
                (0..pods)
                    .map(|p| {
                        if p < half {
                            PodMode::Clos
                        } else {
                            PodMode::Global
                        }
                    })
                    .collect(),
            ),
        ),
    ];
    let bytes = 2e8;
    assignments
        .into_iter()
        .map(|(label, a)| {
            let inst = ft.instantiate(&a);
            let rack = tenant_flows(&inst, 0..half, true, rack_size, bytes);
            let wide = tenant_flows(&inst, half..pods, false, rack_size, bytes);
            Row {
                assignment: label,
                rack_tenant_ms: mean_fct_ms(&inst, &rack),
                wide_tenant_ms: mean_fct_ms(&inst, &wide),
            }
        })
        .collect()
}

/// Prints the comparison.
pub fn print(rows: &[Row]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.assignment.clone(),
                f3(r.rack_tenant_ms),
                f3(r.wide_tenant_ms),
            ]
        })
        .collect();
    print_table(
        "Hybrid zones: per-tenant mean FCT (ms) (extension)",
        &["assignment", "rack-local tenant", "network-wide tenant"],
        &body,
    );
}
