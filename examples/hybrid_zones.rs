//! Hybrid mode (§3.5): functionally separate zones, each with its own
//! topology, serving workloads with different locality — the paper's
//! production-data-center deployment story.
//!
//! Pods 0-1 form a "Hadoop zone" kept in Clos mode (rack-local traffic);
//! pods 2-3 form an "analytics zone" in global mode (network-wide
//! traffic). Each workload is measured in its own zone, then the zones
//! are swapped to show the network reorganizing for migrated services.
//!
//! Run with: `cargo run -p ft-bench --release --example hybrid_zones`

use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{run, FlowSpec, RunOpts, SimConfig, Transport};
use topology::ClosParams;

fn zone_flows(
    inst: &flat_tree::FlatTreeInstance,
    pods: std::ops::Range<usize>,
    rack_local: bool,
    bytes: f64,
) -> Vec<FlowSpec> {
    // Rack-local: ring within each rack; network-wide: ring across the
    // zone's pods.
    let mut servers: Vec<netgraph::NodeId> = Vec::new();
    for p in pods {
        servers.extend(&inst.net.pod_servers[p]);
    }
    let n = servers.len();
    let mut flows = Vec::new();
    for (i, &src) in servers.iter().enumerate() {
        let dst = if rack_local {
            // next server in the same rack block of 4
            let base = i / 4 * 4;
            servers[base + (i + 1 - base) % 4]
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

fn mean_fct(inst: &flat_tree::FlatTreeInstance, flows: &[FlowSpec]) -> f64 {
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 4,
            coupled: true,
        },
        ..SimConfig::default()
    };
    let res = run(&inst.net.graph, flows, &cfg, RunOpts::default())
        .expect("valid workload")
        .result;
    res.mean_fct().expect("flows complete")
}

fn main() {
    let clos = ClosParams::mini();
    let ft = FlatTree::new(FlatTreeParams::new(clos, 1, 1)).unwrap();

    let hybrid = ModeAssignment::hybrid(vec![
        PodMode::Clos,
        PodMode::Clos,
        PodMode::Global,
        PodMode::Global,
    ]);
    let inst = ft.instantiate(&hybrid);
    println!("network: {} ({} pods)", inst.net.name, ft.pods());

    let hadoop = zone_flows(&inst, 0..2, true, 2e8);
    let analytics = zone_flows(&inst, 2..4, false, 2e8);
    println!(
        "zoned:    hadoop(rack-local in Clos zone) mean FCT {:.1} ms, \
         analytics(wide in global zone) {:.1} ms",
        mean_fct(&inst, &hadoop) * 1e3,
        mean_fct(&inst, &analytics) * 1e3
    );

    // Now pretend the services swapped pods without reconfiguring: the
    // analytics workload lands in the Clos zone and suffers.
    let misplaced = zone_flows(&inst, 0..2, false, 2e8);
    println!(
        "misplaced: analytics in the Clos zone -> {:.1} ms",
        mean_fct(&inst, &misplaced) * 1e3
    );

    // The operator reorganizes the zones (§3.5: "as the workloads change,
    // the network can be reorganized").
    let swapped = ModeAssignment::hybrid(vec![
        PodMode::Global,
        PodMode::Global,
        PodMode::Clos,
        PodMode::Clos,
    ]);
    let inst2 = ft.instantiate(&swapped);
    let fixed = zone_flows(&inst2, 0..2, false, 2e8);
    println!(
        "converted: pods 0-1 switched to global -> {:.1} ms",
        mean_fct(&inst2, &fixed) * 1e3
    );
}
