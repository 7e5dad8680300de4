//! Golden equivalence test for the reworked simulation engine.
//!
//! Runs a fixed scenario — mini topo-2 flat-tree in global mode, a
//! seeded permutation workload over MPTCP-8, one timed cable failure
//! mid-run — through both the interned-path engine
//! ([`flowsim::run`]) and the preserved pre-refactor engine
//! ([`flowsim::reference::simulate_reference`]) and pins the outputs to
//! each other **bit for bit**: every record, every series point, the end
//! time. Any numeric drift in the refactored event loop fails here.

use flat_tree::PodMode;
use flowsim::reference::simulate_reference;
use flowsim::{run, LinkFailure, RunOpts, SimConfig, Transport};
use ft_bench::experiments::common;
use netgraph::{Graph, LinkId};

/// First switch-to-switch cable of the graph, in link-id order — a
/// deterministic pick that is always a core-facing link on this topology.
fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("topology has switch-switch links")
}

#[test]
fn engines_agree_bit_for_bit_on_golden_scenario() {
    let ft = common::flat_tree_over(common::mini_topo(2));
    let net = common::instance(&ft, PodMode::Global).net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 7);
    // ~0.5 s at full NIC rate, so the 0.2 s failure hits mid-flight and
    // forces a re-route of the affected connections.
    let flows = common::flow_specs(&net, &pairs, 6.25e8);
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        link_failures: vec![LinkFailure {
            time: 0.2,
            link: first_cable(&net.graph),
        }],
        record_series: true,
    };

    let new = run(&net.graph, &flows, &cfg, RunOpts::default())
        .expect("valid scenario")
        .result;
    let old = simulate_reference(&net.graph, &flows, &cfg);

    assert_eq!(new.records.len(), old.records.len());
    for (a, b) in new.records.iter().zip(&old.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "flow {}", a.id);
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "flow {}", a.id);
        match (a.finish, b.finish) {
            (Some(x), Some(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "flow {} finish", a.id);
            }
            (None, None) => {}
            _ => panic!(
                "flow {}: finish mismatch {:?} vs {:?}",
                a.id, a.finish, b.finish
            ),
        }
    }
    assert_eq!(new.series.len(), old.series.len());
    for ((t1, v1), (t2, v2)) in new.series.iter().zip(&old.series) {
        assert_eq!(t1.to_bits(), t2.to_bits());
        assert_eq!(v1.to_bits(), v2.to_bits());
    }
    assert_eq!(new.end_time.to_bits(), old.end_time.to_bits());
    // Sanity: the scenario actually exercises what it claims to.
    assert!(new.end_time > 0.2, "failure must land mid-run");
    assert!(new.records.iter().filter(|r| r.finish.is_some()).count() > 0);
}
