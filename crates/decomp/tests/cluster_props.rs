//! Property tests for clustering soundness and the decomposition's
//! accuracy contract.

use decomp::{cluster, decompose, signatures, DecompConfig, LinkPop, PopFlow};
use flowsim::{FlowSpec, RunOpts, SimConfig, Transport};
use netgraph::{Graph, LinkId, NodeId, NodeKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `n` parallel 10G links between two switches, each carrying a random
/// population drawn from `seed`.
fn random_pops(n_links: usize, seed: u64) -> (Graph, Vec<LinkPop>) {
    let mut g = Graph::new();
    let a = g.add_node(NodeKind::EdgeSwitch, "a");
    let b = g.add_node(NodeKind::EdgeSwitch, "b");
    for _ in 0..n_links {
        g.add_directed_link(a, b, 10.0);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pops = (0..n_links)
        .map(|l| {
            let n_flows = rng.gen_range(1..6);
            LinkPop {
                link: LinkId(l as u32),
                flows: (0..n_flows)
                    .map(|i| PopFlow {
                        idx: i,
                        bytes: rng.gen_range(1e4..1e9),
                        start: rng.gen_range(0.0..1.0),
                        access_gbps: 10.0,
                    })
                    .collect(),
            }
        })
        .collect();
    (g, pops)
}

/// Dumbbell with one dedicated 10G access link per server on each side
/// and a single shared 10G core link: the canonical first-order-closed
/// topology, where the decomposition must be exact.
fn dumbbell(n: usize) -> (Graph, Vec<NodeId>, Vec<NodeId>) {
    let mut g = Graph::new();
    let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
    let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
    g.add_duplex_link(e0, e1, 10.0);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..n {
        let s = g.add_node(NodeKind::Server, format!("l{i}"));
        g.add_duplex_link(s, e0, 10.0);
        left.push(s);
        let t = g.add_node(NodeKind::Server, format!("r{i}"));
        g.add_duplex_link(t, e1, 10.0);
        right.push(t);
    }
    (g, left, right)
}

fn exact_cfg() -> SimConfig {
    SimConfig {
        transport: Transport::TcpEcmp,
        link_failures: Vec::new(),
        record_series: false,
    }
}

fn sorted_fcts(r: &flowsim::SimResult) -> Vec<f64> {
    let mut v: Vec<f64> = r.records.iter().filter_map(|rec| rec.fct()).collect();
    v.sort_by(f64::total_cmp);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clustering soundness: every member is within the threshold of
    /// its cluster's representative, the representative is the first
    /// member, and the assignment partitions the population list.
    #[test]
    fn members_stay_within_threshold_of_representative(
        n_links in 1usize..24,
        seed in any::<u64>(),
        threshold in 0.0f64..1.0,
    ) {
        let (g, pops) = random_pops(n_links, seed);
        let sigs = signatures(&g, &pops);
        let c = cluster(&sigs, threshold, true);
        prop_assert_eq!(c.assign.len(), n_links);
        let mut seen = vec![false; n_links];
        for (ci, info) in c.clusters.iter().enumerate() {
            prop_assert_eq!(info.members[0], info.rep);
            for &m in &info.members {
                prop_assert!(!seen[m], "population {} in two clusters", m);
                seen[m] = true;
                prop_assert_eq!(c.assign[m], ci);
                let d = sigs[info.rep].distance(&sigs[m]);
                prop_assert!(
                    d <= threshold,
                    "member {} at distance {} > threshold {}", m, d, threshold
                );
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some population unassigned");
        // Disabled clustering always yields singletons.
        let single = cluster(&sigs, threshold, false);
        prop_assert_eq!(single.clusters.len(), n_links);
    }

    /// First-order-closed exactness: on a dumbbell (single shared
    /// bottleneck, dedicated access legs) every cluster representative
    /// replays the global schedule, so random sizes and staggered
    /// starts still reproduce the exact engine to float precision —
    /// with clustering on and off.
    #[test]
    fn singleton_exact_on_shared_bottleneck(
        n_flows in 1usize..8,
        seed in any::<u64>(),
        clustering in prop::bool::ANY,
    ) {
        let (g, left, right) = dumbbell(n_flows);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| FlowSpec {
                id: i as u64,
                src: left[i],
                dst: right[i],
                bytes: rng.gen_range(1e5..5e8),
                start: rng.gen_range(0.0..0.2),
            })
            .collect();
        let exact = flowsim::run(&g, &flows, &exact_cfg(), RunOpts::default())
            .expect("valid workload")
            .result;
        let cfg = DecompConfig { threshold: 0.0, clustering };
        let out = decompose(&g, &flows, &cfg).expect("valid workload");
        for (a, b) in out.result.records.iter().zip(&exact.records) {
            let fa = a.fct();
            let fb = b.fct();
            prop_assert!(fa.is_some() && fb.is_some(), "flow {} unfinished", a.id);
            let (fa, fb) = (fa.unwrap_or(0.0), fb.unwrap_or(0.0));
            prop_assert!(
                (fa - fb).abs() / fb <= 1e-6,
                "flow {}: decomposed {} vs exact {}", a.id, fa, fb
            );
        }
    }

    /// General-workload accuracy contract: on a k=4 fat-tree with
    /// random simultaneous flows, the decomposed FCT distribution stays
    /// within W1 <= 50% of the exact mean FCT (the documented worst
    /// case; symmetric workloads measure far lower — see
    /// `tests/validation.rs`), and every flow completes.
    #[test]
    fn decomposed_distribution_within_documented_bound(
        n_flows in 2usize..20,
        seed in any::<u64>(),
    ) {
        let net = topology::fat_tree(4).build().net;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n_servers = net.servers.len();
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| {
                let s = rng.gen_range(0..n_servers);
                let mut d = rng.gen_range(0..n_servers);
                while d == s {
                    d = rng.gen_range(0..n_servers);
                }
                FlowSpec {
                    id: i as u64,
                    src: net.servers[s],
                    dst: net.servers[d],
                    bytes: rng.gen_range(1e5..1e8),
                    start: 0.0,
                }
            })
            .collect();
        let exact = flowsim::run(&net.graph, &flows, &exact_cfg(), RunOpts::default())
            .expect("valid workload")
            .result;
        let out = decompose(&net.graph, &flows, &DecompConfig::default())
            .expect("valid workload");
        let ef = sorted_fcts(&exact);
        let df = sorted_fcts(&out.result);
        prop_assert_eq!(ef.len(), n_flows);
        prop_assert_eq!(df.len(), n_flows);
        let mean = ef.iter().sum::<f64>() / ef.len() as f64;
        let dist = decomp::w1(&df, &ef);
        prop_assert!(
            dist <= 0.5 * mean,
            "W1 {} exceeds 50% of exact mean FCT {}", dist, mean
        );
    }
}
