//! ECMP by shortest-path-DAG unranking against the enumeration oracle.
//!
//! `EcmpProvider` must pick, for every flow, exactly the path the old
//! per-pair enumeration picked: member `flow_hash % n` of the surviving
//! equal-cost set in lexicographic order (`ecmp::equal_cost_paths`,
//! which is uncapped, so the comparison covers every set size), or the
//! failure-aware shortest path when nothing survives. Covered: random
//! duplex graphs with switch and server endpoints, flat-trees in every
//! mode, random failure epochs, and one-way link-local graphs. The last
//! test pins the fix for the old 512-path cap at k=64.

use flat_tree::{profile, FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::{EcmpProvider, FailedLinks, FlowSpec, PathProvider};
use netgraph::{dijkstra, ecmp, Graph, LinkId, NodeId, NodeKind, Path, PathArena};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use topology::{fat_tree, ClosParams};

fn spec(id: u64, src: NodeId, dst: NodeId) -> FlowSpec {
    FlowSpec {
        id,
        src,
        dst,
        bytes: 1.0,
        start: 0.0,
    }
}

/// The path the old provider chose for `spec` under `failed`.
fn oracle(g: &Graph, failed: &FailedLinks, spec: &FlowSpec) -> Option<Path> {
    let survivors: Vec<Path> = ecmp::equal_cost_paths(g, spec.src, spec.dst)
        .into_iter()
        .filter(|p| failed.path_alive(&p.links))
        .collect();
    match ecmp::select_by_hash(&survivors, spec.src, spec.dst, spec.id) {
        Some(p) => Some(p.clone()),
        None => dijkstra::shortest_path_by(g, spec.src, spec.dst, |l| {
            if failed.is_down(l) {
                f64::INFINITY
            } else {
                1.0
            }
        })
        .map(|(_, p)| p),
    }
}

/// Routes `flows` through `p` and compares each route with the oracle.
fn check(
    g: &Graph,
    p: &mut EcmpProvider,
    arena: &mut PathArena,
    failed: &FailedLinks,
    flows: &[FlowSpec],
) -> Result<(), TestCaseError> {
    for f in flows {
        let got = p
            .route(g, arena, failed, f)
            .map(|c| arena.get(c.path_ids[0]).clone());
        prop_assert_eq!(got, oracle(g, failed, f), "flow {:?}", f);
    }
    Ok(())
}

/// All-up, under `down`, and all-up again, through one provider, so
/// survivor counts and fallbacks must also be dropped on recovery.
fn check_epochs(g: &Graph, flows: &[FlowSpec], down: &[LinkId]) -> Result<(), TestCaseError> {
    let mut p = EcmpProvider::new();
    let mut arena = PathArena::new();
    let mut failed = FailedLinks::new(g.link_count());
    check(g, &mut p, &mut arena, &failed, flows)?;
    for &l in down {
        failed.fail(l);
    }
    check(g, &mut p, &mut arena, &failed, flows)?;
    failed.set_all_up();
    check(g, &mut p, &mut arena, &failed, flows)
}

/// Each directed link down with probability `p_down`.
fn random_down(g: &Graph, p_down: f64, rng: &mut ChaCha8Rng) -> Vec<LinkId> {
    g.link_ids().filter(|_| rng.gen_bool(p_down)).collect()
}

/// A connected random switch graph (spanning tree plus extra and
/// parallel cables) with servers on one switch each, or two for a few.
fn random_graph(switches: usize, extra: usize, servers: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    let kinds = [
        NodeKind::EdgeSwitch,
        NodeKind::AggSwitch,
        NodeKind::CoreSwitch,
        NodeKind::GenericSwitch,
    ];
    let sw: Vec<NodeId> = (0..switches)
        .map(|i| g.add_node(kinds[rng.gen_range(0..kinds.len())], format!("sw{i}")))
        .collect();
    for i in 1..switches {
        let parent = rng.gen_range(0..i);
        g.add_duplex_link(sw[i], sw[parent], 10.0);
    }
    for _ in 0..extra {
        let (a, b) = (rng.gen_range(0..switches), rng.gen_range(0..switches));
        if a != b {
            g.add_duplex_link(sw[a], sw[b], 10.0);
        }
    }
    for i in 0..servers {
        let s = g.add_node(NodeKind::Server, format!("s{i}"));
        g.add_duplex_link(s, sw[rng.gen_range(0..switches)], 10.0);
        if rng.gen_bool(0.2) {
            g.add_duplex_link(s, sw[rng.gen_range(0..switches)], 10.0);
        }
    }
    g
}

/// `n` flows between random distinct endpoints drawn from `nodes`.
fn random_flows(nodes: &[NodeId], n: usize, rng: &mut ChaCha8Rng) -> Vec<FlowSpec> {
    let mut flows = Vec::with_capacity(n);
    while flows.len() < n {
        let (a, b) = (
            nodes[rng.gen_range(0..nodes.len())],
            nodes[rng.gen_range(0..nodes.len())],
        );
        if a != b {
            flows.push(spec(rng.next_u64(), a, b));
        }
    }
    flows
}

/// The Clos a "k-port" flat-tree converts. A k=6 fat-tree has three
/// edge switches per pod, which flat-tree cannot split into two
/// converter sides, so k=6 is a 6-pod Clos with two edges per pod.
fn clos(k: usize) -> ClosParams {
    match k {
        6 => ClosParams {
            pods: 6,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            servers_per_edge: 3,
            edge_uplinks: 2,
            agg_uplinks: 3,
            num_cores: 6,
            link_gbps: 10.0,
        },
        k => fat_tree(k),
    }
}

fn flat_tree_net(k: usize, modes: impl Fn(usize) -> PodMode) -> topology::DcNetwork {
    let clos = clos(k);
    let (m, n) = profile::best_mn(&clos).expect("a convertible Clos is profilable");
    let ft = FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid flat-tree params");
    let pods = (0..ft.pods()).map(modes).collect();
    ft.instantiate(&ModeAssignment::hybrid(pods)).net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random duplex graphs: switch and server endpoints, multi-homed
    /// servers, parallel cables, random failure sets.
    #[test]
    fn unranking_matches_enumeration_on_random_graphs(
        switches in 2usize..14,
        extra in 0usize..24,
        servers in 0usize..10,
        p_down in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let g = random_graph(switches, extra, servers, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let flows = random_flows(&nodes, 24, &mut rng);
        let down = random_down(&g, p_down, &mut rng);
        check_epochs(&g, &flows, &down)?;
    }

    /// Flat-trees at k = 4, 6, 8 in clos, local, global and a mixed
    /// per-pod assignment, all-up and under random cable failures.
    #[test]
    fn unranking_matches_enumeration_on_flat_trees(
        k in prop::sample::select(vec![4usize, 6, 8]),
        assignment in 0usize..4,
        p_down in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let cycle = [PodMode::Clos, PodMode::Local, PodMode::Global];
        let net = flat_tree_net(k, |pod| match assignment {
            3 => cycle[pod % cycle.len()],
            a => cycle[a],
        });
        let g = &net.graph;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut flows = random_flows(&net.servers, 32, &mut rng);
        let switches = g.switches();
        flows.extend(random_flows(&switches, 4, &mut rng));
        let mut down = Vec::new();
        for l in random_down(g, p_down, &mut rng) {
            // Whole cables, as the fault plane fails them.
            down.push(l);
            down.extend(g.link(l).reverse);
        }
        check_epochs(g, &flows, &down)?;
    }
}

#[test]
fn all_dead_equal_cost_set_takes_the_dijkstra_fallback() {
    let net = flat_tree_net(4, |_| PodMode::Global);
    let g = &net.graph;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Seeded search for cable failures that kill a pair's whole
    // equal-cost set while a longer path survives.
    let mut detours = 0;
    while detours < 8 {
        let flows = random_flows(&net.servers, 1, &mut rng);
        let f = &flows[0];
        let mut failed = FailedLinks::new(g.link_count());
        for l in random_down(g, 0.15, &mut rng) {
            failed.fail(l);
            if let Some(r) = g.link(l).reverse {
                failed.fail(r);
            }
        }
        let all_dead = ecmp::equal_cost_paths(g, f.src, f.dst)
            .iter()
            .all(|p| !failed.path_alive(&p.links));
        if all_dead && oracle(g, &failed, f).is_some() {
            detours += 1;
            let down = failed.down_links();
            let same_pair: Vec<FlowSpec> = (0..8).map(|id| spec(id, f.src, f.dst)).collect();
            check_epochs(g, &same_pair, &down).unwrap();
        }
    }
    // Every link down: disconnected, so no route at all.
    let flows = random_flows(&net.servers, 8, &mut rng);
    let all: Vec<LinkId> = g.link_ids().collect();
    check_epochs(g, &flows, &all).unwrap();
}

#[test]
fn one_way_link_local_graphs_fall_back_as_before() {
    // The link-local subnetwork `decomp` simulates: one directed link
    // a -> b with a dedicated access leg per flow.
    let mut g = Graph::new();
    let a = g.add_node(NodeKind::EdgeSwitch, "a");
    let b = g.add_node(NodeKind::EdgeSwitch, "b");
    g.add_directed_link(a, b, 10.0);
    let mut flows = Vec::new();
    for i in 0..4 {
        let s = g.add_node(NodeKind::Server, format!("s{i}"));
        let t = g.add_node(NodeKind::Server, format!("t{i}"));
        g.add_directed_link(s, a, 10.0);
        g.add_directed_link(b, t, 10.0);
        flows.push(spec(i, s, t));
    }
    for f in &flows {
        assert!(ecmp::equal_cost_paths(&g, f.src, f.dst).is_empty());
    }
    check_epochs(&g, &flows, &[]).unwrap();
    let mut p = EcmpProvider::new();
    let mut arena = PathArena::new();
    let failed = FailedLinks::new(g.link_count());
    let got = p.route(&g, &mut arena, &failed, &flows[0]).unwrap();
    assert_eq!(arena.links(got.path_ids[0]).len(), 3, "s -> a -> b -> t");
}

#[test]
fn k64_hashing_reaches_every_aggregation_switch_and_core() {
    // At k=64 an inter-pod pair has (k/2)^2 = 1024 equal-cost paths;
    // the old enumeration stopped at 512, so hashing reached only 16 of
    // the source pod's 32 aggregation switches and 512 of 1024 cores.
    let net = fat_tree(64).build().net;
    let g = &net.graph;
    let (s, t) = (net.pod_servers[0][0], net.pod_servers[1][0]);
    let mut dags = ecmp::EcmpDags::new(g);
    assert_eq!(dags.count(g, s, t), 1024);
    let mut p = EcmpProvider::new();
    let mut arena = PathArena::new();
    let failed = FailedLinks::new(g.link_count());
    let mut aggs = BTreeSet::new();
    let mut cores = BTreeSet::new();
    for id in 0..32_768 {
        let conn = p.route(g, &mut arena, &failed, &spec(id, s, t)).unwrap();
        let nodes = arena.nodes(conn.path_ids[0]);
        assert_eq!(nodes.len(), 7, "server-edge-agg-core-agg-edge-server");
        assert_eq!(g.node(nodes[2]).kind, NodeKind::AggSwitch);
        assert_eq!(g.node(nodes[3]).kind, NodeKind::CoreSwitch);
        aggs.insert(nodes[2]);
        cores.insert(nodes[3]);
    }
    assert_eq!(aggs.len(), 32);
    assert_eq!(cores.len(), 1024);
}
