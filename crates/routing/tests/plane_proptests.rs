//! Property tests for the shared route plane: the parallel build is
//! bit-identical for every worker count, and the failure rule's answer
//! equals a from-scratch masked recomputation for random failed-link
//! sets.

use netgraph::{yen, Graph, LinkId, NodeId, NodeKind};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::ksp::{switch_paths_under, MaskedPaths};
use routing::RouteTable;

/// Connected random switch graph: spanning tree plus `extra` links.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(NodeKind::GenericSwitch, format!("n{i}")))
        .collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_duplex_link(nodes[i], nodes[parent], 10.0);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.find_link(nodes[a], nodes[b]).is_none() {
            g.add_duplex_link(nodes[a], nodes[b], 10.0);
        }
    }
    g
}

/// Every ordered pair over the first few nodes — a small route domain.
fn some_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let m = n.min(5) as u32;
    let mut pairs = Vec::new();
    for a in 0..m {
        for b in 0..m {
            if a != b {
                pairs.push((NodeId(a), NodeId(b)));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One worker and N workers build bit-identical tables.
    #[test]
    fn build_is_independent_of_worker_count(
        n in 4usize..12, extra in 0usize..10, seed in any::<u64>(), k in 1usize..6
    ) {
        let g = random_connected(n, extra, seed);
        let pairs = some_pairs(n);
        let one = RouteTable::build_for_pairs_with_threads(&g, k, &pairs, 1);
        for threads in [2usize, 3, 7] {
            let many = RouteTable::build_for_pairs_with_threads(&g, k, &pairs, threads);
            prop_assert_eq!(&many, &one, "threads = {}", threads);
        }
    }

    /// For a random failed-link set, the failure rule's answer for
    /// *every* pair — recomputed or reused — equals a from-scratch
    /// masked Yen run.
    #[test]
    fn overlay_equals_from_scratch_rebuild(
        n in 4usize..12, extra in 0usize..10, seed in any::<u64>(),
        k in 1usize..6, nfail in 0usize..5
    ) {
        let g = random_connected(n, extra, seed);
        let pairs = some_pairs(n);
        let table = RouteTable::build_for_pairs(&g, k, &pairs);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa11);
        let mut links: Vec<LinkId> = g.link_ids().collect();
        links.shuffle(&mut rng);
        let down: Vec<LinkId> = links.into_iter().take(nfail).collect();
        let is_down = |l| down.contains(&l);
        let mut masked = MaskedPaths::new();
        for &(a, b) in &pairs {
            let want = yen::k_shortest_paths_by(&g, a, b, k, |l| {
                if is_down(l) { f64::INFINITY } else { 1.0 }
            });
            let routes = table.get(a, b).unwrap();
            let got = switch_paths_under(&g, k, (a, b), routes, is_down, &mut masked);
            prop_assert_eq!(got, &want[..], "pair {:?} -> {:?}", a, b);
        }
    }
}
