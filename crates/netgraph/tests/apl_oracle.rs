//! The bit-parallel server-pair APL against a per-source BFS oracle.
//!
//! `avg_server_path_length{,_sampled}` share one kernel that BFSes from
//! 64 sources at a time. The oracle below is the straightforward version:
//! one [`dijkstra::hop_distances`] per source server, summed over every
//! other reachable server. The two must agree bit for bit, on graphs
//! with multi-homed and detached servers, server–server links, one-way
//! links and disconnected parts, and at source counts around the 64-bit
//! chunk edges.

use netgraph::metrics::{avg_server_path_length, avg_server_path_length_sampled};
use netgraph::{dijkstra, Graph, NodeKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-source BFS APL over `servers.step_by(stride)` as sources.
fn oracle(g: &Graph, stride: usize) -> Option<f64> {
    let servers = g.servers();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for &s in servers.iter().step_by(stride) {
        let d = dijkstra::hop_distances(g, s);
        for &t in &servers {
            if t != s && d[t.idx()] != usize::MAX {
                total += d[t.idx()];
                pairs += 1;
            }
        }
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

fn oracle_full(g: &Graph) -> Option<f64> {
    if g.servers().len() < 2 {
        return None;
    }
    oracle(g, 1)
}

fn oracle_sampled(g: &Graph, max_sources: usize) -> Option<f64> {
    let n = g.servers().len();
    if n < 2 || max_sources == 0 {
        return None;
    }
    oracle(g, (n / max_sources.min(n)).max(1))
}

/// A random network of `switches` switches and `servers` servers:
/// - the switches form `parts` separate random trees plus extra links,
///   some of them one-way;
/// - each server has 0 (detached) to 3 uplinks to random switches;
/// - a few servers are cabled directly to each other.
///
/// Servers are interleaved with switches in node-id order, so server ids
/// are not contiguous.
fn random_network(switches: usize, servers: usize, parts: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    let mut sw = Vec::new();
    let mut sv = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < switches || j < servers {
        if j >= servers || (i < switches && rng.gen_bool(0.4)) {
            sw.push(g.add_node(NodeKind::GenericSwitch, format!("sw{i}")));
            i += 1;
        } else {
            sv.push(g.add_node(NodeKind::Server, format!("s{j}")));
            j += 1;
        }
    }
    let parts = parts.clamp(1, switches.max(1));
    for k in parts..switches {
        // Tree edges only within the part `k % parts`.
        let part = k % parts;
        let parent = rng.gen_range(0..(k - part) / parts) * parts + part;
        g.add_duplex_link(sw[k], sw[parent], 10.0);
    }
    for _ in 0..switches {
        let (a, b) = (rng.gen_range(0..switches), rng.gen_range(0..switches));
        if a != b && g.find_link(sw[a], sw[b]).is_none() {
            if rng.gen_bool(0.2) {
                g.add_directed_link(sw[a], sw[b], 10.0);
            } else {
                g.add_duplex_link(sw[a], sw[b], 10.0);
            }
        }
    }
    for &s in &sv {
        for _ in 0..rng.gen_range(0..=3usize) {
            let t = sw[rng.gen_range(0..switches)];
            if g.find_link(s, t).is_none() {
                g.add_duplex_link(s, t, 10.0);
            }
        }
    }
    for _ in 0..servers / 8 {
        let (a, b) = (rng.gen_range(0..servers), rng.gen_range(0..servers));
        if a != b && g.find_link(sv[a], sv[b]).is_none() {
            g.add_duplex_link(sv[a], sv[b], 10.0);
        }
    }
    g
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Server counts around the chunk edges, each a full-APL source count.
#[test]
fn chunk_edge_source_counts_match_oracle() {
    for (seed, servers) in [1usize, 2, 3, 63, 64, 65, 127, 128, 129, 200]
        .into_iter()
        .enumerate()
    {
        for parts in [1, 3] {
            let g = random_network(24, servers, parts, seed as u64);
            assert_eq!(
                bits(avg_server_path_length(&g)),
                bits(oracle_full(&g)),
                "{servers} servers, {parts} parts"
            );
            // Sampled with a source count of exactly 1, 63, 64, 65, 128, 129.
            for max_sources in [1, 63, 64, 65, 128, 129] {
                assert_eq!(
                    bits(avg_server_path_length_sampled(&g, max_sources)),
                    bits(oracle_sampled(&g, max_sources)),
                    "{servers} servers, {parts} parts, max_sources {max_sources}"
                );
            }
        }
    }
}

#[test]
fn zero_sources_and_tiny_graphs_are_none() {
    let g = random_network(8, 40, 1, 9);
    assert_eq!(avg_server_path_length_sampled(&g, 0), None);
    assert_eq!(avg_server_path_length(&Graph::new()), None);
    let one = random_network(4, 1, 1, 3);
    assert_eq!(avg_server_path_length(&one), None);
    assert_eq!(avg_server_path_length_sampled(&one, 5), None);
    // Servers but no reachable pair.
    let mut lonely = Graph::new();
    lonely.add_node(NodeKind::Server, "a");
    lonely.add_node(NodeKind::Server, "b");
    assert_eq!(avg_server_path_length(&lonely), None);
}

#[test]
fn hand_checked_server_to_server_link() {
    // a - b directly and a - sw - c. b's only neighbor is the server a,
    // which relays only as a source, so b and c never reach each other.
    let mut g = Graph::new();
    let a = g.add_node(NodeKind::Server, "a");
    let b = g.add_node(NodeKind::Server, "b");
    let c = g.add_node(NodeKind::Server, "c");
    let sw = g.add_node(NodeKind::GenericSwitch, "sw");
    g.add_duplex_link(a, b, 10.0);
    g.add_duplex_link(a, sw, 10.0);
    g.add_duplex_link(c, sw, 10.0);
    // Reachable ordered pairs: a->b 1, b->a 1, a->c 2, c->a 2.
    assert_eq!(avg_server_path_length(&g), Some(1.5));
    assert_eq!(bits(avg_server_path_length(&g)), bits(oracle_full(&g)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_apl_equals_per_source_oracle(
        switches in 1usize..40,
        servers in prop::sample::select(vec![0usize, 1, 2, 5, 17, 63, 64, 65, 128, 129, 150]),
        parts in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = random_network(switches, servers, parts, seed);
        prop_assert_eq!(bits(avg_server_path_length(&g)), bits(oracle_full(&g)));
    }

    #[test]
    fn sampled_apl_equals_per_source_oracle(
        switches in 1usize..40,
        servers in 0usize..200,
        parts in 1usize..4,
        max_sources in prop::sample::select(vec![0usize, 1, 3, 7, 63, 64, 65, 128, 129, 1000]),
        seed in any::<u64>(),
    ) {
        let g = random_network(switches, servers, parts, seed);
        prop_assert_eq!(
            bits(avg_server_path_length_sampled(&g, max_sources)),
            bits(oracle_sampled(&g, max_sources))
        );
    }
}
