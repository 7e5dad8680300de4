//! Topology-level metrics: average shortest path length, diameter,
//! per-kind degree statistics.
//!
//! §3.4 of the paper profiles the flat-tree `(m, n)` server split by
//! minimizing the **average path length over all server pairs** — that is
//! [`avg_server_path_length`]. §4.2.2 sizes the source-routing header by the
//! **switch-level diameter** — that is [`switch_diameter`].

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, NodeId, NodeKind};

/// Average hop distance over all ordered server pairs (reachable pairs
/// only). Returns `None` when there are fewer than two servers or no pair
/// is reachable.
pub fn avg_server_path_length(g: &Graph) -> Option<f64> {
    let servers = g.servers();
    if servers.len() < 2 {
        return None;
    }
    server_pair_apl(g, &servers)
}

/// Like [`avg_server_path_length`] but measured from at most
/// `max_sources` evenly spaced source servers (every `stride`-th server,
/// `stride = servers / min(max_sources, servers)`) to every server.
/// Profiling sweeps sample on large networks, and the sample is part of
/// their result: another source set gives other APLs, and possibly
/// another `(m, n)` choice. `max_sources == 0` gives `None`.
pub fn avg_server_path_length_sampled(g: &Graph, max_sources: usize) -> Option<f64> {
    let servers = g.servers();
    if servers.len() < 2 || max_sources == 0 {
        return None;
    }
    let stride = (servers.len() / max_sources.min(servers.len())).max(1);
    let sources: Vec<NodeId> = servers.iter().step_by(stride).copied().collect();
    server_pair_apl(g, &sources)
}

/// Sum of hop distances from each of the `sources` servers to every
/// other server reachable from it, divided by the number of such
/// ordered pairs.
///
/// Distances follow [`hop_distances`] exactly (servers forward only as
/// the source), but the BFS is bit-parallel: 64 sources share one pass,
/// each node carrying a `u64` of the sources that have reached it. A
/// server newly reached at level `l` by `c` sources adds `c · l` to the
/// integer total, so the result equals the per-source sum bit for bit.
fn server_pair_apl(g: &Graph, sources: &[NodeId]) -> Option<f64> {
    let n = g.node_count();
    let is_server: Vec<bool> = g.node_ids().map(|v| !g.node(v).kind.is_transit()).collect();
    let mut seen = vec![0u64; n];
    let mut front = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut cur: Vec<NodeId> = Vec::new();
    let mut reached: Vec<NodeId> = Vec::new();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for chunk in sources.chunks(64) {
        seen.fill(0);
        for (i, &s) in chunk.iter().enumerate() {
            seen[s.idx()] |= 1u64 << i;
            front[s.idx()] |= 1u64 << i;
            cur.push(s);
        }
        let mut level = 0usize;
        while !cur.is_empty() {
            level += 1;
            for &u in &cur {
                let bits = std::mem::take(&mut front[u.idx()]);
                for &(v, _) in g.neighbors(u) {
                    let new = bits & !seen[v.idx()];
                    if new != 0 {
                        if next[v.idx()] == 0 {
                            reached.push(v);
                        }
                        seen[v.idx()] |= new;
                        next[v.idx()] |= new;
                    }
                }
            }
            cur.clear();
            for &v in &reached {
                let new = std::mem::take(&mut next[v.idx()]);
                if is_server[v.idx()] {
                    // A server reached here is a destination, never a relay.
                    let c = new.count_ones() as usize;
                    total += c * level;
                    pairs += c;
                } else {
                    front[v.idx()] = new;
                    cur.push(v);
                }
            }
            reached.clear();
        }
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

/// Average hop distance over all ordered switch pairs.
pub fn avg_switch_path_length(g: &Graph) -> Option<f64> {
    let sw = g.switches();
    if sw.len() < 2 {
        return None;
    }
    let mut total = 0usize;
    let mut pairs = 0usize;
    for &s in &sw {
        let d = hop_distances(g, s);
        for &t in &sw {
            if t != s && d[t.idx()] != usize::MAX {
                total += d[t.idx()];
                pairs += 1;
            }
        }
    }
    (pairs > 0).then(|| total as f64 / pairs as f64)
}

/// Longest shortest path between any two switches (hop count), ignoring
/// unreachable pairs. `None` when there are fewer than two switches.
pub fn switch_diameter(g: &Graph) -> Option<usize> {
    let sw = g.switches();
    if sw.len() < 2 {
        return None;
    }
    let mut best = None;
    for &s in &sw {
        let d = hop_distances(g, s);
        for &t in &sw {
            if t != s && d[t.idx()] != usize::MAX {
                best = Some(best.map_or(d[t.idx()], |b: usize| b.max(d[t.idx()])));
            }
        }
    }
    best
}

/// Whether every server can reach every other server.
pub fn all_servers_connected(g: &Graph) -> bool {
    let servers = g.servers();
    if servers.len() < 2 {
        return true;
    }
    let d = hop_distances(g, servers[0]);
    servers.iter().all(|&t| d[t.idx()] != usize::MAX)
}

/// `(min, max, mean)` out-degree of nodes of `kind`.
pub fn degree_stats(g: &Graph, kind: NodeKind) -> Option<(usize, usize, f64)> {
    let nodes: Vec<NodeId> = g.nodes_of_kind(kind);
    if nodes.is_empty() {
        return None;
    }
    let degs: Vec<usize> = nodes.iter().map(|&n| g.degree(n)).collect();
    let min = *degs.iter().min().unwrap();
    let max = *degs.iter().max().unwrap();
    let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
    Some((min, max, mean))
}

/// Number of servers attached (directly, one hop) to each node of `kind`,
/// ascending by node id. Used to check Property 1 of §3.2 (servers are
/// distributed uniformly across the core switches).
pub fn attached_server_counts(g: &Graph, kind: NodeKind) -> Vec<(NodeId, usize)> {
    g.nodes_of_kind(kind)
        .into_iter()
        .map(|n| {
            let c = g
                .neighbors(n)
                .iter()
                .filter(|&&(v, _)| g.node(v).kind == NodeKind::Server)
                .count();
            (n, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star of 3 servers on one switch plus a far server behind 2 switches.
    fn sample() -> Graph {
        let mut g = Graph::new();
        let sw0 = g.add_node(NodeKind::EdgeSwitch, "sw0");
        let sw1 = g.add_node(NodeKind::EdgeSwitch, "sw1");
        let sw2 = g.add_node(NodeKind::CoreSwitch, "sw2");
        g.add_duplex_link(sw0, sw2, 10.0);
        g.add_duplex_link(sw2, sw1, 10.0);
        for i in 0..3 {
            let s = g.add_node(NodeKind::Server, format!("s{i}"));
            g.add_duplex_link(s, sw0, 10.0);
        }
        let far = g.add_node(NodeKind::Server, "far");
        g.add_duplex_link(far, sw1, 10.0);
        g
    }

    #[test]
    fn avg_server_path_length_counts_all_pairs() {
        let g = sample();
        // 3 near servers pairwise at distance 2 (6 ordered pairs),
        // near<->far at distance 4 (6 ordered pairs).
        let apl = avg_server_path_length(&g).unwrap();
        assert!((apl - (6.0 * 2.0 + 6.0 * 4.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_is_switch_level() {
        let g = sample();
        assert_eq!(switch_diameter(&g), Some(2)); // sw0 -> sw2 -> sw1
    }

    #[test]
    fn connectivity_detects_partition() {
        let mut g = sample();
        assert!(all_servers_connected(&g));
        let lonely = g.add_node(NodeKind::Server, "lonely");
        let island = g.add_node(NodeKind::EdgeSwitch, "island");
        g.add_duplex_link(lonely, island, 10.0);
        assert!(!all_servers_connected(&g));
    }

    #[test]
    fn degree_and_attachment_stats() {
        let g = sample();
        let (min, max, mean) = degree_stats(&g, NodeKind::EdgeSwitch).unwrap();
        assert_eq!(min, 2); // sw1: sw2 + far
        assert_eq!(max, 4); // sw0: sw2 + 3 servers
        assert!((mean - 3.0).abs() < 1e-12);
        let counts = attached_server_counts(&g, NodeKind::EdgeSwitch);
        assert_eq!(
            counts.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![3, 1]
        );
    }

    #[test]
    fn empty_cases() {
        let g = Graph::new();
        assert!(avg_server_path_length(&g).is_none());
        assert!(switch_diameter(&g).is_none());
        assert!(all_servers_connected(&g));
        assert!(degree_stats(&g, NodeKind::CoreSwitch).is_none());
    }
}
