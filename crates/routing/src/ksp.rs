//! The k-shortest-path route table, its failure rule and the one
//! server-path function.
//!
//! §4.2.1, Observation 1: a server has exactly one ingress/egress switch,
//! so there is no path diversion between a server and its switch.
//! Observation 2: the k-shortest paths between ingress and egress switches
//! almost capture the full path set between the servers. Accordingly the
//! table stores **switch-pair** paths once and splices server uplinks on
//! demand — the same aggregation that reduces network state by the
//! paper's 400–1600×.
//!
//! A [`RouteTable`] is either built in parallel for a pair set (see
//! [`crate::plane`]) and shared read-only behind an `Arc`, or starts
//! empty and fills on demand. Each pair keeps the link **footprint** of
//! its Yen run, which decides reuse under failures
//! ([`switch_paths_under`]).

use netgraph::{yen, Graph, LinkId, NodeId, Path};
use std::collections::HashMap;

/// One switch pair's routes: the k shortest paths plus the Yen run's
/// link footprint (every link any examined path used). The footprint is
/// the reuse certificate: while none of its links is down, the paths are
/// bit-identical to a masked recomputation (see
/// [`netgraph::yen::k_shortest_paths_with_footprint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PairRoutes {
    paths: Vec<Path>,
    footprint: Box<[LinkId]>,
}

impl PairRoutes {
    pub(crate) fn compute(g: &Graph, a: NodeId, b: NodeId, k: usize) -> Self {
        let (paths, footprint) = yen::k_shortest_paths_with_footprint(g, a, b, k);
        // Deduplication leaves the footprint's capacity at the size of
        // every examined path; a table keeps one per pair.
        Self {
            paths,
            footprint: footprint.into_boxed_slice(),
        }
    }

    /// The selected paths with every link up, shortest first.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }
}

/// Masked switch-pair path sets for one failure epoch. The caller owns
/// it and clears it whenever the failed-link set changes.
pub type MaskedPaths = HashMap<(NodeId, NodeId), Vec<Path>>;

/// A switch-pair k-shortest-path table over one network instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTable {
    pub(crate) k: usize,
    pub(crate) pairs: HashMap<(NodeId, NodeId), PairRoutes>,
}

impl RouteTable {
    /// Creates an empty table for `k` concurrent paths.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-shortest-path routing needs k >= 1");
        Self {
            k,
            pairs: HashMap::new(),
        }
    }

    /// Number of concurrent paths (k in k-shortest-path routing).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of switch pairs held.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The routes of an ordered switch pair, if the table holds it.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<&PairRoutes> {
        self.pairs.get(&(a, b))
    }

    /// The routes of an ordered switch pair, computed on first use.
    pub fn get_or_compute(&mut self, g: &Graph, a: NodeId, b: NodeId) -> &PairRoutes {
        let k = self.k;
        self.pairs
            .entry((a, b))
            .or_insert_with(|| PairRoutes::compute(g, a, b, k))
    }

    /// The server-level paths with every link up, filling the table on
    /// demand: [`server_paths_under`] with nothing down.
    pub fn server_paths(&mut self, g: &Graph, src: NodeId, dst: NodeId) -> Vec<Path> {
        server_paths_under(
            g,
            self.k,
            src,
            dst,
            |_| false,
            &mut MaskedPaths::new(),
            |a, b| self.get_or_compute(g, a, b),
        )
    }
}

/// The failure rule: a switch pair's paths under the failed-link
/// predicate `is_down`. The cached paths are reused when no footprint
/// link is down; otherwise the pair gets a masked Yen run, cached in
/// `masked` for the rest of the failure epoch.
pub fn switch_paths_under<'a>(
    g: &Graph,
    k: usize,
    (a, b): (NodeId, NodeId),
    routes: &'a PairRoutes,
    is_down: impl Fn(LinkId) -> bool,
    masked: &'a mut MaskedPaths,
) -> &'a [Path] {
    if !routes.footprint.iter().any(|&l| is_down(l)) {
        return &routes.paths;
    }
    masked
        .entry((a, b))
        .or_insert_with(|| yen::k_shortest_paths_by(g, a, b, k, masked_length(&is_down)))
}

/// The server-level paths for `(src, dst)` under the failed-link
/// predicate `is_down`; `pair` looks up a switch pair's routes.
///
/// * A dead own uplink or downlink parks the flow: no paths.
/// * Endpoints on the same ingress switch get the single 2-hop path.
/// * An endpoint not attached to a switch gets a masked Yen run between
///   the endpoints themselves.
/// * Every other pair gets the [`switch_paths_under`] paths of its
///   ingress/egress switches with the two server links spliced on.
///
/// Returns an empty vector when the pair is parked or disconnected.
pub fn server_paths_under<'t>(
    g: &Graph,
    k: usize,
    src: NodeId,
    dst: NodeId,
    is_down: impl Fn(LinkId) -> bool,
    masked: &mut MaskedPaths,
    pair: impl FnOnce(NodeId, NodeId) -> &'t PairRoutes,
) -> Vec<Path> {
    assert_ne!(src, dst, "no self-flows");
    let (Some(si), Some(di)) = (g.server_uplink_switch(src), g.server_uplink_switch(dst)) else {
        return yen::k_shortest_paths_by(g, src, dst, k, masked_length(&is_down));
    };
    let up = g.find_link(src, si).expect("src uplink");
    let down = g.find_link(di, dst).expect("dst downlink");
    if is_down(up) || is_down(down) {
        // Every server-level path crosses both of the pair's own links.
        return Vec::new();
    }
    if si == di {
        return vec![Path::from_nodes(g, &[src, si, dst]).expect("rack path")];
    }
    switch_paths_under(g, k, (si, di), pair(si, di), is_down, masked)
        .iter()
        .map(|sp| {
            let mut nodes = Vec::with_capacity(sp.nodes.len() + 2);
            nodes.push(src);
            nodes.extend_from_slice(&sp.nodes);
            nodes.push(dst);
            let mut links = Vec::with_capacity(sp.links.len() + 2);
            links.push(up);
            links.extend_from_slice(&sp.links);
            links.push(down);
            let p = Path { nodes, links };
            #[cfg(feature = "strict-invariants")]
            debug_assert!(
                p.validate(g).is_ok(),
                "spliced server path is invalid: {:?}",
                p.validate(g)
            );
            p
        })
        .collect()
}

/// Hop count with the failed links at infinite length.
fn masked_length(is_down: &impl Fn(LinkId) -> bool) -> impl Fn(LinkId) -> f64 + '_ {
    move |l| if is_down(l) { f64::INFINITY } else { 1.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use topology::ClosParams;

    fn mini_global() -> netgraph::Graph {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global))
            .net
            .graph
    }

    #[test]
    fn server_paths_are_valid_and_k_bounded() {
        let g = mini_global();
        let servers = g.servers();
        let mut rt = RouteTable::new(8);
        let paths = rt.server_paths(&g, servers[0], servers[40]);
        assert!(!paths.is_empty() && paths.len() <= 8);
        for p in &paths {
            p.validate(&g).unwrap();
            assert_eq!(p.src(), servers[0]);
            assert_eq!(p.dst(), servers[40]);
        }
        // Sorted by length after splicing (uplinks add 2 to each).
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn intra_rack_is_two_hops() {
        let clos = ClosParams::mini().build();
        let g = &clos.net.graph;
        let mut rt = RouteTable::new(4);
        let s0 = clos.edge_servers[0][2]; // fixed servers on same edge
        let s1 = clos.edge_servers[0][3];
        let paths = rt.server_paths(g, s0, s1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
    }

    #[test]
    fn cache_is_shared_across_server_pairs() {
        let clos = ClosParams::mini().build();
        let g = &clos.net.graph;
        let mut rt = RouteTable::new(4);
        // Two pairs under the same two edges hit the same cache entry.
        let _ = rt.server_paths(g, clos.edge_servers[0][2], clos.edge_servers[1][2]);
        let n1 = rt.pair_count();
        let _ = rt.server_paths(g, clos.edge_servers[0][3], clos.edge_servers[1][3]);
        assert_eq!(rt.pair_count(), n1, "same switch pair must not recompute");
    }

    #[test]
    fn k_one_is_single_shortest() {
        let g = mini_global();
        let servers = g.servers();
        let mut rt = RouteTable::new(1);
        let paths = rt.server_paths(&g, servers[0], servers[63]);
        assert_eq!(paths.len(), 1);
        let sp = netgraph::dijkstra::hop_distance(&g, servers[0], servers[63]).unwrap();
        assert_eq!(paths[0].len(), sp);
    }

    #[test]
    #[should_panic(expected = "no self-flows")]
    fn self_flow_rejected() {
        let g = mini_global();
        let servers = g.servers();
        RouteTable::new(2).server_paths(&g, servers[0], servers[0]);
    }
}
