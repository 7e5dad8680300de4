//! Equal-cost multi-path (ECMP) routing: per-flow hash selection among
//! the shortest paths, by unranking over a shortest-path DAG.
//!
//! The paper's Clos baseline (§5.2) runs ECMP + TCP: "the next hop at each
//! switch is determined pseudo-randomly by header field hashing, so each
//! TCP flow traverses only one of the equal cost shortest paths". We model
//! this by ordering the equal-cost shortest-path set between two nodes
//! lexicographically by node sequence and picking member
//! `flow_hash(src, dst, flow_id) % n` with a deterministic FNV-1a hash of
//! the flow 5-tuple surrogate.
//!
//! [`EcmpDags`] never materialises the set. Once per destination *anchor*
//! (a server's single attachment switch, or the destination itself) it
//! runs one BFS over the switches and counts the shortest paths from each
//! switch to the anchor; a flow then walks from its source down the DAG
//! to the chosen index, skipping whole sub-DAGs by their counts, and only
//! that one path is built. All servers behind one switch share the
//! switch's DAG: the destination server is spliced on as the last hop.
//! Counts are exact `u128`s with saturating adds, so there is no cap on
//! the size of the set. [`equal_cost_paths`] enumerates the set by DFS;
//! it is the oracle the tests and the reference engine use.

use crate::dijkstra::hop_distances;
use crate::graph::{Graph, LinkId, NodeId};
use crate::path::Path;
use std::collections::HashMap;

/// Enumerates all shortest (by hops) paths from `src` to `dst`, in
/// lexicographic node order. The set can be exponential in the graph
/// size: this is the test oracle for [`EcmpDags`], not a routing path.
pub fn equal_cost_paths(g: &Graph, src: NodeId, dst: NodeId) -> Vec<Path> {
    // Distances *to* dst: run BFS backwards. Our graphs are built from
    // duplex links, so forward BFS from dst over reverse arcs equals BFS on
    // the same adjacency; we exploit symmetry but verify via link lookup
    // when reconstructing.
    let dist_from_src = hop_distances(g, src);
    let dist_to_dst = hop_distances(g, dst);
    let total = dist_from_src[dst.idx()];
    if total == usize::MAX {
        return Vec::new();
    }
    // DFS along the shortest-path DAG: edge (u,v) is on a shortest path iff
    // dist_src[u] + 1 + dist_dst[v] == total.
    let mut out = Vec::new();
    let mut stack_nodes = vec![src];
    dfs(
        g,
        src,
        dst,
        total,
        &dist_from_src,
        &dist_to_dst,
        &mut stack_nodes,
        &mut out,
    );
    out.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &Graph,
    u: NodeId,
    dst: NodeId,
    total: usize,
    dsrc: &[usize],
    ddst: &[usize],
    stack: &mut Vec<NodeId>,
    out: &mut Vec<Path>,
) {
    if u == dst {
        if let Some(p) = Path::from_nodes(g, stack) {
            out.push(p);
        }
        return;
    }
    if u != stack[0] && !g.node(u).kind.is_transit() {
        return;
    }
    // Deterministic order: sort neighbor candidates by id.
    let mut nexts: Vec<NodeId> = g
        .neighbors(u)
        .iter()
        .filter(|&&(v, _)| {
            dsrc[u.idx()] != usize::MAX
                && ddst[v.idx()] != usize::MAX
                && dsrc[u.idx()] + 1 + ddst[v.idx()] == total
        })
        .map(|&(v, _)| v)
        .collect();
    nexts.sort();
    nexts.dedup();
    for v in nexts {
        stack.push(v);
        dfs(g, v, dst, total, dsrc, ddst, stack, out);
        stack.pop();
    }
}

/// FNV-1a hash of a flow identity; stands in for the 5-tuple header hash a
/// real switch ASIC computes.
pub fn flow_hash(src: NodeId, dst: NodeId, flow_id: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in src
        .0
        .to_le_bytes()
        .iter()
        .chain(dst.0.to_le_bytes().iter())
        .chain(flow_id.to_le_bytes().iter())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Selects from a precomputed equal-cost set, in the order
/// [`equal_cost_paths`] produces.
pub fn select_by_hash(paths: &[Path], src: NodeId, dst: NodeId, flow_id: u64) -> Option<&Path> {
    if paths.is_empty() {
        return None;
    }
    let i = (flow_hash(src, dst, flow_id) % paths.len() as u64) as usize;
    paths.get(i)
}

/// Slot of a non-switch node in [`EcmpDags`]' dense switch index.
const NO_SLOT: u32 = u32::MAX;
/// Distance of a switch that cannot reach the anchor.
const UNREACHED: u32 = u32::MAX;

/// Shortest-path DAG toward one anchor, over the dense switch index.
#[derive(Debug)]
struct Dag {
    /// Hops from each switch to the anchor ([`UNREACHED`] if none).
    dist: Vec<u32>,
    /// Shortest paths from each switch to the anchor, with every link up.
    count: Vec<u128>,
}

/// Where a flow's equal-cost set ends: the anchor its DAG leads to, plus
/// the spliced last hop into the destination server, if any.
#[derive(Debug, Clone, Copy)]
struct Target {
    anchor: NodeId,
    tail: Option<(NodeId, LinkId)>,
}

/// ECMP route selection by unranking over per-destination shortest-path
/// DAGs, for one graph.
///
/// The equal-cost set of `(src, dst)` is the same set, in the same
/// lexicographic order, that [`equal_cost_paths`] enumerates: at each
/// node the candidate next hops are the distinct out-neighbours one hop
/// closer to the destination, in ascending node id, each taken over its
/// first link ([`Graph::find_link`]); servers never forward. Distances
/// are forward BFS distances from the destination, as in the oracle; on
/// duplex graphs they equal distances to it (BFS is symmetric there), so
/// the two agree exactly. On one-way graphs, where the destination
/// cannot reach back, the set is empty and callers fall back as they
/// did before.
///
/// Links marked down by [`EcmpDags::set_down`] remove the hops that
/// cross them: the survivors keep the all-up order and [`EcmpDags::select`]
/// hashes modulo their count. Survivor counts are recomputed lazily per
/// anchor and dropped on the next `set_down`; all-up DAGs live as long
/// as the value. Memory is 20 bytes per switch per anchor routed to.
#[derive(Debug)]
pub struct EcmpDags {
    /// Dense switch slot per node ([`NO_SLOT`] for servers).
    slot: Vec<u32>,
    /// Node of each slot, ascending.
    node: Vec<NodeId>,
    /// CSR offsets into `adj`, per slot.
    adj_start: Vec<u32>,
    /// Distinct switch out-neighbours (slot and first link), ascending.
    adj: Vec<(u32, LinkId)>,
    /// All-up DAG per anchor routed to.
    dags: HashMap<NodeId, Dag>,
    /// Down links, by link index; empty when every link is up.
    down: Vec<bool>,
    /// Survivor counts per anchor under `down`.
    survivors: HashMap<NodeId, Vec<u128>>,
}

impl EcmpDags {
    /// Indexes the switches of `g`. DAGs are built on first use.
    pub fn new(g: &Graph) -> Self {
        let mut slot = vec![NO_SLOT; g.node_count()];
        let mut node = Vec::new();
        for n in g.node_ids() {
            if g.node(n).kind.is_transit() {
                slot[n.idx()] = node.len() as u32;
                node.push(n);
            }
        }
        let mut adj_start = Vec::with_capacity(node.len() + 1);
        let mut adj = Vec::new();
        let mut row: Vec<(u32, LinkId)> = Vec::new();
        for &u in &node {
            adj_start.push(adj.len() as u32);
            row.clear();
            row.extend(
                g.neighbors(u)
                    .iter()
                    .filter(|&&(v, _)| slot[v.idx()] != NO_SLOT)
                    .map(|&(v, l)| (slot[v.idx()], l)),
            );
            // Stable: the first link to each neighbour survives dedup,
            // which is the one `find_link` returns.
            row.sort_by_key(|&(s, _)| s);
            row.dedup_by_key(|&mut (s, _)| s);
            adj.extend_from_slice(&row);
        }
        adj_start.push(adj.len() as u32);
        Self {
            slot,
            node,
            adj_start,
            adj,
            dags: HashMap::new(),
            down: Vec::new(),
            survivors: HashMap::new(),
        }
    }

    /// Replaces the set of down links (empty = every link up).
    pub fn set_down(&mut self, down: &[LinkId]) {
        self.survivors.clear();
        self.down.clear();
        if let Some(max) = down.iter().map(|l| l.idx()).max() {
            self.down.resize(max + 1, false);
            for l in down {
                self.down[l.idx()] = true;
            }
        }
    }

    /// Number of surviving equal-cost shortest paths from `src` to `dst`.
    pub fn count(&mut self, g: &Graph, src: NodeId, dst: NodeId) -> u128 {
        if src == dst {
            return 1;
        }
        let t = self.resolve(g, dst);
        self.start(g, src, t).1
    }

    /// The `index`-th surviving equal-cost path from `src` to `dst` in
    /// lexicographic node order, or `None` if `index` is out of range.
    pub fn path(&mut self, g: &Graph, src: NodeId, dst: NodeId, index: u128) -> Option<Path> {
        self.walk(g, src, dst, |n| (index < n).then_some(index))
    }

    /// The surviving equal-cost path ECMP assigns to flow `flow_id`:
    /// member `flow_hash % count`. `None` if no equal-cost path survives.
    pub fn select(&mut self, g: &Graph, src: NodeId, dst: NodeId, flow_id: u64) -> Option<Path> {
        let h = u128::from(flow_hash(src, dst, flow_id));
        self.walk(g, src, dst, |n| (n > 0).then(|| h % n))
    }

    /// Counts the surviving paths from `src` to `dst` and unranks the
    /// index `pick` chooses from that count (`None` = no path).
    fn walk(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        pick: impl FnOnce(u128) -> Option<u128>,
    ) -> Option<Path> {
        if src == dst {
            return pick(1).map(|_| Path {
                nodes: vec![src],
                links: Vec::new(),
            });
        }
        let t = self.resolve(g, dst);
        let (hops, n) = self.start(g, src, t);
        let index = pick(n)?;
        Some(self.unrank(g, src, t, &hops, index))
    }

    fn is_down(&self, l: LinkId) -> bool {
        self.down.get(l.idx()).copied().unwrap_or(false)
    }

    /// The anchor of `dst`'s DAG, with the DAG and its survivor counts
    /// built. A server reached only through one switch shares that
    /// switch's DAG and is spliced on as the last hop.
    fn resolve(&mut self, g: &Graph, dst: NodeId) -> Target {
        let t = Self::target(g, dst);
        let anchor = t.anchor;
        if !self.dags.contains_key(&anchor) {
            let dag = self.build(g, anchor);
            self.dags.insert(anchor, dag);
        }
        if !self.down.is_empty() && !self.survivors.contains_key(&anchor) {
            let dist = &self.dags[&anchor].dist;
            let mut order: Vec<u32> = (0..self.node.len() as u32)
                .filter(|&s| dist[s as usize] != UNREACHED)
                .collect();
            order.sort_by_key(|&s| dist[s as usize]);
            let counts = self.counts(g, anchor, dist, &order, true);
            self.survivors.insert(anchor, counts);
        }
        t
    }

    fn target(g: &Graph, dst: NodeId) -> Target {
        let nbrs = g.neighbors(dst);
        if let Some(&(sw, _)) = nbrs.first() {
            if !g.node(dst).kind.is_transit()
                && g.node(sw).kind.is_transit()
                && nbrs.iter().all(|&(v, _)| v == sw)
            {
                if let Some(down) = g.find_link(sw, dst) {
                    return Target {
                        anchor: sw,
                        tail: Some((dst, down)),
                    };
                }
            }
        }
        Target {
            anchor: dst,
            tail: None,
        }
    }

    /// BFS from the anchor over switches, then path counts in BFS order.
    fn build(&self, g: &Graph, anchor: NodeId) -> Dag {
        let mut dist = vec![UNREACHED; self.node.len()];
        let mut order = Vec::new();
        match self.slot[anchor.idx()] {
            NO_SLOT => {
                for &(v, _) in g.neighbors(anchor) {
                    let s = self.slot[v.idx()];
                    if s != NO_SLOT && dist[s as usize] == UNREACHED {
                        dist[s as usize] = 1;
                        order.push(s);
                    }
                }
            }
            a => {
                dist[a as usize] = 0;
                order.push(a);
            }
        }
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u as usize];
            for &(v, _) in self.row(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
            }
        }
        let count = self.counts(g, anchor, &dist, &order, false);
        Dag { dist, count }
    }

    /// Paths to the anchor from every switch in `order` (ascending
    /// distance), skipping down links when `masked`.
    fn counts(
        &self,
        g: &Graph,
        anchor: NodeId,
        dist: &[u32],
        order: &[u32],
        masked: bool,
    ) -> Vec<u128> {
        let up = |l: LinkId| !(masked && self.is_down(l));
        let mut count = vec![0u128; self.node.len()];
        for &u in order {
            let du = dist[u as usize];
            count[u as usize] = match du {
                0 => 1,
                1 => u128::from(g.find_link(self.node[u as usize], anchor).is_some_and(up)),
                _ => self
                    .row(u)
                    .iter()
                    .filter(|&&(v, l)| dist[v as usize] == du - 1 && up(l))
                    .fold(0u128, |acc, &(v, _)| acc.saturating_add(count[v as usize])),
            };
        }
        count
    }

    fn row(&self, u: u32) -> &[(u32, LinkId)] {
        let u = u as usize;
        &self.adj[self.adj_start[u] as usize..self.adj_start[u + 1] as usize]
    }

    /// The anchor's DAG and the counts in force (survivors while links
    /// are down).
    fn view(&self, anchor: NodeId) -> (&[u32], &[u128]) {
        let dag = &self.dags[&anchor];
        let count = match self.survivors.get(&anchor) {
            Some(c) => c,
            None => &dag.count,
        };
        (&dag.dist, count)
    }

    /// A server source's first hops: its distinct out-neighbours nearest
    /// the anchor whose link is up, ascending, with their path counts.
    fn first_hops(&self, g: &Graph, src: NodeId, anchor: NodeId) -> Vec<(NodeId, LinkId, u128)> {
        let (dist, count) = self.view(anchor);
        let mut hops: Vec<(NodeId, LinkId, u32, u128)> = g
            .neighbors(src)
            .iter()
            .map(|&(v, l)| {
                let (d, c) = match self.slot[v.idx()] {
                    // A server anchor has no slot.
                    NO_SLOT if v == anchor => (0, 1),
                    NO_SLOT => (UNREACHED, 0),
                    s => (dist[s as usize], count[s as usize]),
                };
                (v, l, d, c)
            })
            .collect();
        hops.sort_by_key(|h| h.0);
        hops.dedup_by_key(|h| h.0);
        let nearest = hops.iter().map(|h| h.2).min();
        hops.into_iter()
            .filter(|&(_, l, d, _)| Some(d) == nearest && !self.is_down(l))
            .map(|(v, l, _, c)| (v, l, c))
            .collect()
    }

    /// A server source's first hops (none for a switch source) and the
    /// number of surviving paths from `src`.
    fn start(&self, g: &Graph, src: NodeId, t: Target) -> (Vec<(NodeId, LinkId, u128)>, u128) {
        if t.tail.is_some_and(|(_, l)| self.is_down(l)) {
            return (Vec::new(), 0);
        }
        match self.slot[src.idx()] {
            NO_SLOT => {
                let hops = self.first_hops(g, src, t.anchor);
                let n = hops
                    .iter()
                    .fold(0u128, |acc, &(_, _, c)| acc.saturating_add(c));
                (hops, n)
            }
            s => (Vec::new(), self.view(t.anchor).1[s as usize]),
        }
    }

    /// Walks from `src` to the `index`-th path, given `src`'s first hops
    /// from `start` (`index` below its count).
    fn unrank(
        &self,
        g: &Graph,
        src: NodeId,
        t: Target,
        hops: &[(NodeId, LinkId, u128)],
        mut index: u128,
    ) -> Path {
        let (dist, count) = self.view(t.anchor);
        let mut nodes = vec![src];
        let mut links = Vec::new();
        let mut u = self.slot[src.idx()];
        if u == NO_SLOT {
            let (v, l) = descend(hops.iter().map(|&(v, l, c)| ((v, l), c)), &mut index);
            nodes.push(v);
            links.push(l);
            u = self.slot[v.idx()];
        }
        // Down the DAG until the anchor (a server anchor has no slot).
        while u != NO_SLOT && dist[u as usize] > 0 {
            let du = dist[u as usize];
            let (v, l) = if du == 1 {
                let from = self.node[u as usize];
                (t.anchor, g.find_link(from, t.anchor).expect("counted hop"))
            } else {
                let hops = self
                    .row(u)
                    .iter()
                    .filter(|&&(s, l)| dist[s as usize] == du - 1 && !self.is_down(l))
                    .map(|&(s, l)| ((self.node[s as usize], l), count[s as usize]));
                descend(hops, &mut index)
            };
            nodes.push(v);
            links.push(l);
            u = self.slot[v.idx()];
        }
        if let Some((dst, l)) = t.tail {
            nodes.push(dst);
            links.push(l);
        }
        Path { nodes, links }
    }
}

/// The first of `hops` (each with its path count) whose paths include
/// the `index`-th, with `index` made relative to that hop.
fn descend<T>(hops: impl Iterator<Item = (T, u128)>, index: &mut u128) -> T {
    for (hop, c) in hops {
        if *index < c {
            return hop;
        }
        *index -= c;
    }
    panic!("index below the survivor count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Two-level Clos slice: s -- e0 -- {a0,a1} -- e1 -- t.
    fn slice() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let a0 = g.add_node(NodeKind::AggSwitch, "a0");
        let a1 = g.add_node(NodeKind::AggSwitch, "a1");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(e0, a0, 10.0);
        g.add_duplex_link(e0, a1, 10.0);
        g.add_duplex_link(a0, e1, 10.0);
        g.add_duplex_link(a1, e1, 10.0);
        g.add_duplex_link(e1, t, 10.0);
        (g, s, t)
    }

    #[test]
    fn enumerates_both_equal_cost_paths() {
        let (g, s, t) = slice();
        let ps = equal_cost_paths(&g, s, t);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.len(), 4);
            p.validate(&g).unwrap();
        }
        assert_ne!(ps[0].nodes, ps[1].nodes);
    }

    #[test]
    fn unranking_reproduces_the_enumeration() {
        let (g, s, t) = slice();
        let ps = equal_cost_paths(&g, s, t);
        let mut dags = EcmpDags::new(&g);
        assert_eq!(dags.count(&g, s, t), 2);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(dags.path(&g, s, t, i as u128).as_ref(), Some(p));
        }
        assert_eq!(dags.path(&g, s, t, 2), None);
    }

    #[test]
    fn hash_selection_is_deterministic_and_spreads() {
        let (g, s, t) = slice();
        let mut dags = EcmpDags::new(&g);
        let a = dags.select(&g, s, t, 1).unwrap();
        let b = dags.select(&g, s, t, 1).unwrap();
        assert_eq!(a, b);
        // Over many flow ids both paths should be used.
        let mut used = std::collections::HashSet::new();
        for fid in 0..32 {
            used.insert(dags.select(&g, s, t, fid).unwrap().nodes);
        }
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn unreachable_yields_empty() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Server, "a");
        let b = g.add_node(NodeKind::Server, "b");
        assert!(equal_cost_paths(&g, a, b).is_empty());
        let mut dags = EcmpDags::new(&g);
        assert_eq!(dags.count(&g, a, b), 0);
        assert!(dags.select(&g, a, b, 0).is_none());
    }

    #[test]
    fn select_matches_select_by_hash() {
        let (g, s, t) = slice();
        let ps = equal_cost_paths(&g, s, t);
        let mut dags = EcmpDags::new(&g);
        for fid in 0..8 {
            let direct = dags.select(&g, s, t, fid).unwrap();
            let cached = select_by_hash(&ps, s, t, fid).unwrap();
            assert_eq!(&direct, cached);
        }
    }

    #[test]
    fn down_links_leave_the_survivors_in_order() {
        let (g, s, t) = slice();
        let a0 = NodeId(2);
        let e0 = NodeId(1);
        let mut dags = EcmpDags::new(&g);
        dags.set_down(&[g.find_link(e0, a0).unwrap()]);
        assert_eq!(dags.count(&g, s, t), 1);
        let p = dags.path(&g, s, t, 0).unwrap();
        assert_eq!(p, equal_cost_paths(&g, s, t)[1]);
        dags.set_down(&[g.find_link(s, e0).unwrap()]);
        assert_eq!(dags.count(&g, s, t), 0, "dead uplink");
        dags.set_down(&[]);
        assert_eq!(dags.count(&g, s, t), 2);
    }
}
