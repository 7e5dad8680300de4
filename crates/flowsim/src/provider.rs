//! Routing behind a trait, with failure-epoch route caches.
//!
//! The old event loop routed inline: ECMP enumeration per arrival, and —
//! once any link had failed — a fresh Yen run per arriving or rerouted
//! connection. Routing is a pure function of `(graph, failure set,
//! src, dst)` though, so all of it is cacheable until the failure set
//! changes. A [`PathProvider`] owns that cache and keys its validity on
//! [`FailedLinks::epoch`]: post-failure arrivals between two failure
//! events hit the cached failure-aware answer instead of recomputing it.
//!
//! [`MptcpProvider`] routes through the one `routing` route table type
//! ([`RouteTable`]): a prebuilt table shared behind an `Arc`, backed by
//! the provider's own on-demand table, with `routing`'s single failure
//! rule and server-path function deciding every answer.
//!
//! Providers return paths as [`PathId`]s interned in the simulation's
//! [`PathArena`], so the hot loop never clones a path.

use crate::failures::FailedLinks;
use crate::sim::FlowSpec;
use netgraph::{dijkstra, ecmp, Graph, NodeId, PathArena, PathId};
use routing::{ksp, RouteTable};
use std::collections::HashMap;
use std::sync::Arc;

/// A routed connection: interned subflow paths plus the fairness weight
/// each subflow carries in max-min allocation.
#[derive(Debug, Clone)]
pub struct RoutedConn {
    /// Interned subflow paths (1 for TCP, up to k for MPTCP).
    pub path_ids: Vec<PathId>,
    /// Weight per subflow (1.0 uncoupled, 1/k coupled).
    pub subflow_weight: f64,
}

/// Source of connection routes under a mutable failure state.
pub trait PathProvider {
    /// Routes a connection for `spec` under the current failures.
    ///
    /// Returns `None` when the endpoints are disconnected. Must be
    /// deterministic in `(g, failed, spec)` — the simulator relies on a
    /// re-route after a failure giving exactly the routes a fresh
    /// computation would.
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn>;
}

/// ECMP + single-path TCP: hash-selects among the surviving equal-cost
/// shortest paths, falling back to any surviving path.
///
/// Routes by unranking over per-destination shortest-path DAGs
/// ([`ecmp::EcmpDags`]): each destination switch's DAG is counted once,
/// and each flow walks straight to its hash-selected member, so only
/// the path the flow uses is built and interned. Under failures the
/// hash runs modulo the survivor count, recounted lazily per
/// destination switch per failure epoch; when no equal-cost path
/// survives, the failure-aware shortest path is cached per server pair
/// for the epoch. A provider serves the graph it first routes on.
#[derive(Debug, Default)]
pub struct EcmpProvider {
    dags: Option<ecmp::EcmpDags>,
    /// Failure-aware shortest paths for pairs whose whole equal-cost
    /// set is down, this epoch (`None` = disconnected).
    fallback: HashMap<(NodeId, NodeId), Option<PathId>>,
    epoch: u64,
}

impl EcmpProvider {
    /// Creates an empty provider.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PathProvider for EcmpProvider {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        let dags = self.dags.get_or_insert_with(|| ecmp::EcmpDags::new(g));
        if self.epoch != failed.epoch() {
            dags.set_down(&failed.down_links());
            self.fallback.clear();
            self.epoch = failed.epoch();
        }
        // Hash modulo the *survivor* count. With every link up this is
        // exactly `ecmp::select_by_hash` over `ecmp::equal_cost_paths`;
        // under failures the flows rehash over the k' survivors (a flow
        // can move even when its own path survived), spreading load
        // uniformly instead of piling displaced flows onto hash-adjacent
        // survivors. Pinned by `ecmp_failure_epoch_hashes_modulo_survivors`.
        let chosen = match dags.select(g, spec.src, spec.dst, spec.id) {
            Some(p) => arena.intern(p),
            // Equal-cost set fully failed: any surviving path.
            None => {
                (*self
                    .fallback
                    .entry((spec.src, spec.dst))
                    .or_insert_with(|| {
                        dijkstra::shortest_path_by(g, spec.src, spec.dst, |l| {
                            if failed.is_down(l) {
                                f64::INFINITY
                            } else {
                                1.0
                            }
                        })
                        .map(|(_, p)| arena.intern(p))
                    }))?
            }
        };
        Some(RoutedConn {
            path_ids: vec![chosen],
            subflow_weight: 1.0,
        })
    }
}

/// MPTCP over the k-shortest paths.
///
/// Routing always happens at the **switch-pair** level (§4.2.1
/// Observations 1–2) through [`ksp::server_paths_under`]: paths between
/// the ingress and egress switches, with the two server links spliced
/// on. Failures keep that granularity — a connection parks only when its
/// own uplink or downlink is down, and a switch pair is re-run masked
/// only when a failed link touches its Yen footprint (the failure rule,
/// [`ksp::switch_paths_under`]), so a failure epoch costs a handful of
/// Yen runs instead of one per server pair.
///
/// Switch pairs come from a shared prebuilt [`RouteTable`] when it holds
/// them and from the provider's own on-demand table otherwise. Per-epoch
/// results are cached per server pair as interned ids — the rerouting
/// burst after a failure computes each pair once, and later arrivals on
/// the pair are lookups.
#[derive(Debug)]
pub struct MptcpProvider {
    coupled: bool,
    /// Prebuilt switch pairs, read-only (empty for [`MptcpProvider::new`]).
    shared: Arc<RouteTable>,
    /// Switch pairs outside `shared`, filled on demand.
    own: RouteTable,
    /// Masked switch-pair path sets for the current failure epoch.
    masked: ksp::MaskedPaths,
    cache: HashMap<(NodeId, NodeId), Option<RoutedConn>>,
    epoch: u64,
}

impl MptcpProvider {
    /// Provider for `k` subflows; `coupled` selects LIA-style weights.
    pub fn new(k: usize, coupled: bool) -> Self {
        Self::with_shared(Arc::new(RouteTable::new(k.max(1))), coupled)
    }

    /// Provider over a prebuilt route table; `k` comes from the table.
    pub fn with_shared(table: Arc<RouteTable>, coupled: bool) -> Self {
        Self {
            coupled,
            own: RouteTable::new(table.k()),
            shared: table,
            masked: ksp::MaskedPaths::new(),
            cache: HashMap::new(),
            epoch: 0,
        }
    }
}

impl PathProvider for MptcpProvider {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        if self.epoch != failed.epoch() {
            self.cache.clear();
            self.masked.clear();
            self.epoch = failed.epoch();
        }
        let key = (spec.src, spec.dst);
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let Self {
            shared,
            own,
            masked,
            ..
        } = self;
        let is_down = |l| failed.is_down(l);
        let paths =
            ksp::server_paths_under(g, own.k(), spec.src, spec.dst, is_down, masked, |a, b| {
                match shared.get(a, b) {
                    Some(routes) => routes,
                    None => own.get_or_compute(g, a, b),
                }
            });
        let routed = if paths.is_empty() {
            None
        } else {
            let weight = if self.coupled {
                1.0 / paths.len() as f64
            } else {
                1.0
            };
            Some(RoutedConn {
                path_ids: paths.into_iter().map(|p| arena.intern(p)).collect(),
                subflow_weight: weight,
            })
        };
        self.cache.insert(key, routed.clone());
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{LinkId, NodeKind};

    /// Diamond: s - e0 - {x, y} - e1 - t, all 10G.
    fn diamond() -> (Graph, NodeId, NodeId, LinkId) {
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let y = g.add_node(NodeKind::CoreSwitch, "y");
        let (via_x, _) = g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, y, 10.0);
        g.add_duplex_link(y, e1, 10.0);
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(t, e1, 10.0);
        (g, s, t, via_x)
    }

    fn spec(id: u64, src: NodeId, dst: NodeId) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            bytes: 1.0,
            start: 0.0,
        }
    }

    #[test]
    fn mptcp_caches_within_epoch_and_invalidates_on_failure() {
        let (g, s, t, via_x) = diamond();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        let mut p = MptcpProvider::new(2, true);
        let before = p.route(&g, &mut arena, &failed, &spec(0, s, t)).unwrap();
        assert_eq!(before.path_ids.len(), 2);
        assert!((before.subflow_weight - 0.5).abs() < 1e-12);
        // Same epoch: cached, identical ids.
        let again = p.route(&g, &mut arena, &failed, &spec(1, s, t)).unwrap();
        assert_eq!(before.path_ids, again.path_ids);
        // Cut x; cache must refresh and drop the x path.
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let after = p.route(&g, &mut arena, &failed, &spec(2, s, t)).unwrap();
        assert_eq!(after.path_ids.len(), 1);
        assert!(failed.path_alive(arena.links(after.path_ids[0])));
        assert!((after.subflow_weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecmp_selection_matches_uncached_hash_choice() {
        let (g, s, t, _) = diamond();
        let mut arena = PathArena::new();
        let failed = FailedLinks::new(g.link_count());
        let mut p = EcmpProvider::new();
        for id in 0..16u64 {
            let got = p.route(&g, &mut arena, &failed, &spec(id, s, t)).unwrap();
            let all = ecmp::equal_cost_paths(&g, s, t);
            let want = ecmp::select_by_hash(&all, s, t, id).unwrap();
            assert_eq!(arena.get(got.path_ids[0]), want, "flow {id}");
        }
    }

    #[test]
    fn ecmp_failure_epoch_hashes_modulo_survivors() {
        // Pins the documented failure-epoch contract: the per-flow hash
        // indexes the *survivor* set, not the full equal-cost set.
        let (g, s, t, via_x) = diamond();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let survivors: Vec<_> = ecmp::equal_cost_paths(&g, s, t)
            .into_iter()
            .filter(|p| failed.path_alive(&p.links))
            .collect();
        assert_eq!(survivors.len(), 1, "diamond minus x leaves the y path");
        let mut p = EcmpProvider::new();
        for id in 0..16u64 {
            let got = p.route(&g, &mut arena, &failed, &spec(id, s, t)).unwrap();
            let i = (ecmp::flow_hash(s, t, id) % survivors.len() as u64) as usize;
            assert_eq!(arena.get(got.path_ids[0]), &survivors[i], "flow {id}");
        }
    }

    #[test]
    fn mptcp_shared_table_matches_lazy_provider() {
        let (g, s, t, via_x) = diamond();
        let table = Arc::new(RouteTable::build(&g, 2));
        let mut failed = FailedLinks::new(g.link_count());
        let mut arena_a = PathArena::new();
        let mut arena_b = PathArena::new();
        let mut lazy = MptcpProvider::new(2, true);
        let mut shared = MptcpProvider::with_shared(table, true);
        let same_paths = |a: &RoutedConn, aa: &PathArena, b: &RoutedConn, ab: &PathArena| {
            let pa: Vec<_> = a.path_ids.iter().map(|&i| aa.get(i)).collect();
            let pb: Vec<_> = b.path_ids.iter().map(|&i| ab.get(i)).collect();
            pa == pb
        };
        let a = lazy
            .route(&g, &mut arena_a, &failed, &spec(0, s, t))
            .unwrap();
        let b = shared
            .route(&g, &mut arena_b, &failed, &spec(0, s, t))
            .unwrap();
        assert!(same_paths(&a, &arena_a, &b, &arena_b));
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let a = lazy
            .route(&g, &mut arena_a, &failed, &spec(1, s, t))
            .unwrap();
        let b = shared
            .route(&g, &mut arena_b, &failed, &spec(1, s, t))
            .unwrap();
        assert!(same_paths(&a, &arena_a, &b, &arena_b));
        assert_eq!(a.path_ids.len(), 1, "x route must be gone");
    }

    #[test]
    fn mptcp_parks_only_on_dead_uplink() {
        let (g, s, t, _) = diamond();
        let si = g.server_uplink_switch(s).unwrap();
        let up = g.find_link(s, si).unwrap();
        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(up);
        let mut p = MptcpProvider::new(2, true);
        assert!(
            p.route(&g, &mut arena, &failed, &spec(0, s, t)).is_none(),
            "dead uplink must park the connection"
        );
        // The reverse direction only needs t's uplink and s's downlink.
        assert!(p.route(&g, &mut arena, &failed, &spec(1, t, s)).is_some());
    }

    #[test]
    fn ecmp_falls_back_to_survivor_when_equal_cost_set_dies() {
        // Line with a longer detour: s - e0 - x - e1 - t and
        // e0 - a - b - e1 as a 2-switch detour.
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let a = g.add_node(NodeKind::CoreSwitch, "a");
        let b = g.add_node(NodeKind::CoreSwitch, "b");
        let (via_x, _) = g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, a, 10.0);
        g.add_duplex_link(a, b, 10.0);
        g.add_duplex_link(b, e1, 10.0);
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, e0, 10.0);
        g.add_duplex_link(t, e1, 10.0);

        let mut arena = PathArena::new();
        let mut failed = FailedLinks::new(g.link_count());
        failed.fail(via_x);
        if let Some(rev) = g.link(via_x).reverse {
            failed.fail(rev);
        }
        let mut p = EcmpProvider::new();
        let got = p
            .route(&g, &mut arena, &failed, &spec(7, s, t))
            .expect("detour exists");
        let links = arena.links(got.path_ids[0]);
        assert!(failed.path_alive(links));
        assert_eq!(links.len(), 5, "s-e0-a-b-e1-t detour");
    }
}
