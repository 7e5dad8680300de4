//! The shared route plane: building a [`RouteTable`] for a whole pair
//! set up front, in parallel.
//!
//! An on-demand table is owned by one simulation. Experiment sweeps run
//! many simulations over the same `(topology, mode, k)` though, each
//! re-deriving the identical pairs. [`RouteTable::build_for_pairs`]
//! computes every pair once — in parallel, with output independent of
//! the worker count — and the table is then shared read-only (behind an
//! `Arc`) across cells, threads and verifier passes. Failures never
//! mutate it: callers apply [`crate::ksp::switch_paths_under`] per
//! failure epoch.

use crate::ksp::{PairRoutes, RouteTable};
use netgraph::{Graph, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

impl RouteTable {
    /// Every ordered pair of ingress switches (switches with at least
    /// one attached server), ascending — the full route-plane domain.
    pub fn ingress_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut switches: Vec<NodeId> = g
            .servers()
            .iter()
            .filter_map(|&s| g.server_uplink_switch(s))
            .collect();
        switches.sort_unstable();
        switches.dedup();
        let mut pairs = Vec::with_capacity(switches.len() * switches.len().saturating_sub(1));
        for &a in &switches {
            for &b in &switches {
                if a != b {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Builds the full ingress-pair table with one worker per CPU.
    pub fn build(g: &Graph, k: usize) -> Self {
        Self::build_for_pairs(g, k, &Self::ingress_pairs(g))
    }

    /// Builds a table restricted to the given switch pairs (self-pairs
    /// dropped), one worker per CPU. Use when the traffic only touches a
    /// known pair subset.
    pub fn build_for_pairs(g: &Graph, k: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        Self::build_for_pairs_with_threads(g, k, pairs, default_threads())
    }

    /// [`RouteTable::build_for_pairs`] with an explicit worker count.
    /// The result depends only on `(g, k, pairs)` — never on `threads`
    /// or scheduling.
    pub fn build_for_pairs_with_threads(
        g: &Graph,
        k: usize,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Self {
        let mut table = Self::new(k);
        let mut pairs: Vec<(NodeId, NodeId)> =
            pairs.iter().copied().filter(|&(a, b)| a != b).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let computed = par_map(&pairs, threads, |&(a, b)| PairRoutes::compute(g, a, b, k));
        table.pairs.extend(pairs.into_iter().zip(computed));
        table
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Deterministic parallel map: workers pull indices from a shared atomic
/// queue and results are reassembled in input order, so the output never
/// depends on the worker count or scheduling — the same discipline the
/// experiment sweep driver uses.
fn par_map<I, T, F>(items: &[I], threads: usize, job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let collected = &collected;
                let job = &job;
                scope.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = job(&items[i]);
                    collected
                        .lock()
                        // ftlint::allow(FTL-R001): Mutex poisoning only follows a worker panic, which join() then propagates
                        .expect("route-plane collector")
                        .push((i, out));
                })
            })
            .collect();
        for h in handles {
            // ftlint::allow(FTL-R001): a worker panic must propagate; a partial route plane would be unsound
            h.join().expect("route-plane worker panicked");
        }
    })
    .expect("route-plane scope");
    let mut indexed = collected.into_inner().expect("route-plane collector");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::{server_paths_under, switch_paths_under, MaskedPaths};
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use netgraph::yen;
    use topology::ClosParams;

    fn mini_global() -> Graph {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        ft.instantiate(&ModeAssignment::uniform(4, PodMode::Global))
            .net
            .graph
    }

    #[test]
    fn matches_lazy_route_table() {
        let g = mini_global();
        let table = RouteTable::build(&g, 4);
        assert!(table.pair_count() > 0);
        let mut rt = RouteTable::new(4);
        for (a, b) in RouteTable::ingress_pairs(&g) {
            rt.get_or_compute(&g, a, b);
        }
        assert_eq!(rt, table);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let g = mini_global();
        let pairs = RouteTable::ingress_pairs(&g);
        let one = RouteTable::build_for_pairs_with_threads(&g, 4, &pairs, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                RouteTable::build_for_pairs_with_threads(&g, 4, &pairs, threads),
                one
            );
        }
    }

    #[test]
    fn overlay_recomputes_only_affected_pairs() {
        let g = mini_global();
        let table = RouteTable::build(&g, 4);
        let cable = g
            .link_ids()
            .find(|&l| {
                let info = g.link(l);
                g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
            })
            .unwrap();
        let is_down = |l| l == cable;
        let mut masked = MaskedPaths::new();
        for (a, b) in RouteTable::ingress_pairs(&g) {
            let routes = table.get(a, b).unwrap();
            let got = switch_paths_under(&g, 4, (a, b), routes, is_down, &mut masked);
            // Every pair's answer equals a from-scratch masked run.
            let want =
                yen::k_shortest_paths_by(
                    &g,
                    a,
                    b,
                    4,
                    |l| {
                        if is_down(l) {
                            f64::INFINITY
                        } else {
                            1.0
                        }
                    },
                );
            assert_eq!(got, &want[..]);
        }
        assert!(!masked.is_empty());
        assert!(masked.len() < table.pair_count());
    }

    #[test]
    fn restricted_table_covers_only_requested_pairs() {
        let g = mini_global();
        let all = RouteTable::ingress_pairs(&g);
        let subset = &all[..4];
        let table = RouteTable::build_for_pairs(&g, 4, subset);
        assert_eq!(table.pair_count(), 4);
        for &(a, b) in subset {
            assert!(table.get(a, b).is_some());
        }
        let &(a, b) = all.last().unwrap();
        assert!(table.get(a, b).is_none());
    }

    #[test]
    fn parked_when_uplink_is_down() {
        let g = mini_global();
        let table = RouteTable::build(&g, 4);
        let servers = g.servers();
        let (src, dst) = (servers[0], servers[40]);
        let si = g.server_uplink_switch(src).unwrap();
        let up = g.find_link(src, si).unwrap();
        let route = |s, d| {
            server_paths_under(
                &g,
                4,
                s,
                d,
                |l| l == up,
                &mut MaskedPaths::new(),
                |a, b| table.get(a, b).unwrap(),
            )
        };
        assert_eq!(route(src, dst), vec![]);
        // The reverse pair still routes: only src's uplink is down.
        assert!(!route(dst, src).is_empty());
    }
}
