//! Rate allocation for one simulation instant, and the persistent
//! subflow→entity bindings the event loop drives between instants.
//!
//! [`connection_rates`] is the one-shot entry point: it runs a reusable
//! [`AllocWorkspace`] over a connection list and folds subflow rates
//! back into per-connection rates. The engine itself no longer rebuilds
//! that entity list per event — it keeps a `Bindings`, which mirrors
//! the engine's `active` connection vector inside an
//! [`IncrementalAllocator`]: arrivals append, completions
//! `swap_remove`, reroutes replace in place, and fault edges that
//! reshuffle positions (park / revive / drop) resynchronize wholesale.
//! Either way the allocator sees the exact entity order the old
//! per-event rebuild produced, so rates are bit-identical.

use crate::error::SimError;
use mcf::{AllocStats, AllocWorkspace, IncrementalAllocator};
use netgraph::{Path, PathArena, PathId};

/// One active connection's path set and fairness weight model.
#[derive(Debug, Clone)]
pub struct ConnPaths {
    /// The subflow paths (1 for TCP, up to k for MPTCP).
    pub paths: Vec<Path>,
    /// Weight per subflow (1.0 uncoupled, 1/k coupled).
    pub subflow_weight: f64,
}

/// Computes per-connection rates (Gbps) under max-min fairness.
///
/// `capacity[l]` indexes directed links by `LinkId::idx()`.
///
/// Panics on a malformed connection (empty path, non-positive weight);
/// use [`try_connection_rates`] for a typed error.
pub fn connection_rates(capacity: &[f64], conns: &[ConnPaths]) -> Vec<f64> {
    try_connection_rates(capacity, conns).unwrap_or_else(|e| panic!("{e}"))
}

/// [`connection_rates`] with typed input validation instead of panics.
pub fn try_connection_rates(capacity: &[f64], conns: &[ConnPaths]) -> Result<Vec<f64>, SimError> {
    let mut ws = AllocWorkspace::new();
    let mut owner = Vec::new();
    for (ci, c) in conns.iter().enumerate() {
        for p in &c.paths {
            ws.try_push_entity(c.subflow_weight, p.links.iter().map(|l| l.idx()))
                .map_err(|source| SimError::InvalidAllocEntity { source })?;
            owner.push(ci as u32);
        }
    }
    Ok(fold_owner_rates(ws.allocate(capacity), &owner, conns.len()))
}

/// Folds flat per-subflow rates into per-connection rates by owner
/// index — the shared folding used by [`connection_rates`] and (through
/// per-group sums, which produce the same partial sums for contiguous
/// groups) by [`Bindings`].
pub(crate) fn fold_owner_rates(sub_rates: &[f64], owner: &[u32], n_conns: usize) -> Vec<f64> {
    let mut rates = vec![0.0; n_conns];
    for (&r, &ci) in sub_rates.iter().zip(owner) {
        rates[ci as usize] += r;
    }
    rates
}

/// Cumulative allocator-effort counters over a whole simulation run,
/// summed from the per-epoch [`AllocStats`].
///
/// Filled through [`RunOpts::telemetry`](crate::sim::RunOpts::telemetry) so
/// benches and perf snapshots can report how much work the incremental
/// allocator actually did versus what a from-scratch rebuild would
/// have cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTelemetry {
    /// Allocation epochs run.
    pub epochs: u64,
    /// Progressive-filling rounds across all epochs.
    pub rounds: u64,
    /// Links re-folded because an event dirtied them.
    pub dirty_links: u64,
    /// Entities touched by dirty-link re-folds.
    pub dirty_entities: u64,
    /// Subflow rates that came out bit-identical to the previous epoch
    /// (the allocator still computed them; this counts stability, not
    /// skipped work).
    pub reused_rates: u64,
    /// Per-round link-share scans actually performed (near tier only).
    pub link_scans: u64,
    /// Link-share scans a full per-round sweep would have performed.
    pub link_scans_naive: u64,
}

impl AllocTelemetry {
    /// Folds one epoch's counters into the running totals.
    pub fn absorb(&mut self, s: &AllocStats) {
        self.epochs += 1;
        self.rounds += u64::from(s.rounds);
        self.dirty_links += u64::from(s.dirty_links);
        self.dirty_entities += u64::from(s.dirty_entities);
        self.reused_rates += u64::from(s.reused_rates);
        self.link_scans += s.link_scans;
        self.link_scans_naive += s.link_scans_naive;
    }

    /// Fraction of per-round link scans the two-tier partition skipped
    /// (0.0 when nothing ran).
    pub fn scan_savings(&self) -> f64 {
        if self.link_scans_naive == 0 {
            0.0
        } else {
            1.0 - (self.link_scans as f64 / self.link_scans_naive as f64)
        }
    }

    /// Exports the counters into an [`obs::Metrics`] registry under the
    /// `alloc.` namespace, plus the derived `alloc.scan_savings` gauge,
    /// so allocator effort shows up next to the engine's other
    /// observability instruments.
    pub fn export(&self, m: &mut obs::Metrics) {
        m.add("alloc.epochs", self.epochs);
        m.add("alloc.rounds", self.rounds);
        m.add("alloc.dirty_links", self.dirty_links);
        m.add("alloc.dirty_entities", self.dirty_entities);
        m.add("alloc.reused_rates", self.reused_rates);
        m.add("alloc.link_scans", self.link_scans);
        m.add("alloc.link_scans_naive", self.link_scans_naive);
        m.gauge("alloc.scan_savings", self.scan_savings());
    }
}

/// Persistent subflow→entity bindings between the engine's `active`
/// connection vector and an [`IncrementalAllocator`].
///
/// Invariant: binding position `i` always corresponds to `active[i]`.
/// The engine maintains it by mirroring every mutation of `active`
/// (push / `swap_remove`) with the matching call here; fault edges that
/// remove or reshuffle several connections at once call
/// [`resync`](Self::resync) instead, which rebuilds the bindings from
/// the vector itself (full invalidation — correct by construction, and
/// rare: it only runs on failure-epoch or recovery edges).
#[derive(Debug, Default)]
pub(crate) struct Bindings {
    alloc: IncrementalAllocator,
}

impl Bindings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total subflows currently bound.
    pub fn num_subflows(&self) -> usize {
        self.alloc.num_entities()
    }

    /// Binds a newly-arrived connection at the end of the order.
    pub fn push(&mut self, arena: &PathArena, path_ids: &[PathId], subflow_weight: f64) {
        self.alloc.push_group(
            subflow_weight,
            path_ids
                .iter()
                .map(|&pid| arena.links(pid).iter().map(|l| l.idx())),
        );
    }

    /// Unbinds the connection at position `i`, moving the last into its
    /// place — the mirror of `active.swap_remove(i)`.
    pub fn swap_remove(&mut self, i: usize) {
        self.alloc.swap_remove_group(i);
    }

    /// Rebinds connection `i` to a new path set (a reroute that kept
    /// the connection's position).
    pub fn replace(&mut self, arena: &PathArena, i: usize, path_ids: &[PathId], weight: f64) {
        self.alloc.replace_group(
            i,
            weight,
            path_ids
                .iter()
                .map(|&pid| arena.links(pid).iter().map(|l| l.idx())),
        );
    }

    /// Rebuilds all bindings from scratch in iteration order — the
    /// invalidation path for fault edges (park / revive / stall-drop)
    /// that change several positions at once.
    pub fn resync<'a>(
        &mut self,
        arena: &PathArena,
        conns: impl Iterator<Item = (&'a [PathId], f64)>,
    ) {
        self.alloc.clear();
        for (path_ids, weight) in conns {
            self.push(arena, path_ids, weight);
        }
    }

    /// Runs the allocation epoch under the given capacities.
    pub fn allocate(&mut self, capacity: &[f64]) {
        self.alloc.allocate(capacity);
    }

    /// Connection `i`'s rate: its subflow rates folded in subflow
    /// order (the same partial sums as the flat owner fold).
    pub fn conn_rate(&self, i: usize) -> f64 {
        self.alloc.group_rate_sum(self.alloc.group_at(i))
    }

    /// Connection `i`'s per-subflow rates, in path order.
    pub fn subflow_rates(&self, i: usize) -> &[f64] {
        self.alloc.group_rates(self.alloc.group_at(i))
    }

    /// Filling rounds of the most recent epoch.
    pub fn rounds(&self) -> u32 {
        self.alloc.stats().rounds
    }

    /// Allocator observability counters for the most recent epoch.
    pub fn stats(&self) -> &AllocStats {
        self.alloc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Graph, NodeKind};

    /// Two disjoint 10G paths; MPTCP uses both, TCP only one.
    fn two_path_net() -> (Graph, Vec<Path>) {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::GenericSwitch, "a");
        let b = g.add_node(NodeKind::GenericSwitch, "b");
        let x = g.add_node(NodeKind::GenericSwitch, "x");
        let y = g.add_node(NodeKind::GenericSwitch, "y");
        let s = g.add_node(NodeKind::Server, "s");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, a, 40.0);
        g.add_duplex_link(a, x, 10.0);
        g.add_duplex_link(a, y, 10.0);
        g.add_duplex_link(x, b, 10.0);
        g.add_duplex_link(y, b, 10.0);
        g.add_duplex_link(b, t, 40.0);
        let p1 = Path::from_nodes(&g, &[s, a, x, b, t]).unwrap();
        let p2 = Path::from_nodes(&g, &[s, a, y, b, t]).unwrap();
        (g, vec![p1, p2])
    }

    #[test]
    fn mptcp_fills_disjoint_paths_even_when_coupled() {
        let (g, paths) = two_path_net();
        let conns = vec![ConnPaths {
            paths,
            subflow_weight: 0.5, // coupled, k = 2
        }];
        let rates = connection_rates(&g.capacities(), &conns);
        assert!((rates[0] - 20.0).abs() < 1e-9, "got {}", rates[0]);
    }

    #[test]
    fn coupled_mptcp_takes_one_share_at_shared_bottleneck() {
        // MPTCP (2 subflows over the same pair of paths) vs two TCP flows
        // each pinned to one path: coupled weights give each path
        // TCP 2/3... with weight 1/2 vs 1: shares are 10*(1/1.5) etc.
        let (g, paths) = two_path_net();
        let conns = vec![
            ConnPaths {
                paths: paths.clone(),
                subflow_weight: 0.5,
            },
            ConnPaths {
                paths: vec![paths[0].clone()],
                subflow_weight: 1.0,
            },
            ConnPaths {
                paths: vec![paths[1].clone()],
                subflow_weight: 1.0,
            },
        ];
        let rates = connection_rates(&g.capacities(), &conns);
        // Each 10G path splits 1:0.5 between TCP and the MPTCP subflow.
        assert!((rates[1] - 20.0 / 3.0).abs() < 1e-6, "tcp got {}", rates[1]);
        assert!((rates[2] - 20.0 / 3.0).abs() < 1e-6);
        assert!(
            (rates[0] - 2.0 * 10.0 / 3.0).abs() < 1e-6,
            "mptcp got {}",
            rates[0]
        );
        // Uncoupled would have grabbed half of each path.
        let conns_unc = vec![
            ConnPaths {
                paths: paths.clone(),
                subflow_weight: 1.0,
            },
            ConnPaths {
                paths: vec![paths[0].clone()],
                subflow_weight: 1.0,
            },
            ConnPaths {
                paths: vec![paths[1].clone()],
                subflow_weight: 1.0,
            },
        ];
        let r2 = connection_rates(&g.capacities(), &conns_unc);
        assert!(r2[0] > rates[0]);
    }

    #[test]
    fn empty_input() {
        let (g, _) = two_path_net();
        assert!(connection_rates(&g.capacities(), &[]).is_empty());
    }

    #[test]
    fn malformed_conns_get_typed_errors() {
        let (g, paths) = two_path_net();
        let bad_weight = vec![ConnPaths {
            paths: paths.clone(),
            subflow_weight: 0.0,
        }];
        assert!(matches!(
            try_connection_rates(&g.capacities(), &bad_weight),
            Err(SimError::InvalidAllocEntity {
                source: mcf::AllocError::NonPositiveWeight { .. }
            })
        ));
        let no_paths = vec![ConnPaths {
            paths: Vec::new(),
            subflow_weight: 1.0,
        }];
        // A connection with no subflows pushes no entity at all: the
        // allocator sees an empty set and allocates it rate zero.
        let rates = connection_rates(&g.capacities(), &no_paths);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn bindings_mirror_one_shot_allocation() {
        let (g, paths) = two_path_net();
        let caps = g.capacities();
        let mut arena = PathArena::new();
        let pids: Vec<PathId> = arena.intern_all(&paths);
        let conns = vec![
            ConnPaths {
                paths: paths.clone(),
                subflow_weight: 0.5,
            },
            ConnPaths {
                paths: vec![paths[0].clone()],
                subflow_weight: 1.0,
            },
        ];
        let want = connection_rates(&caps, &conns);
        let mut b = Bindings::new();
        b.push(&arena, &pids, 0.5);
        b.push(&arena, &pids[..1], 1.0);
        b.allocate(&caps);
        assert_eq!(b.conn_rate(0).to_bits(), want[0].to_bits());
        assert_eq!(b.conn_rate(1).to_bits(), want[1].to_bits());
        assert_eq!(b.num_subflows(), 3);
        assert!(b.rounds() >= 1);
        // swap_remove + resync keep positions aligned with the mirror.
        b.swap_remove(0);
        b.allocate(&caps);
        let solo = connection_rates(
            &caps,
            &[ConnPaths {
                paths: vec![paths[0].clone()],
                subflow_weight: 1.0,
            }],
        );
        assert_eq!(b.conn_rate(0).to_bits(), solo[0].to_bits());
        b.resync(&arena, [(pids.as_slice(), 0.5)].into_iter());
        b.allocate(&caps);
        assert_eq!(b.subflow_rates(0).len(), 2);
        assert!(b.stats().dirty_links > 0);
    }
}
