//! Pinning tests for the failure-epoch routing fix: the provider's
//! switch-level masked routing (mask failed links between the ingress
//! and egress switches, splice surviving uplinks, park on a dead
//! uplink) must yield exactly the path sets of the **server-level
//! oracle** — a from-scratch masked Yen run per server pair — on mini
//! topologies, for both the on-demand and the shared-table providers.

use flowsim::provider::{MptcpProvider, PathProvider};
use flowsim::sim::FlowSpec;
use flowsim::{FailedLinks, RunOpts, SimConfig, Transport};
use netgraph::{yen, Graph, LinkId, NodeId, Path, PathArena};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::RouteTable;
use std::sync::Arc;
use topology::ClosParams;

/// All switch-switch directed links (one per duplex cable).
fn cables(g: &Graph) -> Vec<LinkId> {
    g.link_ids()
        .filter(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch()
                && g.node(info.dst).kind.is_switch()
                && info.reverse.is_none_or(|r| r.0 > l.0)
        })
        .collect()
}

/// The server-level oracle: a fresh masked Yen run between the servers.
fn oracle(g: &Graph, src: NodeId, dst: NodeId, failed: &FailedLinks, k: usize) -> Vec<Path> {
    yen::k_shortest_paths_by(g, src, dst, k, |l| {
        if failed.is_down(l) {
            f64::INFINITY
        } else {
            1.0
        }
    })
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

fn routed_paths(
    p: &mut MptcpProvider,
    g: &Graph,
    arena: &mut PathArena,
    failed: &FailedLinks,
    sp: &FlowSpec,
) -> Vec<Path> {
    p.route(g, arena, failed, sp).map_or(Vec::new(), |r| {
        r.path_ids.iter().map(|&i| arena.get(i).clone()).collect()
    })
}

#[test]
fn provider_matches_server_level_oracle_under_random_failures() {
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let servers = g.servers();
    let all_cables = cables(g);
    for k in [4usize, 8] {
        let table = Arc::new(RouteTable::build(g, k));
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed ^ k as u64);
        for trial in 0..6usize {
            let mut failed = FailedLinks::new(g.link_count());
            let mut chosen = all_cables.clone();
            chosen.shuffle(&mut rng);
            for &l in chosen.iter().take(trial * 2) {
                failed.fail(l);
                if let Some(r) = g.link(l).reverse {
                    failed.fail(r);
                }
            }
            let mut lazy = MptcpProvider::new(k, true);
            let mut shared = MptcpProvider::with_shared(table.clone(), true);
            let mut arena_lazy = PathArena::new();
            let mut arena_shared = PathArena::new();
            // Inter-rack, intra-rack, and random pairs.
            let mut pairs = vec![
                (servers[0], servers[1]),
                (servers[0], servers[servers.len() - 1]),
                (servers[2], servers[3]),
            ];
            for _ in 0..8 {
                let a = servers[rng.gen_range(0..servers.len())];
                let b = servers[rng.gen_range(0..servers.len())];
                if a != b {
                    pairs.push((a, b));
                }
            }
            for (id, &(src, dst)) in pairs.iter().enumerate() {
                let want = oracle(g, src, dst, &failed, k);
                let sp = spec(id as u64, src, dst);
                let got_lazy = routed_paths(&mut lazy, g, &mut arena_lazy, &failed, &sp);
                let got_shared = routed_paths(&mut shared, g, &mut arena_shared, &failed, &sp);
                assert_eq!(
                    got_lazy, want,
                    "lazy backend diverges from the oracle (k={k}, trial={trial})"
                );
                assert_eq!(
                    got_shared, want,
                    "shared backend diverges from the oracle (k={k}, trial={trial})"
                );
            }
            // Recovery epoch: the same providers must match a fresh
            // no-failure oracle once every link is back up.
            failed.set_all_up();
            let (src, dst) = (servers[0], servers[servers.len() - 1]);
            let want = oracle(g, src, dst, &failed, k);
            let sp = spec(99, src, dst);
            assert_eq!(
                routed_paths(&mut lazy, g, &mut arena_lazy, &failed, &sp),
                want
            );
            assert_eq!(
                routed_paths(&mut shared, g, &mut arena_shared, &failed, &sp),
                want
            );
        }
    }
}

#[test]
fn dead_uplink_parks_exactly_like_the_oracle() {
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let servers = g.servers();
    let (src, dst) = (servers[0], servers[servers.len() - 1]);
    let si = g.server_uplink_switch(src).unwrap();
    let up = g.find_link(src, si).unwrap();
    let mut failed = FailedLinks::new(g.link_count());
    failed.fail(up);
    let k = 4;
    let table = Arc::new(RouteTable::build(g, k));
    let mut arena = PathArena::new();
    for provider in [
        &mut MptcpProvider::new(k, true),
        &mut MptcpProvider::with_shared(table, true),
    ] {
        // src's only outgoing link is dead: oracle finds nothing, the
        // provider parks.
        assert!(oracle(g, src, dst, &failed, k).is_empty());
        assert!(provider
            .route(g, &mut arena, &failed, &spec(0, src, dst))
            .is_none());
        // The reverse direction never crosses the dead directed link.
        let want = oracle(g, dst, src, &failed, k);
        assert!(!want.is_empty());
        assert_eq!(
            routed_paths(provider, g, &mut arena, &failed, &spec(1, dst, src)),
            want
        );
    }
}

/// A flow whose source is a switch, not a server, has no ingress switch
/// pair: both providers route it with a Yen run between the endpoints,
/// with and without a failed link, and the engine completes it.
#[test]
fn unattached_endpoint_routes_between_the_endpoints() {
    let clos = ClosParams::mini().build();
    let g = &clos.net.graph;
    let servers = g.servers();
    let (src, dst) = (g.server_uplink_switch(servers[0]).unwrap(), servers[5]);
    let k = 8;
    let table = Arc::new(RouteTable::build(g, k));
    let mut failed = FailedLinks::new(g.link_count());
    for cut in [false, true] {
        if cut {
            let want = oracle(g, src, dst, &failed, k);
            failed.fail(want[0].links[0]);
        }
        let want = oracle(g, src, dst, &failed, k);
        assert!(!want.is_empty());
        for mut provider in [
            MptcpProvider::new(k, true),
            MptcpProvider::with_shared(table.clone(), true),
        ] {
            let mut arena = PathArena::new();
            let sp = spec(0, src, dst);
            assert_eq!(
                routed_paths(&mut provider, g, &mut arena, &failed, &sp),
                want,
                "cut = {cut}"
            );
        }
    }
    let cfg = SimConfig {
        transport: Transport::mptcp8(),
        ..SimConfig::default()
    };
    let out = flowsim::run(g, &[spec(0, src, dst)], &cfg, RunOpts::default()).unwrap();
    assert!(out.result.records[0].finish.is_some());
}
