//! The pre-refactor simulation engine, kept verbatim.
//!
//! [`simulate_reference`] is the event loop as it existed before the
//! engine refactor (interned paths, reusable allocation workspace,
//! failure-epoch route cache): it clones `ConnPaths` per event, tracks
//! failures in a `HashSet`, and re-routes with fresh Yen runs. It is the
//! behavioral oracle — [`crate::run`] must produce bit-identical
//! [`SimResult`]s — and the baseline the `bench_simcore` benchmark
//! measures the refactored engine against. It is not meant for
//! production use.

use crate::alloc::{connection_rates, ConnPaths};
use crate::sim::{FlowRecord, FlowSpec, SimConfig, SimResult, Transport};
use crate::sim::{DONE_BYTES, GBPS_TO_BPS, STALL_RATE};
use netgraph::{ecmp, yen, Graph};
use routing::RouteTable;

struct Active {
    rec_idx: usize,
    spec: FlowSpec,
    remaining: f64,
    conn: ConnPaths,
}

/// Runs the fluid simulation with the pre-refactor engine.
pub fn simulate_reference(g: &Graph, flows: &[FlowSpec], cfg: &SimConfig) -> SimResult {
    let mut caps: Vec<f64> = g.link_ids().map(|l| g.link(l).capacity_gbps).collect();
    let k = match cfg.transport {
        Transport::TcpEcmp => 1,
        Transport::Mptcp { k, .. } => k,
    };
    let mut rt = RouteTable::new(k.max(1));

    // Records in input order; simulation works on a start-sorted index.
    let mut records: Vec<FlowRecord> = flows
        .iter()
        .map(|f| FlowRecord {
            id: f.id,
            start: f.start,
            finish: None,
            bytes: f.bytes,
        })
        .collect();
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| flows[a].start.total_cmp(&flows[b].start).then(a.cmp(&b)));
    let mut failures = cfg.link_failures.clone();
    failures.sort_by(|a, b| a.time.total_cmp(&b.time));
    let mut failed: std::collections::HashSet<usize> = std::collections::HashSet::new();

    let mut next_arrival = 0usize;
    let mut next_failure = 0usize;
    let mut active: Vec<Active> = Vec::new();
    let mut series = Vec::new();
    let mut t = 0.0f64;

    let route = |rt: &mut RouteTable,
                 failed: &std::collections::HashSet<usize>,
                 spec: &FlowSpec|
     -> Option<ConnPaths> {
        match cfg.transport {
            Transport::TcpEcmp => {
                let all = ecmp::equal_cost_paths(g, spec.src, spec.dst);
                let alive: Vec<netgraph::Path> = all
                    .into_iter()
                    .filter(|p| p.links.iter().all(|l| !failed.contains(&l.idx())))
                    .collect();
                let path = match ecmp::select_by_hash(&alive, spec.src, spec.dst, spec.id) {
                    Some(p) => p.clone(),
                    None => {
                        // Equal-cost set fully failed: any surviving path.
                        netgraph::dijkstra::shortest_path_by(g, spec.src, spec.dst, |l| {
                            if failed.contains(&l.idx()) {
                                f64::INFINITY
                            } else {
                                1.0
                            }
                        })
                        .map(|(_, p)| p)?
                    }
                };
                Some(ConnPaths {
                    paths: vec![path],
                    subflow_weight: 1.0,
                })
            }
            Transport::Mptcp { k, coupled } => {
                let paths: Vec<netgraph::Path> = if failed.is_empty() {
                    rt.server_paths(g, spec.src, spec.dst)
                } else {
                    yen::k_shortest_paths_by(g, spec.src, spec.dst, k, |l| {
                        if failed.contains(&l.idx()) {
                            f64::INFINITY
                        } else {
                            1.0
                        }
                    })
                };
                if paths.is_empty() {
                    return None;
                }
                let weight = if coupled {
                    1.0 / paths.len() as f64
                } else {
                    1.0
                };
                Some(ConnPaths {
                    paths,
                    subflow_weight: weight,
                })
            }
        }
    };

    loop {
        // Allocate under the current active set.
        let conns: Vec<ConnPaths> = active.iter().map(|a| a.conn.clone()).collect();
        let rates = connection_rates(&caps, &conns);
        if cfg.record_series {
            series.push((t, rates.iter().sum()));
        }

        // Next event time.
        let t_arr = (next_arrival < order.len()).then(|| flows[order[next_arrival]].start);
        let t_fail = (next_failure < failures.len()).then(|| failures[next_failure].time);
        let t_fin = active
            .iter()
            .zip(&rates)
            .filter(|(_, &r)| r > STALL_RATE)
            .map(|(a, &r)| t + a.remaining / (r * GBPS_TO_BPS))
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))));
        let candidates = [t_arr, t_fail, t_fin];
        let Some(t_next) = candidates
            .iter()
            .flatten()
            .fold(None::<f64>, |acc, &x| Some(acc.map_or(x, |a| a.min(x))))
        else {
            // No events left; anything still active is stalled forever.
            break;
        };
        let t_next = t_next.max(t);

        // Drain bytes until t_next.
        let dt = t_next - t;
        for (a, &r) in active.iter_mut().zip(&rates) {
            a.remaining -= r * GBPS_TO_BPS * dt;
        }
        t = t_next;

        // Completions.
        let mut i = 0;
        while i < active.len() {
            if active[i].remaining <= DONE_BYTES {
                records[active[i].rec_idx].finish = Some(t);
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Arrivals.
        while next_arrival < order.len() && flows[order[next_arrival]].start <= t + 1e-15 {
            let idx = order[next_arrival];
            next_arrival += 1;
            let spec = flows[idx];
            assert_ne!(spec.src, spec.dst, "self-flow {}", spec.id);
            assert!(spec.bytes > 0.0, "empty flow {}", spec.id);
            match route(&mut rt, &failed, &spec) {
                Some(conn) => active.push(Active {
                    rec_idx: idx,
                    spec,
                    remaining: spec.bytes,
                    conn,
                }),
                None => { /* unroutable: record stays unfinished */ }
            }
        }
        // Failures.
        let mut failed_now = false;
        while next_failure < failures.len() && failures[next_failure].time <= t + 1e-15 {
            let f = failures[next_failure];
            next_failure += 1;
            failed.insert(f.link.idx());
            caps[f.link.idx()] = 0.0;
            if let Some(rev) = g.link(f.link).reverse {
                failed.insert(rev.idx());
                caps[rev.idx()] = 0.0;
            }
            failed_now = true;
        }
        if failed_now {
            // Re-route connections that lost a subflow.
            for a in &mut active {
                let hit = a
                    .conn
                    .paths
                    .iter()
                    .any(|p| p.links.iter().any(|l| failed.contains(&l.idx())));
                if hit {
                    if let Some(conn) = route(&mut rt, &failed, &a.spec) {
                        a.conn = conn;
                    } else {
                        // Keep only surviving subflows (possibly none).
                        a.conn
                            .paths
                            .retain(|p| p.links.iter().all(|l| !failed.contains(&l.idx())));
                    }
                }
            }
            active.retain(|a| {
                if a.conn.paths.is_empty() {
                    // Permanently stalled; finish stays None.
                    false
                } else {
                    true
                }
            });
        }
    }

    SimResult {
        records,
        series,
        end_time: t,
    }
}
