//! The Figure 11 applications: Spark broadcast and Hadoop shuffle.
//!
//! "Most data center applications are computation-oriented … whether the
//! bandwidth increase can be translated into acceleration of data center
//! applications is yet another question." (§5.4). We model the two jobs
//! at task level and drive their flows through the fluid simulator:
//!
//! * **Spark broadcast (Word2Vec)**: the master torrent-broadcasts the
//!   model to 23 workers; each doubling round is a batch of simultaneous
//!   flows, the round ends when its slowest flow finishes.
//! * **Hadoop shuffle (Tez Sort)**: all 23 slaves map; a subset reduce;
//!   the shuffle is a single batch of mapper→reducer flows and the phase
//!   ends at the batch makespan.
//!
//! End-to-end *data read time* adds a fixed serialization +
//! deserialization overhead per transfer, which is why application-level
//! gains are smaller than raw bandwidth gains — exactly the paper's
//! point.

use crate::rig::TestbedRig;
use flat_tree::PodMode;
use flowsim::{run, FlowSpec, RunOpts, SimConfig, Transport};
use serde::{Deserialize, Serialize};
use traffic::apps::{shuffle_pairs, torrent_broadcast_rounds};

/// Application-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppParams {
    /// Bytes moved per transfer (the broadcast model / one shuffle
    /// partition).
    pub bytes_per_transfer: f64,
    /// Fixed serialization + deserialization overhead per transfer (s).
    pub serdes_overhead_s: f64,
    /// Number of reducers in the shuffle.
    pub reducers: usize,
}

impl AppParams {
    /// Defaults sized to the testbed jobs (hundreds of MB per transfer,
    /// ~1 s serdes overhead; Figure 11's read durations are 3–5 s).
    pub fn default_testbed() -> Self {
        Self {
            bytes_per_transfer: 2.5e9,
            serdes_overhead_s: 1.0,
            reducers: 8,
        }
    }
}

/// Measured application performance under one mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// Mode evaluated.
    pub mode: PodMode,
    /// Average end-to-end data read time per transfer, incl. serdes (s).
    pub read_time_s: f64,
    /// Communication-phase duration (s).
    pub phase_s: f64,
}

fn transport(rig: &TestbedRig) -> Transport {
    Transport::Mptcp {
        k: rig.k,
        coupled: true,
    }
}

/// Runs the Spark torrent broadcast on a mode: master = server 0,
/// workers = servers 1..24.
pub fn spark_broadcast(rig: &TestbedRig, mode: PodMode, params: &AppParams) -> AppReport {
    let inst = rig.instance(mode);
    let servers = &inst.net.servers;
    let workers: Vec<usize> = (1..servers.len()).collect();
    let rounds = torrent_broadcast_rounds(0, &workers);
    let cfg = SimConfig {
        transport: transport(rig),
        ..SimConfig::default()
    };
    let mut phase = 0.0f64;
    let mut read_times = Vec::new();
    for round in rounds {
        let flows: Vec<FlowSpec> = round
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| FlowSpec {
                id: i as u64,
                src: servers[s],
                dst: servers[d],
                bytes: params.bytes_per_transfer,
                start: 0.0,
            })
            .collect();
        let res = run(&inst.net.graph, &flows, &cfg, RunOpts::default())
            .expect("testbed flows are valid")
            .result;
        let round_time = res
            .records
            .iter()
            .map(|r| r.fct().expect("testbed flows finish"))
            .fold(0.0f64, f64::max)
            + params.serdes_overhead_s;
        phase += round_time;
        read_times.extend(
            res.records
                .iter()
                .map(|r| r.fct().unwrap() + params.serdes_overhead_s),
        );
    }
    AppReport {
        mode,
        read_time_s: read_times.iter().sum::<f64>() / read_times.len() as f64,
        phase_s: phase,
    }
}

/// Runs the Hadoop/Tez shuffle on a mode: all slaves (servers 1..24) map,
/// the first `reducers` slaves reduce.
pub fn hadoop_shuffle(rig: &TestbedRig, mode: PodMode, params: &AppParams) -> AppReport {
    let inst = rig.instance(mode);
    let servers = &inst.net.servers;
    let mappers: Vec<usize> = (1..servers.len()).collect();
    let reducers: Vec<usize> = mappers.iter().copied().take(params.reducers).collect();
    let pairs = shuffle_pairs(&mappers, &reducers);
    // Per-pair partition size: total shuffled volume fixed, split across
    // reducers so the job size does not depend on the reducer count.
    let bytes = params.bytes_per_transfer / params.reducers as f64;
    let flows: Vec<FlowSpec> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| FlowSpec {
            id: i as u64,
            src: servers[s],
            dst: servers[d],
            bytes,
            start: 0.0,
        })
        .collect();
    let cfg = SimConfig {
        transport: transport(rig),
        ..SimConfig::default()
    };
    let res = run(&inst.net.graph, &flows, &cfg, RunOpts::default())
        .expect("testbed flows are valid")
        .result;
    let fcts: Vec<f64> = res
        .records
        .iter()
        .map(|r| r.fct().expect("testbed flows finish"))
        .collect();
    AppReport {
        mode,
        read_time_s: fcts.iter().sum::<f64>() / fcts.len() as f64 + params.serdes_overhead_s,
        phase_s: fcts.iter().copied().fold(0.0f64, f64::max) + params.serdes_overhead_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_global_beats_clos() {
        let rig = TestbedRig::new();
        let p = AppParams::default_testbed();
        let clos = spark_broadcast(&rig, PodMode::Clos, &p);
        let global = spark_broadcast(&rig, PodMode::Global, &p);
        assert!(
            global.phase_s <= clos.phase_s,
            "global {} vs clos {}",
            global.phase_s,
            clos.phase_s
        );
        assert!(global.read_time_s <= clos.read_time_s + 1e-9);
        assert!(global.read_time_s > p.serdes_overhead_s);
    }

    #[test]
    fn shuffle_global_beats_clos() {
        let rig = TestbedRig::new();
        let p = AppParams::default_testbed();
        let clos = hadoop_shuffle(&rig, PodMode::Clos, &p);
        let global = hadoop_shuffle(&rig, PodMode::Global, &p);
        assert!(
            global.phase_s < clos.phase_s,
            "global {} vs clos {}",
            global.phase_s,
            clos.phase_s
        );
        assert!(global.read_time_s < clos.read_time_s);
    }

    #[test]
    fn local_lands_between_or_near() {
        // "The global mode only slightly outperforms the local mode" at
        // this small scale.
        let rig = TestbedRig::new();
        let p = AppParams::default_testbed();
        let clos = hadoop_shuffle(&rig, PodMode::Clos, &p);
        let local = hadoop_shuffle(&rig, PodMode::Local, &p);
        let global = hadoop_shuffle(&rig, PodMode::Global, &p);
        assert!(global.phase_s <= local.phase_s + 1e-9);
        assert!(local.phase_s <= clos.phase_s * 1.2);
    }

    #[test]
    fn serdes_overhead_dampens_relative_gain() {
        // The application-level improvement must be smaller than the raw
        // bandwidth improvement — the paper's §5.4 observation.
        let rig = TestbedRig::new();
        let mut p = AppParams::default_testbed();
        let clos = hadoop_shuffle(&rig, PodMode::Clos, &p);
        let global = hadoop_shuffle(&rig, PodMode::Global, &p);
        let gain_with_overhead = clos.read_time_s / global.read_time_s;
        p.serdes_overhead_s = 0.0;
        let clos0 = hadoop_shuffle(&rig, PodMode::Clos, &p);
        let global0 = hadoop_shuffle(&rig, PodMode::Global, &p);
        let raw_gain = clos0.read_time_s / global0.read_time_s;
        assert!(gain_with_overhead < raw_gain);
    }
}
