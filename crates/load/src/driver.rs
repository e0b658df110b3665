//! The end-to-end load driver: clients → batches → consensus slots →
//! committed log → latency histogram.
//!
//! [`run_load`] assembles a cluster of
//! [`BatchingReplica`](gencon_smr::BatchingReplica)s over any catalog
//! parameterization, attaches a deterministic [`Workload`] to every honest
//! replica through the `gencon-sim` per-round injection hook, runs the
//! lock-step execution under the chosen [`NetworkModel`] and fault mix, and
//! reports throughput plus a log-bucketed commit-latency histogram.
//!
//! Latency accounting: every submitted command records its submit round in
//! a shared map; the *measurement replica* (the lowest-id honest,
//! never-crashed one) reports `commit_round − submit_round` for each
//! command as it is applied — including commands submitted at other
//! replicas, since rounds are global in the lock-step model.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gencon_adversary::Mute;
use gencon_core::Params;
use gencon_sim::{CrashPlan, NetworkModel, Outcome, RoundHook, SimBuilder, Simulation};
use gencon_smr::{Batch, BatchingReplica, SmrMsg};
use gencon_types::{ProcessId, Round};

use crate::hist::LatencyHistogram;
use crate::workload::{ClosedLoop, OpenLoop, Workload};

/// The workload shape attached to each replica.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Closed loop: every client keeps `outstanding` requests in flight.
    Closed {
        /// Requests in flight per client.
        outstanding: u32,
    },
    /// Open loop: Poisson arrivals with this mean rate per round.
    Poisson {
        /// Mean arrivals per round per replica.
        rate: f64,
    },
}

impl WorkloadKind {
    /// A short label for results rows (`closed(k=4)`, `poisson(2.0)`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadKind::Closed { outstanding } => format!("closed(k={outstanding})"),
            WorkloadKind::Poisson { rate } => format!("poisson({rate:.1})"),
        }
    }

    /// Replica `i`'s arrival stream: `clients` clients, open-loop rngs
    /// seeded from `seed + i`.
    pub(crate) fn for_replica(&self, i: usize, clients: u16, seed: u64) -> Box<dyn Workload> {
        match *self {
            WorkloadKind::Closed { outstanding } => {
                Box::new(ClosedLoop::new(i as u16, clients, outstanding))
            }
            WorkloadKind::Poisson { rate } => Box::new(OpenLoop::new(
                i as u16,
                clients,
                rate,
                seed.wrapping_add(i as u64),
            )),
        }
    }
}

/// `count` per second of `wall` (0 for an empty window).
pub(crate) fn per_sec(count: u64, wall: std::time::Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// One load configuration: clients, workload shape, batching, stop rule.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// Clients attached to each honest replica.
    pub clients_per_replica: u16,
    /// Arrival model.
    pub workload: WorkloadKind,
    /// Max commands per proposed batch (1 = unbatched).
    pub batch_cap: usize,
    /// Slot pipelining window (1 = sequential slots).
    pub window: usize,
    /// Commands each replica must apply before reporting done.
    pub commit_target: usize,
    /// Hard stop, in rounds.
    pub max_rounds: u64,
    /// Base seed for the per-replica workload rngs.
    pub seed: u64,
}

/// What one [`run_load`] execution produced.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Commands applied at the measurement replica.
    pub committed_cmds: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Commit latency (rounds from submit to apply) at the measurement
    /// replica.
    pub hist: LatencyHistogram,
    /// Whether every correct replica reached the commit target.
    pub all_decided: bool,
    /// Whether all honest replicas that reached the target report identical
    /// command logs (per-slot Agreement, flattened).
    pub logs_agree: bool,
    /// The full simulation outcome, for further inspection.
    pub outcome: Outcome<Vec<u64>>,
}

impl LoadReport {
    /// Throughput: committed commands per executed round.
    #[must_use]
    pub fn cmds_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.committed_cmds as f64 / self.rounds as f64
        }
    }
}

/// State shared between the per-replica hooks and the driver.
#[derive(Debug, Default)]
struct Shared {
    /// Submit round of every command ever injected (commands are globally
    /// unique by construction).
    submit_round: HashMap<u64, u64>,
    /// Commit latencies observed at the measurement replica.
    hist: LatencyHistogram,
    /// Prefix of the measurement replica's applied log already accounted.
    measured: usize,
}

/// The per-replica hook: injects arrivals before each send step and (on the
/// measurement replica) harvests commit latencies after each transition.
struct LoadHook {
    workload: Box<dyn Workload>,
    shared: Arc<Mutex<Shared>>,
    measure: bool,
}

impl RoundHook<BatchingReplica<u64>> for LoadHook {
    fn before_send(&mut self, r: Round, rep: &mut BatchingReplica<u64>) {
        let arrivals = self.workload.arrivals(r.number(), rep.applied());
        if arrivals.is_empty() {
            return;
        }
        {
            let mut sh = self.shared.lock().expect("hook lock");
            for &cmd in &arrivals {
                sh.submit_round.insert(cmd, r.number());
            }
        }
        rep.submit_all(arrivals);
    }

    fn after_receive(&mut self, _r: Round, rep: &mut BatchingReplica<u64>) {
        if !self.measure {
            return;
        }
        let (cmds, rounds) = rep.applied_with_rounds();
        let mut sh = self.shared.lock().expect("hook lock");
        for i in sh.measured..cmds.len() {
            if let Some(&submitted) = sh.submit_round.get(&cmds[i]) {
                // A command is submitted before round r's send and applied
                // at some round ≥ r's receive, so this is ≥ 1 by
                // construction; the max(1) only guards histogram semantics.
                sh.hist.record(rounds[i].saturating_sub(submitted).max(1));
            }
        }
        sh.measured = cmds.len();
    }
}

/// Runs one end-to-end load configuration.
///
/// * `params` — consensus parameterization over `Batch<u64>` values (from
///   any `gencon_algos` constructor, e.g.
///   `paxos::<Batch<u64>>(3, 1, ProcessId::new(0))?.params`);
/// * `network` — the round-by-round delivery model;
/// * `crashes` — crash schedule (bounded by the configuration's `f`);
/// * `byzantine` — ids replaced by mute Byzantine processes (bounded by
///   `b`); a mute Byzantine stresses liveness exactly like a crashed
///   replica but counts against the Byzantine budget;
/// * `profile` — clients, workload, batching and stop rule.
///
/// # Panics
///
/// Panics if the scenario violates the configuration's fault bounds, or if
/// every replica is faulty (no measurement replica).
pub fn run_load(
    params: &Params<Batch<u64>>,
    network: impl NetworkModel + 'static,
    crashes: CrashPlan,
    byzantine: &[ProcessId],
    profile: &LoadProfile,
) -> LoadReport {
    let n = params.cfg.n();
    let shared = Arc::new(Mutex::new(Shared::default()));

    // Lowest-id honest, never-crashed replica measures latency: it keeps
    // applying for the whole run.
    let crashing: Vec<ProcessId> = crashes.iter().map(|(p, _)| p).collect();
    let measure_id = (0..n)
        .map(ProcessId::new)
        .find(|p| !byzantine.contains(p) && !crashing.contains(p))
        .expect("at least one correct replica");

    let mut builder: SimBuilder<SmrMsg<Batch<u64>>, Vec<u64>> = Simulation::builder(params.cfg);
    for i in 0..n {
        let id = ProcessId::new(i);
        if byzantine.contains(&id) {
            builder = builder.byzantine(Mute::<SmrMsg<Batch<u64>>>::new(id));
            continue;
        }
        let replica =
            BatchingReplica::new(id, params.clone(), profile.batch_cap, profile.commit_target)
                .expect("validated params")
                .with_window(profile.window);
        let workload = profile
            .workload
            .for_replica(i, profile.clients_per_replica, profile.seed);
        builder = builder.honest_driven(
            replica,
            LoadHook {
                workload,
                shared: Arc::clone(&shared),
                measure: id == measure_id,
            },
        );
    }

    let mut sim = builder
        .network(network)
        .crashes(crashes)
        .build()
        .expect("scenario respects fault bounds");
    let outcome = sim.run(profile.max_rounds);

    let sh = shared.lock().expect("driver lock");
    let logs_agree = gencon_sim::properties::agreement(&outcome, |log| log);
    LoadReport {
        committed_cmds: sh.measured as u64,
        rounds: outcome.rounds_executed,
        hist: sh.hist.clone(),
        all_decided: outcome.all_correct_decided,
        logs_agree,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{paxos, pbft};
    use gencon_sim::{AlwaysGood, CrashAt, Gst};

    fn profile(batch_cap: usize, target: usize) -> LoadProfile {
        LoadProfile {
            clients_per_replica: 4,
            workload: WorkloadKind::Closed { outstanding: 4 },
            batch_cap,
            window: 1,
            commit_target: target,
            max_rounds: 400,
            seed: 1,
        }
    }

    #[test]
    fn paxos_closed_loop_reaches_target() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let report = run_load(
            &spec.params,
            AlwaysGood,
            CrashPlan::none(),
            &[],
            &profile(8, 40),
        );
        assert!(report.all_decided, "rounds: {}", report.rounds);
        assert!(report.logs_agree);
        assert!(report.committed_cmds >= 40);
        assert!(report.hist.count() >= 40);
        assert!(report.hist.p50() >= 1);
        assert!(report.cmds_per_round() > 0.0);
    }

    #[test]
    fn batching_beats_unbatched_by_cap_factor() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let unbatched = run_load(
            &spec.params,
            AlwaysGood,
            CrashPlan::none(),
            &[],
            &profile(1, 48),
        );
        let batched = run_load(
            &spec.params,
            AlwaysGood,
            CrashPlan::none(),
            &[],
            &profile(8, 48),
        );
        assert!(unbatched.all_decided && batched.all_decided);
        assert!(
            batched.cmds_per_round() >= 4.0 * unbatched.cmds_per_round(),
            "cap 8: {:.3} cmds/round, cap 1: {:.3} cmds/round",
            batched.cmds_per_round(),
            unbatched.cmds_per_round()
        );
    }

    #[test]
    fn crash_fault_mix_still_commits() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let crashes =
            CrashPlan::none().with(ProcessId::new(2), CrashAt::mid_send(Round::new(6), 1));
        let report = run_load(
            &spec.params,
            Gst::new(10, 0.4, 7),
            crashes,
            &[],
            &profile(4, 24),
        );
        assert!(report.all_decided);
        assert!(report.logs_agree);
    }

    #[test]
    fn byzantine_mute_mix_still_commits() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let report = run_load(
            &spec.params,
            AlwaysGood,
            CrashPlan::none(),
            &[ProcessId::new(3)],
            &profile(4, 20),
        );
        assert!(report.all_decided);
        assert!(report.logs_agree);
        assert_eq!(report.outcome.byzantine.len(), 1);
    }

    #[test]
    fn open_loop_poisson_commits_under_gst() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut p = profile(8, 30);
        p.workload = WorkloadKind::Poisson { rate: 2.0 };
        let report = run_load(
            &spec.params,
            Gst::new(6, 0.5, 3),
            CrashPlan::none(),
            &[],
            &p,
        );
        assert!(report.all_decided, "rounds: {}", report.rounds);
        assert!(report.logs_agree);
        assert!(report.hist.count() >= 30);
    }

    #[test]
    fn workload_labels() {
        assert_eq!(
            WorkloadKind::Closed { outstanding: 4 }.label(),
            "closed(k=4)"
        );
        assert_eq!(WorkloadKind::Poisson { rate: 2.0 }.label(), "poisson(2.0)");
    }
}
