//! The cluster-monitoring load driver: experiment **E14**'s engine.
//!
//! [`run_mon_load`] runs a durable cluster on the shared cluster
//! harness, as [`run_store_load`](crate::run_store_load) does — one
//! event-loop node thread per replica over an in-process channel mesh,
//! each wrapping a real [`FileWal`](gencon_store::FileWal) — but gives
//! **every** node the admin kit (metrics registry, history sampler,
//! state-hash cell, flight recorder and admin endpoint), then attaches a
//! [`Monitor`](gencon_server::mon::Monitor) that polls the cluster
//! exactly as the `gencon-mon` binary would.
//!
//! Mid-run the driver rehearses a node death: it flips the victim's
//! admin endpoint offline (accepted connections are dropped — to the
//! monitor the node is gone), waits for the watchdog's `unreachable`
//! alert, brings the endpoint back, and waits for
//! `straggler-recovered`. The final report then proves the other half
//! of the tentpole: every node published state hashes at the same
//! snapshot-boundary applied counts, and they agree at the max common
//! one — the cluster is demonstrably *not* diverging, with the evidence
//! in one JSON object.

use std::sync::atomic::Ordering;
use std::time::Duration;

use gencon_core::Params;
use gencon_server::mon::{
    trace_pull, Alert, AlertKind, ClusterReport, MonConfig, Monitor, TracePull,
    CLOCK_SAMPLES_DEFAULT,
};
use gencon_server::NodeStats;
use gencon_smr::Batch;

use crate::cluster::{AdminKit, NetTransportKind, StoreMode};
use crate::driver::{LoadProfile, WorkloadKind};
use crate::storedriver::StoreLoadProfile;

/// One monitored-cluster run configuration.
#[derive(Clone, Debug)]
pub struct MonLoadProfile {
    /// Clients, workload, batching and stop rule; each replica must ack
    /// `commit_target` commands durably.
    pub load: LoadProfile,
    /// Group-commit window for each node's WAL.
    pub fsync_interval: Duration,
    /// Snapshot + hash-publication period in slots.
    pub snapshot_every: u64,
    /// Monitor poll cadence (also the history sampler interval).
    pub poll_interval: Duration,
    /// Node whose admin endpoint the driver takes down mid-run.
    pub kill_node: usize,
    /// Healthy polls before the endpoint goes dark.
    pub polls_before_kill: u64,
    /// Cap on polls spent waiting for each watchdog transition.
    pub max_wait_polls: u64,
    /// Flight-recorder ring capacity per node (events). Must cover the
    /// whole run for the post-run stitch to see every committed slot.
    pub trace_events: usize,
}

impl MonLoadProfile {
    /// A sensible default for in-process smoke runs.
    #[must_use]
    pub fn new(commit_target: usize) -> Self {
        MonLoadProfile {
            load: LoadProfile {
                clients_per_replica: 4,
                workload: WorkloadKind::Closed { outstanding: 4 },
                batch_cap: 16,
                window: 4,
                commit_target,
                max_rounds: 200_000,
                seed: 42,
            },
            fsync_interval: Duration::from_millis(5),
            snapshot_every: 32,
            poll_interval: Duration::from_millis(100),
            kill_node: 1,
            polls_before_kill: 2,
            max_wait_polls: 100,
            trace_events: 1 << 17,
        }
    }
}

/// What one [`run_mon_load`] execution produced.
#[derive(Clone, Debug)]
pub struct MonLoadReport {
    /// Every alert the watchdog raised, in firing order.
    pub alerts: Vec<Alert>,
    /// The last cluster report, taken after every node finished.
    pub final_report: ClusterReport,
    /// Polls the monitor ran.
    pub polls: u64,
    /// Whether every replica acked at least the commit target.
    pub all_reached_target: bool,
    /// Whether the final report found state hashes agreeing at a common
    /// applied count across all nodes.
    pub hashes_agree: bool,
    /// Per-node event-loop statistics.
    pub stats: Vec<NodeStats>,
    /// The post-run cross-node trace pull: clock estimates and stitched
    /// cluster slot spans (experiment E15).
    pub trace: TracePull,
    /// Stitched cluster spans ÷ max committed slots — how much of the
    /// run the autopsy actually explains.
    pub stitched_ratio: f64,
}

impl MonLoadReport {
    /// Whether the kill choreography played out: `unreachable` fired
    /// for the victim, then `straggler-recovered` after it came back.
    #[must_use]
    pub fn saw_kill_and_recovery(&self, victim: usize) -> bool {
        let died = self
            .alerts
            .iter()
            .position(|a| a.kind == AlertKind::Unreachable && a.node == Some(victim));
        let back = self
            .alerts
            .iter()
            .position(|a| a.kind == AlertKind::StragglerRecovered && a.node == Some(victim));
        matches!((died, back), (Some(d), Some(b)) if d < b)
    }

    /// Decide-skew `(p50, p99)` in µs over the stitched spans.
    #[must_use]
    pub fn decide_skew_pcts(&self) -> (Option<u64>, Option<u64>) {
        let mut v = self.trace.decide_skews();
        (
            gencon_trace::percentile_us(&mut v, 50.0),
            gencon_trace::percentile_us(&mut v, 99.0),
        )
    }

    /// Worst-node quorum-wait `(p50, p99)` in µs over the stitched
    /// spans.
    #[must_use]
    pub fn quorum_wait_pcts(&self) -> (Option<u64>, Option<u64>) {
        let mut v = self.trace.quorum_waits();
        (
            gencon_trace::percentile_us(&mut v, 50.0),
            gencon_trace::percentile_us(&mut v, 99.0),
        )
    }
}

/// Runs a durable cluster with per-node admin endpoints and a live
/// monitor, rehearsing an admin-endpoint death mid-run (see the module
/// docs).
///
/// # Panics
///
/// Panics if a data dir or admin endpoint cannot be created, or a node
/// thread dies.
pub fn run_mon_load(params: &Params<Batch<u64>>, profile: &MonLoadProfile) -> MonLoadReport {
    let n = params.cfg.n();
    assert!(profile.kill_node < n, "kill_node out of range");
    // Every node gets the admin kit: registry, sampler, hash cell, peer
    // table, recorder and a gated admin endpoint on its own port.
    let kits = AdminKit::spawn_all(n, profile.trace_events, profile.poll_interval);
    let instruments = kits.iter().map(|k| k.instruments(true)).collect();
    let cluster = StoreLoadProfile {
        load: profile.load.clone(),
        transport: NetTransportKind::Channel,
        mode: StoreMode::Durable {
            fsync_interval: profile.fsync_interval,
            fast_ack: false,
        },
        snapshot_every: profile.snapshot_every,
        metrics: None,
        trace: None,
    }
    .spawn(params, instruments, None);
    let addrs: Vec<_> = kits.iter().map(|k| k.addr).collect();
    let offline = &kits[profile.kill_node].offline;

    // The monitor runs in this thread, exactly as gencon-mon would:
    // healthy polls, then the kill choreography, then drain to the end.
    let mut mon = Monitor::new(
        addrs.clone(),
        MonConfig {
            interval: profile.poll_interval,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(1_000),
            stall_polls: 5,
            // In-process nodes march in lockstep; only the rehearsed
            // death should alert, not scheduling jitter.
            straggler_slots: u64::MAX,
            straggler_rounds: u64::MAX,
            ..MonConfig::default()
        },
    );
    let mut alerts: Vec<Alert> = Vec::new();
    let poll = |mon: &mut Monitor, alerts: &mut Vec<Alert>| {
        let report = mon.poll_once();
        alerts.extend(report.alerts.iter().cloned());
        std::thread::sleep(profile.poll_interval);
        report
    };

    for _ in 0..profile.polls_before_kill {
        poll(&mut mon, &mut alerts);
    }
    // Polls until the watchdog raised `kind` for the victim (bounded).
    let await_alert = |kind: AlertKind, mon: &mut Monitor, alerts: &mut Vec<Alert>| {
        for _ in 0..profile.max_wait_polls {
            if alerts
                .iter()
                .any(|a| a.kind == kind && a.node == Some(profile.kill_node))
            {
                return;
            }
            poll(mon, alerts);
        }
    };
    offline.store(true, Ordering::Relaxed);
    await_alert(AlertKind::Unreachable, &mut mon, &mut alerts);
    offline.store(false, Ordering::Relaxed);
    await_alert(AlertKind::StragglerRecovered, &mut mon, &mut alerts);
    while !cluster.finished() {
        poll(&mut mon, &mut alerts);
    }
    let results = cluster.join();

    // E15: with the cluster quiesced (recorders hold the whole run),
    // estimate every node's clock and stitch the cross-node autopsy —
    // exactly what `gencon-mon trace-pull` does against live nodes.
    let trace = trace_pull(
        &addrs,
        profile.trace_events,
        CLOCK_SAMPLES_DEFAULT,
        &MonConfig::default(),
    );

    // One last poll against the quiesced cluster: gauges and hash cells
    // hold their final values, so this is the run's verdict.
    let final_report = poll(&mut mon, &mut alerts);
    let hashes_agree = final_report
        .agreement
        .as_ref()
        .is_some_and(|a| a.agreed && a.hashes.len() == n);
    let all_reached_target = results
        .iter()
        .all(|r| r.replica.applied_len() >= profile.load.commit_target);
    let stitched_ratio = if final_report.max_committed == 0 {
        0.0
    } else {
        trace.spans.len() as f64 / final_report.max_committed as f64
    };
    MonLoadReport {
        alerts,
        polls: final_report.poll,
        final_report,
        all_reached_target,
        hashes_agree,
        stats: results.iter().map(|r| r.stats).collect(),
        trace,
        stitched_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::pbft;

    #[test]
    fn monitored_cluster_sees_kill_recovery_and_hash_agreement() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut profile = MonLoadProfile::new(240);
        profile.poll_interval = Duration::from_millis(50);
        let report = run_mon_load(&spec.params, &profile);

        assert!(report.all_reached_target, "stats: {:?}", report.stats);
        assert!(
            report.saw_kill_and_recovery(profile.kill_node),
            "alerts: {:?}",
            report.alerts
        );
        assert!(
            report.hashes_agree,
            "final agreement: {:?}",
            report.final_report.agreement
        );
        // No divergence anywhere: honest replicas fold identical states.
        assert!(
            report
                .alerts
                .iter()
                .all(|a| a.kind != AlertKind::Divergence),
            "alerts: {:?}",
            report.alerts
        );
        // The final report serializes with the agreement evidence.
        let json = report.final_report.to_json();
        assert!(json.contains("\"agreed\":true"), "{json}");

        // E15: the post-run trace pull explains (nearly) the whole run —
        // every node reachable with a clock estimate, ≥90 % of committed
        // slots stitched, and finite cross-node latency percentiles.
        assert!(
            report.trace.nodes.iter().all(|p| p.reachable),
            "trace pull missed nodes: {:?}",
            report.trace.nodes
        );
        assert!(
            report.trace.nodes.iter().all(|p| p.clock.is_some()),
            "clock estimate missing: {:?}",
            report.trace.nodes
        );
        assert!(
            report.stitched_ratio >= 0.9,
            "stitched {} spans for {} committed slots",
            report.trace.spans.len(),
            report.final_report.max_committed
        );
        let (skew_p50, skew_p99) = report.decide_skew_pcts();
        assert!(
            skew_p50.is_some() && skew_p99.is_some(),
            "no decide-skew percentiles from {} spans",
            report.trace.spans.len()
        );
        let (wait_p50, _) = report.quorum_wait_pcts();
        assert!(
            wait_p50.is_some(),
            "no quorum-wait percentiles from {} spans",
            report.trace.spans.len()
        );
    }
}
