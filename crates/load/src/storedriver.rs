//! The real-node load driver: the same clients, batching and histogram
//! as [`run_load`](crate::run_load), but over actual transports and wall
//! clocks, with the storage layer optionally in the loop — the engine of
//! experiments **E9** (memory mode, Channel vs Tcp) and **E10** (memory
//! vs durable).
//!
//! [`run_store_load`] runs a cluster of `gencon-server` event-loop nodes
//! over a Channel or localhost-Tcp mesh in one of two modes:
//!
//! * **Memory** — no persistence; a command counts as *acked* when
//!   applied (the PR-3 baseline);
//! * **Durable** — every node wraps a real
//!   [`FileWal`](gencon_store::FileWal) (own data dir per node) in a
//!   [`DurableNode`](gencon_server::DurableNode); a command counts as
//!   acked only once the **durable watermark** passes it — i.e. its
//!   slot's WAL record is fsynced or folded into a snapshot. Latency is
//!   submit→durable-ack, which is what a client of a durable cluster
//!   actually observes.
//!
//! Latency is measured in **wall-clock microseconds** at node 0 into the
//! shared [`LatencyHistogram`], so `BENCH_net.json` rows compare directly
//! with `BENCH_smr.json`'s simulated rounds. In durable mode the
//! interesting number is the durable-to-memory throughput ratio: group
//! commit (one fsync per `fsync_interval`, not per slot) is what keeps it
//! small.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gencon_core::Params;
use gencon_metrics::Registry;
use gencon_server::{NodeHook, NodeStats};
use gencon_smr::{Batch, BatchingReplica};
use gencon_trace::{assemble_spans, FlightRecorder, SlotSpan};

use crate::cluster::{logs_agree, Cluster, ClusterSpec, Instruments, NetTransportKind, StoreMode};
use crate::driver::{per_sec, LoadProfile, WorkloadKind};
use crate::hist::LatencyHistogram;
use crate::workload::Workload;

/// One real-node load configuration.
#[derive(Clone, Debug)]
pub struct StoreLoadProfile {
    /// Clients, workload, batching and stop rule — the same profile
    /// [`run_load`](crate::run_load) simulates. Each replica must *ack*
    /// `commit_target` commands before reporting done; `max_rounds` is
    /// per node.
    pub load: LoadProfile,
    /// Mesh transport.
    pub transport: NetTransportKind,
    /// Storage participation.
    pub mode: StoreMode,
    /// Snapshot + compaction period in slots (durable mode; 0 disables).
    pub snapshot_every: u64,
    /// Per-stage metrics registry attached to the measurement replica
    /// (node 0): ingest/order counters from the event loop, persist
    /// counters and fsync latency from the durable wrapper. `None` skips
    /// the instrumentation.
    pub metrics: Option<Registry>,
    /// Flight recorder attached to the measurement replica (node 0): the
    /// order and persist stages record each slot's lifecycle events, and
    /// the report assembles them into per-slot stage-segment spans.
    /// `None` runs untraced.
    pub trace: Option<FlightRecorder>,
}

impl StoreLoadProfile {
    /// A sensible default configuration for localhost-scale runs over a
    /// Channel mesh.
    #[must_use]
    pub fn new(mode: StoreMode, clients_per_replica: u16, batch_cap: usize, target: usize) -> Self {
        StoreLoadProfile {
            load: LoadProfile {
                clients_per_replica,
                workload: WorkloadKind::Closed { outstanding: 4 },
                batch_cap,
                window: 4,
                commit_target: target,
                max_rounds: 200_000,
                seed: 42,
            },
            transport: NetTransportKind::Channel,
            mode,
            snapshot_every: 256,
            metrics: None,
            trace: None,
        }
    }

    /// Attaches a per-stage metrics registry to node 0.
    #[must_use]
    pub fn with_metrics(mut self, reg: Registry) -> Self {
        self.metrics = Some(reg);
        self
    }

    /// Attaches a flight recorder to node 0; the report then carries
    /// per-slot stage-segment spans assembled from its events.
    #[must_use]
    pub fn with_trace(mut self, recorder: FlightRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Spawns this profile's cluster with a [`WorkloadHook`] on every
    /// node (node `i` instrumented by `instruments[i]`); with `latency`
    /// the hooks log submits there and node 0 measures.
    pub(crate) fn spawn(
        &self,
        params: &Params<Batch<u64>>,
        instruments: Vec<Instruments>,
        latency: Option<&Arc<Latency>>,
    ) -> Cluster {
        let n = params.cfg.n();
        let done = Arc::new(AtomicUsize::new(0));
        let spec = ClusterSpec {
            params: params.clone(),
            transport: self.transport,
            batch_cap: self.load.batch_cap,
            window: self.load.window,
            max_rounds: self.load.max_rounds,
            stop_after_commands: None,
            mode: self.mode,
            snapshot_every: self.snapshot_every,
            instruments,
        };
        let load = &self.load;
        Cluster::spawn(spec, |i, ack_gate| WorkloadHook {
            workload: load
                .workload
                .for_replica(i, load.clients_per_replica, load.seed),
            ack_gate,
            latency: latency.cloned(),
            measure: i == 0,
            measured: 0,
            target: load.commit_target,
            marked_done: false,
            done: Arc::clone(&done),
            quorum: n,
        })
    }
}

/// What one [`run_store_load`] execution produced.
#[derive(Clone, Debug)]
pub struct StoreLoadReport {
    /// Commands applied at the measurement replica (node 0).
    pub committed_cmds: u64,
    /// Commands *acked* (durably, in durable-ack mode) at node 0.
    pub acked_cmds: u64,
    /// Serving window wall clock at node 0 (first round → ack target).
    pub wall: Duration,
    /// Rounds node 0 executed.
    pub rounds: u64,
    /// Submit→ack latency in microseconds at node 0.
    pub hist: LatencyHistogram,
    /// Whether every replica acked at least the commit target.
    pub all_reached_target: bool,
    /// Whether all applied logs agree on overlapping suffixes.
    pub logs_agree: bool,
    /// Per-node event-loop statistics.
    pub stats: Vec<NodeStats>,
    /// WAL payload bytes appended across all nodes (0 in memory mode).
    pub wal_bytes: u64,
    /// fsyncs taken across all nodes (0 in memory mode).
    pub wal_syncs: u64,
    /// Snapshots taken across all nodes (0 in memory mode).
    pub snapshots: u64,
    /// Per-slot stage-segment spans assembled from node 0's flight
    /// recorder (empty when the profile ran untraced).
    pub spans: Vec<SlotSpan>,
}

/// Stage-segment percentiles over a run's slot spans: where the time
/// between a slot's decide and its durable ack actually went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Spans the percentiles are computed over.
    pub spans: u64,
    /// Proposed → decided (consensus), p50 / p99 µs.
    pub order_p50_us: u64,
    /// Proposed → decided p99.
    pub order_p99_us: u64,
    /// Decided → handed to the persist stage (queue wait), p50 µs.
    pub persist_wait_p50_us: u64,
    /// Persist queue wait p99.
    pub persist_wait_p99_us: u64,
    /// Group commit (append + fsync) covering the slot, p50 µs.
    pub persist_svc_p50_us: u64,
    /// Group-commit service p99.
    pub persist_svc_p99_us: u64,
}

impl StoreLoadReport {
    /// Acked commands per second at the measurement replica.
    #[must_use]
    pub fn cmds_per_sec(&self) -> f64 {
        per_sec(self.acked_cmds, self.wall)
    }

    /// Percentiles of each stage segment over this run's slot spans
    /// (zeros when the run was untraced or a segment never appeared).
    #[must_use]
    pub fn segment_stats(&self) -> SegmentStats {
        let mut order = LatencyHistogram::new();
        let mut wait = LatencyHistogram::new();
        let mut svc = LatencyHistogram::new();
        for s in &self.spans {
            if let Some(v) = s.order_us {
                order.record(v);
            }
            if let Some(v) = s.persist_wait_us {
                wait.record(v);
            }
            if let Some(v) = s.persist_svc_us {
                svc.record(v);
            }
        }
        SegmentStats {
            spans: self.spans.len() as u64,
            order_p50_us: order.p50(),
            order_p99_us: order.p99(),
            persist_wait_p50_us: wait.p50(),
            persist_wait_p99_us: wait.p99(),
            persist_svc_p50_us: svc.p50(),
            persist_svc_p99_us: svc.p99(),
        }
    }
}

/// Runs one load configuration over `n` node threads and reports ack
/// throughput, latency and storage statistics.
///
/// # Panics
///
/// Panics if a data dir cannot be created, the mesh cannot be
/// established, or a node thread dies.
pub fn run_store_load(params: &Params<Batch<u64>>, profile: &StoreLoadProfile) -> StoreLoadReport {
    let latency = Arc::new(Latency::default());
    let node0 = Instruments {
        registry: profile.metrics.clone(),
        recorder: profile.trace.clone(),
        ..Instruments::default()
    };
    let fallback_start = Instant::now();
    let results = profile.spawn(params, vec![node0], Some(&latency)).join();
    let wall = latency.serving_window(fallback_start);
    let hist = latency.histogram();
    let spans = profile
        .trace
        .as_ref()
        .map(|r| assemble_spans(&r.tail(r.capacity())))
        .unwrap_or_default();
    StoreLoadReport {
        committed_cmds: results[0].replica.applied_len() as u64,
        acked_cmds: hist.count(),
        wall,
        rounds: results[0].stats.rounds,
        hist,
        all_reached_target: results
            .iter()
            .all(|r| r.replica.applied_len() >= profile.load.commit_target),
        logs_agree: logs_agree(&results),
        stats: results.iter().map(|r| r.stats).collect(),
        wal_bytes: results.iter().map(|r| r.wal_bytes).sum(),
        wal_syncs: results.iter().map(|r| r.wal_syncs).sum(),
        snapshots: results.iter().map(|r| r.snapshots).sum(),
        spans,
    }
}

/// Submit instants, shared by a cluster's hooks, and what the measuring
/// node records.
#[derive(Default)]
pub(crate) struct Latency {
    submits: Mutex<HashMap<u64, Instant>>,
    meter: Mutex<Meter>,
}

/// Submit→ack latencies and the serving window (first round → target
/// acked) of the measuring node.
#[derive(Default)]
struct Meter {
    hist: LatencyHistogram,
    from: Option<Instant>,
    to: Option<Instant>,
}

impl Latency {
    fn histogram(&self) -> LatencyHistogram {
        self.meter.lock().expect("meter lock").hist.clone()
    }

    /// The serving window, or the time since `fallback` if the measuring
    /// node never reached its target.
    fn serving_window(&self, fallback: Instant) -> Duration {
        match *self.meter.lock().expect("meter lock") {
            Meter {
                from: Some(from),
                to: Some(to),
                ..
            } => to.duration_since(from),
            _ => fallback.elapsed(),
        }
    }
}

/// The workload hook: submits the node's arrivals each round, records
/// submit→ack latency on the measuring node, and keeps the node running
/// (helping laggards) until `quorum` nodes acked their target.
struct WorkloadHook {
    workload: Box<dyn Workload>,
    /// The durable watermark in durable-ack mode; `None` acks at apply.
    ack_gate: Option<Arc<AtomicU64>>,
    /// Where submit instants are logged; the `measure` node also records
    /// ack latencies and the serving window there.
    latency: Option<Arc<Latency>>,
    measure: bool,
    /// Absolute applied offset up to which latency was recorded.
    measured: usize,
    target: usize,
    marked_done: bool,
    done: Arc<AtomicUsize>,
    quorum: usize,
}

impl WorkloadHook {
    fn acked(&self, replica: &BatchingReplica<u64>) -> usize {
        self.ack_gate.as_ref().map_or(replica.applied_len(), |g| {
            (g.load(Ordering::SeqCst) as usize).min(replica.applied_len())
        })
    }

    /// The meter, on the measuring node only.
    fn meter(&self) -> Option<MutexGuard<'_, Meter>> {
        let latency = self.latency.as_ref().filter(|_| self.measure)?;
        Some(latency.meter.lock().expect("meter lock"))
    }
}

impl NodeHook<u64> for WorkloadHook {
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<u64>) {
        if let Some(mut meter) = self.meter() {
            meter.from.get_or_insert_with(Instant::now);
        }
        let arrivals =
            self.workload
                .arrivals_from(round, replica.applied_base(), replica.applied());
        if arrivals.is_empty() {
            return;
        }
        if let Some(latency) = &self.latency {
            let mut submits = latency.submits.lock().expect("submit log lock");
            let now = Instant::now();
            for &cmd in &arrivals {
                submits.entry(cmd).or_insert(now);
            }
        }
        replica.submit_all(arrivals);
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<u64>) {
        let acked = self.acked(replica);
        if acked <= self.measured {
            return;
        }
        if let (Some(latency), Some(mut meter)) = (&self.latency, self.meter()) {
            let base = replica.applied_base();
            let now = Instant::now();
            let submits = latency.submits.lock().expect("submit log lock");
            for abs in self.measured.max(base)..acked {
                if let Some(&sent) = submits.get(&replica.applied()[abs - base]) {
                    meter
                        .hist
                        .record(now.duration_since(sent).as_micros().max(1) as u64);
                }
            }
        }
        self.measured = acked;
    }

    fn should_stop(&mut self, replica: &BatchingReplica<u64>) -> bool {
        if !self.marked_done && self.acked(replica) >= self.target {
            self.marked_done = true;
            if let Some(mut meter) = self.meter() {
                meter.to = Some(Instant::now());
            }
            self.done.fetch_add(1, Ordering::SeqCst);
        }
        self.done.load(Ordering::SeqCst) >= self.quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{paxos, pbft};
    use gencon_types::ProcessId;

    /// Runs `profile` and checks what every configuration must deliver:
    /// each replica reached the target, logs agree, and node 0 measured
    /// wall-clock ack latencies.
    fn run_to_target(params: &Params<Batch<u64>>, profile: &StoreLoadProfile) -> StoreLoadReport {
        let report = run_store_load(params, profile);
        assert!(report.all_reached_target, "rounds: {}", report.rounds);
        assert!(report.logs_agree);
        let target = profile.load.commit_target as u64;
        assert!(report.committed_cmds >= target);
        assert!(report.acked_cmds >= target, "acked {}", report.acked_cmds);
        assert!(report.hist.p50() >= 1, "latencies are in micros");
        assert!(report.cmds_per_sec() > 0.0);
        assert_eq!(report.stats.len(), params.cfg.n());
        report
    }

    fn memory(transport: NetTransportKind, target: usize) -> StoreLoadProfile {
        let mut profile = StoreLoadProfile::new(StoreMode::Memory, 4, 16, target);
        profile.transport = transport;
        profile
    }

    /// The profile's defaults alone give a memory-mode run that never
    /// touches a WAL.
    #[test]
    fn memory_mode_reaches_target() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let profile = StoreLoadProfile::new(StoreMode::Memory, 4, 16, 120);
        let report = run_to_target(&spec.params, &profile);
        assert_eq!(report.wal_bytes, 0);
        assert_eq!(report.wal_syncs, 0);
    }

    #[test]
    fn paxos_channel_memory_mode_reaches_target() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let report = run_to_target(&spec.params, &memory(NetTransportKind::Channel, 120));
        assert!(report.hist.count() >= 120);
    }

    #[test]
    fn pbft_tcp_memory_mode_reaches_target() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        run_to_target(&spec.params, &memory(NetTransportKind::Tcp, 100));
    }

    #[test]
    fn open_loop_poisson_over_channels() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let mut profile = memory(NetTransportKind::Channel, 60);
        profile.load.workload = WorkloadKind::Poisson { rate: 3.0 };
        run_to_target(&spec.params, &profile);
    }

    #[test]
    fn pbft_tcp_durable_ack_mode_reaches_target() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut profile = StoreLoadProfile::new(
            StoreMode::Durable {
                fsync_interval: Duration::from_millis(5),
                fast_ack: false,
            },
            4,
            16,
            100,
        );
        profile.transport = NetTransportKind::Tcp;
        let report = run_to_target(&spec.params, &profile);
        assert!(report.wal_syncs > 0);
        assert!(report.wal_bytes > 0);
    }

    #[test]
    fn durable_ack_mode_reaches_target_with_group_commit() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut profile = StoreLoadProfile::new(
            StoreMode::Durable {
                fsync_interval: Duration::from_millis(5),
                fast_ack: false,
            },
            4,
            16,
            100,
        );
        profile.snapshot_every = 32;
        run_to_target(&spec.params, &profile);
    }

    #[test]
    fn fast_ack_durable_mode_runs() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let profile = StoreLoadProfile::new(
            StoreMode::Durable {
                fsync_interval: Duration::from_millis(5),
                fast_ack: true,
            },
            2,
            8,
            60,
        );
        run_to_target(&spec.params, &profile);
    }

    #[test]
    fn per_stage_metrics_populate_on_node_zero() {
        let spec = paxos::<Batch<u64>>(3, 1, ProcessId::new(0)).unwrap();
        let reg = Registry::new();
        let mut profile = StoreLoadProfile::new(
            StoreMode::Durable {
                fsync_interval: Duration::from_millis(5),
                fast_ack: false,
            },
            2,
            8,
            60,
        )
        .with_metrics(reg.clone());
        profile.snapshot_every = 32;
        let report = run_store_load(&spec.params, &profile);
        assert!(report.all_reached_target, "rounds: {}", report.rounds);
        assert!(reg.counter_value("order.rounds").unwrap() > 0);
        assert!(reg.counter_value("persist.appended").unwrap() > 0);
        assert!(reg.counter_value("persist.fsyncs").unwrap() > 0);
        assert!(reg.histogram("order.round_us").count() > 0);
        assert!(reg.histogram("persist.fsync_us").count() > 0);
        let dump = reg.dump_json();
        assert!(dump.contains("\"order.rounds\":"), "{dump}");
        assert!(dump.contains("\"persist.fsyncs\":"), "{dump}");
    }

    #[test]
    fn mode_labels() {
        assert_eq!(StoreMode::Memory.label(), "memory");
        assert!(StoreMode::Durable {
            fsync_interval: Duration::from_millis(5),
            fast_ack: false
        }
        .label()
        .contains("durable-ack"));
    }
}
