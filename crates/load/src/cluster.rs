//! The one cluster harness behind the real-node load drivers.
//!
//! [`Cluster::spawn`] starts one `gencon-server` event-loop node thread
//! per replica over a Channel or localhost-Tcp mesh. Each node runs a
//! [`BatchingReplica`] under the driver's hook, in memory or inside a
//! [`FileWal`]-backed [`DurableNode`], optionally with the admin kit a
//! real `gencon-server` exposes.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gencon_app::{Folder, LogApp};
use gencon_core::Params;
use gencon_metrics::{HistoryRing, Registry};
use gencon_net::{probe_free_addrs, ChannelTransport, TcpTransport, Transport};
use gencon_server::{
    run_smr_node_observed, spawn_admin_gated, AdminState, DurableConfig, DurableNode, NodeHook,
    NodeStats, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_store::{FileWal, Log, WalConfig};
use gencon_trace::{FlightRecorder, HashCell, PeerTable, SlowCmdRing};
use gencon_types::ProcessId;

/// Which transport carries the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTransportKind {
    /// In-process crossbeam channels (isolates protocol cost from TCP).
    Channel,
    /// A localhost TCP mesh (the full wire path: codec + kernel + loopback).
    Tcp,
}

impl NetTransportKind {
    /// Label for results rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetTransportKind::Channel => "Channel",
            NetTransportKind::Tcp => "Tcp",
        }
    }
}

/// Whether (and how) the storage layer participates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// No persistence; acks at apply time.
    Memory,
    /// File WAL per node; acks at the durable watermark.
    Durable {
        /// Group-commit window (`Duration::ZERO` fsyncs every round).
        fsync_interval: Duration,
        /// `true` acks at apply time even though the WAL runs (the
        /// fast-ack durability mode).
        fast_ack: bool,
    },
}

impl StoreMode {
    /// Label for results rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            StoreMode::Memory => "memory".to_string(),
            StoreMode::Durable {
                fsync_interval,
                fast_ack,
            } => format!(
                "durable({},fsync={}ms)",
                if fast_ack { "fast-ack" } else { "durable-ack" },
                fsync_interval.as_millis()
            ),
        }
    }
}

/// Round pacing of every in-process cluster: a 30 ms first deadline in
/// a 1–500 ms adaptive band. Each run sets its own stop conditions.
const PACING: ServerConfig = ServerConfig {
    initial_round_timeout: Duration::from_millis(30),
    min_round_timeout: Duration::from_millis(1),
    max_round_timeout: Duration::from_millis(500),
    max_rounds: u64::MAX,
    stop_after_commands: None,
};

/// The instruments one node runs with; each is optional.
#[derive(Clone, Default)]
pub(crate) struct Instruments {
    pub registry: Option<Registry>,
    pub recorder: Option<FlightRecorder>,
    pub peers: Option<PeerTable>,
    pub hashes: Option<HashCell>,
}

/// Everything that shapes one cluster run.
pub(crate) struct ClusterSpec {
    pub params: Params<Batch<u64>>,
    pub transport: NetTransportKind,
    pub batch_cap: usize,
    pub window: usize,
    pub max_rounds: u64,
    pub stop_after_commands: Option<usize>,
    pub mode: StoreMode,
    /// Snapshot + compaction period in slots (durable mode).
    pub snapshot_every: u64,
    /// Node `i` runs with `instruments[i]`, or with none past the end.
    pub instruments: Vec<Instruments>,
}

/// One node's admin kit: the state its endpoint serves, the endpoint's
/// address, and the switch that takes it offline (every connection is
/// dropped while set).
pub(crate) struct AdminKit {
    pub state: AdminState,
    pub addr: SocketAddr,
    pub offline: Arc<AtomicBool>,
}

impl AdminKit {
    /// One kit per node of an `n`-node cluster, endpoints bound on
    /// ephemeral localhost ports.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint cannot be bound.
    pub fn spawn_all(n: usize, trace_events: usize, history_interval: Duration) -> Vec<Self> {
        (0..n)
            .map(|node_id| {
                let registry = Registry::new();
                let history = HistoryRing::new(64);
                history.spawn_sampler(registry.clone(), history_interval);
                let state = AdminState {
                    node_id,
                    registry,
                    recorder: FlightRecorder::new(trace_events),
                    peers: PeerTable::new(n),
                    history,
                    hashes: HashCell::new(),
                    slow_cmds: SlowCmdRing::new(),
                    io_timeout: Duration::from_secs(2),
                };
                let offline = Arc::new(AtomicBool::new(false));
                let any_port = "127.0.0.1:0".parse().expect("addr");
                let addr = spawn_admin_gated(any_port, state.clone(), Arc::clone(&offline))
                    .expect("bind admin endpoint");
                AdminKit {
                    state,
                    addr,
                    offline,
                }
            })
            .collect()
    }

    /// The node's instruments: the kit's, recording into its recorder
    /// only when `traced`.
    pub fn instruments(&self, traced: bool) -> Instruments {
        Instruments {
            registry: Some(self.state.registry.clone()),
            recorder: traced.then(|| self.state.recorder.clone()),
            peers: Some(self.state.peers.clone()),
            hashes: Some(self.state.hashes.clone()),
        }
    }
}

/// What one node thread returned; the WAL figures are 0 in memory mode.
pub(crate) struct NodeResult {
    pub replica: BatchingReplica<u64>,
    pub stats: NodeStats,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub snapshots: u64,
}

/// A running cluster.
pub(crate) struct Cluster {
    handles: Vec<JoinHandle<NodeResult>>,
    data_root: PathBuf,
}

impl Cluster {
    /// Spawns the nodes. `make_hook(i, ack_gate)` builds node `i`'s hook;
    /// `ack_gate` is the durable watermark in durable-ack mode.
    ///
    /// # Panics
    ///
    /// Panics if the Tcp mesh cannot find ports.
    pub fn spawn<H, F>(spec: ClusterSpec, mut make_hook: F) -> Cluster
    where
        H: NodeHook<u64> + Send + 'static,
        F: FnMut(usize, Option<Arc<AtomicU64>>) -> H,
    {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let n = spec.params.cfg.n();
        let data_root = std::env::temp_dir().join(format!(
            "gencon-load-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        let ack_at_gate = matches!(
            spec.mode,
            StoreMode::Durable {
                fast_ack: false,
                ..
            }
        );
        let spec = Arc::new(spec);
        let nodes: Vec<Node<H>> = (0..n)
            .map(|i| {
                let gate = Arc::new(AtomicU64::new(0));
                Node {
                    spec: Arc::clone(&spec),
                    dir: data_root.join(format!("node{i}")),
                    hook: make_hook(i, ack_at_gate.then(|| Arc::clone(&gate))),
                    gate,
                    obs: spec.instruments.get(i).cloned().unwrap_or_default(),
                }
            })
            .collect();

        let handles = match spec.transport {
            NetTransportKind::Channel => ChannelTransport::mesh(n)
                .into_iter()
                .zip(nodes)
                .map(|(tr, node)| std::thread::spawn(move || node.run(tr)))
                .collect(),
            NetTransportKind::Tcp => {
                let addrs = probe_free_addrs(n).expect("probe localhost ports");
                nodes
                    .into_iter()
                    .enumerate()
                    .map(|(i, node)| {
                        let addrs = addrs.clone();
                        std::thread::spawn(move || {
                            let tr = TcpTransport::connect_mesh(ProcessId::new(i), &addrs)
                                .expect("localhost mesh connects");
                            node.run(tr)
                        })
                    })
                    .collect()
            }
        };
        Cluster { handles, data_root }
    }

    /// Whether every node thread has returned.
    pub fn finished(&self) -> bool {
        self.handles.iter().all(JoinHandle::is_finished)
    }

    /// Joins every node thread and removes the data dirs.
    ///
    /// # Panics
    ///
    /// Panics if a node thread died.
    pub fn join(self) -> Vec<NodeResult> {
        let results = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect();
        std::fs::remove_dir_all(self.data_root).ok();
        results
    }
}

/// Whether all applied logs agree where they overlap (compaction trims
/// prefixes at replica-specific times).
pub(crate) fn logs_agree(results: &[NodeResult]) -> bool {
    let reference = &results[0].replica;
    results.iter().all(|r| {
        let rep = &r.replica;
        let lo = reference.applied_base().max(rep.applied_base());
        let hi = reference.applied_len().min(rep.applied_len());
        (lo..hi).all(|abs| {
            reference.applied()[abs - reference.applied_base()]
                == rep.applied()[abs - rep.applied_base()]
        })
    })
}

impl Instruments {
    fn run<T: Transport, K: NodeHook<u64>>(
        &self,
        replica: BatchingReplica<u64>,
        tr: T,
        spec: &ClusterSpec,
        hook: K,
    ) -> (BatchingReplica<u64>, NodeStats, K) {
        let cfg = ServerConfig {
            max_rounds: spec.max_rounds,
            stop_after_commands: spec.stop_after_commands,
            ..PACING
        };
        let (replica, _t, stats, hook) = run_smr_node_observed(
            replica,
            tr,
            cfg,
            hook,
            self.registry.as_ref(),
            self.recorder.as_ref(),
            self.peers.as_ref(),
        );
        (replica, stats, hook)
    }
}

/// One node, ready to run once its transport exists.
struct Node<H> {
    spec: Arc<ClusterSpec>,
    dir: PathBuf,
    /// The durable watermark (unused in memory mode).
    gate: Arc<AtomicU64>,
    obs: Instruments,
    hook: H,
}

impl<H: NodeHook<u64>> Node<H> {
    fn run<T: Transport>(self, tr: T) -> NodeResult {
        let Node {
            spec,
            dir,
            gate,
            obs,
            hook,
        } = self;
        let replica =
            BatchingReplica::new(tr.local(), spec.params.clone(), spec.batch_cap, usize::MAX)
                .expect("validated params")
                .with_window(spec.window);
        let StoreMode::Durable {
            fsync_interval,
            fast_ack,
        } = spec.mode
        else {
            let (replica, stats, _) = obs.run(replica, tr, &spec, hook);
            return NodeResult {
                replica,
                stats,
                wal_bytes: 0,
                wal_syncs: 0,
                snapshots: 0,
            };
        };
        let wal_cfg = WalConfig {
            fsync_interval,
            ..WalConfig::default()
        };
        let (wal, _recovery) = FileWal::open(&dir, wal_cfg).expect("open wal");
        let durable_cfg = DurableConfig {
            snapshot_every: spec.snapshot_every,
            snapshot_tail: 32,
            durable_ack: !fast_ack,
        };
        let mut node = DurableNode::new(wal, durable_cfg, Folder::<LogApp<u64>>::default(), hook)
            .with_gate(gate);
        if let Some(r) = &obs.registry {
            node = node.with_metrics(r);
        }
        if let Some(r) = &obs.recorder {
            node = node.with_trace(r.clone());
        }
        if let Some(h) = &obs.hashes {
            node = node.with_hash_cell(h.clone());
        }
        let (replica, stats, node) = obs.run(replica, tr, &spec, node);
        // One guard for both reads: the store lock is not reentrant.
        let (wal_bytes, wal_syncs) = {
            let store = node.store();
            (store.bytes_appended(), store.syncs())
        };
        NodeResult {
            replica,
            stats,
            wal_bytes,
            wal_syncs,
            snapshots: node.snapshots_taken(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_labels() {
        assert_eq!(NetTransportKind::Channel.label(), "Channel");
        assert_eq!(NetTransportKind::Tcp.label(), "Tcp");
    }
}
