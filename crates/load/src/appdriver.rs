//! The application-layer load driver — experiment **E11**'s engine.
//!
//! Two measurements, both with a real [`App`](gencon_app::App) in the
//! loop:
//!
//! * [`run_app_growth`] — the **snapshot-size-vs-history** curve, the
//!   headline of the application layer: a durable kv node ingests
//!   commands that overwrite a bounded keyspace while the snapshot
//!   policy folds periodically. With PR 4's full-history snapshots the
//!   state grew with the command count and state transfer hard-capped
//!   near 1M commands; with folding the snapshot stays O(live keys), so
//!   the bytes-per-snapshot series is **flat** while total commands run
//!   arbitrarily far past the old ceiling.
//! * [`run_app_transfer`] — the **wiped-node catch-up** proof: a 4-node
//!   Byzantine-tolerant cluster loses a node (state dropped, nothing on
//!   disk), survivors compact far past its position, and the node —
//!   restarted empty — must rebuild purely via `b + 1`-vouched,
//!   CRC-chunked, SHA-verified state transfer. The report asserts the
//!   transfer really was chunked and that every node's application state
//!   hash agrees at the exact common command count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencon_app::{Applier, Folder, KvApp, KvCmd, KvOp};
use gencon_net::wire_sync::{FoldedState, SnapshotManifest};
use gencon_net::ChannelTransport;
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_server::{
    run_smr_node_observed, DurableConfig, DurableNode, NoHook, NodeHook, NodeStats, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica};
use gencon_store::{Log, MemStore};
use gencon_types::{ProcessId, Round};

use crate::driver::per_sec;

/// Configuration of the snapshot-growth measurement.
#[derive(Clone, Debug)]
pub struct AppGrowthProfile {
    /// Total commands to drive (set beyond 2^20 ≈ 1M to cross the old
    /// `MAX_SNAPSHOT_CMDS` ceiling).
    pub commands: u64,
    /// Commands per proposed batch (one slot per round on the solo log).
    pub batch_cap: usize,
    /// Live keyspace the puts cycle over — the folded state's size.
    pub keys: u64,
    /// Value payload bytes.
    pub value_bytes: usize,
    /// Snapshot + compaction period, in slots.
    pub snapshot_every: u64,
    /// Dedup horizon in slots (kept small so the dedup window — which
    /// rides in every folded snapshot — stays a bounded additive term).
    pub dedup_horizon: u64,
}

impl Default for AppGrowthProfile {
    fn default() -> Self {
        AppGrowthProfile {
            commands: 1_200_000,
            batch_cap: 2_048,
            keys: 512,
            value_bytes: 16,
            snapshot_every: 16,
            dedup_horizon: 8,
        }
    }
}

/// What [`run_app_growth`] measured.
#[derive(Clone, Debug)]
pub struct AppGrowthReport {
    /// Commands actually applied.
    pub commands: u64,
    /// Live keys at the end (the folded state's cardinality).
    pub live_keys: u64,
    /// `(applied_commands, snapshot_bytes)` at every snapshot the policy
    /// took — the curve that must stay flat.
    pub samples: Vec<(u64, u64)>,
    /// Wall clock for the ingest.
    pub wall: Duration,
}

impl AppGrowthReport {
    /// Last-to-first snapshot size ratio (1.0 = perfectly flat). The
    /// first sample already covers a full keyspace pass, so any
    /// history-proportional growth would show up here.
    #[must_use]
    pub fn growth_ratio(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(&(_, first)), Some(&(_, last))) if first > 0 => last as f64 / first as f64,
            _ => f64::NAN,
        }
    }

    /// Commands ingested per second.
    #[must_use]
    pub fn cmds_per_sec(&self) -> f64 {
        per_sec(self.commands, self.wall)
    }
}

fn put_cmd(id: u64, keys: u64, value_bytes: usize) -> KvCmd {
    // Spread writes across the keyspace; ids are globally unique so the
    // SMR dedup never collapses two logical requests.
    let key = format!("k{:08}", id % keys).into_bytes();
    let mut value = vec![0u8; value_bytes.max(8)];
    value[..8].copy_from_slice(&id.to_le_bytes());
    KvCmd {
        id,
        op: KvOp::Put { key, value },
    }
}

/// Drives a solo durable kv log (snapshot cost is a per-node property —
/// consensus adds nothing to it) and samples the on-disk snapshot size as
/// history grows. See the module docs.
///
/// # Panics
///
/// Panics if the solo Paxos parameters are rejected (they never are).
#[must_use]
pub fn run_app_growth(profile: &AppGrowthProfile) -> AppGrowthReport {
    let spec = gencon_algos::paxos::<Batch<KvCmd>>(1, 0, ProcessId::new(0)).expect("solo paxos");
    let mut replica = BatchingReplica::new(
        ProcessId::new(0),
        spec.params.clone(),
        profile.batch_cap,
        usize::MAX,
    )
    .expect("valid params")
    .with_dedup_horizon(profile.dedup_horizon);
    let mut durable: DurableNode<KvApp, MemStore, NoHook> = DurableNode::new(
        MemStore::new(),
        DurableConfig {
            snapshot_every: profile.snapshot_every,
            snapshot_tail: 4,
            durable_ack: true,
        },
        Folder::default(),
        NoHook,
    );

    let started = Instant::now();
    let mut samples: Vec<(u64, u64)> = Vec::new();
    let mut next_id: u64 = 0;
    let mut snapshots_seen: u64 = 0;
    let mut round: u64 = 1;
    while (replica.applied_len() as u64) < profile.commands {
        // Keep one batch queued: exactly batch_cap commands per slot.
        let want = profile.batch_cap.saturating_sub(replica.queued());
        replica.submit_all(
            (0..want as u64).map(|k| put_cmd(next_id + k, profile.keys, profile.value_bytes)),
        );
        next_id += want as u64;
        durable.before_round(round, &mut replica);
        let r = Round::new(round);
        let out = replica.send(r);
        let mut heard: HeardOf<_> = HeardOf::empty(1);
        if let Outgoing::Broadcast(m) = out {
            heard.put(ProcessId::new(0), m);
        }
        replica.receive(r, &heard);
        durable.after_round(round, &mut replica);
        if durable.snapshots_taken() > snapshots_seen {
            snapshots_seen = durable.snapshots_taken();
            if let Ok(Some(snap)) = durable.store().read_snapshot() {
                samples.push((snap.meta.applied_len, snap.state.len() as u64));
            }
        }
        round += 1;
    }
    AppGrowthReport {
        commands: replica.applied_len() as u64,
        live_keys: durable.folder().app().len() as u64,
        samples,
        wall: started.elapsed(),
    }
}

/// Configuration of the wiped-node transfer measurement.
#[derive(Clone, Debug)]
pub struct AppTransferProfile {
    /// Commands each of the three surviving feeders submits (all unique
    /// keys, so the live state is `3 × feed` keys).
    pub feed: usize,
    /// Value payload bytes — size this so the folded state spans several
    /// [`gencon_net::CHUNK_BYTES`] chunks.
    pub value_bytes: usize,
    /// Snapshot + compaction period on every node, in slots.
    pub snapshot_every: u64,
}

impl Default for AppTransferProfile {
    fn default() -> Self {
        AppTransferProfile {
            feed: 400,
            value_bytes: 256,
            snapshot_every: 16,
        }
    }
}

/// What [`run_app_transfer`] proved.
#[derive(Clone, Debug)]
pub struct AppTransferReport {
    /// Total unique commands (the exact count every app converges to).
    pub commands: u64,
    /// Folded state bytes of the final snapshot at the wiped node.
    pub state_bytes: u64,
    /// Verified chunks the wiped node fetched (> 1 ⇒ really chunked).
    pub chunks_fetched: u64,
    /// Snapshots the wiped node installed from peers.
    pub snapshots_installed: u64,
    /// Whether all four application state hashes agree at `commands`.
    pub hashes_agree: bool,
    /// Whether the wiped node reached the full command count.
    pub caught_up: bool,
    /// Event-loop statistics of the wiped node's second life.
    pub stats: NodeStats,
}

/// The feed-and-compare hook: survivors feed unique-key puts, everyone
/// runs a live kv applier with a state-hash capture at the exact shared
/// command count, and the wiped node restores its applier from the
/// transferred fold.
struct KvDriver {
    id: usize,
    feed: usize,
    value_bytes: usize,
    fed: bool,
    die_at_slot: Option<u64>,
    target: u64,
    marked: bool,
    done: Arc<AtomicUsize>,
    quorum: usize,
    base_floor: Option<Arc<AtomicU64>>,
    applier: Applier<KvApp>,
    /// Hard wall-clock stop so a wedged run fails loudly instead of
    /// hanging the suite.
    give_up: Instant,
}

impl NodeHook<KvCmd> for KvDriver {
    fn before_round(&mut self, _round: u64, replica: &mut BatchingReplica<KvCmd>) {
        if !self.fed {
            self.fed = true;
            let id0 = (self.id as u64) << 32;
            let feed = self.feed as u64;
            let value_bytes = self.value_bytes;
            // Unique keys per feeder: the live state is exactly the union.
            replica.submit_all((0..feed).map(|k| put_cmd(id0 + k, u64::MAX, value_bytes)));
        }
    }

    fn after_round(&mut self, _round: u64, replica: &mut BatchingReplica<KvCmd>) {
        if let Some(floor) = &self.base_floor {
            floor.fetch_max(replica.committed_base_slot(), Ordering::SeqCst);
        }
        self.applier.track(
            replica.applied(),
            replica.applied_slots(),
            replica.applied_base() as u64,
            replica.applied_len() as u64,
            |_, _, _, _| {},
        );
    }

    fn should_stop(&mut self, replica: &BatchingReplica<KvCmd>) -> bool {
        if let Some(die) = self.die_at_slot {
            return replica.committed_slots() as u64 >= die;
        }
        if !self.marked && replica.applied_len() as u64 >= self.target {
            self.marked = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
        self.done.load(Ordering::SeqCst) >= self.quorum || Instant::now() > self.give_up
    }

    fn snapshot_installed(
        &mut self,
        _manifest: &SnapshotManifest,
        _state: &[u8],
        fs: &FoldedState<KvCmd>,
        _replica: &mut BatchingReplica<KvCmd>,
    ) {
        let _ = self.applier.restore(fs);
    }
}

/// Runs the wiped-node scenario on a 4-node PBFT channel mesh. See the
/// module docs.
///
/// # Panics
///
/// Panics if a node thread dies or the cluster never compacts past the
/// dead node (60 s watchdog).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_app_transfer(profile: &AppTransferProfile) -> AppTransferReport {
    const N: usize = 4;
    let spec = gencon_algos::pbft::<Batch<KvCmd>>(N, 1).expect("pbft n=4");
    let target = (3 * profile.feed) as u64; // node 3 feeds nothing
    let done = Arc::new(AtomicUsize::new(0));
    let mesh = ChannelTransport::mesh(N);
    let bases: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
    // Termination comes from the done-quorum (plus a wall-clock give-up
    // in the driver), NOT from a round budget: idle Channel rounds are
    // sub-millisecond, so any fixed round count would let the survivors
    // spin out and die while a heavily-scheduled wiped node is still
    // mid-transfer (a real flake under parallel test load).
    let cfg = ServerConfig {
        initial_round_timeout: Duration::from_millis(20),
        min_round_timeout: Duration::from_millis(1),
        max_round_timeout: Duration::from_millis(200),
        max_rounds: u64::MAX,
        stop_after_commands: None,
    };
    let give_up = Instant::now() + Duration::from_secs(180);
    // The claim tail is kept *wider* than the snapshot period: after the
    // wiped node installs a transferred snapshot at cut C, the survivors
    // have typically moved one or two periods past C — the retained tail
    // must still cover C's successors or the node chases moving
    // snapshots instead of finishing via claims.
    let durable_cfg = DurableConfig {
        snapshot_every: profile.snapshot_every,
        snapshot_tail: 2 * profile.snapshot_every,
        durable_ack: true,
    };

    type NodeOut = (Option<[u8; 32]>, NodeStats, u64, u64, bool);
    let mut handles: Vec<std::thread::JoinHandle<NodeOut>> = Vec::new();
    for (i, tr) in mesh.into_iter().enumerate() {
        let params = spec.params.clone();
        let done = Arc::clone(&done);
        let bases = bases.clone();
        let profile = profile.clone();
        handles.push(std::thread::spawn(move || {
            let make_replica = |params| {
                BatchingReplica::new(ProcessId::new(i), params, 8, usize::MAX)
                    .expect("valid params")
                    .with_window(4)
                    .with_dedup_horizon(256)
            };
            let driver = |die_at_slot, feed: usize, applier, base_floor| KvDriver {
                id: i,
                feed,
                value_bytes: profile.value_bytes,
                fed: feed == 0,
                die_at_slot,
                target,
                marked: false,
                done: Arc::clone(&done),
                quorum: N,
                base_floor,
                applier,
                give_up,
            };
            if i == 3 {
                // Phase 1: run briefly, then die with nothing persisted.
                let hook = DurableNode::<KvApp, _, _>::new(
                    MemStore::new(),
                    durable_cfg,
                    Folder::default(),
                    driver(Some(6), 0, Applier::default(), None),
                );
                let (dead, transport, _s, _h) = run_smr_node_observed(
                    make_replica(params.clone()),
                    tr,
                    cfg,
                    hook,
                    None,
                    None,
                    None,
                );
                let died_at = dead.committed_slots() as u64;
                drop(dead); // wiped: no replica state, no disk

                let deadline = Instant::now() + Duration::from_secs(60);
                while bases
                    .iter()
                    .any(|b| b.load(Ordering::SeqCst) <= died_at + 16)
                {
                    assert!(
                        Instant::now() < deadline,
                        "survivors never compacted past the wiped node"
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }

                // Phase 2: restart EMPTY — catch-up must come purely from
                // chunked state transfer (+ claims for the live tail).
                let hook = DurableNode::<KvApp, _, _>::new(
                    MemStore::new(),
                    durable_cfg,
                    Folder::default(),
                    driver(None, 0, Applier::default().with_hash_target(target), None),
                );
                let (replica, _t, stats, hook) = run_smr_node_observed(
                    make_replica(params),
                    transport,
                    cfg,
                    hook,
                    None,
                    None,
                    None,
                );
                let state_bytes = hook
                    .store()
                    .read_snapshot()
                    .ok()
                    .flatten()
                    .map_or(0, |s| s.state.len() as u64);
                let caught_up = replica.applied_len() as u64 >= target;
                (
                    hook.inner().applier.captured_hash(),
                    stats,
                    state_bytes,
                    replica.applied_len() as u64,
                    caught_up,
                )
            } else {
                let hook = DurableNode::<KvApp, _, _>::new(
                    MemStore::new(),
                    durable_cfg,
                    Folder::default(),
                    driver(
                        None,
                        profile.feed,
                        Applier::default().with_hash_target(target),
                        Some(Arc::clone(&bases[i])),
                    ),
                );
                let (replica, _t, stats, hook) =
                    run_smr_node_observed(make_replica(params), tr, cfg, hook, None, None, None);
                (
                    hook.inner().applier.captured_hash(),
                    stats,
                    0,
                    replica.applied_len() as u64,
                    true,
                )
            }
        }));
    }

    let results: Vec<NodeOut> = handles
        .into_iter()
        .map(|h| h.join().expect("node"))
        .collect();
    let hashes: Vec<Option<[u8; 32]>> = results.iter().map(|r| r.0).collect();
    let hashes_agree = hashes[0].is_some() && hashes.iter().all(|h| *h == hashes[0]);
    let (_, stats, state_bytes, applied, caught_up) = &results[3];
    AppTransferReport {
        commands: *applied.min(&target).max(&0),
        state_bytes: *state_bytes,
        chunks_fetched: stats.chunks_fetched,
        snapshots_installed: stats.snapshots_installed,
        hashes_agree,
        caught_up: *caught_up,
        stats: *stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_curve_is_flat_over_a_short_run() {
        let report = run_app_growth(&AppGrowthProfile {
            commands: 40_000,
            batch_cap: 512,
            keys: 256,
            value_bytes: 16,
            snapshot_every: 16,
            dedup_horizon: 4,
        });
        assert!(report.commands >= 40_000);
        assert_eq!(report.live_keys, 256);
        assert!(report.samples.len() >= 3, "several snapshots sampled");
        let ratio = report.growth_ratio();
        assert!(
            ratio < 2.0,
            "snapshot bytes must stay O(live state): ratio {ratio}, samples {:?}",
            report.samples
        );
    }

    #[test]
    fn wiped_node_catches_up_via_chunked_transfer() {
        let report = run_app_transfer(&AppTransferProfile {
            feed: 150,
            value_bytes: 192,
            snapshot_every: 16,
        });
        assert!(report.caught_up, "wiped node reached the target");
        assert!(report.snapshots_installed >= 1, "transfer happened");
        assert!(
            report.chunks_fetched >= 2,
            "the state really was chunked ({} bytes in {} chunks)",
            report.state_bytes,
            report.chunks_fetched
        );
        assert!(report.hashes_agree, "all four kv state hashes agree");
    }
}
