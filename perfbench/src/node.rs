//! `perfbench node` — the traced node: one kv node wired from
//! `gencon_server`'s public API exactly as `gencon-server` wires it, with
//! the transport, the log, the app and the node hook wrapped so that
//! each call into those layers records a span (see [`crate::spans`]).
//! It takes the `gencon-server` flags the benchmark uses, with the same
//! defaults, plus `--span-file PATH`, written at exit.

use std::net::SocketAddr;
use std::process::exit;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gencon_app::{App, AppError, Applier, Folder, KvApp, KvCmd, KvOp, KvReply};
use gencon_metrics::Registry;
use gencon_net::wire::Wire;
use gencon_net::wire_sync::{FoldedState, SnapshotManifest, SyncFrame};
use gencon_net::{RecvHalf, Transport};
use gencon_server::cli::{flag_value, parse_flag, required_flag};
use gencon_server::{
    recover_replica, run_smr_node_observed, spawn_admin, AdminState, ClientGateway, DurableConfig,
    DurableNode, GatewayConfig, NodeHook, ServerConfig,
};
use gencon_smr::{Batch, BatchingReplica, SmrMsg};
use gencon_store::{FileWal, Log, Slot, Snapshot, SnapshotMeta, WalConfig};
use gencon_types::ProcessId;

use crate::spans;

const BIN: &str = "perfbench node";
const USAGE: &str = "perfbench node --id N --algo paxos|pbft --peers a:p,... --client-addr a:p \
                     [--durable --data-dir DIR] [--metrics-file PATH] [--span-file PATH]";

/// The kv app with `apply` and `fold_snapshot` spans.
#[derive(Clone, Default)]
pub struct TracedKv(KvApp);

impl App for TracedKv {
    type Cmd = KvCmd;
    type Reply = KvReply;
    const NAME: &'static str = "kv";

    fn apply(&mut self, slot: u64, offset: u64, cmd: &KvCmd) -> KvReply {
        let t = Instant::now();
        let reply = self.0.apply(slot, offset, cmd);
        spans::APP_APPLY.record(t, 1);
        if matches!(cmd.op, KvOp::Get { .. }) {
            let hit = matches!(reply, KvReply::Value(Some(_)));
            spans::APP_GET.record_ns(0, u64::from(hit));
        }
        reply
    }

    fn fold_snapshot(&self) -> Vec<u8> {
        let t = Instant::now();
        let state = self.0.fold_snapshot();
        spans::APP_FOLD.record(t, state.len() as u64);
        state
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), AppError> {
        self.0.restore(state)
    }

    fn state_hash(&self) -> [u8; 32] {
        self.0.state_hash()
    }
}

type Frame = SyncFrame<SmrMsg<Batch<KvCmd>>>;

/// The mesh transport with `send` spans. Every 16th frame is also
/// decoded and re-encoded off to the side, timing the bundle codec on
/// the workload's real frames.
pub struct TracedTransport<T>(T, u64);

impl<T: Transport> Transport for TracedTransport<T> {
    fn local(&self) -> ProcessId {
        self.0.local()
    }

    fn peers(&self) -> usize {
        self.0.peers()
    }

    fn send(&mut self, to: ProcessId, frame: Bytes) {
        self.1 += 1;
        if self.1.is_multiple_of(16) {
            let t = Instant::now();
            let mut buf = frame.clone();
            if let Ok(decoded) = Frame::decode(&mut buf) {
                spans::BUNDLE_DECODE.record(t, frame.len() as u64);
                let t = Instant::now();
                let again = decoded.to_bytes();
                spans::BUNDLE_ENCODE.record(t, again.len() as u64);
            }
        }
        let len = frame.len() as u64;
        let t = Instant::now();
        self.0.send(to, frame);
        spans::NET_SEND.record(t, len);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.0.recv_timeout(timeout)
    }

    fn split_recv(&mut self) -> Option<RecvHalf> {
        self.0.split_recv()
    }

    fn restore_recv(&mut self, half: RecvHalf) {
        self.0.restore_recv(half);
    }
}

/// The WAL with `append` and `sync` spans (a `maybe_sync` that synced
/// counts as a sync).
pub struct TracedLog<L>(L);

impl<L: Log> Log for TracedLog<L> {
    fn append(&mut self, slot: Slot, payload: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.0.append(slot, payload);
        spans::STORE_APPEND.record(t, payload.len() as u64);
        r
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.0.sync();
        spans::STORE_SYNC.record(t, 1);
        r
    }

    fn maybe_sync(&mut self) -> std::io::Result<bool> {
        let t = Instant::now();
        let r = self.0.maybe_sync();
        if matches!(r, Ok(true)) {
            spans::STORE_SYNC.record(t, 1);
        }
        r
    }

    fn durable_slot(&self) -> Option<Slot> {
        self.0.durable_slot()
    }

    fn next_slot(&self) -> Slot {
        self.0.next_slot()
    }

    fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.0.snapshot_meta()
    }

    fn snapshot_metas(&self) -> Vec<SnapshotMeta> {
        self.0.snapshot_metas()
    }

    fn read_snapshot(&self) -> std::io::Result<Option<Snapshot>> {
        self.0.read_snapshot()
    }

    fn read_snapshot_at(&self, upto: Slot) -> std::io::Result<Option<Snapshot>> {
        self.0.read_snapshot_at(upto)
    }

    fn install_snapshot(&mut self, snap: &Snapshot) -> std::io::Result<()> {
        self.0.install_snapshot(snap)
    }

    fn bytes_appended(&self) -> u64 {
        self.0.bytes_appended()
    }

    fn syncs(&self) -> u64 {
        self.0.syncs()
    }
}

/// The node hook with spans around the gateway/durable work of each
/// round, and the round's wall time (before-round to before-round).
pub struct TracedHook<H> {
    inner: H,
    last_round: Option<Instant>,
}

impl<H: NodeHook<KvCmd>> NodeHook<KvCmd> for TracedHook<H> {
    fn before_round(&mut self, round: u64, replica: &mut BatchingReplica<KvCmd>) {
        let t = Instant::now();
        if let Some(prev) = self.last_round.replace(t) {
            spans::NODE_ROUND.record(prev, 0);
        }
        self.inner.before_round(round, replica);
        spans::HOOK_BEFORE.record(t, 0);
    }

    fn after_round(&mut self, round: u64, replica: &mut BatchingReplica<KvCmd>) {
        let t = Instant::now();
        self.inner.after_round(round, replica);
        spans::HOOK_AFTER.record(t, 0);
    }

    fn should_stop(&mut self, replica: &BatchingReplica<KvCmd>) -> bool {
        self.inner.should_stop(replica)
    }

    fn serve_manifest(
        &mut self,
        replica: &BatchingReplica<KvCmd>,
        have_slot: u64,
    ) -> Option<SnapshotManifest> {
        self.inner.serve_manifest(replica, have_slot)
    }

    fn serve_chunk(
        &mut self,
        replica: &BatchingReplica<KvCmd>,
        upto_slot: u64,
        index: u32,
    ) -> Option<Vec<u8>> {
        self.inner.serve_chunk(replica, upto_slot, index)
    }

    fn snapshot_installed(
        &mut self,
        manifest: &SnapshotManifest,
        state: &[u8],
        fs: &FoldedState<KvCmd>,
        replica: &mut BatchingReplica<KvCmd>,
    ) {
        self.inner.snapshot_installed(manifest, state, fs, replica);
    }

    fn finish(&mut self, replica: &mut BatchingReplica<KvCmd>) {
        self.inner.finish(replica);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bad(what: &str) -> ! {
    eprintln!("{BIN}: {what}");
    exit(2);
}

#[allow(clippy::too_many_lines)]
pub fn main(args: &[String]) -> i32 {
    let parse = |flag: &str, default: u64| -> u64 { parse_flag(BIN, args, flag, default) };
    let id: usize = required_flag(BIN, args, "--id", USAGE)
        .parse()
        .unwrap_or_else(|_| bad("bad --id"));
    let algo = required_flag(BIN, args, "--algo", USAGE);
    let peers: Vec<SocketAddr> = required_flag(BIN, args, "--peers", USAGE)
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| bad("bad peer address")))
        .collect();
    let client_addr: SocketAddr = required_flag(BIN, args, "--client-addr", USAGE)
        .parse()
        .unwrap_or_else(|_| bad("bad --client-addr"));
    let n = peers.len();
    if id >= n {
        bad("--id out of range");
    }
    let durable = args.iter().any(|a| a == "--durable");
    let stop_after = flag_value(args, "--stop-after")
        .map(|v| v.parse().unwrap_or_else(|_| bad("bad --stop-after")));
    let hash_at = parse("--hash-at", 0);
    let metrics_file = flag_value(args, "--metrics-file");
    let span_file = flag_value(args, "--span-file");

    // The defaults of gencon-server.
    let cfg = ServerConfig {
        initial_round_timeout: Duration::from_millis(50),
        min_round_timeout: Duration::from_millis(2),
        max_round_timeout: Duration::from_millis(1_000),
        max_rounds: u64::MAX,
        stop_after_commands: stop_after,
    };
    let gateway_cfg = GatewayConfig {
        backpressure_limit: 65_536,
        redirect_to: None,
        write_timeout: Duration::from_millis(500),
        reack_index_cap: 1 << 20,
    };
    let wal_cfg = WalConfig {
        fsync_interval: Duration::from_millis(5),
        segment_bytes: 4 << 20,
        snapshot_keep: 2,
    };
    let durable_cfg = DurableConfig {
        snapshot_every: 512,
        snapshot_tail: 64,
        durable_ack: flag_value(args, "--ack-mode").as_deref() != Some("fast"),
    };
    let registry = Registry::new();
    let params = match algo.as_str() {
        "paxos" => {
            gencon_algos::paxos::<Batch<KvCmd>>(n, (n - 1) / 2, ProcessId::new(0))
                .unwrap_or_else(|e| bad(&e.to_string()))
                .params
        }
        "pbft" => {
            gencon_algos::pbft::<Batch<KvCmd>>(n, (n - 1) / 3)
                .unwrap_or_else(|e| bad(&e.to_string()))
                .params
        }
        other => bad(&format!("unknown --algo {other}")),
    };
    // With an admin address, the same observability gencon-server runs:
    // flight recorder, state-hash cell, history sampler, admin endpoint.
    let admin_addr: Option<SocketAddr> = flag_value(args, "--admin-addr")
        .map(|raw| raw.parse().unwrap_or_else(|_| bad("bad --admin-addr")));
    let recorder = admin_addr.map(|_| gencon_trace::FlightRecorder::new(65_536));
    let hash_cell = admin_addr.map(|_| gencon_trace::HashCell::new());
    let peer_table = gencon_trace::PeerTable::new(n);
    let slow_ring = gencon_trace::SlowCmdRing::new();
    let mut gateway = ClientGateway::<TracedKv>::listen(client_addr, gateway_cfg)
        .unwrap_or_else(|e| bad(&format!("cannot bind {client_addr}: {e}")))
        .with_metrics(&registry)
        .with_slow_ring(slow_ring.clone());
    if let Some(rec) = &recorder {
        gateway = gateway.with_trace(rec.clone());
    }
    if let (Some(cell), false) = (&hash_cell, durable) {
        gateway = gateway.with_hash_cell(cell.clone(), durable_cfg.snapshot_every);
    }
    let ack_gate = Arc::new(AtomicU64::new(0));
    if durable {
        gateway = gateway.with_ack_gate(Arc::clone(&ack_gate));
    }
    let mut replica = BatchingReplica::new(ProcessId::new(id), params, 64, usize::MAX)
        .unwrap_or_else(|e| bad(&e.to_string()))
        .with_window(4)
        .with_dedup_horizon(8_192);
    let mut folder: Folder<TracedKv> = Folder::default();
    let wal = durable.then(|| {
        let dir =
            flag_value(args, "--data-dir").unwrap_or_else(|| bad("--durable requires --data-dir"));
        let (wal, recovery) = FileWal::open(&dir, wal_cfg)
            .unwrap_or_else(|e| bad(&format!("cannot open data dir {dir}: {e}")));
        recover_replica(&mut replica, &mut folder, &recovery);
        TracedLog(wal)
    });
    let mut applier = Applier::resume(folder.app().clone(), folder.applied_len());
    if hash_at > 0 {
        applier = applier.with_hash_target(hash_at);
    }
    let gateway = gateway.with_applier(applier);
    let transport = gencon_net::TcpTransport::connect_mesh(ProcessId::new(id), &peers)
        .unwrap_or_else(|e| bad(&format!("mesh connection failed: {e}")));
    let transport = TracedTransport(transport, 0);
    if let (Some(addr), Some(rec)) = (admin_addr, &recorder) {
        let history = gencon_metrics::HistoryRing::new(128);
        history.spawn_sampler(registry.clone(), Duration::from_millis(500));
        let state = AdminState {
            node_id: id,
            registry: registry.clone(),
            recorder: rec.clone(),
            peers: peer_table.clone(),
            history,
            hashes: hash_cell.clone().unwrap_or_default(),
            slow_cmds: slow_ring.clone(),
            io_timeout: gencon_server::ADMIN_IO_TIMEOUT,
        };
        if let Err(e) = spawn_admin(addr, state) {
            eprintln!("{BIN} {id}: cannot bind admin address {addr}: {e}");
        }
    }

    let (replica, captured) = if let Some(wal) = wal {
        let mut node = DurableNode::new(wal, durable_cfg, folder, gateway)
            .with_gate(ack_gate)
            .with_metrics(&registry);
        if let Some(rec) = &recorder {
            node = node.with_trace(rec.clone());
        }
        if let Some(cell) = &hash_cell {
            node = node.with_hash_cell(cell.clone());
        }
        let hook = TracedHook {
            inner: node,
            last_round: None,
        };
        let (replica, _t, _stats, hook) = run_smr_node_observed(
            replica,
            transport,
            cfg,
            hook,
            Some(&registry),
            recorder.as_ref(),
            Some(&peer_table),
        );
        let captured = hook.inner.inner().applier().captured_hash();
        (replica, captured)
    } else {
        let hook = TracedHook {
            inner: gateway,
            last_round: None,
        };
        let (replica, _t, _stats, hook) = run_smr_node_observed(
            replica,
            transport,
            cfg,
            hook,
            Some(&registry),
            recorder.as_ref(),
            Some(&peer_table),
        );
        let captured = hook.inner.applier().captured_hash();
        (replica, captured)
    };
    if let Some(path) = &metrics_file {
        if let Err(e) = registry.dump_to_file(path) {
            eprintln!("{BIN}: cannot write {path}: {e}");
        }
    }
    if let Some(path) = &span_file {
        if let Err(e) = std::fs::write(path, spans::dump_json()) {
            eprintln!("{BIN}: cannot write {path}: {e}");
        }
    }
    if let Some(hash) = captured {
        println!("perfbench node {id}: app-hash@{hash_at} = {}", hex(&hash));
    }
    eprintln!(
        "{BIN} {id}: stopped, {} commands applied",
        replica.applied_len()
    );
    0
}
