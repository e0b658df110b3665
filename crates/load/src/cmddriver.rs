//! The command-path tracing driver: experiment **E16**'s engine.
//!
//! [`run_cmd_load`] runs an in-process cluster whose gateways are the
//! real thing — every node serves clients over localhost TCP through a
//! [`ClientGateway`], exactly as `gencon-server` does — and drives two
//! closed-loop client populations against it:
//!
//! * the **coordinator population** submits to node 0 (whose queued
//!   commands ride its own proposals most rounds), and
//! * the **relay population** submits to node `n-1` (a follower most
//!   rounds, so its commands reach the log by relay: `Relayed` at the
//!   follower, `RelayMerged` at whoever batches them).
//!
//! With tracing on, every command's lifecycle is stamped from `Submitted`
//! to `CmdAcked`; post-run the driver assembles per-node
//! [`CmdSpan`]s, splits the two populations by command namespace, and
//! reports per-segment p50/p99 for each — the relay-path latency
//! penalty versus the coordinator path, measured, not guessed. The same
//! run is then pulled and stitched cluster-wide through the admin
//! endpoints via [`trace_pull_cmds`], mapping relay hops across nodes
//! with the clock uncertainty carried.
//!
//! With tracing off the run is otherwise identical, which is how the
//! `loadgen_cmd` binary quantifies the tracing overhead itself.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gencon_app::{Applier, LogApp};
use gencon_core::Params;
use gencon_metrics::SloTracker;
use gencon_server::mon::{trace_pull_cmds, CmdPull, MonConfig, CLOCK_SAMPLES_DEFAULT};
use gencon_server::{
    read_frame, write_frame, ClientGateway, ClientRequest, ClientResponse, GatewayConfig, NodeStats,
};
use gencon_smr::Batch;
use gencon_trace::{assemble_cmd_spans, assemble_spans, percentile_us, CmdSpan};

use crate::cluster::{AdminKit, Cluster, ClusterSpec, NetTransportKind, StoreMode};
use crate::driver::per_sec;
use crate::workload::encode_cmd;

/// One command-tracing run configuration.
#[derive(Clone, Debug)]
pub struct CmdLoadProfile {
    /// Logical clients per population (each population drives one node).
    pub clients: u16,
    /// Outstanding commands per client.
    pub outstanding: u32,
    /// Commands each population submits in total.
    pub count: u64,
    /// Max commands per proposed batch.
    pub batch_cap: usize,
    /// Slot pipelining window.
    pub window: usize,
    /// Hard stop, in rounds per node.
    pub max_rounds: u64,
    /// Whether the flight recorders (and command stamps) are attached.
    pub traced: bool,
    /// Flight-recorder ring capacity per node (events); must cover the
    /// run for the post-run assembly to see every command.
    pub trace_events: usize,
    /// SLO p99 budget handed to the gateways' [`SloTracker`]s, in µs
    /// (0 disables).
    pub slo_p99_us: u64,
    /// History sampler cadence (backs the admin `history` command the
    /// SLO burn windows read).
    pub history_interval: Duration,
    /// Client-side wait ceiling for the next ack.
    pub ack_timeout: Duration,
}

impl CmdLoadProfile {
    /// A sensible default for in-process smoke runs.
    #[must_use]
    pub fn new(count: u64) -> Self {
        CmdLoadProfile {
            clients: 4,
            outstanding: 4,
            count,
            batch_cap: 16,
            window: 4,
            max_rounds: 400_000,
            traced: true,
            trace_events: 1 << 17,
            slo_p99_us: 0,
            history_interval: Duration::from_millis(100),
            ack_timeout: Duration::from_secs(60),
        }
    }
}

/// `(p50, p99)` in µs over one [`CmdSpan`] segment, with the sample
/// count the percentiles rest on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentPcts {
    /// Spans that carried the segment.
    pub count: usize,
    /// Median, µs.
    pub p50_us: Option<u64>,
    /// 99th percentile, µs.
    pub p99_us: Option<u64>,
}

impl SegmentPcts {
    fn over(spans: &[CmdSpan], seg: impl Fn(&CmdSpan) -> Option<u64>) -> SegmentPcts {
        let mut v: Vec<u64> = spans.iter().filter_map(seg).collect();
        SegmentPcts {
            count: v.len(),
            p50_us: percentile_us(&mut v, 50.0),
            p99_us: percentile_us(&mut v, 99.0),
        }
    }

    fn to_json(self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
            self.count,
            opt(self.p50_us),
            opt(self.p99_us)
        )
    }
}

/// What one client population measured, client side and span side.
#[derive(Clone, Debug)]
pub struct PopulationStats {
    /// `"coordinator"` or `"relay"`.
    pub label: String,
    /// Node the population's clients connected to.
    pub node: usize,
    /// Commands acked back to the clients.
    pub acked: u64,
    /// Backpressure bounces the clients absorbed.
    pub backpressured: u64,
    /// Client-observed submit→ack latency `(p50, p99)` µs.
    pub client_e2e: SegmentPcts,
    /// Spans assembled for the population at its gateway node.
    pub spans: usize,
    /// Of those, spans that left on the relay path.
    pub relayed_spans: usize,
    /// Gateway-queue wait (submitted→queued).
    pub queue_wait: SegmentPcts,
    /// Queued→batched (how long the command sat before a proposal took
    /// it — absent for commands batched elsewhere).
    pub batch_wait: SegmentPcts,
    /// Batched→decided (consensus).
    pub order: SegmentPcts,
    /// Decided→durable-gate clearance (absent in memory mode).
    pub persist_gate_wait: SegmentPcts,
    /// Gate clearance→acked.
    pub ack: SegmentPcts,
    /// Submitted→acked, from the stamps.
    pub e2e: SegmentPcts,
}

impl PopulationStats {
    /// The population as one flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"node\":{},\"acked\":{},\"backpressured\":{},\
             \"client_e2e\":{},\"spans\":{},\"relayed_spans\":{},\"queue_wait\":{},\
             \"batch_wait\":{},\"order\":{},\"persist_gate_wait\":{},\"ack\":{},\"e2e\":{}}}",
            self.label,
            self.node,
            self.acked,
            self.backpressured,
            self.client_e2e.to_json(),
            self.spans,
            self.relayed_spans,
            self.queue_wait.to_json(),
            self.batch_wait.to_json(),
            self.order.to_json(),
            self.persist_gate_wait.to_json(),
            self.ack.to_json(),
            self.e2e.to_json(),
        )
    }
}

/// What one [`run_cmd_load`] execution produced.
#[derive(Clone, Debug)]
pub struct CmdLoadReport {
    /// The population submitting at node 0.
    pub coordinator: PopulationStats,
    /// The population submitting at node `n-1`.
    pub relay: PopulationStats,
    /// The cluster-wide pull and stitch through the admin endpoints
    /// (empty when the run was untraced).
    pub pull: CmdPull,
    /// Commands acked across both populations.
    pub acked: u64,
    /// Wall clock from first client byte to last ack.
    pub wall: Duration,
    /// Per-node event-loop statistics.
    pub stats: Vec<NodeStats>,
}

impl CmdLoadReport {
    /// Acked commands per second across both populations.
    #[must_use]
    pub fn cmds_per_sec(&self) -> f64 {
        per_sec(self.acked, self.wall)
    }
}

/// What one population's client threads brought home.
struct ClientsReport {
    acked: u64,
    backpressured: u64,
    latencies_us: Vec<u64>,
}

/// Drives one closed-loop population against a gateway over real TCP:
/// `clients` logical clients multiplexed on one connection, each keeping
/// `outstanding` commands in flight, until `count` commands are acked.
fn drive_population(addr: SocketAddr, namespace: u16, profile: &CmdLoadProfile) -> ClientsReport {
    let mut stream = TcpStream::connect(addr).expect("connect gateway");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(profile.ack_timeout))
        .expect("read timeout");
    let mut next_seq = vec![0u32; profile.clients as usize];
    let mut submitted: HashMap<u64, Instant> = HashMap::new();
    let mut latencies_us = Vec::with_capacity(profile.count as usize);
    let mut backpressured: u64 = 0;
    let mut issued: u64 = 0;

    let submit = |stream: &mut TcpStream, submitted: &mut HashMap<u64, Instant>, cmd: u64| {
        submitted.entry(cmd).or_insert_with(Instant::now);
        write_frame(stream, &ClientRequest::Submit { cmd }).expect("gateway connection");
    };
    'prime: for c in 0..profile.clients {
        for _ in 0..profile.outstanding {
            if issued >= profile.count {
                break 'prime;
            }
            let cmd = encode_cmd(namespace, c, next_seq[c as usize]);
            next_seq[c as usize] += 1;
            issued += 1;
            submit(&mut stream, &mut submitted, cmd);
        }
    }

    while (latencies_us.len() as u64) < profile.count {
        let resp: ClientResponse<u64, u64> = read_frame(&mut stream).expect("ack within timeout");
        match resp {
            ClientResponse::Committed { cmd, .. } => {
                let Some(sent) = submitted.remove(&cmd) else {
                    continue; // duplicate ack
                };
                latencies_us.push(sent.elapsed().as_micros().max(1) as u64);
                if issued < profile.count {
                    let c = ((cmd >> 32) & 0xFFFF) as u16;
                    let next = encode_cmd(namespace, c, next_seq[c as usize]);
                    next_seq[c as usize] += 1;
                    issued += 1;
                    submit(&mut stream, &mut submitted, next);
                }
            }
            ClientResponse::Backpressure { cmd, .. } => {
                backpressured += 1;
                std::thread::sleep(Duration::from_millis(1 << backpressured.min(6)));
                submit(&mut stream, &mut submitted, cmd);
            }
            ClientResponse::Redirect { .. } => {
                unreachable!("no redirect configured in the cmd driver")
            }
        }
    }
    ClientsReport {
        acked: latencies_us.len() as u64,
        backpressured,
        latencies_us,
    }
}

/// Splits one node's assembled spans down to a population and summarizes
/// every segment.
fn population_stats(
    label: &str,
    node: usize,
    namespace: u16,
    spans: &[CmdSpan],
    clients: &ClientsReport,
) -> PopulationStats {
    let own: Vec<CmdSpan> = spans
        .iter()
        .filter(|s| (s.cmd >> 48) as u16 == namespace)
        .cloned()
        .collect();
    let mut lat = clients.latencies_us.clone();
    PopulationStats {
        label: label.to_string(),
        node,
        acked: clients.acked,
        backpressured: clients.backpressured,
        client_e2e: SegmentPcts {
            count: lat.len(),
            p50_us: percentile_us(&mut lat, 50.0),
            p99_us: percentile_us(&mut lat, 99.0),
        },
        spans: own.len(),
        relayed_spans: own.iter().filter(|s| s.relayed_ts_us.is_some()).count(),
        queue_wait: SegmentPcts::over(&own, |s| s.queue_wait_us),
        batch_wait: SegmentPcts::over(&own, |s| s.batch_wait_us),
        order: SegmentPcts::over(&own, |s| s.order_us),
        persist_gate_wait: SegmentPcts::over(&own, |s| s.persist_gate_wait_us),
        ack: SegmentPcts::over(&own, |s| s.ack_us),
        e2e: SegmentPcts::over(&own, |s| s.e2e_us),
    }
}

/// Runs the two-population traced cluster (see the module docs).
///
/// # Panics
///
/// Panics if an endpoint cannot be bound, a client loses its gateway, or
/// a node thread dies.
pub fn run_cmd_load(params: &Params<Batch<u64>>, profile: &CmdLoadProfile) -> CmdLoadReport {
    let n = params.cfg.n();
    assert!(n >= 2, "the relay population needs a second node");
    let gateway_cfg = GatewayConfig {
        backpressure_limit: 65_536,
        redirect_to: None,
        write_timeout: Duration::from_millis(500),
        reack_index_cap: 1 << 20,
    };
    let kits = AdminKit::spawn_all(n, profile.trace_events, profile.history_interval);
    let spec = ClusterSpec {
        params: params.clone(),
        transport: NetTransportKind::Channel,
        batch_cap: profile.batch_cap,
        window: profile.window,
        max_rounds: profile.max_rounds,
        // Every command reaches every log; nodes quiesce when both
        // populations' commands are applied.
        stop_after_commands: Some(usize::try_from(profile.count * 2).expect("count fits")),
        mode: StoreMode::Memory,
        snapshot_every: 0,
        instruments: kits.iter().map(|k| k.instruments(profile.traced)).collect(),
    };
    // Every node's hook is a real TCP gateway wired to its admin kit —
    // the full `gencon-server` observability surface.
    let mut client_addrs = Vec::with_capacity(n);
    let cluster = Cluster::spawn(spec, |i, _| {
        let kit = &kits[i];
        let mut gateway =
            ClientGateway::<LogApp<u64>>::listen("127.0.0.1:0".parse().expect("addr"), gateway_cfg)
                .expect("bind gateway")
                .with_metrics(&kit.state.registry)
                .with_slow_ring(kit.state.slow_cmds.clone());
        if profile.traced {
            gateway = gateway.with_trace(kit.state.recorder.clone());
        }
        if profile.slo_p99_us > 0 {
            gateway = gateway.with_slo(SloTracker::new(&kit.state.registry, profile.slo_p99_us));
        }
        let gateway = gateway.with_applier(Applier::default());
        client_addrs.push(gateway.local_addr());
        gateway
    });

    // The two populations, on their own threads speaking real TCP.
    let started = Instant::now();
    let relay_node = n - 1;
    let coord = {
        let addr = client_addrs[0];
        let profile = profile.clone();
        std::thread::spawn(move || drive_population(addr, 0, &profile))
    };
    let relay = {
        let addr = client_addrs[relay_node];
        let profile = profile.clone();
        let ns = relay_node as u16;
        std::thread::spawn(move || drive_population(addr, ns, &profile))
    };
    let coord = coord.join().expect("coordinator population");
    let relay = relay.join().expect("relay population");
    let wall = started.elapsed();

    // Cluster stitch first (the admin endpoints die with the process,
    // not the node threads, so order only matters for clarity), then
    // join the nodes and assemble each population's local spans.
    let pull = if profile.traced {
        let admin_addrs: Vec<SocketAddr> = kits.iter().map(|k| k.addr).collect();
        trace_pull_cmds(
            &admin_addrs,
            profile.trace_events,
            CLOCK_SAMPLES_DEFAULT,
            &MonConfig::default(),
        )
    } else {
        CmdPull {
            nodes: Vec::new(),
            spans: Vec::new(),
            slowest: Vec::new(),
        }
    };
    let stats: Vec<NodeStats> = cluster.join().iter().map(|r| r.stats).collect();

    let spans_at = |node: usize| -> Vec<CmdSpan> {
        if !profile.traced {
            return Vec::new();
        }
        let events = kits[node].state.recorder.tail(profile.trace_events);
        let slots = assemble_spans(&events);
        assemble_cmd_spans(&events, &slots)
    };
    let coordinator = population_stats("coordinator", 0, 0, &spans_at(0), &coord);
    let relay = population_stats(
        "relay",
        relay_node,
        relay_node as u16,
        &spans_at(relay_node),
        &relay,
    );

    CmdLoadReport {
        acked: coordinator.acked + relay.acked,
        coordinator,
        relay,
        pull,
        wall,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::pbft;

    #[test]
    fn traced_cluster_spans_both_paths_and_stitches_relay_hops() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut profile = CmdLoadProfile::new(240);
        profile.slo_p99_us = 5_000_000; // generous: every ack is "good"
        let report = run_cmd_load(&spec.params, &profile);

        assert_eq!(report.coordinator.acked, 240);
        assert_eq!(report.relay.acked, 240);
        assert!(report.cmds_per_sec() > 0.0);

        // Every locally-acked command produced a span with the e2e
        // segment, and the populations split cleanly by namespace.
        assert!(
            report.coordinator.spans >= 200,
            "coordinator spans: {:?}",
            report.coordinator
        );
        assert!(report.relay.spans >= 200, "relay spans: {:?}", report.relay);
        assert!(report.coordinator.e2e.p50_us.is_some());
        assert!(report.relay.e2e.p50_us.is_some());
        assert!(report.coordinator.queue_wait.count > 0);

        // The follower population actually exercised the relay path.
        assert!(
            report.relay.relayed_spans > 0,
            "no relayed spans at the follower: {:?}",
            report.relay
        );

        // The cluster pull stitched commands with at least one relay
        // hop mapped across nodes, uncertainty carried.
        assert!(!report.pull.spans.is_empty());
        let hops: usize = report.pull.spans.iter().map(|s| s.hops.len()).sum();
        assert!(
            hops > 0,
            "no relay hops stitched: {}",
            report.pull.summary_json()
        );
        let summary = report.pull.summary_json();
        assert!(summary.contains("\"relay_e2e_p50_us\":"), "{summary}");
        assert!(summary.contains("\"max_uncertainty_us\":"), "{summary}");

        // The gateways fed the exemplar rings; the pull merged them.
        assert!(!report.pull.slowest.is_empty());

        // JSON rendering holds every population segment.
        let j = report.relay.to_json();
        for needle in [
            "\"queue_wait\":{",
            "\"order\":{",
            "\"e2e\":{",
            "\"relayed_spans\":",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn untraced_run_still_serves_both_populations() {
        let spec = pbft::<Batch<u64>>(4, 1).unwrap();
        let mut profile = CmdLoadProfile::new(120);
        profile.traced = false;
        let report = run_cmd_load(&spec.params, &profile);
        assert_eq!(report.acked, 240);
        assert_eq!(report.coordinator.spans, 0);
        assert!(report.pull.spans.is_empty());
        assert!(report.coordinator.client_e2e.p50_us.is_some());
    }
}
