//! Experiment **E10** — durable vs. in-memory SMR ack throughput/latency
//! (`BENCH_store.json`).
//!
//! Runs the same closed-loop clients and batching replicas as E9, but
//! with `gencon-store` in the loop: each durable node writes every
//! committed batch to a CRC-framed file WAL (group-commit fsync),
//! snapshots + compacts periodically, and acks a command only once its
//! slot is durable. Three modes per algorithm:
//!
//! * `memory` — the PR-3 baseline (ack at apply);
//! * `durable(fast-ack)` — WAL + snapshots running, acks at apply
//!   (persistence cost without the ack-latency cost);
//! * `durable(durable-ack)` — acks wait for the durable watermark (what
//!   a client of a real durable cluster observes).
//!
//! Run: `cargo run --release -p gencon_bench --bin loadgen_store`
//! Smoke (CI): `cargo run --release -p gencon_bench --bin loadgen_store -- --smoke`
//! Output path: `--out <path>` (default `BENCH_store.json`).
//!
//! **E12 — per-stage breakdown.** Every configuration attaches a
//! per-stage metrics registry to the measurement replica (node 0), so
//! each row also carries ingest frames, the order-stage round-latency
//! median and the persist-stage fsync-latency median plus stall count —
//! the decomposition of where a durable ack spends its time now that the
//! fsync runs on a dedicated persist thread off the ordering path.
//! `--metrics-file <path>` additionally dumps the raw registry JSON of
//! the last durable-ack configuration.
//!
//! **E13 — per-slot spans.** Every configuration also attaches a flight
//! recorder to node 0 and assembles its events into per-slot latency
//! breakdowns: `span_order_*` (proposed→decided, consensus),
//! `span_persist_wait_*` (decided→persist-enqueue, queue wait) and
//! `span_persist_svc_*` (the group commit that covered the slot) — the
//! stage-by-stage decomposition of where durable-ack's remaining gap to
//! the in-memory baseline lives, per slot rather than per stage
//! aggregate. `--trace-file <path>` additionally writes the last
//! durable-ack configuration's spans as JSON lines.
//!
//! Asserted shape checks: every configuration acks its target with
//! agreeing logs, per-stage counters are non-zero (the pipeline actually
//! ran), and durable-ack throughput stays within 4× of the in-memory
//! baseline — group commit plus the async persist stage is what makes
//! that hold (one fsync covers a whole window of slots and no longer
//! blocks ordering; compare `wal_syncs` to slots).

use std::time::Duration;

use gencon_algos::AlgorithmSpec;
use gencon_bench::Table;
use gencon_load::{run_store_load, ResultsWriter, StoreLoadProfile, StoreMode, StoreRow};
use gencon_metrics::Registry;
use gencon_smr::Batch;
use gencon_types::ProcessId;

fn algos() -> Vec<AlgorithmSpec<Batch<u64>>> {
    vec![
        gencon_algos::paxos::<Batch<u64>>(4, 1, ProcessId::new(0)).expect("paxos"),
        gencon_algos::pbft::<Batch<u64>>(4, 1).expect("pbft"),
    ]
}

fn modes(smoke: bool) -> Vec<StoreMode> {
    let mut m = vec![
        StoreMode::Memory,
        StoreMode::Durable {
            fsync_interval: Duration::from_millis(5),
            fast_ack: false,
        },
    ];
    if !smoke {
        m.push(StoreMode::Durable {
            fsync_interval: Duration::from_millis(5),
            fast_ack: true,
        });
        m.push(StoreMode::Durable {
            fsync_interval: Duration::ZERO,
            fast_ack: false,
        });
    }
    m
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics-file")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace-file")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!(
        "# E10 — durable vs. in-memory ack throughput ({})\n",
        if smoke { "smoke sweep" } else { "full sweep" }
    );

    let mut writer: ResultsWriter<StoreRow> = ResultsWriter::new();
    let mut table = Table::new([
        "algo", "mode", "cap", "acked", "wall ms", "cmds/sec", "p50 µs", "p99 µs", "ord µs",
        "fs µs", "stalls", "fsyncs", "snaps", "vs mem", "spans", "o-p99", "pw-p99", "ps-p99",
    ]);
    let mut last_durable_registry: Option<Registry> = None;
    let mut last_durable_spans: Vec<gencon_trace::SlotSpan> = Vec::new();

    let target = if smoke { 800usize } else { 1_500 };
    let clients: u16 = 4;
    let caps: &[usize] = if smoke { &[64] } else { &[16, 64] };

    for spec in &algos() {
        for &cap in caps {
            let mut memory_rate: Option<f64> = None;
            for mode in modes(smoke) {
                let reg = Registry::new();
                let rec = gencon_trace::FlightRecorder::new(1 << 16);
                let mut profile = StoreLoadProfile::new(mode, clients, cap, target)
                    .with_metrics(reg.clone())
                    .with_trace(rec.clone());
                profile.snapshot_every = 32;
                let report = run_store_load(&spec.params, &profile);
                let seg = report.segment_stats();
                assert!(
                    report.logs_agree,
                    "{} {}: applied logs diverged",
                    spec.name,
                    mode.label()
                );
                assert!(
                    report.all_reached_target,
                    "{} {}: stalled at {} of {target} acked commands",
                    spec.name,
                    mode.label(),
                    report.acked_cmds
                );
                let rate = report.cmds_per_sec();
                let vs_memory = match (mode, memory_rate) {
                    (StoreMode::Memory, _) => {
                        memory_rate = Some(rate);
                        1.0
                    }
                    (_, Some(base)) if base > 0.0 => rate / base,
                    _ => 1.0,
                };
                // The pipeline actually ran: the order stage counted its
                // rounds, and durable modes appended + fsynced.
                assert!(
                    reg.counter_value("order.rounds").unwrap_or(0) > 0,
                    "{} {}: order stage recorded no rounds",
                    spec.name,
                    mode.label()
                );
                if let StoreMode::Durable { .. } = mode {
                    assert!(
                        reg.counter_value("persist.appended").unwrap_or(0) > 0
                            && reg.counter_value("persist.fsyncs").unwrap_or(0) > 0,
                        "{} {}: persist stage recorded no work",
                        spec.name,
                        mode.label()
                    );
                }
                // E13: the flight recorder produced joinable slot spans,
                // and durable modes decomposed the persistence path.
                assert!(
                    seg.spans > 0,
                    "{} {}: no slot spans assembled from the flight recorder",
                    spec.name,
                    mode.label()
                );
                if let StoreMode::Durable { .. } = mode {
                    assert!(
                        report.spans.iter().any(|s| s.persist_svc_us.is_some()),
                        "{} {}: no span carries a group-commit segment",
                        spec.name,
                        mode.label()
                    );
                }
                if let StoreMode::Durable {
                    fast_ack: false, ..
                } = mode
                {
                    last_durable_registry = Some(reg.clone());
                    last_durable_spans = report.spans.clone();
                    // The acceptance bar: group commit plus the async
                    // persist stage keeps durable acks within 4× of
                    // memory throughput.
                    assert!(
                        vs_memory >= 0.25,
                        "{} cap {cap}: durable-ack at {:.0} cmds/sec is more than 4× \
                         slower than memory ({:.0})",
                        spec.name,
                        rate,
                        memory_rate.unwrap_or(0.0),
                    );
                }
                let n = spec.params.cfg.n();
                let row = StoreRow {
                    algo: spec.name.to_string(),
                    class: spec.class.to_string(),
                    n,
                    b: spec.params.cfg.b(),
                    f: spec.params.cfg.f(),
                    mode: mode.label(),
                    workload: profile.load.workload.label(),
                    clients: clients as usize * n,
                    batch_cap: cap,
                    committed_cmds: report.committed_cmds,
                    acked_cmds: report.acked_cmds,
                    rounds: report.rounds,
                    wall_ms: report.wall.as_secs_f64() * 1e3,
                    cmds_per_sec: rate,
                    p50_us: report.hist.p50(),
                    p90_us: report.hist.p90(),
                    p99_us: report.hist.p99(),
                    p999_us: report.hist.p999(),
                    wal_bytes: report.wal_bytes,
                    wal_syncs: report.wal_syncs,
                    snapshots: report.snapshots,
                    vs_memory,
                    ingest_frames: reg.counter_value("ingest.frames").unwrap_or(0),
                    order_us_p50: reg.histogram("order.round_us").p50(),
                    fsync_us_p50: reg.histogram("persist.fsync_us").p50(),
                    persist_stalls: reg.counter_value("persist.stalls").unwrap_or(0),
                    spans: seg.spans,
                    span_order_p50_us: seg.order_p50_us,
                    span_order_p99_us: seg.order_p99_us,
                    span_persist_wait_p50_us: seg.persist_wait_p50_us,
                    span_persist_wait_p99_us: seg.persist_wait_p99_us,
                    span_persist_svc_p50_us: seg.persist_svc_p50_us,
                    span_persist_svc_p99_us: seg.persist_svc_p99_us,
                };
                table.row([
                    row.algo.clone(),
                    row.mode.clone(),
                    row.batch_cap.to_string(),
                    row.acked_cmds.to_string(),
                    format!("{:.1}", row.wall_ms),
                    format!("{:.0}", row.cmds_per_sec),
                    row.p50_us.to_string(),
                    row.p99_us.to_string(),
                    row.order_us_p50.to_string(),
                    row.fsync_us_p50.to_string(),
                    row.persist_stalls.to_string(),
                    row.wal_syncs.to_string(),
                    row.snapshots.to_string(),
                    format!("{:.2}", row.vs_memory),
                    row.spans.to_string(),
                    row.span_order_p99_us.to_string(),
                    row.span_persist_wait_p99_us.to_string(),
                    row.span_persist_svc_p99_us.to_string(),
                ]);
                writer.push(row);
            }
        }
    }

    table.print();
    writer.write(&out_path).expect("write results");
    println!("\n{} rows → {}", writer.rows().len(), out_path);
    if let Some(path) = metrics_path {
        let reg = last_durable_registry.expect("at least one durable-ack configuration ran");
        reg.dump_to_file(&path).expect("write metrics dump");
        println!("per-stage metrics of the last durable-ack run → {path}");
    }
    if let Some(path) = trace_path {
        let mut lines = String::new();
        for span in &last_durable_spans {
            lines.push_str(&span.to_json());
            lines.push('\n');
        }
        std::fs::write(&path, lines).expect("write trace spans");
        println!(
            "{} slot spans of the last durable-ack run → {path}",
            last_durable_spans.len()
        );
    }
    println!(
        "Durable-ack stayed within 4× of in-memory throughput in every \
         configuration (group commit + async persist stage: one fsync \
         covers a window of slots and never blocks ordering)."
    );
}
