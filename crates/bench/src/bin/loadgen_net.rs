//! Experiment **E9** — SMR throughput/latency over real transports vs. the
//! lock-step simulator (`BENCH_net.json`).
//!
//! Runs the same algorithms, closed-loop clients, batching and latency
//! histogram as E8 (`loadgen`), but through the `gencon-server` event loop
//! over real transports: in-process channels (protocol cost without the
//! kernel) and a localhost TCP mesh (the full wire path). The clusters
//! are E10's driver (`run_store_load`) in memory mode. Each row reports
//! wall-clock commands/sec and submit→apply latency percentiles in
//! microseconds, **plus the same configuration's simulated commands/round**
//! — so the sim-vs-wire gap is visible in one file.
//!
//! Run: `cargo run --release -p gencon_bench --bin loadgen_net`
//! Smoke (CI): `cargo run --release -p gencon_bench --bin loadgen_net -- --smoke`
//! Output path: `--out <path>` (default `BENCH_net.json`).
//!
//! Asserted shape checks: every configuration commits its target with
//! agreeing logs, and each 4-node cluster (Paxos and PBFT × {Channel,
//! Tcp}) commits ≥ 1000 client commands — the repo's wire-level
//! acceptance bar.

use gencon_algos::AlgorithmSpec;
use gencon_bench::Table;
use gencon_load::{
    run_load, run_store_load, LoadProfile, NetRow, NetTransportKind, ResultsWriter,
    StoreLoadProfile, StoreMode,
};
use gencon_sim::{AlwaysGood, CrashPlan};
use gencon_smr::Batch;
use gencon_types::ProcessId;

fn algos() -> Vec<AlgorithmSpec<Batch<u64>>> {
    vec![
        // Benign class 2 at n = 4 (tolerates one crash).
        gencon_algos::paxos::<Batch<u64>>(4, 1, ProcessId::new(0)).expect("paxos"),
        // Byzantine class 3 at its minimal system.
        gencon_algos::pbft::<Batch<u64>>(4, 1).expect("pbft"),
    ]
}

/// The same configuration through the lock-step simulator, for the
/// `sim_cmds_per_round` column.
fn sim_cmds_per_round(spec: &AlgorithmSpec<Batch<u64>>, profile: &LoadProfile) -> f64 {
    let report = run_load(&spec.params, AlwaysGood, CrashPlan::none(), &[], profile);
    assert!(
        report.all_decided && report.logs_agree,
        "{}: simulated reference run must converge",
        spec.name
    );
    report.cmds_per_round()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_net.json".to_string());

    println!(
        "# E9 — SMR over real transports vs. simulator ({})\n",
        if smoke { "smoke sweep" } else { "full sweep" }
    );

    let mut writer: ResultsWriter<NetRow> = ResultsWriter::new();
    let mut table = Table::new([
        "algo",
        "transport",
        "clients",
        "cap",
        "cmds",
        "wall ms",
        "cmds/sec",
        "p50 µs",
        "p99 µs",
        "sim cmds/round",
    ]);

    // ≥ 1000 committed client commands per cluster is the acceptance bar.
    let target = 1200usize;
    let clients: u16 = 4;
    let caps: &[usize] = if smoke { &[64] } else { &[8, 64] };
    let transports = [NetTransportKind::Channel, NetTransportKind::Tcp];

    for spec in &algos() {
        for &cap in caps {
            let mut profile = StoreLoadProfile::new(StoreMode::Memory, clients, cap, target);
            let sim_rate = sim_cmds_per_round(spec, &profile.load);
            for &transport in &transports {
                profile.transport = transport;
                let report = run_store_load(&spec.params, &profile);
                assert!(
                    report.logs_agree,
                    "{} over {}: applied logs diverged",
                    spec.name,
                    transport.label()
                );
                assert!(
                    report.all_reached_target,
                    "{} over {}: stalled at {} of {target} commands",
                    spec.name,
                    transport.label(),
                    report.committed_cmds
                );
                assert!(
                    report.committed_cmds >= 1000,
                    "{} over {}: {} < 1000 committed client commands",
                    spec.name,
                    transport.label(),
                    report.committed_cmds
                );
                let n = spec.params.cfg.n();
                let row = NetRow {
                    algo: spec.name.to_string(),
                    class: spec.class.to_string(),
                    n,
                    b: spec.params.cfg.b(),
                    f: spec.params.cfg.f(),
                    transport: transport.label().to_string(),
                    workload: profile.load.workload.label(),
                    clients: clients as usize * n,
                    batch_cap: cap,
                    committed_cmds: report.committed_cmds,
                    rounds: report.rounds,
                    wall_ms: report.wall.as_secs_f64() * 1e3,
                    cmds_per_sec: report.cmds_per_sec(),
                    p50_us: report.hist.p50(),
                    p90_us: report.hist.p90(),
                    p99_us: report.hist.p99(),
                    p999_us: report.hist.p999(),
                    sim_cmds_per_round: sim_rate,
                };
                table.row([
                    row.algo.clone(),
                    row.transport.clone(),
                    row.clients.to_string(),
                    row.batch_cap.to_string(),
                    row.committed_cmds.to_string(),
                    format!("{:.1}", row.wall_ms),
                    format!("{:.0}", row.cmds_per_sec),
                    row.p50_us.to_string(),
                    row.p99_us.to_string(),
                    format!("{:.1}", row.sim_cmds_per_round),
                ]);
                writer.push(row);
            }
        }
    }

    table.print();
    writer.write(&out_path).expect("write results");
    println!("\n{} rows → {}", writer.rows().len(), out_path);
    println!(
        "Each cluster committed ≥ 1000 client commands with agreeing logs \
         over both Channel and Tcp meshes."
    );
}
