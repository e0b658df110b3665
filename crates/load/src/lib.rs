//! Workload generation and the end-to-end throughput/latency harness for
//! `gencon` replicated logs.
//!
//! The paper isolates the single-instance consensus core and `gencon-smr`
//! composes it back into a replicated log; this crate pushes *client
//! traffic* through that log and measures it — the missing vertical between
//! "the algorithm decides" and "the deployment serves":
//!
//! ```text
//! clients ──► Workload ──► BatchingReplica (Batch<V> per slot)
//!                               │  gencon-sim lock-step executor,
//!                               ▼  network models + fault mixes
//!                         committed log ──► LatencyHistogram ──► BENCH_smr.json
//! ```
//!
//! * [`Workload`] — deterministic arrival streams: [`ClosedLoop`] clients
//!   (k outstanding requests each, self-clocked to commit speed) and
//!   [`OpenLoop`] Poisson arrivals (rate-driven, exposes queueing collapse);
//! * [`LatencyHistogram`] — log-bucketed (exact below 64, ≤3.2% above),
//!   mergeable, with p50/p90/p99/p999;
//! * [`run_load`] — assembles replicas, workloads, network and fault mix
//!   into one lock-step execution and reports a [`LoadReport`];
//! * [`run_store_load`] — the same clients and histogram over *real*
//!   transports (`gencon-server` event-loop nodes on a Channel or
//!   localhost-TCP mesh, in memory or over a file WAL), measuring
//!   wall-clock microseconds instead of rounds — the sim-vs-wire
//!   comparison of experiment E9 and the durability cost of E10;
//! * [`run_mon_load`] and [`run_cmd_load`] — the monitored cluster of
//!   E14/E15 and the two-population command tracing of E16;
//!   [`run_app_growth`] and [`run_app_transfer`] — the application-layer
//!   measurements of E11;
//! * [`BenchRow`]/[`NetRow`]/[`ResultsWriter`] — the `BENCH_smr.json` /
//!   `BENCH_net.json` trajectory formats the `loadgen` and `loadgen_net`
//!   experiment binaries emit.
//!
//! The real-node drivers (`run_store_load`, `run_mon_load`,
//! `run_cmd_load`) share one cluster harness: it spawns the node threads
//! over the chosen mesh, wires memory or durable storage and the admin
//! kit, and gives each node the driver's hook.
//!
//! Everything is seeded: the same configuration reproduces the same
//! arrivals, the same batches and the same histogram, round for round.
//!
//! # Example
//!
//! ```
//! use gencon_load::{run_load, LoadProfile, WorkloadKind};
//! use gencon_sim::{AlwaysGood, CrashPlan};
//! use gencon_types::{Batch, ProcessId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = gencon_algos::paxos::<Batch<u64>>(3, 1, ProcessId::new(0))?;
//! let report = run_load(
//!     &spec.params,
//!     AlwaysGood,
//!     CrashPlan::none(),
//!     &[],
//!     &LoadProfile {
//!         clients_per_replica: 2,
//!         workload: WorkloadKind::Closed { outstanding: 2 },
//!         batch_cap: 4,
//!         window: 1,
//!         commit_target: 12,
//!         max_rounds: 200,
//!         seed: 42,
//!     },
//! );
//! assert!(report.all_decided && report.logs_agree);
//! assert!(report.committed_cmds >= 12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod appdriver;
mod cluster;
mod cmddriver;
mod driver;
mod hist;
mod mondriver;
mod results;
mod storedriver;
mod workload;

pub use appdriver::{
    run_app_growth, run_app_transfer, AppGrowthProfile, AppGrowthReport, AppTransferProfile,
    AppTransferReport,
};
pub use cluster::{NetTransportKind, StoreMode};
pub use cmddriver::{run_cmd_load, CmdLoadProfile, CmdLoadReport, PopulationStats, SegmentPcts};
pub use driver::{run_load, LoadProfile, LoadReport, WorkloadKind};
pub use hist::LatencyHistogram;
pub use mondriver::{run_mon_load, MonLoadProfile, MonLoadReport};
pub use results::{AppRow, BenchRow, JsonRow, NetRow, ResultsWriter, StoreRow};
pub use storedriver::{run_store_load, SegmentStats, StoreLoadProfile, StoreLoadReport};
pub use workload::{decode_cmd, encode_cmd, ClosedLoop, OpenLoop, Workload};

// The batched SMR surface this harness drives, re-exported for one-stop
// imports in experiment binaries.
pub use gencon_smr::{Batch, BatchingReplica};
