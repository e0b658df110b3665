//! Microbenches on public functions of single layers, with inputs shaped
//! like the workload: run in-process after the traced cluster stopped,
//! so they never share the CPU with it. Each reports the median of
//! several timed repetitions.

use std::hint::black_box;
use std::time::Instant;

use gencon_app::{App, KvApp, KvCmd, KvOp};
use gencon_rounds::{HeardOf, Outgoing, RoundProcess};
use gencon_smr::{Batch, BatchingReplica};
use gencon_types::{ProcessId, Round};

use crate::parse::median;
use crate::workload::{key_bytes, value_for, Workload, KEYS};

const REPS: usize = 7;

/// Median over `REPS` of the mean time per call, in ns.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps).unwrap_or(0.0)
}

pub struct Micro {
    pub crc32_ns_per_kib: f64,
    pub sha256_ns_per_kib: f64,
    pub fold_ms: f64,
    pub hist_record_ns: f64,
    pub event_record_ns: f64,
    pub round_step_us: f64,
}

/// The app state the workload builds: every key written once.
fn full_state(w: &Workload) -> KvApp {
    let mut app = KvApp::default();
    for k in 0..KEYS {
        let cmd = KvCmd {
            id: k + 2,
            op: KvOp::Put {
                key: key_bytes(k),
                value: value_for(k + 2, w.value_bytes),
            },
        };
        app.apply(0, k, &cmd);
    }
    app
}

/// Replica `i` of a 4-node cluster of the workload's algorithm, set up
/// as `gencon-server` sets it up (batch cap 64, window 4).
pub fn replica(w: &Workload, i: usize) -> BatchingReplica<KvCmd> {
    let n = 4;
    let params = match w.algo {
        "pbft" => {
            gencon_algos::pbft::<Batch<KvCmd>>(n, 1)
                .expect("n = 4 tolerates b = 1")
                .params
        }
        _ => {
            gencon_algos::paxos::<Batch<KvCmd>>(n, 1, ProcessId::new(0))
                .expect("n = 4 tolerates f = 1")
                .params
        }
    };
    BatchingReplica::new(ProcessId::new(i), params, 64, usize::MAX)
        .expect("valid parameters")
        .with_window(4)
}

/// Seconds to open node `i`'s data dir and recover its replica and fold
/// (`FileWal::open` + `recover_replica`), as a restarting node does.
pub fn replay_s(w: &Workload, dir: &std::path::Path) -> f64 {
    let t = Instant::now();
    let cfg = gencon_store::WalConfig {
        fsync_interval: std::time::Duration::from_millis(5),
        segment_bytes: 4 << 20,
        snapshot_keep: 2,
    };
    let Ok((_wal, recovery)) = gencon_store::FileWal::open(dir, cfg) else {
        return 0.0;
    };
    let mut r = replica(w, 1);
    let mut folder = gencon_app::Folder::<KvApp>::default();
    gencon_server::recover_replica(&mut r, &mut folder, &recovery);
    black_box(folder.applied_len());
    t.elapsed().as_secs_f64()
}

/// One consensus round of 4 in-process replicas of the workload's
/// algorithm (send step, delivery to all, transition step), with a
/// batch of 16 workload-shaped commands submitted at replica 0 each
/// round; µs per replica per round.
fn round_step_us(w: &Workload) -> f64 {
    let n = 4;
    let mut replicas: Vec<BatchingReplica<KvCmd>> = (0..n).map(|i| replica(w, i)).collect();
    let mut next_id = 1u64;
    let mut step = |r: u64| {
        for _ in 0..16 {
            let key = next_id % KEYS;
            replicas[0].submit(KvCmd {
                id: next_id,
                op: KvOp::Put {
                    key: key_bytes(key),
                    value: value_for(next_id, w.value_bytes),
                },
            });
            next_id += 1;
        }
        let round = Round::new(r);
        let sent: Vec<_> = replicas.iter_mut().map(|p| p.send(round)).collect();
        for (i, p) in replicas.iter_mut().enumerate() {
            let mut heard = HeardOf::empty(n);
            for (j, out) in sent.iter().enumerate() {
                match out {
                    Outgoing::Broadcast(m) => heard.put(ProcessId::new(j), m.clone()),
                    Outgoing::Multicast { dests, msg } if dests.contains(ProcessId::new(i)) => {
                        heard.put(ProcessId::new(j), msg.clone());
                    }
                    _ => {}
                }
            }
            p.receive(round, &heard);
        }
    };
    let mut r = 1;
    let rounds = 200;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..rounds {
                step(r);
                r += 1;
            }
            t.elapsed().as_secs_f64() * 1e6 / (rounds * n as u64) as f64
        })
        .collect();
    median(&reps).unwrap_or(0.0)
}

pub fn run(w: &Workload) -> Micro {
    // A WAL record and a snapshot are CRC'd and hashed as a whole;
    // 64 KiB stands for either.
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let kib = buf.len() as f64 / 1024.0;
    let crc = time_ns(200, || {
        black_box(gencon_crypto::crc32::crc32(black_box(&buf)));
    });
    let sha = time_ns(50, || {
        black_box(gencon_crypto::sha256(black_box(&buf)));
    });
    let app = full_state(w);
    let fold_ns = time_ns(3, || {
        black_box(app.fold_snapshot());
    });
    let reg = gencon_metrics::Registry::new();
    let hist = reg.histogram("perfbench.micro");
    let mut v = 1u64;
    let hist_ns = time_ns(200_000, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 44));
    });
    let rec = gencon_trace::FlightRecorder::new(65_536);
    let mut slot = 0u64;
    let event_ns = time_ns(200_000, || {
        slot += 1;
        rec.record(
            gencon_trace::Stage::Order,
            gencon_trace::EventKind::Decided,
            black_box(slot),
            7,
        );
    });
    Micro {
        crc32_ns_per_kib: crc / kib,
        sha256_ns_per_kib: sha / kib,
        fold_ms: fold_ns / 1e6,
        hist_record_ns: hist_ns,
        event_record_ns: event_ns,
        round_step_us: round_step_us(w),
    }
}
