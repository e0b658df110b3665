//! One benchmark run: set up clusters several times, drive the
//! workload's open-loop and closed-loop phases against the last few,
//! check every reply and the replicas' final state hashes, and report.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::cluster::{self, Cluster, Launch, NODES};
use crate::load::{self, Client, NoSchedule, Probe, Schedule};
use crate::parse::{median, quantile};
use crate::report::{Metric, Report};
use crate::workload::{measured_ops, Op, Rng, Workload, CRASH_NODE, KEYS};

/// Clusters set up per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The last this many of them each carry an equal share of the
/// workload; every latency window and throughput block of all of them
/// is pooled before the median, so one disturbed cluster cannot move it.
const CLUSTERS: usize = 3;
/// Share of a cluster's time spent in the open-loop phase; the
/// closed-loop phase is sized to take the rest at the workload's
/// `sat_rate`.
const OPEN_SHARE: f64 = 0.6;
/// Open-loop commands sent in the first second are warm-up.
const OPEN_WARMUP: Duration = Duration::from_secs(1);
/// A one-second open-loop window counts when at least this share of a
/// second's commands fell in it.
const OPEN_WINDOW_MIN: f64 = 0.5;
/// Closed-loop acks in the first tenth are warm-up.
const SAT_WARMUP: f64 = 0.1;
/// The rest are cut into this many blocks of equal count; the reported
/// throughput is their median.
const SAT_BLOCKS: usize = 10;
/// Crash workload: kill at this time into the open-loop phase, restart
/// after `RESTART_AFTER`.
const KILL_AT: Duration = Duration::from_millis(1_500);
const RESTART_AFTER: Duration = Duration::from_millis(1_000);
/// A run whose generator sent more than 1% of commands this late is
/// invalid (flagged in the row): the arrival schedule it claims did not
/// happen.
const LATE_LIMIT_US: f64 = 20_000.0;

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub server_bin: String,
    pub self_bin: String,
    pub work: PathBuf,
}

/// What one loaded cluster measured.
pub struct Phases {
    /// Open-loop latencies (ms, sorted) per one-second window.
    pub windows: Vec<Vec<f64>>,
    pub lateness_us: Vec<f64>,
    pub open_cmds: usize,
    pub open_ticks: u64,
    pub longest_gap_ms: f64,
    /// Share of CPU time the hypervisor stole during the open-loop phase.
    pub steal_pct: f64,
    /// Closed-loop throughput per block of acks.
    pub blocks: Vec<f64>,
    pub sat_samples: usize,
    pub catchup_s: Option<f64>,
    pub check: load::Check,
    pub attempted: u64,
    pub finish: cluster::Finish,
    pub bounced: u64,
    /// Commands every node applied (the `--stop-after` count).
    pub total: u64,
    /// Commands sent in the open-loop and closed-loop phases.
    pub measured_cmds: u64,
    /// Distinct slots the acked commands committed in.
    pub useful_slots: u64,
    pub extra: crate::trace::Sampled,
}

struct Crash<'a> {
    cluster: &'a mut Cluster,
    probe_id: u64,
    killed: Option<Instant>,
    restarted: Option<Instant>,
    probe: Option<Probe>,
    caught_up: Option<Duration>,
}

impl Schedule for Crash<'_> {
    fn tick(&mut self, elapsed: Duration) -> Duration {
        if self.killed.is_none() {
            if elapsed < KILL_AT {
                return KILL_AT - elapsed;
            }
            self.cluster.kill(CRASH_NODE);
            self.killed = Some(Instant::now());
        }
        let killed = self.killed.expect("set above");
        if self.restarted.is_none() {
            let since = killed.elapsed();
            if since < RESTART_AFTER {
                return RESTART_AFTER - since;
            }
            if let Err(e) = self.cluster.restart(CRASH_NODE) {
                eprintln!("perfbench: restart of node {CRASH_NODE} failed: {e}");
                return Duration::from_secs(3_600);
            }
            self.restarted = Some(Instant::now());
        }
        let restarted = self.restarted.expect("set above");
        if self.caught_up.is_some() {
            return Duration::from_secs(3_600);
        }
        match &mut self.probe {
            None => {
                self.probe = Probe::send(self.cluster.client_addr(CRASH_NODE), self.probe_id, 0);
                Duration::from_millis(5)
            }
            Some(p) => {
                p.poll(self.probe_id);
                if let Some((at, _)) = p.acked {
                    self.caught_up = Some(at.duration_since(restarted));
                    return Duration::from_secs(3_600);
                }
                Duration::from_millis(2)
            }
        }
    }
}

/// The data dir of the cluster that carried the workload.
pub fn last_setup_dir(o: &Opts) -> PathBuf {
    o.work.join(format!("setup{}", SETUPS - 1))
}

/// Sets up one cluster and returns it with the time from spawning the
/// servers to the first committed ack, and the client holding that ack.
fn setup(o: &Opts, launch: &Launch, n: usize) -> Result<(Cluster, Client, f64), String> {
    let dir = o.work.join(format!("setup{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let cluster = Cluster::start(o.workload, launch.clone(), &dir)
        .map_err(|e| format!("cannot start cluster: {e}"))?;
    let stream = load::connect(cluster.gateway(), Duration::from_secs(30))
        .map_err(|e| format!("cannot reach gateway: {e}"))?;
    let mut client =
        Client::new(stream, o.workload.value_bytes).map_err(|e| format!("client: {e}"))?;
    let probe = client.plan(&[Op::Get(0)]);
    if !client.closed_loop(probe, 1) {
        return Err("no ack for the set-up probe".into());
    }
    Ok((cluster, client, t0.elapsed().as_secs_f64()))
}

/// Runs the workload: `SETUPS` clusters are set up, and the last
/// `CLUSTERS` of them each carry an equal share of the workload's
/// phases. Returns the set-up times and what each loaded cluster
/// measured.
pub fn drive(o: &Opts, launch: Launch) -> Result<(Vec<f64>, Vec<Phases>), String> {
    let w = o.workload;
    let mut rng = Rng::new(o.seed);
    let share = o.seconds / CLUSTERS as f64;
    let n_open = (w.rate * share * OPEN_SHARE).round() as usize;
    let n_sat = (w.sat_rate * share * (1.0 - OPEN_SHARE)).round() as usize;
    // Set-up probe + pre-writes + both phases + one catch-up get per
    // non-gateway replica + the closing get + the crash workload's
    // catch-up probe: every node stops at exactly this count and hashes
    // its state.
    let total = 1 + KEYS + (n_open + n_sat + NODES) as u64 + u64::from(w.crash);
    let launch = Launch {
        total: Some(total),
        ..launch
    };
    let mut setups = Vec::new();
    let mut loaded = Vec::new();
    for n in 0..SETUPS {
        let (cluster, client, secs) = setup(o, &launch, n)?;
        setups.push(secs);
        let mut keep = false;
        if n + CLUSTERS < SETUPS {
            drop(client.close());
            drop(cluster);
        } else {
            let open_ops = measured_ops(w, &mut rng, n_open);
            let sat_ops = measured_ops(w, &mut rng, n_sat);
            let p = load_cluster(o, &launch, cluster, client, &open_ops, &sat_ops)?;
            // A cluster whose checks failed keeps its logs for the post-mortem.
            keep = p.check.failures() > 0 || !p.finish.agree();
            loaded.push(p);
        }
        if n + 1 < SETUPS && !keep {
            let _ = std::fs::remove_dir_all(o.work.join(format!("setup{n}")));
        }
    }
    Ok((setups, loaded))
}

/// Pre-writes the keyspace on a set-up cluster, runs the open-loop and
/// closed-loop phases, stops the cluster and checks what it answered.
fn load_cluster(
    o: &Opts,
    launch: &Launch,
    mut cluster: Cluster,
    mut client: Client,
    open_ops: &[Op],
    sat_ops: &[Op],
) -> Result<Phases, String> {
    let w = o.workload;
    let total = launch.total.expect("drive sets the total");
    let prewrite: Vec<Op> = (0..KEYS).map(Op::Put).collect();
    let pre = client.plan(&prewrite);
    if !client.closed_loop(pre, w.window) {
        return Err("pre-write phase broke off".into());
    }

    let open = client.plan(open_ops);
    let sat = client.plan(sat_ops);
    let mut sampled = crate::trace::Sampled::default();
    let t_open = launch.traced.then(|| crate::trace::sample(&cluster));
    let ticks0 = cluster.cpu_ticks();
    let host = || {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| crate::parse::stat_steal(&s))
    };
    let host0 = host();
    let (open_ok, killed, catchup) = if w.crash {
        let mut crash = Crash {
            cluster: &mut cluster,
            probe_id: total,
            killed: None,
            restarted: None,
            probe: None,
            caught_up: None,
        };
        let ok = client.open_loop(open.clone(), w.rate, &mut crash);
        (ok, crash.killed, crash.caught_up)
    } else {
        (
            client.open_loop(open.clone(), w.rate, &mut NoSchedule),
            None,
            None,
        )
    };
    let open_ticks = cluster.cpu_ticks() - ticks0;
    let steal_pct = match (host0, host()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let sat_ok = open_ok && client.closed_loop(sat.clone(), w.window);
    // A replica left behind under load could not finish alone once the
    // others reach the stop count. So each non-gateway replica first acks
    // a get through its own gateway, which it can only do once caught up;
    // then the closing get goes out.
    let catchups = client.plan(&[Op::Get(0); NODES - 1]);
    let mut close_ok = sat_ok;
    for (k, idx) in catchups.enumerate() {
        close_ok = close_ok && client.via(cluster.client_addr(k + 1), idx, load::STALL);
    }
    if let Some(t0) = t_open {
        sampled = crate::trace::sample(&cluster).since(&t0);
    }
    // The closing get's ack is collected after the cluster stopped: its
    // gateway may itself be the straggler that `finish` has to serve.
    let close = client.plan(&[Op::Get(0)]);
    let close_sent = close_ok && client.send(close.start);
    let finish = cluster.finish(Duration::from_secs(20));
    if close_sent {
        client.settle(Duration::from_secs(2));
    }
    let bounced = client.bounced;
    let lateness_us = std::mem::take(&mut client.lateness_us);
    let stalled = client.stalled;
    let recs = client.close();
    if launch.traced {
        sampled.dumps = (0..NODES).map(|i| cluster.dump(i)).collect();
        sampled.spans = (0..NODES).map(|i| cluster.spans(i)).collect();
    }
    drop(cluster);
    if stalled {
        eprintln!("perfbench: no ack for {:?}; the run broke off", load::STALL);
    }

    let first_due = recs[open.start].due;
    let warm_end = first_due.map(|t| t + OPEN_WARMUP);
    let gap_from = killed.or(warm_end);
    // Latency per one-second window of due times after warm-up.
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut acks = Vec::new();
    for r in &recs[open.clone()] {
        if let (Some(due), Some(ack), Some(w0)) = (r.due, r.ack, warm_end) {
            if due >= w0 {
                let k = due.duration_since(w0).as_secs() as usize;
                if windows.len() <= k {
                    windows.resize(k + 1, Vec::new());
                }
                windows[k].push(ack.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            if gap_from.is_some_and(|g| ack >= g) {
                acks.push(ack);
            }
        }
    }
    for w in &mut windows {
        w.sort_by(f64::total_cmp);
    }
    // A trailing window shorter than half a second is left out.
    let min_len = (w.rate * OPEN_WINDOW_MIN) as usize;
    windows.retain(|w| w.len() >= min_len.max(1));
    acks.sort();
    let longest_gap_ms = acks
        .windows(2)
        .map(|p| p[1].duration_since(p[0]).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);

    let mut sat_acks: Vec<Instant> = recs[sat.clone()].iter().filter_map(|r| r.ack).collect();
    sat_acks.sort();
    let warm = ((sat_acks.len() as f64) * SAT_WARMUP) as usize;
    let blocks = block_rates(&sat_acks[warm.min(sat_acks.len())..], SAT_BLOCKS);
    // Commands never sent count as unacked, like those never answered.
    let mut check = load::check(&recs);
    // A gateway stranded at the stop count (an unserved straggler) never
    // acks the closing get, which the other replicas did commit: the
    // stop's doing, not a lost command.
    if finish.unserved > 0 && recs[close.start].ack.is_none() {
        check.unacked -= 1;
    }
    let mut attempted = recs.len() as u64;
    if w.crash {
        attempted += 1;
        check.unacked += u64::from(catchup.is_none());
    }
    Ok(Phases {
        windows,
        lateness_us,
        open_cmds: open.len(),
        open_ticks,
        longest_gap_ms,
        steal_pct,
        blocks,
        sat_samples: sat_acks.len().saturating_sub(warm + 1),
        catchup_s: catchup.map(|d| d.as_secs_f64()),
        check,
        attempted,
        finish,
        bounced,
        total,
        measured_cmds: (open.len() + sat.len()) as u64,
        useful_slots: recs
            .iter()
            .filter(|r| r.ack.is_some())
            .map(|r| r.slot)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64,
        extra: sampled,
    })
}

/// Throughput of each of `blocks` consecutive runs of equally many
/// acks (ack instants sorted).
pub fn block_rates(acks: &[Instant], blocks: usize) -> Vec<f64> {
    let per = acks.len() / blocks.max(1);
    if per < 2 {
        return Vec::new();
    }
    (0..blocks)
        .map(|b| {
            let (first, last) = (acks[b * per], acks[(b + 1) * per - 1]);
            let secs = last.duration_since(first).as_secs_f64();
            if secs > 0.0 {
                (per - 1) as f64 / secs
            } else {
                0.0
            }
        })
        .collect()
}

/// The end-to-end report of one run: latency quantiles are medians over
/// every one-second window of every loaded cluster, throughput the
/// median over every block, CPU the total over all of them.
pub fn end_to_end(o: &Opts, setups: &[f64], ps: &[Phases], report: &mut Report) {
    let tick_ms = 1e3 / cluster::clock_ticks_per_s();
    let windows: Vec<&Vec<f64>> = ps.iter().flat_map(|p| &p.windows).collect();
    let blocks: Vec<f64> = ps.iter().flat_map(|p| p.blocks.iter().copied()).collect();
    let n: usize = windows.iter().map(|w| w.len()).sum();
    let per_window = |q: f64| -> f64 {
        let v: Vec<f64> = windows.iter().filter_map(|w| quantile(w, q)).collect();
        median(&v).unwrap_or(0.0)
    };
    let open_cmds: usize = ps.iter().map(|p| p.open_cmds).sum();
    let open_ticks: u64 = ps.iter().map(|p| p.open_ticks).sum();
    let sat_samples: usize = ps.iter().map(|p| p.sat_samples).sum();
    let setup = median(setups).unwrap_or(0.0);
    report.metric(Metric::new("setup_s", setup, "s", setups.len(), "setup"));
    report.metric(Metric::new("p50_ms", per_window(0.5), "ms", n, "open"));
    let peak = median(&blocks).unwrap_or(0.0);
    report.metric(Metric::new(
        "peak_cmds_per_s",
        peak,
        "1/s",
        sat_samples,
        "closed",
    ));
    let cpu = open_ticks as f64 * tick_ms / open_cmds.max(1) as f64;
    report.metric(Metric::new(
        "server_cpu_ms_per_cmd",
        cpu,
        "ms",
        open_cmds,
        "open",
    ));

    let mut all: Vec<f64> = windows.iter().flat_map(|w| w.iter().copied()).collect();
    all.sort_by(f64::total_cmp);
    // Tail quantiles are reported but not bounded: under host contention
    // PBFT's p99 flips between ~10 and ~28 ms from run to run.
    report.info("p90_ms", per_window(0.9), "ms", n, "open");
    report.info("p95_ms", per_window(0.95), "ms", n, "open");
    report.info("p99_ms", per_window(0.99), "ms", n, "open");
    let steal: Vec<f64> = ps.iter().map(|p| p.steal_pct).collect();
    report.info(
        "host_steal_pct",
        median(&steal).unwrap_or(0.0),
        "%",
        ps.len(),
        "open",
    );
    report.info("open_windows", windows.len() as f64, "count", n, "open");
    report.info(
        "closed_blocks",
        blocks.len() as f64,
        "count",
        sat_samples,
        "closed",
    );
    report.info(
        "p99_ms_whole_phase",
        quantile(&all, 0.99).unwrap_or(0.0),
        "ms",
        n,
        "open",
    );
    let gap = ps.iter().map(|p| p.longest_gap_ms).fold(0.0, f64::max);
    let gap_phase = if o.workload.crash {
        "open-after-kill"
    } else {
        "open"
    };
    report.info("unavailable_ms", gap, "ms", n, gap_phase);
    let catchups: Vec<f64> = ps.iter().filter_map(|p| p.catchup_s).collect();
    if let Some(c) = median(&catchups) {
        report.info("catchup_s", c, "s", catchups.len(), "open-after-restart");
    }
}

/// Checks and the generator's own health: a wrong or missing reply or a
/// state-hash disagreement fails the run; a generator that fell behind
/// marks it invalid.
pub fn validity(ps: &[Phases], report: &mut Report) {
    let mut late: Vec<f64> = ps
        .iter()
        .flat_map(|p| p.lateness_us.iter().copied())
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = quantile(&late, 0.99).unwrap_or(0.0);
    let late_max = late.last().copied().unwrap_or(0.0);
    report.info("generator_late_p99_us", late_p99, "us", late.len(), "open");
    report.info("generator_late_max_us", late_max, "us", late.len(), "open");
    let hits: u64 = ps.iter().map(|p| p.check.get_hits).sum();
    let bounced: u64 = ps.iter().map(|p| p.bounced).sum();
    report.info("get_hits", hits as f64, "count", 1, "all");
    report.info("bounced", bounced as f64, "count", 1, "all");
    let stragglers: usize = ps.iter().map(|p| p.finish.stragglers).sum();
    let unserved: usize = ps.iter().map(|p| p.finish.unserved).sum();
    report.info("stragglers", stragglers as f64, "count", ps.len(), "stop");
    report.info(
        "stragglers_unserved",
        unserved as f64,
        "count",
        ps.len(),
        "stop",
    );
    let mut failed = 0;
    for (k, p) in ps.iter().enumerate() {
        failed += p.check.failures();
        if p.check.failures() > 0 {
            eprintln!("perfbench: cluster {k}: reply check failed: {:?}", p.check);
        }
        if !p.finish.agree() {
            failed += 1;
            let mut why = String::new();
            for (i, h) in p.finish.hashes.iter().enumerate() {
                let _ = write!(why, " node{i}={}", h.as_deref().unwrap_or("none"));
            }
            eprintln!("perfbench: cluster {k}: state hashes disagree or missing:{why}");
        }
    }
    report.attempted = ps.iter().map(|p| p.attempted).sum();
    report.failed = failed;
    report.correct = failed == 0;
    // Lateness says nothing about the program's answers, so it marks the
    // row, not `correct`; the compare step leaves such runs out.
    let behind = late_p99 > LATE_LIMIT_US;
    if behind {
        eprintln!(
            "perfbench: generator fell behind (p99 lateness {late_p99:.0} µs > \
             {LATE_LIMIT_US} µs); run invalid"
        );
    }
    report.info(
        "generator_fell_behind",
        f64::from(u8::from(behind)),
        "count",
        1,
        "open",
    );
}
