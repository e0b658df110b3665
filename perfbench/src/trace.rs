//! Outside-the-program counters sampled around the measured phases of a
//! traced run: disk bytes from `/proc/<pid>/io`, mesh bytes from `ss`,
//! and the per-node registry dumps written at exit.

use crate::cluster::Cluster;
use crate::micro::Micro;
use crate::parse::Dump;
use crate::report::{Metric, Report};
use crate::run::Phases;
use crate::spans::Totals;

#[derive(Clone, Debug, Default)]
pub struct Sampled {
    pub disk_write_bytes: u64,
    pub mesh_bytes_sent: u64,
    pub dumps: Vec<Option<Dump>>,
    pub spans: Vec<Option<Vec<(String, Totals)>>>,
}

pub fn sample(c: &Cluster) -> Sampled {
    Sampled {
        disk_write_bytes: c.disk_write_bytes(),
        mesh_bytes_sent: c.mesh_bytes_sent(),
        ..Sampled::default()
    }
}

impl Sampled {
    pub fn since(&self, earlier: &Sampled) -> Sampled {
        Sampled {
            disk_write_bytes: self
                .disk_write_bytes
                .saturating_sub(earlier.disk_write_bytes),
            mesh_bytes_sent: self.mesh_bytes_sent.saturating_sub(earlier.mesh_bytes_sent),
            ..Sampled::default()
        }
    }
}

/// Totals of span layer `name` on node `i`.
fn span(s: &Sampled, i: usize, name: &str) -> Totals {
    s.spans
        .get(i)
        .and_then(Option::as_ref)
        .and_then(|v| v.iter().find(|(n, _)| n == name))
        .map(|(_, t)| *t)
        .unwrap_or_default()
}

/// Sum of counter/gauge `name` over the nodes' dumps.
fn dump_sum(s: &Sampled, name: &str) -> f64 {
    s.dumps.iter().flatten().map(|d| d.get(name)).sum()
}

fn gateway_dump(s: &Sampled) -> Dump {
    s.dumps.first().cloned().flatten().unwrap_or_default()
}

/// The per-layer report of a traced run. `t` is what the traced cluster
/// measured, `base` the untraced cluster of the same run, `m` the
/// microbenches and `replay_s` the recovery of one node's data dir.
/// Registry and span figures cover the whole traced run (per command of
/// the `--stop-after` total); `/proc` and `ss` figures cover the two
/// measured phases.
pub fn per_layer(
    t: &Phases,
    traced_e2e: &[Metric],
    base_e2e: &[Metric],
    m: &Micro,
    replay_s: f64,
    report: &mut Report,
) {
    let s = &t.extra;
    let nodes = s.dumps.iter().flatten().count().max(1) as f64;
    let kcmd = t.total as f64 / 1e3;
    let per_node_kcmd = |name: &str| dump_sum(s, name) / nodes / kcmd;
    let g = gateway_dump(s);
    let phase = "traced-run";
    let n = t.total as usize;
    let mut put =
        |name: &str, value: f64, unit: &'static str, samples: usize, phase: &'static str| {
            report.metric(Metric::new(name, value, unit, samples, phase));
        };

    let rounds = g.hist("order.round_us");
    put(
        "node.rounds_per_kcmd",
        per_node_kcmd("order.rounds"),
        "count/kcmd",
        n,
        phase,
    );
    put(
        "node.round_us.p50",
        rounds.p50,
        "us",
        rounds.count as usize,
        phase,
    );
    put(
        "node.round_us.p99",
        rounds.p99,
        "us",
        rounds.count as usize,
        phase,
    );
    put(
        "node.timeouts_per_kcmd",
        per_node_kcmd("order.timeouts"),
        "count/kcmd",
        n,
        phase,
    );
    let frames = dump_sum(s, "ingest.frames");
    put(
        "node.ingest_dropped_ratio",
        if frames > 0.0 {
            dump_sum(s, "ingest.dropped") / frames
        } else {
            0.0
        },
        "ratio",
        frames as usize,
        phase,
    );

    let committed = g.get("order.committed_slots").max(1.0);
    put(
        "smr.cmds_per_slot",
        t.total as f64 / committed,
        "count",
        committed as usize,
        phase,
    );
    put(
        "smr.empty_slot_ratio",
        (committed - t.useful_slots as f64).max(0.0) / committed,
        "ratio",
        committed as usize,
        phase,
    );

    put("core.round_step_us", m.round_step_us, "us", 7, "micro");

    let measured = t.measured_cmds.max(1) as f64;
    put(
        "net.mesh_bytes_per_cmd",
        s.mesh_bytes_sent as f64 / measured,
        "B/cmd",
        t.measured_cmds as usize,
        "open+closed",
    );
    let sends: f64 = (0..s.spans.len())
        .map(|i| span(s, i, "net.send").count)
        .sum();
    put(
        "net.frames_per_cmd",
        sends / t.total.max(1) as f64,
        "count",
        sends as usize,
        phase,
    );
    let send = span(s, 0, "net.send");
    put(
        "net.send_us.p99",
        send.p99_ns / 1e3,
        "us",
        send.count as usize,
        phase,
    );
    let enc = span(s, 0, "net.bundle_encode");
    let dec = span(s, 0, "net.bundle_decode");
    put(
        "net.bundle_encode_us",
        enc.p50_ns / 1e3,
        "us",
        enc.count as usize,
        phase,
    );
    put(
        "net.bundle_decode_us",
        dec.p50_ns / 1e3,
        "us",
        dec.count as usize,
        phase,
    );

    let append = span(s, 0, "store.append");
    let sync = span(s, 0, "store.sync");
    put(
        "store.append_us",
        append.p50_ns / 1e3,
        "us",
        append.count as usize,
        phase,
    );
    put(
        "store.sync_us.p50",
        sync.p50_ns / 1e3,
        "us",
        sync.count as usize,
        phase,
    );
    put(
        "store.sync_us.p99",
        sync.p99_ns / 1e3,
        "us",
        sync.count as usize,
        phase,
    );
    put(
        "store.fsyncs_per_kcmd",
        per_node_kcmd("persist.fsyncs"),
        "count/kcmd",
        n,
        phase,
    );
    put(
        "store.disk_bytes_per_cmd",
        s.disk_write_bytes as f64 / measured,
        "B/cmd",
        t.measured_cmds as usize,
        "open+closed",
    );

    let apply = span(s, 0, "app.apply");
    put(
        "app.apply_us",
        apply.p50_ns / 1e3,
        "us",
        apply.count as usize,
        phase,
    );
    put("app.fold_ms", m.fold_ms, "ms", 7, "micro");
    let gets = span(s, 0, "app.get");
    put(
        "app.get_hit_ratio",
        if gets.count > 0.0 {
            gets.units / gets.count
        } else {
            0.0
        },
        "ratio",
        gets.count as usize,
        phase,
    );

    put(
        "crypto.crc32_ns_per_kib",
        m.crc32_ns_per_kib,
        "ns/KiB",
        7,
        "micro",
    );
    put(
        "crypto.sha256_ns_per_kib",
        m.sha256_ns_per_kib,
        "ns/KiB",
        7,
        "micro",
    );
    put("metrics.hist_record_ns", m.hist_record_ns, "ns", 7, "micro");
    put("trace.event_record_ns", m.event_record_ns, "ns", 7, "micro");

    put("recovery.replay_s", replay_s, "s", 1, "after-run");
    put(
        "recovery.fast_forwards",
        dump_sum(s, "order.fast_forwards"),
        "count",
        n,
        phase,
    );
    put(
        "recovery.chunks_fetched",
        dump_sum(s, "transfer.chunks_fetched"),
        "count",
        n,
        phase,
    );

    // Tracing overhead: the traced cluster against the untraced one of
    // the same run (traced ÷ untraced).
    let val = |ms: &[Metric], name: &str| -> f64 {
        ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    };
    for (name, metric) in [
        ("trace.overhead_p50_ratio", "p50_ms"),
        ("trace.overhead_peak_ratio", "peak_cmds_per_s"),
        ("trace.overhead_cpu_ratio", "server_cpu_ms_per_cmd"),
    ] {
        let b = val(base_e2e, metric);
        put(
            name,
            if b > 0.0 {
                val(traced_e2e, metric) / b
            } else {
                0.0
            },
            "ratio",
            2,
            "both-runs",
        );
    }
}
