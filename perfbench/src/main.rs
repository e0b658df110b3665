//! `perfbench` — the benchmark of real gencon-server clusters.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 \
//!               --server-bin PATH --work-dir DIR [--source-digest HEX]
//! perfbench node <gencon-server flags>     # the traced node
//! ```
//!
//! `perfbench/run.py` builds everything and calls `perfbench run`; see
//! `perfbench/README.md` for the workloads and metrics.

mod cluster;
mod load;
mod micro;
mod node;
mod parse;
mod report;
mod run;
mod spans;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{exit, Command};

use report::Report;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn need(args: &[String], name: &str) -> String {
    flag(args, name).unwrap_or_else(|| {
        eprintln!("perfbench run: missing {name}");
        exit(2);
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_main(args: &[String]) -> i32 {
    let name = need(args, "--workload");
    let Some(workload) = workload::find(&name) else {
        eprintln!("perfbench run: unknown workload {name}");
        return 2;
    };
    let parse_num = |f: &str| -> f64 {
        need(args, f).parse().unwrap_or_else(|_| {
            eprintln!("perfbench run: {f} needs a number");
            exit(2);
        })
    };
    let seed = parse_num("--seed") as u64;
    let seconds = parse_num("--seconds");
    let trace = need(args, "--trace") == "1";
    let work = PathBuf::from(need(args, "--work-dir"));
    let strays = cluster::stray_servers(&["gencon-server", "perfbench"]);
    if !strays.is_empty() {
        for (pid, cmd) in &strays {
            eprintln!("perfbench: process {pid} still running: {cmd}");
        }
        eprintln!("perfbench: refusing to start while another cluster or benchmark runs");
        return 1;
    }
    let self_bin = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| "perfbench".into());
    let opts = run::Opts {
        workload,
        seed,
        seconds,
        server_bin: need(args, "--server-bin"),
        self_bin,
        work,
    };
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default();
    let mut report = Report {
        provenance: vec![
            ("workload", name.clone()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", u8::from(trace).to_string()),
            ("git_sha", command_line("git", &["rev-parse", "HEAD"])),
            (
                "source_digest",
                flag(args, "--source-digest").unwrap_or_else(|| "unknown".into()),
            ),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map(|n| n.get().to_string())
                    .unwrap_or_default(),
            ),
            ("rustc", command_line("rustc", &["-V"])),
            ("loadavg_at_start", loadavg),
        ],
        ..Report::default()
    };

    let server = cluster::Launch {
        program: vec![opts.server_bin.clone()],
        total: None,
        traced: false,
    };
    let result = run::drive(&opts, server);
    let (setups, phases) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}; node logs kept in {}", opts.work.display());
            return 1;
        }
    };
    run::end_to_end(&opts, &setups, &phases, &mut report);
    run::validity(&phases, &mut report);
    if trace {
        // The same workload again on the traced node, then the
        // microbenches and a replay of one node's data dir.
        let _ = std::fs::remove_dir_all(&opts.work);
        let node = cluster::Launch {
            program: vec![opts.self_bin.clone(), "node".into()],
            total: None,
            traced: true,
        };
        let (t_setups, t_phases) = match run::drive(&opts, node) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "perfbench: traced cluster: {e}; node logs kept in {}",
                    opts.work.display()
                );
                return 1;
            }
        };
        let mut traced = Report::default();
        run::end_to_end(&opts, &t_setups, &t_phases, &mut traced);
        run::validity(&t_phases, &mut traced);
        let replay = if workload.durable {
            micro::replay_s(workload, &run::last_setup_dir(&opts).join("node1"))
        } else {
            0.0
        };
        let last = t_phases.last().expect("drive loads at least one cluster");
        let m = micro::run(workload);
        // The untraced and traced end-to-end numbers move to the row.
        let base = std::mem::take(&mut report.metrics);
        report.info.extend(base.iter().cloned());
        report
            .info
            .extend(traced.metrics.iter().map(|t| report::Metric {
                name: format!("traced.{}", t.name),
                phase: "traced-run",
                ..t.clone()
            }));
        trace::per_layer(last, &traced.metrics, &base, &m, replay, &mut report);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.correct &= traced.correct;
    }
    if report.correct {
        let _ = std::fs::remove_dir_all(&opts.work);
    } else {
        eprintln!("perfbench: node logs kept in {}", opts.work.display());
    }
    if let Err(e) = report.print() {
        eprintln!("perfbench: cannot write the result: {e}");
        return 1;
    }
    if report.correct {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("run") => run_main(&args[2..]),
        Some("node") => node::main(&args[2..]),
        _ => {
            eprintln!("usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 --server-bin PATH --work-dir DIR");
            2
        }
    };
    exit(code);
}
