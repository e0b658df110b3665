//! Starting, killing and observing a 4-node cluster of server processes
//! on localhost, each with a fresh data dir.
//!
//! Every server is started with `PR_SET_PDEATHSIG = SIGKILL`, so it dies
//! with the benchmark however the benchmark ends (panic, a failed write
//! to stdout, a signal or `kill -9`); [`Drop`] also kills and reaps them
//! on every ordinary exit path.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::parse;
use crate::workload::Workload;

pub const NODES: usize = 4;
/// Replicas stop within milliseconds of each other at the stop count; one
/// still running after this is a straggler.
const FINISH_WAIT: Duration = Duration::from_secs(3);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn nice(inc: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;
/// Servers run at this niceness, so the load process (the client, which
/// in a deployment has its own machine) gets the CPU when its send is
/// due instead of queueing behind 4 busy servers on 2 cores.
const SERVER_NICE: i32 = 5;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a system constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// `count` distinct ports free right now on 127.0.0.1 (all listeners are
/// held until every port is chosen, so no two repeat).
pub fn free_ports(count: usize) -> io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

/// Names of processes that must not be running when a run starts: a
/// leftover cluster would steal the CPU this run measures.
pub fn stray_servers(names: &[&str]) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    let own = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else {
        return found;
    };
    for e in entries.flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == own {
            continue;
        }
        let Ok(cmdline) = fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let argv: Vec<String> = cmdline
            .split(|b| *b == 0)
            .map(|a| String::from_utf8_lossy(a).into_owned())
            .collect();
        let exe = argv
            .first()
            .and_then(|a| Path::new(a).file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        // A benchmark node is `perfbench node …`; `perfbench run` is a
        // concurrent benchmark, which shares the machine just as badly.
        if names.contains(&exe.as_str()) {
            found.push((pid, argv.join(" ")));
        }
    }
    found
}

/// What a cluster's servers printed when they stopped.
#[derive(Clone, Debug, Default)]
pub struct Finish {
    /// Each node's `app-hash@T` value (None if it printed none).
    pub hashes: Vec<Option<String>>,
    /// Replicas still catching up when the others had stopped.
    pub stragglers: usize,
    /// Stragglers that never reached the stop count.
    pub unserved: usize,
}

impl Finish {
    /// Whether the replicas agree: every printed hash is the same, and
    /// only an unserved straggler (at most one) printed none.
    pub fn agree(&self) -> bool {
        let printed: Vec<&String> = self.hashes.iter().flatten().collect();
        self.unserved <= 1
            && printed.len() + self.unserved == NODES
            && printed.windows(2).all(|p| p[0] == p[1])
    }
}

/// How a cluster's servers are launched.
#[derive(Clone, Debug)]
pub struct Launch {
    /// Program and leading arguments (`gencon-server`, or `perfbench
    /// node` for the traced node).
    pub program: Vec<String>,
    /// Stop every node after exactly this many commands and print the
    /// state hash there (`--stop-after`/`--hash-at`).
    pub total: Option<u64>,
    /// Traced node: a registry dump (`--metrics-file`) and a
    /// span file (`--span-file`) per node, written at exit.
    pub traced: bool,
}

pub struct Cluster {
    launch: Launch,
    dir: PathBuf,
    pub mesh_ports: Vec<u16>,
    pub client_ports: Vec<u16>,
    args: Vec<Vec<String>>,
    nodes: Vec<Option<Child>>,
    /// CPU ticks of server processes that were killed (not reaped by a
    /// later read of their `/proc` entry).
    dead_ticks: u64,
    last_ticks: Vec<u64>,
}

impl Cluster {
    /// Spawns the 4 servers of workload `w` with data under `dir` (which
    /// must not exist yet).
    pub fn start(w: &Workload, launch: Launch, dir: &Path) -> io::Result<Cluster> {
        fs::create_dir_all(dir)?;
        let ports = free_ports(3 * NODES)?;
        let mesh_ports = ports[..NODES].to_vec();
        let client_ports = ports[NODES..2 * NODES].to_vec();
        let admin_ports = &ports[2 * NODES..];
        let peers: Vec<String> = mesh_ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect();
        let peers = peers.join(",");
        let mut args = Vec::new();
        for i in 0..NODES {
            let mut a: Vec<String> = vec![
                "--id".into(),
                i.to_string(),
                "--algo".into(),
                w.algo.into(),
                "--peers".into(),
                peers.clone(),
                "--client-addr".into(),
                format!("127.0.0.1:{}", client_ports[i]),
                "--app".into(),
                "kv".into(),
            ];
            if w.durable {
                a.extend([
                    "--durable".into(),
                    "--ack-mode".into(),
                    "durable".into(),
                    "--data-dir".into(),
                    dir.join(format!("node{i}")).display().to_string(),
                ]);
            }
            if w.admin {
                a.extend([
                    "--admin-addr".into(),
                    format!("127.0.0.1:{}", admin_ports[i]),
                ]);
            }
            if let Some(t) = launch.total {
                a.extend([
                    "--hash-at".into(),
                    t.to_string(),
                    "--stop-after".into(),
                    t.to_string(),
                ]);
            }
            if launch.traced {
                a.extend([
                    "--metrics-file".into(),
                    dir.join(format!("node{i}.metrics.json"))
                        .display()
                        .to_string(),
                    "--span-file".into(),
                    dir.join(format!("node{i}.spans.json"))
                        .display()
                        .to_string(),
                ]);
            }
            args.push(a);
        }
        let mut cluster = Cluster {
            launch,
            dir: dir.to_path_buf(),
            mesh_ports,
            client_ports,
            args,
            nodes: (0..NODES).map(|_| None).collect(),
            dead_ticks: 0,
            last_ticks: vec![0; NODES],
        };
        for i in 0..NODES {
            cluster.spawn(i)?;
        }
        Ok(cluster)
    }

    fn spawn(&mut self, i: usize) -> io::Result<()> {
        let args = self.args[i].clone();
        self.spawn_with(i, &args)
    }

    fn spawn_with(&mut self, i: usize, args: &[String]) -> io::Result<()> {
        let log = |ext: &str| -> io::Result<File> {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(format!("node{i}.{ext}")))
        };
        let mut cmd = Command::new(&self.launch.program[0]);
        cmd.args(&self.launch.program[1..])
            .args(args)
            .stdin(Stdio::null())
            .stdout(log("out")?)
            .stderr(log("err")?);
        // SAFETY: prctl(PR_SET_PDEATHSIG) and nice(2) are plain syscalls,
        // async-signal-safe, and touch no memory of the parent; they are
        // the only calls between fork and exec.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                nice(SERVER_NICE);
                Ok(())
            });
        }
        self.nodes[i] = Some(cmd.spawn()?);
        self.last_ticks[i] = 0;
        Ok(())
    }

    pub fn gateway(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.client_ports[0]))
    }

    pub fn client_addr(&self, i: usize) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.client_ports[i]))
    }

    pub fn pids(&self) -> Vec<u32> {
        self.nodes.iter().flatten().map(Child::id).collect()
    }

    /// Kills node `i` with SIGKILL and reaps it.
    pub fn kill(&mut self, i: usize) {
        self.cpu_ticks();
        if let Some(mut child) = self.nodes[i].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.dead_ticks += self.last_ticks[i];
        self.last_ticks[i] = 0;
    }

    /// Restarts node `i` with its original arguments (and data dir).
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        self.spawn(i)
    }

    /// Total CPU ticks (user + system) of every server this cluster ran.
    pub fn cpu_ticks(&mut self) -> u64 {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(child) = node {
                if let Some(t) = fs::read_to_string(format!("/proc/{}/stat", child.id()))
                    .ok()
                    .as_deref()
                    .and_then(parse::stat_cpu_ticks)
                {
                    self.last_ticks[i] = t;
                }
            }
        }
        self.dead_ticks + self.last_ticks.iter().sum::<u64>()
    }

    /// Sum of `write_bytes` over the running servers.
    pub fn disk_write_bytes(&self) -> u64 {
        self.pids()
            .iter()
            .filter_map(|pid| fs::read_to_string(format!("/proc/{pid}/io")).ok())
            .filter_map(|io| parse::io_write_bytes(&io))
            .sum()
    }

    /// Bytes sent so far on the mesh sockets, from `ss -tinH`.
    pub fn mesh_bytes_sent(&self) -> u64 {
        let out = Command::new("ss")
            .args(["-tinH", "state", "established"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output();
        match out {
            Ok(o) => parse::bytes_sent_on(
                &parse::ss_sockets(&String::from_utf8_lossy(&o.stdout)),
                &self.mesh_ports,
            ),
            Err(_) => 0,
        }
    }

    /// Reaps every server that has exited, waiting up to `timeout` for
    /// the ones in `waiting` to do so.
    fn reap(&mut self, waiting: &[usize], timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            for node in &mut self.nodes {
                if let Some(child) = node {
                    if !matches!(child.try_wait(), Ok(None)) {
                        *node = None;
                    }
                }
            }
            if waiting.iter().all(|&i| self.nodes[i].is_none()) || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits for every server to stop on its own at the stop count and
    /// returns what they printed.
    ///
    /// A replica still catching up when the others reached the count and
    /// stopped cannot finish alone: the decisions it lacks left with them.
    /// On a durable cluster the stopped peers are then restarted from their
    /// data dirs, with a stop count they never reach, until the stragglers
    /// have finished; then they are killed. Their hashes were printed at
    /// their first stop. A memory cluster's peers cannot be restarted with
    /// their state, so there a straggler stays unserved.
    pub fn finish(&mut self, timeout: Duration) -> Finish {
        self.reap(&(0..NODES).collect::<Vec<_>>(), FINISH_WAIT);
        let stragglers: Vec<usize> = (0..NODES).filter(|&i| self.nodes[i].is_some()).collect();
        let durable = self.args[0].iter().any(|a| a == "--durable");
        if !stragglers.is_empty() && durable {
            for i in 0..NODES {
                if self.nodes[i].is_none() {
                    let mut args = self.args[i].clone();
                    if let Some(k) = args.iter().position(|a| a == "--stop-after") {
                        args[k + 1] = u64::MAX.to_string();
                    }
                    if self.spawn_with(i, &args).is_err() {
                        break;
                    }
                }
            }
        }
        if durable {
            self.reap(&stragglers, timeout);
        }
        let unserved = stragglers
            .iter()
            .filter(|&&i| self.nodes[i].is_some())
            .count();
        for child in self.nodes.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.nodes.iter_mut().for_each(|n| *n = None);
        let hashes = (0..NODES)
            .map(|i| {
                let out = fs::read_to_string(self.dir.join(format!("node{i}.out"))).ok()?;
                out.lines()
                    .rev()
                    .find_map(|l| l.split_once("app-hash@").map(|(_, h)| h.to_string()))
            })
            .collect();
        Finish {
            hashes,
            stragglers: stragglers.len(),
            unserved,
        }
    }

    /// The registry dump node `i` wrote at exit (traced launch).
    pub fn dump(&self, i: usize) -> Option<parse::Dump> {
        let json = fs::read_to_string(self.dir.join(format!("node{i}.metrics.json"))).ok()?;
        parse::registry_dump(&json)
    }

    /// The span totals node `i` wrote at exit (traced launch).
    pub fn spans(&self, i: usize) -> Option<Vec<(String, crate::spans::Totals)>> {
        crate::spans::parse(&fs::read_to_string(self.dir.join(format!("node{i}.spans.json"))).ok()?)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.nodes.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish(hashes: &[Option<&str>], unserved: usize) -> Finish {
        Finish {
            hashes: hashes.iter().map(|h| h.map(str::to_string)).collect(),
            stragglers: unserved,
            unserved,
        }
    }

    #[test]
    fn replicas_agree_only_on_one_hash_with_at_most_one_unserved() {
        let h = Some("T = aa");
        assert!(finish(&[h, h, h, h], 0).agree());
        assert!(
            finish(&[h, h, None, h], 1).agree(),
            "one unserved straggler"
        );
        assert!(
            !finish(&[h, h, None, h], 0).agree(),
            "a missing hash needs a reason"
        );
        assert!(
            !finish(&[h, None, None, h], 2).agree(),
            "two unchecked replicas"
        );
        assert!(!finish(&[h, h, Some("T = bb"), h], 0).agree(), "divergence");
        assert!(!finish(&[None, None, None, None], 0).agree());
    }
}
