//! Parsers for what the benchmark reads from outside the program:
//! `/proc/<pid>/stat` and `/proc/<pid>/io`, `ss -tinH` socket dumps and
//! the flat JSON registry dumps `gencon-server --metrics-file` writes;
//! plus the one percentile routine every reported quantile goes through.

use std::collections::BTreeMap;

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1); `None`
/// when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime 14 and stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `(total, steal)` jiffies from the `cpu` line of `/proc/stat`: steal is
/// time the hypervisor ran someone else while this machine wanted a CPU.
pub fn stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((v.iter().sum(), *v.get(7)?))
}

/// `write_bytes` from `/proc/<pid>/io`: bytes this process caused to be
/// sent to the storage layer.
pub fn io_write_bytes(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}

/// One TCP socket from `ss -tinH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Socket {
    pub local_port: u16,
    pub peer_port: u16,
    pub bytes_sent: u64,
}

fn port_of(addr: &str) -> Option<u16> {
    addr.rsplit(':').next()?.parse().ok()
}

/// Parses `ss -tinH` output: a socket line (`[State] Recv-Q Send-Q Local
/// Peer`; a `state` filter drops the State column) followed by an
/// indented line of `key:value` info. Sockets that have not sent anything
/// carry no `bytes_sent` and count as 0.
pub fn ss_sockets(out: &str) -> Vec<Socket> {
    let mut sockets: Vec<Socket> = Vec::new();
    for line in out.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with(char::is_whitespace) {
            if let Some(last) = sockets.last_mut() {
                for tok in line.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("bytes_sent:") {
                        last.bytes_sent = v.parse().unwrap_or(0);
                    }
                }
            }
            continue;
        }
        let mut ports = line
            .split_whitespace()
            .filter(|c| c.contains(':'))
            .map(port_of);
        if let (Some(Some(local_port)), Some(Some(peer_port))) = (ports.next(), ports.next()) {
            sockets.push(Socket {
                local_port,
                peer_port,
                bytes_sent: 0,
            });
        }
    }
    sockets
}

/// Bytes sent on every socket with an end at one of `ports`: each mesh
/// connection shows up once per endpoint, so this counts both
/// directions exactly once.
pub fn bytes_sent_on(sockets: &[Socket], ports: &[u16]) -> u64 {
    sockets
        .iter()
        .filter(|s| ports.contains(&s.local_port) || ports.contains(&s.peer_port))
        .map(|s| s.bytes_sent)
        .sum()
}

/// A histogram entry of a registry dump.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hist {
    pub count: f64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

/// A parsed registry dump: counters and gauges by name, histograms by
/// name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dump {
    pub scalars: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, Hist>,
}

impl Dump {
    pub fn get(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }
}

/// Parses `Registry::dump_json`: one `"name":value` or
/// `"name":{"count":…,"mean":…,"p50":…,"p99":…,"max":…}` per line.
pub fn registry_dump(json: &str) -> Option<Dump> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut dump = Dump::default();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.strip_prefix('"')?.split_once("\":")?;
        if let Some(obj) = value.strip_prefix('{') {
            let mut h = Hist::default();
            for field in obj.trim_end_matches('}').split(',') {
                let (k, v) = field.split_once(':')?;
                let v: f64 = v.parse().ok()?;
                match k.trim_matches('"') {
                    "count" => h.count = v,
                    "mean" => h.mean = v,
                    "p50" => h.p50 = v,
                    "p99" => h.p99 = v,
                    "max" => h.max = v,
                    _ => {}
                }
            }
            dump.hists.insert(name.to_string(), h);
        } else {
            dump.scalars.insert(name.to_string(), value.parse().ok()?);
        }
    }
    Some(dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn stat_counts_from_the_last_paren() {
        let line = "4242 (gencon (x) srv) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    1500 250 0 0 20 0 9 0 12345 0 0";
        assert_eq!(stat_cpu_ticks(line), Some(1_750));
        assert_eq!(stat_cpu_ticks("garbage"), None);
        assert_eq!(stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  408728 511502 330313 681724 11580 0 79878 46366 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 0 0\nintr 1 2\n";
        assert_eq!(stat_steal(stat), Some((2_070_091, 46_366)));
        assert_eq!(stat_steal("cpu0 1 2 3\n"), None);
        assert_eq!(stat_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn io_reads_write_bytes_not_wchar() {
        let io = "rchar: 10\nwchar: 999\nsyscr: 1\nsyscw: 2\nread_bytes: 4096\n\
                  write_bytes: 81920\ncancelled_write_bytes: 0\n";
        assert_eq!(io_write_bytes(io), Some(81_920));
        assert_eq!(io_write_bytes("rchar: 1\n"), None);
    }

    #[test]
    fn ss_pairs_socket_and_info_lines() {
        let out = "\
ESTAB 0      0          127.0.0.1:41000     127.0.0.1:52344
\t cubic wscale:7,7 rto:204 rtt:0.05/0.02 mss:32768 bytes_sent:1200 bytes_acked:1201 bytes_received:300 segs_out:10
ESTAB 0      0          127.0.0.1:52344     127.0.0.1:41000
\t cubic wscale:7,7 rto:204 bytes_sent:300 bytes_received:1200
ESTAB 0      0          127.0.0.1:7000     127.0.0.1:60000
\t cubic wscale:7,7 rto:204 bytes_sent:99 bytes_received:5
ESTAB 0      0      [::ffff:127.0.0.1]:8000 [::ffff:127.0.0.1]:60001
\t cubic rto:204
0      0          127.0.0.1:48271    127.0.0.1:59224
\t bbr wscale:10,10 rto:204 mss:65483 bytes_sent:4582885 bytes_acked:4582885
";
        let s = ss_sockets(out);
        assert_eq!(s.len(), 5);
        assert_eq!(
            s[4],
            Socket {
                local_port: 48_271,
                peer_port: 59_224,
                bytes_sent: 4_582_885
            },
            "without the State column"
        );
        assert_eq!(
            s[0],
            Socket {
                local_port: 41_000,
                peer_port: 52_344,
                bytes_sent: 1_200
            }
        );
        assert_eq!(s[3].bytes_sent, 0, "no bytes_sent field means nothing sent");
        assert_eq!(s[3].local_port, 8_000);
        assert_eq!(bytes_sent_on(&s, &[41_000]), 1_500, "both directions once");
        assert_eq!(bytes_sent_on(&s, &[1]), 0);
    }

    #[test]
    fn registry_dumps_parse_scalars_and_histograms() {
        let json = "{\n  \"ack.acked\":120,\n  \"order.round_us\":{\"count\":40,\"mean\":812.5,\
                    \"p50\":700,\"p99\":2100,\"max\":3000},\n  \"order.rounds\":40\n}\n";
        let d = registry_dump(json).unwrap();
        assert_eq!(d.get("ack.acked"), 120.0);
        assert_eq!(d.get("order.rounds"), 40.0);
        assert_eq!(d.get("missing"), 0.0);
        let h = d.hist("order.round_us");
        assert_eq!(
            (h.count, h.mean, h.p50, h.p99, h.max),
            (40.0, 812.5, 700.0, 2100.0, 3000.0)
        );
        assert_eq!(registry_dump("{\n}\n"), Some(Dump::default()));
        assert_eq!(registry_dump("{\n  \"x\":notanumber\n}"), None);
        assert_eq!(registry_dump("not json"), None);
    }
}
