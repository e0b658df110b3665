//! Spans recorded by the traced node around each call into a
//! layer: per layer a count, the summed duration, a log-linear duration
//! histogram and a byte or item count. Kept in memory and written out as
//! one JSON object when the node exits. Parent links are not kept: each
//! layer's calls are disjoint on its thread, so self time equals
//! duration here.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// 8 sub-buckets per power of two: values within 12.5% share a bucket.
const SUB: u32 = 8;
const BUCKETS: usize = 512;

fn bucket_of(v: u64) -> usize {
    if v < u64::from(2 * SUB) {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - 3)) & u64::from(SUB - 1);
    (2 * SUB + (e - 4) * SUB) as usize + sub as usize
}

fn value_of(b: usize) -> u64 {
    if b < (2 * SUB) as usize {
        return b as u64;
    }
    let k = b - (2 * SUB) as usize;
    let e = k as u32 / SUB + 4;
    let sub = (k as u32 % SUB) as u64;
    (1u64 << e) + (sub << (e - 3))
}

pub struct Layer {
    pub name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    /// Bytes or items the calls carried.
    units: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Layer {
    pub const fn new(name: &'static str) -> Layer {
        Layer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            units: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one span that started at `start` and carried `units`.
    pub fn record(&self, start: Instant, units: u64) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(ns, units);
    }

    pub fn record_ns(&self, ns: u64, units: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        self.buckets[bucket_of(ns).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(b);
            }
        }
        value_of(BUCKETS - 1)
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\":{},\"total_ns\":{},\"units\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            self.count.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed),
            self.units.load(Ordering::Relaxed),
            self.quantile_ns(0.5),
            self.quantile_ns(0.99)
        )
    }
}

pub static NET_SEND: Layer = Layer::new("net.send");
pub static BUNDLE_ENCODE: Layer = Layer::new("net.bundle_encode");
pub static BUNDLE_DECODE: Layer = Layer::new("net.bundle_decode");
pub static STORE_APPEND: Layer = Layer::new("store.append");
pub static STORE_SYNC: Layer = Layer::new("store.sync");
pub static APP_APPLY: Layer = Layer::new("app.apply");
pub static APP_FOLD: Layer = Layer::new("app.fold");
/// Units: gets that found their key; the span count is all gets.
pub static APP_GET: Layer = Layer::new("app.get");
pub static NODE_ROUND: Layer = Layer::new("node.round");
pub static HOOK_BEFORE: Layer = Layer::new("node.hook_before");
pub static HOOK_AFTER: Layer = Layer::new("node.hook_after");

pub static ALL: [&Layer; 11] = [
    &NET_SEND,
    &BUNDLE_ENCODE,
    &BUNDLE_DECODE,
    &STORE_APPEND,
    &STORE_SYNC,
    &APP_APPLY,
    &APP_FOLD,
    &APP_GET,
    &NODE_ROUND,
    &HOOK_BEFORE,
    &HOOK_AFTER,
];

pub fn dump_json() -> String {
    let mut out = String::from("{");
    for (i, l) in ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", l.name, l.json());
    }
    out.push('}');
    out
}

/// One layer's totals as read back from a node's span file.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: f64,
    pub total_ns: f64,
    pub units: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Parses [`dump_json`] output.
pub fn parse(json: &str) -> Option<Vec<(String, Totals)>> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    for part in body.split("},") {
        let part = part.trim_end_matches('}');
        let (name, fields) = part.strip_prefix('"')?.split_once("\":{")?;
        let mut t = Totals::default();
        for f in fields.split(',') {
            let (k, v) = f.split_once(':')?;
            let v: f64 = v.parse().ok()?;
            match k.trim_matches('"') {
                "count" => t.count = v,
                "total_ns" => t.total_ns = v,
                "units" => t.units = v,
                "p50_ns" => t.p50_ns = v,
                "p99_ns" => t.p99_ns = v,
                _ => {}
            }
        }
        out.push((name.to_string(), t));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..100_000u64).step_by(7).chain([1 << 40, u64::MAX >> 1]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let lo = value_of(b);
            assert!(lo <= v, "{v} below its bucket floor {lo}");
            assert!(v - lo <= v / 8 + 1, "{v} too far from {lo}");
        }
    }

    #[test]
    fn layer_quantiles_and_roundtrip() {
        static L: Layer = Layer::new("t.layer");
        for ns in 1..=100u64 {
            L.record_ns(ns * 1_000, 2);
        }
        let json = format!("{{\"{}\":{}}}", L.name, L.json());
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        let (name, t) = &parsed[0];
        assert_eq!(name, "t.layer");
        assert_eq!((t.count, t.units), (100.0, 200.0));
        assert_eq!(t.total_ns, 5_050_000.0);
        assert!((44_000.0..=50_000.0).contains(&t.p50_ns), "{}", t.p50_ns);
        assert!((87_000.0..=99_000.0).contains(&t.p99_ns), "{}", t.p99_ns);
        let all = parse(&dump_json()).unwrap();
        assert_eq!(all.len(), ALL.len());
    }
}
