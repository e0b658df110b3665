//! The four workloads and the seeded kv traffic they generate.
//!
//! Every workload drives kv on 4 nodes through node 0's gateway. The
//! generator pre-writes the whole keyspace, then draws keys and the
//! put/get mix from the seed, so every get reads a key some put wrote.
//! (`gencon-client --workload kv` picks `id·0x9E3779B9 mod keys`; with
//! `keys` a multiple of 4 that key is ≡ seq mod 4, so its gets, issued
//! at seq ≡ 3, never read a key any of its puts wrote.)

/// Fixed shape of one workload. Rates and counts are per second of the
/// phase they belong to.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub algo: &'static str,
    pub durable: bool,
    /// `--admin-addr` on every node: flight recorder + history sampler.
    pub admin: bool,
    pub value_bytes: usize,
    /// Share of puts among the measured commands, in percent.
    pub put_pct: u64,
    /// Open-loop arrival rate (commands per second).
    pub rate: f64,
    /// In-flight window of the closed-loop phase. The 4 KiB workload
    /// keeps 64: with 256 in flight its round bundles pass the wire's
    /// 1 MiB frame cap and the cluster stops committing.
    pub window: usize,
    /// Commands per second of closed-loop phase: sizes the phase so it
    /// lasts about its share of `--seconds` at today's throughput.
    pub sat_rate: f64,
    /// Kill −9 node [`CRASH_NODE`] during the open-loop phase and
    /// restart it from its data dir.
    pub crash: bool,
}

/// Keys pre-written before any measured command.
pub const KEYS: u64 = 1_024;
/// The replica the crash workload kills: not the gateway (node 0), which
/// is also Paxos's fixed leader.
pub const CRASH_NODE: usize = 2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paxos-durable-kv",
        algo: "paxos",
        durable: true,
        admin: false,
        value_bytes: 64,
        put_pct: 75,
        rate: 1000.0,
        window: 256,
        sat_rate: 3800.0,
        crash: false,
    },
    Workload {
        name: "pbft-memory-kv-read",
        algo: "pbft",
        durable: false,
        admin: true,
        value_bytes: 64,
        put_pct: 10,
        rate: 1000.0,
        window: 256,
        sat_rate: 3900.0,
        crash: false,
    },
    Workload {
        name: "paxos-durable-kv-4k",
        algo: "paxos",
        durable: true,
        admin: false,
        value_bytes: 4_096,
        put_pct: 100,
        rate: 50.0,
        window: 64,
        sat_rate: 620.0,
        crash: false,
    },
    Workload {
        name: "paxos-durable-crash",
        algo: "paxos",
        durable: true,
        admin: false,
        value_bytes: 64,
        put_pct: 75,
        rate: 1000.0,
        window: 256,
        sat_rate: 3800.0,
        crash: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the seeded source of keys and the op mix.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≤ 2^32, so the modulo bias is negligible).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One generated command, before it has an id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put(u64),
    Get(u64),
}

pub fn key_bytes(key: u64) -> Vec<u8> {
    format!("k{key:05}").into_bytes()
}

/// The value a put with request id `id` writes: the id, then bytes
/// derived from it, so a get's reply names the put that wrote it and is
/// checkable byte for byte.
pub fn value_for(id: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(8));
    v.extend_from_slice(&id.to_le_bytes());
    let mut x = id;
    while v.len() < len {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        v.push((x >> 56) as u8);
    }
    v
}

/// The put id a get reply names, if the bytes are exactly what that put
/// wrote.
pub fn writer_of(value: &[u8], len: usize) -> Option<u64> {
    let id = u64::from_le_bytes(value.get(..8)?.try_into().ok()?);
    (value == value_for(id, len).as_slice()).then_some(id)
}

/// The measured traffic: `count` ops with keys and kinds from the seed.
pub fn measured_ops(w: &Workload, rng: &mut Rng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let key = rng.below(KEYS);
            if rng.below(100) < w.put_pct {
                Op::Put(key)
            } else {
                Op::Get(key)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_writer() {
        assert_eq!(writer_of(&value_for(77, 8), 8), Some(77));
        for len in [64, 4_096] {
            let v = value_for(77, len);
            assert_eq!(v.len(), len);
            assert_eq!(writer_of(&v, len), Some(77));
            let mut bad = v.clone();
            *bad.last_mut().unwrap() ^= 1;
            assert_eq!(writer_of(&bad, len), None, "a flipped byte is caught");
            assert_eq!(
                writer_of(&v[..len - 1], len),
                None,
                "a short value is caught"
            );
        }
        assert_eq!(writer_of(b"short", 64), None);
    }

    #[test]
    fn ops_repeat_per_seed_and_hit_the_mix() {
        let w = find("paxos-durable-kv").unwrap();
        let a = measured_ops(w, &mut Rng::new(7), 4_000);
        let b = measured_ops(w, &mut Rng::new(7), 4_000);
        let c = measured_ops(w, &mut Rng::new(8), 4_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let puts = a.iter().filter(|o| matches!(o, Op::Put(_))).count();
        assert!((2_800..3_200).contains(&puts), "≈75% puts, got {puts}");
        // Keys ≡ 0 (mod 4) are read too (the gencon-client defect).
        assert!(a.iter().any(|o| matches!(o, Op::Get(k) if k % 4 == 0)));
    }
}
