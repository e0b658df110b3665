//! The published state-hash cell: lock-free cross-node audit evidence.
//!
//! Every replica applies the identical command sequence, so its
//! application state hash at a given *applied-command count* is a pure
//! function of the log prefix — two honest nodes publishing a hash for
//! the same count MUST agree, and a mismatch is hard evidence one of
//! them diverged (the Basilic-style "deceitful fault" audit record).
//!
//! [`HashCell`] is the publication side: a small seqlock ring of the
//! most recent `(applied_count, sha256)` pairs. The apply/persist path
//! publishes at deterministic boundaries (the gateway at applied-count
//! multiples, the durable layer at each snapshot-boundary fold); the
//! admin endpoint's `hash` command snapshots it without blocking the
//! writer, and `gencon-mon` intersects the rings across nodes to check
//! agreement at the highest *common* published count.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Published pairs retained; a reader can compare against peers within
/// this many publications of skew.
const SLOTS: usize = 8;

/// One published pair under a sequence lock: a writer claims the slot
/// by moving `seq` from even to odd with a compare-exchange and releases
/// it with the next even value, so `seq` rises by exactly 2 per write.
/// A reader that sees the same even `seq` before and after its copy has
/// an untorn pair.
#[derive(Default)]
struct HashSlot {
    /// 0 = never written; odd = a writer holds the slot.
    seq: AtomicU64,
    applied: AtomicU64,
    words: [AtomicU64; 4],
}

struct Inner {
    slots: Vec<HashSlot>,
    /// Publication ticket counter (slot = ticket % SLOTS).
    next: AtomicU64,
}

/// A lock-free ring of the last few published `(applied count, state
/// hash)` pairs. Clones share the cell; publishing never blocks and
/// never allocates, so it is safe on the apply hot path (it only runs
/// at boundaries anyway).
#[derive(Clone)]
pub struct HashCell {
    inner: Arc<Inner>,
}

impl Default for HashCell {
    fn default() -> Self {
        HashCell::new()
    }
}

impl std::fmt::Debug for HashCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashCell")
            .field("published", &self.published())
            .finish()
    }
}

impl HashCell {
    /// An empty cell (nothing published yet).
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, HashSlot::default);
        HashCell {
            inner: Arc::new(Inner {
                slots,
                next: AtomicU64::new(0),
            }),
        }
    }

    /// Pairs published over the cell's lifetime (≥ retained pairs).
    #[must_use]
    pub fn published(&self) -> u64 {
        // Every completed write adds exactly 2 to its slot's `seq`.
        self.inner
            .slots
            .iter()
            .map(|s| s.seq.load(Ordering::Relaxed) / 2)
            .sum()
    }

    /// Publishes the state hash at `applied` commands, overwriting the
    /// oldest retained pair.
    pub fn publish(&self, applied: u64, hash: [u8; 32]) {
        let (slot, open) = self.claim();
        HashCell::fill(slot, open, applied, hash);
    }

    /// Claims the slot of the next ticket by moving its `seq` from even
    /// to odd. Two publishers can land on the same slot `SLOTS` tickets
    /// apart; the one that finds it held (odd) or loses the exchange
    /// takes the next ticket instead of writing into the other's pair.
    fn claim(&self) -> (&HashSlot, u64) {
        loop {
            let ticket = self.inner.next.fetch_add(1, Ordering::Relaxed);
            let slot = &self.inner.slots[usize::try_from(ticket % SLOTS as u64).expect("small")];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq.is_multiple_of(2)
                && slot
                    .seq
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return (slot, seq + 1);
            }
        }
    }

    /// Writes the pair into a claimed slot and releases it; the closing
    /// (even) Release store publishes the payload.
    fn fill(slot: &HashSlot, open: u64, applied: u64, hash: [u8; 32]) {
        slot.applied.store(applied, Ordering::Relaxed);
        for (i, word) in slot.words.iter().enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&hash[i * 8..(i + 1) * 8]);
            word.store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
        slot.seq.store(open + 1, Ordering::Release);
    }

    /// Reads one slot, `None` if never written or torn by a concurrent
    /// overwrite (the writer lapped us — the pair is stale anyway).
    fn read_slot(slot: &HashSlot) -> Option<(u64, [u8; 32])> {
        for _ in 0..4 {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                return None;
            }
            let applied = slot.applied.load(Ordering::Relaxed);
            let mut hash = [0u8; 32];
            for (i, word) in slot.words.iter().enumerate() {
                hash[i * 8..(i + 1) * 8]
                    .copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
            }
            // Keeps the payload loads above the closing re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == before {
                return Some((applied, hash));
            }
        }
        None
    }

    /// Every intact retained pair, ascending by applied count.
    #[must_use]
    pub fn recent(&self) -> Vec<(u64, [u8; 32])> {
        let mut out: Vec<(u64, [u8; 32])> = self
            .inner
            .slots
            .iter()
            .filter_map(HashCell::read_slot)
            .collect();
        out.sort_by_key(|(applied, _)| *applied);
        out.dedup_by_key(|(applied, _)| *applied);
        out
    }

    /// The newest published pair, if any.
    #[must_use]
    pub fn latest(&self) -> Option<(u64, [u8; 32])> {
        self.recent().into_iter().next_back()
    }
}

/// Lowercase hex of a published hash (the admin/report encoding).
#[must_use]
pub fn hash_hex(hash: &[u8; 32]) -> String {
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(b: u8) -> [u8; 32] {
        [b; 32]
    }

    #[test]
    fn publishes_and_reads_back_in_order() {
        let cell = HashCell::new();
        assert!(cell.latest().is_none());
        assert!(cell.recent().is_empty());
        cell.publish(512, h(1));
        cell.publish(1024, h(2));
        assert_eq!(cell.latest(), Some((1024, h(2))));
        assert_eq!(cell.recent(), vec![(512, h(1)), (1024, h(2))]);
        assert_eq!(cell.published(), 2);
    }

    #[test]
    fn ring_retains_only_the_newest_pairs() {
        let cell = HashCell::new();
        for i in 1..=20u64 {
            cell.publish(i * 100, h(i as u8));
        }
        let recent = cell.recent();
        assert_eq!(recent.len(), 8, "ring capacity");
        assert_eq!(recent.first(), Some(&(1_300, h(13))));
        assert_eq!(cell.latest(), Some((2_000, h(20))));
    }

    #[test]
    fn concurrent_reads_never_tear() {
        let cell = HashCell::new();
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for i in 1..=50_000u64 {
                    // The hash encodes the count, so a mixed pair is
                    // detectable.
                    let mut hash = [0u8; 32];
                    hash[..8].copy_from_slice(&i.to_le_bytes());
                    hash[24..].copy_from_slice(&i.to_le_bytes());
                    cell.publish(i, hash);
                }
            })
        };
        let mut seen = 0u64;
        // Read until a pass that began after the writer finished: the
        // writer can finish before this thread first runs, so the last
        // pass is what guarantees a read after the first publish.
        loop {
            let finished = writer.is_finished();
            for (applied, hash) in cell.recent() {
                let head = u64::from_le_bytes(hash[..8].try_into().unwrap());
                let tail = u64::from_le_bytes(hash[24..].try_into().unwrap());
                assert_eq!(head, applied, "torn pair");
                assert_eq!(tail, applied, "torn hash");
                seen += 1;
            }
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        assert!(seen > 0, "reader observed published pairs");
        assert_eq!(cell.latest(), {
            let mut hash = [0u8; 32];
            hash[..8].copy_from_slice(&50_000u64.to_le_bytes());
            hash[24..].copy_from_slice(&50_000u64.to_le_bytes());
            Some((50_000, hash))
        });
    }

    #[test]
    fn held_claim_makes_a_lapping_publisher_take_the_next_slot() {
        let cell = HashCell::new();
        // Publisher A claims slot 0 and stalls before writing.
        let (held, open) = cell.claim();
        assert!(std::ptr::eq(held, &cell.inner.slots[0]));
        for i in 1..SLOTS as u64 {
            cell.publish(i * 100, h(i as u8));
        }
        // Publisher B's ticket lands on slot 0 again: it must not write
        // into A's pair, so it moves on to slot 1.
        cell.publish(5_000, h(50));
        assert_eq!(cell.inner.slots[0].seq.load(Ordering::Relaxed), 1);
        assert_eq!(cell.inner.slots[1].seq.load(Ordering::Relaxed), 4);
        assert!(
            cell.recent().iter().all(|&(applied, _)| applied != 0),
            "a held slot is never read"
        );
        // A completes: both pairs are whole and seq rose by 2 per write.
        HashCell::fill(held, open, 0, h(99));
        assert_eq!(cell.inner.slots[0].seq.load(Ordering::Relaxed), 2);
        let recent = cell.recent();
        assert_eq!(recent.first(), Some(&(0, h(99))));
        assert_eq!(recent.last(), Some(&(5_000, h(50))));
        assert!(!recent.contains(&(100, h(1))), "B overwrote slot 1");
        assert_eq!(cell.published(), SLOTS as u64 + 1);
    }

    #[test]
    fn hex_encoding_is_stable() {
        let mut hash = [0u8; 32];
        hash[0] = 0xab;
        hash[31] = 0x01;
        let hex = hash_hex(&hash);
        assert_eq!(hex.len(), 64);
        assert!(hex.starts_with("ab"));
        assert!(hex.ends_with("01"));
    }
}
