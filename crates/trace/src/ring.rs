//! The lock-free event ring and its vocabulary of stages and kinds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which pipeline stage emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Frame decode/auth and the ingest queue.
    Ingest,
    /// The single-threaded consensus round loop.
    Order,
    /// The gateway apply stage.
    Apply,
    /// The gateway ack stage.
    Ack,
    /// The durable persist stage (WAL append + fsync).
    Persist,
    /// Chunked snapshot state transfer.
    Transfer,
    /// Per-peer liveness bookkeeping.
    Peer,
}

impl Stage {
    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            0 => Stage::Ingest,
            1 => Stage::Order,
            2 => Stage::Apply,
            3 => Stage::Ack,
            4 => Stage::Persist,
            5 => Stage::Transfer,
            6 => Stage::Peer,
            _ => return None,
        })
    }

    /// Stable lowercase name used in JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Order => "order",
            Stage::Apply => "apply",
            Stage::Ack => "ack",
            Stage::Persist => "persist",
            Stage::Transfer => "transfer",
            Stage::Peer => "peer",
        }
    }
}

/// What happened. The slot lifecycle kinds carry the slot number in
/// [`TraceEvent::slot`]; round- and peer-scoped kinds reuse the field
/// for the round or peer id (documented per kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A client frame was decoded and enqueued (`slot` = 0, `detail` =
    /// ingest queue depth after the enqueue).
    Ingested,
    /// A frame was shed because the ingest queue was full (`detail` =
    /// queue capacity).
    Shed,
    /// This node first proposed a value for `slot`.
    Proposed,
    /// The round loop advanced (`slot` = new round, `detail` = the
    /// adaptive collect deadline armed for it, in µs).
    RoundAdvance,
    /// A collect deadline expired (`slot` = round, `detail` = the
    /// adaptive deadline that expired, in µs).
    Timeout,
    /// `slot` was committed by consensus (`detail` = round).
    Decided,
    /// `slot` was enqueued for the apply stage (`detail` = apply queue
    /// depth after the enqueue).
    ApplyQueued,
    /// `slot` was applied to the state machine (`detail` = service µs).
    Applied,
    /// `slot` was enqueued for the persist stage (`detail` = persist
    /// queue depth after the enqueue).
    PersistQueued,
    /// `slot` became durable — its batch was appended and fsynced
    /// (`detail` = service µs for the group commit that covered it).
    Persisted,
    /// The reply for `slot` was released to the client (`detail` = µs
    /// the ack was parked waiting for the durability gate).
    Acked,
    /// This node broadcast a snapshot request (`slot` = its committed
    /// watermark, `detail` = the highest slot peers have referenced).
    SnapshotRequested,
    /// This node served a snapshot manifest (`slot` = boundary,
    /// `detail` = the requesting peer's id).
    ManifestServed,
    /// This node served one snapshot chunk (`slot` = boundary,
    /// `detail` = chunk index).
    ChunkServed,
    /// This node fetched one snapshot chunk (`slot` = boundary,
    /// `detail` = chunk index).
    ChunkFetched,
    /// A fetched snapshot was installed (`slot` = boundary, `detail` =
    /// encoded state size in bytes).
    SnapshotInstalled,
    /// A peer fell silent past the liveness grace (`slot` = peer id,
    /// `detail` = last round it was heard in).
    PeerWrittenOff,
    /// A written-off peer spoke again and was re-enrolled (`slot` =
    /// peer id, `detail` = the round it resurfaced in).
    PeerReEnrolled,
    /// First frame received from a sender during a round's collect
    /// window (`slot` = round, `detail` = the peer id heard from).
    HeardFrom,
    /// The TD-th concordant round message landed — the decision
    /// quorum is complete (`slot` = round, `detail` = the peer id
    /// whose message completed it; this node's own id when buffered
    /// frames already held a quorum at round entry).
    QuorumReached,
    /// A client command arrived at the gateway's submission drain
    /// (`slot` = the compact command id, `detail` = the source
    /// connection id). Command-scoped kinds reuse the `slot` field for
    /// the command id; `assemble_cmd_spans` joins them back to slots
    /// through [`EventKind::CmdAcked`]'s detail.
    Submitted,
    /// The command entered the replica's proposal queue (`slot` = cmd
    /// id, `detail` = queue depth after the submit).
    CmdQueued,
    /// The command was drained from the queue into a batch this node
    /// proposed (`slot` = cmd id, `detail` = the consensus slot the
    /// batch was proposed for).
    Batched,
    /// The command left this node inside an outgoing relay chunk
    /// (`slot` = cmd id, `detail` = the number of peers it went to).
    Relayed,
    /// The command arrived inside a peer's relay chunk (`slot` = cmd
    /// id, `detail` = the sending peer's id).
    RelayMerged,
    /// The command bounced back to its client (`slot` = cmd id,
    /// `detail` = 0 for backpressure, 1 for redirect).
    Bounced,
    /// The command's committed reply was released to the client
    /// (`slot` = cmd id, `detail` = the consensus slot it decided in).
    CmdAcked,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Ingested,
            1 => EventKind::Shed,
            2 => EventKind::Proposed,
            3 => EventKind::RoundAdvance,
            4 => EventKind::Timeout,
            5 => EventKind::Decided,
            6 => EventKind::ApplyQueued,
            7 => EventKind::Applied,
            8 => EventKind::PersistQueued,
            9 => EventKind::Persisted,
            10 => EventKind::Acked,
            11 => EventKind::SnapshotRequested,
            12 => EventKind::ManifestServed,
            13 => EventKind::ChunkServed,
            14 => EventKind::ChunkFetched,
            15 => EventKind::SnapshotInstalled,
            16 => EventKind::PeerWrittenOff,
            17 => EventKind::PeerReEnrolled,
            18 => EventKind::HeardFrom,
            19 => EventKind::QuorumReached,
            20 => EventKind::Submitted,
            21 => EventKind::CmdQueued,
            22 => EventKind::Batched,
            23 => EventKind::Relayed,
            24 => EventKind::RelayMerged,
            25 => EventKind::Bounced,
            26 => EventKind::CmdAcked,
            _ => return None,
        })
    }

    /// Stable lowercase name used in JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Ingested => "ingested",
            EventKind::Shed => "shed",
            EventKind::Proposed => "proposed",
            EventKind::RoundAdvance => "round_advance",
            EventKind::Timeout => "timeout",
            EventKind::Decided => "decided",
            EventKind::ApplyQueued => "apply_queued",
            EventKind::Applied => "applied",
            EventKind::PersistQueued => "persist_queued",
            EventKind::Persisted => "persisted",
            EventKind::Acked => "acked",
            EventKind::SnapshotRequested => "snapshot_requested",
            EventKind::ManifestServed => "manifest_served",
            EventKind::ChunkServed => "chunk_served",
            EventKind::ChunkFetched => "chunk_fetched",
            EventKind::SnapshotInstalled => "snapshot_installed",
            EventKind::PeerWrittenOff => "peer_written_off",
            EventKind::PeerReEnrolled => "peer_re_enrolled",
            EventKind::HeardFrom => "heard_from",
            EventKind::QuorumReached => "quorum_reached",
            EventKind::Submitted => "submitted",
            EventKind::CmdQueued => "cmd_queued",
            EventKind::Batched => "batched",
            EventKind::Relayed => "relayed",
            EventKind::RelayMerged => "relay_merged",
            EventKind::Bounced => "bounced",
            EventKind::CmdAcked => "cmd_acked",
        }
    }
}

/// One recorded event, decoded out of the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// The stage that recorded the event.
    pub stage: Stage,
    /// What happened.
    pub kind: EventKind,
    /// The slot the event concerns (or round / peer id — see
    /// [`EventKind`]).
    pub slot: u64,
    /// Kind-specific payload (queue depth, service µs, chunk index…).
    pub detail: u64,
}

impl TraceEvent {
    /// One JSON object, no trailing newline:
    /// `{"ts_us":…,"stage":"…","kind":"…","slot":…,"detail":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ts_us\":{},\"stage\":\"{}\",\"kind\":\"{}\",\"slot\":{},\"detail\":{}}}",
            self.ts_us,
            self.stage.as_str(),
            self.kind.as_str(),
            self.slot,
            self.detail
        )
    }
}

/// One ring cell: a sequence word plus the four event fields.
///
/// The sequence word of the cell holding ticket `t` is `2·t + 1` while
/// a writer is mid-write and `2·t + 2` once published; readers accept a
/// cell only if they observe the *published* value for the exact ticket
/// they expect both before and after reading the fields, so an event is
/// either decoded whole or skipped — never torn. Writers claim the cell
/// with a compare-exchange (see [`FlightRecorder::record`]), so two
/// writers a lap apart never write into the same cell at once.
#[derive(Default)]
struct Cell {
    seq: AtomicU64,
    ts_us: AtomicU64,
    tag: AtomicU64, // stage in bits 8.., kind in bits 0..8
    slot: AtomicU64,
    detail: AtomicU64,
}

struct Ring {
    cells: Vec<Cell>,
    mask: u64,
    next: AtomicU64,
    /// Tickets given up because their cell was held (see `claim`).
    skipped: AtomicU64,
    epoch: Instant,
    epoch_id: u64,
}

/// A fixed-capacity, lock-free, multi-writer flight recorder.
///
/// Clones share the same ring. Capacity is rounded up to a power of
/// two (minimum 64); once full, new events overwrite the oldest.
/// Everything runs on `SeqCst` atomics — a recording is ~7 atomic ops,
/// cheap enough to leave on under full load (see the overhead guard
/// test in `gencon-load`).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Ring>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (rounded up to a
    /// power of two, minimum 64).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(64).next_power_of_two();
        let mut cells = Vec::with_capacity(cap);
        cells.resize_with(cap, Cell::default);
        FlightRecorder {
            inner: Arc::new(Ring {
                cells,
                mask: (cap - 1) as u64,
                next: AtomicU64::new(0),
                skipped: AtomicU64::new(0),
                epoch: Instant::now(),
                epoch_id: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_micros() as u64),
            }),
        }
    }

    /// Number of events the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.cells.len()
    }

    /// Total events ever recorded (including those since overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.next.load(Ordering::SeqCst) - self.inner.skipped.load(Ordering::SeqCst)
    }

    /// Microseconds since the recorder was created — the clock every
    /// event timestamp is on.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// An id for this recorder's clock epoch (wall-clock µs sampled at
    /// construction). Two readings of `now_us` are only comparable when
    /// taken under the same epoch id: a changed id means the process —
    /// and therefore the `Instant` epoch behind `now_us` — restarted,
    /// invalidating any previously estimated clock offset.
    #[must_use]
    pub fn epoch_id(&self) -> u64 {
        self.inner.epoch_id
    }

    /// Records one event. Never blocks; wraps by overwriting the
    /// oldest event.
    pub fn record(&self, stage: Stage, kind: EventKind, slot: u64, detail: u64) {
        let ts = self.inner.epoch.elapsed().as_micros() as u64;
        let (cell, t) = self.claim();
        cell.ts_us.store(ts, Ordering::SeqCst);
        cell.tag
            .store(((stage as u64) << 8) | kind as u64 & 0xff, Ordering::SeqCst);
        cell.slot.store(slot, Ordering::SeqCst);
        cell.detail.store(detail, Ordering::SeqCst);
        cell.seq.store(2 * t + 2, Ordering::SeqCst);
    }

    /// Claims the cell of the next ticket `t` by moving its sequence word
    /// from an older published value to `2·t + 1`. A writer a lap behind
    /// may still hold the cell (odd word) — a plain store would let the
    /// two interleave fields and publish a mixed event under one ticket —
    /// so a writer that finds the cell held, or loses the exchange, gives
    /// the ticket up (readers skip it like an overwritten cell) and takes
    /// the next one.
    fn claim(&self) -> (&Cell, u64) {
        let ring = &self.inner;
        loop {
            let t = ring.next.fetch_add(1, Ordering::SeqCst);
            let cell = &ring.cells[(t & ring.mask) as usize];
            let seq = cell.seq.load(Ordering::SeqCst);
            if seq.is_multiple_of(2)
                && seq < 2 * t + 1
                && cell
                    .seq
                    .compare_exchange(seq, 2 * t + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return (cell, t);
            }
            ring.skipped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The most recent ≤ `n` events, oldest first (ordered by
    /// timestamp, claim order breaking ties).
    ///
    /// Non-destructive: the ring keeps recording while and after the
    /// tail is taken. Cells a concurrent writer is overwriting are
    /// skipped, so every returned event is internally consistent.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let ring = &self.inner;
        let total = ring.next.load(Ordering::SeqCst);
        let window = (n as u64).min(total).min(ring.cells.len() as u64);
        let mut out = Vec::with_capacity(window as usize);
        for t in (total - window)..total {
            let cell = &ring.cells[(t & ring.mask) as usize];
            if cell.seq.load(Ordering::SeqCst) != 2 * t + 2 {
                continue; // not yet published, or already overwritten
            }
            let ts_us = cell.ts_us.load(Ordering::SeqCst);
            let tag = cell.tag.load(Ordering::SeqCst);
            let slot = cell.slot.load(Ordering::SeqCst);
            let detail = cell.detail.load(Ordering::SeqCst);
            if cell.seq.load(Ordering::SeqCst) != 2 * t + 2 {
                continue; // a writer lapped us mid-read
            }
            let stage = Stage::from_u8((tag >> 8) as u8);
            let kind = EventKind::from_u8(tag as u8);
            if let (Some(stage), Some(kind)) = (stage, kind) {
                out.push((
                    t,
                    TraceEvent {
                        ts_us,
                        stage,
                        kind,
                        slot,
                        detail,
                    },
                ));
            }
        }
        out.sort_by_key(|(t, ev)| (ev.ts_us, *t));
        out.into_iter().map(|(_, ev)| ev).collect()
    }
}

/// An optional recording handle stages carry on their hot paths.
///
/// A `Tracer` built from `None` is a no-op: [`Tracer::rec`] is a single
/// branch. This lets every pipeline stage take tracing unconditionally
/// without the caller paying for it when disabled.
#[derive(Clone, Debug, Default)]
pub struct Tracer(Option<FlightRecorder>);

impl Tracer {
    /// A tracer recording into `recorder`, or a no-op for `None`.
    #[must_use]
    pub fn new(recorder: Option<FlightRecorder>) -> Self {
        Tracer(recorder)
    }

    /// A no-op tracer.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Whether events actually land anywhere.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event if enabled.
    pub fn rec(&self, stage: Stage, kind: EventKind, slot: u64, detail: u64) {
        if let Some(r) = &self.0 {
            r.record(stage, kind, slot, detail);
        }
    }

    /// Microseconds on the recorder's clock (0 when disabled) — for
    /// stages that measure a duration before recording it.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, FlightRecorder::now_us)
    }

    /// The underlying recorder, if enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_tails_in_order() {
        let rec = FlightRecorder::new(64);
        for slot in 0..10 {
            rec.record(Stage::Order, EventKind::Decided, slot, slot * 2);
        }
        let tail = rec.tail(10);
        assert_eq!(tail.len(), 10);
        for (i, ev) in tail.iter().enumerate() {
            assert_eq!(ev.slot, i as u64);
            assert_eq!(ev.detail, 2 * i as u64);
            assert_eq!(ev.stage, Stage::Order);
            assert_eq!(ev.kind, EventKind::Decided);
        }
        assert!(tail.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn wraparound_keeps_only_the_suffix() {
        let rec = FlightRecorder::new(64); // min capacity
        for slot in 0..200 {
            rec.record(Stage::Apply, EventKind::Applied, slot, 0);
        }
        let tail = rec.tail(1000);
        assert_eq!(tail.len(), 64);
        let slots: Vec<u64> = tail.iter().map(|e| e.slot).collect();
        assert_eq!(slots, (136..200).collect::<Vec<u64>>());
        assert_eq!(rec.recorded(), 200);
    }

    #[test]
    fn tail_n_smaller_than_retained() {
        let rec = FlightRecorder::new(64);
        for slot in 0..50 {
            rec.record(Stage::Persist, EventKind::Persisted, slot, 7);
        }
        let tail = rec.tail(5);
        let slots: Vec<u64> = tail.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![45, 46, 47, 48, 49]);
    }

    #[test]
    fn every_stage_and_kind_roundtrips() {
        let stages = [
            Stage::Ingest,
            Stage::Order,
            Stage::Apply,
            Stage::Ack,
            Stage::Persist,
            Stage::Transfer,
            Stage::Peer,
        ];
        let kinds = [
            EventKind::Ingested,
            EventKind::Shed,
            EventKind::Proposed,
            EventKind::RoundAdvance,
            EventKind::Timeout,
            EventKind::Decided,
            EventKind::ApplyQueued,
            EventKind::Applied,
            EventKind::PersistQueued,
            EventKind::Persisted,
            EventKind::Acked,
            EventKind::SnapshotRequested,
            EventKind::ManifestServed,
            EventKind::ChunkServed,
            EventKind::ChunkFetched,
            EventKind::SnapshotInstalled,
            EventKind::PeerWrittenOff,
            EventKind::PeerReEnrolled,
            EventKind::HeardFrom,
            EventKind::QuorumReached,
            EventKind::Submitted,
            EventKind::CmdQueued,
            EventKind::Batched,
            EventKind::Relayed,
            EventKind::RelayMerged,
            EventKind::Bounced,
            EventKind::CmdAcked,
        ];
        let rec = FlightRecorder::new(stages.len() * kinds.len());
        for stage in stages {
            for kind in kinds {
                rec.record(stage, kind, 1, 2);
            }
        }
        let tail = rec.tail(usize::MAX);
        assert_eq!(tail.len(), stages.len() * kinds.len());
        let mut it = tail.iter();
        for stage in stages {
            for kind in kinds {
                let ev = it.next().unwrap();
                assert_eq!((ev.stage, ev.kind), (stage, kind));
            }
        }
    }

    #[test]
    fn json_shape() {
        let ev = TraceEvent {
            ts_us: 12,
            stage: Stage::Ack,
            kind: EventKind::Acked,
            slot: 3,
            detail: 450,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ts_us\":12,\"stage\":\"ack\",\"kind\":\"acked\",\"slot\":3,\"detail\":450}"
        );
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.rec(Stage::Order, EventKind::Decided, 1, 1); // must not panic
        assert_eq!(t.now_us(), 0);
        assert!(t.recorder().is_none());
    }

    #[test]
    fn held_claim_makes_a_lapping_writer_take_the_next_cell() {
        let rec = FlightRecorder::new(64);
        // Writer A claims ticket 0 (cell 0) and stalls before writing.
        let (held, t) = rec.claim();
        assert_eq!(t, 0);
        for slot in 1..64 {
            rec.record(Stage::Order, EventKind::Decided, slot, slot);
        }
        // Writer B's ticket 64 lands on cell 0 again: it gives ticket 64
        // up and records under ticket 65 in cell 1.
        rec.record(Stage::Apply, EventKind::Applied, 1_000, 1_000);
        assert_eq!(rec.inner.cells[0].seq.load(Ordering::SeqCst), 1);
        assert_eq!(rec.inner.cells[1].seq.load(Ordering::SeqCst), 2 * 65 + 2);
        assert_eq!(
            rec.recorded(),
            65,
            "claims count, the given-up ticket does not"
        );
        // A completes its own fields only.
        held.slot.store(7, Ordering::SeqCst);
        held.detail.store(7, Ordering::SeqCst);
        held.seq.store(2 * t + 2, Ordering::SeqCst);
        let cell0 = &rec.inner.cells[0];
        assert_eq!(cell0.slot.load(Ordering::SeqCst), 7);
        // Tickets 2..=65 are in the window; 64 was given up.
        let slots: Vec<u64> = rec.tail(64).iter().map(|e| e.slot).collect();
        let mut expect: Vec<u64> = (2..64).collect();
        expect.push(1_000);
        assert_eq!(slots, expect);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        use std::thread;
        let rec = FlightRecorder::new(256);
        let writers = 4;
        let per_writer = 5_000u64;
        thread::scope(|s| {
            for w in 0..writers {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..per_writer {
                        // slot and detail carry the same tag so a torn
                        // read (fields from two writers) is detectable.
                        let tag = (w as u64) << 32 | i;
                        rec.record(Stage::Order, EventKind::Decided, tag, tag ^ u64::MAX);
                    }
                });
            }
        });
        let tail = rec.tail(usize::MAX);
        assert!(!tail.is_empty() && tail.len() <= 256);
        for ev in &tail {
            assert_eq!(ev.slot, ev.detail ^ u64::MAX, "torn event: {ev:?}");
        }
        assert_eq!(rec.recorded(), writers as u64 * per_writer);
    }
}
