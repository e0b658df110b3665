//! State-machine replication over sequences of consensus instances.
//!
//! §5.3 of the paper notes that Paxos and PBFT "solve a sequence of
//! instances of consensus (state machine replication)" and isolates the
//! single-instance core. This crate goes the other way: it composes the
//! single-instance engine back into a replicated log — the deployment shape
//! a downstream user actually wants.
//!
//! A [`Replica`] multiplexes a window of open consensus *slots* over one
//! stream of closed rounds. Each slot runs an independent
//! [`GenericConsensus`] instance (any parameterization: Paxos for benign
//! deployments, PBFT/MQB for Byzantine ones); messages carry their slot id;
//! a slot's decision is **committed** when every lower slot has committed,
//! and committed commands are applied in order — so all honest replicas
//! apply the same command sequence (by the paper's Agreement property,
//! per slot).
//!
//! # The batch commit path
//!
//! [`Replica`] proposes one client command per slot. Under load that wastes
//! the fixed per-slot round cost, so [`BatchingReplica`] amortizes it: each
//! new slot drains up to `batch_cap` queued commands into one
//! [`Batch`](gencon_types::Batch) proposal, the decided batch is
//! **flattened** into the applied log in batch order, and the replica's
//! output is the flattened command log. Per-slot Agreement is untouched — a
//! batch is just a value — so honest replicas still apply identical command
//! sequences; throughput per round scales with the batch size. The empty
//! batch is the no-op filler; it sorts *last*, so a slot never commits a
//! no-op while any replica proposed real commands, and commands whose batch
//! lost its slot are re-queued for a later one.
//!
//! # Example
//!
//! ```
//! use gencon_smr::Replica;
//! use gencon_algos::pbft;
//! use gencon_types::ProcessId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = pbft::<u64>(4, 1)?;
//! let replica = Replica::new(
//!     ProcessId::new(0),
//!     spec.params.clone(),
//!     vec![10, 20, 30], // locally queued client commands
//!     0,                // no-op command for empty queues
//!     3,                // commit target
//! )?;
//! assert_eq!(replica.committed(), &[] as &[u64]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;

pub use batch::{BatchingReplica, DEFAULT_DEDUP_HORIZON};
pub use gencon_types::Batch;

use std::collections::BTreeMap;

use gencon_core::{ConsensusMsg, GenericConsensus, Params, ParamsError};
use gencon_rounds::{HeardOf, Outgoing, Predicate, RoundProcess};
use gencon_types::{ProcessId, Round, Value};

/// A slot (log position) identifier.
pub type Slot = u64;

/// Messages of the replicated log: per-slot consensus messages, bundled per
/// round. Bundling keeps the composition a closed-round protocol: one
/// message per sender per round, carrying every open slot's payload.
///
/// A named struct (not a bare `Vec` alias) so slot payloads can evolve —
/// batched values, decision certificates, future compression — without
/// leaking the representation into every signature that mentions the
/// message type.
///
/// Besides per-slot engine payloads, a bundle carries **decision claims**:
/// `(slot, value)` assertions for slots the sender has already committed
/// but some peer is still working on. A laggard adopts a claimed decision
/// once `b + 1` distinct senders concur — at least one is honest, so the
/// value is the slot's actual decision by per-slot Agreement. This is the
/// catch-up path that bounded engine lingering cannot provide: however far
/// a replica falls behind, the replicas ahead of it keep answering its
/// stale-slot messages with certificates, because its own watermark (see
/// below) shows them it is behind.
///
/// A bundle also carries **relays**: values holding commands the sender
/// has queued but not yet seen committed. Receivers merge relayed
/// commands into their own queues (deduplicated), so every pending
/// command reaches every proposer. Without relays, commands starve at
/// replicas whose proposals systematically lose — the leader's value wins
/// every Paxos/PBFT slot, and `DeterministicMin` tie-breaks sort one
/// replica's commands ahead of another's — so under load only one
/// replica's clients would ever be served. Relays are the dissemination
/// half of a real SMR service: any replica accepts a submission, the
/// winning batch (whosever it is) carries it.
///
/// Finally, every bundle carries its sender's **commit watermark**: the
/// contiguous commit point ([`Replica::committed_len`]) at send time.
/// Receivers use it to stop sending lingering votes and decision claims
/// for slots every peer has already committed — see
/// [`Replica::with_linger`]. The watermark only decides whether help is
/// *sent*, and a left-out message is indistinguishable from a lost one,
/// so safety never depends on it. Help stops only once *every* peer's
/// latest watermark is past the slot, so a Byzantine peer can hold the
/// gate open (costing bytes) but cannot close it on an honest laggard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SmrMsg<V> {
    slots: Vec<(Slot, ConsensusMsg<V>)>,
    claims: Vec<(Slot, V)>,
    relays: Vec<V>,
    committed_len: u64,
}

impl<V> SmrMsg<V> {
    /// An empty bundle.
    #[must_use]
    pub fn new() -> Self {
        SmrMsg {
            slots: Vec::new(),
            claims: Vec::new(),
            relays: Vec::new(),
            committed_len: 0,
        }
    }

    /// Appends slot `s`'s payload for this round.
    pub fn push(&mut self, slot: Slot, msg: ConsensusMsg<V>) {
        self.slots.push((slot, msg));
    }

    /// The payload carried for `slot`, if any.
    #[must_use]
    pub fn slot(&self, slot: Slot) -> Option<&ConsensusMsg<V>> {
        self.slots.iter().find(|(s, _)| *s == slot).map(|(_, m)| m)
    }

    /// Iterates over `(slot, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &ConsensusMsg<V>)> {
        self.slots.iter().map(|(s, m)| (*s, m))
    }

    /// Number of open slots carried (claims not included — see
    /// [`SmrMsg::claims`]; a catch-up bundle can carry claims and no
    /// slots).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the bundle carries no slots, claims or relays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.claims.is_empty() && self.relays.is_empty()
    }

    /// Appends a decision claim for `slot`.
    pub fn push_claim(&mut self, slot: Slot, value: V) {
        self.claims.push((slot, value));
    }

    /// The decision claims carried by this bundle.
    #[must_use]
    pub fn claims(&self) -> &[(Slot, V)] {
        &self.claims
    }

    /// Appends a relay: a value whose commands the sender wants
    /// disseminated to every proposer.
    pub fn push_relay(&mut self, value: V) {
        self.relays.push(value);
    }

    /// The relayed values carried by this bundle.
    #[must_use]
    pub fn relays(&self) -> &[V] {
        &self.relays
    }

    /// The sender's commit watermark: how many slots it had committed
    /// contiguously when it sent this bundle.
    #[must_use]
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Sets the commit watermark.
    pub fn set_committed_len(&mut self, len: u64) {
        self.committed_len = len;
    }
}

impl<V> FromIterator<(Slot, ConsensusMsg<V>)> for SmrMsg<V> {
    fn from_iter<I: IntoIterator<Item = (Slot, ConsensusMsg<V>)>>(iter: I) -> Self {
        SmrMsg {
            slots: iter.into_iter().collect(),
            claims: Vec::new(),
            relays: Vec::new(),
            committed_len: 0,
        }
    }
}

/// One replica of the replicated state machine.
///
/// Drive it with any executor of [`RoundProcess`] (the `gencon-sim`
/// lock-step simulator, the `gencon-net` runtime, …). The replica opens up
/// to `window` slots at once; each advances through the generic algorithm's
/// schedule in lock-step with its peers (all replicas open slot `s` in the
/// same global round, because openings are a deterministic function of the
/// shared commit sequence).
pub struct Replica<V: Value> {
    id: ProcessId,
    params: Params<V>,
    /// Client commands queued locally, next to be proposed.
    pending: Vec<V>,
    /// Proposed-with when the local queue is empty.
    noop: V,
    /// Open instances: slot → (engine, the global round it opened at).
    open: BTreeMap<Slot, (GenericConsensus<V>, u64)>,
    /// Decided engines kept participating: slot → (engine, opened round,
    /// decided round). A decided process keeps voting (the round model's
    /// "its votes help laggards reach TD") — without this, a replica that
    /// decides slot `s` and opens `s + 1` strands any peer that missed the
    /// deciding round: the peer alone can never reach `TD` votes for `s`.
    /// A lingering engine steps every round, but its vote enters the
    /// bundle only while the commit floor (see `peer_commit`) is at or
    /// below its slot — once every peer has committed the slot, nobody
    /// needs the vote.
    lingering: BTreeMap<Slot, (GenericConsensus<V>, u64, u64)>,
    /// Rounds a decided engine lingers after its decision (0 = retire
    /// immediately, the pre-linger behavior): the upper bound on how long
    /// a decided slot keeps voting.
    linger: u64,
    /// The latest commit watermark heard from each process (indexed by
    /// id; 0 until heard). The *latest*, not a running max: a replica
    /// that restarts empty advertises a lower point and needs votes and
    /// claims again. The minimum over peers is the **commit floor**.
    peer_commit: Vec<u64>,
    /// Decided-but-not-yet-committed slots (waiting for lower slots).
    decided: BTreeMap<Slot, V>,
    /// Decision claims to attach to the next bundle: slots we committed
    /// that a peer's last bundle showed it still working on.
    claim_queue: BTreeMap<Slot, V>,
    /// Claim tallies for our own open slots: slot → value → claimants.
    /// Adoption needs `b + 1` distinct claimants per (slot, value).
    claim_votes: BTreeMap<Slot, BTreeMap<V, gencon_types::ProcessSet>>,
    /// The retained committed log: values of slots
    /// `[committed_base, committed_base + committed.len())`. Everything
    /// below `committed_base` was compacted away after a snapshot — the
    /// replica can no longer answer decision claims for those slots (that
    /// is the **claim horizon**; laggards further behind need snapshot
    /// state transfer, see `gencon-server`).
    committed: Vec<V>,
    /// First retained committed slot (0 until the first compaction).
    committed_base: Slot,
    /// Next slot to open.
    next_slot: Slot,
    /// Max simultaneously open slots.
    window: usize,
    /// Replica reports `output()` once this many commands committed.
    commit_target: usize,
}

impl<V: Value> Replica<V> {
    /// Creates a replica.
    ///
    /// * `params` — the per-instance consensus parameterization (e.g. from
    ///   `gencon_algos::pbft`);
    /// * `pending` — locally queued client commands, proposed in order;
    /// * `noop` — proposed when the queue is empty (slots must still fill:
    ///   consensus decides *some* command per slot);
    /// * `commit_target` — how many committed commands constitute "done"
    ///   for [`RoundProcess::output`] (executors use it as a stop signal).
    ///
    /// The window defaults to 1 (sequential slots); see
    /// [`Replica::with_window`].
    ///
    /// # Errors
    ///
    /// Propagates [`ParamsError`] if `params` is invalid.
    pub fn new(
        id: ProcessId,
        params: Params<V>,
        pending: Vec<V>,
        noop: V,
        commit_target: usize,
    ) -> Result<Self, ParamsError> {
        params.validate()?;
        let n = params.cfg.n();
        Ok(Replica {
            id,
            params,
            pending,
            noop,
            open: BTreeMap::new(),
            lingering: BTreeMap::new(),
            linger: 6,
            peer_commit: vec![0; n],
            decided: BTreeMap::new(),
            claim_queue: BTreeMap::new(),
            claim_votes: BTreeMap::new(),
            committed: Vec::new(),
            committed_base: 0,
            next_slot: 0,
            window: 1,
            commit_target,
        })
    }

    /// Sets the number of slots allowed in flight simultaneously
    /// (pipelining). All replicas must use the same window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets how many rounds, at most, a decided slot's engine keeps
    /// participating (default 6 — two phases of a 3-round class).
    ///
    /// A lingering engine keeps stepping every round, and re-broadcasts
    /// its vote so replicas that missed the deciding round still reach
    /// `TD` — but only while some peer's latest commit watermark (carried
    /// by every [`SmrMsg`]) is at or below the slot. Decision claims for
    /// the slot are gated the same way. In a good period every peer
    /// advertises the slot committed one round after deciding it, and the
    /// slot goes quiet; under loss, with a crashed peer, or with a
    /// Byzantine peer advertising a low watermark the gate stays open for
    /// the whole window. Longer linger tolerates longer asynchronous gaps
    /// at the cost of proportionally more live engines.
    #[must_use]
    pub fn with_linger(mut self, rounds: u64) -> Self {
        self.linger = rounds;
        self
    }

    /// The retained committed command log: slots from
    /// [`Replica::committed_base`] on (the full log until the first
    /// [`Replica::compact_below`]).
    #[must_use]
    pub fn committed(&self) -> &[V] {
        &self.committed
    }

    /// First slot still retained in [`Replica::committed`].
    #[must_use]
    pub fn committed_base(&self) -> Slot {
        self.committed_base
    }

    /// Total slots ever committed (compacted prefix included) — the next
    /// slot the contiguous log needs.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.committed_base as usize + self.committed.len()
    }

    /// Drops retained committed values below `slot`, bounding in-memory
    /// growth once a snapshot covers that prefix. Only already-committed
    /// slots can be compacted (`slot` is clamped to the contiguous commit
    /// point); compaction below the current base is a no-op.
    ///
    /// After compaction the replica no longer serves decision claims for
    /// the dropped slots: `slot` becomes the claim horizon.
    pub fn compact_below(&mut self, slot: Slot) {
        let slot = slot.min(self.committed_len() as Slot);
        if slot <= self.committed_base {
            return;
        }
        let cut = (slot - self.committed_base) as usize;
        self.committed.drain(..cut);
        self.committed_base = slot;
    }

    /// The system configuration (n, f, b) this replica runs under.
    #[must_use]
    pub fn config(&self) -> gencon_types::Config {
        self.params.cfg
    }

    /// The decision threshold TD — how many concordant round messages
    /// complete a quorum.
    #[must_use]
    pub fn td(&self) -> usize {
        self.params.td
    }

    /// Commands still queued locally.
    #[must_use]
    pub fn pending(&self) -> &[V] {
        &self.pending
    }

    /// Currently open (undecided or uncommitted) slots.
    #[must_use]
    pub fn open_slots(&self) -> Vec<Slot> {
        self.open.keys().copied().collect()
    }

    /// Enqueues another client command.
    pub fn submit(&mut self, command: V) {
        self.pending.push(command);
    }

    /// Opens new slots up to the window limit. Slot openings are a pure
    /// function of (committed count, open count, round), identical on every
    /// honest replica.
    fn refill_window(&mut self, now: Round) {
        while self.open.len() < self.window
            && (self.committed_len() + self.decided.len() + self.open.len())
                < self.commit_target.max(self.committed_len() + 1)
        {
            let slot = self.next_slot;
            self.next_slot += 1;
            let proposal = if self.pending.is_empty() {
                self.noop.clone()
            } else {
                self.pending.remove(0)
            };
            let engine = GenericConsensus::new_unchecked(self.id, self.params.clone(), proposal);
            self.open.insert(slot, (engine, now.number()));
        }
    }

    /// Appends one recovered committed value as the next contiguous slot
    /// (the WAL-replay path; see `BatchingReplica::replay_committed`).
    pub(crate) fn restore_committed(&mut self, value: V) {
        self.committed.push(value);
        self.next_slot = self.next_slot.max(self.committed_len() as Slot);
    }

    /// Fast-forwards the committed sequence to `upto`: every slot below it
    /// is now covered externally (a snapshot), so local engines, decided
    /// values and claim state for those slots are dropped, and the
    /// retained committed log restarts at `upto`. Anything already
    /// decided above the snapshot recommits contiguously.
    pub(crate) fn install_decided_prefix(&mut self, upto: Slot) {
        self.open.retain(|s, _| *s >= upto);
        self.lingering.retain(|s, _| *s >= upto);
        self.decided.retain(|s, _| *s >= upto);
        self.claim_queue.retain(|s, _| *s >= upto);
        self.claim_votes.retain(|s, _| *s >= upto);
        self.committed.clear();
        self.committed_base = upto;
        self.next_slot = self.next_slot.max(upto);
        while let Some(v) = self.decided.remove(&(self.committed_len() as Slot)) {
            self.committed.push(v);
        }
    }

    /// Aligns each live slot's opening round with the earliest opening any
    /// peer's messages imply.
    ///
    /// Replicas decide a slot (and hence open the next) in different global
    /// rounds under loss or crashes, which would run the next slot's
    /// instance phase-offset across replicas — fatal under `FLAG = φ`,
    /// where only votes timestamped with the *current* phase count. Every
    /// consensus message carries its phase tag, and its variant names the
    /// round kind, so a receiver can reconstruct the sender's local round
    /// exactly (`Schedule::round_of`) and re-base its own engine to the
    /// minimum implied opening. Min-adoption is monotone (openings only
    /// move earlier, never below round 1) and self-propagating — once a
    /// replica adopts an earlier opening, its own messages carry it onward
    /// — so after a good period all honest replicas converge on one
    /// opening per slot. Skipped local rounds are indistinguishable from
    /// message loss, which every instantiation tolerates by design; a
    /// Byzantine phase tag can only pull the opening earlier (bounded by
    /// round 1), i.e. fast-forward the instance, never stall it.
    fn align_openings(&mut self, r: Round, heard: &HeardOf<SmrMsg<V>>) {
        let schedule = self.params.schedule();
        let live = self
            .open
            .iter_mut()
            .map(|(s, (_, opened))| (*s, opened))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (_, opened, _))| (*s, opened)),
            );
        for (slot, opened) in live {
            for (_, bundle) in heard.iter() {
                let Some(m) = bundle.slot(slot) else { continue };
                let kind = match m {
                    ConsensusMsg::Selection(..) => gencon_types::RoundKind::Selection,
                    ConsensusMsg::Validation(..) => gencon_types::RoundKind::Validation,
                    ConsensusMsg::Decision(..) => gencon_types::RoundKind::Decision,
                };
                let Some(local) = schedule.round_of(m.phase(), kind) else {
                    continue;
                };
                let implied = (r.number() + 1).saturating_sub(local.number());
                if implied >= 1 && implied < *opened {
                    *opened = implied;
                }
            }
        }
    }

    /// Records each sender's commit watermark (the latest one, see
    /// `peer_commit`).
    fn note_watermarks(&mut self, heard: &HeardOf<SmrMsg<V>>) {
        for (sender, bundle) in heard.iter() {
            if let Some(w) = self.peer_commit.get_mut(sender.index()) {
                *w = bundle.committed_len();
            }
        }
    }

    /// The commit floor: the lowest latest watermark among the other
    /// replicas. A decided slot at or above it may still be missing
    /// somewhere, so its votes and claims are still worth sending.
    fn commit_floor(&self) -> u64 {
        let me = self.id.index();
        self.peer_commit
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != me)
            .map(|(_, w)| *w)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// An empty bundle stamped with this replica's commit watermark.
    fn bundle(&self) -> SmrMsg<V> {
        let mut bundle = SmrMsg::new();
        bundle.set_committed_len(self.committed_len() as u64);
        bundle
    }

    /// The decided value of `slot`, if this replica has one (committed,
    /// decided-pending, or still lingering).
    fn decision_of(&self, slot: Slot) -> Option<V> {
        if slot >= self.committed_base {
            if let Some(v) = self.committed.get((slot - self.committed_base) as usize) {
                return Some(v.clone());
            }
        }
        if let Some(v) = self.decided.get(&slot) {
            return Some(v.clone());
        }
        self.lingering
            .get(&slot)
            .and_then(|(e, _, _)| e.decision().map(|d| d.value.clone()))
    }

    /// Decision-certificate exchange: tallies incoming claims for our open
    /// slots (adopting a value once `b + 1` distinct senders vouch for it —
    /// at least one is honest, so Agreement makes the value the slot's true
    /// decision), and queues claims for peers still working slots we have
    /// already decided — unless the commit floor is above the slot, i.e.
    /// every peer has since committed it. This is the unbounded catch-up
    /// path: lingering engines cover short gaps cheaply, certificates
    /// cover any gap.
    fn exchange_claims(&mut self, heard: &HeardOf<SmrMsg<V>>) {
        let threshold = self.params.cfg.b() + 1;
        let floor = self.commit_floor();
        for (sender, bundle) in heard.iter() {
            for (slot, value) in bundle.claims() {
                if self.open.contains_key(slot) {
                    self.claim_votes
                        .entry(*slot)
                        .or_default()
                        .entry(value.clone())
                        .or_default()
                        .insert(sender);
                }
            }
            for (slot, _) in bundle.iter().filter(|(s, _)| *s >= floor) {
                if let Some(v) = self.decision_of(slot) {
                    self.claim_queue.insert(slot, v);
                }
            }
        }
        let adopt: Vec<(Slot, V)> = self
            .claim_votes
            .iter()
            .filter(|(s, _)| self.open.contains_key(*s))
            .filter_map(|(s, per_value)| {
                per_value
                    .iter()
                    .find(|(_, who)| who.len() >= threshold)
                    .map(|(v, _)| (*s, v.clone()))
            })
            .collect();
        for (slot, value) in adopt {
            self.open.remove(&slot);
            self.decided.insert(slot, value);
        }
        // Tallies are only meaningful for slots still open.
        let open_slots: Vec<Slot> = self.open.keys().copied().collect();
        self.claim_votes.retain(|s, _| open_slots.contains(s));
    }

    /// Harvests decided slots (retiring their engines into the linger set)
    /// and commits in order.
    fn harvest(&mut self, now: Round) {
        let newly: Vec<Slot> = self
            .open
            .iter()
            .filter(|(_, (e, _))| e.decision().is_some())
            .map(|(s, _)| *s)
            .collect();
        for slot in newly {
            let (engine, opened) = self.open.remove(&slot).expect("slot is open");
            let d = engine.decision().expect("checked above").clone();
            self.decided.insert(slot, d.value);
            if self.linger > 0 {
                self.lingering.insert(slot, (engine, opened, now.number()));
            }
        }
        // Expire lingering engines past their keep-alive.
        let linger = self.linger;
        self.lingering
            .retain(|_, (_, _, decided_at)| now.number() < *decided_at + linger);
        // Commit the contiguous prefix.
        while let Some(v) = self.decided.remove(&(self.committed_len() as Slot)) {
            self.committed.push(v);
        }
    }
}

impl<V: Value> RoundProcess for Replica<V> {
    type Msg = SmrMsg<V>;
    type Output = Vec<V>;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn requirement(&self, r: Round) -> Predicate {
        // The strictest requirement among live slots this round: if any
        // slot is in a selection round, the bundle wants Pcons.
        let mut need = Predicate::Good;
        let opened_rounds = self
            .open
            .values()
            .map(|(e, opened)| (e, *opened))
            .chain(self.lingering.values().map(|(e, opened, _)| (e, *opened)));
        for (engine, opened) in opened_rounds {
            let local = Round::new(r.number() - opened + 1);
            if engine.requirement(local) == Predicate::Cons {
                need = Predicate::Cons;
            }
        }
        need
    }

    fn send(&mut self, r: Round) -> Outgoing<Self::Msg> {
        self.refill_window(r);
        let mut bundle = self.bundle();
        let floor = self.commit_floor();
        // Lingering engines still step (their state stays exact), but a
        // vote only ships while some peer may still need it.
        let live = self
            .open
            .iter_mut()
            .map(|(s, (e, opened))| (*s, e, *opened, true))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (e, opened, _))| (*s, e, *opened, *s >= floor)),
            );
        for (slot, engine, opened, ship) in live {
            let local = Round::new(r.number() - opened + 1);
            match engine.send(local) {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) if ship => bundle.push(slot, m),
                // Per-instance multicasts degrade to bundle broadcast; the
                // constant-Π selectors of Byzantine algorithms make this
                // exact, and benign leader-based instances just send a few
                // extra copies.
                Outgoing::Multicast { msg, .. } if ship => bundle.push(slot, msg),
                Outgoing::Broadcast(_) | Outgoing::Multicast { .. } => {}
                Outgoing::PerDest(_) => {
                    unreachable!("honest engines never equivocate")
                }
            }
        }
        for (slot, v) in std::mem::take(&mut self.claim_queue) {
            bundle.push_claim(slot, v);
        }
        if bundle.is_empty() {
            Outgoing::Silent
        } else {
            Outgoing::Broadcast(bundle)
        }
    }

    fn receive(&mut self, r: Round, heard: &HeardOf<Self::Msg>) {
        let n = self.params.cfg.n();
        self.note_watermarks(heard);
        self.align_openings(r, heard);
        self.exchange_claims(heard);
        let live = self
            .open
            .iter_mut()
            .map(|(s, (e, opened))| (*s, e, *opened))
            .chain(
                self.lingering
                    .iter_mut()
                    .map(|(s, (e, opened, _))| (*s, e, *opened)),
            );
        for (slot, engine, opened) in live {
            let local = Round::new(r.number() - opened + 1);
            let mut slot_heard: HeardOf<ConsensusMsg<V>> = HeardOf::empty(n);
            for (sender, bundle) in heard.iter() {
                if let Some(m) = bundle.slot(slot) {
                    slot_heard.put(sender, m.clone());
                }
            }
            engine.receive(local, &slot_heard);
        }
        self.harvest(r);
    }

    fn output(&self) -> Option<Vec<V>> {
        (self.committed_len() >= self.commit_target).then(|| self.committed.clone())
    }
}

impl<V: Value> std::fmt::Debug for Replica<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id.to_string())
            .field("committed", &self.committed_len())
            .field("open", &self.open.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_algos::{mqb, paxos, pbft};
    use gencon_sim::{properties, CrashAt, CrashPlan, Gst, Simulation};

    fn run_cluster(
        replicas: Vec<Replica<u64>>,
        crashes: CrashPlan,
        gst: Option<(u64, f64, u64)>,
        max_rounds: u64,
    ) -> gencon_sim::Outcome<Vec<u64>> {
        let cfg = replicas[0].params.cfg;
        let mut builder = Simulation::builder(cfg);
        for r in replicas {
            builder = builder.honest(r);
        }
        if let Some((g, loss, seed)) = gst {
            builder = builder.network(Gst::new(g, loss, seed));
        }
        builder.crashes(crashes).build().unwrap().run(max_rounds)
    }

    fn make_replicas(
        spec: &gencon_algos::AlgorithmSpec<u64>,
        queues: Vec<Vec<u64>>,
        target: usize,
        window: usize,
    ) -> Vec<Replica<u64>> {
        queues
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                Replica::new(ProcessId::new(i), spec.params.clone(), q, 0, target)
                    .unwrap()
                    .with_window(window)
            })
            .collect()
    }

    use gencon_types::ProcessId;

    #[test]
    fn pbft_replicated_log_commits_in_order() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues = vec![
            vec![11, 12, 13],
            vec![21, 22, 23],
            vec![31, 32, 33],
            vec![41, 42, 43],
        ];
        let out = run_cluster(
            make_replicas(&spec, queues, 3, 1),
            CrashPlan::none(),
            None,
            60,
        );
        assert!(
            out.all_correct_decided,
            "all replicas hit the commit target"
        );
        assert!(properties::agreement(&out, |log| log), "identical logs");
        let log = out.outputs[0].as_ref().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], 11, "smallest proposal wins each fresh slot");
    }

    #[test]
    fn pipelined_window_commits_faster_than_sequential() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues: Vec<Vec<u64>> = (1..=4)
            .map(|r| (0..4).map(|s| r * 10 + s).collect())
            .collect();
        let seq = run_cluster(
            make_replicas(&spec, queues.clone(), 4, 1),
            CrashPlan::none(),
            None,
            100,
        );
        let pipe = run_cluster(
            make_replicas(&spec, queues, 4, 4),
            CrashPlan::none(),
            None,
            100,
        );
        assert!(seq.all_correct_decided && pipe.all_correct_decided);
        assert!(
            pipe.rounds_executed < seq.rounds_executed,
            "window 4 ({} rounds) beats window 1 ({} rounds)",
            pipe.rounds_executed,
            seq.rounds_executed
        );
        // Same committed values in both runs (proposals and tie-breaks are
        // deterministic), regardless of pipelining.
        assert_eq!(seq.outputs[0], pipe.outputs[0]);
    }

    #[test]
    fn logs_identical_under_partial_synchrony() {
        let spec = mqb::<u64>(5, 1).unwrap();
        let queues: Vec<Vec<u64>> = (1..=5).map(|r| vec![r * 100, r * 100 + 1]).collect();
        let out = run_cluster(
            make_replicas(&spec, queues, 2, 2),
            CrashPlan::none(),
            Some((6, 0.7, 42)),
            80,
        );
        assert!(out.all_correct_decided);
        assert!(properties::agreement(&out, |log| log));
    }

    #[test]
    fn paxos_smr_with_crash() {
        let spec = paxos::<u64>(3, 1, ProcessId::new(0)).unwrap();
        let queues = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let crashes = CrashPlan::none().with(
            ProcessId::new(2),
            CrashAt::mid_send(gencon_types::Round::new(4), 1),
        );
        let out = run_cluster(make_replicas(&spec, queues, 2, 1), crashes, None, 60);
        assert!(out.all_correct_decided);
        assert!(properties::agreement(&out, |log| log));
    }

    #[test]
    fn empty_queues_fill_with_noops() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues = vec![vec![], vec![], vec![], vec![]];
        let out = run_cluster(
            make_replicas(&spec, queues, 2, 1),
            CrashPlan::none(),
            None,
            40,
        );
        assert!(out.all_correct_decided);
        let log = out.outputs[0].as_ref().unwrap();
        assert_eq!(log, &[0, 0], "no-op commands fill empty slots");
    }

    #[test]
    fn submit_feeds_later_slots() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let mut replicas = make_replicas(&spec, vec![vec![]; 4], 1, 1);
        for r in &mut replicas {
            r.submit(7);
        }
        assert_eq!(replicas[0].pending(), &[7]);
        let out = run_cluster(replicas, CrashPlan::none(), None, 30);
        assert_eq!(out.outputs[0].as_ref().unwrap(), &[7]);
    }

    /// What a [`lockstep`] run shipped and committed.
    struct Trace {
        /// `(round, sender, bundle)` for every bundle a sender shipped.
        sent: Vec<(u64, usize, SmrMsg<u64>)>,
        /// `(round, each replica's commit point after the round)`.
        commits: Vec<(u64, Vec<usize>)>,
    }

    impl Trace {
        /// Replica `p`'s commit point after round `r`.
        fn commit_of(&self, r: u64, p: usize) -> usize {
            self.commits.iter().find(|(rr, _)| *rr == r).unwrap().1[p]
        }

        /// Whether replica `p`'s round-`r` bundle carries a vote or a
        /// claim for `slot`.
        fn carried(&self, r: u64, p: usize, slot: Slot) -> bool {
            self.sent.iter().any(|(rr, pp, b)| {
                *rr == r
                    && *pp == p
                    && (b.slot(slot).is_some() || b.claims().iter().any(|(s, _)| *s == slot))
            })
        }
    }

    /// Runs `rounds` closed rounds by hand. `deliver(r, from, to)` decides
    /// whether a round-`r` bundle reaches `to` (a process always hears
    /// itself); `forge(r, from, out)` replaces what `from` ships — `None`
    /// silences it (a crash), a made-up bundle plays a Byzantine sender.
    fn lockstep(
        replicas: &mut [Replica<u64>],
        rounds: std::ops::RangeInclusive<u64>,
        deliver: impl Fn(u64, usize, usize) -> bool,
        forge: impl Fn(u64, usize, Option<SmrMsg<u64>>) -> Option<SmrMsg<u64>>,
    ) -> Trace {
        let n = replicas.len();
        let mut trace = Trace {
            sent: Vec::new(),
            commits: Vec::new(),
        };
        for r in rounds {
            let round = Round::new(r);
            let out: Vec<Option<SmrMsg<u64>>> = replicas
                .iter_mut()
                .enumerate()
                .map(|(p, rep)| forge(r, p, rep.send(round).message_for(ProcessId::new(p))))
                .collect();
            for (p, m) in out.iter().enumerate() {
                if let Some(m) = m {
                    trace.sent.push((r, p, m.clone()));
                }
            }
            for (to, rep) in replicas.iter_mut().enumerate() {
                let mut heard = HeardOf::empty(n);
                for (from, m) in out.iter().enumerate() {
                    if let Some(m) = m {
                        if from == to || deliver(r, from, to) {
                            heard.put(ProcessId::new(from), m.clone());
                        }
                    }
                }
                rep.receive(round, &heard);
            }
            trace
                .commits
                .push((r, replicas.iter().map(Replica::committed_len).collect()));
        }
        trace
    }

    fn pbft_replicas(linger: u64) -> Vec<Replica<u64>> {
        let spec = pbft::<u64>(4, 1).unwrap();
        let queues = (1..=4u64).map(|p| (0..20).map(|k| p * 100 + k).collect());
        make_replicas(&spec, queues.collect(), usize::MAX, 1)
            .into_iter()
            .map(|r| r.with_linger(linger))
            .collect()
    }

    fn all_links(_: u64, _: usize, _: usize) -> bool {
        true
    }

    fn honest(_: u64, _: usize, out: Option<SmrMsg<u64>>) -> Option<SmrMsg<u64>> {
        out
    }

    /// The first round after which replica 0 has committed slot 0.
    fn first_commit_round(trace: &Trace) -> u64 {
        trace.commits.iter().find(|(_, c)| c[0] >= 1).unwrap().0
    }

    #[test]
    fn decided_slots_go_quiet_once_every_peer_committed() {
        let mut replicas = pbft_replicas(6);
        let trace = lockstep(&mut replicas, 1..=40, all_links, honest);
        let mut quiet = 0;
        for slot in 0..8 {
            let Some(&(r, _)) = trace
                .commits
                .iter()
                .find(|(_, c)| c.iter().all(|&k| k > slot))
            else {
                continue;
            };
            let slot = slot as Slot;
            // One round of lingering votes: the peers' watermarks still
            // predate the decision.
            assert!(
                (0..4).any(|p| trace.carried(r + 1, p, slot)),
                "slot {slot}: lingering votes ship in round {}",
                r + 1
            );
            for rr in r + 2..=40 {
                for p in 0..4 {
                    assert!(
                        !trace.carried(rr, p, slot),
                        "slot {slot} committed everywhere in round {r}, \
                         yet p{p} ships it in round {rr}"
                    );
                }
            }
            quiet += 1;
        }
        assert!(quiet >= 5, "only {quiet} slots committed everywhere");
    }

    /// PBFT n = 4 with p3 crashed: in slot 0's deciding round only p0 hears
    /// the votes. One claimant is below the `b + 1` claim threshold, so
    /// p1 and p2 can only decide from p0's lingering votes.
    fn lone_decider(linger: u64) -> (u64, Trace) {
        let crashed = |_: u64, p: usize, out| if p == 3 { None } else { out };
        let decide = first_commit_round(&lockstep(
            &mut pbft_replicas(linger),
            1..=20,
            all_links,
            crashed,
        ));
        let lossy = move |r: u64, _: usize, to: usize| r != decide || to == 0;
        let trace = lockstep(&mut pbft_replicas(linger), 1..=30, lossy, crashed);
        (decide, trace)
    }

    #[test]
    fn lingering_votes_carry_laggards_past_a_lone_decider() {
        let (decide, trace) = lone_decider(6);
        assert_eq!(trace.commit_of(decide, 0), 1, "p0 decides alone");
        assert_eq!(trace.commit_of(decide, 1), 0);
        assert_eq!(trace.commit_of(decide, 2), 0);
        let within = decide + 5;
        assert!(
            trace.commit_of(within, 1) >= 1 && trace.commit_of(within, 2) >= 1,
            "p1 and p2 commit slot 0 within the linger window"
        );
        // Without lingering the same schedule strands them for good.
        let (_, trace) = lone_decider(0);
        assert_eq!(trace.commit_of(30, 1), 0);
        assert_eq!(trace.commit_of(30, 2), 0);
    }

    #[test]
    fn a_lowered_watermark_brings_claims_back() {
        let mut replicas = pbft_replicas(6);
        let before = lockstep(&mut replicas, 1..=20, all_links, honest);
        let caught_up = before.commit_of(20, 0);
        assert!(caught_up >= 4);
        assert!(
            !before.carried(20, 0, 0),
            "slot 0 went quiet long before the restart"
        );
        // p3 restarts empty: its watermark drops to 0 and it works slot 0
        // again, which only decision claims can still settle.
        let spec = pbft::<u64>(4, 1).unwrap();
        replicas[3] = Replica::new(ProcessId::new(3), spec.params, vec![], 0, usize::MAX).unwrap();
        let after = lockstep(&mut replicas, 21..=45, all_links, honest);
        assert!(
            (22..=24).any(|r| after.carried(r, 0, 0)),
            "p0 claims slot 0 for the restarted peer"
        );
        assert!(
            after.commit_of(45, 3) >= caught_up,
            "the restarted peer catches up by claims"
        );
    }

    #[test]
    fn a_byzantine_watermark_cannot_silence_votes_a_laggard_needs() {
        for advertised in [0, u64::MAX] {
            // p3 ships nothing but a watermark, so TD needs p0, p1 and p2.
            let byzantine = move |_: u64, p: usize, out| {
                if p == 3 {
                    let mut forged = SmrMsg::new();
                    forged.set_committed_len(advertised);
                    Some(forged)
                } else {
                    out
                }
            };
            let decide = first_commit_round(&lockstep(
                &mut pbft_replicas(6),
                1..=20,
                all_links,
                byzantine,
            ));
            let lossy = move |r: u64, _: usize, to: usize| r != decide || to == 0;
            let trace = lockstep(&mut pbft_replicas(6), 1..=30, lossy, byzantine);
            assert_eq!(trace.commit_of(decide, 1), 0, "p1 missed the decision");
            assert!(
                trace.carried(decide + 2, 0, 0),
                "watermark {advertised}: p0 keeps voting for the laggards"
            );
            assert!(
                trace.commit_of(decide + 5, 1) >= 1 && trace.commit_of(decide + 5, 2) >= 1,
                "watermark {advertised}: the laggards commit slot 0"
            );
        }
    }

    #[test]
    fn accessors_and_debug() {
        let spec = pbft::<u64>(4, 1).unwrap();
        let r = Replica::new(ProcessId::new(1), spec.params.clone(), vec![5], 0, 1).unwrap();
        assert_eq!(r.committed(), &[] as &[u64]);
        assert_eq!(r.pending(), &[5]);
        assert!(r.open_slots().is_empty());
        let dbg = format!("{r:?}");
        assert!(dbg.contains("p1"));
    }
}
