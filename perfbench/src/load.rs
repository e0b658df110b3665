//! The load process: one connection to the gateway, one reader thread,
//! open-loop and closed-loop phases, and the correctness check of every
//! reply against the log order the acks report.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gencon_app::{KvCmd, KvOp, KvReply};
use gencon_server::{read_frame, write_frame, ClientRequest, ClientResponse};

use crate::workload::{key_bytes, value_for, writer_of, Op};

type Resp = ClientResponse<KvCmd, KvReply>;

/// No ack for this long fails the run (every pending command counts as
/// failed).
pub const STALL: Duration = Duration::from_secs(20);
/// Pause before a bounced (backpressure) command is resubmitted.
const RETRY_AFTER: Duration = Duration::from_millis(1);

/// What the reply to one command said.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Stored {
        replaced: bool,
    },
    /// A get's value: the id of the put that wrote it, or `None` for a
    /// missing key.
    Read(Option<u64>),
    /// A reply of the wrong shape, or bytes no put wrote.
    Malformed,
}

#[derive(Clone, Debug)]
pub struct Rec {
    pub op: Op,
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    pub ack: Option<Instant>,
    pub offset: u64,
    pub slot: u64,
    pub outcome: Outcome,
}

pub fn connect(addr: SocketAddr, within: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + within;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn frame(id: u64, op: Op, value_bytes: usize) -> Vec<u8> {
    let kv = match op {
        Op::Put(k) => KvOp::Put {
            key: key_bytes(k),
            value: value_for(id, value_bytes),
        },
        Op::Get(k) => KvOp::Get { key: key_bytes(k) },
    };
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &ClientRequest::Submit {
            cmd: KvCmd { id, op: kv },
        },
    )
    .expect("writing to a Vec cannot fail");
    buf
}

/// Scheduled side actions of the open-loop phase (the crash workload).
pub trait Schedule {
    /// Called between sends; `elapsed` is time since the phase started.
    /// Returns how soon it wants to be called again.
    fn tick(&mut self, elapsed: Duration) -> Duration;
}

pub struct NoSchedule;

impl Schedule for NoSchedule {
    fn tick(&mut self, _: Duration) -> Duration {
        Duration::from_secs(3_600)
    }
}

pub struct Client {
    stream: TcpStream,
    rx: Receiver<(Instant, Resp)>,
    reader: Option<JoinHandle<()>>,
    value_bytes: usize,
    /// Record of command id `i + 1`.
    pub recs: Vec<Rec>,
    retries: VecDeque<(Instant, usize)>,
    pub bounced: u64,
    /// Send time minus due time, per open-loop command, in µs.
    pub lateness_us: Vec<f64>,
    inflight: usize,
    last_progress: Instant,
    pub stalled: bool,
    outbox: Vec<u8>,
}

impl Client {
    pub fn new(stream: TcpStream, value_bytes: usize) -> std::io::Result<Client> {
        let (tx, rx) = mpsc::channel();
        let mut rd = BufReader::new(stream.try_clone()?);
        let reader = std::thread::spawn(move || {
            while let Ok(resp) = read_frame::<_, Resp>(&mut rd) {
                if tx.send((Instant::now(), resp)).is_err() {
                    break;
                }
            }
        });
        Ok(Client {
            stream,
            rx,
            reader: Some(reader),
            value_bytes,
            recs: Vec::new(),
            retries: VecDeque::new(),
            bounced: 0,
            lateness_us: Vec::new(),
            inflight: 0,
            last_progress: Instant::now(),
            stalled: false,
            outbox: Vec::new(),
        })
    }

    /// Adds commands to the plan; returns their index range.
    pub fn plan(&mut self, ops: &[Op]) -> std::ops::Range<usize> {
        let start = self.recs.len();
        self.recs.extend(ops.iter().map(|&op| Rec {
            op,
            due: None,
            sent: None,
            ack: None,
            offset: 0,
            slot: 0,
            outcome: Outcome::Pending,
        }));
        start..self.recs.len()
    }

    /// Queues command `idx` in the outbox; [`Client::flush`] writes it.
    fn queue(&mut self, idx: usize) {
        let id = idx as u64 + 1;
        self.outbox
            .extend_from_slice(&frame(id, self.recs[idx].op, self.value_bytes));
        let rec = &mut self.recs[idx];
        if rec.sent.is_none() {
            rec.sent = Some(Instant::now());
            self.inflight += 1;
        }
    }

    /// Writes every queued command in one syscall.
    fn flush(&mut self) -> bool {
        let ok = self.stream.write_all(&self.outbox).is_ok();
        self.outbox.clear();
        ok
    }

    /// Sends command `idx` now.
    pub fn send(&mut self, idx: usize) -> bool {
        self.queue(idx);
        self.flush()
    }

    fn handle(&mut self, at: Instant, resp: Resp) {
        match resp {
            ClientResponse::Committed {
                cmd,
                slot,
                offset,
                reply,
            } => {
                let Some(rec) = usize::try_from(cmd.id)
                    .ok()
                    .and_then(|id| id.checked_sub(1))
                    .and_then(|i| self.recs.get_mut(i))
                else {
                    return;
                };
                if rec.ack.is_some() {
                    return; // a re-ack
                }
                rec.ack = Some(at);
                rec.offset = offset;
                rec.slot = slot;
                rec.outcome = match (rec.op, reply) {
                    (Op::Put(_), Some(KvReply::Stored { replaced })) => {
                        Outcome::Stored { replaced }
                    }
                    (Op::Get(_), Some(KvReply::Value(None))) => Outcome::Read(None),
                    (Op::Get(_), Some(KvReply::Value(Some(v)))) => {
                        match writer_of(&v, self.value_bytes) {
                            Some(w) => Outcome::Read(Some(w)),
                            None => Outcome::Malformed,
                        }
                    }
                    _ => Outcome::Malformed,
                };
                self.inflight -= 1;
                self.last_progress = at;
            }
            ClientResponse::Backpressure { cmd, .. } => {
                self.bounced += 1;
                if let Some(i) = (cmd.id as usize).checked_sub(1) {
                    self.retries.push_back((at + RETRY_AFTER, i));
                }
            }
            // Not queued: the command stays unacked and counts as failed.
            ClientResponse::Redirect { .. } => {}
        }
    }

    /// Waits up to `timeout` for responses and handles all that arrived;
    /// resubmits bounced commands that are due. Returns false once the
    /// connection is gone or the run stalled.
    fn pump(&mut self, timeout: Duration) -> bool {
        match self.rx.recv_timeout(timeout) {
            Ok((at, resp)) => {
                self.handle(at, resp);
                while let Ok((at, resp)) = self.rx.try_recv() {
                    self.handle(at, resp);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        let now = Instant::now();
        while self.retries.front().is_some_and(|(t, _)| *t <= now) {
            let (_, i) = self.retries.pop_front().expect("checked non-empty");
            self.queue(i);
        }
        if !self.outbox.is_empty() && !self.flush() {
            return false;
        }
        if self.inflight > 0 && now.duration_since(self.last_progress) > STALL {
            self.stalled = true;
            return false;
        }
        true
    }

    fn pump_wait(&self) -> Duration {
        match self.retries.front() {
            Some((t, _)) => t.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(50),
        }
    }

    /// Waits up to `timeout` for the ack of every command sent so far.
    pub fn settle(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.inflight > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.pump(left) {
                break;
            }
        }
    }

    /// Sends `range` with at most `window` in flight, each new command
    /// on an ack. Returns false if the run broke off.
    pub fn closed_loop(&mut self, range: std::ops::Range<usize>, window: usize) -> bool {
        let mut next = range.start;
        self.last_progress = Instant::now();
        loop {
            while next < range.end && self.inflight < window {
                self.queue(next);
                next += 1;
            }
            if !self.outbox.is_empty() && !self.flush() {
                return false;
            }
            if next >= range.end && self.inflight == 0 && self.retries.is_empty() {
                return true;
            }
            if !self.pump(self.pump_wait()) {
                return false;
            }
        }
    }

    /// Sends `range` at `rate` commands per second, each on its due time
    /// regardless of acks, then waits for the stragglers.
    pub fn open_loop(
        &mut self,
        range: std::ops::Range<usize>,
        rate: f64,
        schedule: &mut dyn Schedule,
    ) -> bool {
        let start = Instant::now();
        self.last_progress = start;
        let mut next_tick = Duration::ZERO;
        for (k, idx) in range.enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            self.recs[idx].due = Some(due);
            loop {
                let now = Instant::now();
                let elapsed = now.duration_since(start);
                if elapsed >= next_tick {
                    next_tick = elapsed + schedule.tick(elapsed);
                }
                if now >= due {
                    break;
                }
                let wake = (start + next_tick).min(due);
                let wait = wake.saturating_duration_since(now).min(self.pump_wait());
                if !self.pump(wait) {
                    return false;
                }
            }
            if !self.send(idx) {
                return false;
            }
            let late = self.recs[idx]
                .sent
                .expect("just sent")
                .saturating_duration_since(due);
            self.lateness_us.push(late.as_secs_f64() * 1e6);
        }
        while self.inflight > 0 || !self.retries.is_empty() {
            let elapsed = start.elapsed();
            if elapsed >= next_tick {
                next_tick = elapsed + schedule.tick(elapsed);
            }
            let wait = (start + next_tick)
                .saturating_duration_since(Instant::now())
                .min(self.pump_wait());
            if !self.pump(wait) {
                return false;
            }
        }
        // Let the schedule finish (e.g. a catch-up still being probed).
        loop {
            let elapsed = start.elapsed();
            let again = schedule.tick(elapsed);
            if again >= Duration::from_secs(3_600) {
                return true;
            }
            if elapsed > STALL * 2 {
                return true;
            }
            std::thread::sleep(again);
        }
    }

    /// Sends command `idx` over a short-lived connection to the gateway
    /// at `addr` and waits there for its ack. That replica acks only
    /// once it has applied the command, so this returns when it has
    /// caught up with the log at least that far.
    pub fn via(&mut self, addr: SocketAddr, idx: usize, within: Duration) -> bool {
        let Ok(stream) = connect(addr, within) else {
            return false;
        };
        let id = idx as u64 + 1;
        let request = frame(id, self.recs[idx].op, self.value_bytes);
        let mut writer = match stream.try_clone() {
            Ok(w) if stream.set_read_timeout(Some(within)).is_ok() => w,
            _ => return false,
        };
        if writer.write_all(&request).is_err() {
            return false;
        }
        self.recs[idx].sent = Some(Instant::now());
        self.inflight += 1;
        let mut rd = BufReader::new(stream);
        loop {
            let Ok(resp) = read_frame::<_, Resp>(&mut rd) else {
                return false;
            };
            match resp {
                ClientResponse::Backpressure { .. } => {
                    std::thread::sleep(RETRY_AFTER);
                    if writer.write_all(&request).is_err() {
                        return false;
                    }
                }
                resp => {
                    let done =
                        matches!(&resp, ClientResponse::Committed { cmd, .. } if cmd.id == id);
                    self.handle(Instant::now(), resp);
                    if done {
                        return true;
                    }
                }
            }
        }
    }

    /// Closes the connection and joins the reader thread.
    pub fn close(mut self) -> Vec<Rec> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        std::mem::take(&mut self.recs)
    }
}

/// One probe command on a second connection, read without a thread:
/// the crash workload asks the restarted replica to ack a fresh get,
/// which it can only do once it has caught up with the log.
pub struct Probe {
    stream: TcpStream,
    buf: Vec<u8>,
    pub acked: Option<(Instant, u64)>,
}

impl Probe {
    pub fn send(addr: SocketAddr, id: u64, key: u64) -> Option<Probe> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.write_all(&frame(id, Op::Get(key), 8)).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Probe {
            stream,
            buf: Vec::new(),
            acked: None,
        })
    }

    /// Reads whatever arrived; records the ack of command `id`.
    pub fn poll(&mut self, id: u64) {
        let mut chunk = [0u8; 4_096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        while self.buf.len() >= 4 {
            let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            let mut rd = &self.buf[..4 + len];
            if let Ok(ClientResponse::Committed { cmd, offset, .. }) =
                read_frame::<_, Resp>(&mut rd)
            {
                if cmd.id == id && self.acked.is_none() {
                    self.acked = Some((Instant::now(), offset));
                }
            }
            self.buf.drain(..4 + len);
        }
    }
}

/// Result of checking every acked reply against the log order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Check {
    pub unacked: u64,
    pub wrong_gets: u64,
    pub wrong_puts: u64,
    pub malformed: u64,
    pub duplicate_offsets: u64,
    pub get_hits: u64,
}

impl Check {
    pub fn failures(&self) -> u64 {
        self.unacked + self.wrong_gets + self.wrong_puts + self.malformed + self.duplicate_offsets
    }
}

/// Replays the acked commands in log-offset order against a model map:
/// each get must return the value of the last put to its key before it
/// in the log, each put must report whether the key already existed, and
/// no two commands may claim one offset. A put never acked may or may
/// not have landed; a get that names it is accepted.
pub fn check(recs: &[Rec]) -> Check {
    let mut c = Check::default();
    let mut by_offset: BTreeMap<u64, usize> = BTreeMap::new();
    let mut maybe_written: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        if r.ack.is_none() {
            c.unacked += 1;
            if let Op::Put(k) = r.op {
                maybe_written.entry(k).or_default().push(i as u64 + 1);
            }
        } else if by_offset.insert(r.offset, i).is_some() {
            c.duplicate_offsets += 1;
        }
    }
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &i in by_offset.values() {
        let r = &recs[i];
        let id = i as u64 + 1;
        match (r.op, &r.outcome) {
            (Op::Put(k), Outcome::Stored { replaced }) => {
                let existed = model.insert(k, id).is_some();
                if *replaced != existed && !maybe_written.contains_key(&k) {
                    c.wrong_puts += 1;
                }
            }
            (Op::Get(k), Outcome::Read(got)) => {
                if got.is_some() {
                    c.get_hits += 1;
                }
                let ok = *got == model.get(&k).copied()
                    || got.is_some_and(|g| maybe_written.get(&k).is_some_and(|v| v.contains(&g)));
                if !ok {
                    c.wrong_gets += 1;
                }
            }
            _ => c.malformed += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acked(op: Op, offset: u64, outcome: Outcome) -> Rec {
        Rec {
            op,
            due: None,
            sent: None,
            ack: Some(Instant::now()),
            offset,
            slot: 0,
            outcome,
        }
    }

    #[test]
    fn gets_must_read_the_last_put_in_log_order() {
        // ids 1..: put k0 (off 0), put k0 (off 2), get k0 (off 1) → id 1.
        let recs = vec![
            acked(Op::Put(0), 0, Outcome::Stored { replaced: false }),
            acked(Op::Put(0), 2, Outcome::Stored { replaced: true }),
            acked(Op::Get(0), 1, Outcome::Read(Some(1))),
            acked(Op::Get(0), 3, Outcome::Read(Some(2))),
            acked(Op::Get(5), 4, Outcome::Read(None)),
        ];
        let c = check(&recs);
        assert_eq!(c.failures(), 0, "{c:?}");
        assert_eq!(c.get_hits, 2);

        // A stale read after an acked overwrite is a lost write.
        let mut stale = recs.clone();
        stale[3].outcome = Outcome::Read(Some(1));
        assert_eq!(check(&stale).wrong_gets, 1);

        // Two commands claiming one offset.
        let mut dup = recs.clone();
        dup[4].offset = 3;
        assert_eq!(check(&dup).duplicate_offsets, 1);

        // A put that claims to overwrite a missing key.
        let mut bad_put = recs;
        bad_put[0].outcome = Outcome::Stored { replaced: true };
        assert_eq!(check(&bad_put).wrong_puts, 1);
    }

    #[test]
    fn unacked_puts_may_be_read_and_count_as_failed() {
        let mut lost = acked(Op::Put(3), 0, Outcome::Pending);
        lost.ack = None;
        let recs = vec![
            acked(Op::Put(3), 0, Outcome::Stored { replaced: false }),
            lost,
            acked(Op::Get(3), 1, Outcome::Read(Some(2))),
        ];
        let c = check(&recs);
        assert_eq!(c.unacked, 1);
        assert_eq!(c.wrong_gets, 0);
        let mut m = recs;
        m[2].outcome = Outcome::Malformed;
        assert_eq!(check(&m).malformed, 1);
    }
}
