//! The segmented append-only file WAL.
//!
//! # On-disk layout
//!
//! A data directory holds numbered segment files plus the last
//! [`WalConfig::snapshot_keep`] snapshot cuts:
//!
//! ```text
//! data-dir/
//!   snapshot-00000000000000000384.bin  # an older retained cut
//!   snapshot-00000000000000000512.bin  # the newest cut (recovery point)
//!   wal-00000000000000000000.seg
//!   wal-00000000000000000512.seg   # first slot of the segment, zero-padded
//! ```
//!
//! (A legacy single-snapshot layout's `snapshot.bin` is still read and
//! counts as one retained cut.) Only the **newest** cut drives recovery
//! and compaction; older cuts are kept so a laggard that started a state
//! transfer against a slightly older manifest can finish fetching it.
//! Recovery prefers the newest cut that verifies: a corrupt newest
//! snapshot falls back to the next older one instead of discarding
//! snapshot state entirely.
//!
//! Each segment starts with a 16-byte header and then CRC-framed records:
//!
//! ```text
//! header:  | magic "GCWS" (4) | version u32 (4) | first_slot u64 (8) |
//! record:  | len u32 | crc32 u32 | slot u64 | payload (len bytes) |
//! ```
//!
//! `len` is the payload length; the CRC covers `slot ‖ payload`. All
//! integers are little-endian, matching the `gencon-net` wire format.
//!
//! # Recovery semantics
//!
//! [`FileWal::open`] replays the snapshot (if present and verifiable) and
//! then every segment in slot order. The replay is **prefix-exact**: the
//! first truncated, corrupted, oversized or out-of-order record ends the
//! log — the torn tail is cut off (the file is truncated at the last good
//! record, later segments are deleted) and everything before it is
//! returned. A `kill -9` mid-append therefore loses at most the staged
//! suffix after the last sync point, never a synced record, and replay can
//! never invent a record that was not written (CRC framing).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::{Log, Slot, Snapshot, SnapshotMeta};
use gencon_crypto::crc32::crc32;

const SEGMENT_MAGIC: &[u8; 4] = b"GCWS";
const SNAPSHOT_MAGIC: &[u8; 4] = b"GCSN";
const VERSION: u32 = 1;
const SEGMENT_HEADER: u64 = 16;
const RECORD_HEADER: usize = 16;
/// Replay rejects record payloads past this cap before allocating — a
/// corrupted length field cannot force a huge allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// Group-commit and rollover tuning for [`FileWal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Group-commit window: [`Log::maybe_sync`] fsyncs at most this often.
    /// `Duration::ZERO` syncs on every call (strictest durability).
    pub fsync_interval: Duration,
    /// A segment rolls over once its byte size reaches this threshold.
    pub segment_bytes: u64,
    /// Snapshot cuts retained on disk (minimum 1). The newest cut is the
    /// recovery/compaction point; older cuts stay fetchable via
    /// [`Log::read_snapshot_at`] for laggards mid-transfer.
    pub snapshot_keep: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync_interval: Duration::from_millis(5),
            segment_bytes: 4 << 20,
            snapshot_keep: 2,
        }
    }
}

/// What [`FileWal::open`] reconstructed from disk.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// The installed snapshot, verified against its state hash.
    pub snapshot: Option<Snapshot>,
    /// Replayed records above the snapshot point, in slot order.
    pub records: Vec<(Slot, Vec<u8>)>,
    /// Bytes cut off the tail (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Segments dropped because they followed a torn record.
    pub dropped_segments: usize,
    /// Whether a snapshot file existed but failed verification (it is
    /// ignored; the log is replayed from its oldest segment instead).
    pub snapshot_corrupt: bool,
}

/// One on-disk segment.
#[derive(Clone, Debug)]
struct Segment {
    first_slot: Slot,
    path: PathBuf,
}

/// The segmented file WAL (see the module docs for format and recovery
/// semantics).
#[derive(Debug)]
pub struct FileWal {
    dir: PathBuf,
    cfg: WalConfig,
    /// Closed segments, in slot order (the open segment is not listed).
    closed: Vec<Segment>,
    current: File,
    current_path: PathBuf,
    current_first: Slot,
    current_bytes: u64,
    next_slot: Slot,
    durable: Option<Slot>,
    /// Records appended since the last sync point.
    staged: bool,
    last_sync: Instant,
    /// Retained snapshot cuts, oldest first; the last entry is the
    /// newest cut (recovery/compaction point).
    snapshots: Vec<(SnapshotMeta, PathBuf)>,
    bytes_appended: u64,
    syncs: u64,
}

fn segment_path(dir: &Path, first_slot: Slot) -> PathBuf {
    dir.join(format!("wal-{first_slot:020}.seg"))
}

fn snapshot_path(dir: &Path, upto: Slot) -> PathBuf {
    dir.join(format!("snapshot-{upto:020}.bin"))
}

/// Fsyncs the directory itself, pinning renames, creations and deletions
/// of entries — file-level fsync alone does not make a rename durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn write_segment_header(file: &mut File, first_slot: Slot) -> io::Result<()> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER as usize);
    header.extend_from_slice(SEGMENT_MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&first_slot.to_le_bytes());
    file.write_all(&header)
}

impl FileWal {
    /// Opens (or creates) the WAL under `dir`, replaying what is on disk.
    ///
    /// # Errors
    ///
    /// Propagates directory/file I/O errors. Corruption is **not** an
    /// error: a torn tail is truncated, a corrupt snapshot is ignored, and
    /// both are reported in [`Recovery`].
    pub fn open(dir: impl AsRef<Path>, cfg: WalConfig) -> io::Result<(FileWal, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut recovery = Recovery::default();

        // --- snapshots: every retained cut, newest-valid wins ---
        let mut candidates: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let retained_cut = name
                .strip_prefix("snapshot-")
                .and_then(|rest| rest.strip_suffix(".bin"))
                .is_some_and(|num| num.parse::<Slot>().is_ok());
            if retained_cut || name == "snapshot.bin" {
                candidates.push(entry.path());
            }
        }
        let mut snapshots: Vec<(SnapshotMeta, PathBuf)> = Vec::new();
        for path in candidates {
            match read_snapshot_file(&path)? {
                Some(snap) => {
                    snapshots.push((snap.meta, path));
                    if recovery
                        .snapshot
                        .as_ref()
                        .is_none_or(|best| best.meta.upto_slot < snap.meta.upto_slot)
                    {
                        // The newest cut that verifies drives recovery;
                        // a corrupt newer file simply never gets here.
                        recovery.snapshot = Some(snap);
                    }
                }
                None => recovery.snapshot_corrupt = true,
            }
        }
        snapshots.sort_by_key(|(m, _)| m.upto_slot);
        // The same cut under both layouts (legacy + numbered) is one cut.
        snapshots.dedup_by_key(|(m, _)| m.upto_slot);
        let replay_from = recovery.snapshot.as_ref().map_or(0, |s| s.meta.upto_slot);

        // --- segments, in slot order ---
        let mut segments: Vec<Segment> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".seg"))
            {
                if let Ok(first_slot) = num.parse::<Slot>() {
                    segments.push(Segment {
                        first_slot,
                        path: entry.path(),
                    });
                }
            }
        }
        segments.sort_by_key(|s| s.first_slot);

        // --- replay ---
        let mut expected = replay_from;
        let mut torn = false;
        let mut live: Vec<Segment> = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            if torn {
                // Everything after a torn record is unreachable log space.
                fs::remove_file(&seg.path).ok();
                recovery.dropped_segments += 1;
                continue;
            }
            let next_first = segments.get(i + 1).map(|s| s.first_slot);
            if next_first.is_some_and(|nf| nf <= replay_from) {
                // The whole segment sits below the snapshot: compaction
                // leftovers from a crash between snapshot install and
                // segment deletion.
                fs::remove_file(&seg.path).ok();
                continue;
            }
            match replay_segment(&seg.path, replay_from, &mut expected, &mut recovery.records)? {
                SegmentReplay::Clean => live.push(seg.clone()),
                SegmentReplay::Torn { keep_bytes } => {
                    torn = true;
                    let size = fs::metadata(&seg.path).map(|m| m.len()).unwrap_or(0);
                    recovery.truncated_bytes += size.saturating_sub(keep_bytes);
                    if keep_bytes < SEGMENT_HEADER {
                        // Even the header is bad: the file cannot serve as
                        // an append tail, drop it entirely.
                        fs::remove_file(&seg.path).ok();
                    } else {
                        let f = OpenOptions::new().write(true).open(&seg.path)?;
                        f.set_len(keep_bytes)?;
                        f.sync_all()?;
                        live.push(seg.clone());
                    }
                }
            }
        }

        let next_slot = expected;

        // --- open the tail segment for appending ---
        let (current, current_path, current_first, current_bytes, closed) = match live.pop() {
            Some(tail) => {
                let mut f = OpenOptions::new().append(true).open(&tail.path)?;
                let bytes = f.seek(SeekFrom::End(0))?;
                (f, tail.path.clone(), tail.first_slot, bytes, live)
            }
            None => {
                let path = segment_path(&dir, next_slot);
                let mut f = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .open(&path)?;
                write_segment_header(&mut f, next_slot)?;
                (f, path, next_slot, SEGMENT_HEADER, live)
            }
        };

        // Everything replayed is on disk; one sync pins the (possibly
        // truncated) tail — and the directory, covering any segment we
        // created, truncated or removed — making the recovered prefix
        // the durable baseline.
        current.sync_all()?;
        sync_dir(&dir)?;
        let durable = if next_slot > 0 {
            Some(next_slot - 1)
        } else {
            None
        };

        let wal = FileWal {
            dir,
            cfg,
            closed,
            current,
            current_path,
            current_first,
            current_bytes,
            next_slot,
            durable,
            staged: false,
            last_sync: Instant::now(),
            snapshots,
            bytes_appended: 0,
            syncs: 0,
        };
        Ok((wal, recovery))
    }

    /// The data directory this WAL lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of segment files (closed + the append tail).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.closed.len() + 1
    }

    fn roll_segment(&mut self) -> io::Result<()> {
        self.current.sync_all()?;
        self.closed.push(Segment {
            first_slot: self.current_first,
            path: self.current_path.clone(),
        });
        let path = segment_path(&self.dir, self.next_slot);
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        write_segment_header(&mut f, self.next_slot)?;
        self.current = f;
        self.current_path = path;
        self.current_first = self.next_slot;
        self.current_bytes = SEGMENT_HEADER;
        sync_dir(&self.dir)
    }
}

enum SegmentReplay {
    Clean,
    /// Replay hit a bad record; keep the file's first `keep_bytes` bytes.
    Torn {
        keep_bytes: u64,
    },
}

/// Replays one segment, appending good records at or above `floor` to
/// `out` and advancing `expected` (the next contiguous slot).
fn replay_segment(
    path: &Path,
    floor: Slot,
    expected: &mut Slot,
    out: &mut Vec<(Slot, Vec<u8>)>,
) -> io::Result<SegmentReplay> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < SEGMENT_HEADER as usize
        || &data[0..4] != SEGMENT_MAGIC
        || u32::from_le_bytes([data[4], data[5], data[6], data[7]]) != VERSION
    {
        return Ok(SegmentReplay::Torn { keep_bytes: 0 });
    }
    let mut off = SEGMENT_HEADER as usize;
    loop {
        if off == data.len() {
            return Ok(SegmentReplay::Clean);
        }
        if data.len() - off < RECORD_HEADER {
            return Ok(SegmentReplay::Torn {
                keep_bytes: off as u64,
            });
        }
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        let crc = u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
        if len > MAX_RECORD_BYTES || data.len() - off - RECORD_HEADER < len {
            return Ok(SegmentReplay::Torn {
                keep_bytes: off as u64,
            });
        }
        let body = &data[off + 8..off + RECORD_HEADER + len]; // slot ‖ payload
        if crc32(body) != crc {
            return Ok(SegmentReplay::Torn {
                keep_bytes: off as u64,
            });
        }
        let slot = Slot::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        if slot >= floor {
            if slot != *expected {
                // Out-of-order or gapped slot: not a valid continuation.
                return Ok(SegmentReplay::Torn {
                    keep_bytes: off as u64,
                });
            }
            out.push((slot, body[8..].to_vec()));
            *expected += 1;
        }
        off += RECORD_HEADER + len;
    }
}

/// Snapshot file format:
/// `magic "GCSN" | version u32 | upto u64 | applied_len u64 | hash [32] |
/// state_len u32 | state | crc32 u32` (CRC over everything after the
/// magic, before the CRC).
fn read_snapshot_file(path: &Path) -> io::Result<Option<Snapshot>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    const FIXED: usize = 4 + 4 + 8 + 8 + 32 + 4 + 4;
    if data.len() < FIXED || &data[0..4] != SNAPSHOT_MAGIC {
        return Ok(None);
    }
    if u32::from_le_bytes(data[4..8].try_into().expect("4")) != VERSION {
        return Ok(None);
    }
    let upto = u64::from_le_bytes(data[8..16].try_into().expect("8"));
    let applied_len = u64::from_le_bytes(data[16..24].try_into().expect("8"));
    let mut state_hash = [0u8; 32];
    state_hash.copy_from_slice(&data[24..56]);
    let state_len = u32::from_le_bytes(data[56..60].try_into().expect("4")) as usize;
    if data.len() != FIXED + state_len {
        return Ok(None);
    }
    let state_end = 60 + state_len;
    let crc = u32::from_le_bytes(data[state_end..state_end + 4].try_into().expect("4"));
    if crc32(&data[4..state_end]) != crc {
        return Ok(None);
    }
    let snap = Snapshot {
        meta: SnapshotMeta {
            upto_slot: upto,
            applied_len,
            state_hash,
        },
        state: data[60..state_end].to_vec(),
    };
    if !snap.verify() {
        return Ok(None);
    }
    Ok(Some(snap))
}

fn write_snapshot_file(path: &Path, snap: &Snapshot) -> io::Result<()> {
    let mut data = Vec::with_capacity(60 + snap.state.len() + 4);
    data.extend_from_slice(SNAPSHOT_MAGIC);
    data.extend_from_slice(&VERSION.to_le_bytes());
    data.extend_from_slice(&snap.meta.upto_slot.to_le_bytes());
    data.extend_from_slice(&snap.meta.applied_len.to_le_bytes());
    data.extend_from_slice(&snap.meta.state_hash);
    data.extend_from_slice(&(snap.state.len() as u32).to_le_bytes());
    data.extend_from_slice(&snap.state);
    let crc = crc32(&data[4..]);
    data.extend_from_slice(&crc.to_le_bytes());
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    f.write_all(&data)?;
    f.sync_all()
}

impl Log for FileWal {
    fn append(&mut self, slot: Slot, payload: &[u8]) -> io::Result<()> {
        if slot != self.next_slot {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("append slot {slot}, expected {}", self.next_slot),
            ));
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&slot.to_le_bytes());
        body.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.current.write_all(&frame)?;
        self.current_bytes += frame.len() as u64;
        self.bytes_appended += payload.len() as u64;
        self.next_slot += 1;
        self.staged = true;
        if self.current_bytes >= self.cfg.segment_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.staged {
            self.current.sync_data()?;
            self.staged = false;
            self.syncs += 1;
        }
        self.last_sync = Instant::now();
        if self.next_slot > 0 {
            self.durable = Some(
                self.durable
                    .map_or(self.next_slot - 1, |d| d.max(self.next_slot - 1)),
            );
        }
        Ok(())
    }

    fn maybe_sync(&mut self) -> io::Result<bool> {
        if self.staged && self.last_sync.elapsed() >= self.cfg.fsync_interval {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    fn durable_slot(&self) -> Option<Slot> {
        self.durable
    }

    fn next_slot(&self) -> Slot {
        self.next_slot
    }

    fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.snapshots.last().map(|(m, _)| *m)
    }

    fn snapshot_metas(&self) -> Vec<SnapshotMeta> {
        self.snapshots.iter().map(|(m, _)| *m).collect()
    }

    fn read_snapshot(&self) -> io::Result<Option<Snapshot>> {
        let Some((_, path)) = self.snapshots.last() else {
            return Ok(None);
        };
        read_snapshot_file(path)
    }

    fn read_snapshot_at(&self, upto: Slot) -> io::Result<Option<Snapshot>> {
        let Some((_, path)) = self.snapshots.iter().find(|(m, _)| m.upto_slot == upto) else {
            return Ok(None);
        };
        read_snapshot_file(path)
    }

    fn install_snapshot(&mut self, snap: &Snapshot) -> io::Result<()> {
        if !snap.verify() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot state hash mismatch",
            ));
        }
        let upto = snap.meta.upto_slot;
        // Atomic install: full tmp write + fsync, then rename into the
        // cut's numbered file. A crash leaves either the old cut set or
        // the old set plus the new cut, never a torn file (recovery
        // verifies the CRC + state hash anyway).
        let path = snapshot_path(&self.dir, upto);
        let tmp = self.dir.join("snapshot.tmp");
        write_snapshot_file(&tmp, snap)?;
        fs::rename(&tmp, &path)?;
        // The rename (and, below, segment deletion/creation) must itself
        // be durable before the watermark advances past the snapshot — a
        // file-level fsync does not persist directory entries.
        sync_dir(&self.dir)?;
        self.snapshots.retain(|(m, _)| m.upto_slot != upto);
        self.snapshots.push((snap.meta, path));
        self.snapshots.sort_by_key(|(m, _)| m.upto_slot);
        // Prune: the oldest cuts fall off past the retention bound, and a
        // legacy-layout `snapshot.bin` not serving as a retained cut goes
        // with them.
        while self.snapshots.len() > self.cfg.snapshot_keep.max(1) {
            let (_, old) = self.snapshots.remove(0);
            fs::remove_file(&old).ok();
        }
        let legacy = self.dir.join("snapshot.bin");
        if self.snapshots.iter().all(|(_, p)| *p != legacy) {
            fs::remove_file(&legacy).ok();
        }

        // Compact: closed segments entirely below the snapshot disappear.
        // (A segment's range ends where the next begins.)
        let mut bounds: Vec<Slot> = self.closed.iter().map(|s| s.first_slot).collect();
        bounds.push(self.current_first);
        let mut keep = Vec::new();
        for (i, seg) in self.closed.drain(..).enumerate() {
            if bounds[i + 1] <= upto {
                fs::remove_file(&seg.path).ok();
            } else {
                keep.push(seg);
            }
        }
        self.closed = keep;

        if upto >= self.next_slot {
            // The snapshot covers the whole log (the state-transfer /
            // periodic-snapshot fast path): every segment is garbage and
            // appends resume at the snapshot point.
            fs::remove_file(&self.current_path).ok();
            self.next_slot = upto;
            let path = segment_path(&self.dir, upto);
            let mut f = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)?;
            write_segment_header(&mut f, upto)?;
            f.sync_all()?;
            self.current = f;
            self.current_path = path;
            self.current_first = upto;
            self.current_bytes = SEGMENT_HEADER;
            self.staged = false;
            sync_dir(&self.dir)?;
        }
        if upto > 0 {
            self.durable = Some(self.durable.map_or(upto - 1, |d| d.max(upto - 1)));
        }
        Ok(())
    }

    fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gencon-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn record(i: u64) -> Vec<u8> {
        format!("payload-{i}")
            .into_bytes()
            .repeat(1 + (i as usize % 3))
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let (mut wal, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert!(rec.records.is_empty() && rec.snapshot.is_none());
        for i in 0..20u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.durable_slot(), Some(19));
        drop(wal);

        let (wal, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 20);
        for (i, (slot, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*slot, i as u64);
            assert_eq!(payload, &record(i as u64));
        }
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(wal.next_slot(), 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_appends_survive_clean_drop() {
        // Drop without sync: the bytes were written to the OS, so a
        // process exit (as opposed to a machine crash) keeps them.
        let dir = tmpdir("nosync");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        wal.append(0, b"staged").unwrap();
        assert_eq!(wal.durable_slot(), None);
        drop(wal);
        let (_, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let dir = tmpdir("roll");
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (mut wal, _) = FileWal::open(&dir, cfg).unwrap();
        for i in 0..40u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 2, "small cap must roll segments");
        drop(wal);
        let (_, rec) = FileWal::open(&dir, cfg).unwrap();
        assert_eq!(rec.records.len(), 40);
        assert!(rec
            .records
            .iter()
            .enumerate()
            .all(|(i, (s, _))| *s == i as u64));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..10u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        let path = wal.current_path.clone();
        drop(wal);
        // Cut 5 bytes off the tail: the last record is torn.
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let (wal, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.records.len(), 9, "exactly the torn record is lost");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(wal.next_slot(), 9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_ends_the_replayed_prefix() {
        let dir = tmpdir("corrupt");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..10u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        let path = wal.current_path.clone();
        drop(wal);
        // Flip one byte in the middle of the file: some record's CRC fails
        // and everything from it on is dropped.
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let (_, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert!(rec.records.len() < 10, "corruption cuts the log");
        for (i, (slot, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*slot, i as u64);
            assert_eq!(payload, &record(i as u64), "surviving prefix is exact");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_installs_atomically_and_compacts() {
        let dir = tmpdir("snap");
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (mut wal, _) = FileWal::open(&dir, cfg).unwrap();
        for i in 0..30u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        assert!(before > 1);
        let snap = Snapshot::new(30, 123, b"the applied prefix".to_vec());
        wal.install_snapshot(&snap).unwrap();
        assert_eq!(wal.segment_count(), 1, "everything below 30 compacted");
        assert_eq!(wal.next_slot(), 30);
        assert_eq!(wal.snapshot_meta().unwrap().applied_len, 123);
        wal.append(30, b"after snapshot").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (_, rec) = FileWal::open(&dir, cfg).unwrap();
        let snap_back = rec.snapshot.expect("snapshot recovered");
        assert_eq!(snap_back, snap);
        assert_eq!(rec.records, vec![(30, b"after snapshot".to_vec())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_ignored_and_reported() {
        let dir = tmpdir("snapcorrupt");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..5u64 {
            wal.append(i, &record(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // A garbage snapshot file must not poison recovery.
        fs::write(dir.join("snapshot.bin"), b"not a snapshot").unwrap();
        let (_, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.snapshot_corrupt);
        assert_eq!(rec.records.len(), 5, "the log still replays");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tmpdir("group");
        let cfg = WalConfig {
            fsync_interval: Duration::from_millis(50),
            ..WalConfig::default()
        };
        let (mut wal, _) = FileWal::open(&dir, cfg).unwrap();
        for i in 0..50u64 {
            wal.append(i, b"x").unwrap();
            wal.maybe_sync().unwrap();
        }
        assert!(
            wal.syncs() < 10,
            "50 appends inside the window must share fsyncs, got {}",
            wal.syncs()
        );
        std::thread::sleep(Duration::from_millis(60));
        assert!(wal.maybe_sync().unwrap(), "window elapsed: syncs now");
        assert_eq!(wal.durable_slot(), Some(49));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_interval_syncs_every_call() {
        let dir = tmpdir("zero");
        let cfg = WalConfig {
            fsync_interval: Duration::ZERO,
            ..WalConfig::default()
        };
        let (mut wal, _) = FileWal::open(&dir, cfg).unwrap();
        wal.append(0, b"a").unwrap();
        assert!(wal.maybe_sync().unwrap());
        assert_eq!(wal.durable_slot(), Some(0));
        assert!(!wal.maybe_sync().unwrap(), "nothing staged");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_keeps_the_last_k_cuts() {
        let dir = tmpdir("retain");
        let cfg = WalConfig {
            snapshot_keep: 2,
            ..WalConfig::default()
        };
        let (mut wal, _) = FileWal::open(&dir, cfg).unwrap();
        for cut in [10u64, 20, 30] {
            let snap = Snapshot::new(cut, cut * 2, format!("state@{cut}").into_bytes());
            wal.install_snapshot(&snap).unwrap();
        }
        let metas = wal.snapshot_metas();
        assert_eq!(
            metas.iter().map(|m| m.upto_slot).collect::<Vec<_>>(),
            vec![20, 30],
            "oldest cut pruned, newest two retained"
        );
        assert_eq!(wal.snapshot_meta().unwrap().upto_slot, 30);
        // The older retained cut is still fetchable; the pruned one is not.
        let older = wal.read_snapshot_at(20).unwrap().expect("cut 20 retained");
        assert_eq!(older.state, b"state@20");
        assert!(wal.read_snapshot_at(10).unwrap().is_none());
        assert!(!snapshot_path(&dir, 10).exists(), "pruned file deleted");
        drop(wal);

        // Reopen: both cuts are rediscovered, the newest drives recovery.
        let (wal, rec) = FileWal::open(&dir, cfg).unwrap();
        assert_eq!(rec.snapshot.unwrap().meta.upto_slot, 30);
        assert_eq!(wal.snapshot_metas().len(), 2);
        assert_eq!(
            wal.read_snapshot_at(20).unwrap().unwrap().state,
            b"state@20"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_cut_falls_back_to_the_older_one() {
        let dir = tmpdir("fallback");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        wal.install_snapshot(&Snapshot::new(10, 5, b"older".to_vec()))
            .unwrap();
        wal.install_snapshot(&Snapshot::new(20, 9, b"newer".to_vec()))
            .unwrap();
        drop(wal);
        // Garbage the newest cut: recovery must fall back to cut 10.
        fs::write(snapshot_path(&dir, 20), b"garbage").unwrap();
        let (wal, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert!(rec.snapshot_corrupt);
        let snap = rec.snapshot.expect("older cut still recovers");
        assert_eq!(snap.meta.upto_slot, 10);
        assert_eq!(snap.state, b"older");
        assert_eq!(wal.snapshot_meta().unwrap().upto_slot, 10);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_single_snapshot_layout_still_recovers() {
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let snap = Snapshot::new(30, 123, b"legacy state".to_vec());
        write_snapshot_file(&dir.join("snapshot.bin"), &snap).unwrap();
        let (mut wal, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap(), &snap);
        assert_eq!(wal.next_slot(), 30);
        // A new cut supersedes the legacy file but keeps it as the older
        // retained cut until pruned.
        wal.append(30, b"tail").unwrap();
        wal.sync().unwrap();
        wal.install_snapshot(&Snapshot::new(31, 124, b"new state".to_vec()))
            .unwrap();
        assert_eq!(wal.snapshot_metas().len(), 2);
        assert_eq!(wal.read_snapshot_at(30).unwrap().unwrap(), snap);
        wal.install_snapshot(&Snapshot::new(32, 125, b"newer state".to_vec()))
            .unwrap();
        assert!(
            !dir.join("snapshot.bin").exists(),
            "legacy cut pruned at the retention bound"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_transfer_snapshot_fast_forwards_an_empty_wal() {
        let dir = tmpdir("transfer");
        let (mut wal, _) = FileWal::open(&dir, WalConfig::default()).unwrap();
        wal.append(0, b"old").unwrap();
        wal.sync().unwrap();
        let snap = Snapshot::new(500, 2000, b"transferred state".to_vec());
        wal.install_snapshot(&snap).unwrap();
        assert_eq!(wal.next_slot(), 500);
        assert_eq!(wal.durable_slot(), Some(499));
        wal.append(500, b"resumed").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = FileWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.unwrap().meta.upto_slot, 500);
        assert_eq!(rec.records, vec![(500, b"resumed".to_vec())]);
        fs::remove_dir_all(&dir).ok();
    }
}
