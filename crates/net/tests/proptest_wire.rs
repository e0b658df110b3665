//! Property tests for the SMR-layer wire codec: random `Batch`/`SmrMsg`
//! bundles round-trip exactly, every strict truncation is rejected, and
//! arbitrary corruption never panics the decoder — the guarantees a server
//! needs before feeding network bytes from untrusted peers into the log.

use bytes::{Buf, Bytes};
use proptest::prelude::*;

use gencon_core::{ConsensusMsg, DecisionMsg, History, SelectionMsg, ValidationMsg};
use gencon_net::{decode_state, encode_state, Envelope, SnapshotManifest, SyncFrame, Wire};
use gencon_smr::SmrMsg;
use gencon_types::{Batch, Phase, ProcessId, ProcessSet, Round};

fn batches() -> impl Strategy<Value = Batch<u64>> {
    proptest::collection::vec(any::<u64>(), 0..12).prop_map(Batch::new)
}

fn phases() -> impl Strategy<Value = Phase> {
    (0u64..1_000).prop_map(Phase::new)
}

fn histories() -> impl Strategy<Value = History<Batch<u64>>> {
    proptest::collection::vec((batches(), phases()), 0..4).prop_map(|entries| {
        let mut h = History::new();
        for (v, p) in entries {
            h.record(v, p);
        }
        h
    })
}

fn psets() -> impl Strategy<Value = ProcessSet> {
    proptest::collection::vec(0usize..64, 0..8)
        .prop_map(|ids| ids.into_iter().map(ProcessId::new).collect())
}

fn consensus_msgs() -> impl Strategy<Value = ConsensusMsg<Batch<u64>>> {
    (0u8..3, 0u8..2, phases(), batches(), phases(), histories()).prop_flat_map(
        |(variant, some, phase, vote, ts, history)| {
            psets().prop_map(move |selector| match variant {
                0 => ConsensusMsg::Selection(
                    phase,
                    SelectionMsg {
                        vote: vote.clone(),
                        ts,
                        history: history.clone(),
                        selector,
                    },
                ),
                1 => ConsensusMsg::Validation(
                    phase,
                    ValidationMsg {
                        select: (some == 1).then(|| vote.clone()),
                        validators: selector,
                    },
                ),
                _ => ConsensusMsg::Decision(
                    phase,
                    DecisionMsg {
                        vote: vote.clone(),
                        ts,
                    },
                ),
            })
        },
    )
}

fn bundles() -> impl Strategy<Value = SmrMsg<Batch<u64>>> {
    (
        proptest::collection::vec((0u64..64, consensus_msgs()), 0..5),
        proptest::collection::vec((0u64..64, batches()), 0..4),
        proptest::collection::vec(batches(), 0..3),
        any::<u64>(),
    )
        .prop_map(|(slots, claims, relays, watermark)| {
            let mut m = SmrMsg::new();
            m.set_committed_len(watermark);
            for (slot, msg) in slots {
                m.push(slot, msg);
            }
            for (slot, v) in claims {
                m.push_claim(slot, v);
            }
            for v in relays {
                m.push_relay(v);
            }
            m
        })
}

fn sync_frames() -> impl Strategy<Value = SyncFrame<SmrMsg<Batch<u64>>>> {
    (
        0u8..5,
        bundles(),
        0usize..gencon_types::MAX_PROCESSES,
        1u64..1_000_000,
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(variant, bundle, sender, number, state)| {
            let sender = ProcessId::new(sender);
            match variant {
                0 => SyncFrame::Round(Envelope {
                    sender,
                    round: Round::new(number),
                    msg: bundle,
                }),
                1 => SyncFrame::SnapshotRequest {
                    sender,
                    have_slot: number,
                },
                2 => SyncFrame::Manifest {
                    sender,
                    manifest: SnapshotManifest::describe(number, number / 2, &state),
                },
                3 => SyncFrame::ChunkRequest {
                    sender,
                    upto_slot: number,
                    index: (number % 7) as u32,
                },
                _ => SyncFrame::Chunk {
                    sender,
                    upto_slot: number,
                    index: (number % 7) as u32,
                    crc: gencon_crypto::crc32::crc32(&state),
                    bytes: state,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_roundtrips(b in batches()) {
        let bytes = b.to_bytes();
        prop_assert_eq!(bytes.len(), b.encoded_len());
        let mut buf = bytes;
        prop_assert_eq!(Batch::<u64>::decode(&mut buf).unwrap(), b);
        prop_assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn smr_bundle_roundtrips(m in bundles()) {
        let bytes = m.to_bytes();
        let mut buf = bytes;
        prop_assert_eq!(SmrMsg::<Batch<u64>>::decode(&mut buf).unwrap(), m);
        prop_assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn smr_envelope_roundtrips(
        m in bundles(),
        sender in 0usize..gencon_types::MAX_PROCESSES,
        round in 1u64..1_000_000,
    ) {
        let env = Envelope {
            sender: ProcessId::new(sender),
            round: Round::new(round),
            msg: m,
        };
        let bytes = env.to_bytes();
        let mut buf = bytes;
        prop_assert_eq!(
            Envelope::<SmrMsg<Batch<u64>>>::decode(&mut buf).unwrap(),
            env
        );
        prop_assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn every_truncation_is_rejected(m in bundles(), cut in 0usize..4_096) {
        let bytes = m.to_bytes();
        // Cuts are strict prefixes (an empty bundle still encodes its
        // three zero length prefixes, so the modulus is never zero).
        let cut = cut % bytes.len().max(1);
        let mut short = bytes.slice(0..cut);
        prop_assert!(
            SmrMsg::<Batch<u64>>::decode(&mut short).is_err(),
            "prefix of length {} of {} decoded",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn corruption_never_panics(
        m in bundles(),
        pos in 0usize..4_096,
        flip in 1u8..=255,
    ) {
        let bytes = m.to_bytes();
        let mut raw = bytes.to_vec();
        if raw.is_empty() {
            return Ok(());
        }
        let pos = pos % raw.len();
        raw[pos] ^= flip;
        let mut buf = Bytes::from(raw);
        // Must not panic or over-allocate; failure and success are both
        // acceptable outcomes for a corrupted frame.
        let _ = SmrMsg::<Batch<u64>>::decode(&mut buf);
    }

    #[test]
    fn random_garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = Bytes::from(raw);
        let _ = SmrMsg::<Batch<u64>>::decode(&mut buf);
        let mut buf2 = Bytes::from(vec![0xffu8; 64]);
        let _ = Envelope::<SmrMsg<Batch<u64>>>::decode(&mut buf2);
    }

    #[test]
    fn sync_frames_roundtrip(
        frame in sync_frames(),
    ) {
        let bytes = frame.to_bytes();
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        let mut buf = bytes;
        prop_assert_eq!(SyncFrame::<SmrMsg<Batch<u64>>>::decode(&mut buf).unwrap(), frame);
        prop_assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn sync_frame_truncations_are_rejected(frame in sync_frames(), cut in 0usize..4_096) {
        let bytes = frame.to_bytes();
        let cut = cut % bytes.len().max(1);
        let mut short = bytes.slice(0..cut);
        prop_assert!(
            SyncFrame::<SmrMsg<Batch<u64>>>::decode(&mut short).is_err(),
            "prefix of length {} of {} decoded",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn sync_frame_corruption_never_panics(
        frame in sync_frames(),
        pos in 0usize..4_096,
        flip in 1u8..=255,
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = frame.to_bytes();
        let mut corrupted = bytes.to_vec();
        let pos = pos % corrupted.len().max(1);
        if !corrupted.is_empty() {
            corrupted[pos] ^= flip;
        }
        let mut buf = Bytes::from(corrupted);
        let _ = SyncFrame::<SmrMsg<Batch<u64>>>::decode(&mut buf);
        let mut garbage = Bytes::from(raw);
        let _ = SyncFrame::<SmrMsg<Batch<u64>>>::decode(&mut garbage);
    }

    #[test]
    fn snapshot_state_roundtrips_and_rejects_truncation(
        pairs in proptest::collection::vec((any::<u64>(), 0u64..100_000), 0..64),
        cut_frac in 0u64..10_000,
    ) {
        let state = encode_state(&pairs);
        prop_assert_eq!(decode_state::<u64>(&state).unwrap(), pairs);
        let cut = (cut_frac as usize * state.len()) / 10_000;
        if cut < state.len() {
            prop_assert!(decode_state::<u64>(&state[..cut]).is_err());
        }
    }
}
