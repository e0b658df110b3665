//! Wire encodings for the replicated-log layer: [`Batch`] values and
//! [`SmrMsg`] round bundles.
//!
//! These are the frames a real SMR deployment actually puts on the wire
//! (one [`SmrMsg`] bundle per replica per round, see `gencon-server`), so
//! the same decoder caps apply as for single-instance consensus messages:
//! every length field is validated against [`MAX_COLLECTION`] /
//! [`MAX_BYTES`] before any allocation, bounding what a Byzantine peer can
//! force.

use bytes::{Bytes, BytesMut};

use gencon_core::ConsensusMsg;
use gencon_smr::{Slot, SmrMsg};
use gencon_types::{Batch, Value};

#[allow(unused_imports)] // referenced by the module docs
use crate::wire::MAX_BYTES;
use crate::wire::{Wire, WireError, MAX_COLLECTION};

impl<V: Value + Wire> Wire for Batch<V> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for cmd in self.iter() {
            cmd.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        if len > MAX_COLLECTION {
            return Err(WireError::TooLong(len));
        }
        let mut commands = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            commands.push(V::decode(buf)?);
        }
        Ok(Batch::new(commands))
    }
}

impl<V: Value + Wire> Wire for SmrMsg<V> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.slot_count() as u32).encode(buf);
        for (slot, msg) in self.iter() {
            slot.encode(buf);
            msg.encode(buf);
        }
        (self.claims().len() as u32).encode(buf);
        for (slot, value) in self.claims() {
            slot.encode(buf);
            value.encode(buf);
        }
        (self.relays().len() as u32).encode(buf);
        for value in self.relays() {
            value.encode(buf);
        }
        self.committed_len().encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let mut bundle = SmrMsg::new();
        let slots = u32::decode(buf)? as usize;
        if slots > MAX_COLLECTION {
            return Err(WireError::TooLong(slots));
        }
        for _ in 0..slots {
            let slot = Slot::decode(buf)?;
            bundle.push(slot, ConsensusMsg::decode(buf)?);
        }
        let claims = u32::decode(buf)? as usize;
        if claims > MAX_COLLECTION {
            return Err(WireError::TooLong(claims));
        }
        for _ in 0..claims {
            let slot = Slot::decode(buf)?;
            bundle.push_claim(slot, V::decode(buf)?);
        }
        let relays = u32::decode(buf)? as usize;
        if relays > MAX_COLLECTION {
            return Err(WireError::TooLong(relays));
        }
        for _ in 0..relays {
            bundle.push_relay(V::decode(buf)?);
        }
        bundle.set_committed_len(u64::decode(buf)?);
        Ok(bundle)
    }
}

// Trailing-byte note: `SmrMsg` is always the *last* field of its envelope,
// and decoders are sequential, so the three length prefixes and the fixed
// 8-byte commit watermark fully delimit the bundle — no framing ambiguity
// against the outer length prefix.

#[cfg(test)]
mod tests {
    use super::*;
    use gencon_core::{DecisionMsg, SelectionMsg};
    use gencon_types::{Phase, ProcessSet};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len());
        let mut buf = bytes.clone();
        let back = T::decode(&mut buf).expect("decodes");
        assert_eq!(back, v);
        assert_eq!(bytes::Buf::remaining(&buf), 0, "no trailing bytes");
    }

    fn sample_bundle() -> SmrMsg<Batch<u64>> {
        let mut m = SmrMsg::new();
        m.push(
            0,
            ConsensusMsg::Selection(
                Phase::new(1),
                SelectionMsg {
                    vote: Batch::new(vec![10, 20]),
                    ts: Phase::ZERO,
                    history: gencon_core::History::new(),
                    selector: ProcessSet::new(),
                },
            ),
        );
        m.push(
            3,
            ConsensusMsg::Decision(
                Phase::new(2),
                DecisionMsg {
                    vote: Batch::empty(),
                    ts: Phase::new(2),
                },
            ),
        );
        m.push_claim(1, Batch::new(vec![7]));
        m.push_relay(Batch::new(vec![30, 40, 50]));
        m.set_committed_len(3);
        m
    }

    #[test]
    fn batch_roundtrips() {
        roundtrip(Batch::<u64>::empty());
        roundtrip(Batch::new(vec![1u64, 2, 3]));
        roundtrip(Batch::new(vec![u64::MAX]));
        roundtrip(Batch::new((0..100u64).collect()));
    }

    #[test]
    fn smr_bundle_roundtrips() {
        roundtrip(SmrMsg::<Batch<u64>>::new());
        roundtrip(sample_bundle());
        let mut extreme = sample_bundle();
        extreme.set_committed_len(u64::MAX);
        roundtrip(extreme);
        // The watermark is the bundle's last 8 bytes, little-endian.
        let bytes = sample_bundle().to_bytes();
        assert_eq!(bytes[bytes.len() - 8..], 3u64.to_le_bytes());
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let mut buf = BytesMut::new();
        ((MAX_COLLECTION + 1) as u32).encode(&mut buf);
        let mut b = buf.freeze();
        assert!(matches!(
            Batch::<u64>::decode(&mut b),
            Err(WireError::TooLong(_))
        ));
    }

    #[test]
    fn oversized_slot_and_claim_counts_are_rejected() {
        // Slot count over the cap.
        let mut buf = BytesMut::new();
        ((MAX_COLLECTION + 1) as u32).encode(&mut buf);
        let mut b = buf.freeze();
        assert!(matches!(
            SmrMsg::<Batch<u64>>::decode(&mut b),
            Err(WireError::TooLong(_))
        ));
        // Valid empty slot list, claim count over the cap.
        let mut buf2 = BytesMut::new();
        0u32.encode(&mut buf2);
        ((MAX_COLLECTION + 1) as u32).encode(&mut buf2);
        let mut b2 = buf2.freeze();
        assert!(matches!(
            SmrMsg::<Batch<u64>>::decode(&mut b2),
            Err(WireError::TooLong(_))
        ));
        // Valid empty slots and claims, relay count over the cap.
        let mut buf3 = BytesMut::new();
        0u32.encode(&mut buf3);
        0u32.encode(&mut buf3);
        ((MAX_COLLECTION + 1) as u32).encode(&mut buf3);
        let mut b3 = buf3.freeze();
        assert!(matches!(
            SmrMsg::<Batch<u64>>::decode(&mut b3),
            Err(WireError::TooLong(_))
        ));
    }

    #[test]
    fn truncated_bundle_is_rejected() {
        let bytes = sample_bundle().to_bytes();
        for cut in 0..bytes.len() {
            let mut short = bytes.slice(0..cut);
            assert!(
                SmrMsg::<Batch<u64>>::decode(&mut short).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
