//! The store's record vocabulary and its byte-level codec.
//!
//! Every record is encoded as a fixed-layout little-endian payload with a
//! one-byte tag, and travels inside a checksummed frame (see [`crate::wal`]).
//! The layout is deliberately dumb — no varints, no compression — so a
//! record boundary can always be found from the frame header alone and a
//! decoder can validate the exact payload length before touching a field.

use crate::StoreError;

/// Tag byte of a [`StoreRecord::Measurement`].
pub const TAG_MEASUREMENT: u8 = 1;
/// Tag byte of a [`StoreRecord::BatchEnd`].
pub const TAG_BATCH_END: u8 = 2;

/// One journaled measurement: which campaign slot was measured, what was
/// actually measured (the assignment may be a redraw of the slot's
/// primary), what it cost, and what it scored.
///
/// `key` is the content address of the measured assignment — the
/// canonical-form hash computed by the core layer. Nothing resolves a
/// slot by it: a slot replays only from its own `(campaign, sequence,
/// slot)` record.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementRecord {
    /// Campaign identity (derived by the caller from seed + campaign
    /// shape; see the core layer's persistence salts).
    pub campaign: u64,
    /// Batch ordinal within the campaign (0 for single-batch studies;
    /// the round index for the iterative algorithm).
    pub sequence: u64,
    /// Slot index within the batch.
    pub slot: u64,
    /// Content address: canonical-form hash of the measured assignment.
    pub key: u64,
    /// The measured performance.
    pub value: f64,
    /// Measurement attempts the slot consumed (successes and failures).
    pub attempts: u32,
    /// Attempts beyond the first for the assignment that was measured.
    pub retries: u32,
    /// Primary draws abandoned before this assignment was measured.
    pub redrawn: u32,
    /// Contexts of the measured assignment, task order.
    pub contexts: Vec<u32>,
}

/// Everything the store can journal.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// One completed measurement (journaled as it is measured, so the
    /// write order within a batch follows completion, not slot, order).
    Measurement(MeasurementRecord),
    /// Marks a batch as complete: every one of its `len` slots was
    /// resolved.
    BatchEnd {
        /// Campaign the batch belongs to.
        campaign: u64,
        /// Batch ordinal within the campaign.
        sequence: u64,
        /// Number of slots the batch resolved.
        len: u64,
    },
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor-style reader over a payload; every getter checks bounds so a
/// truncated or oversized payload becomes a typed error, never a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(Self::short)?;
        let slice = self.bytes.get(self.pos..end).ok_or_else(Self::short)?;
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn done(&self) -> Result<(), StoreError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "record payload has {} trailing bytes",
                self.bytes.len() - self.pos
            )))
        }
    }

    fn short() -> StoreError {
        StoreError::Corrupt("record payload shorter than its layout".into())
    }
}

impl StoreRecord {
    /// Serializes the record into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            StoreRecord::Measurement(m) => {
                let mut out = Vec::with_capacity(1 + 8 * 5 + 4 * 4 + 4 * m.contexts.len());
                out.push(TAG_MEASUREMENT);
                put_u64(&mut out, m.campaign);
                put_u64(&mut out, m.sequence);
                put_u64(&mut out, m.slot);
                put_u64(&mut out, m.key);
                put_u64(&mut out, m.value.to_bits());
                put_u32(&mut out, m.attempts);
                put_u32(&mut out, m.retries);
                put_u32(&mut out, m.redrawn);
                put_u32(&mut out, m.contexts.len() as u32);
                for &c in &m.contexts {
                    put_u32(&mut out, c);
                }
                out
            }
            StoreRecord::BatchEnd {
                campaign,
                sequence,
                len,
            } => {
                let mut out = Vec::with_capacity(1 + 8 * 3);
                out.push(TAG_BATCH_END);
                put_u64(&mut out, *campaign);
                put_u64(&mut out, *sequence);
                put_u64(&mut out, *len);
                out
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on an unknown tag, a short payload,
    /// trailing bytes, or an implausible context count.
    pub fn decode(bytes: &[u8]) -> Result<StoreRecord, StoreError> {
        let (&tag, payload) = bytes
            .split_first()
            .ok_or_else(|| StoreError::Corrupt("empty record payload".into()))?;
        let mut r = Reader::new(payload);
        match tag {
            TAG_MEASUREMENT => {
                let campaign = r.u64()?;
                let sequence = r.u64()?;
                let slot = r.u64()?;
                let key = r.u64()?;
                let value = f64::from_bits(r.u64()?);
                let attempts = r.u32()?;
                let retries = r.u32()?;
                let redrawn = r.u32()?;
                let n = r.u32()? as usize;
                // A context is a hardware strand index; even exotic
                // machines stay far below this, and the bound keeps a
                // corrupt length from allocating gigabytes.
                if n > 65_536 {
                    return Err(StoreError::Corrupt(format!(
                        "measurement record claims {n} contexts"
                    )));
                }
                let mut contexts = Vec::with_capacity(n);
                for _ in 0..n {
                    contexts.push(r.u32()?);
                }
                r.done()?;
                Ok(StoreRecord::Measurement(MeasurementRecord {
                    campaign,
                    sequence,
                    slot,
                    key,
                    value,
                    attempts,
                    retries,
                    redrawn,
                    contexts,
                }))
            }
            TAG_BATCH_END => {
                let campaign = r.u64()?;
                let sequence = r.u64()?;
                let len = r.u64()?;
                r.done()?;
                Ok(StoreRecord::BatchEnd {
                    campaign,
                    sequence,
                    len,
                })
            }
            other => Err(StoreError::Corrupt(format!("unknown record tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement() -> MeasurementRecord {
        MeasurementRecord {
            campaign: 0xDEAD_BEEF,
            sequence: 3,
            slot: 41,
            key: 0x1234_5678_9ABC_DEF0,
            value: -1234.5e6,
            attempts: 7,
            retries: 2,
            redrawn: 1,
            contexts: vec![0, 63, 17],
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let records = [
            StoreRecord::Measurement(sample_measurement()),
            StoreRecord::BatchEnd {
                campaign: 9,
                sequence: 0,
                len: 100,
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(StoreRecord::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn value_bits_are_preserved_exactly() {
        let rec = StoreRecord::Measurement(MeasurementRecord {
            value: f64::from_bits(0x7FF8_0000_0000_0001), // a specific NaN
            ..sample_measurement()
        });
        let decoded = StoreRecord::decode(&rec.encode()).unwrap();
        match decoded {
            StoreRecord::Measurement(m) => {
                assert_eq!(m.value.to_bits(), 0x7FF8_0000_0000_0001);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_short_and_trailing() {
        let bytes = StoreRecord::Measurement(sample_measurement()).encode();
        for cut in 0..bytes.len() {
            assert!(
                StoreRecord::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreRecord::decode(&long).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag_and_huge_context_count() {
        assert!(StoreRecord::decode(&[99]).is_err());
        let mut bytes = StoreRecord::Measurement(sample_measurement()).encode();
        // Context count field sits after tag + 5×u64 + 3×u32.
        let count_at = 1 + 40 + 12;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(StoreRecord::decode(&bytes).is_err());
    }
}
