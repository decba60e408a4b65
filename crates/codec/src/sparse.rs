//! End-to-end sparse-vector wire format with byte accounting.
//!
//! This is the message body JWINS puts on the wire: a sorted index array
//! (metadata) plus the corresponding coefficient values (payload). The codec
//! keeps the two byte counts separate because the paper reports them
//! separately (Figure 4 row 3 and Figure 9 chart metadata vs parameters).
//!
//! Wire layout:
//!
//! ```text
//! varint  count
//! varint  metadata_len_bytes
//! [metadata_len_bytes]  index block   (per IndexCodec)
//! [..]                  value block   (per ValueCodec)
//! ```

use crate::delta;
use crate::float::{FloatCodec, RawFloatCodec, XorFloatCodec};
use crate::varint;
use crate::{CodecError, Result};

/// How the sorted index array is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexCodec {
    /// Raw little-endian `u32` per index (the "no compression" bar of Fig. 9).
    RawU32,
    /// LEB128 varint per index delta (byte-aligned middle ground).
    VarintDelta,
    /// Elias gamma over the delta array — JWINS's choice (paper §III-C).
    EliasGammaDelta,
}

impl IndexCodec {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            IndexCodec::RawU32 => "raw-u32",
            IndexCodec::VarintDelta => "varint-delta",
            IndexCodec::EliasGammaDelta => "elias-gamma-delta",
        }
    }

    fn encode(&self, indices: &[u32]) -> Result<Vec<u8>> {
        match self {
            IndexCodec::RawU32 => {
                let mut out = Vec::with_capacity(indices.len() * 4);
                for &i in indices {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Ok(out)
            }
            IndexCodec::VarintDelta => {
                let mut out = Vec::with_capacity(indices.len());
                let mut prev = 0u32;
                for (k, &i) in indices.iter().enumerate() {
                    let d = if k == 0 {
                        u64::from(i)
                    } else {
                        if i <= prev {
                            return Err(CodecError::InvalidValue(
                                "indices must be strictly increasing",
                            ));
                        }
                        u64::from(i - prev)
                    };
                    varint::write_u64(&mut out, d);
                    prev = i;
                }
                Ok(out)
            }
            IndexCodec::EliasGammaDelta => delta::encode_gamma(indices),
        }
    }

    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<u32>> {
        match self {
            IndexCodec::RawU32 => {
                let len = count.checked_mul(4).ok_or(CodecError::UnexpectedEof)?;
                if bytes.len() < len {
                    return Err(CodecError::UnexpectedEof);
                }
                Ok(bytes[..len]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect())
            }
            IndexCodec::VarintDelta => {
                let mut out = Vec::with_capacity(count);
                let mut cursor = 0usize;
                let mut prev = 0u64;
                for k in 0..count {
                    let (d, used) = varint::read_u64(&bytes[cursor..])?;
                    cursor += used;
                    let idx = if k == 0 { Some(d) } else { prev.checked_add(d) };
                    let Some(idx) = idx.filter(|&i| i <= u64::from(u32::MAX)) else {
                        return Err(CodecError::Corrupt("index overflows u32"));
                    };
                    out.push(idx as u32);
                    prev = idx;
                }
                Ok(out)
            }
            IndexCodec::EliasGammaDelta => delta::decode_gamma(bytes, count),
        }
    }
}

/// How the coefficient values are serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValueCodec {
    /// Little-endian `f32`s.
    Raw,
    /// Gorilla-style XOR predictive lossless compression (Fpzip substitute).
    Xor,
}

impl ValueCodec {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ValueCodec::Raw => RawFloatCodec.name(),
            ValueCodec::Xor => XorFloatCodec.name(),
        }
    }

    fn as_codec(&self) -> &'static dyn FloatCodec {
        match self {
            ValueCodec::Raw => &RawFloatCodec,
            ValueCodec::Xor => &XorFloatCodec,
        }
    }
}

/// An encoded sparse vector together with its byte breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSparseVec {
    bytes: Vec<u8>,
    /// Bytes spent on the index block plus framing.
    pub metadata_bytes: usize,
    /// Bytes spent on the value block.
    pub payload_bytes: usize,
}

impl EncodedSparseVec {
    /// The full wire image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total length on the wire.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the message is empty (encodes zero entries and no framing).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes self, returning the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Serializer/deserializer for `(indices, values)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseVecCodec {
    index_codec: IndexCodec,
    value_codec: ValueCodec,
}

impl Default for SparseVecCodec {
    /// JWINS's production configuration: Elias gamma metadata + XOR payload.
    fn default() -> Self {
        Self::new(IndexCodec::EliasGammaDelta, ValueCodec::Xor)
    }
}

impl SparseVecCodec {
    /// Creates a codec with explicit index/value strategies.
    pub fn new(index_codec: IndexCodec, value_codec: ValueCodec) -> Self {
        Self {
            index_codec,
            value_codec,
        }
    }

    /// The configured index strategy.
    pub fn index_codec(&self) -> IndexCodec {
        self.index_codec
    }

    /// The configured value strategy.
    pub fn value_codec(&self) -> ValueCodec {
        self.value_codec
    }

    /// Encodes a sparse vector. `indices` must be strictly increasing and the
    /// two slices must have equal length.
    ///
    /// # Errors
    ///
    /// - [`CodecError::LengthMismatch`] if the slices disagree in length.
    /// - [`CodecError::InvalidValue`] if indices are not strictly increasing.
    pub fn encode(&self, indices: &[u32], values: &[f32]) -> Result<EncodedSparseVec> {
        if indices.len() != values.len() {
            return Err(CodecError::LengthMismatch {
                expected: indices.len(),
                actual: values.len(),
            });
        }
        let index_block = self.index_codec.encode(indices)?;
        let value_block = self.value_codec.as_codec().encode(values);
        let mut bytes = Vec::with_capacity(10 + index_block.len() + value_block.len());
        varint::write_u64(&mut bytes, indices.len() as u64);
        varint::write_u64(&mut bytes, index_block.len() as u64);
        let framing = bytes.len();
        bytes.extend_from_slice(&index_block);
        bytes.extend_from_slice(&value_block);
        Ok(EncodedSparseVec {
            metadata_bytes: framing + index_block.len(),
            payload_bytes: value_block.len(),
            bytes,
        })
    }

    /// Decodes a buffer produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncated or structurally invalid buffers.
    pub fn decode(&self, bytes: &[u8]) -> Result<(Vec<u32>, Vec<f32>)> {
        let (count, used1) = varint::read_u64(bytes)?;
        let (index_len, used2) = varint::read_u64(&bytes[used1..])?;
        // Wire-controlled count: every codec needs at least one bit per
        // index and one per value, so anything above 4 elements per byte is
        // structurally impossible — reject before allocating.
        if count > bytes.len() as u64 * 4 {
            return Err(CodecError::Corrupt(
                "declared count exceeds buffer capacity",
            ));
        }
        let count = count as usize;
        let header = used1 + used2;
        // `index_len` is wire-controlled too: bound it without overflowing.
        let index_end = usize::try_from(index_len)
            .ok()
            .and_then(|len| header.checked_add(len))
            .filter(|&end| end <= bytes.len())
            .ok_or(CodecError::UnexpectedEof)?;
        let indices = self.index_codec.decode(&bytes[header..index_end], count)?;
        let values = self
            .value_codec
            .as_codec()
            .decode(&bytes[index_end..], count)?;
        Ok((indices, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_codecs() -> Vec<SparseVecCodec> {
        let mut out = Vec::new();
        for ic in [
            IndexCodec::RawU32,
            IndexCodec::VarintDelta,
            IndexCodec::EliasGammaDelta,
        ] {
            for vc in [ValueCodec::Raw, ValueCodec::Xor] {
                out.push(SparseVecCodec::new(ic, vc));
            }
        }
        out
    }

    #[test]
    fn roundtrip_all_configs() {
        let indices = vec![0u32, 5, 6, 7, 1_000, 65_536];
        let values = vec![1.0f32, -2.5, 0.0, f32::MIN_POSITIVE, 3.5, -0.125];
        for codec in all_codecs() {
            let enc = codec.encode(&indices, &values).unwrap();
            assert_eq!(enc.len(), enc.metadata_bytes + enc.payload_bytes);
            let (di, dv) = codec.decode(enc.as_bytes()).unwrap();
            assert_eq!(di, indices, "{:?}", codec);
            assert_eq!(
                dv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{:?}",
                codec
            );
        }
    }

    #[test]
    fn empty_vector_roundtrip() {
        for codec in all_codecs() {
            let enc = codec.encode(&[], &[]).unwrap();
            let (i, v) = codec.decode(enc.as_bytes()).unwrap();
            assert!(i.is_empty() && v.is_empty());
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let codec = SparseVecCodec::default();
        assert!(matches!(
            codec.encode(&[1, 2], &[1.0]),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn gamma_metadata_beats_raw_by_large_factor() {
        // Mirrors Figure 9: dense TopK selection over a model-sized vector.
        let indices: Vec<u32> = (0..20_000u32).map(|i| i * 3).collect();
        let values = vec![0.5f32; indices.len()];
        let raw = SparseVecCodec::new(IndexCodec::RawU32, ValueCodec::Raw)
            .encode(&indices, &values)
            .unwrap();
        let gamma = SparseVecCodec::new(IndexCodec::EliasGammaDelta, ValueCodec::Raw)
            .encode(&indices, &values)
            .unwrap();
        let ratio = raw.metadata_bytes as f64 / gamma.metadata_bytes as f64;
        assert!(ratio > 6.0, "expected large compression, got {ratio:.1}x");
    }

    #[test]
    fn truncated_buffer_fails() {
        let codec = SparseVecCodec::default();
        let enc = codec.encode(&[1, 4, 9], &[1.0, 2.0, 3.0]).unwrap();
        for cut in 0..enc.len() {
            assert!(
                codec.decode(&enc.as_bytes()[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn huge_index_len_is_eof_not_overflow() {
        // count 0, then an index_len varint of u64::MAX.
        let mut bytes = vec![0x00];
        bytes.extend([0xff; 9]);
        bytes.push(0x01);
        for codec in all_codecs() {
            assert_eq!(codec.decode(&bytes), Err(CodecError::UnexpectedEof));
        }
    }

    #[test]
    fn raw_u32_huge_count_is_an_error() {
        assert_eq!(
            IndexCodec::RawU32.decode(&[0; 8], usize::MAX),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn varint_delta_overflowing_index_is_corrupt() {
        // First index 1, then a delta of u64::MAX.
        let mut bytes = vec![0x01];
        bytes.extend([0xff; 9]);
        bytes.push(0x01);
        assert_eq!(
            IndexCodec::VarintDelta.decode(&bytes, 2),
            Err(CodecError::Corrupt("index overflows u32"))
        );
    }

    proptest! {
        #[test]
        fn roundtrip_any(
            mut raw_idx in proptest::collection::vec(0u32..5_000_000, 0..150),
            seed in any::<u64>(),
        ) {
            raw_idx.sort_unstable();
            raw_idx.dedup();
            let mut s = seed | 1;
            let values: Vec<f32> = raw_idx.iter().map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                f32::from_bits((s as u32) & 0x7F7F_FFFF) // finite values
            }).collect();
            for codec in all_codecs() {
                let enc = codec.encode(&raw_idx, &values).unwrap();
                let (di, dv) = codec.decode(enc.as_bytes()).unwrap();
                prop_assert_eq!(&di, &raw_idx);
                for (a, b) in values.iter().zip(&dv) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
