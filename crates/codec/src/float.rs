//! Lossless floating-point codecs for model parameters.
//!
//! The paper compresses every parameter payload with Fpzip, a lossless
//! predictive floating-point coder. Fpzip is a GPL C library, so this crate
//! substitutes a Gorilla-style XOR predictive coder ([`XorFloatCodec`]): each
//! value is XORed with its predecessor and the resulting leading/trailing
//! zero structure is entropy-coded. Like Fpzip, it is lossless, predictive,
//! and achieves its gains from the smoothness of neighbouring values — model
//! parameters serialized in layer order exhibit exactly that locality.
//! [`RawFloatCodec`] (little-endian `f32`s) is the uncompressed baseline.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// A lossless encoder/decoder for `f32` slices.
///
/// This trait is sealed in spirit: the two implementations in this crate
/// cover the evaluation, but downstream users may implement it to plug other
/// coders (e.g. a real Fpzip FFI) into [`crate::sparse::SparseVecCodec`].
pub trait FloatCodec: std::fmt::Debug + Send + Sync {
    /// Encodes `values` into a fresh byte buffer.
    fn encode(&self, values: &[f32]) -> Vec<u8>;

    /// Decodes exactly `count` floats from `bytes`.
    ///
    /// # Errors
    ///
    /// Implementations fail with [`CodecError::UnexpectedEof`] on truncated
    /// input.
    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>>;

    /// Short stable name for logs and experiment output.
    fn name(&self) -> &'static str;
}

/// Uncompressed little-endian `f32` serialization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawFloatCodec;

impl FloatCodec for RawFloatCodec {
    fn encode(&self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let len = count.checked_mul(4).ok_or(CodecError::UnexpectedEof)?;
        if bytes.len() < len {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(bytes[..len]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn name(&self) -> &'static str {
        "raw-f32"
    }
}

/// Gorilla-style XOR predictive lossless float compression.
///
/// Per value `v[i]`, computes `x = bits(v[i]) ^ bits(v[i-1])` and writes:
///
/// - `0` if `x == 0` (repeated value);
/// - `10` + reuse of the previous leading-zero/length window if `x` fits it;
/// - `11` + 5-bit leading-zero count + 5-bit (length−1) + the significant bits.
///
/// The first value is stored verbatim (32 bits). Lossless for every bit
/// pattern including NaNs, infinities and signed zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorFloatCodec;

impl XorFloatCodec {
    const MAX_LEADING: u32 = 31;
}

impl FloatCodec for XorFloatCodec {
    fn encode(&self, values: &[f32]) -> Vec<u8> {
        let Some((first, rest)) = values.split_first() else {
            return Vec::new();
        };
        let mut w = BitWriter::with_capacity_bits(values.len() * 16);
        let mut prev = first.to_bits();
        w.write_bits(u64::from(prev), 32);
        // Window carried over from the last `11` control block.
        let mut win_lead: u32 = u32::MAX;
        let mut win_len: u32 = 0;
        for v in rest {
            let bits = v.to_bits();
            let x = bits ^ prev;
            prev = bits;
            if x == 0 {
                w.write_bit(false);
                continue;
            }
            let lead = x.leading_zeros().min(Self::MAX_LEADING);
            let trail = x.trailing_zeros();
            let len = 32 - lead - trail;
            let fits_window =
                win_lead != u32::MAX && lead >= win_lead && lead + len <= win_lead + win_len;
            // Control bits, header and significant bits go out as one field
            // of at most 2 + 10 + 32 bits.
            if fits_window {
                let shifted = x >> (32 - win_lead - win_len);
                w.write_bits((0b10 << win_len) | u64::from(shifted), 2 + win_len);
            } else {
                let header = (0b11 << 10) | (lead << 5) | (len - 1);
                w.write_bits((u64::from(header) << len) | u64::from(x >> trail), 12 + len);
                win_lead = lead;
                win_len = len;
            }
        }
        w.into_bytes()
    }

    fn decode(&self, bytes: &[u8], count: usize) -> Result<Vec<f32>> {
        let mut r = BitReader::new(bytes);
        // `count` may be wire-influenced; growth is bounded by the
        // stream length, so cap only the eager pre-allocation.
        let mut out = Vec::with_capacity(count.min(1 << 20));
        if count == 0 {
            return Ok(out);
        }
        let mut prev = r.read_bits(32)? as u32;
        out.push(f32::from_bits(prev));
        let mut win_lead: u32 = u32::MAX;
        let mut win_len: u32 = 0;
        for _ in 1..count {
            // A whole code (at most 2 + 10 + 32 bits) sits in one window. The
            // window has at least 57 bits loaded unless fewer remain, so
            // checking each field against `loaded`, in wire order, reports
            // truncation and corruption exactly as a field-by-field reader.
            let (window, loaded) = r.window();
            let need = |bits: u32| {
                if bits <= loaded {
                    Ok(bits)
                } else {
                    Err(CodecError::UnexpectedEof)
                }
            };
            let (used, x) = if window >> 63 == 0 {
                (need(1)?, 0)
            } else if window >> 62 == 0b10 {
                need(2)?;
                if win_lead == u32::MAX {
                    return Err(CodecError::Corrupt("window reuse before any window"));
                }
                let bits = ((window << 2) >> (64 - win_len)) as u32;
                (need(2 + win_len)?, bits << (32 - win_lead - win_len))
            } else {
                need(12)?;
                let lead = (window >> 57) as u32 & 0x1f;
                let len = ((window >> 52) as u32 & 0x1f) + 1;
                if lead + len > 32 {
                    return Err(CodecError::Corrupt("xor window exceeds 32 bits"));
                }
                win_lead = lead;
                win_len = len;
                let bits = ((window << 12) >> (64 - len)) as u32;
                (need(12 + len)?, bits << (32 - lead - len))
            };
            r.consume(used);
            prev ^= x;
            out.push(f32::from_bits(prev));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "xor-predictive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(codec: &dyn FloatCodec, values: &[f32]) {
        let bytes = codec.encode(values);
        let decoded = codec.decode(&bytes, values.len()).unwrap();
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{} lost bits", codec.name());
        }
    }

    #[test]
    fn raw_roundtrip() {
        roundtrip(
            &RawFloatCodec,
            &[0.0, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE],
        );
    }

    #[test]
    fn xor_roundtrip_specials() {
        roundtrip(
            &XorFloatCodec,
            &[
                0.0,
                -0.0,
                1.5,
                1.5,
                1.5000001,
                f32::NAN,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
                -1e-38,
            ],
        );
    }

    #[test]
    fn empty_and_single() {
        for codec in [&RawFloatCodec as &dyn FloatCodec, &XorFloatCodec] {
            roundtrip(codec, &[]);
            roundtrip(codec, &[42.0]);
        }
    }

    #[test]
    fn xor_compresses_smooth_sequences() {
        // Constant sequence: one bit per repeat after the first value.
        let values = vec![3.25f32; 1000];
        let bytes = XorFloatCodec.encode(&values);
        assert!(bytes.len() < 150, "constant run took {} bytes", bytes.len());
        // Raw is 4000 bytes.
        assert!(bytes.len() * 8 < RawFloatCodec.encode(&values).len());
    }

    #[test]
    fn raw_truncation_detected() {
        let bytes = RawFloatCodec.encode(&[1.0, 2.0]);
        assert_eq!(
            RawFloatCodec.decode(&bytes[..7], 2),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn raw_huge_count_is_an_error() {
        assert_eq!(
            RawFloatCodec.decode(&[0; 8], usize::MAX),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn xor_truncation_detected() {
        let values = vec![1.0f32, 2.0, 3.0, 4.0];
        let bytes = XorFloatCodec.encode(&values);
        assert!(XorFloatCodec.decode(&bytes[..2], 4).is_err());
    }

    proptest! {
        #[test]
        fn xor_roundtrip_any(values in proptest::collection::vec(any::<f32>(), 0..200)) {
            let bytes = XorFloatCodec.encode(&values);
            let decoded = XorFloatCodec.decode(&bytes, values.len()).unwrap();
            for (a, b) in values.iter().zip(&decoded) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn raw_roundtrip_any(values in proptest::collection::vec(any::<f32>(), 0..200)) {
            let bytes = RawFloatCodec.encode(&values);
            let decoded = RawFloatCodec.decode(&bytes, values.len()).unwrap();
            for (a, b) in values.iter().zip(&decoded) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
