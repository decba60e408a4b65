//! Elias gamma and Elias delta universal codes for positive integers.
//!
//! JWINS compresses the difference array of sparse-model indices with Elias
//! gamma (paper §III-C), the same construction used by QSGD. Gamma codes are
//! optimal when small deltas dominate — exactly the regime of TopK index
//! arrays over large models, where consecutive selected coefficients are
//! close together. Elias delta is provided as a comparator for the metadata
//! ablation (Figure 9 extension): it wins asymptotically for large values.
//!
//! Both codes encode integers `n >= 1`:
//!
//! - **gamma(n)**: `⌊log2 n⌋` zero bits, then the `⌊log2 n⌋ + 1` binary digits
//!   of `n` (which start with a one).
//! - **delta(n)**: `gamma(⌊log2 n⌋ + 1)` followed by the `⌊log2 n⌋` low bits
//!   of `n`.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodecError, Result};

/// Appends the Elias gamma code of `n` to `w`.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if `n == 0` (gamma codes start at 1).
pub fn write_gamma(w: &mut BitWriter, n: u64) -> Result<()> {
    if n == 0 {
        return Err(CodecError::InvalidValue("Elias gamma cannot encode 0"));
    }
    let bits = 64 - n.leading_zeros(); // position of the highest one bit, 1-based
    if bits <= 32 {
        // `n < 2^bits`, so the `bits - 1` leading zeros come for free.
        w.write_bits(n, 2 * bits - 1);
    } else {
        w.write_zeros(bits - 1);
        w.write_bits(n, bits);
    }
    Ok(())
}

/// Reads one Elias gamma code from `r`.
///
/// # Errors
///
/// Propagates [`CodecError::UnexpectedEof`] and flags runs longer than 64 bits
/// as [`CodecError::Corrupt`].
pub fn read_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    // A code that lies within the loaded window decodes in one step. Longer
    // codes, and codes that would run past the end, take the checked path
    // below, which reports exactly how the stream falls short.
    let (window, loaded) = r.window();
    let len = 2 * window.leading_zeros() + 1;
    if len <= loaded {
        r.consume(len);
        return Ok(window >> (64 - len));
    }
    let zeros = r.read_unary_zeros()?;
    if zeros >= 64 {
        return Err(CodecError::Corrupt("gamma prefix longer than 64 bits"));
    }
    // The leading one bit was consumed by `read_unary_zeros`; read the rest.
    let rest = r.read_bits(zeros)?;
    Ok((1u64 << zeros) | rest)
}

/// Appends the Elias delta code of `n` to `w`.
///
/// # Errors
///
/// Returns [`CodecError::InvalidValue`] if `n == 0`.
pub fn write_delta(w: &mut BitWriter, n: u64) -> Result<()> {
    if n == 0 {
        return Err(CodecError::InvalidValue("Elias delta cannot encode 0"));
    }
    let bits = 64 - n.leading_zeros(); // ⌊log2 n⌋ + 1
    write_gamma(w, u64::from(bits))?;
    if bits > 1 {
        w.write_bits(n & !(1u64 << (bits - 1)), bits - 1);
    }
    Ok(())
}

/// Reads one Elias delta code from `r`.
///
/// # Errors
///
/// Propagates stream errors; declares prefixes above 64 bits corrupt.
pub fn read_delta(r: &mut BitReader<'_>) -> Result<u64> {
    let bits = read_gamma(r)?;
    if bits == 0 || bits > 64 {
        return Err(CodecError::Corrupt("delta length prefix out of range"));
    }
    let bits = bits as u32;
    let rest = r.read_bits(bits - 1)?;
    Ok(if bits == 64 {
        (1u64 << 63) | rest
    } else {
        (1u64 << (bits - 1)) | rest
    })
}

/// Bit length of `gamma(n)`; useful for budgeting without encoding.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gamma_bit_len(n: u64) -> u32 {
    assert!(n > 0, "gamma undefined for 0");
    2 * (64 - n.leading_zeros()) - 1
}

/// Bit length of `delta(n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn delta_bit_len(n: u64) -> u32 {
    assert!(n > 0, "delta undefined for 0");
    let bits = 64 - n.leading_zeros();
    gamma_bit_len(u64::from(bits)) + bits - 1
}

/// Encodes a whole slice with gamma codes into a fresh byte buffer.
///
/// # Errors
///
/// Fails on any zero element.
pub fn gamma_encode_all(values: &[u64]) -> Result<Vec<u8>> {
    let mut w = BitWriter::new();
    for &v in values {
        write_gamma(&mut w, v)?;
    }
    Ok(w.into_bytes())
}

/// Decodes exactly `count` gamma codes from `bytes`.
///
/// # Errors
///
/// Fails if the stream is too short or corrupt.
pub fn gamma_decode_all(bytes: &[u8], count: usize) -> Result<Vec<u64>> {
    let mut r = BitReader::new(bytes);
    // `count` may be wire-influenced; growth is bounded by the
    // stream length, so cap only the eager pre-allocation.
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        out.push(read_gamma(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First few gamma codes from the literature.
    #[test]
    fn gamma_known_codewords() {
        let cases: [(u64, &str); 8] = [
            (1, "1"),
            (2, "010"),
            (3, "011"),
            (4, "00100"),
            (5, "00101"),
            (8, "0001000"),
            (15, "0001111"),
            (16, "000010000"),
        ];
        for (n, expect) in cases {
            let mut w = BitWriter::new();
            write_gamma(&mut w, n).unwrap();
            let bit_len = w.bit_len();
            let bytes = w.into_bytes();
            let got: String = (0..bit_len)
                .map(|i| {
                    let byte = bytes[i / 8];
                    if (byte >> (7 - i % 8)) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            assert_eq!(got, expect, "gamma({n})");
            assert_eq!(bit_len as u32, gamma_bit_len(n));
        }
    }

    #[test]
    fn delta_known_codewords() {
        // delta(1) = "1", delta(2) = "0100", delta(3) = "0101", delta(4) = "01100"
        let mut w = BitWriter::new();
        for n in [1u64, 2, 3, 4] {
            write_delta(&mut w, n).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for n in [1u64, 2, 3, 4] {
            assert_eq!(read_delta(&mut r).unwrap(), n);
        }
    }

    #[test]
    fn zero_is_rejected() {
        let mut w = BitWriter::new();
        assert!(matches!(
            write_gamma(&mut w, 0),
            Err(CodecError::InvalidValue(_))
        ));
        assert!(matches!(
            write_delta(&mut w, 0),
            Err(CodecError::InvalidValue(_))
        ));
    }

    #[test]
    fn gamma_roundtrip_boundaries() {
        let mut values = vec![1u64, 2, 3, u32::MAX as u64, u64::MAX];
        for p in 0..63 {
            values.push(1 << p);
            values.push((1 << p) + 1);
        }
        let bytes = gamma_encode_all(&values).unwrap();
        assert_eq!(gamma_decode_all(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn delta_roundtrip_boundaries() {
        let mut values = vec![1u64, 2, 3, u64::MAX];
        for p in 0..63 {
            values.push(1 << p);
            values.push((1 << p) | 0x5);
        }
        let mut w = BitWriter::new();
        for &v in &values {
            write_delta(&mut w, v).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_delta(&mut r).unwrap(), v, "delta roundtrip of {v}");
        }
    }

    #[test]
    fn delta_beats_gamma_for_large_values() {
        assert!(delta_bit_len(1 << 40) < gamma_bit_len(1 << 40));
        // ... but not for tiny ones.
        assert!(delta_bit_len(2) >= gamma_bit_len(2));
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let bytes = gamma_encode_all(&[300]).unwrap();
        let cut = &bytes[..bytes.len() - 1];
        assert!(gamma_decode_all(cut, 1).is_err());
    }

    #[test]
    fn huge_count_fails_without_preallocating() {
        let bytes = gamma_encode_all(&[1, 2, 3]).unwrap();
        assert_eq!(
            gamma_decode_all(&bytes, usize::MAX),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn bit_len_helpers_match_actual_encoding() {
        for n in [1u64, 2, 7, 8, 100, 1023, 1024, 123_456_789] {
            let mut w = BitWriter::new();
            write_gamma(&mut w, n).unwrap();
            assert_eq!(w.bit_len() as u32, gamma_bit_len(n));
            let mut w = BitWriter::new();
            write_delta(&mut w, n).unwrap();
            assert_eq!(w.bit_len() as u32, delta_bit_len(n));
        }
    }
}
