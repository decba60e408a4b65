//! MSB-first bit writer and reader, working a machine word at a time.
//!
//! All entropy coders in this crate ([`crate::elias`], [`crate::float`],
//! [`crate::quantize`]) operate on top of these two types. Bits are packed
//! most-significant-first into bytes, which makes the byte dumps
//! human-auditable: the first bit written is the top bit of the first byte.
//! The trailing partial byte is zero-padded.
//!
//! Neither side moves bits one at a time:
//!
//! - [`BitWriter`] gathers bits in a `u64` accumulator and appends it to the
//!   buffer as eight big-endian bytes whenever it fills, so `write_bits` is a
//!   shift and an or, whatever the width up to 64.
//! - [`BitReader`] keeps the stream ahead of its cursor in a `u64` cache,
//!   topped up with one big-endian 8-byte load whenever fewer than
//!   57 bits are loaded. `read_bits` is then a shift, and `read_unary_zeros`
//!   is one `leading_zeros`. Decoders in this crate that know a code's
//!   length from its first bits (Elias gamma, the XOR float codec) read the
//!   cache directly and decode a whole code in one step.
//!
//! The wire layout is exactly the one a bit-at-a-time coder produces: same
//! bits, same order, same padding. Errors and cursor positions match it too:
//! `UnexpectedEof` and the 64-zero unary limit fire on exactly the same
//! inputs. `tests/wire_golden.rs` pins encoder output captured from the
//! bit-at-a-time coder, and `tests/bitio_reference.rs` checks both types
//! against it step by step.

use crate::{CodecError, Result};

/// Accumulates bits into a byte buffer, MSB first.
///
/// # Example
///
/// ```
/// use jwins_codec::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b01, 2);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, vec![0b1010_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Whole 64-bit words written so far, big-endian.
    buf: Vec<u8>,
    /// Pending bits, right-aligned: the low `filled` bits are live, anything
    /// above them is stale and shifted out before it reaches `buf`.
    acc: u64,
    /// Number of live bits in `acc`, always below 64.
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            ..Self::default()
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the lowest `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        // Shifts by 64 are spelled `checked_*(..).unwrap_or(0)`, which
        // compiles to a conditional move rather than a branch.
        let value = value & u64::MAX.checked_shr(64 - count).unwrap_or(0);
        let free = 64 - self.filled;
        if count < free {
            self.acc = (self.acc << count) | value;
            self.filled += count;
        } else {
            // Top up the accumulator to a full word, flush it, and keep the
            // `count - free` low bits of `value` that did not fit.
            let rest = count - free;
            let word = self.acc.checked_shl(free).unwrap_or(0) | (value >> rest);
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = value;
            self.filled = rest;
        }
    }

    /// Appends `count` zero bits.
    pub fn write_zeros(&mut self, mut count: u32) {
        while count > 64 {
            self.write_bits(0, 64);
            count -= 64;
        }
        self.write_bits(0, count);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.filled as usize
    }

    /// Number of bytes the final buffer will occupy (incomplete byte rounds up).
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }

    /// Finishes the stream, zero-padding the trailing partial byte.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.filled > 0 {
            let word = self.acc << (64 - self.filled);
            let bytes = self.filled.div_ceil(8) as usize;
            self.buf.extend_from_slice(&word.to_be_bytes()[..bytes]);
        }
        self.buf
    }
}

/// Bits [`BitReader::window`] always has loaded, unless fewer remain.
const WINDOW_BITS: u32 = 57;

/// Reads bits MSB-first from a byte slice.
///
/// # Example
///
/// ```
/// use jwins_codec::bitio::BitReader;
///
/// let mut r = BitReader::new(&[0b1010_0000]);
/// assert_eq!(r.read_bit().unwrap(), true);
/// assert_eq!(r.read_bits(2).unwrap(), 0b01);
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Bytes of `data` loaded into `cache` so far.
    loaded: usize,
    /// The stream from the cursor on, MSB-aligned. The top `cached` bits are
    /// loaded; the bits below them are further stream bits or zeros.
    cache: u64,
    /// Number of loaded, unconsumed bits at the top of `cache`.
    cached: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            loaded: 0,
            cache: 0,
            cached: 0,
        }
    }

    /// Bits remaining in the stream (including any zero padding).
    pub fn remaining_bits(&self) -> usize {
        (self.data.len() - self.loaded) * 8 + self.cached as usize
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.loaded * 8 - self.cached as usize
    }

    /// Tops the cache up to at least [`WINDOW_BITS`] loaded bits, or to the
    /// end of the stream.
    #[inline]
    fn refill(&mut self) {
        if self.cached >= WINDOW_BITS {
            return;
        }
        match self.data.get(self.loaded..self.loaded + 8) {
            Some(chunk) => {
                // Every bit of the shifted word lands at its own stream
                // position; only the whole bytes among them are counted.
                let word = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
                self.cache |= word >> self.cached;
                let bytes = (64 - self.cached) / 8;
                self.loaded += bytes as usize;
                self.cached += bytes * 8;
            }
            None => self.refill_tail(),
        }
    }

    /// [`Self::refill`] within the last eight bytes, one byte at a time.
    #[cold]
    fn refill_tail(&mut self) {
        while self.cached <= 56 {
            let Some(&byte) = self.data.get(self.loaded) else {
                break;
            };
            self.cache |= u64::from(byte) << (56 - self.cached);
            self.loaded += 1;
            self.cached += 8;
        }
    }

    /// The stream from the cursor on, MSB-aligned, and how many of its top
    /// bits are loaded: at least [`WINDOW_BITS`], or everything left. Bits
    /// past the end of the stream read as zero. Crate decoders that can tell
    /// from these bits alone how long a code is decode it from the window and
    /// then [`Self::consume`] it.
    #[inline]
    pub(crate) fn window(&mut self) -> (u64, u32) {
        self.refill();
        (self.cache, self.cached)
    }

    /// Advances the cursor by `bits`, which must not exceed the loaded count
    /// [`Self::window`] returned.
    #[inline]
    pub(crate) fn consume(&mut self, bits: u32) {
        assert!(bits <= self.cached, "consumed past the loaded bits");
        self.cache = self.cache.checked_shl(bits).unwrap_or(0);
        self.cached -= bits;
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when the stream is exhausted.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let (window, loaded) = self.window();
        if loaded == 0 {
            return Err(CodecError::UnexpectedEof);
        }
        self.consume(1);
        Ok(window >> 63 == 1)
    }

    /// Reads `count` bits into the low bits of a `u64`, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when fewer than `count` bits
    /// remain; the cursor does not move.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining_bits() < count as usize {
            return Err(CodecError::UnexpectedEof);
        }
        if count > WINDOW_BITS {
            return Ok(self.read_wide(count));
        }
        let (window, _) = self.window();
        self.consume(count);
        Ok(window.checked_shr(64 - count).unwrap_or(0))
    }

    /// [`Self::read_bits`] for widths above the window, in two reads; the
    /// caller has checked that `count` bits remain.
    #[cold]
    fn read_wide(&mut self, count: u32) -> u64 {
        let high = self.read_bits(count - 32).expect("checked by caller");
        (high << 32) | self.read_bits(32).expect("checked by caller")
    }

    /// Counts and consumes consecutive zero bits, stopping after the first one
    /// bit (which is consumed too). Returns the number of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if the stream ends before a one
    /// bit is found (the cursor moves to the end), and
    /// [`CodecError::Corrupt`] once 65 zeros have been consumed.
    #[inline]
    pub fn read_unary_zeros(&mut self) -> Result<u32> {
        let (window, loaded) = self.window();
        let zeros = window.leading_zeros();
        if zeros < loaded {
            self.consume(zeros + 1);
            return Ok(zeros);
        }
        self.read_long_unary()
    }

    /// [`Self::read_unary_zeros`] for runs that reach past the loaded bits:
    /// at least [`WINDOW_BITS`] zeros, or the end of the stream.
    #[cold]
    fn read_long_unary(&mut self) -> Result<u32> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 64 {
                return Err(CodecError::Corrupt("unary run exceeds 64 bits"));
            }
        }
        Ok(zeros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.byte_len(), 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0x3, 2);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn unary_zero_run() {
        let mut w = BitWriter::new();
        w.write_zeros(5);
        w.write_bit(true);
        w.write_bit(true); // next code starts immediately
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary_zeros().unwrap(), 5);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn unary_eof() {
        let bytes = [0u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary_zeros(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn unary_run_limits() {
        for (zeros, expect) in [
            (64, Ok(64)),
            (65, Err(CodecError::Corrupt("unary run exceeds 64 bits"))),
        ] {
            let mut w = BitWriter::new();
            w.write_bits(0b1, 3);
            w.write_zeros(zeros);
            w.write_bit(true);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            r.read_bits(3).unwrap();
            assert_eq!(r.read_unary_zeros(), expect, "{zeros} zeros");
        }
    }

    #[test]
    fn zero_padding_is_deterministic() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);
    }

    #[test]
    fn empty_writer_produces_no_bytes() {
        assert!(BitWriter::new().into_bytes().is_empty());
    }

    #[test]
    fn remaining_and_position_track() {
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.remaining_bits(), 11);
    }
}
