//! Differential tests: the word-at-a-time `bitio` against a bit-at-a-time
//! reference.
//!
//! `reference` below is the original one-bit-per-call `BitWriter` and
//! `BitReader`, kept verbatim in behaviour as the specification of the wire
//! layout and of every error. The properties drive both implementations with
//! the same operations and require equal bytes, lengths, results (errors
//! included) and cursor positions after every single step. The Elias and
//! XOR decoders, which read whole codes from the reader's cache, are checked
//! the same way against field-by-field decoders on the reference reader.

use jwins_codec::bitio::{BitReader, BitWriter};
use jwins_codec::elias;
use jwins_codec::float::{FloatCodec, XorFloatCodec};
use jwins_codec::{CodecError, Result};
use proptest::prelude::*;

mod reference {
    use jwins_codec::{CodecError, Result};

    /// Bit-at-a-time MSB-first writer.
    #[derive(Debug, Clone, Default)]
    pub struct BitWriter {
        buf: Vec<u8>,
        filled: u8,
        current: u8,
    }

    impl BitWriter {
        pub fn write_bit(&mut self, bit: bool) {
            self.current = (self.current << 1) | u8::from(bit);
            self.filled += 1;
            if self.filled == 8 {
                self.buf.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }

        pub fn write_bits(&mut self, value: u64, count: u32) {
            assert!(count <= 64, "cannot write more than 64 bits at once");
            for shift in (0..count).rev() {
                self.write_bit((value >> shift) & 1 == 1);
            }
        }

        pub fn write_zeros(&mut self, count: u32) {
            for _ in 0..count {
                self.write_bit(false);
            }
        }

        pub fn bit_len(&self) -> usize {
            self.buf.len() * 8 + usize::from(self.filled)
        }

        pub fn into_bytes(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.buf.push(self.current << (8 - self.filled));
            }
            self.buf
        }
    }

    /// Bit-at-a-time MSB-first reader.
    #[derive(Debug, Clone)]
    pub struct BitReader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            Self { data, pos: 0 }
        }

        pub fn remaining_bits(&self) -> usize {
            self.data.len() * 8 - self.pos
        }

        pub fn bit_pos(&self) -> usize {
            self.pos
        }

        pub fn read_bit(&mut self) -> Result<bool> {
            let byte = self.pos / 8;
            if byte >= self.data.len() {
                return Err(CodecError::UnexpectedEof);
            }
            let shift = 7 - (self.pos % 8);
            self.pos += 1;
            Ok((self.data[byte] >> shift) & 1 == 1)
        }

        pub fn read_bits(&mut self, count: u32) -> Result<u64> {
            assert!(count <= 64, "cannot read more than 64 bits at once");
            if self.remaining_bits() < count as usize {
                return Err(CodecError::UnexpectedEof);
            }
            let mut value = 0u64;
            for _ in 0..count {
                value = (value << 1) | u64::from(self.read_bit()?);
            }
            Ok(value)
        }

        pub fn read_unary_zeros(&mut self) -> Result<u32> {
            let mut zeros = 0u32;
            loop {
                if self.read_bit()? {
                    return Ok(zeros);
                }
                zeros += 1;
                if zeros > 64 {
                    return Err(CodecError::Corrupt("unary run exceeds 64 bits"));
                }
            }
        }
    }
}

/// Elias gamma decoding, field by field on the reference reader.
fn reference_read_gamma(r: &mut reference::BitReader<'_>) -> Result<u64> {
    let zeros = r.read_unary_zeros()?;
    if zeros >= 64 {
        return Err(CodecError::Corrupt("gamma prefix longer than 64 bits"));
    }
    let rest = r.read_bits(zeros)?;
    Ok((1u64 << zeros) | rest)
}

/// Elias delta decoding on the reference reader.
fn reference_read_delta(r: &mut reference::BitReader<'_>) -> Result<u64> {
    let bits = reference_read_gamma(r)?;
    if bits == 0 || bits > 64 {
        return Err(CodecError::Corrupt("delta length prefix out of range"));
    }
    let bits = bits as u32;
    let rest = r.read_bits(bits - 1)?;
    Ok((1u64 << (bits - 1)) | rest)
}

/// `XorFloatCodec` decoding, field by field on the reference reader;
/// returns the decoded bit patterns.
fn reference_xor_decode(bytes: &[u8], count: usize) -> Result<Vec<u32>> {
    let mut r = reference::BitReader::new(bytes);
    let mut out = Vec::new();
    let mut prev: u32 = 0;
    let mut win_lead: u32 = u32::MAX;
    let mut win_len: u32 = 0;
    for i in 0..count {
        if i == 0 {
            prev = r.read_bits(32)? as u32;
            out.push(prev);
            continue;
        }
        if !r.read_bit()? {
            out.push(prev);
            continue;
        }
        let x = if !r.read_bit()? {
            if win_lead == u32::MAX {
                return Err(CodecError::Corrupt("window reuse before any window"));
            }
            (r.read_bits(win_len)? as u32) << (32 - win_lead - win_len)
        } else {
            let lead = r.read_bits(5)? as u32;
            let len = r.read_bits(5)? as u32 + 1;
            if lead + len > 32 {
                return Err(CodecError::Corrupt("xor window exceeds 32 bits"));
            }
            win_lead = lead;
            win_len = len;
            (r.read_bits(len)? as u32) << (32 - lead - len)
        };
        prev ^= x;
        out.push(prev);
    }
    Ok(out)
}

fn xor_decode_bits(bytes: &[u8], count: usize) -> Result<Vec<u32>> {
    XorFloatCodec
        .decode(bytes, count)
        .map(|v| v.iter().map(|f| f.to_bits()).collect())
}

/// Flips the bits of `bytes` selected by `flips` (positions modulo the
/// stream length) and cuts the stream to `cut` bytes (modulo length + 1).
fn damage(mut bytes: Vec<u8>, flips: &[u64], cut: u64) -> Vec<u8> {
    if !bytes.is_empty() {
        let bits = bytes.len() as u64 * 8;
        for &f in flips {
            let bit = f % bits;
            bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
        }
    }
    let keep = (cut % (bytes.len() as u64 + 1)) as usize;
    bytes.truncate(keep);
    bytes
}

/// One writer operation.
#[derive(Debug, Clone, Copy)]
enum WriteOp {
    Bit(bool),
    Bits(u64, u32),
    Zeros(u32),
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        any::<bool>().prop_map(WriteOp::Bit),
        (any::<u64>(), 0u32..=64).prop_map(|(v, c)| WriteOp::Bits(v, c)),
        // Widths that straddle a full accumulator word.
        (any::<u64>(), 57u32..=64).prop_map(|(v, c)| WriteOp::Bits(v, c)),
        (0u32..200).prop_map(WriteOp::Zeros),
    ]
}

/// One reader operation.
#[derive(Debug, Clone, Copy)]
enum ReadOp {
    Bit,
    Bits(u32),
    Unary,
}

fn read_op() -> impl Strategy<Value = ReadOp> {
    prop_oneof![
        Just(ReadOp::Bit),
        (0u32..=64).prop_map(ReadOp::Bits),
        Just(ReadOp::Unary),
    ]
}

fn apply_write(w: &mut BitWriter, r: &mut reference::BitWriter, op: WriteOp) {
    match op {
        WriteOp::Bit(b) => {
            w.write_bit(b);
            r.write_bit(b);
        }
        WriteOp::Bits(v, c) => {
            w.write_bits(v, c);
            r.write_bits(v, c);
        }
        WriteOp::Zeros(c) => {
            w.write_zeros(c);
            r.write_zeros(c);
        }
    }
}

fn apply_read(
    fast: &mut BitReader<'_>,
    slow: &mut reference::BitReader<'_>,
    op: ReadOp,
) -> (Result<u64>, Result<u64>) {
    match op {
        ReadOp::Bit => (
            fast.read_bit().map(u64::from),
            slow.read_bit().map(u64::from),
        ),
        ReadOp::Bits(c) => (fast.read_bits(c), slow.read_bits(c)),
        ReadOp::Unary => (
            fast.read_unary_zeros().map(u64::from),
            slow.read_unary_zeros().map(u64::from),
        ),
    }
}

/// Runs `ops` over `data` on both readers, comparing after every step.
fn check_reads(data: &[u8], ops: &[ReadOp]) {
    let mut fast = BitReader::new(data);
    let mut slow = reference::BitReader::new(data);
    for (step, &op) in ops.iter().enumerate() {
        let (got, want) = apply_read(&mut fast, &mut slow, op);
        assert_eq!(got, want, "step {step} {op:?} on {data:02x?}");
        assert_eq!(fast.bit_pos(), slow.bit_pos(), "step {step} {op:?}");
        assert_eq!(fast.remaining_bits(), slow.remaining_bits());
    }
}

/// A byte drawn mostly from values that make long zero runs.
fn zero_heavy_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0u8), Just(0u8), Just(1u8), any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_matches_reference_after_every_op(
        ops in proptest::collection::vec(write_op(), 0..120),
    ) {
        let mut fast = BitWriter::new();
        let mut slow = reference::BitWriter::default();
        for op in ops {
            apply_write(&mut fast, &mut slow, op);
            prop_assert_eq!(fast.bit_len(), slow.bit_len(), "{:?}", op);
            prop_assert_eq!(fast.byte_len(), slow.bit_len().div_ceil(8));
            prop_assert_eq!(fast.clone().into_bytes(), slow.clone().into_bytes(), "{:?}", op);
        }
    }

    #[test]
    fn reader_matches_reference_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..40),
        ops in proptest::collection::vec(read_op(), 0..80),
    ) {
        check_reads(&data, &ops);
    }

    #[test]
    fn reader_matches_reference_on_zero_heavy_bytes(
        data in proptest::collection::vec(zero_heavy_byte(), 0..40),
        ops in proptest::collection::vec(read_op(), 0..80),
    ) {
        check_reads(&data, &ops);
    }

    #[test]
    fn reader_matches_reference_on_truncated_streams(
        ops in proptest::collection::vec(write_op(), 1..60),
        cut in any::<u64>(),
        reads in proptest::collection::vec(read_op(), 0..120),
    ) {
        // A real encoded stream, cut anywhere (possibly to nothing).
        let mut w = BitWriter::new();
        let mut r = reference::BitWriter::default();
        for op in ops {
            apply_write(&mut w, &mut r, op);
        }
        let bytes = w.into_bytes();
        let keep = (cut % (bytes.len() as u64 + 1)) as usize;
        check_reads(&bytes[..keep], &reads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn xor_decode_matches_reference_on_damaged_streams(
        seeds in proptest::collection::vec(any::<u32>(), 1..150),
        repeat_mask in any::<u64>(),
        flips in proptest::collection::vec(any::<u64>(), 0..3),
        cut in any::<u64>(),
        extra in 0usize..3,
    ) {
        // Smooth values with repeats, so every control code occurs.
        let values: Vec<f32> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if (repeat_mask >> (i % 64)) & 1 == 1 {
                    1.0
                } else {
                    f32::from_bits(0x3f80_0000 | (s & 0x7fff))
                }
            })
            .collect();
        let clean = XorFloatCodec.encode(&values);
        let count = values.len() + extra;
        let bytes = damage(clean, &flips, cut);
        prop_assert_eq!(xor_decode_bits(&bytes, count), reference_xor_decode(&bytes, count));
    }

    #[test]
    fn xor_decode_matches_reference_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..40),
        count in 0usize..60,
    ) {
        prop_assert_eq!(xor_decode_bits(&data, count), reference_xor_decode(&data, count));
    }

    #[test]
    fn gamma_decode_matches_reference(
        data in proptest::collection::vec(zero_heavy_byte(), 0..40),
        count in 0usize..60,
    ) {
        let mut r = reference::BitReader::new(&data);
        let want: Result<Vec<u64>> = (0..count).map(|_| reference_read_gamma(&mut r)).collect();
        prop_assert_eq!(elias::gamma_decode_all(&data, count), want);
    }

    #[test]
    fn gamma_and_delta_reads_match_reference_step_by_step(
        data in proptest::collection::vec(zero_heavy_byte(), 0..40),
        ops in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        let mut fast = BitReader::new(&data);
        let mut slow = reference::BitReader::new(&data);
        for delta in ops {
            let (got, want) = if delta {
                (elias::read_delta(&mut fast), reference_read_delta(&mut slow))
            } else {
                (elias::read_gamma(&mut fast), reference_read_gamma(&mut slow))
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.bit_pos(), slow.bit_pos());
        }
    }
}

#[test]
fn reads_ending_in_the_last_bytes_match_reference() {
    let data: Vec<u8> = (0..24u32)
        .map(|i| (i.wrapping_mul(0x9E) ^ (i >> 1)) as u8)
        .collect();
    let bits = data.len() * 8;
    // Every start position in the last 9 bytes, every width: covers windows
    // that hit the slice end at each bit offset and every EOF boundary.
    for start in bits - 72..=bits {
        for count in 0..=64 {
            let mut fast = BitReader::new(&data);
            let mut slow = reference::BitReader::new(&data);
            let mut skip = start;
            while skip > 0 {
                let step = skip.min(64) as u32;
                fast.read_bits(step).unwrap();
                slow.read_bits(step).unwrap();
                skip -= step as usize;
            }
            assert_eq!(
                fast.read_bits(count),
                slow.read_bits(count),
                "{start}+{count}"
            );
            assert_eq!(fast.bit_pos(), slow.bit_pos(), "{start}+{count}");
            assert_eq!(fast.read_bit(), slow.read_bit(), "{start}+{count}");
            assert_eq!(fast.read_unary_zeros(), slow.read_unary_zeros());
            assert_eq!(fast.bit_pos(), slow.bit_pos(), "{start}+{count}");
        }
    }
}

#[test]
fn unary_runs_of_64_and_65_zeros_match_reference() {
    for offset in 0..8u32 {
        for zeros in [63u32, 64, 65, 66] {
            for tail in [Some(true), Some(false), None] {
                let mut w = reference::BitWriter::default();
                w.write_bits(u64::MAX, offset);
                w.write_zeros(zeros);
                if let Some(bit) = tail {
                    w.write_bit(bit);
                }
                let bytes = w.into_bytes();
                let ops = [
                    ReadOp::Bits(offset),
                    ReadOp::Unary,
                    ReadOp::Unary,
                    ReadOp::Bit,
                    ReadOp::Unary,
                ];
                // The whole stream and every truncation of it.
                for keep in 0..=bytes.len() {
                    check_reads(&bytes[..keep], &ops);
                }
            }
        }
    }
}
