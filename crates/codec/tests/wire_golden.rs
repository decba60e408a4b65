//! Golden wire bytes for the bit-packed codecs.
//!
//! Every vector below was captured from the bit-at-a-time `BitWriter`
//! before the word-at-a-time rewrite, on fixed seeded inputs. The codecs
//! must keep reproducing them byte for byte: a failure here means the
//! wire format changed. Short streams are pinned in full, long ones by
//! length plus FNV-1a 64 hash.

use jwins_codec::bitio::BitWriter;
use jwins_codec::float::{FloatCodec, XorFloatCodec};
use jwins_codec::quantize::Qsgd;
use jwins_codec::{delta, elias};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

fn xor_values(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let v = match rng.next_u64() % 8 {
            0 => out.last().copied().unwrap_or(0.0),
            1 => f32::from_bits(rng.next_u64() as u32),
            2 => [0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE][i % 5],
            _ => (i as f32 * 0.013).sin() * 0.3 + rng.unit_f32() * 1e-3,
        };
        out.push(v);
    }
    out
}

fn sorted_indices(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::with_capacity(n);
    let mut idx = 0u64;
    for k in 0..n {
        let gap = match rng.next_u64() % 6 {
            0 => 1,
            1 => 1 + rng.next_u64() % 8,
            2 => 1 + rng.next_u64() % 1_000,
            3 => 1 + rng.next_u64() % 100_000,
            _ => 1 + rng.next_u64() % 40,
        };
        idx = if k == 0 { gap - 1 } else { idx + gap };
        if idx > u64::from(u32::MAX) {
            break;
        }
        out.push(idx as u32);
    }
    out
}

fn delta_values(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let mut out = vec![1, 2, 3, 4, u64::MAX, 1 << 63, (1 << 32) - 1, 1 << 32];
    for p in 0..64 {
        out.push(1u64 << p);
        out.push((1u64 << p) | (rng.next_u64() >> (64 - p.max(1))));
    }
    for _ in 0..64 {
        out.push((rng.next_u64() >> (rng.next_u64() % 64)).max(1));
    }
    out
}

fn qsgd_values(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64(seed);
    (0..n).map(|_| (rng.unit_f32() - 0.5) * 4.0).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn write_delta_all(values: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &v in values {
        elias::write_delta(&mut w, v).unwrap();
    }
    w.into_bytes()
}

fn qsgd(levels: u32, values: &[f32], seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64(seed);
    Qsgd::new(levels).encode(values, || rng.unit_f32())
}

fn assert_full(name: &str, got: &[u8], expect_hex: &str) {
    assert_eq!(hex(got), expect_hex, "{name}: wire bytes changed");
}

fn assert_hashed(name: &str, got: &[u8], expect_len: usize, expect_fnv: u64) {
    assert_eq!(got.len(), expect_len, "{name}: wire length changed");
    assert_eq!(fnv1a(got), expect_fnv, "{name}: wire bytes changed");
}

#[test]
fn xor_float_encode_matches_golden() {
    assert_full(
        "xor_small",
        &XorFloatCodec.encode(&xor_values(48, 1)),
        "658eec67c3dbc016ca707eae6d62d6ac5d3452401d58fd50030e444c8606736290b48572a0db\
        d9c2441b216c010038086fc00236bbd0017ce67401e3dad70003856cc00117b4b000c08ce400\
        106c76800c18a4a001a6ff08f4d5dbce12487e388bc11c7fa001910a18003878dc800a88f6a0\
        009bb3d909e266de7f0000008fa1c4a9a000c32879072c808641d1b29a80010317a000d70678\
        0017660e003d0eb08000e5a32000492ef8003543dead3404d3bb379275c0",
    );
    assert_hashed(
        "xor_large",
        &XorFloatCodec.encode(&xor_values(20_000, 2)),
        74806,
        0x9dd4e8fca5da201c,
    );
}

#[test]
fn delta_encode_gamma_matches_golden() {
    assert_full(
        "gamma_small",
        &delta::encode_gamma(&sorted_indices(64, 3)).unwrap(),
        "0005a5400014e90de000180952c130036e004be0002d54801a70268001d80800050a4b0c8033\
        90000bf788001404428813803b00000bb4004002b800c96000684e2021181230e300004781c2\
        d61f60a0bb000153c20003fa18052ca200169825011800069fec",
    );
    assert_hashed(
        "gamma_large",
        &delta::encode_gamma(&sorted_indices(20_000, 4)).unwrap(),
        28951,
        0x6b14fbb0a613f67b,
    );
    assert_full(
        "gamma_edges",
        &delta::encode_gamma(&[u32::MAX - 1, u32::MAX]).unwrap(),
        "00000001ffffffff",
    );
    assert_full(
        "gamma_33_bits",
        &delta::encode_gamma(&[u32::MAX]).unwrap(),
        "000000008000000000",
    );
    assert_hashed(
        "gamma_all_widths",
        &elias::gamma_encode_all(&delta_values(5)).unwrap(),
        1583,
        0xec3553db31db58c2,
    );
}

#[test]
fn elias_write_delta_matches_golden() {
    assert_full(
        "elias_delta_small",
        &write_delta_all(&delta_values(6)[..24]),
        "a2b0081fffffffffffffffc0800000000000000000107fffffff04200000001a23184040502c\
        1806d1c03982000832",
    );
    assert_hashed(
        "elias_delta_all",
        &write_delta_all(&delta_values(6)),
        1011,
        0x5e19f66f62d44a99,
    );
}

#[test]
fn qsgd_encode_matches_golden() {
    assert_full(
        "qsgd_small",
        &qsgd(255, &qsgd_values(32, 7), 8),
        "40e0e65884604703b0d88825961a8378e83a01100f80dc0d8200e61b0480981a83a862300ec0\
        4483f8f03b8d01160420",
    );
    assert_hashed(
        "qsgd_large",
        &qsgd(4, &qsgd_values(5_000, 9), 10),
        1318,
        0xfbc9772f12bac137,
    );
}
