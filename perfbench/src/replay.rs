//! Kernel replay: times the sharing pipeline's public kernels on vectors
//! captured from the traced run (node 0's last aggregation), and checks
//! that the replay reproduces the strategy's own output bit for bit, so
//! the timed work is the work the run did.

use crate::timing::Capture;
use crate::workload::Sharing;
use jwins::average::PartialAverager;
use jwins::cutoff::AlphaDistribution;
use jwins::sparsify::{budget, top_k_indices};
use jwins::strategies::JwinsConfig;
use jwins_codec::delta::{decode_gamma, encode_gamma};
use jwins_codec::float::{FloatCodec, XorFloatCodec};
use jwins_codec::varint;
use jwins_wavelet::{Dwt, WaveletCoeffs};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-call kernel costs and real encoded sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    /// `Dwt::forward` on the node's parameters, µs.
    pub forward_us: f64,
    /// `Dwt::inverse` of those coefficients, µs.
    pub inverse_us: f64,
    /// `sparsify::top_k_indices` at the round's budget, µs.
    pub topk_us: f64,
    /// One round's `PartialAverager` pass over all inbound messages, µs.
    pub average_us: f64,
    /// `delta::encode_gamma` per message, µs.
    pub index_encode_us: f64,
    /// `delta::decode_gamma` per message, µs.
    pub index_decode_us: f64,
    /// Encoded index bits per index.
    pub index_bits_per_index: f64,
    /// `XorFloatCodec::encode` per message, µs.
    pub value_encode_us: f64,
    /// `XorFloatCodec::decode` per message, µs.
    pub value_decode_us: f64,
    /// Encoded value bytes per value (raw `f32` is 4.0).
    pub value_bytes_per_value: f64,
}

/// Minimum calls and wall time per kernel measurement.
const MIN_CALLS: usize = 32;
const MIN_TIME: Duration = Duration::from_millis(30);
const MAX_CALLS: usize = 20_000;

/// Median per-call time of `f` in µs, after one warm-up call.
fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < MIN_CALLS || (begin.elapsed() < MIN_TIME && samples.len() < MAX_CALLS) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::measure::median(&samples)
}

/// One decoded inbound message with its wire blocks.
struct Inbound<'a> {
    weight: f64,
    count: usize,
    /// Gamma-coded index block (empty for dense full-sharing messages).
    index_block: &'a [u8],
    value_block: &'a [u8],
    indices: Vec<u32>,
    values: Vec<f32>,
}

fn read_varint(bytes: &[u8]) -> Result<(usize, usize), String> {
    let (v, used) = varint::read_u64(bytes).map_err(|e| e.to_string())?;
    Ok((usize::try_from(v).map_err(|e| e.to_string())?, used))
}

/// Splits a message into its blocks (the wire formats of `Jwins` and
/// `FullSharing`) and decodes them.
fn parse(sharing: Sharing, weight: f64, bytes: &[u8]) -> Result<Inbound<'_>, String> {
    let err = |e: jwins_codec::CodecError| e.to_string();
    match sharing {
        Sharing::Jwins => {
            let (count, u1) = read_varint(bytes)?;
            let (index_len, u2) = read_varint(&bytes[u1..])?;
            let header = u1 + u2;
            let index_end = header
                .checked_add(index_len)
                .filter(|&e| e <= bytes.len())
                .ok_or("index block overruns message")?;
            let index_block = &bytes[header..index_end];
            let value_block = &bytes[index_end..];
            Ok(Inbound {
                weight,
                count,
                index_block,
                value_block,
                indices: decode_gamma(index_block, count).map_err(err)?,
                values: XorFloatCodec.decode(value_block, count).map_err(err)?,
            })
        }
        Sharing::Full => {
            let (count, used) = read_varint(bytes)?;
            let value_block = &bytes[used..];
            Ok(Inbound {
                weight,
                count,
                index_block: &[],
                value_block,
                indices: Vec::new(),
                values: XorFloatCodec.decode(value_block, count).map_err(err)?,
            })
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays node 0's captured aggregation through the public kernels.
///
/// # Errors
///
/// Fails when a captured message does not decode, re-encoding does not
/// reproduce the wire bytes, or the replayed average differs from what the
/// strategy returned.
pub fn replay(sharing: Sharing, cap: &Capture) -> Result<KernelCosts, String> {
    if cap.inbound.is_empty() {
        return Err("captured round has no inbound messages".into());
    }
    let inbound = cap
        .inbound
        .iter()
        .map(|(w, bytes)| parse(sharing, *w, bytes))
        .collect::<Result<Vec<_>, _>>()?;
    let paper = JwinsConfig::paper_default();
    let (wavelet, levels) = paper.wavelet.clone().ok_or("paper default has a wavelet")?;
    let dwt = Dwt::new(wavelet, levels).map_err(|e| e.to_string())?;
    let dim = cap.built_from.len();
    let layout = dwt.layout_for(dim);
    let coeffs = dwt.forward(&cap.built_from);

    // Re-encoding each received block must give back its wire bytes.
    for m in &inbound {
        if XorFloatCodec.encode(&m.values) != m.value_block {
            return Err("value block does not re-encode to its wire bytes".into());
        }
        if sharing == Sharing::Jwins
            && encode_gamma(&m.indices).map_err(|e| e.to_string())? != m.index_block
        {
            return Err("index block does not re-encode to its wire bytes".into());
        }
    }

    // The strategy's averaging step, exactly as `aggregate` runs it.
    let average = || -> Vec<f32> {
        match sharing {
            Sharing::Jwins => {
                let mut avg = PartialAverager::new(&coeffs.data, cap.self_weight);
                for m in &inbound {
                    avg.add_sparse(&m.indices, &m.values, m.weight);
                }
                avg.finish()
            }
            Sharing::Full => {
                let mut avg = PartialAverager::new(&cap.mix_params, cap.self_weight);
                for m in &inbound {
                    avg.add_dense(&m.values, m.weight);
                }
                avg.finish()
            }
        }
    };
    let averaged = average();
    let reproduced = match sharing {
        Sharing::Jwins => {
            let wrapped = WaveletCoeffs::from_parts(averaged, layout).map_err(|e| e.to_string())?;
            dwt.inverse(&wrapped).map_err(|e| e.to_string())?
        }
        Sharing::Full => averaged,
    };
    if !bits_equal(&reproduced, &cap.output) {
        return Err("replayed aggregation differs from the strategy's output".into());
    }

    // Index stream: the received ones under JWINS; under full sharing there
    // is none, so the replay codes a top-k selection at the paper's mean
    // budget over this node's coefficients.
    let k = match sharing {
        Sharing::Jwins => inbound.iter().map(|m| m.count).sum::<usize>() / inbound.len(),
        Sharing::Full => budget(coeffs.len(), AlphaDistribution::paper_default().mean()),
    };
    let index_lists: Vec<Vec<u32>> = match sharing {
        Sharing::Jwins => inbound.iter().map(|m| m.indices.clone()).collect(),
        Sharing::Full => vec![top_k_indices(&coeffs.data, k)],
    };
    let index_blocks = index_lists
        .iter()
        .map(|ix| encode_gamma(ix))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let index_count: usize = index_lists.iter().map(Vec::len).sum();
    let index_bytes: usize = index_blocks.iter().map(Vec::len).sum();
    let value_count: usize = inbound.iter().map(|m| m.count).sum();
    let value_bytes: usize = inbound.iter().map(|m| m.value_block.len()).sum();
    let per_list = index_lists.len() as f64;
    let per_msg = inbound.len() as f64;

    Ok(KernelCosts {
        forward_us: time_us(|| dwt.forward(&cap.built_from)),
        inverse_us: time_us(|| dwt.inverse(&coeffs)),
        topk_us: time_us(|| top_k_indices(&coeffs.data, k)),
        average_us: time_us(&average),
        index_encode_us: time_us(|| {
            index_lists
                .iter()
                .map(|ix| encode_gamma(ix).map_or(0, |b| b.len()))
                .sum::<usize>()
        }) / per_list,
        index_decode_us: time_us(|| {
            index_blocks
                .iter()
                .zip(&index_lists)
                .map(|(b, ix)| decode_gamma(b, ix.len()).map_or(0, |v| v.len()))
                .sum::<usize>()
        }) / per_list,
        index_bits_per_index: 8.0 * index_bytes as f64 / index_count.max(1) as f64,
        value_encode_us: time_us(|| {
            inbound
                .iter()
                .map(|m| XorFloatCodec.encode(&m.values).len())
                .sum::<usize>()
        }) / per_msg,
        value_decode_us: time_us(|| {
            inbound
                .iter()
                .map(|m| {
                    XorFloatCodec
                        .decode(m.value_block, m.count)
                        .map_or(0, |v| v.len())
                })
                .sum::<usize>()
        }) / per_msg,
        value_bytes_per_value: value_bytes as f64 / value_count.max(1) as f64,
    })
}
