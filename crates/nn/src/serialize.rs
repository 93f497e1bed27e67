//! Bitwise binary serialization of networks, and network identity.
//!
//! [`net_to_bytes`] is the canonical encoding: two networks produce
//! identical bytes exactly when they are bitwise-identical (same
//! topology, same activation constants, same raw f64 weight bits).
//! [`net_from_bytes`] is its fully validating inverse: decoding arbitrary
//! (possibly corrupted) bytes returns [`DecodeError`] instead of
//! panicking, so a damaged record can degrade to a store miss.
//!
//! [`NetId`] — those bytes plus their [`checksum64`] — is the workspace's
//! one definition of "the same network": hashes index, bytes prove.
//!
//! The format is little-endian 64-bit words throughout (see
//! [`neurofail_tensor::io`]): a version word, the layer count, then per
//! layer a kind tag (dense/conv), the activation (tag + raw gain bits),
//! the shape, and the raw weight/bias bits; finally the output node's
//! weights and bias. Activation gains serialize as bit patterns, not
//! values, so `k = 0.1` round-trips exactly.

use std::fmt;
use std::sync::Arc;

use neurofail_tensor::io::{checksum64, ByteReader, ByteWriter, DecodeError};
use neurofail_tensor::Matrix;

use crate::activation::Activation;
use crate::conv::Conv1dLayer;
use crate::layer::DenseLayer;
use crate::network::{Layer, Mlp};

/// Format version written as the first word. Bump on any layout change:
/// decoders reject unknown versions rather than guessing.
pub const NET_FORMAT_VERSION: u64 = 1;

const KIND_DENSE: u64 = 0;
const KIND_CONV1D: u64 = 1;

const ACT_SIGMOID: u64 = 1;
const ACT_TANH: u64 = 2;
const ACT_RELU: u64 = 3;
const ACT_IDENTITY: u64 = 4;

fn put_activation(w: &mut ByteWriter, a: Activation) {
    match a {
        Activation::Sigmoid { k } => {
            w.put_u64(ACT_SIGMOID);
            w.put_u64(k.to_bits());
        }
        Activation::Tanh { k } => {
            w.put_u64(ACT_TANH);
            w.put_u64(k.to_bits());
        }
        Activation::Relu => {
            w.put_u64(ACT_RELU);
            w.put_u64(0);
        }
        Activation::Identity => {
            w.put_u64(ACT_IDENTITY);
            w.put_u64(0);
        }
    }
}

fn get_activation(r: &mut ByteReader<'_>) -> Result<Activation, DecodeError> {
    let tag = r.get_u64()?;
    let bits = r.get_u64()?;
    let gain = f64::from_bits(bits);
    match tag {
        // Constructors downstream assume K > 0 (Lipschitz constant); a
        // corrupted gain word must not smuggle in NaN or a non-positive K.
        ACT_SIGMOID | ACT_TANH if !(gain.is_finite() && gain > 0.0) => {
            Err(DecodeError("activation gain out of range"))
        }
        ACT_SIGMOID => Ok(Activation::Sigmoid { k: gain }),
        ACT_TANH => Ok(Activation::Tanh { k: gain }),
        ACT_RELU if bits == 0 => Ok(Activation::Relu),
        ACT_IDENTITY if bits == 0 => Ok(Activation::Identity),
        _ => Err(DecodeError("unknown activation")),
    }
}

fn put_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_u64(m.rows() as u64);
    w.put_u64(m.cols() as u64);
    for &v in m.data() {
        w.put_f64(v);
    }
}

fn get_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, DecodeError> {
    let rows = r.get_len(1)?;
    let cols = r.get_len(1)?;
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n.checked_mul(8).is_some_and(|b| b <= r.remaining()))
        .ok_or(DecodeError("matrix dims exceed input"))?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f64()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Serialize a network to its canonical byte image.
///
/// Pure in the bits: `net_to_bytes(a) == net_to_bytes(b)` iff `a` and `b`
/// have identical topology, activations (by gain *bit pattern*), and raw
/// weight/bias bits. This is the store's ground truth for "same network".
pub fn net_to_bytes(net: &Mlp) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(NET_FORMAT_VERSION);
    w.put_u64(net.depth() as u64);
    for layer in net.layers() {
        match layer {
            Layer::Dense(l) => {
                w.put_u64(KIND_DENSE);
                put_activation(&mut w, l.activation());
                put_matrix(&mut w, l.weights());
                w.put_f64_slice(l.bias());
            }
            Layer::Conv1d(l) => {
                w.put_u64(KIND_CONV1D);
                put_activation(&mut w, l.activation());
                w.put_u64(l.in_dim() as u64);
                put_matrix(&mut w, l.kernels());
                w.put_f64_slice(l.bias());
            }
        }
    }
    w.put_f64_slice(net.output_weights());
    w.put_f64(net.output_bias());
    w.into_bytes()
}

/// Decode a network from bytes produced by [`net_to_bytes`].
///
/// Fully validating: truncation, trailing garbage, unknown tags,
/// inconsistent shapes (chained layer dims, bias lengths, output-weight
/// count) and out-of-range activation gains all return [`DecodeError`].
/// Never panics on arbitrary input — every invariant `Mlp::new` would
/// assert is checked here first and surfaced as an error.
pub fn net_from_bytes(bytes: &[u8]) -> Result<Mlp, DecodeError> {
    let mut r = ByteReader::new(bytes);
    if r.get_u64()? != NET_FORMAT_VERSION {
        return Err(DecodeError("unsupported net format version"));
    }
    let depth = r.get_len(8)?;
    if depth == 0 {
        return Err(DecodeError("network has no layers"));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        let kind = r.get_u64()?;
        let activation = get_activation(&mut r)?;
        let layer = match kind {
            KIND_DENSE => {
                let weights = get_matrix(&mut r)?;
                let bias = r.get_f64_vec()?;
                if !(bias.is_empty() || bias.len() == weights.rows()) {
                    return Err(DecodeError("dense bias length mismatch"));
                }
                if weights.rows() == 0 || weights.cols() == 0 {
                    return Err(DecodeError("empty dense layer"));
                }
                Layer::Dense(DenseLayer::new(weights, bias, activation))
            }
            KIND_CONV1D => {
                let in_len = r.get_len(1)?;
                let kernels = get_matrix(&mut r)?;
                let bias = r.get_f64_vec()?;
                if kernels.rows() == 0 || kernels.cols() == 0 || kernels.cols() > in_len {
                    return Err(DecodeError("conv kernel shape out of range"));
                }
                if !(bias.is_empty() || bias.len() == kernels.rows()) {
                    return Err(DecodeError("conv bias length mismatch"));
                }
                Layer::Conv1d(Conv1dLayer::new(kernels, bias, activation, in_len))
            }
            _ => return Err(DecodeError("unknown layer kind")),
        };
        if let Some(prev) = layers.last() {
            let prev: &Layer = prev;
            if prev.out_dim() != layer.in_dim() {
                return Err(DecodeError("layer dimension chain broken"));
            }
        }
        layers.push(layer);
    }
    let output_weights = r.get_f64_vec()?;
    let output_bias = r.get_f64()?;
    if output_weights.len() != layers.last().expect("non-empty").out_dim() {
        return Err(DecodeError("output weight count mismatch"));
    }
    if !r.is_exhausted() {
        return Err(DecodeError("trailing bytes after network"));
    }
    Ok(Mlp::new(layers, output_weights, output_bias))
}

/// A network's identity: its canonical bytes ([`net_to_bytes`]) and their
/// [`checksum64`]. Equal exactly when the networks are bitwise identical
/// (hash, then bytes — unlike `Mlp`'s by-value `PartialEq`, `-0.0 != 0.0`).
/// [`NetId::of`] costs about two walks over the parameters, so each owner
/// computes it once and passes it down; clones share the bytes.
#[derive(Clone)]
pub struct NetId {
    hash: u64,
    bytes: Arc<[u8]>,
}

impl NetId {
    /// Encode `net` canonically and hash the bytes.
    pub fn of(net: &Mlp) -> NetId {
        let bytes: Arc<[u8]> = net_to_bytes(net).into();
        NetId {
            hash: checksum64(&bytes),
            bytes,
        }
    }

    /// The content hash: [`checksum64`] of the canonical bytes. An index,
    /// never a proof.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical bytes ([`net_to_bytes`]).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for NetId {
    fn eq(&self, other: &NetId) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes)
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NetId({:016x}, {} bytes)", self.hash, self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MlpBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_nets() -> Vec<Mlp> {
        let mut rng = SmallRng::seed_from_u64(0x5e71a);
        let dense = MlpBuilder::new(4)
            .dense(6, Activation::Sigmoid { k: 0.1 })
            .dense(3, Activation::Tanh { k: 0.25 })
            .build(&mut rng);
        let mixed = MlpBuilder::new(8)
            .conv1d(2, 3, Activation::Relu)
            .dense(5, Activation::Identity)
            .build(&mut rng);
        vec![dense, mixed]
    }

    #[test]
    fn round_trip_is_bitwise() {
        for net in sample_nets() {
            let bytes = net_to_bytes(&net);
            let back = net_from_bytes(&bytes).expect("round trip");
            // PartialEq on Mlp compares weights by value; the bitwise claim
            // is that re-encoding yields the identical byte image.
            assert_eq!(net_to_bytes(&back), bytes);
            assert_eq!(back, net);
            assert_eq!(NetId::of(&back), NetId::of(&net));
        }
    }

    #[test]
    fn encoding_distinguishes_weight_bits() {
        let net = &sample_nets()[0];
        let a = net_to_bytes(net);
        let mut tweaked = net.clone();
        match &mut tweaked.layers_mut()[0] {
            Layer::Dense(l) => {
                let w = l.weights_mut().data_mut();
                w[0] = f64::from_bits(w[0].to_bits() ^ 1); // one ulp
            }
            Layer::Conv1d(_) => unreachable!(),
        }
        assert_ne!(net_to_bytes(&tweaked), a);
        assert_ne!(NetId::of(&tweaked), NetId::of(net));
    }

    #[test]
    fn net_id_is_bitwise_not_by_value() {
        let net = &sample_nets()[0];
        let id = NetId::of(net);
        assert_eq!(id.hash(), checksum64(id.bytes()));
        assert_eq!(id.clone(), id);
        // An activation gain is identity.
        let mut regained = net.clone();
        if let Layer::Dense(l) = &mut regained.layers_mut()[0] {
            let k = Activation::Sigmoid { k: 0.2 };
            *l = DenseLayer::new(l.weights().clone(), l.bias().to_vec(), k);
        }
        assert_ne!(NetId::of(&regained), id);
        // A -0.0 output bias equals 0.0 as a network, never as an identity.
        let with_bias = |b| Mlp::new(net.layers().to_vec(), net.output_weights().to_vec(), b);
        assert_eq!(with_bias(0.0), with_bias(-0.0));
        assert_ne!(NetId::of(&with_bias(0.0)), NetId::of(&with_bias(-0.0)));
    }

    #[test]
    fn decode_never_panics_on_damage() {
        for net in sample_nets() {
            let bytes = net_to_bytes(&net);
            // Every truncation point fails cleanly.
            for cut in 0..bytes.len() {
                assert!(net_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            // Trailing garbage is rejected.
            let mut ext = bytes.clone();
            ext.extend_from_slice(&[0u8; 8]);
            assert!(net_from_bytes(&ext).is_err());
            // Header word corruptions fail cleanly (flipping payload f64
            // bits may still decode — that is the checksum's job, not the
            // shape validator's).
            for word in 0..4 {
                let mut bad = bytes.clone();
                bad[word * 8] ^= 0xFF;
                let _ = net_from_bytes(&bad); // must not panic
            }
        }
        // An activation gain word corrupted to a negative/NaN K is rejected.
        let net = &sample_nets()[0];
        let mut bytes = net_to_bytes(net);
        // Words: version, depth, kind, act-tag, act-gain — gain is word 4.
        bytes[4 * 8..5 * 8].copy_from_slice(&f64::NEG_INFINITY.to_bits().to_le_bytes());
        assert_eq!(
            net_from_bytes(&bytes),
            Err(DecodeError("activation gain out of range"))
        );
    }
}
