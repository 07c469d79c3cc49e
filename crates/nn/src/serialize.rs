//! Saving and loading network weights.
//!
//! Weights persist only through the crash-safe `drq-store`:
//! [`save_weights_durable`] commits a generation-framed checkpoint and
//! [`load_weights_durable`] reads it back, falling back to the previous
//! generation when the primary is truncated or bit-rotted. The store frame
//! is the one integrity layer; its CRC32 covers every payload byte.
//!
//! The payload is a deliberately simple, dependency-free binary codec: the
//! architecture is *not* serialized (it is code), only the parameter
//! tensors, written in the stable `visit_params` order. Loading into a
//! freshly constructed network of the same architecture restores the
//! trained model. Layout (little-endian):
//!
//! ```text
//! magic  u32 = 0x4452_5157  ("DRQW")
//! version u32 = 3
//! param_count u32
//! per parameter:
//!   rank u32, dims [u32; rank], data [f32; product(dims)]
//! ```
//!
//! Versions 1 and 2 (bare files with and without a CRC32 footer) predate
//! the store and are rejected as [`NnError::BadHeader`]; save them again.

use crate::{Network, NnError};
use drq_store::{ArtifactStore, Storage, StoreError};
use std::io::Read;

const MAGIC: u32 = 0x4452_5157;
const VERSION: u32 = 3;

fn read_u32(r: &mut &[u8]) -> Result<u32, NnError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Encodes all trainable parameters of `net` as a `DRQW` payload.
fn encode(net: &mut Network) -> Vec<u8> {
    let mut count = 0u32;
    net.visit_params(&mut |_, _| count += 1);
    let mut out = Vec::new();
    for word in [MAGIC, VERSION, count] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    net.visit_params(&mut |param, _| {
        out.extend_from_slice(&(param.rank() as u32).to_le_bytes());
        for &d in param.shape() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in param.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    });
    out
}

/// Decodes a `DRQW` payload into `net`, which must have the same
/// architecture (parameter count and shapes). On error the network may be
/// partially updated.
fn decode(net: &mut Network, mut input: &[u8]) -> Result<(), NnError> {
    if read_u32(&mut input)? != MAGIC {
        return Err(NnError::BadHeader("wrong magic".to_string()));
    }
    let version = read_u32(&mut input)?;
    if version != VERSION {
        return Err(NnError::BadHeader(format!(
            "unsupported version {version} (want {VERSION}; re-save older weight files)"
        )));
    }
    let stored = read_u32(&mut input)? as usize;
    let mut expected = 0usize;
    net.visit_params(&mut |_, _| expected += 1);
    if stored != expected {
        return Err(NnError::ArchitectureMismatch(format!(
            "file has {stored} parameters, network has {expected}"
        )));
    }
    let mut result: Result<(), NnError> = Ok(());
    let mut index = 0usize;
    net.visit_params(&mut |param, _| {
        if result.is_err() {
            return;
        }
        result = (|| -> Result<(), NnError> {
            let rank = read_u32(&mut input)? as usize;
            if rank != param.rank() {
                return Err(NnError::ArchitectureMismatch(format!(
                    "parameter {index}: rank {rank} vs expected {}",
                    param.rank()
                )));
            }
            for (axis, &expected_dim) in param.shape().to_vec().iter().enumerate() {
                let dim = read_u32(&mut input)? as usize;
                if dim != expected_dim {
                    return Err(NnError::ArchitectureMismatch(format!(
                        "parameter {index} axis {axis}: {dim} vs expected {expected_dim}"
                    )));
                }
            }
            let mut buf = [0u8; 4];
            for v in param.as_mut_slice() {
                input.read_exact(&mut buf)?;
                *v = f32::from_le_bytes(buf);
            }
            Ok(())
        })();
        index += 1;
    });
    result?;
    if !input.is_empty() {
        return Err(NnError::CorruptCheckpoint {
            detail: format!("{} trailing bytes after the last parameter", input.len()),
        });
    }
    Ok(())
}

/// Provenance of a [`load_weights_durable`] call: which generation the
/// checkpoint came from and whether it had to be salvaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableWeights {
    /// Store generation the weights came from.
    pub generation: u64,
    /// `Some(why)` when the primary checkpoint was rejected and the
    /// weights were salvaged from the previous generation.
    pub salvaged: Option<String>,
}

fn store_err(e: StoreError) -> NnError {
    match e {
        StoreError::Corrupt { .. } | StoreError::Unrecoverable { .. } => {
            NnError::CorruptCheckpoint { detail: e.to_string() }
        }
        other => NnError::Io(other.to_string()),
    }
}

/// Saves `net`'s weights as the next generation of the framed checkpoint
/// at `path` in `store`, returning the committed generation.
///
/// A failure anywhere — disk full, crash — leaves the previous checkpoint
/// intact and loadable: the payload is fully encoded in memory first and
/// then committed atomically with rotation to `<path>.prev`.
///
/// # Errors
///
/// [`NnError::Io`] when the store commit fails; on error nothing at `path`
/// has changed.
///
/// # Examples
///
/// ```
/// use drq_nn::{load_weights_durable, save_weights_durable, Layer, Linear, Network};
/// use drq_store::{ArtifactStore, MemStorage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = ArtifactStore::new(MemStorage::new());
/// let mut a = Network::new(vec![Layer::from(Linear::new(2, 2, 1))]);
/// save_weights_durable(&mut a, &store, "w.bin")?;
/// let mut b = Network::new(vec![Layer::from(Linear::new(2, 2, 99))]);
/// load_weights_durable(&mut b, &store, "w.bin")?;
/// assert_eq!(a, b);
/// # Ok(())
/// # }
/// ```
pub fn save_weights_durable<S: Storage>(
    net: &mut Network,
    store: &ArtifactStore<S>,
    path: &str,
) -> Result<u64, NnError> {
    store.commit(path, &encode(net)).map_err(store_err)
}

/// Loads weights from the framed checkpoint at `path` in `store` into
/// `net`, falling back to the previous generation when the primary is
/// missing, corrupt, or not a store frame at all.
///
/// # Errors
///
/// [`NnError::Io`] when nothing exists at `path`,
/// [`NnError::CorruptCheckpoint`] when no copy validates,
/// [`NnError::BadHeader`] for a payload that is not a current `DRQW`
/// stream, and [`NnError::ArchitectureMismatch`] when the recovered
/// weights do not fit `net`.
pub fn load_weights_durable<S: Storage>(
    net: &mut Network,
    store: &ArtifactStore<S>,
    path: &str,
) -> Result<DurableWeights, NnError> {
    let outcome = store.load(path).map_err(store_err)?;
    decode(net, &outcome.payload)?;
    Ok(DurableWeights { generation: outcome.generation, salvaged: outcome.salvaged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, Flatten, Layer, Linear, Pool2d, PoolKind, ReLU};
    use drq_store::MemStorage;
    use drq_tensor::Tensor;

    fn sample_net(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 3, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(3)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Max, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(3 * 16, 5, seed + 1)),
        ])
    }

    fn mem_store() -> (ArtifactStore<MemStorage>, MemStorage) {
        let mem = MemStorage::new();
        (ArtifactStore::new(mem.clone()), mem)
    }

    #[test]
    fn round_trip_restores_exact_weights_and_outputs() {
        let mut a = sample_net(11);
        let bytes = encode(&mut a);
        let mut b = sample_net(999); // different init
        decode(&mut b, &bytes).unwrap();
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i as f32 * 0.11).sin());
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = sample_net(1);
        let err = decode(&mut net, &[0u8; 64]).unwrap_err();
        assert!(matches!(err, NnError::BadHeader(_)));
    }

    #[test]
    fn rejects_pre_store_v1_and_v2_streams_as_bad_header() {
        let mut a = sample_net(21);
        let mut bytes = encode(&mut a);
        for old in [1u32, 2] {
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            let mut b = sample_net(22);
            match decode(&mut b, &bytes).unwrap_err() {
                NnError::BadHeader(m) => assert!(m.contains(&format!("version {old}")), "{m}"),
                other => panic!("expected BadHeader for v{old}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = sample_net(1);
        let bytes = encode(&mut a);
        // Different FC width.
        let mut b = Network::new(vec![Layer::from(Linear::new(4, 4, 1))]);
        let err = decode(&mut b, &bytes).unwrap_err();
        assert!(matches!(err, NnError::ArchitectureMismatch(_)));
    }

    #[test]
    fn rejects_truncated_and_overlong_streams_as_corrupt() {
        let mut a = sample_net(2);
        let bytes = encode(&mut a);
        let mut b = sample_net(3);
        let err = decode(&mut b, &bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, NnError::CorruptCheckpoint { .. }), "{err:?}");
        let mut long = bytes.clone();
        long.push(0);
        let err = decode(&mut b, &long).unwrap_err();
        assert!(matches!(err, NnError::CorruptCheckpoint { .. }), "{err:?}");
    }

    #[test]
    fn header_is_stable() {
        let mut a = Network::new(vec![Layer::from(Linear::new(1, 1, 1))]);
        let bytes = encode(&mut a);
        assert_eq!(&bytes[0..4], &MAGIC.to_le_bytes());
        assert_eq!(&bytes[4..8], &3u32.to_le_bytes());
        assert_eq!(&bytes[8..12], &2u32.to_le_bytes()); // weight + bias
    }

    #[test]
    fn durable_save_load_round_trips_with_generations() {
        let (store, _mem) = mem_store();
        let mut a = sample_net(31);
        assert_eq!(save_weights_durable(&mut a, &store, "w.bin").unwrap(), 1);
        assert_eq!(save_weights_durable(&mut a, &store, "w.bin").unwrap(), 2);
        let mut b = sample_net(32);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info, DurableWeights { generation: 2, salvaged: None });
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_salvages_previous_generation_from_a_torn_primary() {
        let (store, mem) = mem_store();
        let mut a = sample_net(41);
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        let full = mem.read("w.bin").unwrap();
        mem.put("w.bin", full[..full.len() / 2].to_vec());
        let mut b = sample_net(42);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.salvaged.is_some());
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_rejects_a_payload_bit_flip_and_salvages_from_prev() {
        let (store, mem) = mem_store();
        let mut a = sample_net(7);
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        // Flip one bit in the middle of the parameter data.
        let mut flipped = mem.read("w.bin").unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        mem.put("w.bin", flipped.clone());
        let mut b = sample_net(8);
        match load_weights_durable(&mut b, &store, "w.bin").unwrap_err() {
            NnError::CorruptCheckpoint { detail } => assert!(detail.contains("crc32"), "{detail}"),
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        // With a good previous generation, the same flip is salvaged.
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        let mut flipped = mem.read("w.bin").unwrap();
        flipped[mid] ^= 0x10;
        mem.put("w.bin", flipped);
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert!(info.salvaged.is_some_and(|why| why.contains("crc32")));
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_rejects_unframed_files_and_falls_back_to_prev() {
        let (store, mem) = mem_store();
        let mut a = sample_net(51);
        mem.put("w.bin", encode(&mut a)); // a bare payload, never committed
        let mut b = sample_net(52);
        match load_weights_durable(&mut b, &store, "w.bin").unwrap_err() {
            NnError::CorruptCheckpoint { detail } => assert!(detail.contains("unframed"), "{detail}"),
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        save_weights_durable(&mut a, &store, "w.bin").unwrap();
        mem.put("w.bin", encode(&mut a));
        let info = load_weights_durable(&mut b, &store, "w.bin").unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.salvaged.is_some_and(|why| why.contains("unframed")));
        assert_eq!(a, b);
    }

    #[test]
    fn durable_load_maps_store_errors_onto_typed_nn_errors() {
        let (store, mem) = mem_store();
        let mut net = sample_net(61);
        let err = load_weights_durable(&mut net, &store, "none.bin").unwrap_err();
        assert!(matches!(err, NnError::Io(_)), "{err:?}");
        // Corrupt both generations: typed CorruptCheckpoint, not a panic.
        save_weights_durable(&mut net, &store, "w.bin").unwrap();
        save_weights_durable(&mut net, &store, "w.bin").unwrap();
        for p in ["w.bin", "w.bin.prev"] {
            let full = mem.read(p).unwrap();
            mem.put(p, full[..20].to_vec());
        }
        let err = load_weights_durable(&mut net, &store, "w.bin").unwrap_err();
        assert!(matches!(err, NnError::CorruptCheckpoint { .. }), "{err:?}");
    }
}
