//! The artifact store proper: the frame codec, the atomic commit
//! protocol, generation rotation, and recovery.
//!
//! # Frame layout
//!
//! A framed artifact is text-safe (JSON payloads stay grep-able, `sed`
//! scrapes in CI keep working) but carries binary payloads unmodified:
//!
//! ```text
//! {"store":"drq-store","store_version":1,"generation":N,"payload_len":L}\n
//! <L payload bytes>\n
//! {"crc32":C}\n
//! ```
//!
//! `C` is the IEEE CRC32 (reflected, polynomial `0xEDB88320`) over
//! **every byte preceding the footer line**, i.e. the header line, the
//! payload, and the separator newline. A truncation at any byte offset, a
//! flipped bit, a wrong length, or a file that is not a frame at all
//! (unframed) fails validation with a message saying which check tripped.
//!
//! # Commit protocol
//!
//! [`ArtifactStore::commit`] runs, in order:
//!
//! 1. probe the current primary (full frame validation — a torn primary
//!    must never be rotated over the last good copy);
//! 2. write the new frame to `<path>.tmp` and fsync it;
//! 3. if (and only if) the primary validated, rename it to `<path>.prev`;
//! 4. rename `<path>.tmp` to `<path>`.
//!
//! Every rename is atomic, so a crash or injected fault anywhere in the
//! sequence leaves a reader with generation *N* or *N−1* — see the crate
//! docs for the full invariant, and `tests/store_chaos.rs` for the
//! property that proves it under every injected fault schedule.

use crate::storage::{FsStorage, Storage};
use drq_telemetry::{counter_add, Json};

/// First bytes of every framed artifact; anything else is unframed.
const FRAME_PREFIX: &[u8] = b"{\"store\":\"drq-store\"";

/// Suffix of the previous-generation rotation target.
pub const PREV_SUFFIX: &str = ".prev";

/// Suffix of the in-flight temp file a commit renames into place.
pub const TMP_SUFFIX: &str = ".tmp";

/// Frame format version.
const STORE_VERSION: u64 = 1;

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`) over `bytes` — the
/// frame footer checksum, the one integrity check on every durable
/// artifact.
fn crc32(bytes: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !state
}

/// Typed failure of a store operation. Every variant names the artifact
/// path; recovery variants additionally say what was (or was not)
/// salvageable, so callers can surface an actionable message instead of a
/// bare I/O string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying storage primitive failed.
    Io {
        /// Which primitive (`"write"`, `"fsync"`, `"rename"`, ...).
        op: &'static str,
        /// The path the primitive was operating on.
        path: String,
        /// The storage layer's error text.
        detail: String,
    },
    /// A file exists but fails frame validation (truncated, bit-rotted,
    /// wrong length, bad footer) and no fallback applies.
    Corrupt {
        /// The failing file.
        path: String,
        /// Which validation check tripped.
        detail: String,
    },
    /// Neither the primary nor a previous generation exists.
    Missing {
        /// The primary artifact path.
        path: String,
    },
    /// Both the primary and the previous generation exist but neither
    /// validates — nothing could be salvaged.
    Unrecoverable {
        /// The primary artifact path.
        path: String,
        /// Why the primary was rejected.
        primary: String,
        /// Why the `.prev` fallback was rejected.
        previous: String,
    },
    /// An I/O fault plan failed to parse or validate.
    FaultPlan {
        /// What was wrong with the plan.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "store {op} failed on {path}: {detail}")
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {path}: {detail}")
            }
            StoreError::Missing { path } => {
                write!(f, "no artifact at {path} (and no {path}{PREV_SUFFIX})")
            }
            StoreError::Unrecoverable { path, primary, previous } => write!(
                f,
                "unrecoverable artifact {path}: primary: {primary}; previous generation: {previous}"
            ),
            StoreError::FaultPlan { detail } => write!(f, "bad I/O fault plan: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<crate::FaultPlanError> for StoreError {
    fn from(e: crate::FaultPlanError) -> Self {
        StoreError::FaultPlan { detail: e.detail }
    }
}

/// A successful [`ArtifactStore::load`]: the payload plus provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// The artifact payload, byte-exact as committed.
    pub payload: Vec<u8>,
    /// The generation the payload came from.
    pub generation: u64,
    /// `Some(why)` when the primary was rejected and the payload was
    /// salvaged from the previous generation; the string says exactly
    /// which validation check the primary failed.
    pub salvaged: Option<String>,
}

/// What probing one file found.
enum Probe {
    Missing,
    Valid {
        generation: u64,
        payload: Vec<u8>,
    },
    Corrupt(String),
}

impl Probe {
    /// Human-readable rejection reason (valid probes have none).
    fn reject_reason(&self) -> String {
        match self {
            Probe::Missing => "missing".to_string(),
            Probe::Corrupt(detail) => detail.clone(),
            Probe::Valid { .. } => unreachable!("valid probes are never rejected"),
        }
    }
}

/// Encodes one frame.
fn encode_frame(generation: u64, payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{{\"store\":\"drq-store\",\"store_version\":{STORE_VERSION},\
         \"generation\":{generation},\"payload_len\":{}}}\n",
        payload.len()
    );
    let mut out = Vec::with_capacity(header.len() + payload.len() + 24);
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out.push(b'\n');
    let crc = crc32(&out);
    out.extend_from_slice(format!("{{\"crc32\":{crc}}}\n").as_bytes());
    out
}

/// Decodes and fully validates one frame.
fn decode_frame(bytes: &[u8]) -> Result<(u64, Vec<u8>), String> {
    if !bytes.starts_with(FRAME_PREFIX) {
        return Err("unframed: does not start with a drq-store header".to_string());
    }
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| "truncated: no header line".to_string())?;
    let header_text = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| "header line is not UTF-8".to_string())?;
    let header = Json::parse(header_text).map_err(|e| format!("bad header JSON: {e}"))?;
    let field = |k: &str| {
        header
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("header missing integer {k:?}"))
    };
    let version = field("store_version")?;
    if version != STORE_VERSION {
        return Err(format!("unsupported store_version {version} (want {STORE_VERSION})"));
    }
    let generation = field("generation")?;
    let payload_len = field("payload_len")?;
    let payload_start = header_end + 1;
    // Compare before adding: a hostile length must not overflow.
    let have = bytes.len() - payload_start;
    if (have as u64) < payload_len {
        return Err(format!("truncated: {have} of {payload_len} payload bytes present"));
    }
    let body_end = payload_start + payload_len as usize; // exclusive; separator follows
    if bytes.get(body_end) != Some(&b'\n') {
        return Err("payload not followed by the footer separator".to_string());
    }
    let footer_text = std::str::from_utf8(&bytes[body_end + 1..])
        .map_err(|_| "footer line is not UTF-8".to_string())?;
    let footer = Json::parse(footer_text.trim_end_matches('\n'))
        .map_err(|e| format!("bad footer JSON: {e}"))?;
    let stored = footer
        .get("crc32")
        .and_then(Json::as_u64)
        .filter(|&c| c <= u64::from(u32::MAX))
        .ok_or_else(|| "footer missing crc32".to_string())? as u32;
    if !footer_text.ends_with('\n') || footer_text.matches('\n').count() != 1 {
        return Err("trailing bytes after the footer line".to_string());
    }
    let computed = crc32(&bytes[..body_end + 1]);
    if stored != computed {
        return Err(format!(
            "crc32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    Ok((generation, bytes[payload_start..body_end].to_vec()))
}

/// The previous-generation path for `path`.
pub(crate) fn prev_path(path: &str) -> String {
    format!("{path}{PREV_SUFFIX}")
}

/// The in-flight temp path for `path`.
pub(crate) fn tmp_path(path: &str) -> String {
    format!("{path}{TMP_SUFFIX}")
}

/// The crash-safe artifact store. See the [crate docs](crate) and the
/// `store` module's documentation (in its source) for the commit protocol
/// and recovery invariant.
#[derive(Debug, Clone)]
pub struct ArtifactStore<S: Storage = FsStorage> {
    storage: S,
}

impl ArtifactStore<FsStorage> {
    /// A store over the real filesystem — the production configuration.
    pub fn fs() -> Self {
        Self::new(FsStorage::new())
    }
}

impl<S: Storage> ArtifactStore<S> {
    /// A store committing through `storage`.
    pub fn new(storage: S) -> Self {
        Self { storage }
    }

    /// The underlying storage (tests use this to inspect fault counters).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    fn io_err(&self, op: &'static str, path: &str, e: std::io::Error) -> StoreError {
        StoreError::Io { op, path: path.to_string(), detail: e.to_string() }
    }

    /// Atomically replaces `path` with exactly `bytes`: temp file, fsync,
    /// rename. No framing, no rotation — the destination holds either its
    /// old content or `bytes`, never a torn hybrid. This is the mode for
    /// artifacts whose consumers demand raw payload bytes (metrics
    /// reports, traces, canonical transcripts, exported images).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] naming the failing primitive; on error the old
    /// content of `path` is intact.
    pub fn commit_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        self.storage.write(&tmp, bytes).map_err(|e| self.io_err("write", &tmp, e))?;
        self.storage.fsync(&tmp).map_err(|e| self.io_err("fsync", &tmp, e))?;
        self.storage.rename(&tmp, path).map_err(|e| self.io_err("rename", path, e))?;
        counter_add!("store/atomic_commits", 1);
        Ok(())
    }

    /// Commits `payload` as the next generation of the framed artifact at
    /// `path`, rotating the current (re-validated) generation to
    /// `<path>.prev` first. Returns the committed generation number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] naming the failing step. Whatever the failure
    /// point, the artifact remains loadable: either the old primary is
    /// untouched, or it has moved to `.prev` and [`Self::load`] falls back
    /// to it.
    pub fn commit(&self, path: &str, payload: &[u8]) -> Result<u64, StoreError> {
        let primary = self.probe(path);
        // The next generation number continues from the newest copy that
        // still validates; with neither readable the numbering restarts —
        // recovery never depends on the absolute number, only on the
        // primary/prev file roles.
        let generation = match &primary {
            Probe::Valid { generation, .. } => generation + 1,
            _ => match self.probe(&prev_path(path)) {
                Probe::Valid { generation, .. } => generation + 1,
                _ => 1,
            },
        };
        let frame = encode_frame(generation, payload);
        let tmp = tmp_path(path);
        self.storage.write(&tmp, &frame).map_err(|e| self.io_err("write", &tmp, e))?;
        self.storage.fsync(&tmp).map_err(|e| self.io_err("fsync", &tmp, e))?;
        if matches!(primary, Probe::Valid { .. }) {
            // Only a frame that validates *right now* may displace the
            // previous good generation; a torn primary is left to be
            // overwritten so `.prev` keeps the last good bytes.
            let prev = prev_path(path);
            self.storage.rename(path, &prev).map_err(|e| self.io_err("rename", &prev, e))?;
        }
        self.storage.rename(&tmp, path).map_err(|e| self.io_err("rename", path, e))?;
        counter_add!("store/commits", 1);
        Ok(generation)
    }

    /// Loads the framed artifact at `path`, falling back to the previous
    /// generation when the primary is missing or fails validation (an
    /// unframed file fails it too).
    ///
    /// # Errors
    ///
    /// * [`StoreError::Missing`] — neither file exists;
    /// * [`StoreError::Corrupt`] — the primary fails validation and no
    ///   previous generation exists;
    /// * [`StoreError::Unrecoverable`] — both files exist, neither
    ///   validates; the message carries both rejection reasons.
    pub fn load(&self, path: &str) -> Result<LoadOutcome, StoreError> {
        match self.probe(path) {
            Probe::Valid { generation, payload } => {
                Ok(LoadOutcome { payload, generation, salvaged: None })
            }
            rejected => {
                let why = rejected.reject_reason();
                match self.probe(&prev_path(path)) {
                    Probe::Valid { generation, payload } => {
                        counter_add!("store/fallbacks", 1);
                        Ok(LoadOutcome { payload, generation, salvaged: Some(why) })
                    }
                    Probe::Missing => match rejected {
                        Probe::Missing => Err(StoreError::Missing { path: path.to_string() }),
                        _ => Err(StoreError::Corrupt { path: path.to_string(), detail: why }),
                    },
                    prev_rejected => Err(StoreError::Unrecoverable {
                        path: path.to_string(),
                        primary: why,
                        previous: prev_rejected.reject_reason(),
                    }),
                }
            }
        }
    }

    /// Reads and classifies one file (never touches `.prev`).
    fn probe(&self, path: &str) -> Probe {
        if !self.storage.exists(path) {
            return Probe::Missing;
        }
        let bytes = match self.storage.read(path) {
            Ok(b) => b,
            Err(e) => return Probe::Corrupt(format!("read failed: {e}")),
        };
        match decode_frame(&bytes) {
            Ok((generation, payload)) => Probe::Valid { generation, payload },
            Err(detail) => Probe::Corrupt(detail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn mem_store() -> (ArtifactStore<MemStorage>, MemStorage) {
        let mem = MemStorage::new();
        (ArtifactStore::new(mem.clone()), mem)
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips_binary_payloads() {
        let payload: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
        let frame = encode_frame(7, &payload);
        assert!(frame.starts_with(FRAME_PREFIX));
        let (generation, back) = decode_frame(&frame).unwrap();
        assert_eq!(generation, 7);
        assert_eq!(back, payload);
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let frame = encode_frame(3, b"{\"k\":\"v\"}\n");
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).expect_err("truncation must fail");
            assert!(!err.is_empty(), "cut at {cut} produced an empty reason");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_frame(1, b"payload bytes");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut rotted = frame.clone();
                rotted[byte] ^= 1 << bit;
                let decoded = decode_frame(&rotted);
                // A flip may corrupt payload (CRC catches it) or mangle
                // the header/footer (structural checks catch it); either
                // way it must never decode to the original payload
                // silently *or* to different bytes successfully.
                if let Ok((_, payload)) = decoded {
                    panic!(
                        "bit flip at byte {byte} bit {bit} decoded successfully to {payload:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn commit_load_cycle_tracks_generations() {
        let (store, _mem) = mem_store();
        assert_eq!(store.commit("a.json", b"one").unwrap(), 1);
        assert_eq!(store.commit("a.json", b"two").unwrap(), 2);
        assert_eq!(store.commit("a.json", b"three").unwrap(), 3);
        let got = store.load("a.json").unwrap();
        assert_eq!((got.payload.as_slice(), got.generation), (b"three".as_slice(), 3));
        let prev = store.load("a.json.prev").unwrap();
        assert_eq!((prev.payload.as_slice(), prev.generation), (b"two".as_slice(), 2));
    }

    #[test]
    fn torn_primary_falls_back_to_previous_generation() {
        let (store, mem) = mem_store();
        store.commit("a.json", b"one").unwrap();
        store.commit("a.json", b"two").unwrap();
        let full = mem.read("a.json").unwrap();
        mem.put("a.json", full[..full.len() / 2].to_vec());
        let got = store.load("a.json").unwrap();
        assert_eq!(got.payload, b"one");
        assert_eq!(got.generation, 1);
        let why = got.salvaged.expect("fallback must report why");
        assert!(why.contains("truncated"), "{why}");
    }

    #[test]
    fn torn_primary_is_never_rotated_over_the_last_good_copy() {
        let (store, mem) = mem_store();
        store.commit("a.json", b"one").unwrap();
        store.commit("a.json", b"two").unwrap();
        let full = mem.read("a.json").unwrap();
        mem.put("a.json", full[..10].to_vec()); // tear generation 2
        store.commit("a.json", b"three").unwrap();
        // prev must still be generation 1 ("one"), not the torn bytes.
        let prev = store.load(&prev_path("a.json")).unwrap();
        assert_eq!(prev.payload, b"one");
        let got = store.load("a.json").unwrap();
        assert_eq!(got.payload, b"three");
        assert!(got.salvaged.is_none());
    }

    #[test]
    fn both_generations_bad_is_a_typed_unrecoverable_error() {
        let (store, mem) = mem_store();
        store.commit("a.json", b"one").unwrap();
        store.commit("a.json", b"two").unwrap();
        let tear = |p: &str| {
            let full = mem.read(p).unwrap();
            mem.put(p, full[..full.len() - 3].to_vec());
        };
        tear("a.json");
        tear("a.json.prev");
        match store.load("a.json").unwrap_err() {
            StoreError::Unrecoverable { path, primary, previous } => {
                assert_eq!(path, "a.json");
                // A tail truncation trips whichever structural check sees
                // it first (payload length, footer JSON, or CRC).
                assert!(!primary.is_empty(), "{primary}");
                assert!(!previous.is_empty(), "{previous}");
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn missing_artifact_is_typed() {
        let (store, _mem) = mem_store();
        assert!(matches!(store.load("none.json"), Err(StoreError::Missing { .. })));
    }

    #[test]
    fn unframed_primary_is_rejected_and_falls_back_to_previous_generation() {
        let (store, mem) = mem_store();
        mem.put("w.bin", b"\x57\x51\x52\x44raw unframed bytes".to_vec());
        let err = store.load("w.bin").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("unframed"), "{err}");
        store.commit("w.bin", b"one").unwrap();
        store.commit("w.bin", b"two").unwrap();
        mem.put("w.bin", b"{\"kind\":\"report\"}\n".to_vec());
        let got = store.load("w.bin").unwrap();
        assert_eq!((got.payload.as_slice(), got.generation), (b"one".as_slice(), 1));
        assert!(got.salvaged.expect("fallback must report why").contains("unframed"));
    }

    #[test]
    fn hostile_payload_len_is_a_typed_rejection_not_an_overflow() {
        let (store, mem) = mem_store();
        mem.put(
            "h.json",
            b"{\"store\":\"drq-store\",\"store_version\":1,\"generation\":1,\
              \"payload_len\":18446744073709551615}\nx\n{\"crc32\":0}\n"
                .to_vec(),
        );
        match store.load("h.json").unwrap_err() {
            StoreError::Corrupt { detail, .. } => assert!(detail.contains("truncated"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn commit_atomic_replaces_bytes_exactly() {
        let (store, mem) = mem_store();
        store.commit_atomic("r.json", b"{\"kind\":\"x\"}\n").unwrap();
        assert_eq!(mem.read("r.json").unwrap(), b"{\"kind\":\"x\"}\n");
        store.commit_atomic("r.json", b"{\"kind\":\"y\"}\n").unwrap();
        assert_eq!(mem.read("r.json").unwrap(), b"{\"kind\":\"y\"}\n");
        assert!(!mem.exists("r.json.tmp"));
    }

    #[test]
    fn payload_containing_frame_prefix_round_trips() {
        // A payload that *itself* starts like a frame must not confuse the
        // codec: framing is judged on the outer file only.
        let (store, _mem) = mem_store();
        let sneaky = encode_frame(9, b"inner");
        store.commit("n.json", &sneaky).unwrap();
        let got = store.load("n.json").unwrap();
        assert_eq!(got.payload, sneaky);
        assert_eq!(got.generation, 1);
    }

    #[test]
    fn fs_store_commits_survive_a_real_filesystem_round_trip() {
        let dir = std::env::temp_dir().join("drq_store_commit_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("artifact.json").to_string_lossy().to_string();
        let store = ArtifactStore::fs();
        store.commit(&path, b"gen one").unwrap();
        store.commit(&path, b"gen two").unwrap();
        let got = store.load(&path).unwrap();
        assert_eq!((got.payload.as_slice(), got.generation), (b"gen two".as_slice(), 2));
        // Hand-truncate the primary on the real filesystem: recovery must
        // serve generation 1 and say why.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let got = store.load(&path).unwrap();
        assert_eq!((got.payload.as_slice(), got.generation), (b"gen one".as_slice(), 1));
        assert!(got.salvaged.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
