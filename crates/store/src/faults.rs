//! Deterministic I/O fault injection for the artifact store.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and injects the failure modes
//! that matter for crash safety — torn writes at seeded byte offsets,
//! silently short reads, single-bit rot, `ENOSPC`, rename and fsync
//! failures. An [`IoFaultPlan`] is the shared [`FaultPlan`] engine over
//! [`IoFaultSite`]s, with rules filtered by `path_substr`; every storage
//! operation is one injection opportunity on its path, so a faulted
//! schedule is a pure function of the plan and the (sequential) order of
//! storage operations and replays bit-for-bit from its seed.
//!
//! Where a fired event needs extra randomness (the tear offset of a torn
//! write, the byte and bit of a rot event, the kept length of a short
//! read) those draws come from the same plan stream, only when the event
//! fires.
//!
//! # Injected effects
//!
//! | site | operation | effect |
//! |---|---|---|
//! | `torn_write` | `write` | a seeded **strict prefix** of the bytes reaches storage, then the write errors — the torn file is left behind |
//! | `enospc` | `write` | the write errors, nothing reaches storage |
//! | `short_read` | `read` | a seeded strict prefix is returned **as success** (the dangerous silent case) |
//! | `bit_rot` | `read` | one seeded bit of the returned buffer is flipped, still reported as success |
//! | `fsync_fail` | `fsync` | the flush errors |
//! | `rename_fail` | `rename` | the rename errors, neither path changes |

use crate::fault_plan::{FaultCounters, FaultInjector, FaultPlan, FaultRule, FaultSiteKind};
use crate::storage::Storage;
use crate::store::StoreError;
use std::io;
use std::sync::Mutex;

/// Which storage primitive a fault rule attacks, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultSite {
    /// A write persists only a seeded strict prefix, then errors.
    TornWrite,
    /// A read silently returns a seeded strict prefix as success.
    ShortRead,
    /// A read returns the full buffer with one seeded bit flipped.
    BitRot,
    /// A write fails with `ENOSPC` before any byte reaches storage.
    Enospc,
    /// A rename fails; neither path changes.
    RenameFail,
    /// An fsync fails; the data may or may not be durable.
    FsyncFail,
}

impl IoFaultSite {
    /// Every site, in schema order.
    pub const ALL: [IoFaultSite; 6] = [
        IoFaultSite::TornWrite,
        IoFaultSite::ShortRead,
        IoFaultSite::BitRot,
        IoFaultSite::Enospc,
        IoFaultSite::RenameFail,
        IoFaultSite::FsyncFail,
    ];

    /// The snake-case schema name used in fault-plan JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            IoFaultSite::TornWrite => "torn_write",
            IoFaultSite::ShortRead => "short_read",
            IoFaultSite::BitRot => "bit_rot",
            IoFaultSite::Enospc => "enospc",
            IoFaultSite::RenameFail => "rename_fail",
            IoFaultSite::FsyncFail => "fsync_fail",
        }
    }
}

// Delegates to the inherent items, which callers use without importing
// the trait.
impl FaultSiteKind for IoFaultSite {
    type Error = StoreError;
    const ALL: &'static [Self] = &IoFaultSite::ALL;
    const TARGET_KEY: &'static str = "path_substr";

    fn name(self) -> &'static str {
        IoFaultSite::name(self)
    }

    /// Storage faults corrupt no word, so rules take no `bit`.
    fn bit_width(self) -> u32 {
        0
    }

    /// A rule matches every path containing its substring — including
    /// temp files, so a rule on `"front.json"` also hits `front.json.tmp`
    /// and `front.json.prev`.
    fn target_matches(substr: &str, path: &str) -> bool {
        path.contains(substr)
    }
}

/// A fault plan over storage primitives; rules filter on `path_substr`.
pub type IoFaultPlan = FaultPlan<IoFaultSite>;
/// One rule of an [`IoFaultPlan`].
pub type IoFaultRule = FaultRule<IoFaultSite>;
/// Per-site event counts of a [`FaultyStorage`].
pub type IoFaultCounters = FaultCounters<IoFaultSite>;

/// A strict-prefix length of a buffer of `len` bytes (`0..len`), drawn
/// from the plan stream.
fn prefix_len(inj: &mut FaultInjector<IoFaultSite>, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        inj.next_below(len)
    }
}

/// A [`Storage`] wrapper that injects deterministic I/O faults from an
/// [`IoFaultPlan`]. The `faults` module's documentation (in its source)
/// gives the effect of each site and the draw discipline that makes
/// schedules replayable.
///
/// The wrapper is where chaos comes from in `tests/store_chaos.rs`: the
/// property suite drives [`crate::ArtifactStore`] commits through a
/// `FaultyStorage<MemStorage>` under arbitrary plans and asserts a reader
/// of the shared inner storage always sees generation *N* or *N−1*, never
/// a torn frame.
pub struct FaultyStorage<S: Storage> {
    inner: S,
    injector: Mutex<FaultInjector<IoFaultSite>>,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner`, injecting faults per the validated `plan`.
    ///
    /// # Errors
    ///
    /// [`StoreError::FaultPlan`] when the plan fails validation.
    pub fn new(inner: S, plan: &IoFaultPlan) -> Result<Self, StoreError> {
        Ok(Self { inner, injector: Mutex::new(FaultInjector::new(plan)?) })
    }

    /// Event counts so far.
    pub fn counters(&self) -> IoFaultCounters {
        self.lock().counters()
    }

    /// The wrapped storage (e.g. to inspect the "disk" with clean reads).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultInjector<IoFaultSite>> {
        self.injector.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        let mut inj = self.lock();
        if inj.fires(IoFaultSite::ShortRead, Some(path)) {
            let keep = prefix_len(&mut inj, bytes.len());
            bytes.truncate(keep);
        } else if inj.fires(IoFaultSite::BitRot, Some(path)) && !bytes.is_empty() {
            let byte = prefix_len(&mut inj, bytes.len());
            let bit = inj.next_below(8) as u8;
            bytes[byte] ^= 1 << bit;
        }
        Ok(bytes)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inj = self.lock();
        if inj.fires(IoFaultSite::TornWrite, Some(path)) {
            let keep = prefix_len(&mut inj, bytes.len());
            drop(inj);
            // The tear persists a strict prefix, then the write "crashes".
            self.inner.write(path, &bytes[..keep])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected torn write: {keep} of {} bytes reached {path}", bytes.len()),
            ));
        }
        if inj.fires(IoFaultSite::Enospc, Some(path)) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC writing {path}"),
            ));
        }
        drop(inj);
        self.inner.write(path, bytes)
    }

    fn fsync(&self, path: &str) -> io::Result<()> {
        if self.lock().fires(IoFaultSite::FsyncFail, Some(path)) {
            return Err(io::Error::other(format!("injected fsync failure on {path}")));
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        if self.lock().fires(IoFaultSite::RenameFail, Some(to)) {
            return Err(io::Error::other(format!("injected rename failure: {from} -> {to}")));
        }
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn plan(rules: Vec<IoFaultRule>) -> IoFaultPlan {
        IoFaultPlan { seed: 11, rules }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mem = MemStorage::new();
        let faulty = FaultyStorage::new(mem.clone(), &IoFaultPlan::empty()).unwrap();
        faulty.write("a", b"bytes").unwrap();
        faulty.fsync("a").unwrap();
        assert_eq!(faulty.read("a").unwrap(), b"bytes");
        faulty.rename("a", "b").unwrap();
        assert_eq!(mem.read("b").unwrap(), b"bytes");
        faulty.remove("b").unwrap();
        assert_eq!(faulty.counters().total(), 0);
    }

    #[test]
    fn torn_write_leaves_a_strict_prefix_and_errors() {
        let mem = MemStorage::new();
        let faulty = FaultyStorage::new(
            mem.clone(),
            &plan(vec![IoFaultRule::new(IoFaultSite::TornWrite, 1.0)]),
        )
        .unwrap();
        let payload = vec![0xAB; 100];
        let err = faulty.write("a", &payload).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let torn = mem.read("a").unwrap();
        assert!(torn.len() < payload.len(), "torn file must be a strict prefix");
        assert_eq!(torn, payload[..torn.len()]);
        assert_eq!(faulty.counters().count(IoFaultSite::TornWrite), 1);
    }

    #[test]
    fn enospc_writes_nothing() {
        let mem = MemStorage::new();
        let faulty = FaultyStorage::new(
            mem.clone(),
            &plan(vec![IoFaultRule::new(IoFaultSite::Enospc, 1.0)]),
        )
        .unwrap();
        let err = faulty.write("a", b"bytes").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!mem.exists("a"));
    }

    #[test]
    fn short_read_silently_truncates() {
        let mem = MemStorage::new();
        mem.put("a", vec![7; 64]);
        let faulty = FaultyStorage::new(
            mem,
            &plan(vec![IoFaultRule::new(IoFaultSite::ShortRead, 1.0)]),
        )
        .unwrap();
        let got = faulty.read("a").unwrap();
        assert!(got.len() < 64, "short read must drop at least one byte");
        assert_eq!(got, vec![7; got.len()]);
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let mem = MemStorage::new();
        let original = vec![0u8; 32];
        mem.put("a", original.clone());
        let faulty = FaultyStorage::new(
            mem,
            &plan(vec![IoFaultRule::new(IoFaultSite::BitRot, 1.0)]),
        )
        .unwrap();
        let got = faulty.read("a").unwrap();
        assert_eq!(got.len(), original.len());
        let flipped: u32 = got
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn rename_and_fsync_failures_inject() {
        let mem = MemStorage::new();
        mem.put("a", b"x".to_vec());
        let faulty = FaultyStorage::new(
            mem.clone(),
            &plan(vec![
                IoFaultRule::new(IoFaultSite::RenameFail, 1.0),
                IoFaultRule::new(IoFaultSite::FsyncFail, 1.0),
            ]),
        )
        .unwrap();
        assert!(faulty.fsync("a").is_err());
        assert!(faulty.rename("a", "b").is_err());
        assert!(mem.exists("a") && !mem.exists("b"), "failed rename must not move");
        let c = faulty.counters();
        assert_eq!((c.count(IoFaultSite::RenameFail), c.count(IoFaultSite::FsyncFail)), (1, 1));
    }
}
