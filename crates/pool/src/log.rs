//! The declaration log: the pool's single total order over writes.
//!
//! Every write (`val`/`fun`/`class` declaration, `insert`/`delete`,
//! `update`) is appended here exactly once — at submit time, or by the
//! serving replica when it promotes a read — and replayed by every replica
//! in offset order, each entry through [`polyview::Engine::exec`].
//!
//! Replay is deterministic: the engine pipeline has no hidden
//! nondeterminism, so replicas that have applied the same entries in the
//! same order are in identical states — same `env_epoch`, same top-level
//! bindings and schemes, extents that render identically — regardless of
//! how many reads each has served in between. An entry that fails (parse,
//! type or runtime error) fails alike on every replica, so its error is
//! counted (`replay_errors`), not propagated: replicas that accepted the
//! log's order never diverge on error handling.
//!
//! The log is append-only at the head and **truncatable at the tail**:
//! once every replica is past an offset *and* a checkpoint at or above it
//! exists (`crate::checkpoint`), the entries below it can never be read
//! again — a respawn bootstraps from the checkpoint, not from offset 0 —
//! so [`DeclLog::truncate_below`] drops them and records the cut as
//! `base`. **Offsets stay absolute** across truncation: `len()` still
//! counts every write ever sequenced, and a read below `base` is a
//! [`TruncatedRead`] error, never a silent `None` — silently treating a
//! compacted prefix as "not sequenced yet" would let a replica skip
//! history and diverge.
//!
//! Entries are `Arc<str>`, so replaying clones a pointer, never the source
//! text, and the lock is held only for the pointer clone — never while an
//! engine executes anything.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A read below the log's truncation point — always a compaction-invariant
/// violation by the caller (the router only truncates offsets every
/// replica and the newest checkpoint are past), never a routine miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TruncatedRead {
    /// The offset that was asked for.
    pub offset: u64,
    /// The current truncation point: entries below this are gone.
    pub base: u64,
}

impl fmt::Display for TruncatedRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log offset {} was truncated away (entries below {} are compacted; \
             bootstrap from a checkpoint instead of replaying history)",
            self.offset, self.base
        )
    }
}

impl std::error::Error for TruncatedRead {}

/// The locked interior: the truncation point plus the live suffix.
/// `entries[i]` holds the write sequenced at absolute offset `base + i`.
#[derive(Debug, Default)]
pub(crate) struct LogInner {
    base: u64,
    entries: Vec<Arc<str>>,
}

impl LogInner {
    /// The absolute offset the next appended entry will get (= the number
    /// of writes ever sequenced).
    pub(crate) fn next_offset(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Append an entry, returning its absolute offset.
    pub(crate) fn push(&mut self, src: &str) -> u64 {
        let offset = self.next_offset();
        self.entries.push(Arc::from(src));
        offset
    }
}

/// An append-only, thread-shared sequence of write statements with
/// absolute offsets and a compaction point (see the module docs).
#[derive(Debug, Default)]
pub struct DeclLog {
    inner: Mutex<LogInner>,
}

impl DeclLog {
    pub fn new() -> Self {
        DeclLog::default()
    }

    /// A log whose entire prefix `[0, base)` is already compacted — the
    /// restart-from-checkpoint constructor: the process that wrote the
    /// checkpoint sequenced `base` writes whose text is gone, and every
    /// replica bootstraps from the checkpoint, so nothing ever needs them.
    pub fn with_base(base: u64) -> Self {
        DeclLog {
            inner: Mutex::new(LogInner {
                base,
                entries: Vec::new(),
            }),
        }
    }

    /// Number of writes ever sequenced (absolute, unaffected by
    /// truncation). Also the `min_offset` a read submitted *now* must
    /// observe for read-your-writes.
    pub fn len(&self) -> u64 {
        self.lock().next_offset()
    }

    /// The truncation point: entries below this offset are compacted away.
    pub fn base(&self) -> u64 {
        self.lock().base
    }

    /// True iff no write was ever sequenced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at absolute `offset`. `Ok(None)` means "not sequenced
    /// yet" (offset at or past the head — the caller waits for it);
    /// `Err(TruncatedRead)` means the entry existed and was compacted —
    /// a loud invariant violation, since the router never truncates an
    /// offset any replica still needs.
    pub fn get(&self, offset: u64) -> Result<Option<Arc<str>>, TruncatedRead> {
        let inner = self.lock();
        if offset < inner.base {
            return Err(TruncatedRead {
                offset,
                base: inner.base,
            });
        }
        Ok(inner.entries.get((offset - inner.base) as usize).cloned())
    }

    /// Append an entry, returning its absolute offset. The router prefers
    /// [`DeclLog::lock`] so it can reserve the offset and enqueue the
    /// apply-request atomically; this standalone append serves a replica
    /// promoting a read (nothing is enqueued for its entry), tests, and
    /// building a log ahead of pool construction.
    pub fn append(&self, src: &str) -> u64 {
        self.lock().push(src)
    }

    /// Drop every entry below absolute offset `upto` (clamped to the
    /// head), advancing `base`. Returns the number of entries dropped.
    /// The caller (the router's compaction pass) must already know no
    /// replica will read below `upto` — every replica has applied past it
    /// and a checkpoint at or above it exists for future bootstraps.
    pub fn truncate_below(&self, upto: u64) -> u64 {
        let mut inner = self.lock();
        let head = inner.next_offset();
        let cut = upto.min(head);
        if cut <= inner.base {
            return 0;
        }
        let dropped = (cut - inner.base) as usize;
        inner.entries.drain(..dropped);
        inner.base = cut;
        dropped as u64
    }

    /// Lock the log interior. Poison-tolerant: a worker never holds this
    /// lock while executing user code, but if a panic ever does poison it,
    /// the log's data is still consistent (appends are a single `push`),
    /// so we keep serving rather than wedging the whole pool.
    pub(crate) fn lock(&self) -> MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_dense_offsets() {
        let log = DeclLog::new();
        assert!(log.is_empty());
        assert_eq!(log.append("val x = 1;"), 0);
        assert_eq!(log.append("val y = 2;"), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(0).unwrap().as_deref(), Some("val x = 1;"));
        assert_eq!(log.get(1).unwrap().as_deref(), Some("val y = 2;"));
        assert_eq!(log.get(2).unwrap(), None);
    }

    #[test]
    fn entries_are_shared_not_copied() {
        let log = DeclLog::new();
        log.append("val x = 1;");
        let a = log.get(0).unwrap().unwrap();
        let b = log.get(0).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn truncation_keeps_offsets_absolute_and_reads_below_base_loud() {
        let log = DeclLog::new();
        for i in 0..5 {
            log.append(&format!("val x{i} = {i};"));
        }
        assert_eq!(log.truncate_below(3), 3);
        assert_eq!(log.base(), 3);
        assert_eq!(log.len(), 5, "len counts compacted history");
        // Surviving entries keep their absolute offsets.
        assert_eq!(log.get(3).unwrap().as_deref(), Some("val x3 = 3;"));
        assert_eq!(log.get(4).unwrap().as_deref(), Some("val x4 = 4;"));
        assert_eq!(log.get(5).unwrap(), None, "head is still a plain miss");
        // A compacted read is an error, never None-as-empty.
        let err = log.get(2).expect_err("below base is loud");
        assert_eq!(err, TruncatedRead { offset: 2, base: 3 });
        assert!(err.to_string().contains("truncated"));
        // Appends continue at absolute offsets.
        assert_eq!(log.append("val x5 = 5;"), 5);
        // Truncation is idempotent and clamped.
        assert_eq!(log.truncate_below(2), 0, "below base is a no-op");
        assert_eq!(log.truncate_below(100), 3, "clamped to the head");
        assert_eq!(log.base(), 6);
    }

    #[test]
    fn with_base_starts_fully_compacted() {
        let log = DeclLog::with_base(7);
        assert_eq!(log.len(), 7);
        assert_eq!(log.base(), 7);
        assert!(!log.is_empty());
        assert!(log.get(6).is_err());
        assert_eq!(log.get(7).unwrap(), None);
        assert_eq!(log.append("val a = 1;"), 7);
        assert_eq!(log.get(7).unwrap().as_deref(), Some("val a = 1;"));
    }
}
