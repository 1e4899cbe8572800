//! Engine checkpoints: the bound on respawn replay and the durability
//! story.
//!
//! A checkpoint is an [`polyview::Engine::snapshot`] taken by a worker
//! after applying the log prefix `[0, offset)`. Replay is deterministic
//! and reads run as regions that leave no trace in the machine
//! ([`polyview::Engine::read`]), so *which* worker took it does not
//! matter — every replica at `offset` encodes to the same snapshot bytes,
//! type side included, whatever reads it served — and one shared slot
//! holding the newest checkpoint serves the whole pool:
//!
//! * a respawned (or newly added) worker restores the checkpointed engine
//!   and replays only the log tail `[offset, head)` instead of the whole
//!   history;
//! * the router may truncate the log below `min(offset, every replica's
//!   applied)` — nothing will ever read below that
//!   ([`crate::DeclLog::truncate_below`]);
//! * with a snapshot directory configured, the router persists the newest
//!   checkpoint so a *restarted process* resumes from it.
//!
//! Persistence is crash-safe by construction: write to a temp file, then
//! `rename` into place (atomic on POSIX), then prune older files. The
//! on-disk format is the same hand-rolled no-serde discipline as the wire
//! codec (`polyview::syntax::wire`): magic, version, offset, engine
//! bytes.

use polyview::syntax::wire::{ByteReader, ByteWriter, WireError};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File magic for a persisted pool checkpoint ("PolyView Pool
/// Checkpoint").
const CKPT_MAGIC: [u8; 4] = *b"PVPC";
const CKPT_VERSION: u32 = 2;

/// The newest engine snapshot the pool holds, tagged with the log prefix
/// it covers. Cheap to clone (the bytes are shared).
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// Exclusive log offset: the engine state after applying `[0, offset)`.
    pub offset: u64,
    /// [`polyview::Engine::snapshot`] bytes.
    pub engine: Arc<[u8]>,
}

/// One shared slot holding the newest checkpoint, plus the optional
/// directory it is persisted to. Shared (`Arc`) between the router and
/// every worker: workers publish, the router reads for bootstrap,
/// truncation, and persistence.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    slot: Mutex<Option<Checkpoint>>,
    dir: Option<PathBuf>,
    /// Offset of the newest checkpoint written to `dir` (0 = none yet);
    /// guards against rewriting the same file on every compaction pass.
    persisted: Mutex<u64>,
}

impl CheckpointStore {
    /// An in-memory store (no durability across process restarts).
    pub(crate) fn in_memory() -> CheckpointStore {
        CheckpointStore {
            slot: Mutex::new(None),
            dir: None,
            persisted: Mutex::new(0),
        }
    }

    /// Open (creating if needed) a snapshot directory, loading the newest
    /// valid checkpoint file into the slot. Corrupt or unreadable files
    /// are reported loudly on stderr and skipped — the pool starts from
    /// the newest file that decodes, or empty. Returns the store plus the
    /// restored checkpoint's offset when one loaded.
    pub(crate) fn open(dir: PathBuf) -> (CheckpointStore, Option<u64>) {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "pool: cannot create snapshot dir {}: {e}; running without durability",
                dir.display()
            );
            return (CheckpointStore::in_memory(), None);
        }
        let mut candidates = checkpoint_files(&dir);
        // Newest first (offsets are encoded in the file names).
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (offset, path) in candidates {
            match read_checkpoint_file(&path) {
                Ok(cp) => {
                    debug_assert_eq!(cp.offset, offset);
                    let store = CheckpointStore {
                        slot: Mutex::new(Some(cp)),
                        dir: Some(dir),
                        persisted: Mutex::new(offset),
                    };
                    return (store, Some(offset));
                }
                Err(e) => {
                    eprintln!("pool: ignoring corrupt checkpoint {}: {e}", path.display());
                }
            }
        }
        let store = CheckpointStore {
            slot: Mutex::new(None),
            dir: Some(dir),
            persisted: Mutex::new(0),
        };
        (store, None)
    }

    /// The newest checkpoint, if any (cheap: bytes are `Arc`-shared).
    pub(crate) fn latest(&self) -> Option<Checkpoint> {
        self.lock_slot().clone()
    }

    /// The newest checkpoint's offset, if any.
    pub(crate) fn latest_offset(&self) -> Option<u64> {
        self.lock_slot().as_ref().map(|c| c.offset)
    }

    /// Publish a checkpoint (worker-side). Kept only if strictly newer
    /// than the current slot — replicas racing to checkpoint the same
    /// prefix produce identical bytes, so dropping the loser loses
    /// nothing.
    pub(crate) fn publish(&self, cp: Checkpoint) {
        let mut slot = self.lock_slot();
        if slot.as_ref().is_none_or(|cur| cur.offset < cp.offset) {
            *slot = Some(cp);
        }
    }

    /// Persist the newest checkpoint to the snapshot directory if it is
    /// newer than what is already on disk (router-side; no-op without a
    /// directory). I/O errors are loud on stderr but non-fatal: the
    /// in-memory checkpoint still bounds respawn replay; only restart
    /// durability is degraded.
    pub(crate) fn persist_latest(&self) {
        let Some(dir) = &self.dir else { return };
        let Some(cp) = self.latest() else { return };
        let mut persisted = self.persisted.lock().unwrap_or_else(|e| e.into_inner());
        if *persisted >= cp.offset {
            return;
        }
        match write_checkpoint_file(dir, &cp) {
            Ok(path) => {
                *persisted = cp.offset;
                drop(persisted);
                prune_below(dir, cp.offset, &path);
            }
            Err(e) => {
                eprintln!(
                    "pool: failed to persist checkpoint at offset {} to {}: {e}",
                    cp.offset,
                    dir.display()
                );
            }
        }
    }

    fn lock_slot(&self) -> std::sync::MutexGuard<'_, Option<Checkpoint>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn file_name(offset: u64) -> String {
    // Zero-padded so lexicographic order equals offset order for the
    // curious shell user; the loader parses the number, not the order.
    format!("checkpoint-{offset:020}.pvpc")
}

/// `(offset, path)` for every well-formed checkpoint file in `dir`.
fn checkpoint_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".pvpc"))
        else {
            continue;
        };
        if let Ok(offset) = num.parse::<u64>() {
            out.push((offset, entry.path()));
        }
    }
    out
}

fn write_checkpoint_file(dir: &Path, cp: &Checkpoint) -> std::io::Result<PathBuf> {
    let bytes = encode_checkpoint(cp);

    let final_path = dir.join(file_name(cp.offset));
    let tmp_path = dir.join(format!("{}.tmp", file_name(cp.offset)));
    std::fs::write(&tmp_path, &bytes)?;
    // Atomic publish: readers only ever see a complete file.
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// `PVPC` v2: magic, version, offset, engine snapshot bytes.
fn encode_checkpoint(cp: &Checkpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(u32::from_le_bytes(CKPT_MAGIC));
    w.u32(CKPT_VERSION);
    w.u64(cp.offset);
    w.bytes(&cp.engine);
    w.into_bytes()
}

fn read_checkpoint_file(path: &Path) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    parse_checkpoint(&bytes).map_err(|e| e.to_string())
}

fn parse_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WireError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32("checkpoint magic")?;
    if magic.to_le_bytes() != CKPT_MAGIC {
        return Err(WireError::Malformed(format!(
            "bad checkpoint magic {:?}",
            magic.to_le_bytes()
        )));
    }
    let version = r.u32("checkpoint version")?;
    if version != CKPT_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported checkpoint version {version} (expected {CKPT_VERSION})"
        )));
    }
    let offset = r.u64("checkpoint offset")?;
    let engine = r.bytes("engine snapshot bytes")?;
    // Validate the payload decodes before anyone trusts it: a truncated
    // or corrupt engine section must fail at load, loudly, not inside a
    // worker thread at respawn time.
    polyview::Engine::from_snapshot(engine).map_err(|e| match e {
        polyview::Error::Snapshot(w) => w,
        other => WireError::Malformed(other.to_string()),
    })?;
    if !r.finished() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after checkpoint",
            r.remaining()
        )));
    }
    Ok(Checkpoint {
        offset,
        engine: engine.to_vec().into(),
    })
}

/// Remove persisted checkpoints older than `keep_offset` (best effort;
/// `keep_path` is never touched).
fn prune_below(dir: &Path, keep_offset: u64, keep_path: &Path) {
    for (offset, path) in checkpoint_files(dir) {
        if offset < keep_offset && path != keep_path {
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("polyview-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn engine_bytes() -> Arc<[u8]> {
        polyview::Engine::new().snapshot().into()
    }

    #[test]
    fn publish_keeps_the_newest() {
        let store = CheckpointStore::in_memory();
        assert!(store.latest().is_none());
        let bytes = engine_bytes();
        store.publish(Checkpoint {
            offset: 4,
            engine: Arc::clone(&bytes),
        });
        store.publish(Checkpoint {
            offset: 2,
            engine: Arc::clone(&bytes),
        });
        assert_eq!(store.latest_offset(), Some(4), "older publish is dropped");
        store.publish(Checkpoint {
            offset: 8,
            engine: bytes,
        });
        assert_eq!(store.latest_offset(), Some(8));
    }

    #[test]
    fn persist_and_reopen_roundtrips() {
        let dir = temp_dir("roundtrip");
        let (store, restored) = CheckpointStore::open(dir.clone());
        assert!(restored.is_none(), "fresh dir has nothing to restore");
        store.publish(Checkpoint {
            offset: 3,
            engine: engine_bytes(),
        });
        store.persist_latest();

        let (reopened, restored) = CheckpointStore::open(dir.clone());
        assert_eq!(restored, Some(3), "persisted checkpoint restores");
        assert_eq!(reopened.latest_offset(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_persist_prunes_older_files() {
        let dir = temp_dir("prune");
        let (store, _) = CheckpointStore::open(dir.clone());
        store.publish(Checkpoint {
            offset: 2,
            engine: engine_bytes(),
        });
        store.persist_latest();
        store.publish(Checkpoint {
            offset: 5,
            engine: engine_bytes(),
        });
        store.persist_latest();
        let files = checkpoint_files(&dir);
        assert_eq!(files.len(), 1, "older checkpoint pruned: {files:?}");
        assert_eq!(files[0].0, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_skipped_loudly_not_trusted() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join(file_name(9)), b"PVPCgarbage").expect("write");
        let (store, restored) = CheckpointStore::open(dir.clone());
        assert!(restored.is_none(), "corrupt checkpoint must not restore");
        assert!(store.latest().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_file_is_rejected_and_skipped() {
        // A v1 file: offset, then an effect-name list, then engine bytes.
        let engine = engine_bytes();
        let mut w = ByteWriter::new();
        w.u32(u32::from_le_bytes(CKPT_MAGIC));
        w.u32(1);
        w.u64(4);
        w.usize(1);
        w.str("put");
        w.bytes(&engine);
        let v1 = w.into_bytes();
        let err = parse_checkpoint(&v1).expect_err("v1 is not readable");
        assert!(
            err.to_string()
                .contains("unsupported checkpoint version 1 (expected 2)"),
            "{err}"
        );

        // At open, the v1 file is skipped in favour of an older v2 one.
        let dir = temp_dir("v1");
        std::fs::write(dir.join(file_name(4)), &v1).expect("write v1");
        let v2 = encode_checkpoint(&Checkpoint { offset: 2, engine });
        std::fs::write(dir.join(file_name(2)), v2).expect("write v2");
        let (store, restored) = CheckpointStore::open(dir.clone());
        assert_eq!(restored, Some(2), "the v1 file must not restore");
        assert_eq!(store.latest_offset(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
