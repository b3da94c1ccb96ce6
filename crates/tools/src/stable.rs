//! Stable storage: checkpoints and replayable logs (paper Section 2.2, "Stable storage").
//!
//! "If processes need to recover their state after a failure, a mechanism is needed for
//! creating periodic checkpoints or logs that can be replayed on recovery."  The replicated
//! data tool and the recovery manager both build on this trait.  Two implementations are
//! provided: an in-memory store (used by the simulator, where "stable" means "survives the
//! process object being rebuilt") and a file-backed store using the message codec plus JSON
//! index files.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use vsync_msg::{codec, Message};
use vsync_util::{Result, VsError};

/// A store for named checkpoints and append-only logs of messages.
pub trait StableStore {
    /// Replaces the checkpoint stored under `key`.
    fn write_checkpoint(&self, key: &str, state: &Message) -> Result<()>;
    /// Reads the checkpoint stored under `key`.
    fn read_checkpoint(&self, key: &str) -> Result<Option<Message>>;
    /// Appends an entry to the log stored under `key`.
    fn append_log(&self, key: &str, entry: &Message) -> Result<()>;
    /// Reads the whole log stored under `key` in append order.
    fn read_log(&self, key: &str) -> Result<Vec<Message>>;
    /// Truncates the log stored under `key` (typically right after a checkpoint).
    fn truncate_log(&self, key: &str) -> Result<()>;
}

/// An in-memory stable store, shareable between the tool instances of one simulated node and
/// the recovery code that rebuilds it.
#[derive(Clone, Default)]
pub struct MemoryStore {
    inner: Rc<RefCell<MemoryInner>>,
}

#[derive(Default)]
struct MemoryInner {
    checkpoints: BTreeMap<String, Message>,
    logs: BTreeMap<String, Vec<Message>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }
}

impl StableStore for MemoryStore {
    fn write_checkpoint(&self, key: &str, state: &Message) -> Result<()> {
        self.inner
            .borrow_mut()
            .checkpoints
            .insert(key.to_owned(), state.clone());
        Ok(())
    }

    fn read_checkpoint(&self, key: &str) -> Result<Option<Message>> {
        Ok(self.inner.borrow().checkpoints.get(key).cloned())
    }

    fn append_log(&self, key: &str, entry: &Message) -> Result<()> {
        self.inner
            .borrow_mut()
            .logs
            .entry(key.to_owned())
            .or_default()
            .push(entry.clone());
        Ok(())
    }

    fn read_log(&self, key: &str) -> Result<Vec<Message>> {
        Ok(self
            .inner
            .borrow()
            .logs
            .get(key)
            .cloned()
            .unwrap_or_default())
    }

    fn truncate_log(&self, key: &str) -> Result<()> {
        self.inner.borrow_mut().logs.remove(key);
        Ok(())
    }
}

/// A file-backed stable store: each checkpoint is one encoded message file, each log is a
/// directory of numbered encoded message files, with a JSON index for quick inspection.
///
/// A `FileStore` assumes it is the only writer of its root directory while open (the same
/// assumption the sequential numbering scheme always made); the next log-entry index is
/// counted from disk once per key and cached across appends.
pub struct FileStore {
    root: PathBuf,
    /// Encode scratch reused across writes, so checkpoint/log churn does not allocate a
    /// fresh buffer per message (see `codec::encode_to`).
    scratch: RefCell<bytes::BytesMut>,
    /// Next entry index per (sanitized) log key, so N appends cost one directory listing
    /// instead of N (a per-append `read_dir().count()` made long logs O(N²)).
    next_index: RefCell<std::collections::HashMap<String, usize>>,
    /// Fsync log appends every this-many writes (0 = never fsync).  Durability knob for
    /// recovery logs: `1` survives a machine crash at every record, larger intervals trade
    /// a bounded tail of lost records for throughput, `0` trusts the OS page cache.
    fsync_interval: usize,
    /// Appends since the last fsync, across all log keys.
    appends_since_sync: RefCell<usize>,
}

impl FileStore {
    /// Creates (or opens) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| VsError::StorageError(format!("create {root:?}: {e}")))?;
        Ok(FileStore {
            root,
            scratch: RefCell::new(bytes::BytesMut::new()),
            next_index: RefCell::new(std::collections::HashMap::new()),
            fsync_interval: 0,
            appends_since_sync: RefCell::new(0),
        })
    }

    /// Fsyncs log appends every `interval` writes (`0` disables fsync, `1` syncs every
    /// append).  The sync covers the entry file's *data*; the durability unit is the log
    /// record, matching the recovery manager's replay granularity.
    pub fn with_fsync_interval(mut self, interval: usize) -> Self {
        self.fsync_interval = interval;
        self
    }

    fn sanitize(key: &str) -> String {
        key.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    fn checkpoint_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{}.ckpt", Self::sanitize(key)))
    }

    fn log_dir(&self, key: &str) -> PathBuf {
        self.root.join(format!("{}.log", Self::sanitize(key)))
    }
}

impl StableStore for FileStore {
    fn write_checkpoint(&self, key: &str, state: &Message) -> Result<()> {
        let mut scratch = self.scratch.borrow_mut();
        codec::encode_to(state, &mut scratch);
        std::fs::write(self.checkpoint_path(key), &scratch[..])
            .map_err(|e| VsError::StorageError(format!("write checkpoint {key}: {e}")))
    }

    fn read_checkpoint(&self, key: &str) -> Result<Option<Message>> {
        let path = self.checkpoint_path(key);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path)
            .map_err(|e| VsError::StorageError(format!("read checkpoint {key}: {e}")))?;
        // Zero-copy decode: byte-string payloads alias the freshly read buffer.
        Ok(Some(codec::decode_shared(&bytes.into())?))
    }

    fn append_log(&self, key: &str, entry: &Message) -> Result<()> {
        let dir = self.log_dir(key);
        std::fs::create_dir_all(&dir)
            .map_err(|e| VsError::StorageError(format!("create log dir {key}: {e}")))?;
        let cache_key = Self::sanitize(key);
        let mut next_index = self.next_index.borrow_mut();
        let next = match next_index.get(&cache_key) {
            Some(&n) => n,
            None => std::fs::read_dir(&dir)
                .map_err(|e| VsError::StorageError(format!("list log {key}: {e}")))?
                .count(),
        };
        let mut scratch = self.scratch.borrow_mut();
        codec::encode_to(entry, &mut scratch);
        let path = dir.join(format!("{next:08}.msg"));
        let wrapped = |e: std::io::Error| VsError::StorageError(format!("append log {key}: {e}"));
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&path).map_err(wrapped)?;
            f.write_all(&scratch[..]).map_err(wrapped)?;
            if self.fsync_interval > 0 {
                let mut since = self.appends_since_sync.borrow_mut();
                *since += 1;
                if *since >= self.fsync_interval {
                    f.sync_data().map_err(wrapped)?;
                    *since = 0;
                }
            }
        }
        next_index.insert(cache_key, next + 1);
        Ok(())
    }

    /// Replays the log in append order.  A *final* entry that fails to decode is a torn
    /// tail — the machine died mid-append, exactly the case the fsync'd record before it
    /// was built for — so it is repaired (deleted, best-effort) and replay stops there.  An
    /// undecodable entry *before* the tail is genuine corruption the caller must hear
    /// about: replaying around a mid-log hole would silently drop history.
    fn read_log(&self, key: &str) -> Result<Vec<Message>> {
        let dir = self.log_dir(key);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| VsError::StorageError(format!("list log {key}: {e}")))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        names.sort();
        let last = names.len();
        let mut out = Vec::with_capacity(last);
        for (i, path) in names.into_iter().enumerate() {
            let bytes = std::fs::read(&path)
                .map_err(|e| VsError::StorageError(format!("read log entry {path:?}: {e}")))?;
            match codec::decode_shared(&bytes.into()) {
                Ok(msg) => out.push(msg),
                Err(_) if i + 1 == last => {
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => {
                    return Err(VsError::StorageError(format!(
                        "undecodable log entry {path:?} before the tail: {e}"
                    )))
                }
            }
        }
        Ok(out)
    }

    fn truncate_log(&self, key: &str) -> Result<()> {
        let dir = self.log_dir(key);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| VsError::StorageError(format!("truncate log {key}: {e}")))?;
        }
        self.next_index.borrow_mut().remove(&Self::sanitize(key));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn StableStore) {
        assert_eq!(store.read_checkpoint("svc").unwrap(), None);
        assert!(store.read_log("svc").unwrap().is_empty());

        store
            .write_checkpoint("svc", &Message::with_body(1u64))
            .unwrap();
        store.append_log("svc", &Message::with_body(2u64)).unwrap();
        store.append_log("svc", &Message::with_body(3u64)).unwrap();

        let ckpt = store.read_checkpoint("svc").unwrap().unwrap();
        assert_eq!(ckpt.get_u64("body"), Some(1));
        let log = store.read_log("svc").unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].get_u64("body"), Some(2));
        assert_eq!(log[1].get_u64("body"), Some(3));

        store
            .write_checkpoint("svc", &Message::with_body(9u64))
            .unwrap();
        store.truncate_log("svc").unwrap();
        assert!(store.read_log("svc").unwrap().is_empty());
        assert_eq!(
            store
                .read_checkpoint("svc")
                .unwrap()
                .unwrap()
                .get_u64("body"),
            Some(9)
        );
    }

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryStore::new();
        exercise(&store);
        assert!(store.read_log("svc").unwrap().is_empty());
    }

    #[test]
    fn memory_store_is_shared_between_clones() {
        let a = MemoryStore::new();
        let b = a.clone();
        a.append_log("x", &Message::with_body(1u64)).unwrap();
        assert_eq!(b.read_log("x").unwrap().len(), 1);
    }

    #[test]
    fn file_store_append_index_survives_truncate_and_reopen() {
        let dir = std::env::temp_dir().join(format!("vsync-idx-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir).unwrap();
        store.append_log("k", &Message::with_body(1u64)).unwrap();
        store.append_log("k", &Message::with_body(2u64)).unwrap();
        // Truncation resets the cached index along with the directory.
        store.truncate_log("k").unwrap();
        store.append_log("k", &Message::with_body(3u64)).unwrap();
        let log = store.read_log("k").unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].get_u64("body"), Some(3));
        // A fresh store over the same root recounts from disk and appends after, not over,
        // the existing entries.
        let reopened = FileStore::new(&dir).unwrap();
        reopened.append_log("k", &Message::with_body(4u64)).unwrap();
        let bodies: Vec<u64> = reopened
            .read_log("k")
            .unwrap()
            .iter()
            .map(|m| m.get_u64("body").unwrap())
            .collect();
        assert_eq!(bodies, vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_entry_is_repaired_and_earlier_corruption_errors() {
        let dir = std::env::temp_dir().join(format!("vsync-torn-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir).unwrap();
        for i in 0..3u64 {
            store.append_log("wal", &Message::with_body(i)).unwrap();
        }
        // Tear the final entry: keep only the first byte, as a crash mid-append would.
        let tail = dir.join("wal.log").join("00000002.msg");
        let full = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &full[..1]).unwrap();
        let log = store.read_log("wal").unwrap();
        assert_eq!(log.len(), 2, "complete records survive, torn tail dropped");
        assert_eq!(log[1].get_u64("body"), Some(1));
        assert!(!tail.exists(), "the torn tail is repaired on read");
        // Appends after the repair take the tail's slot and replay cleanly.
        store.append_log("wal", &Message::with_body(9u64)).unwrap();
        let bodies: Vec<u64> = store
            .read_log("wal")
            .unwrap()
            .iter()
            .map(|m| m.get_u64("body").unwrap())
            .collect();
        assert_eq!(bodies, vec![0, 1, 9]);
        // Corruption *before* the tail is not a crash artefact and must error loudly.
        let mid = dir.join("wal.log").join("00000000.msg");
        std::fs::write(&mid, b"x").unwrap();
        assert!(store.read_log("wal").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vsync-stable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir).unwrap();
        exercise(&store);
        // Keys with awkward characters are sanitised rather than rejected.
        store
            .write_checkpoint("group/with:odd chars", &Message::with_body(5u64))
            .unwrap();
        assert!(store
            .read_checkpoint("group/with:odd chars")
            .unwrap()
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
