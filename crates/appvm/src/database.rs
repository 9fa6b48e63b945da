//! The model database: long-term, shared storage.
//!
//! "Data base (long-term storage; shared data)" — a [`Database`] handle is a
//! cheaply-cloneable reference to a shared store, so several
//! [`crate::session::Session`]s (the multi-user requirement) can store and
//! retrieve concurrently. Optionally backed by a directory of JSON files
//! (one per model) for persistence across runs.

use fem2_fem::StructuralModel;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Inner {
    models: BTreeMap<String, StructuralModel>,
    dir: Option<PathBuf>,
}

/// A shared model database handle.
#[derive(Clone)]
pub struct Database {
    inner: Arc<Mutex<Inner>>,
}

impl Database {
    /// Lock the store whether or not a session panicked while holding it:
    /// one user's panic must not lock every other user out of the shared
    /// database. Each update is a single map insert or remove, so the
    /// store is valid wherever a holder unwound.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A purely in-memory database.
    pub fn in_memory() -> Self {
        Database {
            inner: Arc::new(Mutex::new(Inner {
                models: BTreeMap::new(),
                dir: None,
            })),
        }
    }

    /// A database persisted to `dir` (one `<name>.json` per model). Existing
    /// models in the directory are loaded eagerly.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut models = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                let text = std::fs::read_to_string(&path)?;
                match serde_json::from_str::<StructuralModel>(&text) {
                    Ok(m) => {
                        models.insert(m.name.clone(), m);
                    }
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("corrupt model file {}: {e}", path.display()),
                        ))
                    }
                }
            }
        }
        Ok(Database {
            inner: Arc::new(Mutex::new(Inner {
                models,
                dir: Some(dir),
            })),
        })
    }

    /// Store (insert or replace) a model under its own name.
    pub(crate) fn store(&self, model: &StructuralModel) -> Result<(), String> {
        let mut g = self.lock();
        if let Some(dir) = g.dir.clone() {
            let path = dir.join(format!("{}.json", model.name));
            let text = serde_json::to_string_pretty(model).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
        }
        g.models.insert(model.name.clone(), model.clone());
        Ok(())
    }

    /// Retrieve a model by name.
    pub(crate) fn retrieve(&self, name: &str) -> Option<StructuralModel> {
        self.lock().models.get(name).cloned()
    }

    /// Delete a model; true if it existed.
    pub(crate) fn delete(&self, name: &str) -> bool {
        let mut g = self.lock();
        let existed = g.models.remove(name).is_some();
        if existed {
            if let Some(dir) = &g.dir {
                let _ = std::fs::remove_file(dir.join(format!("{name}.json")));
            }
        }
        existed
    }

    /// Stored model names, sorted.
    pub(crate) fn list(&self) -> Vec<String> {
        self.lock().models.keys().cloned().collect()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.lock().models.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_fem::cantilever_plate;

    #[test]
    fn store_retrieve_roundtrip() {
        let db = Database::in_memory();
        assert!(db.is_empty());
        let m = cantilever_plate(3, 2, -1.0);
        db.store(&m).unwrap();
        assert_eq!(db.len(), 1);
        let back = db.retrieve(&m.name).unwrap();
        assert_eq!(back, m);
        assert!(db.retrieve("missing").is_none());
    }

    #[test]
    fn list_and_delete() {
        let db = Database::in_memory();
        let mut a = cantilever_plate(2, 2, -1.0);
        a.name = "alpha".into();
        let mut b = cantilever_plate(2, 2, -1.0);
        b.name = "beta".into();
        db.store(&a).unwrap();
        db.store(&b).unwrap();
        assert_eq!(db.list(), vec!["alpha".to_string(), "beta".to_string()]);
        assert!(db.delete("alpha"));
        assert!(!db.delete("alpha"));
        assert_eq!(db.list(), vec!["beta".to_string()]);
    }

    #[test]
    fn handles_share_state() {
        let db = Database::in_memory();
        let db2 = db.clone();
        let m = cantilever_plate(2, 2, -1.0);
        db.store(&m).unwrap();
        assert!(db2.retrieve(&m.name).is_some(), "clone sees the store");
    }

    #[test]
    fn disk_persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fem2-dbtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::on_disk(&dir).unwrap();
            let m = cantilever_plate(3, 2, -5.0);
            db.store(&m).unwrap();
        }
        {
            let db = Database::on_disk(&dir).unwrap();
            assert_eq!(db.len(), 1);
            let m = db.retrieve("cantilever_3x2").unwrap();
            assert_eq!(m.mesh.element_count(), 6);
            assert!(db.delete("cantilever_3x2"));
        }
        {
            let db = Database::on_disk(&dir).unwrap();
            assert!(db.is_empty(), "delete removed the file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_other_handles() {
        let db = Database::in_memory();
        let m = cantilever_plate(2, 2, -1.0);
        db.store(&m).unwrap();
        let holder = db.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = holder.lock();
            panic!("session died holding the database lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(
            db.inner.is_poisoned(),
            "the panic really was under the lock"
        );
        assert_eq!(db.len(), 1);
        assert!(db.retrieve(&m.name).is_some());
        assert!(db.delete(&m.name));
    }

    #[test]
    fn store_replaces() {
        let db = Database::in_memory();
        let mut m = cantilever_plate(2, 2, -1.0);
        m.name = "x".into();
        db.store(&m).unwrap();
        let mut m2 = cantilever_plate(4, 2, -1.0);
        m2.name = "x".into();
        db.store(&m2).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.retrieve("x").unwrap().mesh.element_count(), 8);
    }
}
