//! The serving subsystem: a versioned, immutable model cache for the
//! high-throughput `PREDICT … ON …` read path.
//!
//! Training produces models; serving reads them at request rate. The two
//! paths have opposite needs — training mutates one model object per
//! query, serving shares one model across many concurrent sessions — so
//! the engine keeps a [`ModelCache`] of **immutable** [`ServableModel`]
//! entries keyed by `(name, version)` beside the mutable catalog object:
//!
//! * **Pinning.** A prediction batch *pins* an `Arc<ServableModel>` at
//!   dispatch and keeps it for the whole batch. Publishing a new version
//!   mid-traffic swaps the active pointer; in-flight batches finish on
//!   the version they pinned, so every batch is bit-identical to a
//!   single-session run of its pinned version — no torn reads, by
//!   construction, because a published entry is never mutated.
//! * **Hot-reload.** `TRAIN … WITH durable = 1` (and non-durable
//!   training too) publishes the freshly trained version as active the
//!   moment the training query commits; `LOAD MODEL … AS ACTIVE`
//!   promotes an older durable version explicitly.
//! * **Generations.** Every publish/promotion bumps a generation
//!   counter, exported through the `serving.cache.*` telemetry counters,
//!   so dashboards can correlate a latency shift with the exact reload
//!   that caused it.
//!
//! Reads take the inner `RwLock` only long enough to clone one `Arc`;
//! the prediction loop itself runs entirely lock-free on the pinned
//! entry.

use crate::catalog::StoredModel;
use corgipile_ml::Model;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Versions of one name retained beyond the active one; older versions
/// are evicted (the durable store still has them — the cache is a cache).
const RETAINED_VERSIONS: usize = 8;

/// One immutable, servable model version.
///
/// Built once (from the catalog object or a durable [`crate::ModelRecord`])
/// and then only ever shared behind an `Arc`: the instantiated
/// [`Model`] is never trained again, so concurrent prediction batches
/// can read it without synchronization.
pub struct ServableModel {
    name: String,
    version: u32,
    stored: StoredModel,
    model: Box<dyn Model>,
}

impl ServableModel {
    /// Instantiate a servable entry from a catalog-form model.
    pub fn new(name: impl Into<String>, version: u32, stored: StoredModel) -> Self {
        let model = stored.instantiate();
        ServableModel {
            name: name.into(),
            version,
            stored,
            model,
        }
    }

    /// Model name (the cache key's first half).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Version number (the cache key's second half).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Input dimensionality the model was trained for.
    pub fn dim(&self) -> usize {
        self.stored.dim
    }

    /// The catalog-form record this entry was instantiated from.
    pub fn stored(&self) -> &StoredModel {
        &self.stored
    }

    /// The instantiated model (immutable: serving never trains).
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }
}

impl std::fmt::Debug for ServableModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServableModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("kind", &self.stored.kind)
            .field("dim", &self.stored.dim)
            .finish()
    }
}

struct NameEntry {
    /// The version `pin` resolves; swapped atomically under the write lock.
    active: u32,
    versions: BTreeMap<u32, Arc<ServableModel>>,
}

/// Snapshot of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct model names cached.
    pub names: u64,
    /// Total `(name, version)` entries cached.
    pub entries: u64,
    /// Publish/promotion generation (bumped on every active-pointer swap).
    pub generation: u64,
    /// `pin`/`pin_version` calls served from the cache.
    pub hits: u64,
    /// `pin`/`pin_version` calls that missed.
    pub misses: u64,
    /// Entries published (new versions inserted).
    pub publishes: u64,
    /// Explicit promotions (`LOAD MODEL … AS ACTIVE`).
    pub promotions: u64,
}

/// The engine-wide cache of servable model versions.
///
/// Interior-synchronized (`&ModelCache` suffices for every operation) so
/// it hangs off the shared [`crate::Database`] exactly like the catalog.
#[derive(Default)]
pub struct ModelCache {
    inner: RwLock<HashMap<String, NameEntry>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
    promotions: AtomicU64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModelCache::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, NameEntry>> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, NameEntry>> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up `version` of `name` (`None`: the active version) without
    /// moving the hit/miss counters: one `Arc` clone under a brief read
    /// lock. `EXPLAIN` reads through this; executing statements count
    /// their lookup via [`ModelCache::pin`] / [`ModelCache::pin_version`].
    pub fn peek(&self, name: &str, version: Option<u32>) -> Option<Arc<ServableModel>> {
        let map = self.read();
        let e = map.get(name)?;
        e.versions.get(&version.unwrap_or(e.active)).cloned()
    }

    /// Pin the active version of `name`. The caller keeps the pin for its
    /// whole batch — later publishes swap the active pointer without
    /// touching pinned entries.
    pub fn pin(&self, name: &str) -> Option<Arc<ServableModel>> {
        self.counted(self.peek(name, None))
    }

    /// Pin a specific version of `name`.
    pub fn pin_version(&self, name: &str, version: u32) -> Option<Arc<ServableModel>> {
        self.counted(self.peek(name, Some(version)))
    }

    /// Count a lookup as a hit or a miss and hand it back.
    fn counted(&self, got: Option<Arc<ServableModel>>) -> Option<Arc<ServableModel>> {
        let counter = if got.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Insert a servable entry. With `activate`, the entry becomes the
    /// version `pin` resolves (hot-reload: the swap is a pointer update
    /// under the write lock; in-flight pins are unaffected) and the
    /// generation counter advances. Without it, the entry is stashed for
    /// `pin_version` / later promotion only.
    ///
    /// Returns the shared entry (the caller's own pin on it).
    pub fn publish(&self, servable: ServableModel, activate: bool) -> Arc<ServableModel> {
        let version = servable.version;
        let name = servable.name.clone();
        let entry = Arc::new(servable);
        let mut map = self.write();
        let e = map.entry(name).or_insert_with(|| NameEntry {
            active: version,
            versions: BTreeMap::new(),
        });
        e.versions.insert(version, entry.clone());
        if activate {
            e.active = version;
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        // Bounded retention: evict the oldest versions past the cap, but
        // never the active one (the durable store remains the source of
        // truth for evicted versions).
        while e.versions.len() > RETAINED_VERSIONS {
            let oldest = *e.versions.keys().next().expect("non-empty");
            let evict = if oldest == e.active {
                e.versions.keys().nth(1).copied()
            } else {
                Some(oldest)
            };
            match evict {
                Some(v) => {
                    e.versions.remove(&v);
                }
                None => break,
            }
        }
        self.publishes.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Promote a cached version to active (`LOAD MODEL … AS ACTIVE`).
    /// Returns `false` when `(name, version)` is not cached.
    pub fn promote(&self, name: &str, version: u32) -> bool {
        let mut map = self.write();
        match map.get_mut(name) {
            Some(e) if e.versions.contains_key(&version) => {
                if e.active != version {
                    e.active = version;
                    self.generation.fetch_add(1, Ordering::Relaxed);
                }
                self.promotions.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The active version of `name`, if cached.
    pub fn active_version(&self, name: &str) -> Option<u32> {
        self.read().get(name).map(|e| e.active)
    }

    /// Cached versions of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        self.read()
            .get(name)
            .map(|e| e.versions.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The version a fresh (non-durable) training run of `name` should
    /// publish: one past the highest cached version, or 1 for an unseen
    /// name. Durable runs use the model store's version counter instead.
    pub fn next_version(&self, name: &str) -> u32 {
        self.read()
            .get(name)
            .and_then(|e| e.versions.keys().next_back().copied())
            .map(|v| v + 1)
            .unwrap_or(1)
    }

    /// Publish/promotion generation (0 until the first activation).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let map = self.read();
        CacheStats {
            names: map.len() as u64,
            entries: map.values().map(|e| e.versions.len() as u64).sum(),
            generation: self.generation.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ModelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_ml::ModelKind;

    fn stored(bias: f32) -> StoredModel {
        StoredModel {
            kind: ModelKind::Svm,
            dim: 2,
            params: vec![bias, 0.5, -0.5],
            train_loss: 0.0,
        }
    }

    #[test]
    fn publish_pin_and_promote_round_trip() {
        let cache = ModelCache::new();
        assert!(cache.pin("m").is_none());
        assert_eq!(cache.stats().misses, 1);
        cache.publish(ServableModel::new("m", 1, stored(1.0)), true);
        let v1 = cache.pin("m").unwrap();
        assert_eq!((v1.name(), v1.version(), v1.dim()), ("m", 1, 2));
        assert_eq!(cache.generation(), 1);

        // Publishing v2 swaps the active pointer; the old pin still reads
        // its own immutable entry.
        cache.publish(ServableModel::new("m", 2, stored(2.0)), true);
        assert_eq!(cache.active_version("m"), Some(2));
        assert_eq!(v1.stored().params[0], 1.0, "pinned entry is untouched");
        assert_eq!(cache.pin("m").unwrap().version(), 2);
        assert_eq!(cache.pin_version("m", 1).unwrap().version(), 1);

        // Explicit promotion back to v1.
        assert!(cache.promote("m", 1));
        assert_eq!(cache.active_version("m"), Some(1));
        assert!(!cache.promote("m", 9));
        assert!(!cache.promote("ghost", 1));
        let s = cache.stats();
        assert_eq!((s.names, s.entries), (1, 2));
        assert_eq!(s.publishes, 2);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.generation, 3, "two activations + one promotion");
        assert_eq!(cache.next_version("m"), 3);
        assert_eq!(cache.next_version("fresh"), 1);
    }

    #[test]
    fn stashed_versions_do_not_activate() {
        let cache = ModelCache::new();
        cache.publish(ServableModel::new("m", 1, stored(1.0)), true);
        cache.publish(ServableModel::new("m", 2, stored(2.0)), false);
        assert_eq!(cache.active_version("m"), Some(1));
        assert_eq!(cache.pin("m").unwrap().version(), 1);
        assert_eq!(cache.pin_version("m", 2).unwrap().version(), 2);
        assert_eq!(cache.versions("m"), vec![1, 2]);
        assert_eq!(cache.generation(), 1);
    }

    #[test]
    fn retention_evicts_oldest_but_never_active() {
        let cache = ModelCache::new();
        for v in 1..=(RETAINED_VERSIONS as u32 + 3) {
            cache.publish(ServableModel::new("m", v, stored(v as f32)), v == 1);
        }
        let versions = cache.versions("m");
        assert_eq!(versions.len(), RETAINED_VERSIONS);
        assert!(
            versions.contains(&1),
            "active v1 must survive eviction: {versions:?}"
        );
        assert!(!versions.contains(&2), "oldest non-active evicted");
        assert_eq!(cache.active_version("m"), Some(1));
    }

    #[test]
    fn concurrent_pins_race_publishes_without_torn_reads() {
        let cache = Arc::new(ModelCache::new());
        cache.publish(ServableModel::new("m", 1, stored(1.0)), true);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let pin = cache.pin("m").unwrap();
                        // An entry's bias always matches its version: a torn
                        // read would mix the two.
                        assert_eq!(pin.stored().params[0], pin.version() as f32);
                    }
                })
            })
            .collect();
        for v in 2..=20 {
            cache.publish(ServableModel::new("m", v, stored(v as f32)), true);
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cache.active_version("m"), Some(20));
    }
}
