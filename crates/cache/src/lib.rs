//! # procdb-cache
//!
//! A front result cache with delta-stream invalidation — the paper's
//! Cache & Invalidate strategy generalized from one engine's view cache
//! to a web-scale tier in front of the whole database (Łopuszański's
//! single-table invalidation scheme, PAPERS.md).
//!
//! [`ResultCache`] memoizes rendered procedure-access responses keyed
//! by procedure name, in a sharded hash map consulted on the access
//! path *before* any session or shard engine lock: a hit serves the
//! cached bytes with zero engine locking. Correctness rests on a
//! guard lattice, not on locking the engine:
//!
//! * **Version guards.** Every entry records, per shard, the replica
//!   group's `(epoch, LSN)` watermark captured *before* the fill's
//!   engine read ran ([`ResultCache::begin_fill`]). An entry is served
//!   only while each shard's current epoch still equals the guard's
//!   and no overlapping delta has committed past the guard LSN.
//! * **Delta-stream invalidation.** The cache subscribes to each
//!   replica group's committed [`DeltaOp`] stream
//!   ([`DeltaObserver`]) — the same LSN-stamped log replication ships.
//!   Each delta's key span is probed against the procedures'
//!   selection intervals using [`ILockManager`] interval conflict
//!   detection (the paper's i-locks, re-purposed as the cache tier's
//!   predicate index): only overlapping results are killed.
//! * **Epoch fences.** A promotion bumps the group epoch
//!   ([`DeltaObserver::on_epoch_bump`]); the cache flash-invalidates
//!   every entry guarding the old epoch, so a promoted follower can
//!   never satisfy a guard minted under the fenced primary.
//!
//! Fills are racy by construction (the engine read runs outside the
//! cache's locks); the ticket protocol makes the race safe: selection
//! intervals are registered *before* any fill can run, so a delta that
//! commits between ticket and store leaves a kill mark the store-side
//! validation sees, and the fill is discarded rather than cached. The
//! serve path validates once and serves exactly what validation saw,
//! so `procdb_cache_stale_served_total` stays zero by construction —
//! the counter exists to falsify that claim under chaos testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use procdb_core::{DeltaObserver, DeltaOp};
use procdb_ilock::{ILockManager, ProcId, TableRef};
use procdb_obs::{span, Counter, Gauge};
use procdb_query::Value;

/// Number of independent entry buckets (hash-sharded to keep readers
/// and the invalidation sweep from serializing on one map lock).
const BUCKETS: usize = 16;

/// Default time-to-live for a cached result. Guards handle
/// correctness; the TTL only bounds how long a result for a procedure
/// nobody writes near can pin memory.
pub const DEFAULT_TTL: Duration = Duration::from_secs(300);

/// The base relation's table number in the predicate index. The cache
/// fronts procedure results over `R1` selections, matching the
/// replication stream, which ships `R1` mutations per shard.
const BASE_TABLE: TableRef = TableRef(0);

struct Metrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    invalidations: Counter,
    stale_served: Counter,
    hit_ratio: Gauge,
    entries: Gauge,
    bytes: Gauge,
}

fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = procdb_obs::global();
        Metrics {
            hits: reg.counter("procdb_cache_hits_total", &[]),
            misses: reg.counter("procdb_cache_misses_total", &[]),
            fills: reg.counter("procdb_cache_fills_total", &[]),
            invalidations: reg.counter("procdb_cache_invalidations_total", &[]),
            stale_served: reg.counter("procdb_cache_stale_served_total", &[]),
            hit_ratio: reg.gauge("procdb_cache_hit_ratio", &[]),
            entries: reg.gauge("procdb_cache_entries", &[]),
            bytes: reg.gauge("procdb_cache_bytes", &[]),
        }
    })
}

/// One cached, fully rendered procedure-access response.
struct Entry {
    /// Rendered response body, served verbatim on a hit.
    body: String,
    /// Row count the body renders (surfaced by `db.cache()`).
    rows: usize,
    /// Flash generation the entry was filled under.
    generation: u64,
    /// Per-shard `(epoch, lsn)` watermarks captured at ticket time.
    guards: Vec<(u64, u64)>,
    /// Fill wall-clock time, for TTL expiry.
    filled_at: Instant,
}

/// Per-shard replica-group watermark as the cache last observed it.
#[derive(Debug, Clone, Copy, Default)]
struct Watermark {
    epoch: u64,
    lsn: u64,
}

/// Validation + invalidation state, under one reader-writer lock:
/// lookups take it shared, fills and delta notifications exclusive.
struct Meta {
    /// Flash-invalidation generation (bumped by [`ResultCache::flash_all`]).
    generation: u64,
    /// Highest `(epoch, lsn)` seen per shard.
    watermarks: Vec<Watermark>,
    /// Selection intervals per procedure — the i-lock predicate index.
    index: ILockManager,
    /// Dense `ProcId` assignment: position = id, value = procedure name.
    procs: Vec<String>,
    /// Kill marks: `(proc id, shard)` → LSN of the latest overlapping
    /// delta. An entry's guard LSN must be `>=` the mark to be served.
    kill: HashMap<(u32, usize), u64>,
    /// Column index of the `R1` key field (for `Insert` key extraction).
    key_field: usize,
}

impl Meta {
    fn proc_id(&self, name: &str) -> Option<u32> {
        self.procs.iter().position(|p| p == name).map(|i| i as u32)
    }

    fn kill_lsn(&self, proc: u32, shard: usize) -> u64 {
        self.kill.get(&(proc, shard)).copied().unwrap_or(0)
    }
}

/// Point-in-time snapshot of one shard's cache watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWatermark {
    /// Replica-group epoch the cache last observed for the shard.
    pub epoch: u64,
    /// Highest delta LSN the cache has been notified of.
    pub lsn: u64,
}

/// Counters + occupancy snapshot returned by [`ResultCache::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStats {
    /// Whether the cache is currently serving.
    pub enabled: bool,
    /// Live entries across all buckets.
    pub entries: usize,
    /// Total rendered-body bytes held.
    pub bytes: usize,
    /// Lifetime hits.
    pub hits: u64,
    /// Lifetime misses (including guard-failed and TTL-expired).
    pub misses: u64,
    /// Lifetime successful fills.
    pub fills: u64,
    /// Lifetime entries removed by delta/epoch/flash invalidation.
    pub invalidations: u64,
    /// Entries served despite a failed guard — zero by construction.
    pub stale_served: u64,
    /// `hits / (hits + misses)`, zero when no lookups yet.
    pub hit_ratio: f64,
    /// Per-shard watermarks, for invalidation-lag introspection.
    pub per_shard: Vec<ShardWatermark>,
}

/// Fill ticket: the guard snapshot captured *before* the engine read.
///
/// Pass it back to [`ResultCache::try_fill`] with the rendered result;
/// the store validates that no overlapping delta and no epoch change
/// slipped in while the read ran.
#[derive(Debug, Clone)]
pub struct FillTicket {
    generation: u64,
    guards: Vec<(u64, u64)>,
}

/// The front result cache. One instance fronts one [`Session`]'s
/// engine; all methods take `&self` and are safe to call concurrently
/// from connection threads and the replication layer.
///
/// [`Session`]: https://docs.rs/procdb-server
pub struct ResultCache {
    enabled: AtomicBool,
    ttl: RwLock<Duration>,
    meta: RwLock<Meta>,
    buckets: Vec<RwLock<HashMap<String, Entry>>>,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl ResultCache {
    /// Empty, disabled cache for a single-shard layout.
    pub fn new() -> ResultCache {
        ResultCache {
            enabled: AtomicBool::new(false),
            ttl: RwLock::new(DEFAULT_TTL),
            meta: RwLock::new(Meta {
                generation: 0,
                watermarks: vec![Watermark::default()],
                index: ILockManager::new(),
                procs: Vec::new(),
                kill: HashMap::new(),
                key_field: 0,
            }),
            buckets: (0..BUCKETS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn bucket(&self, key: &str) -> &RwLock<HashMap<String, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.buckets[(h.finish() as usize) % BUCKETS]
    }

    /// (Re)configure for an engine layout: `shards` replica groups with
    /// the given starting epochs, `R1` keyed on column `key_field`, and
    /// each procedure's selection interval registered in the predicate
    /// index. Clears all entries and kill marks — the engine was just
    /// (re)built, so nothing cached can be trusted across the call.
    ///
    /// Intervals are registered here, before any fill can run, which is
    /// what makes the fill race safe: a delta that lands between a
    /// ticket and its store always finds the interval and leaves a kill
    /// mark the store-side validation checks.
    pub fn configure(&self, epochs: &[u64], key_field: usize, procs: &[(String, i64, i64)]) {
        let mut meta = self.meta.write();
        meta.watermarks = epochs
            .iter()
            .map(|&epoch| Watermark { epoch, lsn: 0 })
            .collect();
        if meta.watermarks.is_empty() {
            meta.watermarks.push(Watermark::default());
        }
        meta.key_field = key_field;
        meta.index.clear();
        meta.procs.clear();
        meta.kill.clear();
        for (i, (name, lo, hi)) in procs.iter().enumerate() {
            meta.procs.push(name.clone());
            meta.index
                .set_range_lock(BASE_TABLE, *lo, *hi, ProcId(i as u32));
        }
        drop(meta);
        self.clear_entries();
    }

    /// Turn the cache on or off. Disabling stops serving and filling
    /// but keeps invalidation tracking live, so re-enabling is safe
    /// without a flush.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Is the cache serving?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Override the entry TTL (tests shrink it to exercise expiry).
    pub fn set_ttl(&self, ttl: Duration) {
        *self.ttl.write() = ttl;
    }

    /// Serve `proc`'s cached response if present and valid. This is the
    /// whole no-engine-lock hit path: two reader locks inside the cache,
    /// no session or shard lock anywhere.
    ///
    /// Validation and serve are one critical section — the entry
    /// cloned is the entry validated, so a stale result is never
    /// served (any racing delta either killed the entry before we read
    /// it, or commits after our guards were checked, which is an
    /// ordinary read-write race the serial order resolves in our
    /// favor).
    pub fn lookup(&self, proc: &str) -> Option<String> {
        if !self.is_enabled() {
            return None;
        }
        let m = metrics();
        let reg = procdb_obs::global();
        let mut sp = span!(reg, "cache.lookup");
        let ttl = *self.ttl.read();
        let meta = self.meta.read();
        let hit = {
            let bucket = self.bucket(proc).read();
            match bucket.get(proc) {
                Some(e) if Self::valid(&meta, proc, e, ttl) => Some(e.body.clone()),
                _ => None,
            }
        };
        drop(meta);
        sp.field("hit", if hit.is_some() { 1.0 } else { 0.0 });
        match &hit {
            Some(_) => m.hits.inc(),
            None => m.misses.inc(),
        }
        let (h, mi) = (m.hits.get(), m.misses.get());
        if h + mi > 0 {
            m.hit_ratio.set(h as f64 / (h + mi) as f64);
        }
        hit
    }

    fn valid(meta: &Meta, proc: &str, e: &Entry, ttl: Duration) -> bool {
        if e.generation != meta.generation || e.filled_at.elapsed() > ttl {
            return false;
        }
        let Some(pid) = meta.proc_id(proc) else {
            return false;
        };
        if e.guards.len() != meta.watermarks.len() {
            return false;
        }
        e.guards.iter().enumerate().all(|(s, &(epoch, lsn))| {
            meta.watermarks[s].epoch == epoch && lsn >= meta.kill_lsn(pid, s)
        })
    }

    /// Snapshot the guard lattice before running the engine read that
    /// will produce the result. Returns `None` when the cache is off
    /// (no point paying for the snapshot).
    pub fn begin_fill(&self) -> Option<FillTicket> {
        if !self.is_enabled() {
            return None;
        }
        let meta = self.meta.read();
        Some(FillTicket {
            generation: meta.generation,
            guards: meta.watermarks.iter().map(|w| (w.epoch, w.lsn)).collect(),
        })
    }

    /// Store a rendered result under `proc` if the ticket still
    /// validates: same generation, same per-shard epochs, and no kill
    /// mark past the ticket's LSNs. Deadline-aware: an expired request
    /// budget skips the store (the caller is already over budget; the
    /// write lock isn't worth it). Returns whether the fill stuck.
    pub fn try_fill(&self, proc: &str, ticket: &FillTicket, body: String, rows: usize) -> bool {
        if !self.is_enabled() || procdb_obs::deadline_expired() {
            return false;
        }
        let m = metrics();
        let reg = procdb_obs::global();
        let mut sp = span!(reg, "cache.fill", bytes = body.len());
        let meta = self.meta.write();
        let ok = meta.generation == ticket.generation
            && ticket.guards.len() == meta.watermarks.len()
            && meta.proc_id(proc).is_some_and(|pid| {
                ticket.guards.iter().enumerate().all(|(s, &(epoch, lsn))| {
                    meta.watermarks[s].epoch == epoch && lsn >= meta.kill_lsn(pid, s)
                })
            });
        sp.field("stored", if ok { 1.0 } else { 0.0 });
        if !ok {
            return false;
        }
        let entry = Entry {
            body,
            rows,
            generation: ticket.generation,
            guards: ticket.guards.clone(),
            filled_at: Instant::now(),
        };
        // Bucket write nests inside the meta lock (meta → bucket is the
        // crate-wide lock order), so no delta can race the store.
        self.bucket(proc).write().insert(proc.to_string(), entry);
        drop(meta);
        m.fills.inc();
        self.refresh_occupancy();
        true
    }

    /// Invalidate everything: bump the flash generation and drop all
    /// entries. Used when the engine is rebuilt, a crash is injected,
    /// or a broadcast inner-relation update arrives (which the per-key
    /// predicate index deliberately does not model).
    pub fn flash_all(&self) {
        {
            let mut meta = self.meta.write();
            meta.generation += 1;
            meta.kill.clear();
        }
        self.clear_entries();
    }

    fn clear_entries(&self) {
        let mut dropped = 0u64;
        for b in &self.buckets {
            let mut b = b.write();
            dropped += b.len() as u64;
            b.clear();
        }
        if dropped > 0 {
            metrics().invalidations.add(dropped);
        }
        self.refresh_occupancy();
    }

    /// Apply `op` as shard 0's next committed delta — same epoch, next
    /// LSN — through the invalidation path a tapped delta stream takes.
    /// An entry point for tests and benchmarks that have no engine to
    /// tap; a session's cache is fed by its engine's [`DeltaObserver`]
    /// stream only.
    pub fn note_local_write(&self, op: &DeltaOp) {
        let (epoch, lsn) = {
            let meta = self.meta.read();
            let w = meta.watermarks[0];
            (w.epoch, w.lsn + 1)
        };
        self.apply_delta(0, epoch, lsn, op);
    }

    /// Shared delta/invalidation path (observer calls land here).
    fn apply_delta(&self, shard: usize, epoch: u64, lsn: u64, op: &DeltaOp) {
        let reg = procdb_obs::global();
        let mut meta = self.meta.write();
        if shard >= meta.watermarks.len() {
            return;
        }
        let w = &mut meta.watermarks[shard];
        w.epoch = w.epoch.max(epoch);
        w.lsn = w.lsn.max(lsn);
        let key_field = meta.key_field;

        // Key span the delta touches: both sides of a re-key, the key
        // column of inserts, the listed delete keys.
        let mut keys: Vec<i64> = Vec::new();
        match op {
            DeltaOp::Rekey(mods) => {
                for &(victim, new_key) in mods {
                    keys.push(victim);
                    keys.push(new_key);
                }
            }
            DeltaOp::Insert(rows) => {
                for row in rows {
                    if let Some(Value::Int(k)) = row.get(key_field) {
                        keys.push(*k);
                    }
                }
            }
            DeltaOp::Delete(ks) => keys.extend_from_slice(ks),
            DeltaOp::RekeyIn { .. } => {
                // Inner-relation broadcast: the predicate index only
                // tracks R1 key intervals, so every derived result is
                // suspect — flash the lot.
                let mut sp = span!(reg, "cache.invalidate", shard = shard);
                sp.field("flash", 1.0);
                drop(meta);
                self.flash_all();
                return;
            }
        }
        if keys.is_empty() {
            return;
        }
        let victims = meta
            .index
            .conflicting_any(keys.into_iter().map(|k| (BASE_TABLE, k)));
        if victims.is_empty() {
            return;
        }
        let mut sp = span!(reg, "cache.invalidate", shard = shard, lsn = lsn);
        sp.field("procs", victims.len() as f64);
        let mut removed = 0u64;
        for pid in victims {
            let mark = meta.kill.entry((pid.0, shard)).or_insert(0);
            *mark = (*mark).max(lsn);
            let name = meta.procs[pid.0 as usize].clone();
            // Eager removal (still inside the meta lock, honoring the
            // meta → bucket order): frees memory and makes the
            // invalidation observable; the kill mark covers in-flight
            // fills that raced this delta.
            let mut bucket = self.bucket(&name).write();
            let kill_it = match bucket.get(&name) {
                Some(e) => !matches!(e.guards.get(shard), Some(&(_, glsn)) if glsn >= lsn),
                None => false,
            };
            if kill_it {
                bucket.remove(&name);
                removed += 1;
            }
        }
        drop(meta);
        if removed > 0 {
            metrics().invalidations.add(removed);
            self.refresh_occupancy();
        }
    }

    fn apply_epoch_bump(&self, shard: usize, epoch: u64) {
        let reg = procdb_obs::global();
        let mut meta = self.meta.write();
        if shard >= meta.watermarks.len() {
            return;
        }
        let w = &mut meta.watermarks[shard];
        w.epoch = w.epoch.max(epoch);
        let fence = w.epoch;
        let mut sp = span!(reg, "cache.invalidate", shard = shard, epoch = fence);
        // Sweep every entry whose guard predates the fence: the old
        // primary that produced it can no longer be trusted.
        let mut removed = 0u64;
        for b in &self.buckets {
            let mut b = b.write();
            let before = b.len();
            b.retain(|_, e| match e.guards.get(shard) {
                Some(&(gep, _)) => gep >= fence,
                None => false,
            });
            removed += (before - b.len()) as u64;
        }
        drop(meta);
        sp.field("fenced", removed as f64);
        if removed > 0 {
            metrics().invalidations.add(removed);
        }
        self.refresh_occupancy();
    }

    fn refresh_occupancy(&self) {
        let m = metrics();
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for b in &self.buckets {
            let b = b.read();
            entries += b.len();
            bytes += b.values().map(|e| e.body.len()).sum::<usize>();
        }
        m.entries.set(entries as f64);
        m.bytes.set(bytes as f64);
    }

    /// Counter + occupancy snapshot (the `cache stats` / `db.cache()`
    /// backing data).
    pub fn stats(&self) -> CacheStats {
        let m = metrics();
        let (hits, misses) = (m.hits.get(), m.misses.get());
        let meta = self.meta.read();
        let per_shard = meta
            .watermarks
            .iter()
            .map(|w| ShardWatermark {
                epoch: w.epoch,
                lsn: w.lsn,
            })
            .collect();
        drop(meta);
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for b in &self.buckets {
            let b = b.read();
            entries += b.len();
            bytes += b.values().map(|e| e.body.len()).sum::<usize>();
        }
        CacheStats {
            enabled: self.is_enabled(),
            entries,
            bytes,
            hits,
            misses,
            fills: m.fills.get(),
            invalidations: m.invalidations.get(),
            stale_served: m.stale_served.get(),
            hit_ratio: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            per_shard,
        }
    }

    /// Cached row counts per live entry, for `db.cache()` introspection.
    pub fn entries_overview(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for b in &self.buckets {
            let b = b.read();
            for (name, e) in b.iter() {
                out.push((name.clone(), e.rows, e.body.len()));
            }
        }
        out.sort();
        out
    }
}

impl DeltaObserver for ResultCache {
    fn on_delta(&self, shard: usize, epoch: u64, lsn: u64, op: &DeltaOp) {
        self.apply_delta(shard, epoch, lsn, op);
    }

    fn on_epoch_bump(&self, shard: usize, epoch: u64) {
        self.apply_epoch_bump(shard, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with(procs: &[(&str, i64, i64)]) -> ResultCache {
        let c = ResultCache::new();
        c.configure(
            &[1],
            0,
            &procs
                .iter()
                .map(|&(n, lo, hi)| (n.to_string(), lo, hi))
                .collect::<Vec<_>>(),
        );
        c.set_enabled(true);
        c
    }

    fn fill(c: &ResultCache, name: &str, body: &str) -> bool {
        let t = c.begin_fill().expect("enabled");
        c.try_fill(name, &t, body.to_string(), 1)
    }

    #[test]
    fn disabled_cache_serves_nothing() {
        let c = ResultCache::new();
        assert!(c.begin_fill().is_none());
        assert!(c.lookup("P1").is_none());
    }

    #[test]
    fn fill_then_hit_then_overlapping_delta_kills() {
        let c = cache_with(&[("P1", 10, 20), ("P2", 50, 60)]);
        assert!(fill(&c, "P1", "one"));
        assert!(fill(&c, "P2", "two"));
        assert_eq!(c.lookup("P1").as_deref(), Some("one"));
        // Delta inside P1's interval kills P1 only.
        c.note_local_write(&DeltaOp::Delete(vec![15]));
        assert!(c.lookup("P1").is_none());
        assert_eq!(c.lookup("P2").as_deref(), Some("two"));
    }

    #[test]
    fn non_overlapping_delta_leaves_entry_alone() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "one"));
        c.note_local_write(&DeltaOp::Delete(vec![999]));
        assert_eq!(c.lookup("P1").as_deref(), Some("one"));
    }

    #[test]
    fn rekey_probes_both_sides() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "one"));
        // Victim outside, new key inside: still a kill.
        c.note_local_write(&DeltaOp::Rekey(vec![(500, 15)]));
        assert!(c.lookup("P1").is_none());
        assert!(fill(&c, "P1", "one"));
        // Victim inside, new key outside: also a kill.
        c.note_local_write(&DeltaOp::Rekey(vec![(12, 500)]));
        assert!(c.lookup("P1").is_none());
    }

    #[test]
    fn insert_extracts_key_field() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "one"));
        c.note_local_write(&DeltaOp::Insert(vec![vec![
            Value::Int(11),
            Value::Bytes(vec![0; 4]),
        ]]));
        assert!(c.lookup("P1").is_none());
    }

    #[test]
    fn rekey_in_flashes_everything() {
        let c = cache_with(&[("P1", 10, 20), ("P2", 50, 60)]);
        assert!(fill(&c, "P1", "one"));
        assert!(fill(&c, "P2", "two"));
        c.note_local_write(&DeltaOp::RekeyIn {
            relation: "R2".into(),
            mods: vec![(1, 2)],
        });
        assert!(c.lookup("P1").is_none());
        assert!(c.lookup("P2").is_none());
    }

    #[test]
    fn delta_between_ticket_and_store_discards_fill() {
        let c = cache_with(&[("P1", 10, 20)]);
        let t = c.begin_fill().expect("enabled");
        // The engine read is "running" here; an overlapping delta
        // commits before the result is stored.
        c.note_local_write(&DeltaOp::Delete(vec![15]));
        assert!(
            !c.try_fill("P1", &t, "stale".into(), 1),
            "raced fill rejected"
        );
        assert!(c.lookup("P1").is_none());
    }

    #[test]
    fn non_overlapping_delta_between_ticket_and_store_keeps_fill() {
        let c = cache_with(&[("P1", 10, 20)]);
        let t = c.begin_fill().expect("enabled");
        c.note_local_write(&DeltaOp::Delete(vec![999]));
        assert!(c.try_fill("P1", &t, "fresh".into(), 1));
        assert_eq!(c.lookup("P1").as_deref(), Some("fresh"));
    }

    #[test]
    fn epoch_bump_fences_old_guards() {
        let c = ResultCache::new();
        c.configure(&[1, 1], 0, &[("P1".to_string(), 10, 20)]);
        c.set_enabled(true);
        assert!(fill(&c, "P1", "one"));
        c.on_epoch_bump(1, 2);
        assert!(c.lookup("P1").is_none(), "promotion fences the entry");
        // A fresh fill under the new epoch serves fine.
        assert!(fill(&c, "P1", "two"));
        assert_eq!(c.lookup("P1").as_deref(), Some("two"));
    }

    #[test]
    fn epoch_bump_during_fill_discards() {
        let c = cache_with(&[("P1", 10, 20)]);
        let t = c.begin_fill().expect("enabled");
        c.on_epoch_bump(0, 7);
        assert!(!c.try_fill("P1", &t, "stale".into(), 1));
    }

    #[test]
    fn flash_all_and_generation() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "one"));
        c.flash_all();
        assert!(c.lookup("P1").is_none());
        let t = c.begin_fill().expect("enabled");
        assert!(
            c.try_fill("P1", &t, "new".into(), 1),
            "post-flash ticket fills"
        );
        assert_eq!(c.lookup("P1").as_deref(), Some("new"));
    }

    #[test]
    fn stale_ticket_across_flash_discards() {
        let c = cache_with(&[("P1", 10, 20)]);
        let t = c.begin_fill().expect("enabled");
        c.flash_all();
        assert!(!c.try_fill("P1", &t, "stale".into(), 1));
    }

    #[test]
    fn ttl_expiry_is_a_miss() {
        let c = cache_with(&[("P1", 10, 20)]);
        c.set_ttl(Duration::ZERO);
        assert!(fill(&c, "P1", "one"));
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.lookup("P1").is_none());
    }

    #[test]
    fn expired_deadline_skips_fill() {
        let c = cache_with(&[("P1", 10, 20)]);
        let t = c.begin_fill().expect("enabled");
        let past = Instant::now() - Duration::from_millis(1);
        let _g = procdb_obs::install_deadline(past);
        assert!(!c.try_fill("P1", &t, "late".into(), 1));
    }

    #[test]
    fn stats_track_occupancy_and_watermarks() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "four"));
        let _ = c.lookup("P1");
        let s = c.stats();
        assert!(s.enabled);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 4);
        assert_eq!(s.stale_served, 0);
        assert_eq!(s.per_shard.len(), 1);
        c.note_local_write(&DeltaOp::Delete(vec![15]));
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.per_shard[0].lsn, 1);
        let over = c.entries_overview();
        assert!(over.is_empty());
    }

    #[test]
    fn reconfigure_drops_entries() {
        let c = cache_with(&[("P1", 10, 20)]);
        assert!(fill(&c, "P1", "one"));
        c.configure(&[1, 1, 1], 0, &[("P1".to_string(), 10, 20)]);
        assert!(c.lookup("P1").is_none());
        let s = c.stats();
        assert_eq!(s.per_shard.len(), 3);
    }
}
