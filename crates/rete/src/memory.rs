//! α/β-memory node storage: page-materialized tuple sets with one in-RAM
//! probe index.
//!
//! The paper materializes memory-node contents on disk pages so that
//! refreshing a memory after an update costs `2·C2` per touched page
//! (`C_refresh-α`) and probing it for joining tuples costs a Yao-counted
//! number of page reads (`Y5`/`Y8`). The in-RAM index reproduces what a
//! real system keeps in RAM: *which* pages hold the interesting tuples, so
//! only those pages are touched.
//!
//! Per stored tuple RAM holds one index entry: its probe key, its [`Rid`]
//! and a 64-bit fingerprint of its encoded bytes — never the bytes. A key
//! with a single tuple keeps its entry inline ([`RidIndex`]), so a memory
//! over distinct keys costs no heap block per tuple. A `−` token finds its
//! candidates under its probe key by fingerprint and deletes the newest
//! whose page bytes match ([`HeapFile::delete_if_eq`]), inside the one
//! page write the delete makes anyway; the index changes only once that
//! write has succeeded. A fingerprint collision between different tuples
//! therefore costs one extra charged write and never removes the wrong
//! tuple. Fingerprints are not persisted: a rebuild re-derives them as it
//! re-inserts.
//!
//! Initialization and rebuild insert rows already encoded
//! ([`MemoryStore::insert_encoded`]) and join on them in place
//! ([`MemoryStore::probe_encoded`]): the probe key is read from the row's
//! bytes and no tuple is built. Tokens arrive decoded and take
//! [`MemoryStore::insert`] / [`MemoryStore::remove`], which encode once.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use procdb_query::{EncodedRows, Schema, Tuple};
use procdb_storage::{HeapFile, Pager, Result, Rid, RidIndex};

/// A materialized memory node (α or β). `S` makes the tuple fingerprints;
/// the default keys them at random per store, so tuples cannot be crafted
/// to collide.
pub struct MemoryStore<S = RandomState> {
    schema: Schema,
    heap: HeapFile,
    probe_field: usize,
    /// probe key → (rid, fingerprint) of each tuple with that key, in
    /// insertion order.
    by_key: RidIndex<i64, (Rid, u64)>,
    fingerprint: S,
}

impl MemoryStore {
    /// Create an empty memory whose tuples will be probed by `probe_field`.
    pub fn new(pager: Arc<Pager>, schema: Schema, probe_field: usize) -> MemoryStore {
        MemoryStore::with_hasher(pager, schema, probe_field, RandomState::new())
    }
}

impl<S: BuildHasher> MemoryStore<S> {
    /// [`MemoryStore::new`] fingerprinting tuples with `fingerprint`.
    pub fn with_hasher(
        pager: Arc<Pager>,
        schema: Schema,
        probe_field: usize,
        fingerprint: S,
    ) -> MemoryStore<S> {
        assert!(probe_field < schema.arity(), "probe field out of range");
        MemoryStore {
            schema,
            heap: HeapFile::create(pager),
            probe_field,
            by_key: RidIndex::new(),
            fingerprint,
        }
    }

    /// The tuple schema of this memory.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Field used as the probe key.
    pub fn probe_field(&self) -> usize {
        self.probe_field
    }

    /// Live tuple count.
    pub fn len(&self) -> u64 {
        self.heap.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pages materialized.
    pub fn page_count(&self) -> u32 {
        self.heap.page_count()
    }

    /// Drop the memory's file, freeing its pages.
    pub fn destroy(self) -> Result<()> {
        self.heap.destroy()
    }

    /// Drop every tuple, keeping the allocated pages. Re-initializes each
    /// page on disk (crash-recovery support: after volatile state is lost
    /// the stored contents are untrustworthy, and a rebuild must not parse
    /// them — possibly torn — before overwriting).
    pub fn clear(&mut self) -> Result<()> {
        self.heap.clear()?;
        self.by_key.clear();
        Ok(())
    }

    /// Insert a tuple (a `+` token landing in this memory). Charges the
    /// page write through the pager.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<()> {
        self.insert_encoded(&self.schema.encode(tuple))
    }

    /// [`MemoryStore::insert`] of a row already encoded by this memory's
    /// schema: the probe key is read in place, no tuple is built.
    pub fn insert_encoded(&mut self, row: &[u8]) -> Result<()> {
        let rid = self.heap.insert(row)?;
        let key = self.schema.int_field(row, self.probe_field);
        self.by_key.push(key, (rid, self.fingerprint.hash_one(row)));
        Ok(())
    }

    /// Remove one instance of a tuple (a `−` token): the most recently
    /// inserted one. Returns whether a matching tuple existed. Charges the
    /// page write through the pager; a failed write leaves the tuple and
    /// its index entry in place.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        let bytes = self.schema.encode(tuple);
        let fp = self.fingerprint.hash_one(&bytes);
        let key = tuple[self.probe_field].as_int();
        for (i, &(rid, f)) in self.by_key.get(&key).iter().enumerate().rev() {
            if f == fp && self.heap.delete_if_eq(rid, &bytes)? {
                self.by_key.remove(key, i);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Probe: all tuples whose probe field equals `key`. Reads only the
    /// pages holding matches (one charged page read per match via the
    /// heap; repeats within an operation are deduplicated under physical
    /// accounting).
    pub fn probe(&self, key: i64) -> Result<Vec<Tuple>> {
        self.probe_by_field(self.probe_field, key)
    }

    /// Probe by an arbitrary field (scan-based fallback when the memory is
    /// not organized on that field). Reads every page.
    pub fn probe_by_field(&self, field: usize, key: i64) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        self.probe_encoded(field, key, |row| out.push(self.schema.decode(row)))?;
        Ok(out)
    }

    /// [`MemoryStore::probe_by_field`] without the decode: `f` gets each
    /// matching row's bytes, in insertion order through the probe index
    /// when `field` is the probe field, else in heap order. Charged
    /// identically.
    pub fn probe_encoded(&self, field: usize, key: i64, mut f: impl FnMut(&[u8])) -> Result<()> {
        if field == self.probe_field {
            for &(rid, _) in self.by_key.get(&key) {
                f(&self.heap.get(rid)?);
            }
            return Ok(());
        }
        self.heap.scan(|_, row| {
            if self.schema.int_field(row, field) == key {
                f(row);
            }
        })
    }

    /// Full contents (charges one read per page — the `C_read` term when
    /// the memory is a procedure's result).
    pub fn scan_all(&self) -> Result<Vec<Tuple>> {
        Ok(self.scan_encoded()?.decode(&self.schema))
    }

    /// [`MemoryStore::scan_all`] without the decode: the stored rows as
    /// they sit on the pages, charged identically.
    pub fn scan_encoded(&self) -> Result<EncodedRows> {
        EncodedRows::read_heap(&self.heap, self.schema.tuple_width())
    }

    /// Every stored row with its rid, in heap order (charged like
    /// [`MemoryStore::scan_encoded`]): the memory's exact page layout.
    pub fn rows_with_rids(&self) -> Result<Vec<(Rid, Vec<u8>)>> {
        self.heap.scan_all()
    }

    /// Sorted encoded contents for multiset comparisons in tests.
    pub fn contents_normalized(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.heap.scan(|_, bytes| out.push(bytes.to_vec()))?;
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_query::{FieldType, Value};
    use procdb_storage::{AccountingMode, PagerConfig};

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 256,
            mode: AccountingMode::Logical,
        })
    }

    fn schema() -> Schema {
        Schema::new(vec![("k", FieldType::Int), ("v", FieldType::Int)])
    }

    fn t(k: i64, v: i64) -> Tuple {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn insert_probe_remove() {
        let mut m = MemoryStore::new(pager(), schema(), 0);
        m.insert(&t(1, 10)).unwrap();
        m.insert(&t(1, 11)).unwrap();
        m.insert(&t(2, 20)).unwrap();
        let mut got: Vec<i64> = m.probe(1).unwrap().iter().map(|x| x[1].as_int()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 11]);
        assert!(m.remove(&t(1, 10)).unwrap());
        assert!(!m.remove(&t(1, 10)).unwrap(), "only one instance existed");
        assert_eq!(m.probe(1).unwrap().len(), 1);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn duplicate_tuples_counted_as_multiset() {
        let mut m = MemoryStore::new(pager(), schema(), 0);
        m.insert(&t(5, 5)).unwrap();
        m.insert(&t(5, 5)).unwrap();
        assert_eq!(m.probe(5).unwrap().len(), 2);
        assert!(m.remove(&t(5, 5)).unwrap());
        assert_eq!(m.probe(5).unwrap().len(), 1);
        assert!(m.remove(&t(5, 5)).unwrap());
        assert!(m.is_empty());
    }

    #[test]
    fn failed_delete_write_leaves_tuple_removable() {
        let p = pager();
        let mut m = MemoryStore::new(p.clone(), schema(), 0);
        m.insert(&t(1, 10)).unwrap();
        // Evict the page so the delete's write must fault it in, then fail
        // that transfer.
        p.clear_buffer().unwrap();
        p.install_faults(procdb_storage::FaultPlan::new(1).fail_window(1, 2));
        assert!(m.remove(&t(1, 10)).is_err());
        p.clear_faults();
        assert_eq!(m.probe(1).unwrap(), vec![t(1, 10)], "tuple survives");
        assert!(m.remove(&t(1, 10)).unwrap(), "and can still be removed");
        assert!(m.is_empty());
        assert!(m.probe(1).unwrap().is_empty());
    }

    #[test]
    fn probe_by_other_field_falls_back_to_scan() {
        let mut m = MemoryStore::new(pager(), schema(), 0);
        m.insert(&t(1, 7)).unwrap();
        m.insert(&t(2, 7)).unwrap();
        m.insert(&t(3, 8)).unwrap();
        assert_eq!(m.probe_by_field(1, 7).unwrap().len(), 2);
        assert_eq!(m.probe_by_field(0, 2).unwrap().len(), 1);
    }

    #[test]
    fn probe_misses_cost_nothing() {
        let p = pager();
        let mut m = MemoryStore::new(p.clone(), schema(), 0);
        m.insert(&t(1, 1)).unwrap();
        let before = p.ledger().snapshot();
        assert!(m.probe(99).unwrap().is_empty());
        assert_eq!(p.ledger().snapshot().since(&before).page_ios(), 0);
    }

    #[test]
    fn refresh_is_read_modify_write() {
        let p = pager();
        let mut m = MemoryStore::new(p.clone(), schema(), 0);
        m.insert(&t(1, 1)).unwrap();
        let before = p.ledger().snapshot();
        m.insert(&t(2, 2)).unwrap();
        let d = p.ledger().snapshot().since(&before);
        // Logical accounting: one page read + one page write (2·C2).
        assert_eq!((d.page_reads, d.page_writes), (1, 1));
    }
}
