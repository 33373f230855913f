//! Derived rows kept on pages: the one store behind AVM view copies and
//! Rete α/β-memories, which the paper materializes the same way — as
//! page-resident relations refreshed at `2·C2` per touched page
//! (`C_WriteCache`, `C_refresh-α`) and probed at a Yao-counted number of
//! page reads (`Y5`/`Y8`).
//!
//! A [`StoredRows`] is a heap file of rows encoded by its schema plus an
//! in-RAM index on one integer key field (a Rete memory's probe field, or
//! `R1`'s key field for an AVM view, which every view's output carries),
//! so only the pages holding interesting rows are touched. Per stored row
//! RAM holds one index entry — key, [`Rid`] and a 64-bit fingerprint of
//! the encoded bytes, never the bytes; a key with a single row keeps it
//! inline ([`RidIndex`]). A remove deletes the newest same-key candidate
//! whose fingerprint and page bytes match ([`HeapFile::delete_if_eq`]),
//! inside the one page write the delete makes anyway, and changes the
//! index only once that write has succeeded: a fingerprint collision
//! costs one extra charged write, never a wrong delete. Fingerprints are
//! not persisted.
//!
//! **One fill, one crash rule.** [`StoredRows::fill`] replaces the whole
//! contents with one [`HeapFile::rewrite`] — one read-modify-write per
//! page, laid out as per-row inserts into an empty file would be — and
//! builds the index from the rids it reports. It initializes every page
//! and parses none, so the build and the rebuilds after a crash or a
//! failed maintenance pass are one call, a torn page is simply
//! overwritten, and a failed fill leaves the store empty.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use procdb_storage::{HeapFile, Pager, Result, Rid, RidIndex};

use crate::exec::EncodedRows;
use crate::value::{Schema, Tuple};

/// Rows of one schema on heap pages, indexed in RAM on one integer field.
/// `S` makes the row fingerprints; the default keys them at random per
/// store, so rows cannot be crafted to collide.
pub struct StoredRows<S = RandomState> {
    schema: Schema,
    heap: HeapFile,
    key_field: usize,
    /// key → (rid, fingerprint) of each row with that key, in insertion
    /// order.
    by_key: RidIndex<i64, (Rid, u64)>,
    fingerprint: S,
}

impl StoredRows {
    /// An empty store whose rows are indexed on `key_field`.
    pub fn new(pager: Arc<Pager>, schema: Schema, key_field: usize) -> StoredRows {
        StoredRows::with_hasher(pager, schema, key_field, RandomState::new())
    }
}

impl<S: BuildHasher> StoredRows<S> {
    /// [`StoredRows::new`] fingerprinting rows with `fingerprint`.
    pub fn with_hasher(
        pager: Arc<Pager>,
        schema: Schema,
        key_field: usize,
        fingerprint: S,
    ) -> StoredRows<S> {
        assert!(key_field < schema.arity(), "key field out of range");
        StoredRows {
            schema,
            heap: HeapFile::create(pager),
            key_field,
            by_key: RidIndex::new(),
            fingerprint,
        }
    }

    /// The row schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The field the index is keyed on.
    pub fn key_field(&self) -> usize {
        self.key_field
    }

    /// Live row count.
    pub fn len(&self) -> u64 {
        self.heap.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pages allocated.
    pub fn page_count(&self) -> u32 {
        self.heap.page_count()
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        self.heap.pager()
    }

    /// Drop the store's file, freeing its pages.
    pub fn destroy(self) -> Result<()> {
        self.heap.destroy()
    }

    /// Replace the contents with `rows` (encoded by this store's schema),
    /// packed in order: one charged read-modify-write per page written or
    /// emptied. See the module docs for what it distrusts and why. On
    /// error the store is empty and the next fill repairs it.
    pub fn fill(&mut self, rows: &EncodedRows) -> Result<()> {
        self.by_key.clear();
        self.heap.assume_unknown_contents();
        let rids = self.heap.rewrite(rows.iter())?;
        for (row, rid) in rows.iter().zip(rids) {
            let key = self.schema.int_field(row, self.key_field);
            self.by_key.push(key, (rid, self.fingerprint.hash_one(row)));
        }
        Ok(())
    }

    /// Insert a row (a `+` token, an AVM view insert). Charges the page
    /// write through the pager.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<()> {
        self.insert_encoded(&self.schema.encode(tuple))
    }

    /// [`StoredRows::insert`] of a row already encoded by this store's
    /// schema: the key is read in place.
    pub fn insert_encoded(&mut self, row: &[u8]) -> Result<()> {
        let rid = self.heap.insert(row)?;
        let key = self.schema.int_field(row, self.key_field);
        self.by_key.push(key, (rid, self.fingerprint.hash_one(row)));
        Ok(())
    }

    /// Remove one stored copy of a row: the most recently inserted one.
    /// Returns whether one existed. Charges the page write through the
    /// pager; a failed write leaves the row and its index entry in place.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.remove_encoded(&self.schema.encode(tuple))
    }

    /// [`StoredRows::remove`] of a row already encoded by this store's
    /// schema.
    pub fn remove_encoded(&mut self, row: &[u8]) -> Result<bool> {
        let fp = self.fingerprint.hash_one(row);
        let key = self.schema.int_field(row, self.key_field);
        for (i, &(rid, f)) in self.by_key.get(&key).iter().enumerate().rev() {
            if f == fp && self.heap.delete_if_eq(rid, row)? {
                self.by_key.remove(key, i);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Every row whose `field` equals `key`, as slices of the pages
    /// themselves: through the index, in insertion order, when `field` is
    /// the key field (one charged page read per match; repeats within an
    /// operation are deduplicated under physical accounting, and a miss
    /// costs nothing), else by a scan in heap order (one read per page).
    pub fn probe_encoded(&self, field: usize, key: i64, mut f: impl FnMut(&[u8])) -> Result<()> {
        if field == self.key_field {
            for &(rid, _) in self.by_key.get(&key) {
                self.heap.get_with(rid, &mut f)?;
            }
            return Ok(());
        }
        self.heap.scan(|_, row| {
            if self.schema.int_field(row, field) == key {
                f(row);
            }
        })
    }

    /// [`StoredRows::probe_encoded`] on the key field, decoded.
    pub fn probe(&self, key: i64) -> Result<Vec<Tuple>> {
        self.probe_by_field(self.key_field, key)
    }

    /// [`StoredRows::probe_encoded`], decoded.
    pub fn probe_by_field(&self, field: usize, key: i64) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        self.probe_encoded(field, key, |row| out.push(self.schema.decode(row)))?;
        Ok(out)
    }

    /// The stored rows as they sit on the pages, in heap order (one page
    /// read charged per page — the `C_read` term of reading a stored
    /// procedure value).
    pub fn scan_encoded(&self) -> Result<EncodedRows> {
        EncodedRows::read_heap(&self.heap, self.schema.tuple_width())
    }

    /// [`StoredRows::scan_encoded`], decoded.
    pub fn scan_all(&self) -> Result<Vec<Tuple>> {
        Ok(self.scan_encoded()?.decode(&self.schema))
    }

    /// Every stored row with its rid, in heap order (charged like
    /// [`StoredRows::scan_encoded`]): the store's exact page layout.
    pub fn rows_with_rids(&self) -> Result<Vec<(Rid, Vec<u8>)>> {
        self.heap.scan_all()
    }

    /// Sorted encoded contents, for multiset comparisons in tests.
    pub fn contents_normalized(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.heap.len() as usize);
        self.heap.scan(|_, bytes| out.push(bytes.to_vec()))?;
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldType, Value};
    use procdb_storage::{AccountingMode, FaultPlan, PagerConfig};

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

    fn physical(frames: usize) -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: frames,
            mode: AccountingMode::Physical,
        })
    }

    fn encoded(tuples: &[Tuple]) -> EncodedRows {
        let mut rows = EncodedRows::new(schema().tuple_width());
        for tuple in tuples {
            rows.push_tuple(&schema(), tuple);
        }
        rows
    }

    #[test]
    fn insert_probe_remove() {
        let mut m = StoredRows::new(pager(), schema(), 0);
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
        let mut m = StoredRows::new(pager(), schema(), 0);
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
        let mut m = StoredRows::new(p.clone(), schema(), 0);
        m.insert(&t(1, 10)).unwrap();
        // Evict the page so the delete's write must fault it in, then fail
        // that transfer.
        p.clear_buffer().unwrap();
        p.install_faults(FaultPlan::new(1).fail_window(1, 2));
        assert!(m.remove(&t(1, 10)).is_err());
        p.clear_faults();
        assert_eq!(m.probe(1).unwrap(), vec![t(1, 10)], "tuple survives");
        assert!(m.remove(&t(1, 10)).unwrap(), "and can still be removed");
        assert!(m.is_empty());
        assert!(m.probe(1).unwrap().is_empty());
    }

    /// `len` agrees with a scan, and the index names exactly the rows a
    /// scan finds (keys are `0..17`).
    fn assert_consistent(m: &StoredRows, ctx: &str) {
        let scanned = m.scan_all().unwrap().len();
        let indexed: usize = (0..17).map(|k| m.probe(k).unwrap().len()).sum();
        assert_eq!((m.len() as usize, indexed), (scanned, scanned), "{ctx}");
    }

    /// A fault inside a fill that overwrites a full store — a failed
    /// transfer, then a torn one (two frames make the fill evict, and so
    /// write back, as it goes) — leaves a consistent store, and the next
    /// fill repairs it.
    #[test]
    fn failed_fill_leaves_a_consistent_store_and_the_next_fill_repairs_it() {
        let want: Vec<Tuple> = (0..200).map(|i| t(i % 17, i)).collect();
        for plan in [
            FaultPlan::new(3).fail_window(4, 5),
            FaultPlan::new(5).torn_writes(1.0),
        ] {
            let p = physical(2);
            let mut m = StoredRows::new(p.clone(), schema(), 0);
            m.fill(&encoded(&want[..1])).unwrap();
            m.fill(&encoded(&want)).unwrap();
            p.flush().unwrap();
            p.install_faults(plan.clone().include_uncharged());
            assert!(m.fill(&encoded(&want)).is_err(), "{plan:?}");
            p.clear_faults();
            assert_consistent(&m, &format!("{plan:?}: after the failed fill"));
            m.fill(&encoded(&want)).unwrap();
            assert_consistent(&m, &format!("{plan:?}: repaired"));
            assert_eq!(m.scan_all().unwrap(), want, "{plan:?}");
        }
    }

    #[test]
    fn rebuild_after_a_crash_over_a_torn_page_never_parses_it() {
        let p = physical(64);
        let want: Vec<Tuple> = (0..100).map(|i| t(i % 7, i)).collect();
        let mut m = StoredRows::new(p.clone(), schema(), 0);
        m.fill(&encoded(&want)).unwrap();
        p.flush().unwrap();
        // Tear the page an insert dirtied: on disk its slot directory now
        // names a row whose bytes never landed.
        m.insert(&t(3, 1000)).unwrap();
        p.install_faults(FaultPlan::new(7).torn_writes(1.0).include_uncharged());
        assert!(p.flush().is_err());
        p.clear_faults();
        p.drop_frames();
        m.fill(&encoded(&want)).unwrap();
        assert_consistent(&m, "rebuilt");
        assert_eq!(m.scan_all().unwrap(), want);
    }

    #[test]
    fn fill_lays_rows_out_as_inserts_into_an_empty_store_do() {
        let tuples: Vec<Tuple> = (0..150).map(|i| t(i % 11, i)).collect();
        let mut inserted = StoredRows::new(pager(), schema(), 0);
        for tuple in &tuples {
            inserted.insert(tuple).unwrap();
        }
        let mut filled = StoredRows::new(pager(), schema(), 0);
        filled.fill(&encoded(&tuples[..20])).unwrap();
        filled.fill(&encoded(&tuples)).unwrap();
        let layout = |m: &StoredRows| {
            let probes: Vec<_> = (0..11).map(|k| m.probe(k).unwrap()).collect();
            (m.rows_with_rids().unwrap(), probes)
        };
        assert_eq!(layout(&filled), layout(&inserted));
    }

    #[test]
    fn probe_by_other_field_falls_back_to_scan() {
        let mut m = StoredRows::new(pager(), schema(), 0);
        m.insert(&t(1, 7)).unwrap();
        m.insert(&t(2, 7)).unwrap();
        m.insert(&t(3, 8)).unwrap();
        assert_eq!(m.probe_by_field(1, 7).unwrap().len(), 2);
        assert_eq!(m.probe_by_field(0, 2).unwrap().len(), 1);
    }

    #[test]
    fn probe_misses_cost_nothing() {
        let p = pager();
        let mut m = StoredRows::new(p.clone(), schema(), 0);
        m.insert(&t(1, 1)).unwrap();
        let before = p.ledger().snapshot();
        assert!(m.probe(99).unwrap().is_empty());
        assert_eq!(p.ledger().snapshot().since(&before).page_ios(), 0);
    }

    #[test]
    fn refresh_is_read_modify_write() {
        let p = pager();
        let mut m = StoredRows::new(p.clone(), schema(), 0);
        m.insert(&t(1, 1)).unwrap();
        let before = p.ledger().snapshot();
        m.insert(&t(2, 2)).unwrap();
        let d = p.ledger().snapshot().since(&before);
        // Logical accounting: one page read + one page write (2·C2).
        assert_eq!((d.page_reads, d.page_writes), (1, 1));
    }
}
