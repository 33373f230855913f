//! Tables: a schema plus a physical organization, and the catalog that
//! names them.
//!
//! [`Table::load`] is the one way to create a table already holding rows.
//! A B-tree relation is bulk-loaded: the `(key, row)` pairs are extracted
//! from the encoded rows, stably sorted by key and laid out leaf by leaf
//! ([`BTreeFile::load`]), so its leaves are full — the paper's
//! `b = N·S/B` blocks — and duplicates keep their input order. Hash and
//! heap relations are small inner tables and insert row by row.

use std::collections::HashMap;
use std::sync::Arc;

use procdb_index::{BTreeFile, HashFile};
use procdb_storage::{HeapFile, Pager, Result, StorageError};

use crate::exec::EncodedRows;
use crate::value::{Schema, Tuple};

/// Physical organization of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// Clustered B+-tree on `key_field` (the paper's `R1`).
    BTree {
        /// Index of the clustering key field.
        key_field: usize,
    },
    /// Hash file on `key_field` (the paper's `R2`, `R3`).
    Hash {
        /// Index of the hash key field.
        key_field: usize,
    },
    /// Unordered heap (cached procedure results, memory nodes).
    Heap,
}

enum Storage {
    BTree(BTreeFile),
    Hash(HashFile),
    Heap(HeapFile),
}

/// A named, typed, physically organized relation.
pub struct Table {
    name: String,
    schema: Schema,
    org: Organization,
    storage: Storage,
}

impl Table {
    /// Create an empty table. For `Hash` organization, `expected_rows`
    /// sizes the bucket directory (pass the relation's cardinality).
    pub fn create(
        pager: Arc<Pager>,
        name: &str,
        schema: Schema,
        org: Organization,
        expected_rows: usize,
    ) -> Result<Table> {
        let storage = match org {
            Organization::BTree { key_field } => {
                assert!(key_field < schema.arity(), "key field out of range");
                Storage::BTree(BTreeFile::create(pager)?)
            }
            Organization::Hash { key_field } => {
                assert!(key_field < schema.arity(), "key field out of range");
                Storage::Hash(HashFile::create_sized(
                    pager,
                    expected_rows.max(1),
                    schema.tuple_width(),
                )?)
            }
            Organization::Heap => Storage::Heap(HeapFile::create(pager)),
        };
        Ok(Table {
            name: name.to_string(),
            schema,
            org,
            storage,
        })
    }

    /// Create a table holding `rows`, encoded with `schema`, in their
    /// order (among equal keys, for a B-tree). A B-tree is bulk-loaded
    /// with full leaves; a hash directory is sized for the rows. Charges
    /// whatever the pager charges for the writes: callers loading base
    /// data suspend charging first.
    pub fn load(
        pager: Arc<Pager>,
        name: &str,
        schema: Schema,
        org: Organization,
        rows: &EncodedRows,
    ) -> Result<Table> {
        assert_eq!(rows.width(), schema.tuple_width(), "row width mismatch");
        let Organization::BTree { key_field } = org else {
            let mut table = Table::create(pager, name, schema, org, rows.len())?;
            for row in rows.iter() {
                table.insert_encoded(row)?;
            }
            return Ok(table);
        };
        assert!(key_field < schema.arity(), "key field out of range");
        // Sort the extracted keys, not the rows: the pairs are small and
        // contiguous, where reaching into each row on every comparison
        // misses the cache.
        let mut order: Vec<(i64, u32)> = (0..)
            .zip(rows.iter())
            .map(|(i, row)| (schema.int_field(row, key_field), i))
            .collect();
        order.sort_by_key(|&(key, _)| key);
        let tree = BTreeFile::load(
            pager,
            order.iter().map(|&(key, i)| (key, rows.get(i as usize))),
        )?;
        Ok(Table {
            name: name.to_string(),
            schema,
            org,
            storage: Storage::BTree(tree),
        })
    }

    /// Drop the table's file: its pages are freed and its buffered frames
    /// discarded.
    pub fn destroy(self) -> Result<()> {
        let pager = self.pager().clone();
        pager.drop_file(match &self.storage {
            Storage::BTree(t) => t.file_id(),
            Storage::Hash(h) => h.file_id(),
            Storage::Heap(h) => h.file_id(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Physical organization.
    pub fn organization(&self) -> Organization {
        self.org
    }

    /// Live tuple count.
    pub fn len(&self) -> u64 {
        match &self.storage {
            Storage::BTree(t) => t.len(),
            Storage::Hash(h) => h.len(),
            Storage::Heap(h) => h.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages allocated by the table's storage.
    pub fn page_count(&self) -> u32 {
        match &self.storage {
            Storage::BTree(t) => t.page_count(),
            Storage::Hash(h) => h.page_count(),
            Storage::Heap(h) => h.page_count(),
        }
    }

    /// B-tree height (`H1`), if this is a B-tree table.
    pub fn btree_height(&self) -> Option<u32> {
        match &self.storage {
            Storage::BTree(t) => Some(t.height()),
            _ => None,
        }
    }

    /// Insert a tuple.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<()> {
        self.insert_encoded(&self.schema.encode(tuple))
    }

    /// Insert one row already encoded with the table's schema.
    fn insert_encoded(&mut self, bytes: &[u8]) -> Result<()> {
        let key = match self.org {
            Organization::BTree { key_field } | Organization::Hash { key_field } => {
                self.schema.int_field(bytes, key_field)
            }
            Organization::Heap => 0,
        };
        match &mut self.storage {
            Storage::BTree(t) => t.insert(key, bytes).map(drop),
            Storage::Hash(h) => h.insert(key, bytes).map(drop),
            Storage::Heap(h) => h.insert(bytes).map(drop),
        }
    }

    /// Full scan in storage order.
    pub fn scan(&self, mut f: impl FnMut(Tuple)) -> Result<()> {
        self.scan_in_place(|bytes| f(self.schema.decode(bytes)))
    }

    /// [`Table::scan`] without decoding: `f` gets each encoded row in
    /// place.
    pub(crate) fn scan_in_place(&self, mut f: impl FnMut(&[u8])) -> Result<()> {
        match &self.storage {
            Storage::BTree(t) => t.scan_all(|_, _, bytes| f(bytes)),
            Storage::Hash(h) => h.scan_all(|_, bytes| f(bytes)),
            Storage::Heap(h) => h.scan(|_, bytes| f(bytes)),
        }
    }

    /// Every row, encoded, in storage order (the order [`Table::scan`]
    /// visits them).
    pub fn scan_encoded(&self) -> Result<EncodedRows> {
        let mut out = EncodedRows::with_capacity(self.schema.tuple_width(), self.len() as usize);
        self.scan_in_place(|bytes| out.push(bytes))?;
        Ok(out)
    }

    /// All tuples (convenience for tests and small results).
    pub fn scan_all(&self) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        self.scan(|t| out.push(t))?;
        Ok(out)
    }

    /// Key-range scan (B-tree tables only): all tuples with
    /// `lo ≤ key ≤ hi`, in key order.
    pub fn range_scan(&self, lo: i64, hi: i64, mut f: impl FnMut(Tuple)) -> Result<()> {
        self.range_scan_encoded(lo, hi, |bytes| f(self.schema.decode(bytes)))
    }

    /// [`Table::range_scan`] without decoding: `f` gets each encoded row
    /// in place.
    pub(crate) fn range_scan_encoded(
        &self,
        lo: i64,
        hi: i64,
        mut f: impl FnMut(&[u8]),
    ) -> Result<()> {
        match &self.storage {
            Storage::BTree(t) => t.scan_range(lo, hi, |_, _, bytes| f(bytes)),
            _ => panic!("range_scan on non-btree table {}", self.name),
        }
    }

    /// Hash probe (hash tables only): all tuples with this key.
    pub fn probe(&self, key: i64, mut f: impl FnMut(Tuple)) -> Result<()> {
        self.probe_encoded(key, |bytes| f(self.schema.decode(bytes)))
    }

    /// [`Table::probe`] without decoding: `f` gets each encoded row in
    /// place.
    pub(crate) fn probe_encoded(&self, key: i64, f: impl FnMut(&[u8])) -> Result<()> {
        match &self.storage {
            Storage::Hash(h) => h.probe(key, f),
            _ => panic!("probe on non-hash table {}", self.name),
        }
    }

    /// Number of tuples with exactly this key (keyed tables only).
    pub fn key_count(&self, key: i64) -> Result<u64> {
        let mut n = 0u64;
        match self.org {
            Organization::BTree { .. } => self.range_scan_encoded(key, key, |_| n += 1)?,
            Organization::Hash { .. } => self.probe_encoded(key, |_| n += 1)?,
            Organization::Heap => panic!("key_count on heap table {}", self.name),
        }
        Ok(n)
    }

    /// Delete the first tuple under `key` satisfying `pred` (keyed tables
    /// only). Returns the deleted tuple.
    pub fn delete_where(
        &mut self,
        key: i64,
        mut pred: impl FnMut(&Tuple) -> bool,
    ) -> Result<Option<Tuple>> {
        let schema = &self.schema;
        match &mut self.storage {
            Storage::BTree(t) => Ok(t
                .delete_where(key, |bytes| pred(&schema.decode(bytes)))?
                .map(|(_, bytes)| schema.decode(&bytes))),
            Storage::Hash(h) => Ok(h
                .delete_where(key, |bytes| pred(&schema.decode(bytes)))?
                .map(|bytes| schema.decode(&bytes))),
            Storage::Heap(_) => Err(StorageError::UnknownRecord(procdb_storage::Rid::new(
                u32::MAX,
                u16::MAX,
            ))),
        }
    }

    /// The pager backing this table's storage.
    pub fn pager(&self) -> &Arc<Pager> {
        match &self.storage {
            Storage::BTree(t) => t.pager(),
            Storage::Hash(h) => h.pager(),
            Storage::Heap(h) => h.pager(),
        }
    }
}

/// A name → table map shared by plans and the executor.
#[derive(Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table, replacing and returning any same-named one.
    pub fn add(&mut self, table: Table) -> Option<Table> {
        self.tables.insert(table.name().to_string(), table)
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look up a table mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldType, Value};

    fn pager() -> Arc<Pager> {
        Pager::new(procdb_storage::PagerConfig {
            page_size: 512,
            buffer_capacity: 256,
            mode: procdb_storage::AccountingMode::Logical,
        })
    }

    fn schema() -> Schema {
        Schema::new(vec![("k", FieldType::Int), ("v", FieldType::Int)])
    }

    fn tup(k: i64, v: i64) -> Tuple {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn btree_table_range_scan() {
        let mut t = Table::create(
            pager(),
            "r1",
            schema(),
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        for k in [5i64, 1, 9, 3, 7] {
            t.insert(&tup(k, k * 10)).unwrap();
        }
        let mut got = Vec::new();
        t.range_scan(3, 7, |tp| got.push(tp[0].as_int())).unwrap();
        assert_eq!(got, vec![3, 5, 7]);
        assert_eq!(t.len(), 5);
        assert!(t.btree_height().is_some());
    }

    #[test]
    fn hash_table_probe() {
        let mut t = Table::create(
            pager(),
            "r2",
            schema(),
            Organization::Hash { key_field: 0 },
            100,
        )
        .unwrap();
        t.insert(&tup(4, 44)).unwrap();
        t.insert(&tup(4, 45)).unwrap();
        t.insert(&tup(5, 55)).unwrap();
        let mut got = Vec::new();
        t.probe(4, |tp| got.push(tp[1].as_int())).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![44, 45]);
        assert!(t.btree_height().is_none());
    }

    #[test]
    fn heap_table_scan() {
        let mut t = Table::create(pager(), "cache", schema(), Organization::Heap, 0).unwrap();
        t.insert(&tup(1, 2)).unwrap();
        t.insert(&tup(3, 4)).unwrap();
        assert_eq!(t.scan_all().unwrap().len(), 2);
    }

    #[test]
    fn delete_where_keyed() {
        let mut t = Table::create(
            pager(),
            "r1",
            schema(),
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        t.insert(&tup(2, 20)).unwrap();
        t.insert(&tup(2, 21)).unwrap();
        let gone = t.delete_where(2, |tp| tp[1].as_int() == 21).unwrap();
        assert_eq!(gone, Some(tup(2, 21)));
        assert_eq!(t.len(), 1);
        assert!(t
            .delete_where(2, |tp| tp[1].as_int() == 99)
            .unwrap()
            .is_none());
    }

    /// A bulk-loaded table holds what an insert-built one holds: the same
    /// rows in the same order for a B-tree (key order, duplicates in
    /// insertion order), the same multiset for hash and heap.
    #[test]
    fn load_matches_insert_built_table() {
        let schema = schema();
        let rows: Vec<Tuple> = (0..400i64).map(|i| tup((i * 7919) % 97, i)).collect();
        let mut encoded = EncodedRows::new(schema.tuple_width());
        for row in &rows {
            encoded.push(&schema.encode(row));
        }
        for org in [
            Organization::BTree { key_field: 0 },
            Organization::Hash { key_field: 0 },
            Organization::Heap,
        ] {
            let mut built = Table::create(pager(), "t", schema.clone(), org, rows.len()).unwrap();
            for row in &rows {
                built.insert(row).unwrap();
            }
            let loaded = Table::load(pager(), "t", schema.clone(), org, &encoded).unwrap();
            assert_eq!(loaded.len(), built.len());
            let (mut want, mut got) = (built.scan_all().unwrap(), loaded.scan_all().unwrap());
            if !matches!(org, Organization::BTree { .. }) {
                want.sort();
                got.sort();
            }
            assert_eq!(got, want, "{org:?}");
        }
        // The loaded B-tree's leaves are full, so it takes fewer pages.
        let btree = Organization::BTree { key_field: 0 };
        let loaded = Table::load(pager(), "t", schema.clone(), btree, &encoded).unwrap();
        let mut built = Table::create(pager(), "t", schema, btree, 0).unwrap();
        for row in &rows {
            built.insert(row).unwrap();
        }
        assert!(loaded.page_count() < built.page_count());
        let mut got = Vec::new();
        loaded.range_scan(10, 11, |t| got.push(t)).unwrap();
        let mut want = Vec::new();
        built.range_scan(10, 11, |t| want.push(t)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn destroy_frees_the_pages() {
        let pager = pager();
        let mut rows = EncodedRows::new(schema().tuple_width());
        for k in 0..100 {
            rows.push(&schema().encode(&tup(k, k)));
        }
        let org = Organization::BTree { key_field: 0 };
        let t = Table::load(pager.clone(), "t", schema(), org, &rows).unwrap();
        assert_eq!(pager.total_pages(), u64::from(t.page_count()));
        t.destroy().unwrap();
        assert_eq!(pager.total_pages(), 0);
    }

    #[test]
    fn catalog_lookup() {
        let mut cat = Catalog::new();
        let t = Table::create(pager(), "emp", schema(), Organization::Heap, 0).unwrap();
        cat.add(t);
        assert!(cat.get("emp").is_some());
        assert!(cat.get("dept").is_none());
        cat.get_mut("emp").unwrap().insert(&tup(1, 1)).unwrap();
        assert_eq!(cat.get("emp").unwrap().len(), 1);
        assert_eq!(cat.tables().count(), 1);
    }

    #[test]
    #[should_panic]
    fn probe_on_btree_panics() {
        let t = Table::create(
            pager(),
            "r1",
            schema(),
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        let _ = t.probe(1, |_| {});
    }
}
