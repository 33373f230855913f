//! Tables: a schema plus a physical organization, and the catalog that
//! names them.

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

    fn key_of(&self, tuple: &Tuple) -> Option<i64> {
        match self.org {
            Organization::BTree { key_field } | Organization::Hash { key_field } => {
                Some(tuple[key_field].as_int())
            }
            Organization::Heap => None,
        }
    }

    /// Insert a tuple.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<()> {
        let bytes = self.schema.encode(tuple);
        let key = self.key_of(tuple);
        match &mut self.storage {
            Storage::BTree(t) => {
                t.insert(key.expect("btree has key"), &bytes)?;
            }
            Storage::Hash(h) => {
                h.insert(key.expect("hash has key"), &bytes)?;
            }
            Storage::Heap(h) => {
                h.insert(&bytes)?;
            }
        }
        Ok(())
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

    /// Register a table (replacing any same-named one).
    pub fn add(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
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
