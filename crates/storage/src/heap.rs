//! Heap files: unordered record storage over slotted pages, with stable
//! record ids and an in-memory free-space map.
//!
//! Base relations (`R1`, `R2`, `R3`), cached procedure results, and Rete
//! α/β-memories are all heap files. A full scan charges one page read per
//! allocated page — exactly the `⌈f·b⌉` term the paper uses for reading a
//! stored object.
//!
//! The in-RAM index over a derived store (`procdb_query::StoredRows`,
//! which holds AVM views and Rete memories) keeps only record ids and
//! 64-bit fingerprints of the stored bytes, never the bytes themselves:
//! [`RidIndex`] maps a key to its rids, and [`HeapFile::delete_if_eq`]
//! checks the real bytes inside the delete's own page write. Derived
//! contents are replaced in bulk by [`HeapFile::rewrite`], which reports
//! each record's rid and never trusts its free-space map across a crash.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use crate::disk::{FileId, PageId};
use crate::error::{Result, StorageError};
use crate::pager::Pager;
use crate::slotted;

/// Stable identifier of one record in a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap file.
    pub page_no: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a record id.
    pub fn new(page_no: u32, slot: u16) -> Self {
        Rid { page_no, slot }
    }
}

/// An in-RAM index from a key to the record ids stored under it (`T` may
/// carry more per record, such as a fingerprint), in insertion order per
/// key. A key with one entry holds it inline — the common case for a
/// mostly-unique key, which then costs no heap block of its own — and a
/// `Vec` only beyond that.
#[derive(Debug)]
pub struct RidIndex<K, T = Rid> {
    map: HashMap<K, RidList<T>>,
}

#[derive(Debug)]
enum RidList<T> {
    One(T),
    Many(Vec<T>),
}

impl<K: Hash + Eq, T: Copy> RidIndex<K, T> {
    /// An empty index.
    pub fn new() -> Self {
        RidIndex {
            map: HashMap::new(),
        }
    }

    /// The entries under `key`, in insertion order (empty if none).
    pub fn get(&self, key: &K) -> &[T] {
        match self.map.get(key) {
            None => &[],
            Some(RidList::One(x)) => std::slice::from_ref(x),
            Some(RidList::Many(v)) => v,
        }
    }

    /// Append an entry under `key`.
    pub fn push(&mut self, key: K, x: T) {
        match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(RidList::One(x));
            }
            Entry::Occupied(mut e) => {
                let list = e.get_mut();
                match list {
                    RidList::One(a) => *list = RidList::Many(vec![*a, x]),
                    RidList::Many(v) => v.push(x),
                }
            }
        }
    }

    /// Remove the entry at position `i` under `key`, keeping the others in
    /// order.
    pub fn remove(&mut self, key: K, i: usize) {
        let Entry::Occupied(mut e) = self.map.entry(key) else {
            panic!("no entries under the key");
        };
        match e.get_mut() {
            RidList::One(_) => {
                assert_eq!(i, 0, "index out of range");
                e.remove();
            }
            RidList::Many(v) => {
                v.remove(i);
                if let [x] = v[..] {
                    *e.get_mut() = RidList::One(x);
                }
            }
        }
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl<K: Hash + Eq, T: Copy> Default for RidIndex<K, T> {
    fn default() -> Self {
        RidIndex::new()
    }
}

/// An unordered file of variable-length records.
pub struct HeapFile {
    pager: Arc<Pager>,
    file: FileId,
    /// Per-page reclaimable free bytes (in-memory free-space map; a real
    /// system keeps this in memory too, so maintaining it is not charged).
    /// `None` marks a page whose contents are unknown: it is never parsed
    /// and holds no live record until [`HeapFile::rewrite`] initializes it.
    free: Vec<Option<u16>>,
    live: u64,
    /// [`Pager::crashes`] when `free` last matched the disk.
    crashes: u64,
}

impl HeapFile {
    /// Create a fresh, empty heap file.
    pub fn create(pager: Arc<Pager>) -> HeapFile {
        let file = pager.create_file();
        let crashes = pager.crashes();
        HeapFile {
            pager,
            file,
            free: Vec::new(),
            live: 0,
            crashes,
        }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Drop the file: its pages are freed and its buffered frames
    /// discarded.
    pub fn destroy(self) -> Result<()> {
        self.pager.drop_file(self.file)
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether the file holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn pid(&self, page_no: u32) -> PageId {
        PageId::new(self.file, page_no)
    }

    /// `rid`'s page, if it is allocated and its contents are known.
    fn known_page(&self, rid: Rid) -> Result<PageId> {
        match self.free.get(rid.page_no as usize) {
            Some(Some(_)) => Ok(self.pid(rid.page_no)),
            _ => Err(StorageError::UnknownRecord(rid)),
        }
    }

    /// Insert a record, returning its stable id. First-fit over the
    /// free-space map; allocates a new page when nothing fits.
    pub fn insert(&mut self, record: &[u8]) -> Result<Rid> {
        let max = slotted::max_record_len(self.pager.page_size());
        if record.len() > max {
            return Err(StorageError::RecordTooLarge {
                requested: record.len(),
                max,
            });
        }
        let need = (record.len() + 4) as u16; // record + one slot entry
        let candidate = self
            .free
            .iter()
            .position(|&fr| fr.is_some_and(|fr| fr >= need))
            .map(|i| i as u32);
        let page_no = match candidate {
            Some(p) => p,
            None => {
                let pid = self.pager.allocate_page(self.file)?;
                // Initializing a fresh page is part of the insert's write;
                // slotted::init happens inside the charged write below.
                self.free.push(Some(0)); // fixed up after init
                pid.page_no
            }
        };
        let fresh = candidate.is_none();
        let slot = self.pager.write(self.pid(page_no), |data| {
            if fresh {
                slotted::init(data);
            }
            let s = slotted::insert(data, record);
            let remaining = slotted::total_free(data) as u16;
            (s, remaining)
        })?;
        let (slot, remaining) = slot;
        let slot = slot.ok_or(StorageError::CorruptPage(self.pid(page_no)))?;
        self.free[page_no as usize] = Some(remaining);
        self.live += 1;
        Ok(Rid::new(page_no, slot))
    }

    /// Read the record at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        self.get_with(rid, <[u8]>::to_vec)
    }

    /// Run `f` on the record at `rid` where it sits on its page (one page
    /// read charged, like [`HeapFile::get`]), without copying it out.
    pub fn get_with<R>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.pager
            .read(self.known_page(rid)?, |data| {
                slotted::get(data, rid.slot).map(f)
            })?
            .ok_or(StorageError::UnknownRecord(rid))
    }

    /// Overwrite the record at `rid` in place (same length required — the
    /// paper's updates "modify tuples in place").
    pub fn update_in_place(&mut self, rid: Rid, record: &[u8]) -> Result<()> {
        let ok = self.pager.write(self.known_page(rid)?, |data| {
            slotted::update_in_place(data, rid.slot, record)
        })?;
        if ok {
            Ok(())
        } else {
            Err(StorageError::UnknownRecord(rid))
        }
    }

    /// Delete the record at `rid`.
    pub fn delete(&mut self, rid: Rid) -> Result<()> {
        self.delete_matching(rid, |_| true).map(|_| ())
    }

    /// Delete the record at `rid` if its bytes equal `expected`, inside one
    /// charged page write. Returns whether it was deleted; a live record
    /// with other bytes stays in place, and the write is charged all the
    /// same. An index that keeps only fingerprints in RAM deletes through
    /// this, so a fingerprint collision costs a write but never removes
    /// the wrong record.
    pub fn delete_if_eq(&mut self, rid: Rid, expected: &[u8]) -> Result<bool> {
        self.delete_matching(rid, |rec| rec == expected)
    }

    fn delete_matching(&mut self, rid: Rid, matches: impl FnOnce(&[u8]) -> bool) -> Result<bool> {
        let outcome = self.pager.write(self.known_page(rid)?, |data| {
            if !matches(slotted::get(data, rid.slot)?) {
                return Some(None);
            }
            slotted::delete(data, rid.slot);
            Some(Some(slotted::total_free(data) as u16))
        })?;
        match outcome {
            Some(Some(remaining)) => {
                self.free[rid.page_no as usize] = Some(remaining);
                self.live -= 1;
                Ok(true)
            }
            Some(None) => Ok(false),
            None => Err(StorageError::UnknownRecord(rid)),
        }
    }

    /// Full scan: calls `f` for every live record, page at a time. Charges
    /// one page read per allocated page; a page of unknown contents is
    /// skipped, unread.
    pub fn scan(&self, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        for page_no in 0..self.page_count() {
            if self.free[page_no as usize].is_none() {
                continue;
            }
            self.pager.read(self.pid(page_no), |data| {
                for (slot, rec) in slotted::iter(data) {
                    f(Rid::new(page_no, slot), rec);
                }
            })?;
        }
        Ok(())
    }

    /// Collect all live `(rid, record)` pairs (convenience over [`scan`]).
    ///
    /// [`scan`]: HeapFile::scan
    pub fn scan_all(&self) -> Result<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.live as usize);
        self.scan(|rid, rec| out.push((rid, rec.to_vec())))?;
        Ok(out)
    }

    /// Replace the file's entire contents with `records`, packing them in
    /// order, and return the rid each record got. Each touched page costs
    /// one read-modify-write — the paper's `C_WriteCache = 2·C2·ProcSize`
    /// for refreshing a cached procedure value. Previously used pages
    /// beyond the new contents are emptied (also a charged page write);
    /// pages known to be empty already are skipped. For records of one
    /// width the layout is the one inserting them one by one into an
    /// empty file gives.
    ///
    /// Pages are initialized, never parsed, so a torn page is harmless.
    /// The free-space map is not trusted across a crash
    /// ([`Pager::crashes`]): the disk may have lost writes the map
    /// reflects, so every page is rewritten. A failed write leaves the
    /// file empty with every page's contents unknown
    /// ([`HeapFile::assume_unknown_contents`]); the next rewrite
    /// initializes them all.
    pub fn rewrite<'a>(&mut self, records: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<Rid>> {
        let page_size = self.pager.page_size();
        let max = slotted::max_record_len(page_size);
        // Greedy packing plan.
        let mut pages: Vec<Vec<&[u8]>> = Vec::new();
        let mut current: Vec<&[u8]> = Vec::new();
        let mut used = 0usize;
        let capacity = page_size - 4; // slotted header
        for r in records {
            if r.len() > max {
                return Err(StorageError::RecordTooLarge {
                    requested: r.len(),
                    max,
                });
            }
            let need = r.len() + 4;
            if used + need > capacity && !current.is_empty() {
                pages.push(std::mem::take(&mut current));
                used = 0;
            }
            current.push(r);
            used += need;
        }
        if !current.is_empty() {
            pages.push(current);
        }
        if self.crashes != self.pager.crashes() {
            self.assume_unknown_contents();
        }
        while self.free.len() < pages.len() {
            self.pager.allocate_page(self.file)?;
            self.free.push(None);
        }
        let mut rids = Vec::with_capacity(pages.iter().map(Vec::len).sum());
        let wrote = self.write_packed(&pages, &mut rids);
        if wrote.is_err() {
            self.assume_unknown_contents();
        }
        wrote?;
        self.live = rids.len() as u64;
        self.crashes = self.pager.crashes();
        Ok(rids)
    }

    /// [`rewrite`]'s write phase: pack `pages` in, pushing each record's
    /// rid onto `rids`, and empty the leftovers.
    ///
    /// [`rewrite`]: HeapFile::rewrite
    fn write_packed(&mut self, pages: &[Vec<&[u8]>], rids: &mut Vec<Rid>) -> Result<()> {
        let empty = Some(slotted::max_record_len(self.pager.page_size()) as u16 + 4);
        for (i, recs) in pages.iter().enumerate() {
            let page_no = i as u32;
            let remaining = self.pager.write(self.pid(page_no), |data| {
                slotted::init(data);
                for r in recs.iter() {
                    rids.push(Rid::new(page_no, slotted::insert(data, r)?));
                }
                Some(slotted::total_free(data) as u16)
            })?;
            let remaining =
                remaining.ok_or(StorageError::Corrupt("rewrite packing overflowed a page"))?;
            self.free[i] = Some(remaining);
        }
        for i in pages.len()..self.free.len() {
            if self.free[i] != empty {
                let remaining = self.pager.write(self.pid(i as u32), |data| {
                    slotted::init(data);
                    slotted::total_free(data) as u16
                })?;
                self.free[i] = Some(remaining);
            }
        }
        Ok(())
    }

    /// Declare the file's contents unknown: every page holds no live
    /// record, is never parsed, and is re-initialized by the next
    /// [`HeapFile::rewrite`]. A store that is about to be refilled calls
    /// this when anything may have touched its pages behind the free-space
    /// map's back (a failed write, a crash).
    pub fn assume_unknown_contents(&mut self) {
        self.free.fill(None);
        self.live = 0;
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{AccountingMode, PagerConfig};

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 256,
            buffer_capacity: 16,
            mode: AccountingMode::Logical,
        })
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = HeapFile::create(pager());
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap(), b"beta");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn records_spill_to_new_pages() {
        let mut h = HeapFile::create(pager());
        for i in 0..50u32 {
            h.insert(&i.to_le_bytes().repeat(8)).unwrap(); // 32-byte records
        }
        assert!(h.page_count() > 1);
        assert_eq!(h.len(), 50);
        let all = h.scan_all().unwrap();
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let mut h = HeapFile::create(pager());
        let rids: Vec<Rid> = (0..6).map(|_| h.insert(&[1u8; 30]).unwrap()).collect();
        let pages_before = h.page_count();
        for r in &rids {
            h.delete(*r).unwrap();
        }
        assert!(h.is_empty());
        for _ in 0..6 {
            h.insert(&[2u8; 30]).unwrap();
        }
        assert_eq!(h.page_count(), pages_before, "space should be reused");
    }

    #[test]
    fn update_in_place_same_size() {
        let mut h = HeapFile::create(pager());
        let rid = h.insert(b"12345").unwrap();
        h.update_in_place(rid, b"67890").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"67890");
        assert!(h.update_in_place(rid, b"toolongnow").is_err());
    }

    #[test]
    fn unknown_rids_error() {
        let mut h = HeapFile::create(pager());
        let rid = h.insert(b"x").unwrap();
        h.delete(rid).unwrap();
        assert!(matches!(h.get(rid), Err(StorageError::UnknownRecord(_))));
        assert!(h.delete(rid).is_err());
        assert!(h.get(Rid::new(99, 0)).is_err());
    }

    #[test]
    fn scan_charges_one_read_per_page() {
        let mut h = HeapFile::create(pager());
        for _ in 0..20 {
            h.insert(&[0u8; 50]).unwrap();
        }
        let pages = h.page_count() as u64;
        assert!(pages >= 2);
        let before = h.pager().ledger().snapshot();
        h.scan(|_, _| {}).unwrap();
        let after = h.pager().ledger().snapshot();
        assert_eq!(after.since(&before).page_reads, pages);
        assert_eq!(after.since(&before).page_writes, 0);
    }

    #[test]
    fn clear_keeps_pages_resets_records() {
        let mut h = HeapFile::create(pager());
        for _ in 0..20 {
            h.insert(&[0u8; 50]).unwrap();
        }
        let pages = h.page_count();
        assert!(h.rewrite([]).unwrap().is_empty());
        assert!(h.is_empty());
        assert_eq!(h.page_count(), pages);
        assert!(h.scan_all().unwrap().is_empty());
        // Cleared space is reusable.
        h.insert(&[1u8; 50]).unwrap();
        assert_eq!(h.page_count(), pages);
    }

    #[test]
    fn failed_rewrite_distrusts_free_map() {
        // A torn write mid-rewrite leaves garbage on disk under a stale
        // free map. A later, *shorter* rewrite must not skip the garbage
        // page on the belief that it is still empty. A 2-frame pool makes
        // the rewrite evict (and so write back) as it goes, exposing each
        // page write to the injector.
        let pg = Pager::new(PagerConfig {
            page_size: 256,
            buffer_capacity: 2,
            mode: AccountingMode::Physical,
        });
        let mut h = HeapFile::create(pg.clone());
        let big: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 60]).collect();
        h.rewrite(big.iter().map(Vec::as_slice)).unwrap();
        assert!(h.page_count() > 1);
        h.rewrite([]).unwrap(); // every page recorded as empty
        pg.install_faults(
            crate::fault::FaultPlan::new(9)
                .torn_writes(1.0)
                .include_uncharged(),
        );
        assert!(
            h.rewrite(big.iter().map(Vec::as_slice)).is_err(),
            "torn write must surface"
        );
        pg.clear_faults();
        assert!(h.is_empty(), "a failed rewrite leaves no known record");
        assert!(h.scan_all().unwrap().is_empty(), "and parses no page");
        h.rewrite([&[7u8; 60][..]]).unwrap();
        let all = h.scan_all().unwrap();
        assert_eq!(all.len(), 1, "garbage from the torn rewrite leaked");
        assert_eq!(all[0].1, vec![7u8; 60]);
    }

    #[test]
    fn crash_makes_the_next_rewrite_distrust_the_free_map() {
        // The emptying rewrite reaches only the buffer; the crash loses
        // it, so the disk still holds rows on pages the map calls empty.
        let pg = Pager::new(PagerConfig {
            page_size: 256,
            buffer_capacity: 64,
            mode: AccountingMode::Physical,
        });
        let mut h = HeapFile::create(pg.clone());
        let big: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 60]).collect();
        h.rewrite(big.iter().map(Vec::as_slice)).unwrap();
        pg.flush().unwrap();
        let pages = u64::from(h.page_count());
        h.rewrite([]).unwrap();
        pg.drop_frames();
        let before = pg.ledger().snapshot();
        h.rewrite([&[7u8; 60][..]]).unwrap();
        pg.flush().unwrap();
        let d = pg.ledger().snapshot().since(&before);
        assert_eq!(d.page_writes, pages, "every page is rewritten");
        let all = h.scan_all().unwrap();
        assert_eq!(all.len(), 1, "rows the crash resurrected leaked");
        // With the crash settled, empty pages are skipped again.
        let before = pg.ledger().snapshot();
        h.rewrite([&[8u8; 60][..]]).unwrap();
        pg.flush().unwrap();
        assert_eq!(pg.ledger().snapshot().since(&before).page_writes, 1);
    }

    #[test]
    fn rewrite_replaces_contents_and_charges_rmw() {
        let mut h = HeapFile::create(pager());
        for _ in 0..20 {
            h.insert(&[1u8; 50]).unwrap();
        }
        let pages = h.page_count() as u64;
        let rows: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 50]).collect();
        let before = h.pager().ledger().snapshot();
        let rids = h.rewrite(rows.iter().map(Vec::as_slice)).unwrap();
        let d = h.pager().ledger().snapshot().since(&before);
        // Every page is read-modify-written exactly once: 2·C2 per page.
        assert_eq!(d.page_reads, pages);
        assert_eq!(d.page_writes, pages);
        let mut got: Vec<Vec<u8>> = h.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
        got.sort_unstable();
        assert_eq!(got, rows);
        for (rid, row) in rids.iter().zip(&rows) {
            assert_eq!(&h.get(*rid).unwrap(), row, "rewrite reports each rid");
        }
        // Shrinking rewrite empties the tail pages.
        h.rewrite(rows[..2].iter().map(Vec::as_slice)).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.scan_all().unwrap().len(), 2);
        // Growing again reuses everything.
        h.rewrite(rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn rewrite_empty_clears() {
        let mut h = HeapFile::create(pager());
        h.insert(&[9u8; 30]).unwrap();
        h.rewrite([]).unwrap();
        assert!(h.is_empty());
        assert!(h.scan_all().unwrap().is_empty());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = HeapFile::create(pager());
        assert!(matches!(
            h.insert(&[0u8; 4096]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn delete_if_eq_compares_inside_one_write() {
        let mut h = HeapFile::create(pager());
        let rid = h.insert(b"aaaa").unwrap();
        let before = h.pager().ledger().snapshot();
        assert!(!h.delete_if_eq(rid, b"bbbb").unwrap(), "other bytes stay");
        assert!(h.delete_if_eq(rid, b"aaaa").unwrap());
        let d = h.pager().ledger().snapshot().since(&before);
        assert_eq!((d.page_reads, d.page_writes), (2, 2), "one write each");
        assert!(h.is_empty());
        assert!(matches!(
            h.delete_if_eq(rid, b"aaaa"),
            Err(StorageError::UnknownRecord(_))
        ));
    }

    #[test]
    fn rid_index_keeps_insertion_order() {
        let (a, b, c) = (Rid::new(0, 0), Rid::new(0, 1), Rid::new(1, 0));
        let mut ix: RidIndex<i64> = RidIndex::new();
        assert!(ix.get(&7).is_empty());
        ix.push(7, a);
        assert!(matches!(ix.map[&7], RidList::One(_)), "one entry is inline");
        ix.push(7, b);
        ix.push(7, c);
        ix.push(8, c);
        assert_eq!(ix.get(&7), &[a, b, c]);
        ix.remove(7, 1);
        assert_eq!(ix.get(&7), &[a, c]);
        ix.remove(7, 0);
        assert_eq!(ix.get(&7), &[c]);
        assert!(matches!(ix.map[&7], RidList::One(_)), "back inline");
        ix.remove(7, 0);
        assert!(ix.get(&7).is_empty());
        assert!(!ix.map.contains_key(&7), "a spent key is dropped");
        assert_eq!(ix.get(&8), &[c]);
    }

    #[test]
    fn rid_stability_across_other_deletes() {
        let mut h = HeapFile::create(pager());
        let a = h.insert(b"aaaa").unwrap();
        let b = h.insert(b"bbbb").unwrap();
        let c = h.insert(b"cccc").unwrap();
        h.delete(b).unwrap();
        assert_eq!(h.get(a).unwrap(), b"aaaa");
        assert_eq!(h.get(c).unwrap(), b"cccc");
    }
}
