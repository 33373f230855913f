//! A clustered B+-tree file: tuples are stored *in* the leaves, ordered by
//! an `i64` key — the paper's "B-tree primary index on the field used by
//! the selection predicate" for `R1`.
//!
//! Duplicate user keys are supported by pairing every entry with a unique,
//! monotonically increasing sequence number; the physical key is the
//! composite `(key, seq)`. A range scan therefore touches exactly the
//! leaf pages holding qualifying tuples (the paper's `⌈f·b⌉` term) after an
//! `H1`-page root-to-leaf descent.
//!
//! Deletion is lazy (no merging/rebalancing): pages can under-fill but
//! never violate ordering. This mirrors many production trees and keeps
//! the page-count behavior stable for the simulation's steady state.
//!
//! Pages stay in place. A read takes the page's shared handle from the
//! pager: the descent picks each child on the bytes of an internal page,
//! and a range scan walks each leaf's entries and hands the callback
//! slices of the page itself — no copy, no node value, no per-entry
//! allocation. The callback runs outside the pager lock, so it may itself
//! read pages. An insert, delete or in-place update edits the leaf's bytes:
//! one read to find the entry's offset and one write that shifts the tail
//! of the leaf and patches the count. A node is decoded only to split a
//! leaf or to change an internal page.
//!
//! A tree built from rows already in hand is bulk-loaded
//! ([`BTreeFile::load`]): entries arrive sorted by key, each leaf is
//! packed to capacity inside one page write, and the internal levels are
//! built bottom-up — the paper's `b = N·S/B` full blocks, one write per
//! page. Because a loaded leaf is full, the first insert into it splits
//! it; a tree grown by inserts fills its leaves about two thirds in
//! random key order and half in ascending order.

use std::sync::Arc;

use procdb_storage::{Page, PageId, Pager, Result, StorageError};

use crate::codec::{Reader, Writer};

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const NO_PAGE: u32 = u32::MAX;

const LEAF_HDR: usize = 1 + 2 + 4; // type, count, next
const ENTRY_HDR: usize = 8 + 8 + 2; // key, seq, value length
const INTERNAL_HDR: usize = 1 + 2 + 4; // type, count, child0
const INTERNAL_ENTRY: usize = 8 + 8 + 4; // key, seq, child

/// Composite physical key: user key plus uniquifying sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntryKey {
    /// User-visible key.
    pub key: i64,
    /// Uniquifier assigned at insert.
    pub seq: u64,
}

impl EntryKey {
    /// Smallest composite key for a user key.
    pub fn min(key: i64) -> Self {
        EntryKey { key, seq: 0 }
    }
}

/// An internal page, decoded: `children.len() == keys.len() + 1`, and
/// subtree `i` holds composite keys in `[keys[i-1], keys[i])`.
struct Internal {
    keys: Vec<EntryKey>,
    children: Vec<u32>,
}

impl Internal {
    fn encode(&self, page: &mut [u8]) {
        let mut w = Writer::new(page);
        w.u8(INTERNAL);
        w.u16(self.keys.len() as u16);
        w.u32(self.children[0]);
        for (k, c) in self.keys.iter().zip(&self.children[1..]) {
            w.i64(k.key);
            w.i64(k.seq as i64);
            w.u32(*c);
        }
    }

    fn decode(page: &[u8]) -> Internal {
        let mut r = Reader::new(&page[1..]);
        let count = r.u16() as usize;
        let mut children = Vec::with_capacity(count + 1);
        children.push(r.u32());
        let mut keys = Vec::with_capacity(count);
        for _ in 0..count {
            let key = r.i64();
            let seq = r.i64() as u64;
            keys.push(EntryKey { key, seq });
            children.push(r.u32());
        }
        Internal { keys, children }
    }
}

fn write_entry(w: &mut Writer<'_>, ek: EntryKey, value: &[u8]) {
    w.i64(ek.key);
    w.i64(ek.seq as i64);
    w.u16(value.len() as u16);
    w.bytes(value);
}

/// The largest tuple a leaf of `page_size` bytes accepts.
fn max_value(page_size: usize) -> usize {
    page_size - LEAF_HDR - ENTRY_HDR - 64
}

/// Make `page` a leaf header with `count` entries and sibling `next`.
fn init_leaf(page: &mut [u8], count: u16, next: u32) {
    page[0] = LEAF;
    set_leaf_count(page, count);
    page[3..7].copy_from_slice(&next.to_le_bytes());
}

fn leaf_next(page: &[u8]) -> u32 {
    u32::from_le_bytes([page[3], page[4], page[5], page[6]])
}

fn leaf_count(page: &[u8]) -> u16 {
    u16::from_le_bytes([page[1], page[2]])
}

fn set_leaf_count(page: &mut [u8], count: u16) {
    page[1..3].copy_from_slice(&count.to_le_bytes());
}

/// A leaf's entries in place, in key order: `(byte offset, key, value)`.
fn leaf_entries(page: &[u8]) -> impl Iterator<Item = (usize, EntryKey, &[u8])> {
    let mut r = Reader::new(&page[LEAF_HDR..]);
    (0..leaf_count(page)).map(move |_| {
        let at = LEAF_HDR + r.position();
        let key = EntryKey {
            key: r.i64(),
            seq: r.i64() as u64,
        };
        let len = r.u16() as usize;
        (at, key, r.bytes(len))
    })
}

/// Where `ek` belongs in a leaf: the offset of the first entry not below
/// it, that entry's value when its key is `ek`, and the end of the
/// leaf's used bytes.
fn leaf_find(page: &[u8], ek: EntryKey) -> (usize, Option<&[u8]>, usize) {
    let (mut at, mut hit, mut end) = (None, None, LEAF_HDR);
    for (off, k, v) in leaf_entries(page) {
        if at.is_none() && k >= ek {
            at = Some(off);
            hit = (k == ek).then_some(v);
        }
        end = off + ENTRY_HDR + v.len();
    }
    (at.unwrap_or(end), hit, end)
}

/// The child of an internal page whose subtree holds `ek`, read from the
/// page bytes in place; `None` for a leaf.
fn child_for(page: &[u8], ek: EntryKey) -> Option<u32> {
    let mut r = Reader::new(page);
    if r.u8() == LEAF {
        return None;
    }
    let count = r.u16() as usize;
    let child0 = r.u32();
    let entry = |i: usize| {
        let mut r = Reader::new(&page[INTERNAL_HDR + i * INTERNAL_ENTRY..]);
        let key = EntryKey {
            key: r.i64(),
            seq: r.i64() as u64,
        };
        (key, r.u32())
    };
    // Binary search for the number of separators `≤ ek`.
    let (mut lo, mut hi) = (0, count);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry(mid).0 <= ek {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(if lo == 0 { child0 } else { entry(lo - 1).1 })
}

/// A clustered B+-tree file of `(i64 key, tuple bytes)` entries.
pub struct BTreeFile {
    pager: Arc<Pager>,
    file: procdb_storage::FileId,
    root: u32,
    next_seq: u64,
    len: u64,
    height: u32,
}

impl BTreeFile {
    /// Create an empty tree in a fresh file.
    pub fn create(pager: Arc<Pager>) -> Result<BTreeFile> {
        let file = pager.create_file();
        let root_pid = pager.allocate_page(file)?;
        pager.write(root_pid, |p| init_leaf(p, 0, NO_PAGE))?;
        Ok(BTreeFile {
            pager,
            file,
            root: root_pid.page_no,
            next_seq: 0,
            len: 0,
            height: 1,
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bulk-load a tree into a fresh file from `entries`, which must come
    /// sorted by key; duplicates keep their input order (sequence numbers
    /// are assigned in it). Each leaf is packed to capacity — the paper's
    /// `b = N·S/B` full blocks — and filled inside one page write, with
    /// its sibling link set; the internal levels are then built bottom-up,
    /// one write per page. Nothing is staged: no page exists outside the
    /// pager. On error the new file is dropped.
    pub fn load<'a>(
        pager: Arc<Pager>,
        entries: impl IntoIterator<Item = (i64, &'a [u8])>,
    ) -> Result<BTreeFile> {
        let file = pager.create_file();
        let mut tree = BTreeFile {
            pager,
            file,
            root: 0,
            next_seq: 0,
            len: 0,
            height: 1,
        };
        match tree.load_levels(&mut entries.into_iter().peekable()) {
            Ok(()) => Ok(tree),
            Err(e) => {
                let _ = tree.pager.drop_file(file);
                Err(e)
            }
        }
    }

    fn load_levels<'a>(
        &mut self,
        entries: &mut std::iter::Peekable<impl Iterator<Item = (i64, &'a [u8])>>,
    ) -> Result<()> {
        let page_size = self.pager.page_size();
        let max_value = max_value(page_size);
        // (first key, page) of every node of the level being built.
        let mut level: Vec<(EntryKey, u32)> = Vec::new();
        let (mut seq, mut last) = (0u64, i64::MIN);
        loop {
            let page_no = self.pager.allocate_page(self.file)?.page_no;
            // The file is ours alone, so each leaf links to the next page
            // before that page is allocated.
            if level.last().is_some_and(|&(_, prev)| prev + 1 != page_no) {
                return Err(StorageError::Corrupt(
                    "bulk load: leaf pages not consecutive",
                ));
            }
            let first = EntryKey {
                key: entries.peek().map_or(0, |&(k, _)| k),
                seq,
            };
            let more = self.pager.write(self.pid(page_no), |p| {
                let (mut end, mut count) = (LEAF_HDR, 0u16);
                while let Some(&(key, value)) = entries.peek() {
                    if value.len() > max_value {
                        return Err(StorageError::RecordTooLarge {
                            requested: value.len(),
                            max: max_value,
                        });
                    }
                    if end + ENTRY_HDR + value.len() > page_size {
                        break;
                    }
                    assert!(key >= last, "bulk-load entries must be sorted by key");
                    write_entry(
                        &mut Writer::new(&mut p[end..]),
                        EntryKey { key, seq },
                        value,
                    );
                    end += ENTRY_HDR + value.len();
                    count += 1;
                    last = key;
                    seq += 1;
                    entries.next();
                }
                let more = entries.peek().is_some();
                init_leaf(p, count, if more { page_no + 1 } else { NO_PAGE });
                Ok(more)
            })??;
            level.push((first, page_no));
            if !more {
                break;
            }
        }
        self.len = seq;
        self.next_seq = seq;
        // Internal levels, bottom-up: children spread evenly over the
        // fewest nodes that hold them.
        let fan_out = (page_size - INTERNAL_HDR) / INTERNAL_ENTRY + 1;
        while level.len() > 1 {
            let nodes = level.len().div_ceil(fan_out);
            let mut parents = Vec::with_capacity(nodes);
            for j in 0..nodes {
                let group = &level[j * level.len() / nodes..(j + 1) * level.len() / nodes];
                let node = Internal {
                    keys: group[1..].iter().map(|&(k, _)| k).collect(),
                    children: group.iter().map(|&(_, c)| c).collect(),
                };
                parents.push((group[0].0, self.allocate(|p| node.encode(p))?));
            }
            level = parents;
            self.height += 1;
        }
        self.root = level[0].1;
        Ok(())
    }

    /// Levels from root to leaf inclusive — the paper's `H1` is the page
    /// reads of one descent, i.e. exactly this value.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pages allocated to the file (leaves + internals).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count(self.file).unwrap_or(0)
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// The file holding the tree's pages.
    pub fn file_id(&self) -> procdb_storage::FileId {
        self.file
    }

    fn pid(&self, page_no: u32) -> PageId {
        PageId::new(self.file, page_no)
    }

    /// Allocate a page and fill it in one charged write.
    fn allocate(&self, fill: impl FnOnce(&mut [u8])) -> Result<u32> {
        let pid = self.pager.allocate_page(self.file)?;
        self.pager.write(pid, fill)?;
        Ok(pid.page_no)
    }

    /// Insert a tuple under `key`; returns the uniquifying sequence number.
    pub fn insert(&mut self, key: i64, value: &[u8]) -> Result<u64> {
        let max_value = max_value(self.pager.page_size());
        if value.len() > max_value {
            return Err(StorageError::RecordTooLarge {
                requested: value.len(),
                max: max_value,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ek = EntryKey { key, seq };
        if let Some((sep, right)) = self.insert_rec(self.root, ek, value)? {
            // Root split: grow the tree by one level.
            let new_root = Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.root = self.allocate(|p| new_root.encode(p))?;
            self.height += 1;
        }
        self.len += 1;
        Ok(seq)
    }

    /// Recursive insert; returns `(separator, new right page)` on split.
    fn insert_rec(
        &mut self,
        page_no: u32,
        ek: EntryKey,
        value: &[u8],
    ) -> Result<Option<(EntryKey, u32)>> {
        let pid = self.pid(page_no);
        let page = self.pager.read(pid, Page::clone)?;
        let Some(child) = child_for(&page, ek) else {
            return self.insert_into_leaf(page_no, page, ek, value);
        };
        let split = self.insert_rec(child, ek, value)?;
        let Some((sep, right_no)) = split else {
            return Ok(None);
        };
        let Internal {
            mut keys,
            mut children,
        } = Internal::decode(&page);
        drop(page);
        let idx = keys.partition_point(|k| *k <= ek);
        keys.insert(idx, sep);
        children.insert(idx + 1, right_no);
        if INTERNAL_HDR + keys.len() * INTERNAL_ENTRY <= self.pager.page_size() {
            let node = Internal { keys, children };
            self.pager.write(pid, |p| node.encode(p))?;
            return Ok(None);
        }
        let mid = keys.len() / 2;
        let up_key = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // up_key moves up, not into either half
        let right_children = children.split_off(mid + 1);
        let right = Internal {
            keys: right_keys,
            children: right_children,
        };
        let right_no = self.allocate(|p| right.encode(p))?;
        let left = Internal { keys, children };
        self.pager.write(pid, |p| left.encode(p))?;
        Ok(Some((up_key, right_no)))
    }

    /// Insert into the leaf `page` (already read): in place when the entry
    /// fits, else split the leaf.
    fn insert_into_leaf(
        &mut self,
        page_no: u32,
        page: Page,
        ek: EntryKey,
        value: &[u8],
    ) -> Result<Option<(EntryKey, u32)>> {
        let (at, _, end) = leaf_find(&page, ek);
        let need = ENTRY_HDR + value.len();
        let count = leaf_count(&page) + 1;
        if end + need <= self.pager.page_size() {
            // Drop the handle so an unshared frame is edited without a copy.
            drop(page);
            return self
                .pager
                .write(self.pid(page_no), |p| {
                    p.copy_within(at..end, at + need);
                    write_entry(&mut Writer::new(&mut p[at..]), ek, value);
                    set_leaf_count(p, count);
                })
                .map(|()| None);
        }
        // Split: lay the leaf out with the new entry, then move the upper
        // half of its entries to a new right sibling.
        let mut full = vec![0u8; end + need];
        full[..at].copy_from_slice(&page[..at]);
        write_entry(&mut Writer::new(&mut full[at..]), ek, value);
        full[at + need..].copy_from_slice(&page[at..end]);
        set_leaf_count(&mut full, count);
        let next = leaf_next(&page);
        drop(page);
        let (mid, sep, _) = leaf_entries(&full)
            .nth(usize::from(count / 2))
            .expect("a split leaf holds at least two entries");
        let right = &full[mid..];
        let right_no = self.allocate(|p| {
            init_leaf(p, count - count / 2, next);
            p[LEAF_HDR..LEAF_HDR + right.len()].copy_from_slice(right);
        })?;
        self.pager.write(self.pid(page_no), |p| {
            p[..mid].copy_from_slice(&full[..mid]);
            init_leaf(p, count / 2, right_no);
        })?;
        Ok(Some((sep, right_no)))
    }

    /// Descend to the leaf that would contain `ek`, choosing each child on
    /// the page bytes in place. Charges `height` reads.
    fn find_leaf(&self, ek: EntryKey) -> Result<u32> {
        let mut page_no = self.root;
        while let Some(child) = self.pager.read(self.pid(page_no), |p| child_for(p, ek))? {
            page_no = child;
        }
        Ok(page_no)
    }

    /// Scan all tuples with `lo ≤ key ≤ hi` in key order, calling
    /// `f(key, seq, tuple)` on slices of each leaf page. Charges one
    /// descent plus one read per leaf page visited.
    pub fn scan_range(&self, lo: i64, hi: i64, mut f: impl FnMut(i64, u64, &[u8])) -> Result<()> {
        if lo > hi {
            return Ok(());
        }
        let mut page_no = self.find_leaf(EntryKey::min(lo))?;
        let int = |page: &[u8], at: usize| {
            i64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"))
        };
        loop {
            let pid = self.pid(page_no);
            let next = self.pager.read(pid, |page| {
                if page[0] != LEAF {
                    return Err(StorageError::CorruptPage(pid));
                }
                // Walk the entries by offset; only a key in range is
                // decoded further.
                let mut at = LEAF_HDR;
                for _ in 0..leaf_count(page) {
                    let key = int(page, at);
                    if key > hi {
                        return Ok(NO_PAGE);
                    }
                    let len = u16::from_le_bytes([page[at + 16], page[at + 17]]) as usize;
                    let end = at + ENTRY_HDR + len;
                    if key >= lo {
                        f(key, int(page, at + 8) as u64, &page[at + ENTRY_HDR..end]);
                    }
                    at = end;
                }
                Ok(leaf_next(page))
            })??;
            if next == NO_PAGE {
                return Ok(());
            }
            page_no = next;
        }
    }

    /// All tuples with exactly this key.
    pub fn get_all(&self, key: i64) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.scan_range(key, key, |_, _, v| out.push(v.to_vec()))?;
        Ok(out)
    }

    /// Full scan in key order.
    pub fn scan_all(&self, mut f: impl FnMut(i64, u64, &[u8])) -> Result<()> {
        self.scan_range(i64::MIN, i64::MAX, &mut f)
    }

    /// Read the leaf holding `ek` and locate it there: `f` gets the offset
    /// of `ek`'s entry, its value and the end of the leaf's used bytes.
    /// `None` when `ek` is absent; charges the descent and one more read
    /// of the leaf.
    fn locate<R>(
        &self,
        ek: EntryKey,
        f: impl FnOnce(usize, &[u8], usize) -> R,
    ) -> Result<Option<(u32, R)>> {
        let leaf_no = self.find_leaf(ek)?;
        let pid = self.pid(leaf_no);
        self.pager.read(pid, |page| {
            if page[0] != LEAF {
                return Err(StorageError::CorruptPage(pid));
            }
            let (at, hit, end) = leaf_find(page, ek);
            Ok(hit.map(|v| (leaf_no, f(at, v, end))))
        })?
    }

    /// Delete the entry `(key, seq)`. Returns the removed tuple, or `None`.
    pub fn delete(&mut self, key: i64, seq: u64) -> Result<Option<Vec<u8>>> {
        let ek = EntryKey { key, seq };
        let Some((leaf_no, (at, value, end))) =
            self.locate(ek, |at, v, end| (at, v.to_vec(), end))?
        else {
            return Ok(None);
        };
        let gone = ENTRY_HDR + value.len();
        self.pager.write(self.pid(leaf_no), |p| {
            p.copy_within(at + gone..end, at);
            set_leaf_count(p, leaf_count(p) - 1);
        })?;
        self.len -= 1;
        Ok(Some(value))
    }

    /// Delete the first tuple under `key` for which `pred` holds. Returns
    /// `(seq, tuple)` of the removed entry, or `None`.
    pub fn delete_where(
        &mut self,
        key: i64,
        mut pred: impl FnMut(&[u8]) -> bool,
    ) -> Result<Option<(u64, Vec<u8>)>> {
        let mut found: Option<u64> = None;
        self.scan_range(key, key, |_, seq, v| {
            if found.is_none() && pred(v) {
                found = Some(seq);
            }
        })?;
        match found {
            Some(seq) => Ok(self.delete(key, seq)?.map(|v| (seq, v))),
            None => Ok(None),
        }
    }

    /// Update the tuple `(key, seq)` in place (same length; the key does
    /// not change). For key-changing updates use delete + insert.
    pub fn update_value(&mut self, key: i64, seq: u64, value: &[u8]) -> Result<bool> {
        let ek = EntryKey { key, seq };
        let found = self.locate(ek, |at, v, _| (v.len() == value.len()).then_some(at))?;
        let Some((leaf_no, Some(at))) = found else {
            return Ok(false);
        };
        self.pager.write(self.pid(leaf_no), |p| {
            p[at + ENTRY_HDR..at + ENTRY_HDR + value.len()].copy_from_slice(value);
        })?;
        Ok(true)
    }

    /// Check the structural invariants of the whole tree (test support):
    /// ordering within nodes, separator bounds, leaf-chain order, and that
    /// `len()` matches the number of reachable entries.
    pub fn check_invariants(&self) -> Result<()> {
        fn walk(
            tree: &BTreeFile,
            page_no: u32,
            lo: Option<EntryKey>,
            hi: Option<EntryKey>,
            count: &mut u64,
        ) -> Result<()> {
            let page = tree.pager.read(tree.pid(page_no), Page::clone)?;
            if page[0] == LEAF {
                let keys: Vec<EntryKey> = leaf_entries(&page).map(|(_, k, _)| k).collect();
                for w in keys.windows(2) {
                    assert!(w[0] < w[1], "leaf entries out of order");
                }
                for k in &keys {
                    if let Some(lo) = lo {
                        assert!(*k >= lo, "entry below subtree bound");
                    }
                    if let Some(hi) = hi {
                        assert!(*k < hi, "entry above subtree bound");
                    }
                }
                *count += keys.len() as u64;
                return Ok(());
            }
            let Internal { keys, children } = Internal::decode(&page);
            assert_eq!(children.len(), keys.len() + 1);
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "internal keys out of order");
            }
            for i in 0..children.len() {
                let sub_lo = if i == 0 { lo } else { Some(keys[i - 1]) };
                let sub_hi = if i == keys.len() { hi } else { Some(keys[i]) };
                walk(tree, children[i], sub_lo, sub_hi, count)?;
            }
            Ok(())
        }
        let mut count = 0;
        walk(self, self.root, None, None, &mut count)?;
        assert_eq!(count, self.len, "len() out of sync with reachable entries");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use procdb_storage::{AccountingMode, PagerConfig};

    fn pager(page_size: usize) -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size,
            buffer_capacity: 1024,
            mode: AccountingMode::Logical,
        })
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = BTreeFile::create(pager(512)).unwrap();
        t.insert(5, b"five").unwrap();
        t.insert(3, b"three").unwrap();
        t.insert(8, b"eight").unwrap();
        assert_eq!(t.get_all(5).unwrap(), vec![b"five".to_vec()]);
        assert_eq!(t.get_all(4).unwrap(), Vec::<Vec<u8>>::new());
        assert_eq!(t.len(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_are_kept_in_insert_order() {
        let mut t = BTreeFile::create(pager(512)).unwrap();
        t.insert(7, b"a").unwrap();
        t.insert(7, b"b").unwrap();
        t.insert(7, b"c").unwrap();
        assert_eq!(
            t.get_all(7).unwrap(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn range_scan_ordered() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        for k in [9i64, 1, 7, 3, 5, 2, 8, 4, 6, 0] {
            t.insert(k, &k.to_le_bytes()).unwrap();
        }
        let mut got = Vec::new();
        t.scan_range(3, 7, |k, _, _| got.push(k)).unwrap();
        assert_eq!(got, vec![3, 4, 5, 6, 7]);
        // Empty range: nothing visited, nothing read.
        let before = t.pager().ledger().snapshot();
        let mut none = Vec::new();
        t.scan_range(7, 3, |k, _, _| none.push(k)).unwrap();
        assert!(none.is_empty());
        assert_eq!(t.pager().ledger().snapshot(), before);
        // Ranges past either end, and one covering both.
        let keys = |lo, hi| {
            let mut got = Vec::new();
            t.scan_range(lo, hi, |k, _, _| got.push(k)).unwrap();
            got
        };
        assert!(keys(-100, -1).is_empty());
        assert!(keys(10, 100).is_empty());
        assert_eq!(keys(i64::MIN, i64::MAX), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_tree_scans_root_leaf_only() {
        let t = BTreeFile::create(pager(256)).unwrap();
        let before = t.pager().ledger().snapshot();
        let mut n = 0;
        t.scan_all(|_, _, _| n += 1).unwrap();
        assert_eq!(n, 0);
        // The descent reads the root leaf, the scan reads it again.
        assert_eq!(t.pager().ledger().snapshot().since(&before).page_reads, 2);
        assert!(t.get_all(0).unwrap().is_empty());
    }

    #[test]
    fn duplicates_straddling_leaf_splits_scan_in_order() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        // Four 40-byte entries fit a 256-byte leaf: the run of 30
        // duplicates spans several leaves, with neighbours on each side.
        t.insert(4, &[0xAA; 40]).unwrap();
        for i in 0..30u8 {
            t.insert(5, &[i; 40]).unwrap();
        }
        t.insert(6, &[0xBB; 40]).unwrap();
        t.check_invariants().unwrap();
        let before = t.pager().ledger().snapshot();
        let got = t.get_all(5).unwrap();
        let reads = t.pager().ledger().snapshot().since(&before).page_reads;
        assert_eq!(got, (0..30u8).map(|i| vec![i; 40]).collect::<Vec<_>>());
        assert!(
            reads >= t.height() as u64 + 8,
            "run spans leaves: {reads} reads"
        );
        let mut all = Vec::new();
        t.scan_range(4, 6, |k, _, _| all.push(k)).unwrap();
        assert_eq!(all.len(), 32);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scan_reaching_a_non_leaf_page_is_corrupt() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        for i in 0..200i64 {
            t.insert(i, &[0u8; 40]).unwrap();
        }
        assert!(t.height() >= 2);
        // Point the leftmost leaf's sibling link (header bytes 3..7) at
        // the root, an internal page.
        let leaf = t.find_leaf(EntryKey::min(i64::MIN)).unwrap();
        let root = t.root;
        t.pager
            .write(t.pid(leaf), |p| {
                p[3..7].copy_from_slice(&root.to_le_bytes())
            })
            .unwrap();
        let err = t.scan_all(|_, _, _| {}).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage(pid) if pid == t.pid(root)),
            "{err:?}"
        );
    }

    #[test]
    fn probe_inside_scan_callback_does_not_deadlock() {
        let pager = pager(256);
        let mut t = BTreeFile::create(pager.clone()).unwrap();
        let mut h = crate::HashFile::create(pager, 2).unwrap();
        for i in 0..50i64 {
            t.insert(i, &[(i % 4) as u8; 40]).unwrap();
        }
        for d in 0..4u8 {
            h.insert(d as i64, &[d; 8]).unwrap();
        }
        let mut joined = 0;
        t.scan_all(|_, _, tuple| {
            h.probe(tuple[0] as i64, |inner| {
                assert_eq!(inner[0], tuple[0]);
                joined += 1;
            })
            .unwrap();
        })
        .unwrap();
        assert_eq!(joined, 50);
    }

    #[test]
    fn grows_and_splits_many_levels() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        let n = 2000i64;
        for i in 0..n {
            // Shuffled-ish order.
            let k = (i * 7919) % n;
            t.insert(k, &[k as u8; 40]).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.height() >= 3, "height = {}", t.height());
        t.check_invariants().unwrap();
        let mut count = 0;
        let mut last = i64::MIN;
        t.scan_all(|k, _, _| {
            assert!(k >= last);
            last = k;
            count += 1;
        })
        .unwrap();
        assert_eq!(count, n);
    }

    #[test]
    fn delete_removes_one_duplicate() {
        let mut t = BTreeFile::create(pager(512)).unwrap();
        let s1 = t.insert(4, b"x").unwrap();
        let _s2 = t.insert(4, b"y").unwrap();
        assert_eq!(t.delete(4, s1).unwrap(), Some(b"x".to_vec()));
        assert_eq!(t.delete(4, s1).unwrap(), None, "double delete");
        assert_eq!(t.get_all(4).unwrap(), vec![b"y".to_vec()]);
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_where_predicate() {
        let mut t = BTreeFile::create(pager(512)).unwrap();
        t.insert(2, b"keep").unwrap();
        t.insert(2, b"drop").unwrap();
        let got = t.delete_where(2, |v| v == b"drop").unwrap();
        assert!(matches!(got, Some((_, v)) if v == b"drop"));
        assert_eq!(t.get_all(2).unwrap(), vec![b"keep".to_vec()]);
        assert!(t.delete_where(9, |_| true).unwrap().is_none());
    }

    #[test]
    fn update_value_in_place() {
        let mut t = BTreeFile::create(pager(512)).unwrap();
        let s = t.insert(1, b"aaaa").unwrap();
        assert!(t.update_value(1, s, b"bbbb").unwrap());
        assert_eq!(t.get_all(1).unwrap(), vec![b"bbbb".to_vec()]);
        assert!(!t.update_value(1, s, b"wrong-length").unwrap());
        assert!(!t.update_value(1, 999, b"cccc").unwrap());
    }

    #[test]
    fn descent_charges_height_reads() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        for i in 0..2000i64 {
            t.insert(i, &[0u8; 40]).unwrap();
        }
        let h = t.height() as u64;
        let ledger = t.pager().ledger().clone();
        let before = ledger.snapshot();
        // A scan of a single key reads the descent path plus a re-read of
        // the visited leaf (and at most one sibling to confirm the end of
        // the duplicate run).
        t.get_all(1000).unwrap();
        let reads = ledger.snapshot().since(&before).page_reads;
        assert!(
            reads >= h && reads <= h + 2,
            "reads = {reads}, height = {h}"
        );
    }

    #[test]
    fn deep_tree_survives_interleaved_ops() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        let mut seqs = Vec::new();
        for i in 0..500i64 {
            seqs.push((i % 50, t.insert(i % 50, &[i as u8; 30]).unwrap()));
        }
        for (k, s) in seqs.iter().step_by(3) {
            assert!(t.delete(*k, *s).unwrap().is_some());
        }
        t.check_invariants().unwrap();
        // 500 - ceil(500/3) = 333
        assert_eq!(t.len(), 333);
    }

    #[test]
    fn oversized_value_rejected() {
        let mut t = BTreeFile::create(pager(256)).unwrap();
        assert!(t.insert(1, &[0u8; 400]).is_err());
    }

    /// splitmix64: a seeded value below `n`.
    fn below(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// 22-byte values, so an entry is 40 bytes and a 256-byte leaf holds
    /// six.
    const LOAD_VALUE: usize = 22;
    const PER_LEAF: usize = (256 - LEAF_HDR) / (ENTRY_HDR + LOAD_VALUE);

    /// `n` seeded entries over about `n / 3` distinct keys, stably sorted
    /// by key; each value records the entry's position before the sort.
    fn sorted_entries(seed: u64, n: usize) -> Vec<(i64, Vec<u8>)> {
        let mut rng = seed;
        let mut out: Vec<(i64, Vec<u8>)> = (0..n)
            .map(|i| {
                let key = below(&mut rng, (n as u64 / 3).max(1)) as i64 - 5;
                let mut v = (i as u64).to_le_bytes().to_vec();
                v.resize(LOAD_VALUE, i as u8);
                (key, v)
            })
            .collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    fn load(pager: Arc<Pager>, entries: &[(i64, Vec<u8>)]) -> BTreeFile {
        BTreeFile::load(pager, entries.iter().map(|(k, v)| (*k, v.as_slice()))).unwrap()
    }

    /// Entry counts of the leaves, left to right along the sibling chain.
    fn leaf_counts(t: &BTreeFile) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut page_no = t.find_leaf(EntryKey::min(i64::MIN)).unwrap();
        loop {
            let (count, next) = t
                .pager
                .read(t.pid(page_no), |p| (leaf_count(p) as usize, leaf_next(p)))
                .unwrap();
            counts.push(count);
            if next == NO_PAGE {
                return counts;
            }
            page_no = next;
        }
    }

    #[test]
    fn load_packs_leaves_and_keeps_input_order() {
        for (seed, n) in [
            (1, 0),
            (2, 1),
            (3, PER_LEAF),
            (4, PER_LEAF + 1),
            (5, 100),
            (6, 1200),
        ] {
            let entries = sorted_entries(seed, n);
            let pager = pager(256);
            let t = load(pager.clone(), &entries);
            t.check_invariants().unwrap();
            assert_eq!(t.len(), n as u64);
            let mut got = Vec::new();
            t.scan_all(|k, seq, v| got.push((k, seq, v.to_vec())))
                .unwrap();
            let want: Vec<_> = (0..)
                .zip(&entries)
                .map(|(s, (k, v))| (*k, s, v.clone()))
                .collect();
            assert_eq!(got, want, "n = {n}");
            // Every leaf but the last is full: ⌈n / per leaf⌉ leaves.
            let counts = leaf_counts(&t);
            assert_eq!(counts.len(), n.div_ceil(PER_LEAF).max(1), "n = {n}");
            assert!(counts[..counts.len() - 1].iter().all(|&c| c == PER_LEAF));
            // One charged write (read–modify–write in Logical) per page.
            let charged = pager.ledger().snapshot();
            assert_eq!(charged.page_writes, t.page_count() as u64, "n = {n}");
            if n == 1200 {
                assert!(t.height() >= 3, "height {}", t.height());
            }
        }
    }

    /// After a load the tree takes inserts (splitting full leaves),
    /// deletes and in-place updates like an insert-built one: a seeded
    /// sequence agrees with a `BTreeMap` model.
    #[test]
    fn loaded_tree_agrees_with_model_under_mutation() {
        for seed in 1..=4u64 {
            let entries = sorted_entries(seed, 300);
            let mut t = load(pager(256), &entries);
            let mut model: BTreeMap<(i64, u64), Vec<u8>> =
                (0..).zip(entries).map(|(s, (k, v))| ((k, s), v)).collect();
            let rng = &mut (seed * 77);
            for step in 0..600u64 {
                match below(rng, 3) {
                    0 => {
                        let key = below(rng, 120) as i64 - 10;
                        let v = vec![step as u8; LOAD_VALUE];
                        let seq = t.insert(key, &v).unwrap();
                        assert!(model.insert((key, seq), v).is_none(), "seq reused");
                    }
                    1 if !model.is_empty() => {
                        let nth = below(rng, model.len() as u64) as usize;
                        let (&(k, s), _) = model.iter().nth(nth).unwrap();
                        assert_eq!(t.delete(k, s).unwrap(), model.remove(&(k, s)));
                    }
                    _ if !model.is_empty() => {
                        let nth = below(rng, model.len() as u64) as usize;
                        let (&(k, s), _) = model.iter().nth(nth).unwrap();
                        let v = vec![!(step as u8); LOAD_VALUE];
                        assert!(t.update_value(k, s, &v).unwrap());
                        model.insert((k, s), v);
                    }
                    _ => {}
                }
            }
            t.check_invariants().unwrap();
            let mut got = Vec::new();
            t.scan_all(|k, s, v| got.push(((k, s), v.to_vec())))
                .unwrap();
            assert_eq!(got, model.into_iter().collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn load_rejects_oversized_value_and_drops_its_file() {
        let pager = pager(256);
        let big = [0u8; 400];
        let entries = [(1, &b"ok"[..]), (2, &big[..])];
        assert!(matches!(
            BTreeFile::load(pager.clone(), entries),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert_eq!(pager.total_pages(), 0, "the half-built file is gone");
    }
}
