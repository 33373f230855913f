//! A hash file: tuples stored directly in hash buckets keyed by an `i64`
//! attribute — the paper's "hashed primary index" organization for `R2`
//! and `R3`.
//!
//! A probe for one key reads the bucket's page chain (one page when the
//! file is well-sized), which is exactly how the paper's Yao terms count
//! pages touched while joining into `R2`/`R3`.
//!
//! Pages stay in place. A probe or a full scan walks each bucket page's
//! entries on the pager's shared page handle and hands the callback
//! slices of the page itself; the callback runs outside the pager lock.
//! An insert appends the entry's bytes to the first bucket page with room
//! and a delete shifts the page's tail over the entry: one read to find
//! the spot, one write to edit the bytes.

use std::sync::Arc;

use procdb_storage::{FileId, PageId, Pager, Result, StorageError};

use crate::codec::{Reader, Writer};

const BUCKET_HDR: usize = 2 + 4; // count u16, next u32
const NO_PAGE: u32 = u32::MAX;

fn entry_size(value_len: usize) -> usize {
    8 + 2 + value_len // key, len, bytes
}

fn entry_count(page: &[u8]) -> u16 {
    u16::from_le_bytes([page[0], page[1]])
}

fn set_entry_count(page: &mut [u8], count: u16) {
    page[0..2].copy_from_slice(&count.to_le_bytes());
}

fn bucket_next(page: &[u8]) -> u32 {
    u32::from_le_bytes([page[2], page[3], page[4], page[5]])
}

fn set_bucket_next(page: &mut [u8], next: u32) {
    page[2..6].copy_from_slice(&next.to_le_bytes());
}

/// Make `page` an empty bucket page with no overflow link.
fn init_bucket(page: &mut [u8]) {
    set_entry_count(page, 0);
    set_bucket_next(page, NO_PAGE);
}

/// A bucket page's entries in place: `(byte offset, key, tuple)`.
fn bucket_entries(page: &[u8]) -> impl Iterator<Item = (usize, i64, &[u8])> {
    let mut r = Reader::new(&page[BUCKET_HDR..]);
    (0..entry_count(page)).map(move |_| {
        let at = BUCKET_HDR + r.position();
        let key = r.i64();
        let len = r.u16() as usize;
        (at, key, r.bytes(len))
    })
}

/// End of a bucket page's used bytes.
fn bucket_end(page: &[u8]) -> usize {
    bucket_entries(page)
        .last()
        .map_or(BUCKET_HDR, |(at, _, v)| at + entry_size(v.len()))
}

/// A hash-organized file of `(i64 key, tuple bytes)` entries.
pub struct HashFile {
    pager: Arc<Pager>,
    file: FileId,
    /// Bucket directory (head page of each bucket chain). Directories live
    /// in memory in real systems too, so consulting it is not charged.
    directory: Vec<u32>,
    len: u64,
}

impl HashFile {
    /// Create a hash file with `buckets` bucket chains. Size buckets so the
    /// expected tuples per bucket fit one page for single-read probes.
    pub fn create(pager: Arc<Pager>, buckets: usize) -> Result<HashFile> {
        assert!(buckets > 0, "need at least one bucket");
        let file = pager.create_file();
        let mut directory = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            let pid = pager.allocate_page(file)?;
            pager.write(pid, init_bucket)?;
            directory.push(pid.page_no);
        }
        Ok(HashFile {
            pager,
            file,
            directory,
            len: 0,
        })
    }

    /// Convenience: size the directory for `expected` tuples of
    /// `value_len`-byte values, aiming at one page per bucket.
    pub fn create_sized(pager: Arc<Pager>, expected: usize, value_len: usize) -> Result<HashFile> {
        let per_page = ((pager.page_size() - BUCKET_HDR) / entry_size(value_len)).max(1);
        let buckets = expected.div_ceil(per_page).max(1);
        HashFile::create(pager, buckets)
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets in the directory.
    pub fn bucket_count(&self) -> usize {
        self.directory.len()
    }

    /// Pages allocated (buckets + overflow).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count(self.file).unwrap_or(0)
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// The file holding the buckets and their overflow pages.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn bucket_of(&self, key: i64) -> u32 {
        // Fibonacci-style multiplicative hash; cheap and well-spread for
        // sequential keys.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.directory[(h % self.directory.len() as u64) as usize]
    }

    fn pid(&self, page_no: u32) -> PageId {
        PageId::new(self.file, page_no)
    }

    /// Insert a tuple under `key`.
    pub fn insert(&mut self, key: i64, value: &[u8]) -> Result<()> {
        let max = self.pager.page_size() - BUCKET_HDR - 2 - 8;
        if value.len() > max {
            return Err(StorageError::RecordTooLarge {
                requested: value.len(),
                max,
            });
        }
        let need = entry_size(value.len());
        let mut page_no = self.bucket_of(key);
        loop {
            let pid = self.pid(page_no);
            let (end, next) = self.pager.read(pid, |p| (bucket_end(p), bucket_next(p)))?;
            if end + need <= self.pager.page_size() {
                self.pager.write(pid, |p| {
                    let mut w = Writer::new(&mut p[end..]);
                    w.i64(key);
                    w.u16(value.len() as u16);
                    w.bytes(value);
                    set_entry_count(p, entry_count(p) + 1);
                })?;
                self.len += 1;
                return Ok(());
            }
            if next != NO_PAGE {
                page_no = next;
                continue;
            }
            // Chain a fresh overflow page, then retry there.
            let new_pid = self.pager.allocate_page(self.file)?;
            self.pager.write(new_pid, init_bucket)?;
            self.pager
                .write(pid, |p| set_bucket_next(p, new_pid.page_no))?;
            page_no = new_pid.page_no;
        }
    }

    /// Probe: call `f` for every tuple stored under `key`. Reads the
    /// bucket's page chain (typically one page). Entries are matched on
    /// their key bytes where they sit: only a match is sliced out.
    pub fn probe(&self, key: i64, mut f: impl FnMut(&[u8])) -> Result<()> {
        let want = key.to_le_bytes();
        let mut page_no = self.bucket_of(key);
        loop {
            let next = self.pager.read(self.pid(page_no), |page| {
                let mut at = BUCKET_HDR;
                for _ in 0..entry_count(page) {
                    let len = u16::from_le_bytes([page[at + 8], page[at + 9]]) as usize;
                    let end = at + entry_size(len);
                    if page[at..at + 8] == want {
                        f(&page[at + 10..end]);
                    }
                    at = end;
                }
                bucket_next(page)
            })?;
            if next == NO_PAGE {
                return Ok(());
            }
            page_no = next;
        }
    }

    /// All tuples stored under `key`.
    pub fn get_all(&self, key: i64) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.probe(key, |v| out.push(v.to_vec()))?;
        Ok(out)
    }

    /// Delete the first tuple under `key` matching `pred`. Returns it.
    pub fn delete_where(
        &mut self,
        key: i64,
        mut pred: impl FnMut(&[u8]) -> bool,
    ) -> Result<Option<Vec<u8>>> {
        let mut page_no = self.bucket_of(key);
        loop {
            let pid = self.pid(page_no);
            let (found, next) = self.pager.read(pid, |page| {
                let found = bucket_entries(page)
                    .find(|(_, k, v)| *k == key && pred(v))
                    .map(|(at, _, v)| (at, v.to_vec(), bucket_end(page)));
                (found, bucket_next(page))
            })?;
            if let Some((at, value, end)) = found {
                let gone = entry_size(value.len());
                self.pager.write(pid, |p| {
                    p.copy_within(at + gone..end, at);
                    set_entry_count(p, entry_count(p) - 1);
                })?;
                self.len -= 1;
                return Ok(Some(value));
            }
            if next == NO_PAGE {
                return Ok(None);
            }
            page_no = next;
        }
    }

    /// Full scan over every bucket and overflow page.
    pub fn scan_all(&self, mut f: impl FnMut(i64, &[u8])) -> Result<()> {
        for page_no in 0..self.page_count() {
            self.pager.read(self.pid(page_no), |page| {
                for (_, k, v) in bucket_entries(page) {
                    f(k, v);
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
    fn insert_probe_roundtrip() {
        let mut h = HashFile::create(pager(512), 8).unwrap();
        h.insert(10, b"ten").unwrap();
        h.insert(20, b"twenty").unwrap();
        h.insert(10, b"TEN").unwrap();
        assert_eq!(
            h.get_all(10).unwrap(),
            vec![b"ten".to_vec(), b"TEN".to_vec()]
        );
        assert_eq!(h.get_all(20).unwrap(), vec![b"twenty".to_vec()]);
        assert!(h.get_all(99).unwrap().is_empty());
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn overflow_chains_work() {
        // One bucket forces everything into a chain.
        let mut h = HashFile::create(pager(256), 1).unwrap();
        for i in 0..40i64 {
            h.insert(i, &[i as u8; 30]).unwrap();
        }
        assert!(h.page_count() > 1, "overflow pages expected");
        for i in 0..40i64 {
            assert_eq!(h.get_all(i).unwrap(), vec![vec![i as u8; 30]]);
        }
        // An absent key walks the whole chain and finds nothing.
        let before = h.pager().ledger().snapshot();
        assert!(h.get_all(99).unwrap().is_empty());
        let reads = h.pager().ledger().snapshot().since(&before).page_reads;
        assert_eq!(reads, h.page_count() as u64);
    }

    #[test]
    fn delete_where_removes_one() {
        let mut h = HashFile::create(pager(512), 4).unwrap();
        h.insert(5, b"a").unwrap();
        h.insert(5, b"b").unwrap();
        assert_eq!(
            h.delete_where(5, |v| v == b"a").unwrap(),
            Some(b"a".to_vec())
        );
        assert_eq!(h.get_all(5).unwrap(), vec![b"b".to_vec()]);
        assert!(h.delete_where(5, |v| v == b"zzz").unwrap().is_none());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn well_sized_file_probes_one_page() {
        let pager = pager(512);
        let mut h = HashFile::create_sized(pager.clone(), 200, 30).unwrap();
        for i in 0..200i64 {
            h.insert(i, &[1u8; 30]).unwrap();
        }
        // Probe cost: expect ~1 page per probe on a well-sized file.
        let before = pager.ledger().snapshot();
        let probes = 50;
        for i in 0..probes {
            h.probe(i, |_| {}).unwrap();
        }
        let reads = pager.ledger().snapshot().since(&before).page_reads;
        assert!(
            reads <= probes as u64 * 2,
            "expected ≈1 read/probe, got {reads} for {probes}"
        );
    }

    #[test]
    fn scan_all_sees_everything() {
        let mut h = HashFile::create(pager(256), 4).unwrap();
        for i in 0..30i64 {
            h.insert(i, &i.to_le_bytes()).unwrap();
        }
        let mut keys = Vec::new();
        h.scan_all(|k, _| keys.push(k)).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_value_rejected() {
        let mut h = HashFile::create(pager(256), 2).unwrap();
        assert!(h.insert(1, &[0u8; 300]).is_err());
    }

    #[test]
    fn create_sized_scales_buckets() {
        let h1 = HashFile::create_sized(pager(512), 10, 30).unwrap();
        let h2 = HashFile::create_sized(pager(512), 1000, 30).unwrap();
        assert!(h2.bucket_count() > h1.bucket_count());
    }
}
