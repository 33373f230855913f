//! The simulated disk: a set of files, each an extendable array of
//! fixed-size pages held in memory. Transfers are what the paper prices at
//! `C2`; the [`Pager`](crate::pager::Pager) decides when a logical access
//! becomes a counted transfer.
//!
//! A page is a shared [`Page`] handle: a read hands over a
//! handle (a reference-count bump), not a copy of the bytes. Every fresh
//! page shares one zeroed page until its first write.

use std::sync::Arc;

use crate::error::{Result, StorageError};

/// One page's bytes, shared. A write copies a page that is still shared
/// (copy on write), so a handle taken earlier keeps its bytes.
pub type Page = Arc<[u8]>;

/// Identifies one file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Identifies one page: a file plus a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page number within the file.
    pub page_no: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(file: FileId, page_no: u32) -> Self {
        PageId { file, page_no }
    }
}

struct DiskFile {
    pages: Vec<Page>,
}

/// An in-memory simulated disk of files of fixed-size pages.
pub struct Disk {
    page_size: usize,
    files: Vec<Option<DiskFile>>,
    zeroed: Page,
}

impl Disk {
    /// Create a disk whose pages are `page_size` bytes (the paper's `B`).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        Disk {
            page_size,
            files: Vec::new(),
            zeroed: vec![0u8; page_size].into(),
        }
    }

    /// Create a new empty file and return its id.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(Some(DiskFile { pages: Vec::new() }));
        id
    }

    /// Delete a file and all its pages. The id is never reused.
    pub fn drop_file(&mut self, file: FileId) -> Result<()> {
        let slot = self
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file))?;
        if slot.take().is_none() {
            return Err(StorageError::UnknownFile(file));
        }
        Ok(())
    }

    fn file(&self, file: FileId) -> Result<&DiskFile> {
        self.files
            .get(file.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(StorageError::UnknownFile(file))
    }

    fn file_mut(&mut self, file: FileId) -> Result<&mut DiskFile> {
        self.files
            .get_mut(file.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(StorageError::UnknownFile(file))
    }

    /// Number of allocated pages in the file.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        Ok(self.file(file)?.pages.len() as u32)
    }

    /// Pages allocated across every live file.
    pub fn total_pages(&self) -> u64 {
        self.files
            .iter()
            .flatten()
            .map(|f| f.pages.len() as u64)
            .sum()
    }

    /// Append a zeroed page to the file, returning its id.
    pub fn allocate_page(&mut self, file: FileId) -> Result<PageId> {
        let zeroed = self.zeroed.clone();
        let f = self.file_mut(file)?;
        let page_no = f.pages.len() as u32;
        f.pages.push(zeroed);
        Ok(PageId::new(file, page_no))
    }

    /// Read a page (a simulated disk transfer): its shared handle.
    pub fn read_page(&self, pid: PageId) -> Result<&Page> {
        self.file(pid.file)?
            .pages
            .get(pid.page_no as usize)
            .ok_or(StorageError::UnknownPage(pid))
    }

    /// Overwrite a page's bytes (a simulated disk transfer). The page is
    /// copied first only if it is still shared.
    pub fn write_page(&mut self, pid: PageId, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), self.page_size, "page write must be full-size");
        let page = self
            .file_mut(pid.file)?
            .pages
            .get_mut(pid.page_no as usize)
            .ok_or(StorageError::UnknownPage(pid))?;
        Arc::make_mut(page).copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_allocate_read_write() {
        let mut d = Disk::new(256);
        let f = d.create_file();
        assert_eq!(d.page_count(f).unwrap(), 0);
        let p0 = d.allocate_page(f).unwrap();
        let p1 = d.allocate_page(f).unwrap();
        assert_eq!(p0.page_no, 0);
        assert_eq!(p1.page_no, 1);
        assert_eq!(d.page_count(f).unwrap(), 2);
        assert!(d.read_page(p0).unwrap().iter().all(|&b| b == 0));
        let mut data = vec![0u8; 256];
        data[0] = 0xAB;
        d.write_page(p1, &data).unwrap();
        assert_eq!(d.read_page(p1).unwrap()[0], 0xAB);
        assert_eq!(d.read_page(p0).unwrap()[0], 0); // isolation
    }

    #[test]
    fn unknown_ids_error() {
        let mut d = Disk::new(256);
        let f = d.create_file();
        assert!(matches!(
            d.read_page(PageId::new(f, 9)),
            Err(StorageError::UnknownPage(_))
        ));
        assert!(matches!(
            d.page_count(FileId(42)),
            Err(StorageError::UnknownFile(_))
        ));
    }

    #[test]
    fn drop_file_frees_and_errors_after() {
        let mut d = Disk::new(256);
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.drop_file(f).unwrap();
        assert!(d.read_page(p).is_err());
        assert!(d.drop_file(f).is_err());
        // Ids are not reused.
        let g = d.create_file();
        assert_ne!(f, g);
    }

    #[test]
    #[should_panic]
    fn short_page_write_panics() {
        let mut d = Disk::new(256);
        let f = d.create_file();
        let p = d.allocate_page(f).unwrap();
        d.write_page(p, &[0u8; 10]).unwrap();
    }
}
