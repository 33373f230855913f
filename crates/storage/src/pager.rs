//! The pager: buffer-managed, cost-accounted access to disk pages.
//!
//! Two accounting modes mirror the two ways the paper can be read:
//!
//! * [`AccountingMode::Logical`] (default) — every logical page access is
//!   charged `C2`, exactly as the analytical model assumes (the model never
//!   credits buffer hits). A mutable access charges read **and** write
//!   (read–modify–write, the paper's `2·C2` per refreshed page).
//! * [`AccountingMode::Physical`] — only real transfers are charged: buffer
//!   misses as reads, dirty evictions and flushes as writes. Used by the
//!   ablation benches to show how a warm buffer pool shifts the tradeoff.
//!
//! Charging can be suspended while loading base data, so experiments
//! measure steady-state work only: [`Pager::uncharged`] suspends it until
//! its guard drops, on every exit path.
//!
//! Durability does not depend on the accounting mode. An operation ends
//! with [`Pager::end_operation`], which writes every dirty frame back; the
//! mode decides only what that write-back charges (see its docs), so a
//! simulated crash ([`Pager::drop_frames`]) loses no completed operation.
//!
//! Pages stay in place. A frame holds a shared [`Page`] handle: a buffer
//! fault takes the disk's handle, not a copy of its bytes. [`Pager::read`]
//! takes the lock only to fault the page in and bump its reference count,
//! then runs the closure on the handle outside the lock, so a read closure
//! may itself read or write pages. [`Pager::write`] copies the page on
//! write when anything else (the disk, a reader's handle) still shares it,
//! and edits it in place otherwise. Its closure runs under the lock: **do
//! not re-enter the pager from inside a write closure** — read what you
//! need first. A write-back copies a dirty frame's bytes into the disk's
//! page rather than sharing the frame, so the frame stays unshared and its
//! next write needs no copy: sharing it made every write after a flush
//! allocate a page, and the benchmark's `pipelined_sharded` workload (one
//! flush per update) peaked 28 % higher in RSS.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::{Disk, FileId, Page, PageId};
use crate::error::{Result, StorageError};
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, TransferKind};
use crate::ledger::CostLedger;

/// How page accesses are converted into ledger charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountingMode {
    /// Charge every logical access (paper-model parity).
    Logical,
    /// Charge only physical transfers through the buffer pool.
    Physical,
}

/// Pager construction options.
#[derive(Debug, Clone)]
pub struct PagerConfig {
    /// Page size in bytes (the paper's `B`, default 4000).
    pub page_size: usize,
    /// Buffer-pool capacity in frames (only affects `Physical` accounting).
    pub buffer_capacity: usize,
    /// Accounting mode.
    pub mode: AccountingMode,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            page_size: 4000,
            buffer_capacity: 64,
            mode: AccountingMode::Logical,
        }
    }
}

struct Frame {
    data: Page,
    /// The bytes differ from the disk's page.
    dirty: bool,
    /// `Physical` accounting still owes this page's write-back charge:
    /// set by a write, paid when the frame is evicted or flushed. An
    /// operation boundary makes the page durable without paying it, the
    /// way a no-force buffer pool defers the write to eviction.
    unpaid: bool,
    last_used: u64,
}

struct PagerState {
    disk: Disk,
    frames: HashMap<PageId, Frame>,
    clock: u64,
    hits: u64,
    faults: u64,
    injector: Option<Arc<FaultInjector>>,
}

/// Cached global-metric handles for the pager's hot paths (one relaxed
/// `fetch_add` each; created once per pager, recorded process-wide).
struct PagerMetrics {
    reads: procdb_obs::Counter,
    writes: procdb_obs::Counter,
    hits: procdb_obs::Counter,
    faults: procdb_obs::Counter,
    evictions: procdb_obs::Counter,
    flushes: procdb_obs::Counter,
}

impl PagerMetrics {
    fn new() -> PagerMetrics {
        let reg = procdb_obs::global();
        PagerMetrics {
            reads: reg.counter("procdb_pager_reads_total", &[]),
            writes: reg.counter("procdb_pager_writes_total", &[]),
            hits: reg.counter("procdb_pager_buffer_hits_total", &[]),
            faults: reg.counter("procdb_pager_buffer_faults_total", &[]),
            evictions: reg.counter("procdb_pager_evictions_total", &[]),
            flushes: reg.counter("procdb_pager_flushes_total", &[]),
        }
    }
}

/// Charging suspended on one pager; dropping it restores the charging
/// state [`Pager::uncharged`] found.
#[must_use = "charging resumes as soon as the guard drops"]
pub struct Uncharged {
    pager: Arc<Pager>,
    was: bool,
}

impl Drop for Uncharged {
    fn drop(&mut self) {
        self.pager.set_charging(self.was);
    }
}

/// Buffer-managed, cost-accounted page store. Shared via `Arc`.
pub struct Pager {
    state: Mutex<PagerState>,
    ledger: Arc<CostLedger>,
    charging: AtomicBool,
    crashes: AtomicU64,
    config: PagerConfig,
    metrics: PagerMetrics,
}

impl Pager {
    /// Build a pager with the given configuration and a fresh ledger.
    pub fn new(config: PagerConfig) -> Arc<Pager> {
        Arc::new(Pager {
            state: Mutex::new(PagerState {
                disk: Disk::new(config.page_size),
                frames: HashMap::new(),
                clock: 0,
                hits: 0,
                faults: 0,
                injector: None,
            }),
            ledger: CostLedger::new(),
            charging: AtomicBool::new(true),
            crashes: AtomicU64::new(0),
            config,
            metrics: PagerMetrics::new(),
        })
    }

    /// Pager with all defaults (4000-byte pages, logical accounting).
    pub fn new_default() -> Arc<Pager> {
        Pager::new(PagerConfig::default())
    }

    /// The shared cost ledger.
    pub fn ledger(&self) -> &Arc<CostLedger> {
        &self.ledger
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Accounting mode in force.
    pub fn mode(&self) -> AccountingMode {
        self.config.mode
    }

    /// Enable or disable cost charging (e.g. while bulk-loading).
    pub fn set_charging(&self, on: bool) {
        self.charging.store(on, Ordering::Relaxed);
    }

    /// Whether accesses are currently charged.
    pub fn is_charging(&self) -> bool {
        self.charging.load(Ordering::Relaxed)
    }

    /// Suspend charging until the returned guard drops, which restores
    /// whatever was in force before, also when the work in between
    /// returns early with an error. Setup, base mutations and snapshots
    /// run under it: they are not the paper's priced work.
    pub fn uncharged(self: &Arc<Self>) -> Uncharged {
        let was = self.is_charging();
        self.set_charging(false);
        Uncharged {
            pager: Arc::clone(self),
            was,
        }
    }

    /// Buffer-pool statistics since construction: `(hits, faults)`.
    /// The hit rate is what a warm pool saves — the model's charging never
    /// credits it (see the `A3` ablation).
    pub fn buffer_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.faults)
    }

    /// Fraction of page accesses served from the pool (`NaN` before any
    /// access).
    pub fn hit_rate(&self) -> f64 {
        let (h, f) = self.buffer_stats();
        h as f64 / (h + f) as f64
    }

    /// Create a new file.
    pub fn create_file(&self) -> FileId {
        self.state.lock().disk.create_file()
    }

    /// Drop a file: its frames are discarded, its pages freed.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        let mut st = self.state.lock();
        st.frames.retain(|pid, _| pid.file != file);
        st.disk.drop_file(file)
    }

    /// Number of pages allocated in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.state.lock().disk.page_count(file)
    }

    /// Pages allocated across every live file.
    pub fn total_pages(&self) -> u64 {
        self.state.lock().disk.total_pages()
    }

    /// Allocate a fresh zeroed page (not itself a charged access).
    pub fn allocate_page(&self, file: FileId) -> Result<PageId> {
        self.state.lock().disk.allocate_page(file)
    }

    /// Install a fault-injection plan. Every subsequent disk transfer
    /// consults the returned injector; replaces any previous plan.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = FaultInjector::new(plan);
        self.state.lock().injector = Some(inj.clone());
        inj
    }

    /// Remove the fault-injection plan (transfers run clean again).
    pub fn clear_faults(&self) {
        self.state.lock().injector = None;
    }

    /// The currently installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.state.lock().injector.clone()
    }

    /// Drop every buffered frame **without** writing dirty pages back —
    /// the volatile half of a simulated process crash. Durable state is
    /// exactly what the disk already holds.
    pub fn drop_frames(&self) {
        self.state.lock().frames.clear();
        self.crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Simulated crashes ([`Pager::drop_frames`]) so far. In-RAM state
    /// that mirrors page contents, such as a heap file's free-space map,
    /// compares this to know whether the disk may have lost writes since
    /// it last matched.
    pub fn crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Write `data` to disk at `pid`, routing through the fault injector
    /// (`charged` tells it whether the transfer is priced). A torn write
    /// lands a prefix of the new bytes over the old page content, then
    /// reports failure — exactly what a half-completed sector write
    /// leaves behind.
    fn write_back(
        &self,
        st: &mut PagerState,
        pid: PageId,
        data: &[u8],
        charged: bool,
    ) -> Result<()> {
        if let Some(inj) = st.injector.clone() {
            match inj.decide(TransferKind::Write, charged) {
                FaultDecision::Proceed => {}
                FaultDecision::Fail(n) => return Err(StorageError::Io(n)),
                FaultDecision::Kill => return Err(StorageError::Crashed),
                FaultDecision::Torn(_) => {
                    let split = inj.torn_split(data.len());
                    let mut torn = st.disk.read_page(pid)?.to_vec();
                    torn[..split].copy_from_slice(&data[..split]);
                    st.disk.write_page(pid, &torn)?;
                    return Err(StorageError::TornWrite(pid));
                }
            }
        }
        st.disk.write_page(pid, data)
    }

    fn charge_read(&self, n: u64) {
        if self.is_charging() {
            self.ledger.add_page_reads(n);
        }
    }

    /// Record a hit-or-fault outcome on the global metrics.
    fn note_fault(&self, missed: bool) {
        if missed {
            self.metrics.faults.inc();
        } else {
            self.metrics.hits.inc();
        }
    }

    fn charge_write(&self, n: u64) {
        if self.is_charging() {
            self.ledger.add_page_writes(n);
        }
    }

    /// Ensure `pid` is framed; returns whether a physical read happened.
    fn fault_in(&self, st: &mut PagerState, pid: PageId) -> Result<bool> {
        if st.frames.contains_key(&pid) {
            st.hits += 1;
            return Ok(false);
        }
        if let Some(inj) = &st.injector {
            match inj.decide(TransferKind::Read, self.is_charging()) {
                FaultDecision::Proceed => {}
                FaultDecision::Fail(n) | FaultDecision::Torn(n) => return Err(StorageError::Io(n)),
                FaultDecision::Kill => return Err(StorageError::Crashed),
            }
        }
        st.faults += 1;
        let data = st.disk.read_page(pid)?.clone();
        st.clock += 1;
        let clock = st.clock;
        st.frames.insert(
            pid,
            Frame {
                data,
                dirty: false,
                unpaid: false,
                last_used: clock,
            },
        );
        Ok(true)
    }

    /// Evict LRU frames down to capacity, writing dirty ones back; returns
    /// the write-backs owed (the `Physical` charge).
    fn evict_to_capacity(&self, st: &mut PagerState, capacity: usize, keep: PageId) -> Result<u64> {
        let mut writes = 0;
        while st.frames.len() > capacity {
            let victim = st
                .frames
                .iter()
                .filter(|(pid, _)| **pid != keep)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(pid, _)| *pid);
            let Some(victim) = victim else { break };
            let Some(frame) = st.frames.remove(&victim) else {
                return Err(StorageError::Corrupt(
                    "eviction victim vanished from frame table",
                ));
            };
            self.metrics.evictions.inc();
            if frame.dirty {
                if let Err(e) = self.write_back(st, victim, &frame.data, self.is_charging()) {
                    // The device write failed but the in-memory copy is
                    // intact: keep the frame (still dirty) so no data is
                    // silently lost without a crash. The pool runs over
                    // capacity until a later eviction succeeds.
                    st.frames.insert(victim, frame);
                    return Err(e);
                }
            }
            writes += u64::from(frame.unpaid);
        }
        Ok(writes)
    }

    /// Fault `pid` in and mark it used; returns the frame and whether a
    /// physical read happened.
    fn touch<'s>(&self, st: &'s mut PagerState, pid: PageId) -> Result<(&'s mut Frame, bool)> {
        let missed = self.fault_in(st, pid)?;
        st.clock += 1;
        let clock = st.clock;
        let Some(frame) = st.frames.get_mut(&pid) else {
            return Err(StorageError::Corrupt(
                "faulted-in page missing from frame table",
            ));
        };
        frame.last_used = clock;
        Ok((frame, missed))
    }

    /// Read page `pid`, passing its shared handle to `f`. The lock is held
    /// only to fault the page in and take the handle; `f` runs outside it
    /// and sees the page as it was at that moment. Charges one page read in
    /// `Logical` mode, or a physical read on buffer miss in `Physical` mode.
    pub fn read<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut sp = procdb_obs::span!(procdb_obs::global(), "pager.read", page = pid.page_no);
        let mut st = self.state.lock();
        let (frame, missed) = self.touch(&mut st, pid)?;
        let page = frame.data.clone();
        let writes = self.evict_to_capacity(&mut st, self.config.buffer_capacity, pid)?;
        drop(st);
        if sp.is_recording() && missed {
            sp.field("fault", 1.0);
        }
        self.metrics.reads.inc();
        self.note_fault(missed);
        match self.config.mode {
            AccountingMode::Logical => self.charge_read(1),
            AccountingMode::Physical => {
                if missed {
                    self.charge_read(1);
                }
                self.charge_write(writes);
            }
        }
        Ok(f(&page))
    }

    /// Read–modify–write page `pid`. The page is copied first if anything
    /// else shares it (copy on write), so handles taken by earlier reads
    /// keep their bytes. `f` runs under the pager lock. Charges one read
    /// **and** one write in `Logical` mode (the paper's `2·C2` per
    /// refreshed page); in `Physical` mode the frame is dirtied and written
    /// back on eviction/flush.
    pub fn write<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut sp = procdb_obs::span!(procdb_obs::global(), "pager.write", page = pid.page_no);
        let mut st = self.state.lock();
        let (frame, missed) = self.touch(&mut st, pid)?;
        frame.dirty = true;
        frame.unpaid = true;
        let out = f(Arc::make_mut(&mut frame.data));
        let writes = self.evict_to_capacity(&mut st, self.config.buffer_capacity, pid)?;
        drop(st);
        if sp.is_recording() && missed {
            sp.field("fault", 1.0);
        }
        self.metrics.writes.inc();
        self.note_fault(missed);
        match self.config.mode {
            AccountingMode::Logical => {
                self.charge_read(1);
                self.charge_write(1);
            }
            AccountingMode::Physical => {
                if missed {
                    self.charge_read(1);
                }
                self.charge_write(writes);
            }
        }
        Ok(out)
    }

    /// Flush all dirty frames and drop every frame from the pool.
    ///
    /// The analytical model charges each *operation* (one query or one
    /// update transaction) for the distinct pages it touches, with no
    /// carry-over between operations. A `Physical`-mode simulation calls
    /// this between operations to get exactly those semantics: within an
    /// operation, re-touches of a page are free (Yao counts distinct
    /// pages); across operations, everything must be re-read.
    pub fn clear_buffer(&self) -> Result<()> {
        self.flush()?;
        self.state.lock().frames.clear();
        Ok(())
    }

    /// Write back all dirty frames (charged as physical writes in
    /// `Physical` mode only — `Logical` mode has already charged them).
    pub fn flush(&self) -> Result<()> {
        self.metrics.flushes.inc();
        let writes = self.write_back_dirty(self.is_charging(), true)?;
        if self.config.mode == AccountingMode::Physical {
            self.charge_write(writes);
        }
        Ok(())
    }

    /// End one operation: every dirty frame becomes durable, whatever the
    /// accounting mode; the mode decides only what that write-back
    /// charges. Under `Physical` accounting with `drop_frames`, the pool
    /// is flushed (charged) and emptied, so the next operation pays for
    /// its own distinct pages as the model assumes. Otherwise the
    /// write-back is uncharged: `Logical` mode charged each write when it
    /// happened, and a warm `Physical` pool still owes each page one
    /// write-back charge, paid at eviction or flush — unless charging is
    /// suspended now (an uncharged base mutation), which settles it.
    pub fn end_operation(&self, drop_frames: bool) -> Result<()> {
        if drop_frames && self.config.mode == AccountingMode::Physical {
            return self.clear_buffer();
        }
        self.write_back_dirty(false, !self.is_charging()).map(drop)
    }

    /// Write every dirty frame back (`charged` is what the fault injector
    /// is told). With `settle`, the frames' owed write-back charges are
    /// cleared too. Returns how many charges were owed.
    fn write_back_dirty(&self, charged: bool, settle: bool) -> Result<u64> {
        let mut st = self.state.lock();
        let pending: Vec<(PageId, bool)> = st
            .frames
            .iter()
            .filter(|(_, fr)| fr.dirty || (settle && fr.unpaid))
            .map(|(pid, fr)| (*pid, fr.dirty))
            .collect();
        let mut owed = 0;
        for (pid, dirty) in pending {
            if dirty {
                // A handle, not a copy of the page; dropped after the write.
                let Some(data) = st.frames.get(&pid).map(|fr| fr.data.clone()) else {
                    return Err(StorageError::Corrupt("dirty page vanished during flush"));
                };
                self.write_back(&mut st, pid, &data, charged)?;
            }
            let Some(frame) = st.frames.get_mut(&pid) else {
                return Err(StorageError::Corrupt("dirty page vanished during flush"));
            };
            frame.dirty = false;
            if settle {
                owed += u64::from(frame.unpaid);
                frame.unpaid = false;
            }
        }
        Ok(owed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pager(mode: AccountingMode, capacity: usize) -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 256,
            buffer_capacity: capacity,
            mode,
        })
    }

    #[test]
    fn logical_mode_charges_every_access() {
        let pager = small_pager(AccountingMode::Logical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.read(p, |_| ()).unwrap();
        pager.read(p, |_| ()).unwrap(); // buffer hit, still charged
        pager.write(p, |d| d[0] = 1).unwrap();
        let snap = pager.ledger().snapshot();
        assert_eq!(snap.page_reads, 3); // 2 reads + 1 in the RMW
        assert_eq!(snap.page_writes, 1);
    }

    #[test]
    fn physical_mode_charges_misses_only() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.read(p, |_| ()).unwrap(); // miss
        pager.read(p, |_| ()).unwrap(); // hit
        pager.write(p, |d| d[0] = 7).unwrap(); // hit, dirtied
        let snap = pager.ledger().snapshot();
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.page_writes, 0); // not yet evicted
        pager.flush().unwrap();
        assert_eq!(pager.ledger().snapshot().page_writes, 1);
    }

    /// An operation boundary makes a write durable in every mode and
    /// charges nothing for it unless it drops a `Physical` pool's frames;
    /// a warm `Physical` pool still owes the write-back once, at flush,
    /// unless the boundary ran with charging suspended.
    #[test]
    fn end_operation_is_durable_and_charges_by_mode() {
        let cases = [
            (AccountingMode::Logical, false, 1, 1),
            (AccountingMode::Physical, true, 1, 1),
            (AccountingMode::Physical, false, 0, 1),
        ];
        for (mode, drop_frames, at_boundary, after_flush) in cases {
            let pager = small_pager(mode, 8);
            let f = pager.create_file();
            let p = pager.allocate_page(f).unwrap();
            pager.write(p, |d| d[0] = 5).unwrap();
            pager.end_operation(drop_frames).unwrap();
            let writes = || pager.ledger().snapshot().page_writes;
            assert_eq!(writes(), at_boundary, "{mode:?} {drop_frames}");
            pager.flush().unwrap();
            assert_eq!(writes(), after_flush, "{mode:?} {drop_frames}");
            pager.drop_frames();
            assert_eq!(
                pager.read(p, |d| d[0]).unwrap(),
                5,
                "{mode:?} {drop_frames}"
            );
        }
        // Suspended charging settles a warm pool's owed write-back.
        let pager = small_pager(AccountingMode::Physical, 8);
        let p = pager.allocate_page(pager.create_file()).unwrap();
        pager.write(p, |d| d[0] = 6).unwrap();
        pager.set_charging(false);
        pager.end_operation(false).unwrap();
        pager.set_charging(true);
        pager.flush().unwrap();
        assert_eq!(pager.ledger().snapshot().page_writes, 0);
    }

    #[test]
    fn physical_mode_eviction_writes_dirty_pages() {
        let pager = small_pager(AccountingMode::Physical, 2);
        let f = pager.create_file();
        let pids: Vec<_> = (0..4).map(|_| pager.allocate_page(f).unwrap()).collect();
        for &p in &pids {
            pager.write(p, |d| d[0] = 9).unwrap();
        }
        // Capacity 2 → at least 2 dirty evictions happened.
        let snap = pager.ledger().snapshot();
        assert_eq!(snap.page_reads, 4); // each first touch is a miss
        assert!(snap.page_writes >= 2, "{snap:?}");
        // Data survives eviction.
        for &p in &pids {
            let v = pager.read(p, |d| d[0]).unwrap();
            assert_eq!(v, 9);
        }
    }

    #[test]
    fn charging_can_be_suspended() {
        let pager = small_pager(AccountingMode::Logical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.set_charging(false);
        pager.write(p, |d| d[0] = 3).unwrap();
        pager.read(p, |_| ()).unwrap();
        assert_eq!(pager.ledger().snapshot().page_ios(), 0);
        pager.set_charging(true);
        pager.read(p, |_| ()).unwrap();
        assert_eq!(pager.ledger().snapshot().page_reads, 1);
    }

    #[test]
    fn data_roundtrip_through_buffer() {
        let pager = small_pager(AccountingMode::Logical, 4);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager
            .write(p, |d| d[..5].copy_from_slice(b"abcde"))
            .unwrap();
        let got = pager.read(p, |d| d[..5].to_vec()).unwrap();
        assert_eq!(got, b"abcde");
    }

    #[test]
    fn drop_file_discards_frames() {
        let pager = small_pager(AccountingMode::Logical, 4);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.write(p, |d| d[0] = 1).unwrap();
        pager.drop_file(f).unwrap();
        assert!(pager.read(p, |_| ()).is_err());
    }

    #[test]
    fn buffer_stats_track_hits_and_faults() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        assert_eq!(pager.buffer_stats(), (0, 0));
        pager.read(p, |_| ()).unwrap(); // fault
        pager.read(p, |_| ()).unwrap(); // hit
        pager.read(p, |_| ()).unwrap(); // hit
        assert_eq!(pager.buffer_stats(), (2, 1));
        assert!((pager.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        pager.clear_buffer().unwrap();
        pager.read(p, |_| ()).unwrap(); // fault again
        assert_eq!(pager.buffer_stats(), (2, 2));
    }

    #[test]
    fn pager_feeds_global_metrics() {
        let reg = procdb_obs::global();
        let reads0 = reg.counter("procdb_pager_reads_total", &[]).get();
        let writes0 = reg.counter("procdb_pager_writes_total", &[]).get();
        let flushes0 = reg.counter("procdb_pager_flushes_total", &[]).get();
        let pager = small_pager(AccountingMode::Logical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.write(p, |d| d[0] = 1).unwrap();
        pager.read(p, |_| ()).unwrap();
        pager.flush().unwrap();
        // Global counters are shared across parallel tests: assert growth,
        // not exact values.
        assert!(reg.counter("procdb_pager_reads_total", &[]).get() > reads0);
        assert!(reg.counter("procdb_pager_writes_total", &[]).get() > writes0);
        assert!(reg.counter("procdb_pager_flushes_total", &[]).get() > flushes0);
    }

    #[test]
    fn injected_read_failure_surfaces_as_io_error() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.install_faults(crate::fault::FaultPlan::new(3).fail_window(1, 2));
        assert!(matches!(
            pager.read(p, |_| ()),
            Err(crate::StorageError::Io(1))
        ));
        // The window passed; the pager is usable again.
        pager.read(p, |_| ()).unwrap();
    }

    #[test]
    fn uncharged_transfers_are_immune_by_default() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.install_faults(crate::fault::FaultPlan::new(3).fail_window(1, u64::MAX));
        pager.set_charging(false);
        pager.write(p, |d| d[0] = 5).unwrap();
        pager.flush().unwrap();
        pager.set_charging(true);
        assert!(pager.write(p, |d| d[0] = 6).is_err() || pager.flush().is_err());
    }

    #[test]
    fn faulted_eviction_leaves_pager_usable() {
        // Regression for the old `expect("victim exists")` panic path: an
        // injected failure during eviction write-back must surface as an
        // error, and the pager must keep serving afterwards.
        let pager = small_pager(AccountingMode::Physical, 2);
        let f = pager.create_file();
        let pids: Vec<_> = (0..4).map(|_| pager.allocate_page(f).unwrap()).collect();
        pager.write(pids[0], |d| d[0] = 1).unwrap();
        pager.write(pids[1], |d| d[0] = 2).unwrap();
        // Next write must evict a dirty victim; fail that write-back.
        pager.install_faults(crate::fault::FaultPlan::new(3).io_writes(1.0));
        let err = pager.write(pids[2], |d| d[0] = 3);
        assert!(matches!(err, Err(crate::StorageError::Io(_))), "{err:?}");
        pager.clear_faults();
        // No poisoned lock, no panic: everything still works.
        for &p in &pids {
            pager.write(p, |d| d[1] = 9).unwrap();
        }
        pager.flush().unwrap();
        assert_eq!(pager.read(pids[3], |d| d[1]).unwrap(), 9);
    }

    #[test]
    fn torn_write_leaves_partial_page_on_disk() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.write(p, |d| d.fill(0xAA)).unwrap();
        pager.flush().unwrap();
        pager.write(p, |d| d.fill(0xBB)).unwrap();
        pager.install_faults(crate::fault::FaultPlan::new(5).torn_writes(1.0));
        assert!(matches!(
            pager.flush(),
            Err(crate::StorageError::TornWrite(_))
        ));
        pager.clear_faults();
        // Simulate the crash: volatile frames are gone; disk shows the tear.
        pager.drop_frames();
        let bytes = pager.read(p, |d| d.to_vec()).unwrap();
        assert!(bytes.contains(&0xBB), "prefix of new bytes applied");
        assert!(bytes.contains(&0xAA), "suffix of old bytes survives");
    }

    #[test]
    fn kill_point_fails_all_transfers_until_recovery() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        let p = pager.allocate_page(f).unwrap();
        pager.write(p, |d| d[0] = 1).unwrap();
        pager.flush().unwrap();
        pager.clear_buffer().unwrap();
        let inj = pager.install_faults(crate::fault::FaultPlan::new(7).kill_at(1));
        assert!(matches!(
            pager.read(p, |_| ()),
            Err(crate::StorageError::Crashed)
        ));
        assert!(matches!(
            pager.read(p, |_| ()),
            Err(crate::StorageError::Crashed)
        ));
        // Recovery clears the latch (and the plan, in this test).
        inj.clear_crash();
        pager.clear_faults();
        assert_eq!(pager.read(p, |d| d[0]).unwrap(), 1);
    }

    #[test]
    fn pages_are_shared_and_copied_on_write() {
        let pager = small_pager(AccountingMode::Physical, 8);
        let f = pager.create_file();
        // Both fresh pages share the disk's one zeroed page.
        let p = pager.allocate_page(f).unwrap();
        let q = pager.allocate_page(f).unwrap();
        pager.write(p, |d| d[0] = 1).unwrap();
        pager.flush().unwrap();
        pager.drop_frames();
        // The faulted-in frame shares the disk's page, and so does this
        // handle: the write must copy the page, not edit their bytes.
        let before = pager.read(p, Page::clone).unwrap();
        pager.write(p, |d| d[0] = 2).unwrap();
        assert_eq!(
            before[0], 1,
            "a handle taken before a write keeps its bytes"
        );
        assert_eq!(pager.read(p, |d| d[0]).unwrap(), 2);
        // A dirty, unflushed write is gone after a crash.
        pager.drop_frames();
        assert_eq!(pager.read(p, |d| d[0]).unwrap(), 1);
        assert!(pager.read(q, |d| d.iter().all(|&b| b == 0)).unwrap());
    }

    #[test]
    fn page_count_tracks_allocation() {
        let pager = small_pager(AccountingMode::Logical, 4);
        let f = pager.create_file();
        assert_eq!(pager.page_count(f).unwrap(), 0);
        pager.allocate_page(f).unwrap();
        pager.allocate_page(f).unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 2);
    }
}
