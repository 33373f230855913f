//! The database-procedure engine: one API, four interchangeable
//! query-processing strategies.
//!
//! The engine owns the base catalog (`R1` B-tree clustered, `R2`/`R3`
//! hash files) and a set of registered procedures. Two operations drive
//! it, mirroring the paper's workload model:
//!
//! * [`Engine::access`] — read the full current value of one procedure
//!   (the paper's `q` operations);
//! * [`Engine::apply_update`] — modify `l` tuples of `R1` in place (the
//!   paper's `k` operations). The base-table mutation itself is
//!   *uncharged* (the paper's model prices only procedure-maintenance
//!   overhead, not the update transaction's own work); everything the
//!   chosen strategy does about it is charged.
//!
//! Every operation ends with its dirty pages durable, whatever the
//! accounting mode; between operations the engine also clears the buffer
//! pool (when the pager uses physical accounting), reproducing the
//! model's distinct-pages-per-operation cost semantics.

use std::sync::Arc;
use std::time::Instant;

use procdb_avm::{Delta, MaterializedView, ViewDef};
use procdb_ilock::{ILockManager, ProcId, TableRef, ValidityTable};
use procdb_query::{
    execute_encoded, Catalog, EncodedRows, Organization, RowBatch, Schema, Table, Tuple,
};
use procdb_rete::{NodeId, Rete, Token};
use procdb_storage::{CostConstants, CostLedger, HeapFile, Pager, Result};

use crate::procedure::{ProcedureDef, StrategyKind};

/// Per-engine metric handles, labeled by strategy. Registered once at
/// construction; every increment afterwards is a relaxed atomic op.
struct EngineMetrics {
    accesses: procdb_obs::Counter,
    updates: procdb_obs::Counter,
    cache_refills: procdb_obs::Counter,
    access_us: procdb_obs::Histogram,
    update_us: procdb_obs::Histogram,
    predicted_ms: procdb_obs::FloatCounter,
    observed_ms: procdb_obs::FloatCounter,
    rel_error: procdb_obs::Histogram,
    crashes: procdb_obs::Counter,
    recovery_passes: procdb_obs::Counter,
    recovery_replayed: procdb_obs::Counter,
    recovery_conservative: procdb_obs::Counter,
    recovery_rebuilds: procdb_obs::Counter,
}

impl EngineMetrics {
    fn new(kind: StrategyKind, shard: Option<u32>) -> EngineMetrics {
        let reg = procdb_obs::global();
        let shard_label = shard.map(|s| s.to_string());
        let mut label_vec: Vec<(&str, &str)> = vec![("strategy", kind.metric_label())];
        if let Some(s) = shard_label.as_deref() {
            label_vec.push(("shard", s));
        }
        let labels: &[(&str, &str)] = &label_vec;
        EngineMetrics {
            accesses: reg.counter("procdb_engine_accesses_total", labels),
            updates: reg.counter("procdb_engine_updates_total", labels),
            cache_refills: reg.counter("procdb_engine_cache_refills_total", labels),
            access_us: reg.histogram("procdb_engine_access_us", labels),
            update_us: reg.histogram("procdb_engine_update_us", labels),
            predicted_ms: reg.float_counter("procdb_cost_model_predicted_ms_total", labels),
            observed_ms: reg.float_counter("procdb_cost_model_observed_ms_total", labels),
            rel_error: reg.histogram("procdb_cost_model_abs_rel_error", labels),
            crashes: reg.counter("procdb_recovery_crashes_total", labels),
            recovery_passes: reg.counter("procdb_recovery_passes_total", labels),
            recovery_replayed: reg.counter("procdb_recovery_wal_replayed_records_total", labels),
            recovery_conservative: reg
                .counter("procdb_recovery_conservative_invalidations_total", labels),
            recovery_rebuilds: reg.counter("procdb_recovery_rebuilds_total", labels),
        }
    }
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Name of the updatable base relation (the paper's `R1`).
    pub r1: String,
    /// Index of `R1`'s clustering/selection key field.
    pub r1_key_field: usize,
    /// Field of `R1` that `P2` procedures join on (`a`). `P1` α-memories
    /// are organized on this field so they can be shared as `P2` left
    /// inputs.
    pub rvm_base_probe_field: usize,
    /// Per-relation update-frequency statistics for the static Rete
    /// optimizer (§8: frequencies drive the network shape). `None` means
    /// the paper's default — only `R1` is updated — which always selects
    /// the right-deep (precomputed-β) shape.
    pub rvm_update_frequencies: Option<Vec<(String, f64)>>,
    /// Under physical accounting, drop all buffer frames between
    /// operations (default `true` — the analytical model's
    /// distinct-pages-per-operation semantics). Set `false` to study how
    /// a warm cross-operation buffer pool shifts the tradeoff (ablation
    /// `A3`).
    pub clear_buffer_between_ops: bool,
    /// Shard this engine serves inside a partitioned (`procdb-shard`)
    /// deployment. `None` for a standalone engine. Only affects metric
    /// labels: every per-engine series additionally carries
    /// `shard="<id>"` so a scatter-gather deployment stays separable in
    /// the exposition.
    pub shard: Option<u32>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            r1: "R1".to_string(),
            r1_key_field: 0,
            rvm_base_probe_field: 1,
            rvm_update_frequencies: None,
            clear_buffer_between_ops: true,
            shard: None,
        }
    }
}

struct CacheEntry {
    heap: HeapFile,
    /// Static selection bounds on `R1` (re-locked on every recompute).
    bounds: (i64, i64),
}

enum StrategyState {
    Recompute,
    CacheInval {
        caches: Vec<CacheEntry>,
        validity: ValidityTable,
        locks: ILockManager,
    },
    Avm {
        views: Vec<MaterializedView>,
        /// Per-procedure selection bounds on `R1` (the i-lock intervals).
        bounds: Vec<(i64, i64)>,
        /// Per-view needs-rebuild flags: set by a crash (the in-RAM rid
        /// indexes would not survive one) or by a failed maintenance
        /// pass; cleared by recompute-on-first-access.
        dirty: Vec<bool>,
    },
    Rvm {
        rete: Rete,
        outputs: Vec<NodeId>,
        /// Whole-network needs-rebuild flag (memories are shared between
        /// views, so rebuild granularity is the network).
        dirty: bool,
    },
}

/// What an access measured before it ran (`Engine::begin_access`).
struct AccessProbe {
    predicted: f64,
    before: procdb_storage::CostSnapshot,
    start: Instant,
    span: procdb_obs::SpanGuard<'static>,
}

/// What one [`Engine::recover`] pass did (and what it left deferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Crash epoch this recovery closed (1 = first crash).
    pub crash_epoch: u64,
    /// Validity-WAL records replayed over the checkpoint (CI only —
    /// Always Recompute replays nothing, the paper's §3 ranking).
    pub wal_records_replayed: usize,
    /// Validity-WAL bytes replayed.
    pub wal_bytes_replayed: usize,
    /// Procedures conservatively invalidated because their validity
    /// records sat in the unforced window at crash time.
    pub conservative_invalidations: usize,
    /// Derived-state rebuilds deferred to first access (UC strategies).
    pub rebuilds_pending: usize,
}

/// The typed result of one [`Engine::recover`] call.
///
/// Recovery is idempotent at the call level: a `recover` against an
/// engine that is not crashed (never crashed, or already recovered)
/// does **no** work and reports [`RecoveryOutcome::NotCrashed`] instead
/// of silently re-running WAL replay and re-counting recovery metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The engine was crashed; this pass recovered it.
    Recovered(RecoveryReport),
    /// The engine was not crashed; nothing was done.
    NotCrashed,
}

impl RecoveryOutcome {
    /// The report, if this pass actually recovered.
    pub fn report(&self) -> Option<&RecoveryReport> {
        match self {
            RecoveryOutcome::Recovered(r) => Some(r),
            RecoveryOutcome::NotCrashed => None,
        }
    }

    /// Consume into the report, if this pass actually recovered.
    pub fn into_report(self) -> Option<RecoveryReport> {
        match self {
            RecoveryOutcome::Recovered(r) => Some(r),
            RecoveryOutcome::NotCrashed => None,
        }
    }

    /// Did this pass perform recovery work?
    pub fn is_recovered(&self) -> bool {
        matches!(self, RecoveryOutcome::Recovered(_))
    }
}

/// What an engine keeps of its strategy's derived state.
///
/// A primary serves accesses, so it builds its caches, views or Rete
/// network up front. A follower only has to be able to take over: it
/// holds the base relations and creates its derived state empty and
/// marked for rebuild, the state [`Engine::crash`] leaves. Applying a
/// delta then costs it the base mutation alone, since maintenance skips
/// dirty state, and a promoted follower pays its strategy's §3 recovery
/// on first access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Derived state built and maintained.
    Primary,
    /// Base relations only; derived state pending rebuild.
    Follower,
}

/// The database-procedure engine.
pub struct Engine {
    pager: Arc<Pager>,
    catalog: Catalog,
    procs: Vec<ProcedureDef>,
    /// Each procedure's output schema, computed once at build; every
    /// answer batch shares it.
    schemas: Vec<Arc<Schema>>,
    opts: EngineOptions,
    kind: StrategyKind,
    state: StrategyState,
    metrics: EngineMetrics,
    /// Crashes simulated so far.
    crash_epoch: u64,
    /// Crashed and not yet recovered ([`Engine::crash`] sets it,
    /// [`Engine::recover`] clears it).
    crashed: bool,
    /// CI procedures whose validity records were unforced at crash time
    /// (captured by [`Engine::crash`], consumed by [`Engine::recover`]).
    pending_suspect: Vec<ProcId>,
    last_recovery: Option<RecoveryReport>,
    /// Replication log-sequence number of the last delta this engine
    /// applied (0 = none). Maintained by the replication layer via
    /// [`Engine::note_applied_lsn`]; a rejoining replica replays the
    /// shard's delta log from here.
    applied_lsn: u64,
}

/// Checkpoint the CI validity WAL after this many forced bytes (32
/// records — small enough that chaos tests cross boundaries, large
/// enough that checkpoints are not the common case).
const WAL_CHECKPOINT_INTERVAL: usize = 160;

// The server shares one `Engine` across connection threads behind a
// read-write lock; keep it `Send + Sync` (no `Rc`/`RefCell`/raw
// pointers anywhere in the strategy state).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

/// `R1`'s i-lock table reference.
const R1_TABLE: TableRef = TableRef(0);

impl Engine {
    /// Build an engine over a loaded catalog. Strategy-specific structures
    /// (caches, materialized views, the Rete network) are created and
    /// initialized **uncharged** — they are setup, not steady-state work.
    pub fn new(
        pager: Arc<Pager>,
        catalog: Catalog,
        procs: Vec<ProcedureDef>,
        kind: StrategyKind,
        opts: EngineOptions,
    ) -> Result<Engine> {
        Engine::with_role(pager, catalog, procs, kind, opts, Role::Primary)
    }

    /// [`Engine::new`] in `role`: a [`Role::Follower`] creates its
    /// strategy's structures empty and pending rebuild instead of
    /// filling them.
    pub fn with_role(
        pager: Arc<Pager>,
        catalog: Catalog,
        procs: Vec<ProcedureDef>,
        kind: StrategyKind,
        opts: EngineOptions,
        role: Role,
    ) -> Result<Engine> {
        let metrics = EngineMetrics::new(kind, opts.shard);
        let schemas = procs
            .iter()
            .map(|p| Arc::new(p.view.output_schema(&catalog)))
            .collect();
        let mut engine = Engine {
            pager,
            catalog,
            procs,
            schemas,
            opts,
            kind,
            state: StrategyState::Recompute,
            metrics,
            crash_epoch: 0,
            crashed: false,
            pending_suspect: Vec::new(),
            last_recovery: None,
            applied_lsn: 0,
        };
        let _uncharged = engine.pager.uncharged();
        engine.state = engine.build_state(role)?;
        // Flush setup writes while still uncharged.
        engine.pager.clear_buffer()?;
        Ok(engine)
    }

    fn selection_bounds(&self, def: &ViewDef) -> (i64, i64) {
        def.selection
            .int_bounds(self.opts.r1_key_field)
            .unwrap_or((i64::MIN, i64::MAX))
    }

    /// The strategy's structures, filled from the base relations for a
    /// primary and left empty and pending rebuild for a follower.
    fn build_state(&mut self, role: Role) -> Result<StrategyState> {
        let fill = role == Role::Primary;
        match self.kind {
            StrategyKind::AlwaysRecompute => Ok(StrategyState::Recompute),
            StrategyKind::CacheInvalidate => {
                let mut caches = Vec::with_capacity(self.procs.len());
                for p in &self.procs {
                    caches.push(CacheEntry {
                        heap: HeapFile::create(self.pager.clone()),
                        bounds: self.selection_bounds(&p.view),
                    });
                }
                Ok(StrategyState::CacheInval {
                    caches,
                    validity: ValidityTable::new_recoverable(
                        self.procs.len(),
                        self.pager.ledger().clone(),
                        WAL_CHECKPOINT_INTERVAL,
                    ),
                    locks: ILockManager::new(),
                })
            }
            StrategyKind::UpdateCacheAvm => {
                let mut views = Vec::with_capacity(self.procs.len());
                let mut bounds = Vec::with_capacity(self.procs.len());
                for p in &self.procs {
                    let mut v =
                        MaterializedView::new(self.pager.clone(), p.view.clone(), &self.catalog);
                    if fill {
                        v.recompute_full(&self.catalog)?;
                    }
                    bounds.push(self.selection_bounds(&p.view));
                    views.push(v);
                }
                let dirty = vec![!fill; views.len()];
                Ok(StrategyState::Avm {
                    views,
                    bounds,
                    dirty,
                })
            }
            StrategyKind::UpdateCacheRvm => {
                // Statically optimize each view's network shape for the
                // expected update frequencies (crate::rete_planner).
                let freqs: crate::rete_planner::UpdateFrequencies =
                    match &self.opts.rvm_update_frequencies {
                        Some(pairs) => pairs.iter().cloned().collect(),
                        None => std::iter::once((self.opts.r1.clone(), 1.0)).collect(),
                    };
                let mut rete = Rete::new(self.pager.clone());
                let mut outputs = Vec::with_capacity(self.procs.len());
                for (p, schema) in self.procs.iter().zip(&self.schemas) {
                    let (spec, _) = crate::rete_planner::choose_spec(
                        &p.view,
                        &self.catalog,
                        &freqs,
                        self.opts.rvm_base_probe_field,
                        self.opts.r1_key_field,
                    );
                    let out = rete.add_view(&spec);
                    debug_assert_eq!(rete.memory(out).schema(), &**schema);
                    outputs.push(out);
                }
                if fill {
                    rete.initialize(&self.catalog)?;
                }
                Ok(StrategyState::Rvm {
                    rete,
                    outputs,
                    dirty: !fill,
                })
            }
        }
    }

    /// Become a [`Role::Follower`]: drop the derived state, freeing its
    /// pages, and put empty structures pending rebuild in its place.
    /// Uncharged. Every way a replica turns follower again (a demoted
    /// primary, a resync, a rejoin) goes through here.
    pub fn shed_derived_state(&mut self) -> Result<()> {
        let _uncharged = self.pager.uncharged();
        let fresh = self.build_state(Role::Follower)?;
        match std::mem::replace(&mut self.state, fresh) {
            StrategyState::Recompute => {}
            StrategyState::CacheInval { caches, .. } => {
                for entry in caches {
                    entry.heap.destroy()?;
                }
            }
            StrategyState::Avm { views, .. } => {
                for v in views {
                    v.destroy()?;
                }
            }
            StrategyState::Rvm { rete, .. } => rete.destroy()?,
        }
        self.end_operation()
    }

    /// The strategy in force.
    pub fn strategy(&self) -> StrategyKind {
        self.kind
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The registered procedures.
    pub fn procedures(&self) -> &[ProcedureDef] {
        &self.procs
    }

    /// The base catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared cost ledger.
    pub fn ledger(&self) -> &Arc<CostLedger> {
        self.pager.ledger()
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// An operation boundary: every dirty frame becomes durable, so a
    /// [`Engine::crash`] keeps every committed write and the CI validity
    /// log never claims a cache whose pages are lost. The accounting mode
    /// decides only what the write-back charges ([`Pager::end_operation`]);
    /// under `Physical` accounting the frames are also dropped between
    /// operations unless a warm buffer is being studied. An uncharged base
    /// mutation ends here too, before its charged maintenance starts: the
    /// model prices only the strategy's work, not the transaction's own.
    fn end_operation(&self) -> Result<()> {
        self.pager.end_operation(self.opts.clear_buffer_between_ops)
    }

    /// Commit buffered validity-WAL records (CI only; no-op otherwise).
    /// Called *after* [`end_operation`] so the log never claims a cache
    /// state whose pages are not yet durable.
    ///
    /// [`end_operation`]: Engine::end_operation
    fn force_validity(&mut self) {
        if let StrategyState::CacheInval { validity, .. } = &mut self.state {
            validity.force();
        }
    }

    /// Simulate a whole-process crash: every buffered page frame is
    /// dropped un-flushed (true volatility — the disk keeps only what
    /// was actually written), the CI validity table loses its bitmap and
    /// unforced WAL buffer, and UC derived state is marked for rebuild
    /// (its in-RAM rid indexes would not survive a real crash). I-locks
    /// are *persistent* locks in the paper's sense \[SSH86\] and survive.
    /// A fault injector's kill latch, if set, stays set until
    /// [`Engine::recover`].
    pub fn crash(&mut self) {
        self.crash_epoch += 1;
        self.crashed = true;
        self.metrics.crashes.inc();
        self.pager.drop_frames();
        match &mut self.state {
            StrategyState::Recompute => {}
            // A cache's free-space map may now be ahead of the disk (lost
            // writes); `HeapFile::rewrite` sees the pager's crash and
            // distrusts it, as every fill of a view or memory does anyway.
            StrategyState::CacheInval { validity, .. } => {
                for p in validity.crash() {
                    if !self.pending_suspect.contains(&p) {
                        self.pending_suspect.push(p);
                    }
                }
            }
            StrategyState::Avm { dirty, .. } => {
                for d in dirty.iter_mut() {
                    *d = true;
                }
            }
            StrategyState::Rvm { dirty, .. } => *dirty = true,
        }
    }

    /// Recover after [`Engine::crash`], reproducing the paper's §3
    /// reliability ranking as an executable property:
    ///
    /// * **Always Recompute** — nothing to do (zero WAL replay);
    /// * **Cache & Invalidate** — replay the validity WAL over its last
    ///   checkpoint, then conservatively invalidate every procedure whose
    ///   records sat in the unforced window (extra invalidation is always
    ///   safe; trusting a possibly-stale cache is not);
    /// * **Update Cache (AVM/RVM)** — derived state is rebuilt by
    ///   recompute-on-first-access; this pass only reports the debt.
    ///
    /// Also clears the fault injector's crash latch so transfers flow
    /// again. Idempotent: against an engine that is not crashed (never
    /// crashed, or already recovered) this does **no** work and returns
    /// [`RecoveryOutcome::NotCrashed`].
    pub fn recover(&mut self) -> RecoveryOutcome {
        if !self.is_crashed() {
            return RecoveryOutcome::NotCrashed;
        }
        if let Some(inj) = self.pager.fault_injector() {
            inj.clear_crash();
        }
        let mut report = RecoveryReport {
            crash_epoch: self.crash_epoch,
            ..RecoveryReport::default()
        };
        match &mut self.state {
            StrategyState::Recompute => {}
            StrategyState::CacheInval { validity, .. } => {
                let rec = validity.recover(&self.pending_suspect);
                self.pending_suspect.clear();
                report.wal_records_replayed = rec.replayed_records;
                report.wal_bytes_replayed = rec.replayed_bytes;
                report.conservative_invalidations = rec.conservative;
            }
            StrategyState::Avm { dirty, .. } => {
                report.rebuilds_pending = dirty.iter().filter(|&&d| d).count();
            }
            StrategyState::Rvm { dirty, .. } => {
                report.rebuilds_pending = usize::from(*dirty);
            }
        }
        self.metrics.recovery_passes.inc();
        self.metrics
            .recovery_replayed
            .add(report.wal_records_replayed as u64);
        self.metrics
            .recovery_conservative
            .add(report.conservative_invalidations as u64);
        self.last_recovery = Some(report);
        self.crashed = false;
        RecoveryOutcome::Recovered(report)
    }

    /// Crashes simulated so far (0 = never crashed).
    pub fn crash_epoch(&self) -> u64 {
        self.crash_epoch
    }

    /// Is this engine currently crashed (a [`Engine::crash`] without a
    /// matching [`Engine::recover`], or a fault injector whose kill
    /// latch has fired and not been cleared)?
    pub fn is_crashed(&self) -> bool {
        self.crashed || self.pager.fault_injector().is_some_and(|inj| inj.crashed())
    }

    /// The most recent [`Engine::recover`] report, if any.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery
    }

    /// Validity-WAL sizes `(log_bytes, replay_tail_bytes)` (CI only).
    pub fn wal_stats(&self) -> Option<(usize, usize)> {
        match &self.state {
            StrategyState::CacheInval { validity, .. } => {
                Some((validity.wal_log_len(), validity.wal_replay_len()))
            }
            _ => None,
        }
    }

    /// Derived-state rebuilds still deferred to first access.
    pub fn rebuilds_pending(&self) -> usize {
        match &self.state {
            StrategyState::Avm { dirty, .. } => dirty.iter().filter(|&&d| d).count(),
            StrategyState::Rvm { dirty, .. } => usize::from(*dirty),
            _ => 0,
        }
    }

    /// Rebuild procedure `i`'s derived state if a crash or failed
    /// maintenance pass marked it dirty (UC strategies). Charged: the
    /// rebuild is real recovery work, and pricing it is the point.
    fn rebuild_if_dirty(&mut self, i: usize) -> Result<()> {
        let dirty = match &mut self.state {
            StrategyState::Avm { dirty, .. } => &mut dirty[i],
            StrategyState::Rvm { dirty, .. } => dirty,
            _ => return Ok(()),
        };
        if !*dirty {
            return Ok(());
        }
        let _sp = procdb_obs::span!(procdb_obs::global(), "rebuild", proc = i);
        match &mut self.state {
            StrategyState::Avm { views, dirty, .. } => {
                views[i].recompute_full(&self.catalog)?;
                dirty[i] = false;
            }
            StrategyState::Rvm { rete, dirty, .. } => {
                rete.initialize(&self.catalog)?;
                *dirty = false;
            }
            _ => unreachable!("only UC strategies hold derived state"),
        }
        self.metrics.recovery_rebuilds.inc();
        Ok(())
    }

    /// Warm every cache so the first measured accesses are steady-state
    /// (uncharged; Cache-and-Invalidate caches start valid, with i-locks
    /// set). No-op for the other strategies, whose setup already warms.
    pub fn warm_up(&mut self) -> Result<()> {
        {
            let _uncharged = self.pager.uncharged();
            if let StrategyState::CacheInval { .. } = self.state {
                for i in 0..self.procs.len() {
                    self.refill_cache(i)?;
                }
            }
            // Flush warm-up writes while still uncharged, then commit the
            // validity records those (now durable) pages justify.
            self.pager.clear_buffer()?;
        }
        self.force_validity();
        Ok(())
    }

    /// Recompute procedure `i`'s value, rewrite its cache, reset its
    /// i-locks, and mark it valid. Returns the fresh rows.
    fn refill_cache(&mut self, i: usize) -> Result<EncodedRows> {
        self.metrics.cache_refills.inc();
        let _sp = procdb_obs::span!(procdb_obs::global(), "recompute", proc = i);
        let plan = self.procs[i].plan();
        let rows = execute_encoded(&plan, &self.catalog)?;
        let StrategyState::CacheInval {
            caches,
            validity,
            locks,
        } = &mut self.state
        else {
            panic!("refill_cache outside CacheInval");
        };
        let entry = &mut caches[i];
        entry.heap.rewrite(rows.iter())?;
        let pid = ProcId(i as u32);
        locks.drop_locks(pid);
        locks.set_range_lock(R1_TABLE, entry.bounds.0, entry.bounds.1, pid);
        validity.mark_valid(pid);
        Ok(rows)
    }

    /// Procedure `i`'s current rows as the strategy holds them, read
    /// through `&self`: recomputed (Always Recompute), or scanned from a
    /// valid cache, an AVM view or a Rete output memory. `Ok(None)` when
    /// the read must first write — an invalid cache entry's refill, a
    /// dirty view's or network's rebuild.
    fn read_stored(&self, i: usize) -> Result<Option<EncodedRows>> {
        let width = self.schemas[i].tuple_width();
        Ok(Some(match &self.state {
            StrategyState::Recompute => execute_encoded(&self.procs[i].plan(), &self.catalog)?,
            StrategyState::CacheInval {
                caches, validity, ..
            } => {
                if !validity.is_valid(ProcId(i as u32)) {
                    return Ok(None);
                }
                EncodedRows::read_heap(&caches[i].heap, width)?
            }
            StrategyState::Avm { views, dirty, .. } => {
                if dirty[i] {
                    return Ok(None);
                }
                views[i].read_encoded()?
            }
            StrategyState::Rvm {
                rete,
                outputs,
                dirty,
            } => {
                if *dirty {
                    return Ok(None);
                }
                rete.read_view(outputs[i])?
            }
        }))
    }

    /// Read the full current value of procedure `i` (one of the paper's
    /// `q` operations) as one batch of encoded rows. All work is charged
    /// to the ledger; no row is decoded.
    ///
    /// Every access also feeds the observability layer: predicted cost
    /// (from [`Engine::estimate_access_ms`], priced at the paper's default
    /// constants) is recorded next to the observed ledger delta, so cost-
    /// model error is queryable (`procdb_cost_model_abs_rel_error`).
    pub fn access(&mut self, i: usize) -> Result<RowBatch> {
        let probe = self.begin_access(i);
        self.rebuild_if_dirty(i)?;
        let rows = match self.read_stored(i)? {
            Some(rows) => rows,
            None => self.refill_cache(i)?,
        };
        self.end_operation()?;
        // A refill's mark_valid is only committed once its cache pages are
        // durable (the flush above) — WAL order for the validity log.
        self.force_validity();
        Ok(self.finish_access(i, probe, rows))
    }

    /// Shared-path variant of [`Engine::access`]: serve procedure `i`
    /// through `&self` when the strategy's read path needs no engine
    /// mutation — Always Recompute, AVM, RVM, and a valid Cache &
    /// Invalidate entry. Returns `Ok(None)` for an invalid cache entry or
    /// dirty derived state, whose repair must mutate; callers escalate to
    /// exclusive access and call [`Engine::access`]. Work is charged
    /// identically to `access` (the pager and ledger are internally
    /// synchronized).
    pub fn access_shared(&self, i: usize) -> Result<Option<RowBatch>> {
        let probe = self.begin_access(i);
        let Some(rows) = self.read_stored(i)? else {
            return Ok(None);
        };
        self.end_operation()?;
        Ok(Some(self.finish_access(i, probe, rows)))
    }

    fn begin_access(&self, i: usize) -> AccessProbe {
        assert!(i < self.procs.len(), "procedure index out of range");
        let c = CostConstants::default();
        AccessProbe {
            predicted: self.estimate_access_ms(i, &c),
            before: self.pager.ledger().snapshot(),
            start: Instant::now(),
            span: procdb_obs::span!(procdb_obs::global(), "access", proc = i),
        }
    }

    /// Price the access `probe` opened, record it into the metric
    /// registry and its span, and wrap the rows in procedure `i`'s batch.
    ///
    /// Under a concurrent server the ledger is shared, so the observed
    /// delta may include another thread's overlapping work; the error
    /// series is exact single-threaded and an upper bound under load.
    fn finish_access(&self, i: usize, probe: AccessProbe, rows: EncodedRows) -> RowBatch {
        let AccessProbe {
            predicted,
            before,
            start,
            mut span,
        } = probe;
        let observed = self
            .pager
            .ledger()
            .snapshot()
            .since(&before)
            .priced(&CostConstants::default());
        let m = &self.metrics;
        m.accesses.inc();
        m.access_us.observe(start.elapsed().as_secs_f64() * 1e6);
        m.predicted_ms.add(predicted);
        m.observed_ms.add(observed);
        if observed > 0.0 {
            m.rel_error.observe((predicted - observed).abs() / observed);
        }
        if span.is_recording() {
            span.field("rows", rows.len() as f64);
            span.field("predicted_ms", predicted);
            span.field("observed_ms", observed);
        }
        RowBatch::new(Arc::clone(&self.schemas[i]), rows)
    }

    /// Apply one update transaction: modify tuples of `R1` in place. Each
    /// `(victim_key, new_key)` pair rewrites the selection key of one
    /// tuple currently holding `victim_key` (skipped if none exists).
    /// Returns the number of tuples actually modified.
    ///
    /// The base mutation is uncharged; strategy maintenance is charged.
    pub fn apply_update(&mut self, modifications: &[(i64, i64)]) -> Result<usize> {
        let key_field = self.opts.r1_key_field;
        self.mutate_r1(|r1, delta| {
            for &(victim, new_key) in modifications {
                let Some(old) = r1.delete_where(victim, |_| true)? else {
                    continue;
                };
                let mut new = old.clone();
                new[key_field] = procdb_query::Value::Int(new_key);
                r1.insert(&new)?;
                delta.deleted.push(old);
                delta.inserted.push(new);
            }
            Ok(())
        })
    }

    /// Apply one insert transaction: add new tuples to `R1` (the paper's
    /// §2 example — Susan joining EMP — is exactly this). Maintenance is
    /// charged like any update; tokens carry only `+` tags.
    pub fn apply_insert(&mut self, rows: &[Tuple]) -> Result<usize> {
        self.mutate_r1(|r1, delta| {
            for row in rows {
                // Canonicalize (pad byte fields) so the maintenance delta
                // matches the stored tuple form exactly.
                let row = r1.schema().normalize(row);
                r1.insert(&row)?;
                delta.inserted.push(row);
            }
            Ok(())
        })
    }

    /// Apply one delete transaction: remove (up to) one `R1` tuple per
    /// listed key. Tokens carry only `−` tags.
    pub fn apply_delete(&mut self, keys: &[i64]) -> Result<usize> {
        self.mutate_r1(|r1, delta| {
            for &k in keys {
                if let Some(old) = r1.delete_where(k, |_| true)? {
                    delta.deleted.push(old);
                }
            }
            Ok(())
        })
    }

    /// [`Engine::apply_delete`], returning the removed tuples themselves.
    /// A partitioned router uses this for a cross-shard re-key: delete on
    /// the shard that owns the victim key, rewrite the key, and re-insert
    /// on the shard that owns the new one. Maintenance is charged on this
    /// engine exactly as for `apply_delete`.
    ///
    /// The taken rows are returned **even when maintenance fails**: the
    /// base deletion is uncharged and durable by the time charged
    /// maintenance runs, so on `Err` the tuples are already gone from
    /// this engine — a router that dropped them here would lose the row
    /// (the destination insert of a cross-shard move must still happen).
    /// The maintenance outcome rides alongside in the second slot.
    pub fn apply_delete_take(&mut self, keys: &[i64]) -> (Vec<Tuple>, Result<usize>) {
        let mut taken: Vec<Tuple> = Vec::new();
        let res = self.mutate_r1(|r1, delta| {
            for &k in keys {
                if let Some(old) = r1.delete_where(k, |_| true)? {
                    taken.push(old.clone());
                    delta.deleted.push(old);
                }
            }
            Ok(())
        });
        (taken, res)
    }

    /// Shared transaction skeleton: run `mutate` against `R1` uncharged,
    /// then perform the strategy's (charged) maintenance for the delta it
    /// produced. Returns the number of tuple versions the delta carries
    /// on its larger side.
    fn mutate_r1(
        &mut self,
        mutate: impl FnOnce(&mut procdb_query::Table, &mut Delta) -> Result<()>,
    ) -> Result<usize> {
        let c = CostConstants::default();
        let before = self.pager.ledger().snapshot();
        let start = Instant::now();
        let mut sp = procdb_obs::span!(procdb_obs::global(), "update");
        // 1. Mutate the base relation (uncharged).
        let key_field = self.opts.r1_key_field;
        let mut delta = Delta::new();
        {
            let _uncharged = self.pager.uncharged();
            let r1 = self
                .catalog
                .get_mut(&self.opts.r1)
                .unwrap_or_else(|| panic!("unknown base relation"));
            mutate(r1, &mut delta)?;
            self.end_operation()?;
        }
        let modified = delta.inserted.len().max(delta.deleted.len());

        // 2. Strategy maintenance (charged).
        {
            let _maint =
                procdb_obs::span!(procdb_obs::global(), "maintain", tuples = modified as f64);
            match &mut self.state {
                StrategyState::Recompute => {}
                StrategyState::CacheInval {
                    validity, locks, ..
                } => {
                    let writes = delta
                        .deleted
                        .iter()
                        .chain(&delta.inserted)
                        .map(|t| (R1_TABLE, t[key_field].as_int()));
                    for pid in locks.conflicting_any(writes) {
                        validity.invalidate(pid);
                    }
                }
                StrategyState::Avm {
                    views,
                    bounds,
                    dirty,
                } => {
                    for (i, (v, &(lo, hi))) in views.iter_mut().zip(bounds.iter()).enumerate() {
                        if dirty[i] {
                            continue; // stale anyway; the rebuild recomputes from base
                        }
                        let filtered = delta.filtered(|t| {
                            let k = t[key_field].as_int();
                            k >= lo && k <= hi
                        });
                        if !filtered.is_empty() {
                            if let Err(e) = v.apply_delta(&filtered, &self.catalog) {
                                // Partial maintenance: the view can no
                                // longer be trusted — rebuild before serving.
                                dirty[i] = true;
                                return Err(e);
                            }
                        }
                    }
                }
                StrategyState::Rvm { rete, dirty, .. } => {
                    if !*dirty {
                        let mut submit_all = || -> Result<()> {
                            for old in &delta.deleted {
                                rete.submit(&self.opts.r1, Token::minus(old.clone()))?;
                            }
                            for new in &delta.inserted {
                                rete.submit(&self.opts.r1, Token::plus(new.clone()))?;
                            }
                            Ok(())
                        };
                        if let Err(e) = submit_all() {
                            *dirty = true;
                            return Err(e);
                        }
                    }
                }
            }
        }
        self.end_operation()?;
        // Commit this transaction's invalidation records (CI): the base
        // mutation is durable (flushed uncharged above) and maintenance
        // succeeded, so the log may now reflect it.
        self.force_validity();
        self.record_update(modified, before, start, &c, &mut sp);
        Ok(modified)
    }

    /// Record one completed update transaction (metrics + span fields).
    fn record_update(
        &self,
        tuples: usize,
        before: procdb_storage::CostSnapshot,
        start: Instant,
        c: &CostConstants,
        sp: &mut procdb_obs::SpanGuard<'_>,
    ) {
        let m = &self.metrics;
        m.updates.inc();
        m.update_us.observe(start.elapsed().as_secs_f64() * 1e6);
        if sp.is_recording() {
            let observed = self.pager.ledger().snapshot().since(&before).priced(c);
            sp.field("tuples", tuples as f64);
            sp.field("observed_ms", observed);
        }
    }

    /// Apply one update transaction to an **inner** relation (`R2`/`R3`):
    /// each `(victim_key, new_key)` rewrites the hash key of one tuple.
    ///
    /// The paper's models only update `R1` (§8 flags multi-relation update
    /// frequencies as future work); this generalization exercises the
    /// machinery anyway: Rete handles it via right-side activation, AVM
    /// via [`MaterializedView::apply_inner_delta`], and Cache&Invalidate
    /// falls back to conservative invalidation of every procedure that
    /// joins the relation (its i-locks on probe keys are not tracked, so
    /// any write may conflict).
    pub fn apply_update_to(
        &mut self,
        relation: &str,
        modifications: &[(i64, i64)],
    ) -> Result<usize> {
        if relation == self.opts.r1 {
            return self.apply_update(modifications);
        }
        let c = CostConstants::default();
        let before = self.pager.ledger().snapshot();
        let start = Instant::now();
        let mut sp = procdb_obs::span!(procdb_obs::global(), "update");
        // 1. Base mutation, uncharged.
        let mut delta = Delta::new();
        {
            let _uncharged = self.pager.uncharged();
            let table = self
                .catalog
                .get_mut(relation)
                .unwrap_or_else(|| panic!("unknown relation {relation}"));
            let Organization::Hash { key_field } = table.organization() else {
                panic!("apply_update_to expects a hash-organized inner relation");
            };
            for &(victim, new_key) in modifications {
                let Some(old) = table.delete_where(victim, |_| true)? else {
                    continue;
                };
                let mut new = old.clone();
                new[key_field] = procdb_query::Value::Int(new_key);
                table.insert(&new)?;
                delta.deleted.push(old);
                delta.inserted.push(new);
            }
            self.end_operation()?;
        }
        let modified = delta.inserted.len();

        // 2. Strategy maintenance, charged.
        {
            let _maint =
                procdb_obs::span!(procdb_obs::global(), "maintain", tuples = modified as f64);
            match &mut self.state {
                StrategyState::Recompute => {}
                StrategyState::CacheInval { validity, .. } => {
                    for (i, p) in self.procs.iter().enumerate() {
                        if p.view.joins.iter().any(|j| j.inner == relation) && modified > 0 {
                            validity.invalidate(ProcId(i as u32));
                        }
                    }
                }
                StrategyState::Avm { views, dirty, .. } => {
                    for (i, v) in views.iter_mut().enumerate() {
                        if dirty[i] {
                            continue; // stale anyway; the rebuild recomputes from base
                        }
                        let steps = v.steps_on(relation);
                        assert!(
                            steps.len() <= 1,
                            "inner-delta maintenance supports one occurrence of {relation} per view"
                        );
                        if let Some(&step) = steps.first() {
                            if let Err(e) = v.apply_inner_delta(step, &delta, &self.catalog) {
                                dirty[i] = true;
                                return Err(e);
                            }
                        }
                    }
                }
                StrategyState::Rvm { rete, dirty, .. } => {
                    if !*dirty {
                        let mut submit_all = || -> Result<()> {
                            for old in &delta.deleted {
                                rete.submit(relation, Token::minus(old.clone()))?;
                            }
                            for new in &delta.inserted {
                                rete.submit(relation, Token::plus(new.clone()))?;
                            }
                            Ok(())
                        };
                        if let Err(e) = submit_all() {
                            *dirty = true;
                            return Err(e);
                        }
                    }
                }
            }
        }
        self.end_operation()?;
        self.force_validity();
        self.record_update(modified, before, start, &c, &mut sp);
        Ok(modified)
    }

    /// Reference answer for procedure `i`, recomputed fresh and uncharged
    /// (test/verification support).
    pub fn expected_rows(&self, i: usize) -> Result<RowBatch> {
        let _uncharged = self.pager.uncharged();
        let rows = execute_encoded(&self.procs[i].plan(), &self.catalog)?;
        Ok(RowBatch::new(Arc::clone(&self.schemas[i]), rows))
    }

    /// Rete network statistics (RVM engines only).
    pub fn rete_stats(&self) -> Option<procdb_rete::ReteStats> {
        match &self.state {
            StrategyState::Rvm { rete, .. } => Some(rete.stats()),
            _ => None,
        }
    }

    /// Predicted cost (ms) of recomputing procedure `i` from base
    /// relations, from live table statistics: B-tree descent + leaf pages
    /// under the selection window + one hash probe and one screen per
    /// qualifying tuple per join step. This is the paper's `C_queryP1` /
    /// `C_queryP2` instantiated per procedure instead of in expectation.
    pub fn estimate_recompute_ms(&self, i: usize, c: &procdb_storage::CostConstants) -> f64 {
        let def = &self.procs[i].view;
        let Some(base) = self.catalog.get(&def.base) else {
            return 0.0;
        };
        let n = base.len().max(1) as f64;
        let window = def
            .selection
            .int_bounds(self.opts.r1_key_field)
            .map(|(lo, hi)| (hi.saturating_sub(lo).saturating_add(1)) as f64)
            .unwrap_or(n);
        // Dense integer keys (the workload's construction): qualifying
        // tuples ≈ window width, capped at the relation size.
        let qualifying = window.min(n);
        let frac = qualifying / n;
        let h1 = base.btree_height().unwrap_or(1) as f64;
        let leaf_pages = (frac * base.page_count() as f64).ceil().max(1.0);
        let mut ms = h1 * c.c2 + leaf_pages * c.c2 + qualifying * c.c1;
        for _step in &def.joins {
            // 1:1 joins through primary hash files: one bucket-page read
            // and one result screen per surviving tuple. (Residual
            // selectivities are not tracked; this upper-bounds later
            // steps.)
            ms += qualifying * c.c2 + qualifying * c.c1;
        }
        ms
    }

    /// Predicted cost (ms) of a warm cached access to procedure `i` under
    /// the current strategy: one page read per stored page. `None` for
    /// Always Recompute (no cache exists).
    pub fn estimate_cached_read_ms(
        &self,
        i: usize,
        c: &procdb_storage::CostConstants,
    ) -> Option<f64> {
        let pages = match &self.state {
            StrategyState::Recompute => return None,
            StrategyState::CacheInval { caches, .. } => caches[i].heap.page_count(),
            StrategyState::Avm { views, .. } => views[i].page_count(),
            StrategyState::Rvm { rete, outputs, .. } => rete.memory(outputs[i]).page_count(),
        };
        Some(pages.max(1) as f64 * c.c2)
    }

    /// Predicted cost (ms) of the *next* `access(i)` given the current
    /// strategy and validity state: a recompute for Always Recompute (and
    /// for an invalidated Cache & Invalidate entry, plus the cache
    /// write-back), a cached read otherwise.
    pub fn estimate_access_ms(&self, i: usize, c: &CostConstants) -> f64 {
        match &self.state {
            StrategyState::Recompute => self.estimate_recompute_ms(i, c),
            StrategyState::CacheInval { validity, .. } => {
                let cached = self.estimate_cached_read_ms(i, c).unwrap_or(0.0);
                if validity.is_valid(ProcId(i as u32)) {
                    cached
                } else {
                    // Miss: recompute, then write the fresh value back
                    // (one page write per cache page — the read estimate
                    // prices the same page count).
                    self.estimate_recompute_ms(i, c) + cached
                }
            }
            StrategyState::Avm { .. } | StrategyState::Rvm { .. } => {
                self.estimate_cached_read_ms(i, c).unwrap_or(0.0)
            }
        }
    }

    /// Apply one replicated [`DeltaOp`] through this engine's own
    /// strategy machinery — the follower-side half of replication. The
    /// base mutation and maintenance semantics (and charging) are
    /// identical to the corresponding direct call.
    ///
    /// [`DeltaOp`]: crate::replication::DeltaOp
    pub fn apply_delta_op(&mut self, op: &crate::replication::DeltaOp) -> Result<usize> {
        use crate::replication::DeltaOp;
        match op {
            DeltaOp::Rekey(mods) => self.apply_update(mods),
            DeltaOp::Insert(rows) => self.apply_insert(rows),
            DeltaOp::Delete(keys) => self.apply_delete(keys),
            DeltaOp::RekeyIn { relation, mods } => self.apply_update_to(relation, mods),
        }
    }

    /// Replication LSN of the last delta applied here (0 = none).
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// Record that the delta stamped `lsn` has been applied here.
    /// Monotonic: a lower LSN than already recorded is ignored.
    pub fn note_applied_lsn(&mut self, lsn: u64) {
        self.applied_lsn = self.applied_lsn.max(lsn);
    }

    /// Conservative full resync: replace this engine's entire `R1`
    /// content with an authoritative snapshot (the current primary's
    /// slice, encoded with `R1`'s schema), then distrust **all** derived
    /// state — CI validity invalidated, AVM views and the Rete network
    /// marked dirty — so every strategy rebuilds from the fresh base on
    /// first access.
    ///
    /// The snapshot is bulk-loaded into a new file ([`Table::load`]),
    /// which then replaces `R1` in the catalog; the old file is dropped.
    /// A failed load leaves the old `R1` and the derived state as they
    /// were. The base rewrite is uncharged (it is resync plumbing, not
    /// the paper's priced maintenance); the deferred rebuilds it forces
    /// are charged when they happen, exactly like post-crash recovery
    /// work. Returns the number of rows installed.
    pub fn install_r1_snapshot(&mut self, rows: &EncodedRows) -> Result<usize> {
        let installed = {
            let _uncharged = self.pager.uncharged();
            self.replace_r1(rows)?
        };
        match &mut self.state {
            StrategyState::Recompute => {}
            StrategyState::CacheInval { validity, .. } => {
                for i in 0..self.procs.len() {
                    validity.invalidate(ProcId(i as u32));
                }
            }
            StrategyState::Avm { dirty, .. } => {
                for d in dirty.iter_mut() {
                    *d = true;
                }
            }
            StrategyState::Rvm { dirty, .. } => *dirty = true,
        }
        self.force_validity();
        Ok(installed)
    }

    /// Load `rows` as the new `R1`, swap it into the catalog, drop the old
    /// file and make the result durable.
    fn replace_r1(&mut self, rows: &EncodedRows) -> Result<usize> {
        let r1 = self
            .catalog
            .get(&self.opts.r1)
            .unwrap_or_else(|| panic!("unknown base relation"));
        let fresh = Table::load(
            self.pager.clone(),
            r1.name(),
            r1.schema().clone(),
            r1.organization(),
            rows,
        )?;
        let old = self.catalog.add(fresh).expect("R1 was registered");
        old.destroy()?;
        self.end_operation()?;
        Ok(rows.len())
    }

    /// Fraction of Cache-and-Invalidate caches currently valid (CI only).
    pub fn valid_fraction(&self) -> Option<f64> {
        match &self.state {
            StrategyState::CacheInval { validity, .. } => {
                Some(validity.valid_count() as f64 / validity.len().max(1) as f64)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_avm::JoinStep;
    use procdb_query::{CompOp, FieldType, Predicate, Term, Value};
    use procdb_storage::{AccountingMode, PagerConfig};

    use crate::procedure::ProcedureDef;

    fn pager() -> Arc<Pager> {
        Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 4096,
            mode: AccountingMode::Logical,
        })
    }

    /// R1(skey, a, pad) 200 rows, R2(b, f2sel, pad) 20 rows,
    /// R3(d, pad) 10 rows. Built uncharged.
    fn catalog(pager: &Arc<Pager>) -> Catalog {
        pager.set_charging(false);
        let r1s = Schema::new(vec![
            ("skey", FieldType::Int),
            ("a", FieldType::Int),
            ("pad", FieldType::Bytes(4)),
        ]);
        let r2s = Schema::new(vec![
            ("b", FieldType::Int),
            ("c", FieldType::Int),
            ("f2sel", FieldType::Int),
        ]);
        let r3s = Schema::new(vec![("d", FieldType::Int), ("tag", FieldType::Int)]);
        let mut r1 = Table::create(
            pager.clone(),
            "R1",
            r1s,
            Organization::BTree { key_field: 0 },
            0,
        )
        .unwrap();
        let mut r2 = Table::create(
            pager.clone(),
            "R2",
            r2s,
            Organization::Hash { key_field: 0 },
            20,
        )
        .unwrap();
        let mut r3 = Table::create(
            pager.clone(),
            "R3",
            r3s,
            Organization::Hash { key_field: 0 },
            10,
        )
        .unwrap();
        for i in 0..200i64 {
            r1.insert(&vec![
                Value::Int(i),
                Value::Int(i % 20),
                Value::Bytes(vec![0; 4]),
            ])
            .unwrap();
        }
        for j in 0..20i64 {
            r2.insert(&vec![Value::Int(j), Value::Int(j % 10), Value::Int(j % 3)])
                .unwrap();
        }
        for k in 0..10i64 {
            r3.insert(&vec![Value::Int(k), Value::Int(k * 100)])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        cat.add(r2);
        cat.add(r3);
        pager.ledger().reset();
        pager.set_charging(true);
        cat
    }

    fn p1(id: u32, lo: i64, hi: i64) -> ProcedureDef {
        ProcedureDef::new(
            id,
            format!("p1-{id}"),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, lo, hi),
                joins: vec![],
            },
        )
    }

    /// Model-1 shaped P2: join R2, keep f2sel = 0 (field 5 of combined).
    fn p2(id: u32, lo: i64, hi: i64) -> ProcedureDef {
        ProcedureDef::new(
            id,
            format!("p2-{id}"),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, lo, hi),
                joins: vec![JoinStep {
                    inner: "R2".into(),
                    outer_key_field: 1,
                    residual: Predicate {
                        terms: vec![Term::new(5, CompOp::Eq, 0i64)],
                    },
                }],
            },
        )
    }

    /// Model-2 shaped P2: additionally join R3 on R2.c (field 4).
    fn p2_threeway(id: u32, lo: i64, hi: i64) -> ProcedureDef {
        let mut p = p2(id, lo, hi);
        p.view.joins.push(JoinStep {
            inner: "R3".into(),
            outer_key_field: 4,
            residual: Predicate::always(),
        });
        p
    }

    fn engine_with(kind: StrategyKind, procs: Vec<ProcedureDef>) -> Engine {
        let pg = pager();
        let cat = catalog(&pg);
        Engine::new(pg, cat, procs, kind, EngineOptions::default()).unwrap()
    }

    fn assert_matches_expected(e: &mut Engine, i: usize) {
        let got = e.access(i).unwrap();
        let expect = e.expected_rows(i).unwrap();
        assert_eq!(
            got.normalized(),
            expect.normalized(),
            "{} proc {i} diverged",
            e.strategy()
        );
    }

    #[test]
    fn all_strategies_agree_on_static_data() {
        for kind in StrategyKind::ALL {
            let mut e = engine_with(
                kind,
                vec![p1(0, 10, 29), p2(1, 0, 49), p2_threeway(2, 20, 69)],
            );
            for i in 0..3 {
                assert_matches_expected(&mut e, i);
            }
        }
    }

    #[test]
    fn all_strategies_agree_after_updates() {
        for kind in StrategyKind::ALL {
            let mut e = engine_with(
                kind,
                vec![p1(0, 10, 29), p2(1, 0, 49), p2_threeway(2, 20, 69)],
            );
            e.warm_up().unwrap();
            // Interleave updates and accesses.
            for round in 0..6 {
                let base = round * 17;
                e.apply_update(&[(base % 200, (base * 7 + 3) % 200), ((base + 5) % 200, 11)])
                    .unwrap();
                for i in 0..3 {
                    assert_matches_expected(&mut e, i);
                }
            }
        }
    }

    #[test]
    fn setup_is_uncharged() {
        for kind in StrategyKind::ALL {
            let e = engine_with(kind, vec![p1(0, 10, 29), p2(1, 0, 49)]);
            assert_eq!(
                e.ledger().snapshot().page_ios(),
                0,
                "{kind} setup leaked charges"
            );
        }
    }

    #[test]
    fn recompute_pays_nothing_on_update() {
        let mut e = engine_with(StrategyKind::AlwaysRecompute, vec![p1(0, 10, 29)]);
        e.apply_update(&[(15, 100)]).unwrap();
        assert_eq!(e.ledger().snapshot().page_ios(), 0);
        assert_eq!(e.ledger().snapshot().screens, 0);
    }

    #[test]
    fn cache_invalidate_hit_vs_miss_costs() {
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        assert_eq!(e.valid_fraction(), Some(1.0));
        // Warm hit: read the cache only (cheap).
        let s0 = e.ledger().snapshot();
        e.access(0).unwrap();
        let hit = e.ledger().snapshot().since(&s0);
        assert!(hit.page_reads >= 1);
        assert_eq!(hit.page_writes, 0);
        // Invalidate by moving a tuple into the window.
        e.apply_update(&[(100, 15)]).unwrap();
        assert_eq!(e.valid_fraction(), Some(0.0));
        let s1 = e.ledger().snapshot();
        e.access(0).unwrap();
        let miss = e.ledger().snapshot().since(&s1);
        assert!(
            miss.page_ios() > hit.page_ios(),
            "miss {miss:?} should cost more than hit {hit:?}"
        );
        assert!(miss.page_writes >= 1, "cache rewrite writes pages");
        assert_eq!(e.valid_fraction(), Some(1.0));
    }

    #[test]
    fn irrelevant_update_does_not_invalidate() {
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        // Keys far outside [10, 29].
        e.apply_update(&[(150, 180)]).unwrap();
        assert_eq!(e.valid_fraction(), Some(1.0));
        assert_eq!(e.ledger().snapshot().invalidations, 0);
    }

    #[test]
    fn false_invalidation_on_p2() {
        // A tuple moves into the window but its join partner fails the
        // f2sel residual: the object does not change, yet CI invalidates
        // (the paper's "false invalidation").
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p2(0, 10, 29)]);
        e.warm_up().unwrap();
        let before = e.expected_rows(0).unwrap();
        // a = skey % 20; choose new skey 21 → a = 1 → b = 1 → f2sel = 1 ≠ 0.
        // (Key 21's a-value is 1 only if the moved tuple keeps its 'a'
        // field — updates only rewrite skey, so pick a victim whose a
        // fails the residual: victim 61 has a = 1.)
        e.apply_update(&[(61, 15)]).unwrap();
        let after = e.expected_rows(0).unwrap();
        assert_eq!(
            before.normalized(),
            after.normalized(),
            "object value must be unchanged"
        );
        assert_eq!(
            e.valid_fraction(),
            Some(0.0),
            "yet the cache was invalidated"
        );
        assert_eq!(e.ledger().snapshot().invalidations, 1);
    }

    #[test]
    fn update_cache_strategies_pay_on_update_not_on_read() {
        for kind in [StrategyKind::UpdateCacheAvm, StrategyKind::UpdateCacheRvm] {
            let mut e = engine_with(kind, vec![p1(0, 10, 29), p2(1, 0, 49)]);
            let s0 = e.ledger().snapshot();
            e.apply_update(&[(15, 40)]).unwrap();
            let upd = e.ledger().snapshot().since(&s0);
            assert!(upd.screens > 0, "{kind}: maintenance screens");
            assert!(upd.page_writes > 0, "{kind}: refresh writes");
            let s1 = e.ledger().snapshot();
            let rows = e.access(0).unwrap();
            let rd = e.ledger().snapshot().since(&s1);
            assert_eq!(rd.page_writes, 0, "{kind}: reads don't write");
            assert!(!rows.is_empty());
        }
    }

    #[test]
    fn rvm_shares_alpha_memories() {
        // Two P2s with the same selection as the P1 → one shared α-memory.
        let e = engine_with(
            StrategyKind::UpdateCacheRvm,
            vec![p1(0, 10, 29), p2(1, 10, 29), p2(2, 10, 29)],
        );
        let stats = e.rete_stats().unwrap();
        // Memories: shared α(R1), α(R2) (same residual → shared), and the
        // one shared β (both P2 specs are structurally identical).
        assert_eq!(stats.memory_nodes, 3, "{stats:?}");
        assert_eq!(stats.and_nodes, 1, "{stats:?}");
    }

    #[test]
    fn rvm_unshared_builds_separate_alphas() {
        let e = engine_with(
            StrategyKind::UpdateCacheRvm,
            vec![p1(0, 10, 29), p2(1, 50, 69)],
        );
        let stats = e.rete_stats().unwrap();
        // α(R1@10-29), α(R1@50-69), α(R2), β — 4 memories, 1 and-node.
        assert_eq!(stats.memory_nodes, 4, "{stats:?}");
    }

    #[test]
    fn inserts_and_deletes_maintained_by_all_strategies() {
        for kind in StrategyKind::ALL {
            let mut e = engine_with(kind, vec![p1(0, 10, 29), p2(1, 0, 49)]);
            e.warm_up().unwrap();
            // Insert two new tuples, one inside each window.
            e.apply_insert(&[
                vec![Value::Int(15), Value::Int(3), Value::Bytes(vec![0; 4])],
                vec![Value::Int(45), Value::Int(7), Value::Bytes(vec![0; 4])],
            ])
            .unwrap();
            for i in 0..2 {
                assert_matches_expected(&mut e, i);
            }
            // Delete one of them again.
            assert_eq!(e.apply_delete(&[15]).unwrap(), 1);
            assert_eq!(
                e.apply_delete(&[9999]).unwrap(),
                0,
                "missing key is a no-op"
            );
            for i in 0..2 {
                assert_matches_expected(&mut e, i);
            }
        }
    }

    #[test]
    fn delete_take_returns_removed_tuples_and_maintains() {
        for kind in StrategyKind::ALL {
            let mut e = engine_with(kind, vec![p1(0, 10, 29)]);
            e.warm_up().unwrap();
            let (taken, res) = e.apply_delete_take(&[15, 9999]);
            res.unwrap();
            assert_eq!(taken.len(), 1, "{kind}: one victim exists, one missing");
            assert_eq!(taken[0][0], Value::Int(15));
            assert_matches_expected(&mut e, 0);
        }
    }

    #[test]
    fn inner_relation_updates_maintained_by_all_strategies() {
        for kind in StrategyKind::ALL {
            let mut e = engine_with(
                kind,
                vec![p1(0, 10, 29), p2(1, 0, 49), p2_threeway(2, 20, 69)],
            );
            e.warm_up().unwrap();
            // Move R2 keys around; P1 must be unaffected, P2s must track.
            for round in 0..4i64 {
                e.apply_update_to("R2", &[(round % 20, (round * 7 + 3) % 20)])
                    .unwrap();
                for i in 0..3 {
                    assert_matches_expected(&mut e, i);
                }
            }
            // And R3 for the three-way procedure.
            e.apply_update_to("R3", &[(2, 7)]).unwrap();
            for i in 0..3 {
                assert_matches_expected(&mut e, i);
            }
        }
    }

    #[test]
    fn inner_update_to_r1_delegates() {
        let mut e = engine_with(StrategyKind::UpdateCacheAvm, vec![p1(0, 10, 29)]);
        e.apply_update_to("R1", &[(15, 99)]).unwrap();
        assert_matches_expected(&mut e, 0);
    }

    #[test]
    fn ci_conservatively_invalidates_joining_procs_only() {
        let mut e = engine_with(
            StrategyKind::CacheInvalidate,
            vec![p1(0, 10, 29), p2(1, 0, 49)],
        );
        e.warm_up().unwrap();
        e.apply_update_to("R2", &[(3, 11)]).unwrap();
        // P2 invalidated, P1 untouched → half the caches valid.
        assert_eq!(e.valid_fraction(), Some(0.5));
    }

    #[test]
    fn recompute_estimate_tracks_measured_cost() {
        let c = procdb_storage::CostConstants::default();
        let mut e = engine_with(
            StrategyKind::AlwaysRecompute,
            vec![p1(0, 10, 29), p2(1, 0, 49)],
        );
        for i in 0..2 {
            let predicted = e.estimate_recompute_ms(i, &c);
            let s0 = e.ledger().snapshot();
            e.access(i).unwrap();
            let measured = e.ledger().snapshot().since(&s0).priced(&c);
            let ratio = predicted / measured;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "proc {i}: predicted {predicted}, measured {measured}"
            );
            assert!(e.estimate_cached_read_ms(i, &c).is_none());
        }
    }

    #[test]
    fn cached_read_estimate_is_exact_for_warm_ci() {
        let c = procdb_storage::CostConstants::default();
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        let predicted = e.estimate_cached_read_ms(0, &c).unwrap();
        let s0 = e.ledger().snapshot();
        e.access(0).unwrap();
        let measured = e.ledger().snapshot().since(&s0).priced(&c);
        assert_eq!(
            predicted, measured,
            "warm hit cost is exactly the page count"
        );
    }

    #[test]
    fn frequency_optimized_rete_stays_correct() {
        // Force the left-deep shape (R3-dominated updates) and verify the
        // engine still serves exact answers under mixed-relation updates.
        let pg = pager();
        let cat = catalog(&pg);
        let mut e = Engine::new(
            pg,
            cat,
            vec![p1(0, 10, 29), p2_threeway(1, 0, 79)],
            StrategyKind::UpdateCacheRvm,
            EngineOptions {
                rvm_update_frequencies: Some(vec![
                    ("R1".to_string(), 0.1),
                    ("R3".to_string(), 1.0),
                ]),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for round in 0..4i64 {
            e.apply_update(&[(round * 31 % 200, round * 17 % 200)])
                .unwrap();
            e.apply_update_to("R3", &[(round % 10, (round * 3 + 1) % 10)])
                .unwrap();
            for i in 0..2 {
                assert_matches_expected(&mut e, i);
            }
        }
    }

    #[test]
    fn access_feeds_cost_model_metrics() {
        // The registry is process-global and shared with parallel tests:
        // assert growth, never exact values.
        let reg = procdb_obs::global();
        let labels: &[(&str, &str)] = &[("strategy", "ci")];
        let accesses = reg.counter("procdb_engine_accesses_total", labels);
        let predicted = reg.float_counter("procdb_cost_model_predicted_ms_total", labels);
        let observed = reg.float_counter("procdb_cost_model_observed_ms_total", labels);
        let (a0, p0, o0) = (accesses.get(), predicted.get(), observed.get());
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        e.access(0).unwrap();
        assert!(accesses.get() > a0);
        assert!(predicted.get() > p0, "predicted ms accumulated");
        assert!(observed.get() > o0, "observed ms accumulated");
    }

    #[test]
    fn estimate_access_follows_validity_state() {
        let c = procdb_storage::CostConstants::default();
        let mut e = engine_with(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        let hit = e.estimate_access_ms(0, &c);
        assert_eq!(hit, e.estimate_cached_read_ms(0, &c).unwrap());
        e.apply_update(&[(100, 15)]).unwrap(); // invalidate
        let miss = e.estimate_access_ms(0, &c);
        assert!(
            miss > hit,
            "a miss ({miss} ms) must predict dearer than a hit ({hit} ms)"
        );
        // AR has no cache: the estimate is always the recompute cost.
        let ar = engine_with(StrategyKind::AlwaysRecompute, vec![p1(0, 10, 29)]);
        assert_eq!(
            ar.estimate_access_ms(0, &c),
            ar.estimate_recompute_ms(0, &c)
        );
    }

    #[test]
    fn spans_capture_access_fields() {
        let reg = procdb_obs::global();
        let mut e = engine_with(StrategyKind::UpdateCacheAvm, vec![p1(0, 10, 29)]);
        reg.set_tracing(true);
        let seq_before: i64 = reg
            .recent_spans(1, |_| true)
            .last()
            .map(|s| s.seq as i64)
            .unwrap_or(-1);
        e.access(0).unwrap();
        e.apply_update(&[(15, 40)]).unwrap();
        reg.set_tracing(false);
        let spans = reg.recent_spans(64, |s| s.seq as i64 > seq_before);
        let access = spans
            .iter()
            .find(|s| s.name == "access" && s.field("proc") == Some(0.0))
            .expect("access span recorded");
        assert!(access.field("rows").is_some());
        assert!(access.field("predicted_ms").is_some());
        assert!(access.field("observed_ms").is_some());
        assert!(
            spans.iter().any(|s| s.name == "update"),
            "update span recorded"
        );
        assert!(
            spans.iter().any(|s| s.name == "maintain"),
            "maintain span nested in update"
        );
    }

    #[test]
    fn advisor_integration() {
        use procdb_costmodel::{Model, Params};
        let rec =
            crate::advisor::recommend(Model::One, &Params::default().with_update_probability(0.05));
        assert!(matches!(
            rec.strategy,
            StrategyKind::UpdateCacheAvm | StrategyKind::UpdateCacheRvm
        ));
    }

    /// Crash simulation needs physical accounting with buffer clears at
    /// operation boundaries: that's what makes each operation durable
    /// before the next one, so `drop_frames` models volatility instead of
    /// data loss.
    fn engine_physical(kind: StrategyKind, procs: Vec<ProcedureDef>) -> (Arc<Pager>, Engine) {
        let pg = Pager::new(PagerConfig {
            page_size: 512,
            buffer_capacity: 4096,
            mode: AccountingMode::Physical,
        });
        let cat = catalog(&pg);
        let e = Engine::new(pg.clone(), cat, procs, kind, EngineOptions::default()).unwrap();
        (pg, e)
    }

    /// Under `Physical` accounting with clearing, a crash followed by each
    /// procedure's first access charges `(page reads, page writes,
    /// screens)` as pinned, after updates that shrink one view by more
    /// than a page. The pins predate filling derived stores a page at a
    /// time, which must not move them.
    #[test]
    fn first_accesses_after_a_crash_charge_as_pinned_under_physical_clearing() {
        let pinned: [[(u64, u64, u64); 3]; 4] = [
            [(13, 0, 40), (6, 0, 140), (1, 0, 71)],
            [(17, 4, 40), (10, 4, 140), (4, 3, 71)],
            [(17, 4, 40), (10, 4, 140), (4, 3, 71)],
            // RVM rebuilds its whole network on the first access.
            [(42, 22, 170), (4, 0, 0), (3, 0, 0)],
        ];
        for (kind, pinned) in StrategyKind::ALL.into_iter().zip(pinned) {
            let procs = vec![p1(0, 10, 79), p2(1, 0, 99), p2_threeway(2, 20, 69)];
            let (pg, mut e) = engine_physical(kind, procs);
            e.warm_up().unwrap();
            e.apply_update(&(10..40).map(|k| (k, 300 + k)).collect::<Vec<_>>())
                .unwrap();
            e.crash();
            e.recover().into_report().expect("crashed engine recovers");
            for (i, want) in pinned.into_iter().enumerate() {
                let before = pg.ledger().snapshot();
                let rows = e.access(i).unwrap();
                let d = pg.ledger().snapshot().since(&before);
                assert_eq!((d.page_reads, d.page_writes, d.screens), want, "{kind} {i}");
                let expect = e.expected_rows(i).unwrap();
                assert_eq!(rows.normalized(), expect.normalized(), "{kind} proc {i}");
            }
        }
    }

    /// Under the default `Logical` accounting a rebuild is priced like the
    /// paper's refresh: the recompute an Always Recompute access pays, one
    /// read and one write per stored page, then the access's read of those
    /// pages. For an AVM view and a Rete network of one α-memory.
    #[test]
    fn logical_rebuild_charges_one_read_and_write_per_page() {
        let procs = || vec![p1(0, 10, 79), p2(1, 0, 99)];
        let charge = |e: &mut Engine, i: usize| {
            let before = e.ledger().snapshot();
            e.access(i).unwrap();
            let d = e.ledger().snapshot().since(&before);
            (d.page_reads, d.page_writes, d.screens)
        };
        let mut recompute = engine_with(StrategyKind::AlwaysRecompute, procs());
        for (kind, n) in [
            (StrategyKind::UpdateCacheAvm, 2),
            (StrategyKind::UpdateCacheRvm, 1),
        ] {
            for i in 0..n {
                let mut e = engine_with(kind, procs()[..n].to_vec());
                let (plan_reads, _, screens) = charge(&mut recompute, i);
                let (pages, writes, _) = charge(&mut e, i);
                assert!(pages > 1 && writes == 0, "{kind} {i}: {pages} pages");
                e.crash();
                e.recover().into_report().expect("crashed engine recovers");
                let want = (plan_reads + 2 * pages, pages, screens);
                assert_eq!(charge(&mut e, i), want, "{kind} proc {i}");
            }
        }
    }

    #[test]
    fn crash_recover_round_trip_all_strategies() {
        for kind in StrategyKind::ALL {
            let (_pg, mut e) = engine_physical(kind, vec![p1(0, 10, 29), p2(1, 0, 49)]);
            e.warm_up().unwrap();
            for cycle in 0..2i64 {
                e.apply_update(&[(100 + cycle, 15), (40 + cycle, 160 + cycle)])
                    .unwrap();
                e.crash();
                let rep = e.recover().into_report().expect("crashed engine recovers");
                assert_eq!(rep.crash_epoch, (cycle + 1) as u64, "{}", e.strategy());
                for i in 0..2 {
                    assert_matches_expected(&mut e, i);
                }
            }
        }
    }

    /// A default (`Logical`) pager keeps committed base writes across a
    /// crash: the update's dirty `R1` pages are written back before
    /// maintenance, not left in frames that `crash` drops.
    #[test]
    fn logical_pager_keeps_base_writes_across_crash() {
        for kind in StrategyKind::ALL {
            let pg = Pager::new_default();
            let cat = catalog(&pg);
            let mut e =
                Engine::new(pg, cat, vec![p1(0, 10, 29)], kind, EngineOptions::default()).unwrap();
            e.apply_update(&[(100, 15), (40, 160)]).unwrap();
            e.crash();
            e.recover().into_report().expect("crashed engine recovers");
            let r1 = e.catalog().get("R1").unwrap();
            assert_eq!(r1.key_count(15).unwrap(), 2, "{kind}: re-key to 15 lost");
            assert_eq!(r1.key_count(160).unwrap(), 2, "{kind}: re-key to 160 lost");
            assert_eq!(r1.key_count(100).unwrap(), 0, "{kind}: 100 came back");
            assert_eq!(r1.key_count(40).unwrap(), 0, "{kind}: 40 came back");
            assert_matches_expected(&mut e, 0);
        }
    }

    /// A Cache-and-Invalidate refill's pages are durable before its
    /// "valid" record is committed, whatever the accounting mode: after a
    /// crash the validity log never vouches for a cache the disk lost.
    /// Covers a default (`Logical`) pager and a warm `Physical` one
    /// (frames kept between operations).
    #[test]
    fn refilled_cache_is_durable_before_its_valid_record() {
        let pagers = [
            ("logical", PagerConfig::default(), true),
            (
                "physical warm",
                PagerConfig {
                    page_size: 512,
                    buffer_capacity: 4096,
                    mode: AccountingMode::Physical,
                },
                false,
            ),
        ];
        for (label, config, clear) in pagers {
            for kind in StrategyKind::ALL {
                let pg = Pager::new(config.clone());
                let cat = catalog(&pg);
                let opts = EngineOptions {
                    clear_buffer_between_ops: clear,
                    ..EngineOptions::default()
                };
                let mut e = Engine::new(pg, cat, vec![p1(0, 10, 29)], kind, opts).unwrap();
                e.warm_up().unwrap();
                e.apply_update(&[(100, 15)]).unwrap();
                e.access(0).unwrap();
                e.apply_update(&[(15, 20)]).unwrap();
                e.access(0).unwrap();
                e.crash();
                e.recover().into_report().expect("crashed engine recovers");
                let got = e.access(0).unwrap();
                let expect = e.expected_rows(0).unwrap();
                assert_eq!(got.normalized(), expect.normalized(), "{label} {kind}");
            }
        }
    }

    /// Resync's snapshot install swaps in a bulk-loaded `R1` and drops the
    /// old file: repeating it keeps the pager's page total flat, and every
    /// strategy then answers like the engine the snapshot came from.
    #[test]
    fn repeated_snapshot_install_keeps_pages_flat() {
        let procs = || vec![p1(0, 10, 29), p2(1, 0, 49), p2_threeway(2, 20, 69)];
        let mut primary = engine_with(StrategyKind::AlwaysRecompute, procs());
        primary
            .apply_update(&[(100, 15), (40, 160), (41, 12), (12, 12)])
            .unwrap();
        let snapshot = primary.catalog().get("R1").unwrap().scan_encoded().unwrap();
        for kind in StrategyKind::ALL {
            let (pg, mut e) = engine_physical(kind, procs());
            e.warm_up().unwrap();
            let mut totals = Vec::new();
            for _ in 0..4 {
                assert_eq!(e.install_r1_snapshot(&snapshot).unwrap(), snapshot.len());
                for i in 0..3 {
                    let got = e.access(i).unwrap();
                    let want = primary.access(i).unwrap();
                    assert_eq!(got.normalized(), want.normalized(), "{kind} proc {i}");
                }
                totals.push(pg.total_pages());
            }
            assert!(
                totals.windows(2).all(|w| w[0] == w[1]),
                "{kind}: {totals:?}"
            );
        }
    }

    #[test]
    fn always_recompute_recovery_is_free() {
        let (_pg, mut e) = engine_physical(StrategyKind::AlwaysRecompute, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        e.apply_update(&[(100, 15)]).unwrap();
        e.crash();
        let rep = e.recover().into_report().expect("crashed engine recovers");
        assert_eq!(rep.wal_records_replayed, 0, "AR replays no WAL (§3)");
        assert_eq!(rep.wal_bytes_replayed, 0);
        assert_eq!(rep.conservative_invalidations, 0);
        assert_eq!(rep.rebuilds_pending, 0);
        assert!(e.wal_stats().is_none());
        assert_matches_expected(&mut e, 0);
    }

    #[test]
    fn uc_rebuild_debt_is_paid_on_first_access() {
        for kind in [StrategyKind::UpdateCacheAvm, StrategyKind::UpdateCacheRvm] {
            let (_pg, mut e) = engine_physical(kind, vec![p1(0, 10, 29), p2(1, 0, 49)]);
            e.warm_up().unwrap();
            e.apply_update(&[(100, 15)]).unwrap();
            e.crash();
            let rep = e.recover().into_report().expect("crashed engine recovers");
            assert!(rep.rebuilds_pending >= 1, "{}: {rep:?}", e.strategy());
            assert_eq!(rep.wal_records_replayed, 0, "UC replays no validity WAL");
            assert!(
                e.access_shared(0).unwrap().is_none(),
                "dirty derived state must escalate to exclusive access"
            );
            assert_matches_expected(&mut e, 0);
            assert_matches_expected(&mut e, 1);
            assert_eq!(e.rebuilds_pending(), 0, "first accesses settle the debt");
        }
    }

    #[test]
    fn ci_crash_at_clean_boundary_replays_wal() {
        let (_pg, mut e) = engine_physical(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        e.apply_update(&[(100, 15)]).unwrap(); // invalidate, forced
        e.crash();
        let rep = e.recover().into_report().expect("crashed engine recovers");
        assert!(
            rep.wal_records_replayed > 0,
            "validity state comes back from the log: {rep:?}"
        );
        assert_eq!(
            rep.conservative_invalidations, 0,
            "everything was forced at the boundary"
        );
        assert_matches_expected(&mut e, 0);
        // Recovery is idempotent: a second pass with no new crash is a
        // typed no-op.
        assert_eq!(e.recover(), RecoveryOutcome::NotCrashed);
        assert_matches_expected(&mut e, 0);
    }

    /// Satellite regression: `recover` is a typed no-op unless the
    /// engine is actually crashed — never crashed, and already
    /// recovered, both report `NotCrashed` without re-running recovery
    /// work (visible as an unchanged pass counter).
    #[test]
    fn recover_is_idempotent_and_typed() {
        for kind in StrategyKind::ALL {
            let (_pg, mut e) = engine_physical(kind, vec![p1(0, 10, 29)]);
            e.warm_up().unwrap();
            // recover-without-crash: nothing to do.
            assert!(!e.is_crashed());
            assert_eq!(e.recover(), RecoveryOutcome::NotCrashed, "{kind}");
            assert!(e.last_recovery().is_none(), "{kind}: no pass may run");
            e.apply_update(&[(100, 15)]).unwrap();
            e.crash();
            assert!(e.is_crashed());
            let first = e.recover();
            assert!(first.is_recovered(), "{kind}");
            assert!(!e.is_crashed());
            // double-recover: the second call does no work — the pass
            // counter (strategy-labeled, process-global) must not move.
            let reg = procdb_obs::global();
            let passes = reg.counter(
                "procdb_recovery_passes_total",
                &[("strategy", kind.metric_label())],
            );
            let before = passes.get();
            assert_eq!(e.recover(), RecoveryOutcome::NotCrashed, "{kind}");
            assert_eq!(passes.get(), before, "{kind}: no silent re-recovery");
            assert_eq!(
                e.last_recovery(),
                first.into_report(),
                "{kind}: the recorded report is the real pass's"
            );
            assert_matches_expected(&mut e, 0);
        }
    }

    /// A fault injector's kill latch alone (no explicit `crash`) also
    /// counts as crashed: `recover` clears it and transfers flow again.
    #[test]
    fn kill_latch_alone_is_recoverable() {
        let (pg, mut e) = engine_physical(StrategyKind::AlwaysRecompute, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        pg.install_faults(procdb_storage::FaultPlan::new(9).kill_at(1));
        assert!(e.access(0).is_err(), "the kill-point must fire");
        assert!(e.is_crashed(), "the latch counts as crashed");
        assert!(e.recover().is_recovered());
        assert!(!e.is_crashed());
        assert_matches_expected(&mut e, 0);
    }

    #[test]
    fn ci_kill_mid_refill_is_conservatively_invalidated() {
        // Two identical engines: the first measures the charged-transfer
        // count of a cache refill, the second is killed on that refill's
        // final flush write — after `mark_valid`, before the force.
        let measured = {
            let (pg, mut e) = engine_physical(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
            e.warm_up().unwrap();
            e.apply_update(&[(100, 15)]).unwrap();
            let inj = pg.install_faults(procdb_storage::FaultPlan::new(1));
            e.access(0).unwrap();
            inj.transfers()
        };
        assert!(measured > 0, "a refill must move pages");
        let (pg, mut e) = engine_physical(StrategyKind::CacheInvalidate, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        e.apply_update(&[(100, 15)]).unwrap();
        pg.install_faults(procdb_storage::FaultPlan::new(1).kill_at(measured));
        let err = e.access(0).unwrap_err();
        assert_eq!(err, procdb_storage::StorageError::Crashed);
        e.crash();
        let rep = e.recover().into_report().expect("crashed engine recovers");
        assert_eq!(
            rep.conservative_invalidations, 1,
            "the unforced mark_valid must be distrusted: {rep:?}"
        );
        // Recovered and immediately serviceable: the next access refills.
        assert_matches_expected(&mut e, 0);
    }

    #[test]
    fn io_failure_window_surfaces_errors_then_service_resumes() {
        let (pg, mut e) = engine_physical(StrategyKind::AlwaysRecompute, vec![p1(0, 10, 29)]);
        e.warm_up().unwrap();
        pg.install_faults(procdb_storage::FaultPlan::new(3).fail_window(1, u64::MAX));
        let err = e.access(0).unwrap_err();
        assert!(
            matches!(err, procdb_storage::StorageError::Io(_)),
            "got {err:?}"
        );
        // The failure is an error, not a poisoned engine: lift the window
        // and the same access succeeds.
        pg.clear_faults();
        assert_matches_expected(&mut e, 0);
    }
}
