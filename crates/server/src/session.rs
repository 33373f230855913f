//! The session: declarative state (tables, rows, views, strategy) plus a
//! lazily rebuilt engine. Shared by the interactive shell and the
//! server's connection threads.
//!
//! The engine is always a [`ShardedEngine`] — `S >= 1` key-range
//! partitions of the base table, each a group of `R >= 1` replicas —
//! rebuilt from scratch whenever the schema, view set, strategy, or
//! layout changes: switching strategies mid-session replays the same
//! database under the new algorithm, which is exactly the comparison the
//! paper is about. Every build re-splits the key range over the rows it
//! moves in and the views' key windows ([`Router::split_for`]). The shard
//! groups build concurrently; with `replicas R`, each shard's primary
//! builds the strategy's derived state and its followers hold the base
//! tables only ([`Role::Follower`]), so a promoted follower pays its
//! strategy's recovery on first access, as after `crash` and `recover`.
//!
//! Declared rows are kept encoded ([`EncodedRows`] beside the table's
//! schema): `insert` type-checks a row and encodes it straight into the
//! buffer, and readers decode on demand. The base (first-declared,
//! updatable) table's rows have **one owner at a time**: its
//! [`TableSpec`] until the engine is built, and the engine from then on.
//! The build sorts them by key once: the router splits the key range on
//! that order, each shard receives its sorted run, and every table is
//! bulk-loaded ([`Table::load`]) — `R1`'s leaves come out full, the
//! paper's `b = N·S/B` blocks. A rebuild first reads the rows back out of
//! the live engine; if that read fails, the command that asked for the
//! rebuild fails and engine and rows stay as they were. Inner tables are
//! never mutated by a live engine and keep their declared rows.
//!
//! Concurrency control is per shard, so a live engine serves accesses
//! *and* updates through `&self` ([`Session::access_shared`],
//! [`Session::update_shared`]) under the server's shared lock; `&mut
//! self` is for DDL, admin commands, and the build itself. A
//! [`WorkloadObserver`] behind a mutex counts per-procedure accesses
//! and conflicting updates (surfaced by the `stats` command).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use procdb_cache::ResultCache;
use procdb_core::{
    parse_define_view, DeltaObserver, Engine, EngineOptions, ProcedureDef, RecoveryOutcome, Role,
    StrategyKind, WorkloadObserver,
};
use procdb_query::{
    Catalog, EncodedRows, FieldType, Organization, RowBatch, Schema, Table, Tuple, Value,
};
use procdb_shard::{ChaosPlan, Router, ShardedEngine};
use procdb_storage::{CostConstants, FaultPlan, Pager, PagerConfig};

use crate::command::Injection;

/// Health-check cadence of the replica supervisor the session starts
/// when a replicated engine is built.
const SUPERVISOR_INTERVAL: Duration = Duration::from_millis(20);

/// Rows an `access` response prints before `... N more`.
const ACCESS_ROWS_SHOWN: usize = 20;

/// Rows [`Session::render_rows`] can print: decoded tuples, or an
/// answer batch whose printed rows alone get decoded.
pub trait RenderRows {
    /// Number of rows.
    fn row_count(&self) -> usize;
    /// Row `i`, decoded if it is not already.
    fn row(&self, i: usize) -> Cow<'_, Tuple>;
}

impl RenderRows for [Tuple] {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn row(&self, i: usize) -> Cow<'_, Tuple> {
        Cow::Borrowed(&self[i])
    }
}

impl RenderRows for RowBatch {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn row(&self, i: usize) -> Cow<'_, Tuple> {
        Cow::Owned(self.tuple(i))
    }
}

/// One declared table: schema, organization, and its rows.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Physical organization.
    pub org: Organization,
    /// Declared contents, encoded with `schema` (decode with
    /// [`EncodedRows::decode`]). The base table's are empty while an
    /// engine is live and owns them — read those through
    /// [`Session::scan_base`].
    pub rows: EncodedRows,
}

/// Session errors (string-typed: every message is user-facing).
pub type SessionError = String;

/// Interactive session state.
pub struct Session {
    tables: Vec<TableSpec>,
    views: Vec<(String, procdb_avm::ViewDef)>,
    strategy: StrategyKind,
    constants: CostConstants,
    engine: Option<ShardedEngine>,
    page_size: usize,
    /// Shard count the next engine build partitions into.
    shards: usize,
    /// Replica-group size per shard the next build creates (1 = no
    /// followers).
    replicas: usize,
    /// Per-procedure workload counters; a mutex (not `&mut`) so the
    /// shared paths can record too.
    observer: Mutex<WorkloadObserver>,
    /// The front result cache, when the server attached one. The
    /// session keeps it configured (procedure intervals, shard layout)
    /// and taps it into every engine it builds as the
    /// [`DeltaObserver`] of the committed delta stream.
    cache: Option<Arc<ResultCache>>,
}

impl Session {
    /// Fresh session (Always Recompute, paper cost constants).
    pub fn new() -> Session {
        Session {
            tables: Vec::new(),
            views: Vec::new(),
            strategy: StrategyKind::AlwaysRecompute,
            constants: CostConstants::default(),
            engine: None,
            page_size: 4000,
            shards: 1,
            replicas: 1,
            observer: Mutex::new(WorkloadObserver::new(0)),
            cache: None,
        }
    }

    /// Attach the front result cache. The server does this once at
    /// startup, before any connection can reach the session.
    pub fn attach_cache(&mut self, cache: Arc<ResultCache>) {
        self.cache = Some(cache);
    }

    /// The attached front result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Register a freshly built engine's layout and every procedure's
    /// selection interval with the cache — its predicate index must be
    /// current before any fill can run (see `procdb-cache`'s fill
    /// protocol) — and tap the cache into the engine's delta stream.
    fn attach_engine_to_cache(&self, engine: &ShardedEngine, key_field: usize) {
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        let epochs: Vec<u64> = (0..engine.shards()).map(|s| engine.epoch_of(s)).collect();
        let procs: Vec<(String, i64, i64)> = self
            .views
            .iter()
            .map(|(name, def)| {
                let (lo, hi) = def
                    .selection
                    .int_bounds(key_field)
                    .unwrap_or((i64::MIN, i64::MAX));
                (name.clone(), lo, hi)
            })
            .collect();
        cache.configure(&epochs, key_field, &procs);
        let observer: Arc<dyn DeltaObserver> = cache.clone();
        engine.set_delta_observer(Some(observer));
    }

    /// The active strategy.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Declared tables.
    pub fn tables(&self) -> &[TableSpec] {
        &self.tables
    }

    /// Defined views, in definition order.
    pub fn views(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|(n, _)| n.as_str())
    }

    /// Defined views with their definitions, in definition order.
    pub fn view_defs(&self) -> &[(String, procdb_avm::ViewDef)] {
        &self.views
    }

    /// Key field index of the first-declared (updatable) base table.
    pub fn base_key_field(&self) -> Result<usize, SessionError> {
        match self.base()?.org {
            Organization::BTree { key_field } | Organization::Hash { key_field } => Ok(key_field),
            Organization::Heap => Ok(0),
        }
    }

    fn base(&self) -> Result<&TableSpec, SessionError> {
        self.tables
            .first()
            .ok_or_else(|| "no tables declared".to_string())
    }

    /// Snapshot of the base table's current rows, from whichever owns
    /// them: the live engine, or the declared table before the build.
    pub fn scan_base(&self) -> Result<Vec<Tuple>, SessionError> {
        let base = self.base()?;
        match self.engine.as_ref() {
            Some(engine) => Ok(engine.scan_r1().map_err(|e| e.to_string())?.decode()),
            None => Ok(base.rows.decode(&base.schema)),
        }
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut TableSpec, SessionError> {
        self.tables
            .iter_mut()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("unknown table {name}"))
    }

    fn table(&self, name: &str) -> Result<&TableSpec, SessionError> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("unknown table {name}"))
    }

    /// Retire the built engine (schema/view/strategy/layout is about to
    /// change), taking the base table's rows back from it first. When
    /// that read fails the engine stays live and nothing has changed —
    /// callers run this *before* touching any declarative state.
    fn dirty(&mut self) -> Result<(), SessionError> {
        if let Some(engine) = self.engine.as_ref() {
            self.tables[0].rows = engine.scan_r1().map_err(|e| e.to_string())?.into_rows();
            self.engine = None;
        }
        // Whatever the next engine computes may differ from what the
        // old one answered — nothing cached survives a rebuild.
        if let Some(cache) = self.cache.as_ref() {
            cache.flash_all();
        }
        Ok(())
    }

    /// Partition the engine `shards` ways on the next build. A live
    /// engine is rebuilt lazily, exactly like a strategy switch.
    pub fn set_shards(&mut self, n: usize) -> Result<(), SessionError> {
        if n == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if n > 64 {
            return Err(format!("shards capped at 64, got {n}"));
        }
        self.dirty()?;
        self.shards = n;
        Ok(())
    }

    /// Configured shard count (what the next engine build partitions
    /// into).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicate each shard `n` ways on the next build. `n >= 2` makes
    /// every shard a primary + followers group with supervised
    /// failover; 1 leaves each shard a lone primary.
    pub fn set_replicas(&mut self, n: usize) -> Result<(), SessionError> {
        if n == 0 {
            return Err("replicas must be at least 1".to_string());
        }
        if n > 8 {
            return Err(format!("replicas capped at 8, got {n}"));
        }
        self.dirty()?;
        self.replicas = n;
        Ok(())
    }

    /// Configured replica-group size per shard (1 = unreplicated).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Declare a table.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        org: Organization,
    ) -> Result<(), SessionError> {
        if self.tables.iter().any(|t| t.name == name) {
            return Err(format!("table {name} already exists"));
        }
        if let Organization::BTree { key_field } | Organization::Hash { key_field } = org {
            if key_field >= schema.arity() {
                return Err(format!("key field {key_field} out of range"));
            }
            if !matches!(schema.fields()[key_field].ty, FieldType::Int) {
                return Err("organization key must be an int field".to_string());
            }
        }
        self.dirty()?;
        self.tables.push(TableSpec {
            name: name.to_string(),
            rows: EncodedRows::new(schema.tuple_width()),
            schema,
            org,
        });
        Ok(())
    }

    /// Insert a row (typed against the declared schema).
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<(), SessionError> {
        let spec = self.table(table)?;
        if row.len() != spec.schema.arity() {
            return Err(format!(
                "arity mismatch: {} fields given, {} expected",
                row.len(),
                spec.schema.arity()
            ));
        }
        for (v, f) in row.iter().zip(spec.schema.fields()) {
            match (v, f.ty) {
                (Value::Int(_), FieldType::Int) => {}
                (Value::Bytes(b), FieldType::Bytes(w)) if b.len() <= w => {}
                _ => return Err(format!("value does not fit field {}", f.name)),
            }
        }
        // A live engine owns its base relation's rows: route the insert
        // through it (charged maintenance). Anything else is encoded into
        // the declared rows and the engine rebuilds lazily.
        if let Some(engine) = self.engine.as_ref() {
            if self.tables[0].name == table {
                engine
                    .apply_insert(&[row], &self.constants)
                    .map_err(|e| e.to_string())?;
                return Ok(());
            }
        }
        self.dirty()?;
        let spec = self.table_mut(table)?;
        spec.rows.push_tuple(&spec.schema, &row);
        Ok(())
    }

    /// Build a catalog from the declared tables, each bulk-loaded
    /// uncharged ([`Table::load`]). With `base_rows = None` the tables
    /// are created empty — enough for name resolution, without copying
    /// any data. A shard build passes its partition of the first
    /// (updatable) table; every other table is loaded in full (inner
    /// relations are replicated per shard).
    fn build_catalog(
        &self,
        pager: &Arc<Pager>,
        base_rows: Option<&EncodedRows>,
    ) -> Result<Catalog, SessionError> {
        let uncharged = pager.uncharged();
        let mut cat = Catalog::new();
        for (ti, spec) in self.tables.iter().enumerate() {
            let empty;
            let rows = match (ti, base_rows) {
                (_, None) => {
                    empty = EncodedRows::new(spec.schema.tuple_width());
                    &empty
                }
                (0, Some(part)) => part,
                _ => &spec.rows,
            };
            let t = Table::load(
                pager.clone(),
                &spec.name,
                spec.schema.clone(),
                spec.org,
                rows,
            );
            cat.add(t.map_err(|e| e.to_string())?);
        }
        pager.ledger().reset();
        drop(uncharged);
        Ok(cat)
    }

    /// Define a view/procedure in the paper's syntax.
    pub fn define_view(&mut self, statement: &str) -> Result<String, SessionError> {
        // Resolve against a throwaway catalog of the declared schemas.
        let pager = Pager::new(PagerConfig {
            page_size: self.page_size,
            buffer_capacity: 1024,
            mode: procdb_storage::AccountingMode::Logical,
        });
        // Name resolution only needs schemas, not data.
        let cat = self.build_catalog(&pager, None)?;
        let dv = parse_define_view(statement, &cat).map_err(|e| e.to_string())?;
        let name = if dv.name.is_empty() {
            format!("view{}", self.views.len())
        } else {
            dv.name.clone()
        };
        if self.views.iter().any(|(n, _)| *n == name) {
            return Err(format!("view {name} already exists"));
        }
        // The engine requires the view's base to be the session's first
        // (updatable) table.
        if self
            .tables
            .first()
            .map(|t| t.name != dv.view.base)
            .unwrap_or(true)
        {
            return Err(format!(
                "views must select from the first-declared (updatable) table; \
                 {} is not {}",
                dv.view.base,
                self.tables.first().map(|t| t.name.as_str()).unwrap_or("?")
            ));
        }
        self.dirty()?;
        self.views.push((name.clone(), dv.view));
        self.observer.lock().add_procedure();
        Ok(name)
    }

    /// Switch processing strategy (rebuilds the engine lazily).
    pub fn set_strategy(&mut self, kind: StrategyKind) -> Result<(), SessionError> {
        self.dirty()?;
        self.strategy = kind;
        Ok(())
    }

    /// Build shard `shard`'s engine in `role` over the declared schema
    /// and `part`, that shard's partition of the base table's rows.
    fn build_engine(
        &self,
        shard: u32,
        part: &EncodedRows,
        r1_key_field: usize,
        role: Role,
    ) -> Result<Engine, SessionError> {
        let pager = Pager::new(PagerConfig {
            page_size: self.page_size,
            buffer_capacity: 16 * 1024,
            mode: procdb_storage::AccountingMode::Physical,
        });
        let catalog = self.build_catalog(&pager, Some(part))?;
        let procs: Vec<ProcedureDef> = self
            .views
            .iter()
            .enumerate()
            .map(|(i, (n, v))| ProcedureDef::new(i as u32, n.clone(), v.clone()))
            .collect();
        let probe = self
            .views
            .iter()
            .find_map(|(_, v)| v.joins.first().map(|j| j.outer_key_field))
            .unwrap_or(r1_key_field);
        Engine::with_role(
            pager,
            catalog,
            procs,
            self.strategy,
            EngineOptions {
                r1: self.tables[0].name.clone(),
                r1_key_field,
                rvm_base_probe_field: probe,
                rvm_update_frequencies: None,
                clear_buffer_between_ops: true,
                shard: Some(shard),
            },
            role,
        )
        .map_err(|e| e.to_string())
    }

    /// Build and warm the engine over `parts`, the base table's rows
    /// dealt into one partition per shard of `router`. The shard groups
    /// build concurrently, and only each shard's primary builds views.
    fn build_backend(
        &self,
        router: Router,
        parts: &[EncodedRows],
        key_field: usize,
    ) -> Result<ShardedEngine, SessionError> {
        let engine = ShardedEngine::new_replicated(router, self.replicas, |sid, role| {
            self.build_engine(sid as u32, &parts[sid], key_field, role)
        })?;
        engine.warm_up().map_err(|e| e.to_string())?;
        if self.replicas > 1 {
            // With followers available, a crashed primary is promoted
            // away from even when no traffic touches the failed shard.
            engine.start_supervisor(SUPERVISOR_INTERVAL);
        }
        self.attach_engine_to_cache(&engine, key_field);
        Ok(engine)
    }

    fn ensure_backend(&mut self) -> Result<&ShardedEngine, SessionError> {
        if self.engine.is_none() {
            let org = self.base()?.org;
            if self.views.is_empty() {
                return Err("no views defined".to_string());
            }
            let Organization::BTree { key_field } = org else {
                return Err("the first table must be B-tree organized".to_string());
            };
            // The partitions take the base rows over from the declared
            // table, in one key order: the router splits on it and each
            // shard gets a sorted run. A failed build hands them back.
            let base = &mut self.tables[0];
            let width = base.schema.tuple_width();
            let rows = std::mem::replace(&mut base.rows, EncodedRows::new(width));
            let mut order: Vec<(i64, u32)> = (0..)
                .zip(rows.iter())
                .map(|(i, row)| (base.schema.int_field(row, key_field), i))
                .collect();
            order.sort_by_key(|&(key, _)| key);
            let router = Router::split_for(
                self.shards,
                order.iter().map(|&(key, _)| key),
                self.views.iter().map(|(_, def)| &def.selection),
                key_field,
            );
            let mut parts = vec![EncodedRows::new(width); router.shards()];
            for &(key, i) in &order {
                parts[router.shard_of(key)].push(rows.get(i as usize));
            }
            drop((rows, order));
            match self.build_backend(router, &parts, key_field) {
                Ok(engine) => self.engine = Some(engine),
                Err(e) => {
                    let back = &mut self.tables[0].rows;
                    for row in parts.iter().flat_map(EncodedRows::iter) {
                        back.push(row);
                    }
                    return Err(e);
                }
            }
        }
        Ok(self.engine.as_ref().expect("built above if it was missing"))
    }

    /// Build the engine now if it would be built on the next access.
    /// Lets the server warm up under its write lock once, instead of on
    /// the first unlucky client's access.
    pub fn prepare(&mut self) -> Result<(), SessionError> {
        if !self.views.is_empty() && !self.tables.is_empty() {
            self.ensure_backend()?;
        }
        Ok(())
    }

    fn view_index(&self, view: &str) -> Result<usize, SessionError> {
        self.views
            .iter()
            .position(|(n, _)| n == view)
            .ok_or_else(|| format!("unknown view {view}"))
    }

    /// Read a view's current value, decoded; returns the rows and the
    /// priced cost. Builds the engine first if needed.
    pub fn access(&mut self, view: &str) -> Result<(Vec<Tuple>, f64), SessionError> {
        let (rows, ms) = self.access_batch(view)?;
        Ok((rows.decode(), ms))
    }

    /// [`Session::access_shared`], building the engine first if needed.
    pub fn access_batch(&mut self, view: &str) -> Result<(RowBatch, f64), SessionError> {
        self.view_index(view)?;
        self.ensure_backend()?;
        Ok(self.access_shared(view)?.expect("engine was just built"))
    }

    /// Read a view's current value through `&self`, as one batch of
    /// encoded rows, and its priced cost. `Ok(None)` means the engine is
    /// not built yet and the caller must escalate to
    /// [`Session::access_batch`]. A live engine always serves here: a
    /// read that has to write (a Cache & Invalidate refill, a post-crash
    /// rebuild) escalates per shard, inside that shard's own lock.
    pub fn access_shared(&self, view: &str) -> Result<Option<(RowBatch, f64)>, SessionError> {
        let idx = self.view_index(view)?;
        let Some(engine) = self.engine.as_ref() else {
            return Ok(None);
        };
        let mut sp = procdb_obs::span!(procdb_obs::global(), "session.access", proc = idx);
        let (rows, ms) = engine
            .access(idx, &self.constants)
            .map_err(|e| e.to_string())?;
        self.observer.lock().record_access(idx);
        sp.field("rows", rows.len() as f64);
        sp.field("priced_ms", ms);
        Ok(Some((rows, ms)))
    }

    /// Count which procedures an applied re-key conflicted with: any
    /// whose selection window (on the base key field) contains the
    /// vacated or the newly written key.
    fn note_update(&self, n: usize, key_field: usize, victim: i64, new_key: i64) {
        if n > 0 {
            let conflicting: Vec<usize> = self
                .views
                .iter()
                .enumerate()
                .filter(|(_, (_, def))| {
                    let (lo, hi) = def
                        .selection
                        .int_bounds(key_field)
                        .unwrap_or((i64::MIN, i64::MAX));
                    (lo..=hi).contains(&victim) || (lo..=hi).contains(&new_key)
                })
                .map(|(i, _)| i)
                .collect();
            self.observer.lock().record_update(conflicting);
        } else {
            self.observer.lock().record_update([]);
        }
    }

    /// Re-key one tuple of the base table; returns the tuples modified
    /// and the priced maintenance cost. Builds the engine first if
    /// needed.
    pub fn update(&mut self, victim: i64, new_key: i64) -> Result<(usize, f64), SessionError> {
        self.ensure_backend()?;
        Ok(self
            .update_shared(victim, new_key)?
            .expect("engine was just built"))
    }

    /// Re-key one base tuple through `&self`: the engine's concurrency
    /// control is per shard, so the server routes updates this way under
    /// its shared lock, locking one shard instead of the whole session.
    /// `Ok(None)` means the engine is not built yet — escalate to
    /// [`Session::update`].
    pub fn update_shared(
        &self,
        victim: i64,
        new_key: i64,
    ) -> Result<Option<(usize, f64)>, SessionError> {
        let Some(engine) = self.engine.as_ref() else {
            return Ok(None);
        };
        let _sp = procdb_obs::span!(procdb_obs::global(), "session.update", victim = victim);
        let (n, ms) = engine
            .apply_update(&[(victim, new_key)], &self.constants)
            .map_err(|e| e.to_string())?;
        self.note_update(n, self.base_key_field()?, victim, new_key);
        Ok(Some((n, ms)))
    }

    /// `shard`, when given, must name one of the live engine's shards.
    fn check_shard(engine: &ShardedEngine, shard: Option<usize>) -> Result<(), SessionError> {
        match shard {
            Some(s) if s >= engine.shards() => {
                Err(format!("shard {s} out of range (0..{})", engine.shards()))
            }
            _ => Ok(()),
        }
    }

    /// `fault inject|off|status`: install the same seeded plan on every
    /// shard primary's private pager (building the engine first if
    /// needed), lift it, or report the plan and each shard's tallies.
    /// Rebuilding the engine — a strategy switch or DDL — discards the
    /// plan with the pagers.
    pub fn fault(&mut self, op: Injection<FaultPlan>) -> Result<String, SessionError> {
        let engine = match (&op, &self.engine) {
            (Injection::Status, None) => return Ok("no fault plan installed".to_string()),
            (Injection::Status, Some(engine)) => engine,
            _ => self.ensure_backend()?,
        };
        let pagers: Vec<_> = (0..engine.shards())
            .map(|s| engine.with_engine(s, |e| Arc::clone(e.pager())))
            .collect();
        Ok(match op {
            Injection::Inject(plan) => {
                for pager in &pagers {
                    pager.install_faults(plan.clone());
                }
                format!("fault plan installed: {}", plan.describe())
            }
            Injection::Off => {
                // The kill latch is the crash itself: dropping the
                // injector would hide it from `recover`.
                let latched = pagers
                    .iter()
                    .position(|p| p.fault_injector().is_some_and(|inj| inj.crashed()));
                if let Some(s) = latched {
                    return Err(format!(
                        "shard {s} is crashed by its fault plan's kill point; run 'recover' before 'fault off'"
                    ));
                }
                pagers.iter().for_each(|p| p.clear_faults());
                "fault injection off".to_string()
            }
            Injection::Status => {
                let injectors: Vec<_> = pagers.iter().map(|p| p.fault_injector()).collect();
                let plan = (injectors.iter().flatten().next())
                    .map(|inj| format!("plan: {}", inj.plan().describe()));
                let shards = injectors.iter().enumerate().map(|(s, inj)| match inj {
                    None => format!("shard {s}: no fault plan installed"),
                    Some(inj) => format!("shard {s}: {}", inj.status()),
                });
                plan.into_iter()
                    .chain(shards)
                    .collect::<Vec<_>>()
                    .join("\n")
            }
        })
    }

    /// `chaos inject|off|status`: install a message-chaos plan on the
    /// replication layer, lift it with its final tallies, or report the
    /// plan and its running tallies. Chaos only has meaning with
    /// followers — there is no delta-shipping path to break otherwise.
    pub fn chaos(&mut self, op: Injection<ChaosPlan>) -> Result<String, SessionError> {
        let off = op == Injection::Off;
        let injector = match op {
            Injection::Inject(plan) => {
                let engine = self.ensure_backend()?;
                if engine.replicas() < 2 {
                    return Err("not replicated; use 'replicas R' (R >= 2) first".to_string());
                }
                return Ok(format!(
                    "{} (installed)",
                    engine.install_chaos(plan).plan().describe()
                ));
            }
            Injection::Off => self.ensure_backend()?.chaos_off(),
            Injection::Status => self.engine.as_ref().and_then(|e| e.chaos()),
        };
        Ok(match injector {
            None => "no chaos plan installed".to_string(),
            Some(inj) if off => format!("chaos off; injected: {}", inj.tallies()),
            Some(inj) => format!("{}\ninjected: {}", inj.plan().describe(), inj.tallies()),
        })
    }

    /// Simulate a crash on the live engine: `shard` selects one shard's
    /// primary to kill (others keep serving); `None` crashes every
    /// shard's.
    pub fn crash(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        // A crash distrusts all derived state; the cached results are
        // derived state held outside the engine, so they go too. (A
        // replicated crash also promotes — the epoch bump would fence
        // the crashed shard's entries anyway — but an unreplicated one
        // has no bump to lean on.)
        if let Some(cache) = self.cache.as_ref() {
            cache.flash_all();
        }
        let engine = self.ensure_backend()?;
        Self::check_shard(engine, shard)?;
        engine.crash(shard);
        let replicated = engine.replicas() > 1;
        Ok(match shard {
            Some(s) if replicated => format!(
                "shard {s} primary crashed; replica {} promoted, service continues. \
                 run 'recover {s}' (or 'resync {s}') to rejoin the ex-primary",
                engine.primary_of(s)
            ),
            Some(s) => format!(
                "shard {s} crashed: its frames dropped, its derived state \
                 distrusted; other shards keep serving. run 'recover {s}' to resume"
            ),
            None if replicated => format!(
                "all {} shard primaries crashed; each promoted a live follower, \
                 service continues. run 'recover' to rejoin the ex-primaries",
                engine.shards()
            ),
            None => format!(
                "all {} shards crashed; run 'recover' to resume",
                engine.shards()
            ),
        })
    }

    /// Run crash recovery and report what it did, one line per shard;
    /// `shard` recovers one shard independently.
    pub fn recover(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        let engine = self.ensure_backend()?;
        Self::check_shard(engine, shard)?;
        let mut out = String::new();
        for (s, outcome) in engine.recover(shard) {
            match outcome {
                RecoveryOutcome::Recovered(rep) => out.push_str(&format!(
                    "shard {s} recovered (epoch {}): {} WAL records ({} bytes) \
                     replayed, {} conservative invalidations, {} rebuilds deferred \
                     to first access\n",
                    rep.crash_epoch,
                    rep.wal_records_replayed,
                    rep.wal_bytes_replayed,
                    rep.conservative_invalidations,
                    rep.rebuilds_pending,
                )),
                RecoveryOutcome::NotCrashed => out.push_str(&format!(
                    "shard {s}: primary not crashed; replicas resynced\n"
                )),
            }
        }
        Ok(out.trim_end().to_string())
    }

    /// Force a failover drill: promote the freshest live follower of
    /// `shard` to primary (the `promote N` command).
    pub fn promote(&mut self, shard: usize) -> Result<String, SessionError> {
        let engine = self.ensure_backend()?;
        Self::check_shard(engine, Some(shard))?;
        let new = engine.promote(shard)?;
        Ok(format!("shard {shard}: replica {new} promoted to primary"))
    }

    /// Resync lagging or dead replicas of one shard (or all shards):
    /// delta-log replay past each replica's last applied LSN, with a
    /// conservative full rebuild when the log was truncated past its
    /// position (the `resync [N]` command).
    pub fn resync(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        let engine = self.ensure_backend()?;
        Self::check_shard(engine, shard)?;
        let reports = engine.resync(shard).map_err(|e| e.to_string())?;
        if reports.is_empty() {
            return Ok("all replicas live and caught up; nothing to resync".to_string());
        }
        let mut out = String::new();
        for r in reports {
            out.push_str(&format!(
                "shard {} replica {}: {}\n",
                r.shard,
                r.replica,
                if r.full_rebuild {
                    "conservative full rebuild (log truncated or position ambiguous)".to_string()
                } else {
                    format!("replayed {} delta op(s)", r.replayed)
                }
            ));
        }
        Ok(out.trim_end().to_string())
    }

    /// Total priced cost accumulated on the live engine's ledgers.
    pub fn total_cost_ms(&self) -> f64 {
        let Some(engine) = self.engine.as_ref() else {
            return 0.0;
        };
        (0..engine.shards())
            .map(|s| engine.with_engine(s, |e| e.ledger().snapshot().priced(&self.constants)))
            .sum()
    }

    /// Turn the front result cache on (the `cache on` command). Builds
    /// the engine first if it is buildable, so the cache's predicate
    /// index is registered before the first fill.
    pub fn cache_on(&mut self) -> Result<String, SessionError> {
        if self.cache.is_none() {
            return Err("no result cache attached (server-only feature)".to_string());
        }
        self.prepare()?;
        let cache = self.cache.as_ref().expect("checked above");
        cache.set_enabled(true);
        Ok("result cache on".to_string())
    }

    /// Turn the front result cache off (the `cache off` command).
    /// Invalidation tracking stays live, so `cache on` later is safe.
    pub fn cache_off(&mut self) -> Result<String, SessionError> {
        match self.cache.as_ref() {
            Some(cache) => {
                cache.set_enabled(false);
                Ok("result cache off".to_string())
            }
            None => Err("no result cache attached (server-only feature)".to_string()),
        }
    }

    /// Machine-parseable cache counters (the `cache stats` command):
    /// one `totals:` line plus one watermark line per shard, following
    /// the `shards` command's `key=value` convention.
    pub fn cache_stats_text(&self) -> Result<String, SessionError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| "no result cache attached (server-only feature)".to_string())?;
        let s = cache.stats();
        let mut out = format!("cache: enabled={}\n", s.enabled);
        out.push_str(&format!(
            "totals: hits={} misses={} fills={} invalidations={} stale_served={} \
             hit_ratio={:.4} entries={} bytes={}\n",
            s.hits,
            s.misses,
            s.fills,
            s.invalidations,
            s.stale_served,
            s.hit_ratio,
            s.entries,
            s.bytes,
        ));
        let engine_lsns: Vec<u64> = self
            .engine
            .iter()
            .flat_map(|e| e.shard_stats())
            .map(|st| st.last_lsn)
            .collect();
        for (i, w) in s.per_shard.iter().enumerate() {
            // Invalidation lag: deltas the engine has committed that the
            // cache has not been notified of. Synchronous taps keep it
            // at zero; nonzero means notifications are being lost.
            let lag = engine_lsns
                .get(i)
                .map(|&l| l.saturating_sub(w.lsn))
                .unwrap_or(0);
            out.push_str(&format!(
                "cache_shard {i}: epoch={} lsn={} lag={}\n",
                w.epoch, w.lsn, lag
            ));
        }
        Ok(out.trim_end().to_string())
    }

    /// Per-procedure workload counters (the `stats` command): accesses,
    /// conflicting updates, the per-procedure `k/q` conflict rate, and —
    /// once the engine is live and the procedure has been accessed — the
    /// strategy [`procdb_core::decide_one`] would pick for it today.
    pub fn stats_text(&self) -> String {
        let obs = self.observer.lock();
        let mut out = format!("operations: {}\n", obs.operations);
        for (i, (name, _)) in self.views.iter().enumerate() {
            let s = obs.stats(i);
            let rate = obs
                .conflict_rate(i)
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".to_string());
            let advice = match (self.engine.as_ref(), obs.conflict_rate(i)) {
                (Some(engine), Some(rate)) => {
                    let c = self.constants;
                    // Full-relation estimates: the sum of each shard's
                    // estimate over its slice.
                    let (mut recompute_ms, mut cached_read_ms) = (0.0, 0.0);
                    for s in 0..engine.shards() {
                        let (r, cr) = engine.with_engine(s, |e| {
                            (
                                e.estimate_recompute_ms(i, &c),
                                e.estimate_cached_read_ms(i, &c).unwrap_or(c.c2),
                            )
                        });
                        recompute_ms += r;
                        cached_read_ms += cr;
                    }
                    let input = procdb_core::DecisionInput {
                        recompute_ms,
                        // Always Recompute keeps no cache to measure; a
                        // one-page read stands in for the hypothetical one.
                        cached_read_ms,
                        conflict_rate: rate,
                        // Shell updates re-key one base tuple at a time.
                        tuples_per_conflict: 1.0,
                    };
                    procdb_core::decide_one(&input, &c).label()
                }
                _ => "-",
            };
            out.push_str(&format!(
                "  {name}: {} accesses, {} conflicting updates, conflict rate {rate}, \
                 advisor {advice}\n",
                s.accesses, s.conflicting_updates
            ));
        }
        if self.views.is_empty() {
            out.push_str("  (no procedures defined)\n");
        }
        if let Some(engine) = self.engine.as_ref() {
            out.push_str(&format!(
                "shards: {} ({} cross-shard moves)\n",
                engine.shards(),
                engine.cross_moves(),
            ));
            if engine.replicas() > 1 {
                out.push_str(&format!(
                    "replicas: {} per shard, {} failover(s)\n",
                    engine.replicas(),
                    engine.failovers(),
                ));
            }
            for st in engine.shard_stats() {
                out.push_str(&format!(
                    "  shard {}: {} accesses, {} updates, buffer hit ratio {:.2}, \
                     conflict rate {:.2}, {} R1 rows, crash epoch {}",
                    st.shard,
                    st.accesses,
                    st.updates,
                    st.hit_ratio(),
                    st.conflict_rate(),
                    st.r1_rows,
                    st.crash_epoch,
                ));
                if let Some(rep) = st.last_recovery {
                    out.push_str(&format!(
                        ", last recovery replayed {} WAL records ({} bytes), \
                         {} conservative invalidations",
                        rep.wal_records_replayed,
                        rep.wal_bytes_replayed,
                        rep.conservative_invalidations,
                    ));
                }
                if let Some((log, tail)) = st.wal_bytes {
                    out.push_str(&format!(
                        ", validity WAL {log} bytes ({tail} past checkpoint)"
                    ));
                }
                if st.rebuilds_pending > 0 {
                    out.push_str(&format!(", {} rebuild(s) pending", st.rebuilds_pending));
                }
                if let Some(vf) = st.valid_fraction {
                    out.push_str(&format!(", valid fraction {vf:.2}"));
                }
                if st.replicas > 1 {
                    out.push_str(&format!(
                        ", group epoch {}, {} fenced write(s), breaker {}",
                        st.epoch, st.fenced, st.breaker,
                    ));
                }
                out.push('\n');
                if st.replicas > 1 {
                    for rs in &st.replica_status {
                        out.push_str(&format!(
                            "    replica {}: {}, applied lsn {} (lag {})\n",
                            rs.replica, rs.role, rs.applied_lsn, rs.lag,
                        ));
                    }
                }
            }
        }
        if let Some(cache) = self.cache.as_ref() {
            let s = cache.stats();
            out.push_str(&format!(
                "cache: {}, {} entries ({} bytes), {} hits / {} misses \
                 (hit ratio {:.2}), {} fills, {} invalidations, {} stale served\n",
                if s.enabled { "on" } else { "off" },
                s.entries,
                s.bytes,
                s.hits,
                s.misses,
                s.hit_ratio,
                s.fills,
                s.invalidations,
                s.stale_served,
            ));
        }
        out
    }

    /// Machine-parseable per-shard status (the `shards` command): one
    /// `key=value` line per shard of the live engine.
    pub fn shards_text(&self) -> String {
        let Some(engine) = self.engine.as_ref() else {
            return format!("shards: {} (engine not built yet)", self.shards);
        };
        let mut out = format!("shards: {}\n", engine.shards());
        out.push_str(&format!("cross_moves: {}\n", engine.cross_moves()));
        out.push_str(&format!("replicas: {}\n", engine.replicas()));
        for st in engine.shard_stats() {
            let (lo, hi) = engine.router().key_range(st.shard);
            let bound = |b: Option<i64>, open: &str| b.map_or(open.to_string(), |k| k.to_string());
            out.push_str(&format!(
                "shard {}: accesses={} updates={} escalations={} hits={} faults={} \
                 hit_ratio={:.4} conflict_rate={:.4} crash_epoch={} \
                 rebuilds_pending={} r1_rows={} key_range=[{},{}) access_ms={:.3} \
                 replicas={} live={} primary={} last_lsn={} max_lag={} failovers={} \
                 epoch={} fenced={} breaker={} breaker_sheds={}\n",
                st.shard,
                st.accesses,
                st.updates,
                st.escalations,
                st.buffer_hits,
                st.buffer_faults,
                st.hit_ratio(),
                st.conflict_rate(),
                st.crash_epoch,
                st.rebuilds_pending,
                st.r1_rows,
                bound(lo, "-inf"),
                bound(hi, "+inf"),
                st.access_ms_sum,
                st.replicas,
                st.live_replicas,
                st.primary_replica,
                st.last_lsn,
                st.max_replica_lag,
                st.failovers,
                st.epoch,
                st.fenced,
                st.breaker,
                st.breaker_sheds,
            ));
            if st.replicas > 1 {
                for rs in &st.replica_status {
                    out.push_str(&format!(
                        "replica {}.{}: role={} applied_lsn={} lag={}\n",
                        st.shard, rs.replica, rs.role, rs.applied_lsn, rs.lag,
                    ));
                }
            }
        }
        out.trim_end().to_string()
    }

    /// Prometheus text exposition of the process-global metric registry,
    /// with session-level gauges (CI valid fraction, total priced cost)
    /// refreshed first (the `metrics` command).
    pub fn metrics_text(&self) -> String {
        let reg = procdb_obs::global();
        if let Some(engine) = self.engine.as_ref() {
            reg.gauge("procdb_shard_count", &[])
                .set(engine.shards() as f64);
            reg.gauge("procdb_replica_count", &[])
                .set(engine.replicas() as f64);
            reg.gauge("procdb_session_cost_ms", &[])
                .set(self.total_cost_ms());
            for st in engine.shard_stats() {
                let shard = st.shard.to_string();
                let labels = [("shard", shard.as_str())];
                reg.gauge("procdb_shard_buffer_hit_ratio", &labels)
                    .set(st.hit_ratio());
                reg.gauge("procdb_shard_conflict_rate", &labels)
                    .set(st.conflict_rate());
                reg.gauge("procdb_replica_live", &labels)
                    .set(st.live_replicas as f64);
                reg.gauge("procdb_replica_primary", &labels)
                    .set(st.primary_replica as f64);
                reg.gauge("procdb_replica_max_lag", &labels)
                    .set(st.max_replica_lag as f64);
                reg.gauge("procdb_replica_epoch", &labels)
                    .set(st.epoch as f64);
                if let Some(vf) = st.valid_fraction {
                    reg.gauge("procdb_ci_valid_fraction", &labels).set(vf);
                }
            }
        }
        reg.render_prometheus()
    }

    /// How many spans `explain` dumps per procedure.
    const SPAN_DUMP_LIMIT: usize = 10;

    /// EXPLAIN a view: the precompiled plan, plus the most recent spans
    /// touching this procedure in the retained traces (`explain
    /// analyze`, sampled requests) — accesses and recomputes with their
    /// predicted/observed costs.
    pub fn explain(&self, view: &str) -> Result<String, SessionError> {
        let idx = self.view_index(view)?;
        let def = &self.views[idx].1;
        let mut out = def.to_plan().explain();
        let traces = procdb_obs::global().finished_traces();
        let spans: Vec<_> = (traces.into_iter().flat_map(|t| t.spans))
            .filter(|e| e.field("proc") == Some(idx as f64))
            .collect();
        let recent = &spans[spans.len().saturating_sub(Self::SPAN_DUMP_LIMIT)..];
        if !recent.is_empty() {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("recent spans (oldest first):\n");
            for s in recent {
                out.push_str(&s.render());
                out.push('\n');
            }
        }
        Ok(out)
    }

    /// Pretty row rendering, one line per row: the first `limit` rows
    /// (only those are decoded), then `... N more` for the rest.
    pub fn render_rows<R: RenderRows + ?Sized>(&self, rows: &R, limit: usize) -> String {
        let mut out = String::new();
        write_rows(&mut out, rows, limit);
        out
    }

    /// The body of an `access` response: a header line, then the first
    /// 20 rows, without a trailing newline. Every path that answers an
    /// `access` — the shared read, the exclusive build and the front
    /// cache that stores it — sends this text.
    pub fn render_access(&self, rows: &RowBatch, ms: f64) -> String {
        let mut out = format!("{} rows in {ms:.1} model-ms:\n", rows.len());
        write_rows(&mut out, rows, ACCESS_ROWS_SHOWN);
        out.truncate(out.trim_end_matches('\n').len());
        out
    }

    /// Summary of the table used by `show tables`.
    pub fn table_summary(&self, name: &str) -> Result<String, SessionError> {
        let t = self.table(name)?;
        let org = match t.org {
            Organization::BTree { key_field } => {
                format!("btree on {}", t.schema.fields()[key_field].name)
            }
            Organization::Hash { key_field } => {
                format!("hash on {}", t.schema.fields()[key_field].name)
            }
            Organization::Heap => "heap".to_string(),
        };
        // The base table's rows live in the engine once it is built.
        let rows = match self.engine.as_ref() {
            Some(engine) if self.tables[0].name == name => {
                engine.shard_stats().iter().map(|st| st.r1_rows).sum()
            }
            _ => t.rows.len() as u64,
        };
        Ok(format!("{} ({rows} rows, {org})", t.name))
    }
}

fn write_rows<R: RenderRows + ?Sized>(out: &mut String, rows: &R, limit: usize) {
    let n = rows.row_count();
    for i in 0..n.min(limit) {
        out.push_str("  (");
        for (j, v) in rows.row(i).iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = match v {
                Value::Int(x) => write!(out, "{x}"),
                Value::Bytes(b) => {
                    let end = b.iter().position(|&c| c == 0).unwrap_or(b.len());
                    write!(out, "{:?}", String::from_utf8_lossy(&b[..end]))
                }
            };
        }
        out.push_str(")\n");
    }
    if n > limit {
        let _ = writeln!(out, "  ... {} more", n - limit);
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

// Connection threads share one `Session` behind a readers-writer lock.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_session() -> Session {
        let mut s = Session::new();
        s.create_table(
            "EMP",
            Schema::new(vec![
                ("eid", FieldType::Int),
                ("dept", FieldType::Int),
                ("job", FieldType::Bytes(8)),
            ]),
            Organization::BTree { key_field: 0 },
        )
        .unwrap();
        s.create_table(
            "DEPT",
            Schema::new(vec![("dname", FieldType::Int), ("floor", FieldType::Int)]),
            Organization::Hash { key_field: 0 },
        )
        .unwrap();
        for d in 0..4i64 {
            s.insert("DEPT", vec![Value::Int(d), Value::Int(d % 2)])
                .unwrap();
        }
        for i in 0..40i64 {
            s.insert(
                "EMP",
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Bytes(b"w".to_vec()),
                ],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn create_insert_define_access() {
        let mut s = demo_session();
        let name = s
            .define_view(
                "define view F0 (EMP.all, DEPT.all) \
                 where EMP.dept = DEPT.dname and DEPT.floor = 0",
            )
            .unwrap();
        assert_eq!(name, "F0");
        let (rows, ms) = s.access("F0").unwrap();
        assert_eq!(rows.len(), 20); // depts 0, 2 are floor 0
        assert!(ms > 0.0);
    }

    /// Building and warming an engine is set-up, not workload: a built
    /// session that has served nothing reports no buffer hits or faults.
    #[test]
    fn set_up_traffic_stays_out_of_the_buffer_hit_ratio() {
        for kind in [StrategyKind::CacheInvalidate, StrategyKind::UpdateCacheRvm] {
            let mut s = demo_session();
            s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
                .unwrap();
            s.set_strategy(kind).unwrap();
            s.ensure_backend().unwrap();
            let text = s.shards_text();
            assert!(
                text.contains(" hits=0 faults=0 hit_ratio=0.0000 "),
                "{kind}: {text}"
            );
        }
    }

    /// The CLI sequence `fault inject --seed 7 --io-writes 1
    /// --include-uncharged`, `update 2 -> 50`, `fault off`, `access V`:
    /// the update's base mutation fails on its first write, and the
    /// access after it must be priced again, not answer "0.0 model-ms".
    #[test]
    fn a_failed_base_mutation_leaves_the_pager_charging() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        let (_, priced) = s.access("V").unwrap();
        assert!(priced > 0.0);
        let line = "fault inject --seed 7 --io-writes 1 --include-uncharged";
        let Ok(Some(crate::Command::Fault(op))) = crate::parse(line) else {
            panic!("{line} parses");
        };
        s.fault(op).unwrap();
        assert!(s.update(2, 50).is_err(), "every page write faults");
        s.fault(Injection::Off).unwrap();
        let (rows, ms) = s.access("V").unwrap();
        assert_eq!(rows.len(), 10);
        assert!(ms > 0.0, "the access after a failed update was not charged");
    }

    /// A fired kill point is a crash: `fault off` must not lift it, or
    /// `recover` would answer "not crashed" and skip recovery.
    #[test]
    fn fault_off_refuses_while_a_kill_latch_is_set() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.fault(Injection::Inject(
            FaultPlan::new(1).kill_at(1).include_uncharged(),
        ))
        .unwrap();
        assert!(s.access("V").is_err(), "the kill point fired");
        let err = s.fault(Injection::Off).unwrap_err();
        assert!(
            err.contains("shard 0") && err.contains("'recover'"),
            "{err}"
        );
        let text = s.recover(None).unwrap();
        assert!(text.contains("shard 0 recovered"), "{text}");
        s.fault(Injection::Off).unwrap();
        let (rows, _) = s.access("V").unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn strategy_switch_preserves_answers() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        let (rows_ar, _) = s.access("V").unwrap();
        for kind in [
            StrategyKind::CacheInvalidate,
            StrategyKind::UpdateCacheAvm,
            StrategyKind::UpdateCacheRvm,
        ] {
            s.set_strategy(kind).unwrap();
            let (rows, _) = s.access("V").unwrap();
            assert_eq!(rows.len(), rows_ar.len(), "{kind}");
        }
    }

    #[test]
    fn updates_flow_through_live_engine() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::UpdateCacheRvm).unwrap();
        assert_eq!(s.access("V").unwrap().0.len(), 10);
        let (n, _) = s.update(15, 99).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.access("V").unwrap().0.len(), 9);
        // A strategy switch (rebuild) takes the rows back from the engine,
        // so it sees the same data.
        s.set_strategy(StrategyKind::AlwaysRecompute).unwrap();
        assert_eq!(s.access("V").unwrap().0.len(), 9);
    }

    #[test]
    fn inserts_after_engine_build_are_maintained() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::UpdateCacheAvm).unwrap();
        assert_eq!(s.access("V").unwrap().0.len(), 10);
        s.insert(
            "EMP",
            vec![Value::Int(12), Value::Int(1), Value::Bytes(b"x".to_vec())],
        )
        .unwrap();
        assert_eq!(s.access("V").unwrap().0.len(), 11);
    }

    #[test]
    fn errors_are_descriptive() {
        let mut s = Session::new();
        assert!(s.access("nope").is_err());
        assert!(s
            .create_table(
                "T",
                Schema::new(vec![("x", FieldType::Bytes(4))]),
                Organization::BTree { key_field: 0 }
            )
            .is_err());
        s.create_table(
            "T",
            Schema::new(vec![("x", FieldType::Int)]),
            Organization::BTree { key_field: 0 },
        )
        .unwrap();
        assert!(
            s.create_table(
                "T",
                Schema::new(vec![("x", FieldType::Int)]),
                Organization::Heap
            )
            .is_err(),
            "duplicate table"
        );
        assert!(s.insert("T", vec![]).is_err(), "arity");
        assert!(s.define_view("define view V (NOPE.all)").is_err());
    }

    #[test]
    fn explain_and_summaries() {
        let mut s = demo_session();
        s.define_view("define view F0 (EMP.all, DEPT.all) where EMP.dept = DEPT.dname")
            .unwrap();
        assert!(s.explain("F0").unwrap().contains("HashJoin"));
        assert!(s.table_summary("EMP").unwrap().contains("btree on eid"));
        assert!(s.table_summary("DEPT").unwrap().contains("hash on dname"));
        let rows = [vec![Value::Int(1), Value::Bytes(b"hi\0\0".to_vec())]];
        let rendered = s.render_rows(&rows[..], 5);
        assert!(rendered.contains("1, \"hi\""));
    }

    #[test]
    fn shared_access_escalates_then_serves() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        // No engine yet: the shared path asks the caller to escalate.
        assert_eq!(s.access_shared("V").unwrap(), None);
        s.prepare().unwrap();
        let (rows, ms) = s.access_shared("V").unwrap().expect("engine is live");
        assert_eq!(rows.len(), 10);
        assert!(ms > 0.0);
        // Unknown views fail on either path.
        assert!(s.access_shared("nope").is_err());
    }

    #[test]
    fn shared_access_serves_refreshed_rows_after_an_invalidating_update() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::CacheInvalidate).unwrap();
        s.prepare().unwrap();
        assert_eq!(s.access_shared("V").unwrap().unwrap().0.len(), 10);
        // A conflicting update invalidates the cached value; the refill
        // happens inside the shard, so the shared path still serves.
        let (n, _) = s.update_shared(15, 99).unwrap().expect("engine is live");
        assert_eq!(n, 1);
        let (rows, _) = s.access_shared("V").unwrap().expect("engine is live");
        assert_eq!(rows.len(), 9);
        let rows = rows.decode();
        assert!(rows.iter().all(|r| r[0] != Value::Int(15)), "{rows:?}");
    }

    #[test]
    fn one_shard_session_matches_a_bare_engine_row_for_row() {
        for kind in [
            StrategyKind::AlwaysRecompute,
            StrategyKind::CacheInvalidate,
            StrategyKind::UpdateCacheAvm,
            StrategyKind::UpdateCacheRvm,
        ] {
            let mut s = demo_session();
            s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 29")
                .unwrap();
            s.define_view(
                "define view F0 (EMP.all, DEPT.all) \
                 where EMP.dept = DEPT.dname and DEPT.floor = 0",
            )
            .unwrap();
            s.set_strategy(kind).unwrap();
            assert_eq!((s.shards(), s.replicas()), (1, 1));
            // The oracle: one bare engine over the same declared data.
            let mut oracle = s
                .build_engine(0, &s.tables()[0].rows, 0, Role::Primary)
                .unwrap();
            oracle.warm_up().unwrap();
            let compare = |s: &mut Session, oracle: &mut Engine, step: &str| {
                for (i, view) in ["V", "F0"].into_iter().enumerate() {
                    let (rows, _) = s.access(view).unwrap();
                    assert_eq!(
                        rows,
                        oracle.access(i).unwrap().decode(),
                        "{kind} {view} after {step}: rows or their order differ"
                    );
                }
            };
            compare(&mut s, &mut oracle, "build");
            // Re-keys out of, into, and within V's window.
            for (victim, new_key) in [(15, 99), (3, 17), (20, 11), (500, 501)] {
                let (n, _) = s.update(victim, new_key).unwrap();
                assert_eq!(n, oracle.apply_update(&[(victim, new_key)]).unwrap());
                compare(&mut s, &mut oracle, "re-key");
            }
            // Inserts, including a duplicate key.
            for eid in [12, 12, 45] {
                let row = vec![
                    Value::Int(eid),
                    Value::Int(eid % 4),
                    Value::Bytes(b"n".to_vec()),
                ];
                oracle
                    .apply_insert(&[s.tables()[0].schema.normalize(&row)])
                    .unwrap();
                s.insert("EMP", row).unwrap();
                compare(&mut s, &mut oracle, "insert");
            }
            // The engine's base rows come back in the bare engine's order.
            assert_eq!(
                s.scan_base().unwrap(),
                oracle.catalog().get("EMP").unwrap().scan_all().unwrap(),
                "{kind}: base table"
            );
        }
    }

    #[test]
    fn rows_have_one_owner_at_a_time() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        assert_eq!(s.tables()[0].rows.len(), 40, "declared table owns them");
        s.prepare().unwrap();
        assert!(s.tables()[0].rows.is_empty(), "moved into the engine");
        assert_eq!(s.tables()[1].rows.len(), 4, "inner tables keep theirs");
        assert_eq!(s.scan_base().unwrap().len(), 40);
        assert!(s.table_summary("EMP").unwrap().contains("40 rows"));
        s.update(15, 99).unwrap();
        // A rebuild hands them back, updates included.
        s.set_shards(3).unwrap();
        let base = &s.tables()[0];
        let rows = base.rows.decode(&base.schema);
        assert_eq!(rows.len(), 40);
        assert!(rows.iter().any(|r| r[0] == Value::Int(99)));
        assert!(!rows.iter().any(|r| r[0] == Value::Int(15)));
        assert_eq!(s.access("V").unwrap().0.len(), 9);
    }

    #[test]
    fn stats_include_advisor_pick() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        // Before any access the advisor has no conflict rate: dash.
        assert!(s.stats_text().contains("advisor -"), "{}", s.stats_text());
        // Read-only workload: maintaining a cache is free, so the
        // advisor must pick an Update Cache flavor.
        for _ in 0..3 {
            s.access("V").unwrap();
        }
        let text = s.stats_text();
        assert!(text.contains("advisor UpdateCache"), "{text}");
    }

    #[test]
    fn metrics_text_renders_global_registry() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::CacheInvalidate).unwrap();
        s.access("V").unwrap();
        let text = s.metrics_text();
        assert!(text.contains("procdb_engine_accesses_total"), "{text}");
        assert!(text.contains("procdb_pager_reads_total"), "{text}");
        assert!(text.contains("procdb_session_cost_ms"), "{text}");
        assert!(text.contains("procdb_ci_valid_fraction"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn explain_appends_spans_when_tracing() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        let reg = procdb_obs::global();
        {
            let _ctx = reg.install_context(reg.force_trace());
            let _root = procdb_obs::span!(reg, "test.request");
            s.access("V").unwrap();
        }
        let text = s.explain("V").unwrap();
        assert!(text.contains("recent spans (oldest first):"), "{text}");
        assert!(text.contains("access"), "{text}");
        assert!(text.contains("observed_ms"), "{text}");
    }

    #[test]
    fn stats_count_accesses_and_conflicts() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.define_view("define view W (EMP.all) where EMP.eid >= 30 and EMP.eid <= 39")
            .unwrap();
        s.access("V").unwrap();
        s.access("V").unwrap();
        s.access("W").unwrap();
        // Re-keys 15 -> 12: inside V's window, outside W's.
        s.update(15, 12).unwrap();
        // Misses entirely (no tuple with key 500).
        s.update(500, 501).unwrap();
        let text = s.stats_text();
        assert!(text.contains("operations: 5"), "{text}");
        assert!(
            text.contains("V: 2 accesses, 1 conflicting updates"),
            "{text}"
        );
        assert!(
            text.contains("W: 1 accesses, 0 conflicting updates"),
            "{text}"
        );
    }
}
