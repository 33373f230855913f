//! Built-in procedures: the paper's `P1`/`P2` as parameterized callables
//! plus the `db.*` introspection family.
//!
//! `P1(lo, hi)` is the paper's selection procedure — a window on the
//! base relation's clustering key — generalized so the window arrives as
//! IN arguments instead of being baked into a view definition.
//! `P2(lo, hi)` extends the selection with the paper's one-join shape:
//! each selected base tuple probes the second-declared table on its
//! hash/B-tree key. Both return the matched tuples as rows and report
//! `matched`/`scanned` OUT parameters.
//!
//! The `db.*` procedures bypass the planner entirely and answer from
//! session state: `db.views()`, `db.shards()`, `db.cache()`,
//! `db.stats()`, and `db.procedures()` (which lists every registered
//! signature).

use procdb_query::{Organization, Value};

use super::{CallOutcome, ParamMode, ParamSpec, ParamType, Procedure, ProcedureRegistry};
use crate::session::Session;

const IN_LO: ParamSpec = ParamSpec {
    name: "lo",
    ty: ParamType::Int,
    mode: ParamMode::In,
};
const IN_HI: ParamSpec = ParamSpec {
    name: "hi",
    ty: ParamType::Int,
    mode: ParamMode::In,
};
const OUT_MATCHED: ParamSpec = ParamSpec {
    name: "matched",
    ty: ParamType::Int,
    mode: ParamMode::Out,
};
const OUT_SCANNED: ParamSpec = ParamSpec {
    name: "scanned",
    ty: ParamType::Int,
    mode: ParamMode::Out,
};
const IN_TRACE_ID: ParamSpec = ParamSpec {
    name: "id",
    ty: ParamType::Int,
    mode: ParamMode::In,
};

/// Every built-in procedure, in registration order.
pub fn all() -> Vec<Procedure> {
    vec![
        Procedure {
            name: "P1",
            about: "selection window [lo, hi] on the base relation's key",
            params: &[IN_LO, IN_HI, OUT_MATCHED, OUT_SCANNED],
            handler: p1,
        },
        Procedure {
            name: "P2",
            about: "selection window joined to the second-declared relation",
            params: &[IN_LO, IN_HI, OUT_MATCHED, OUT_SCANNED],
            handler: p2,
        },
        Procedure {
            name: "db.views",
            about: "defined views and their shapes",
            params: &[],
            handler: db_views,
        },
        Procedure {
            name: "db.shards",
            about: "shard/replica topology and per-shard counters",
            params: &[],
            handler: db_shards,
        },
        Procedure {
            name: "db.cache",
            about: "front result cache: occupancy, hit ratio, per-shard invalidation lag",
            params: &[],
            handler: db_cache,
        },
        Procedure {
            name: "db.stats",
            about: "per-procedure workload statistics",
            params: &[],
            handler: db_stats,
        },
        Procedure {
            name: "db.procedures",
            about: "every registered procedure signature",
            params: &[],
            handler: db_procedures,
        },
        Procedure {
            name: "db.slow_queries",
            about: "retained slow-query traces, newest first",
            params: &[],
            handler: db_slow_queries,
        },
        Procedure {
            name: "db.trace",
            about: "the full span tree of one retained trace, by id",
            params: &[IN_TRACE_ID],
            handler: db_trace,
        },
    ]
}

fn int_arg(args: &[Value], i: usize) -> i64 {
    match args[i] {
        Value::Int(v) => v,
        // The registry type-checked before dispatch.
        _ => unreachable!("registry validated argument types"),
    }
}

/// Select base tuples whose key lies in `[lo, hi]`, sorted by key.
/// Returns `(selected rows, scanned count, key field)`.
fn select_window(
    session: &Session,
    lo: i64,
    hi: i64,
) -> Result<(Vec<procdb_query::Tuple>, usize, usize), String> {
    let key_field = session.base_key_field()?;
    let base = session.scan_base()?;
    let scanned = base.len();
    let mut rows: Vec<procdb_query::Tuple> = base
        .into_iter()
        .filter(|r| matches!(r.get(key_field), Some(Value::Int(k)) if (lo..=hi).contains(k)))
        .collect();
    rows.sort_by_key(|r| match r.get(key_field) {
        Some(Value::Int(k)) => *k,
        _ => i64::MAX,
    });
    Ok((rows, scanned, key_field))
}

fn p1(session: &Session, args: &[Value]) -> Result<CallOutcome, String> {
    let (lo, hi) = (int_arg(args, 0), int_arg(args, 1));
    let (rows, scanned, _) = select_window(session, lo, hi)?;
    Ok(CallOutcome {
        text: String::new(),
        out: vec![
            ("matched".to_string(), Value::Int(rows.len() as i64)),
            ("scanned".to_string(), Value::Int(scanned as i64)),
        ],
        rows,
    })
}

fn p2(session: &Session, args: &[Value]) -> Result<CallOutcome, String> {
    let (lo, hi) = (int_arg(args, 0), int_arg(args, 1));
    let inner = session
        .tables()
        .get(1)
        .ok_or_else(|| "P2 needs a second table to join".to_string())?;
    let inner_key = match inner.org {
        Organization::BTree { key_field } | Organization::Hash { key_field } => key_field,
        Organization::Heap => {
            return Err(format!("P2: table {} has no join key", inner.name));
        }
    };
    let (selected, scanned, base_key) = select_window(session, lo, hi)?;
    // Probe on the field the defined views join on, if any view has a
    // join step (the paper's Model-1 `P2` shape); otherwise the base key.
    let probe_field = session
        .view_defs()
        .iter()
        .find_map(|(_, v)| v.joins.first().map(|j| j.outer_key_field))
        .unwrap_or(base_key);
    let inner_rows = inner.rows.decode(&inner.schema);
    let mut rows = Vec::new();
    for outer in &selected {
        let Some(Value::Int(probe)) = outer.get(probe_field) else {
            continue;
        };
        for inner_row in &inner_rows {
            if matches!(inner_row.get(inner_key), Some(Value::Int(k)) if k == probe) {
                let mut combined = outer.clone();
                combined.extend(inner_row.iter().cloned());
                rows.push(combined);
            }
        }
    }
    Ok(CallOutcome {
        text: String::new(),
        out: vec![
            ("matched".to_string(), Value::Int(rows.len() as i64)),
            ("scanned".to_string(), Value::Int(scanned as i64)),
        ],
        rows,
    })
}

fn db_views(session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    let defs = session.view_defs();
    if defs.is_empty() {
        return Ok(CallOutcome::text("no views defined"));
    }
    let mut s = String::new();
    for (name, def) in defs {
        let joins = if def.joins.is_empty() {
            "no joins".to_string()
        } else {
            def.joins
                .iter()
                .map(|j| format!("join {} on field {}", j.inner, j.outer_key_field))
                .collect::<Vec<_>>()
                .join(", ")
        };
        s.push_str(&format!(
            "{name}: select on {} ({} term(s)), {joins}\n",
            def.base,
            def.selection.terms.len()
        ));
    }
    Ok(CallOutcome::text(s.trim_end()))
}

fn db_shards(session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    Ok(CallOutcome::text(session.shards_text().trim_end()))
}

fn db_cache(session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    let mut s = session.cache_stats_text()?;
    if let Some(cache) = session.cache() {
        for (name, rows, bytes) in cache.entries_overview() {
            s.push_str(&format!("\nentry {name}: rows={rows} bytes={bytes}"));
        }
    }
    Ok(CallOutcome::text(s.trim_end()))
}

fn db_stats(session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    Ok(CallOutcome::text(session.stats_text().trim_end()))
}

fn db_procedures(_session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    let mut s = String::new();
    for p in ProcedureRegistry::global().iter() {
        s.push_str(&format!("{} — {}\n", p.signature(), p.about));
    }
    Ok(CallOutcome::text(s.trim_end()))
}

fn db_slow_queries(_session: &Session, _args: &[Value]) -> Result<CallOutcome, String> {
    let slow = procdb_obs::global().slow_traces();
    if slow.is_empty() {
        return Ok(CallOutcome::text(
            "no slow queries retained (threshold: see 'trace slow MICROS')",
        ));
    }
    let mut s = String::new();
    for tree in slow.iter().rev() {
        s.push_str(&format!(
            "trace {} {} total {:.0}us spans {} — call db.trace({})\n",
            tree.trace_id,
            tree.root_name,
            tree.total_us,
            tree.spans.len(),
            tree.trace_id,
        ));
    }
    Ok(CallOutcome::text(s.trim_end()))
}

fn db_trace(_session: &Session, args: &[Value]) -> Result<CallOutcome, String> {
    let id = int_arg(args, 0);
    if id <= 0 {
        return Err(format!(
            "db.trace: id must be a positive trace id, got {id}"
        ));
    }
    match procdb_obs::global().find_trace(id as u64) {
        Some(tree) => Ok(CallOutcome::text(tree.render())),
        None => Err(format!(
            "db.trace: trace {id} is not retained (finished ring and slow log hold the most recent traces only)"
        )),
    }
}
