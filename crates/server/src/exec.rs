//! Shared command execution: turn a parsed [`Command`] into text output
//! against a [`Session`]. The interactive shell prints the text; the
//! server writes it as data lines followed by an `ok`/`err` terminator.
//!
//! Execution never panics on user input — every failure path is an
//! `Err(String)` (the shell prints `error: …`, the server sends
//! `err …` and keeps the connection alive).

use crate::command::{Command, HELP};
use crate::session::Session;

/// Result of executing one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Command ran; display this text (possibly empty, possibly
    /// multi-line, no trailing newline guarantees).
    Text(String),
    /// `quit` — end the session/connection.
    Quit,
}

impl Outcome {
    fn text(s: impl Into<String>) -> Outcome {
        Outcome::Text(s.into())
    }
}

/// Execute one command against the session.
///
/// `Command::Serve` is rejected here: only the interactive shell may
/// promote its session to a server (the server itself refuses nested
/// `serve` over the wire).
pub fn execute(session: &mut Session, cmd: Command) -> Result<Outcome, String> {
    let out = match cmd {
        Command::Quit => return Ok(Outcome::Quit),
        Command::Help => Outcome::text(HELP),
        Command::CreateTable { name, schema, org } => {
            session.create_table(&name, schema, org)?;
            Outcome::text(format!("table {name} created"))
        }
        Command::Insert { table, row } => {
            session.insert(&table, row)?;
            Outcome::text("")
        }
        Command::DefineView(stmt) => {
            let name = session.define_view(&stmt)?;
            Outcome::text(format!("view {name} defined"))
        }
        Command::Strategy(kind) => {
            session.set_strategy(kind)?;
            Outcome::text(format!(
                "strategy set to {kind} (engine rebuilds on next access)"
            ))
        }
        Command::Access(view) => {
            let (rows, ms) = session.access_batch(&view)?;
            Outcome::Text(session.render_access(&rows, ms))
        }
        Command::Update(victim, new_key) => {
            let (n, ms) = session.update(victim, new_key)?;
            Outcome::text(format!(
                "{n} tuple(s) re-keyed {victim} -> {new_key}; maintenance {ms:.1} model-ms"
            ))
        }
        Command::Explain(view) => {
            Outcome::Text(session.explain(&view)?.trim_end_matches('\n').to_string())
        }
        Command::ExplainAnalyze(inner) => return explain_analyze(session, &inner),
        Command::Show => {
            let mut s = format!("strategy: {}\n", session.strategy());
            for summary in session
                .tables()
                .iter()
                .map(|t| t.name.clone())
                .collect::<Vec<_>>()
            {
                match session.table_summary(&summary) {
                    Ok(line) => s.push_str(&format!("  {line}\n")),
                    Err(e) => s.push_str(&format!("  {summary}: {e}\n")),
                }
            }
            let views: Vec<&str> = session.views().collect();
            s.push_str(&format!(
                "  views: {}",
                if views.is_empty() {
                    "(none)".to_string()
                } else {
                    views.join(", ")
                }
            ));
            Outcome::Text(s)
        }
        Command::Costs => Outcome::text(format!(
            "total charged: {:.1} model-ms",
            session.total_cost_ms()
        )),
        Command::Stats => Outcome::Text(session.stats_text().trim_end().to_string()),
        Command::Metrics => Outcome::Text(session.metrics_text().trim_end().to_string()),
        Command::TraceSample(n) => {
            procdb_obs::global().set_trace_sample(n);
            Outcome::text(match n {
                0 => "request tracing off".to_string(),
                1 => "tracing every request".to_string(),
                n => format!("tracing 1 request in {n}"),
            })
        }
        Command::TraceSlow(us) => {
            procdb_obs::global().set_slow_threshold_us(us as f64);
            Outcome::text(format!(
                "slow-query threshold set to {us}us (0 retains every sampled request)"
            ))
        }
        Command::Fault(op) => Outcome::Text(session.fault(op)?),
        Command::Chaos(op) => Outcome::Text(session.chaos(op)?),
        Command::Cache(true) => Outcome::Text(session.cache_on()?),
        Command::Cache(false) => Outcome::Text(session.cache_off()?),
        Command::CacheStats => Outcome::Text(session.cache_stats_text()?),
        Command::Crash(shard) => Outcome::Text(session.crash(shard)?),
        Command::Recover(shard) => Outcome::Text(session.recover(shard)?),
        Command::Shards(Some(n)) => {
            session.set_shards(n)?;
            Outcome::text(format!(
                "shards set to {n} (engine rebuilds on next access)"
            ))
        }
        Command::Shards(None) => Outcome::Text(session.shards_text()),
        Command::Replicas(Some(r)) => {
            session.set_replicas(r)?;
            Outcome::text(format!(
                "replicas set to {r} per shard (engine rebuilds on next access)"
            ))
        }
        Command::Replicas(None) => {
            Outcome::text(format!("replicas: {} per shard", session.replicas()))
        }
        Command::Call { name, args } => {
            let outcome =
                crate::procedures::ProcedureRegistry::global().call(session, &name, &args)?;
            Outcome::Text(outcome.render(session))
        }
        Command::Promote(shard) => Outcome::Text(session.promote(shard)?),
        Command::Resync(shard) => Outcome::Text(session.resync(shard)?),
        Command::Serve { .. } => {
            return Err("serve is only available from the interactive shell".to_string())
        }
    };
    Ok(out)
}

/// `explain analyze COMMAND`: run the inner command under a forced
/// trace context (bypassing the sampler) and append the finalized span
/// tree — per-layer timings, shard/role tags, predicted-vs-observed
/// cost fields — to its output. The tree is also retained in the trace
/// store, so `call db.trace(ID)` returns it again after the fact.
fn explain_analyze(session: &mut Session, inner: &str) -> Result<Outcome, String> {
    let cmd = crate::command::parse(inner)?
        .ok_or_else(|| "explain analyze: empty command".to_string())?;
    match cmd {
        Command::ExplainAnalyze(_) => {
            return Err("explain analyze does not nest".to_string());
        }
        Command::Quit | Command::Serve { .. } => {
            return Err(format!("cannot explain analyze {inner:?}"));
        }
        _ => {}
    }
    let reg = procdb_obs::global();
    let ctx = reg.force_trace();
    let trace_id = ctx.trace_id;
    let result = {
        // The installed context makes spans record even with sampling
        // off; the root span carries the same name as a served request
        // so the tree shape matches what the slow-query log retains.
        let _ctx = reg.install_context(ctx);
        let _root = procdb_obs::span!(reg, "wire.request", analyze = 1);
        execute(session, cmd)
    };
    let inner_text = match result? {
        Outcome::Text(t) => t,
        Outcome::Quit => String::new(),
    };
    let mut out = String::new();
    if !inner_text.trim().is_empty() {
        out.push_str(inner_text.trim_end_matches('\n'));
        out.push_str("\n\n");
    }
    match reg.find_trace(trace_id) {
        Some(tree) => out.push_str(&tree.render()),
        None => out.push_str(&format!("trace {trace_id} was not retained")),
    }
    Ok(Outcome::Text(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::parse;

    fn run(session: &mut Session, line: &str) -> Result<Outcome, String> {
        let cmd = parse(line)?.ok_or_else(|| "blank".to_string())?;
        execute(session, cmd)
    }

    #[test]
    fn script_through_executor() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        run(
            &mut s,
            "create table DEPT (dname int, floor int) hash dname",
        )
        .unwrap();
        for i in 0..10 {
            run(&mut s, &format!("insert EMP ({i}, {})", i % 2)).unwrap();
        }
        run(&mut s, "insert DEPT (0, 1)").unwrap();
        run(&mut s, "insert DEPT (1, 2)").unwrap();
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        )
        .unwrap();
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("4 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "update 3 -> 99").unwrap() else {
            panic!()
        };
        assert!(t.contains("1 tuple(s) re-keyed"), "{t}");
        let Outcome::Text(t) = run(&mut s, "show").unwrap() else {
            panic!()
        };
        assert!(
            t.contains("strategy: always-recompute") || t.contains("strategy:"),
            "{t}"
        );
        assert!(t.contains("EMP (10 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "stats").unwrap() else {
            panic!()
        };
        assert!(t.contains("V: 1 accesses, 1 conflicting updates"), "{t}");
        assert_eq!(run(&mut s, "quit").unwrap(), Outcome::Quit);
    }

    #[test]
    fn chaos_knobs_through_executor() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..10 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        )
        .unwrap();
        run(&mut s, "access V").unwrap();
        // A 100%-failure window: every charged access errors, but the
        // session survives and reports it.
        run(&mut s, "fault inject --io-reads 1 --io-writes 1").unwrap();
        assert!(run(&mut s, "access V").is_err());
        let Outcome::Text(t) = run(&mut s, "fault status").unwrap() else {
            panic!()
        };
        assert!(t.contains("io failures"), "{t}");
        run(&mut s, "fault off").unwrap();
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("4 rows"), "{t}");
        // A crash/recover cycle, then normal service.
        let Outcome::Text(t) = run(&mut s, "crash").unwrap() else {
            panic!()
        };
        assert!(t.contains("all 1 shards crashed"), "{t}");
        let Outcome::Text(t) = run(&mut s, "recover").unwrap() else {
            panic!()
        };
        assert!(t.contains("shard 0 recovered (epoch 1)"), "{t}");
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("4 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "stats").unwrap() else {
            panic!()
        };
        assert!(t.contains("shard 0:"), "{t}");
        assert!(t.contains("crash epoch 1"), "{t}");
        assert!(t.contains("last recovery replayed 0 WAL records"), "{t}");
        // Cache & Invalidate adds its validity-WAL sizes to the line.
        run(&mut s, "strategy ci").unwrap();
        run(&mut s, "access V").unwrap();
        let Outcome::Text(t) = run(&mut s, "stats").unwrap() else {
            panic!()
        };
        assert!(t.contains("validity WAL "), "{t}");
        assert!(t.contains(" past checkpoint)"), "{t}");
    }

    #[test]
    fn failed_read_back_keeps_engine_and_committed_rekeys() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..10 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        )
        .unwrap();
        run(&mut s, "update 3 -> 99").unwrap();
        // With every read failing — uncharged ones included — a rebuild
        // cannot take the rows back from the engine: the command must
        // fail and leave the engine, and the committed re-key, in place.
        run(&mut s, "fault inject --io-reads 1 --include-uncharged").unwrap();
        let err = run(&mut s, "strategy avm").unwrap_err();
        assert!(err.contains("injected I/O failure"), "{err}");
        for ddl in ["shards 2", "replicas 2", "create table T (x int) hash x"] {
            let err = run(&mut s, ddl).unwrap_err();
            assert!(err.contains("injected I/O failure"), "{ddl}: {err}");
        }
        assert_eq!(s.strategy(), procdb_core::StrategyKind::AlwaysRecompute);
        assert_eq!((s.shards(), s.replicas(), s.tables().len()), (1, 1, 1));
        run(&mut s, "fault off").unwrap();
        run(&mut s, "strategy avm").unwrap();
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("3 rows"), "{t}");
        assert!(!t.contains("(3, 0)"), "re-key lost by the rebuild: {t}");
        let base = s.scan_base().unwrap();
        assert_eq!(base.len(), 10);
        assert!(base.iter().any(|r| r[0] == procdb_query::Value::Int(99)));
    }

    #[test]
    fn sharded_script_through_executor() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..20 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 9",
        )
        .unwrap();
        let Outcome::Text(t) = run(&mut s, "shards 3").unwrap() else {
            panic!()
        };
        assert!(t.contains("shards set to 3"), "{t}");
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("8 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "update 3 -> 99").unwrap() else {
            panic!()
        };
        assert!(t.contains("1 tuple(s) re-keyed"), "{t}");
        // One shard crashes; the others keep serving, recovery is
        // per-shard, and the cluster then answers correctly.
        let Outcome::Text(t) = run(&mut s, "crash 1").unwrap() else {
            panic!()
        };
        assert!(t.contains("shard 1 crashed"), "{t}");
        let Outcome::Text(t) = run(&mut s, "recover 1").unwrap() else {
            panic!()
        };
        assert!(t.contains("shard 1 recovered"), "{t}");
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("7 rows"), "{t}"); // 3 re-keyed out of range
        let Outcome::Text(t) = run(&mut s, "shards").unwrap() else {
            panic!()
        };
        assert!(t.starts_with("shards: 3"), "{t}");
        assert!(t.contains("shard 0: accesses="), "{t}");
        // 20 keys split in three at the quantiles 6 and 13; key 3 has
        // since moved to 99, on the last shard.
        assert!(t.contains("r1_rows=5 key_range=[-inf,6)"), "{t}");
        assert!(t.contains("key_range=[6,13)"), "{t}");
        assert!(t.contains("key_range=[13,+inf)"), "{t}");
        assert!(t.contains("hit_ratio="), "{t}");
        let Outcome::Text(t) = run(&mut s, "stats").unwrap() else {
            panic!()
        };
        assert!(t.contains("shards: 3"), "{t}");
        assert!(t.contains("buffer hit ratio"), "{t}");
        // Out-of-range shard selection is an error, not a panic.
        assert!(run(&mut s, "crash 9").is_err());
        assert!(run(&mut s, "recover 9").is_err());
    }

    #[test]
    fn replicated_script_through_executor() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..20 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 9",
        )
        .unwrap();
        run(&mut s, "shards 2").unwrap();
        let Outcome::Text(t) = run(&mut s, "replicas 2").unwrap() else {
            panic!()
        };
        assert!(t.contains("replicas set to 2"), "{t}");
        let Outcome::Text(t) = run(&mut s, "replicas").unwrap() else {
            panic!()
        };
        assert!(t.contains("replicas: 2 per shard"), "{t}");
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("8 rows"), "{t}");
        run(&mut s, "update 3 -> 99").unwrap();
        // Primary crash is survived by promotion: the very next access
        // answers without any recover step in between.
        let Outcome::Text(t) = run(&mut s, "crash 0").unwrap() else {
            panic!()
        };
        assert!(t.contains("promoted"), "{t}");
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("7 rows"), "{t}"); // 3 re-keyed out of range
                                              // The ex-primary rejoins via recover (which resyncs it).
        let Outcome::Text(t) = run(&mut s, "recover 0").unwrap() else {
            panic!()
        };
        assert!(t.contains("shard 0"), "{t}");
        // A forced promotion fails back over; service continues.
        let Outcome::Text(t) = run(&mut s, "promote 0").unwrap() else {
            panic!()
        };
        assert!(t.contains("promoted"), "{t}");
        let Outcome::Text(t) = run(&mut s, "resync 0").unwrap() else {
            panic!()
        };
        assert!(
            t.contains("replayed") || t.contains("full rebuild") || t.contains("nothing to resync"),
            "{t}"
        );
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("7 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "stats").unwrap() else {
            panic!()
        };
        assert!(t.contains("replicas: 2 per shard"), "{t}");
        assert!(t.contains("primary"), "{t}");
        assert!(t.contains("lag"), "{t}");
        let Outcome::Text(t) = run(&mut s, "shards").unwrap() else {
            panic!()
        };
        assert!(t.contains("replicas=2"), "{t}");
        assert!(t.contains("failovers="), "{t}");
        assert!(t.contains("replica 0.0:"), "{t}");
        let Outcome::Text(t) = run(&mut s, "metrics").unwrap() else {
            panic!()
        };
        assert!(t.contains("procdb_replica_count 2"), "{t}");
        assert!(t.contains("procdb_shard_partials_total"), "{t}");
        assert!(t.contains("procdb_failover_total"), "{t}");
        // Promotion/resync on an unreplicated session is an error.
        let mut single = Session::new();
        run(
            &mut single,
            "create table EMP (eid int, dept int) btree eid",
        )
        .unwrap();
        assert!(run(&mut single, "promote 0").is_err());
        assert!(run(&mut single, "resync").is_err());
        assert!(run(&mut single, "replicas 0").is_err());
    }

    #[test]
    fn message_chaos_through_executor() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..20 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 9",
        )
        .unwrap();
        // Chaos needs a replicated backend.
        assert!(run(&mut s, "chaos inject --drop 0.5").is_err());
        run(&mut s, "shards 2").unwrap();
        run(&mut s, "replicas 3").unwrap();
        let Outcome::Text(t) = run(&mut s, "chaos inject --seed 9 --dup 1 --reorder 0.5").unwrap()
        else {
            panic!()
        };
        assert!(t.contains("seed 9"), "{t}");
        assert!(t.contains("installed"), "{t}");
        // Writes flow under chaos; duplicates are suppressed, reorders
        // re-sequenced, so reads answer exactly.
        run(&mut s, "update 3 -> 99").unwrap();
        run(&mut s, "update 5 -> 98").unwrap();
        let Outcome::Text(t) = run(&mut s, "access V").unwrap() else {
            panic!()
        };
        assert!(t.contains("6 rows"), "{t}");
        let Outcome::Text(t) = run(&mut s, "chaos status").unwrap() else {
            panic!()
        };
        assert!(t.contains("duplicated"), "{t}");
        let Outcome::Text(t) = run(&mut s, "chaos off").unwrap() else {
            panic!()
        };
        assert!(t.contains("chaos off"), "{t}");
        let Outcome::Text(t) = run(&mut s, "chaos status").unwrap() else {
            panic!()
        };
        assert!(t.contains("no chaos plan installed"), "{t}");
        // The machine shard status carries the failure-containment
        // columns either way.
        let Outcome::Text(t) = run(&mut s, "shards").unwrap() else {
            panic!()
        };
        assert!(t.contains("epoch="), "{t}");
        assert!(t.contains("fenced="), "{t}");
        assert!(t.contains("breaker=closed"), "{t}");
    }

    #[test]
    fn serve_is_rejected_by_the_executor() {
        let mut s = Session::new();
        assert!(run(&mut s, "serve --port 1").is_err());
    }

    #[test]
    fn explain_analyze_renders_the_span_tree() {
        let mut s = Session::new();
        run(&mut s, "create table EMP (eid int, dept int) btree eid").unwrap();
        for i in 0..6 {
            run(&mut s, &format!("insert EMP ({i}, 0)")).unwrap();
        }
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 0 and EMP.eid <= 3",
        )
        .unwrap();
        let Outcome::Text(t) = run(&mut s, "explain analyze access V").unwrap() else {
            panic!()
        };
        // The inner command's own output first, then the tree: a root
        // wire span over the session span over the engine access span
        // with its predicted-vs-observed costs.
        assert!(t.contains("4 rows"), "{t}");
        assert!(t.contains("trace "), "{t}");
        assert!(t.contains("wire.request"), "{t}");
        assert!(t.contains("session.access"), "{t}");
        assert!(t.contains("observed_ms="), "{t}");
        assert!(t.contains("predicted_ms="), "{t}");
        // The header's trace id is queryable after the fact.
        let tid: u64 = t
            .lines()
            .find(|l| l.starts_with("trace "))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .parse()
            .unwrap();
        let Outcome::Text(replay) = run(&mut s, &format!("call db.trace({tid})")).unwrap() else {
            panic!()
        };
        assert!(replay.contains("wire.request"), "{replay}");
        // Nesting and un-analyzable commands are rejected.
        assert!(run(&mut s, "explain analyze explain analyze access V").is_err());
        assert!(run(&mut s, "explain analyze quit").is_err());
        assert!(run(&mut s, "explain analyze serve").is_err());
    }

    #[test]
    fn trace_sample_and_slow_commands_set_the_registry() {
        let mut s = Session::new();
        let reg = procdb_obs::global();
        let before = reg.trace_sample();
        let Outcome::Text(t) = run(&mut s, "trace sample 128").unwrap() else {
            panic!()
        };
        assert!(t.contains("128"), "{t}");
        assert_eq!(reg.trace_sample(), 128);
        run(&mut s, "trace slow 2500").unwrap();
        assert_eq!(reg.slow_threshold_us(), 2500.0);
        run(&mut s, &format!("trace sample {before}")).unwrap();
        run(&mut s, "trace slow 1000").unwrap();
    }

    #[test]
    fn errors_surface_not_panic() {
        let mut s = Session::new();
        assert!(run(&mut s, "access NOPE").is_err());
        assert!(run(&mut s, "insert NOPE (1)").is_err());
        assert!(run(&mut s, "explain NOPE").is_err());
        assert!(run(&mut s, "update 1 -> 2").is_err(), "no tables declared");
    }
}
