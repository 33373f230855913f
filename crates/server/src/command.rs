//! The command language: one command per line, shared by the
//! interactive shell and the wire protocol.
//!
//! ```text
//! create table EMP (eid int, dept int, job bytes 12) btree eid
//! create table DEPT (dname int, floor int) hash dname
//! insert EMP (1, 0, "Programmer")
//! define view PROGS (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and DEPT.floor = 1
//! strategy recompute | cache | avm | rvm
//! access PROGS
//! update 5 -> 99
//! explain PROGS
//! show
//! costs
//! stats
//! serve --port 7878 --max-conns 64
//! help
//! quit
//! ```
//!
//! Parsing never panics: every malformed line yields `Err(String)` with
//! a user-facing message, so a bad line can neither kill the shell nor
//! a server connection thread.

use procdb_core::StrategyKind;
use procdb_query::{FieldType, Organization, Schema, Value};
use procdb_shard::ChaosPlan;
use procdb_storage::FaultPlan;

/// What a `fault` or `chaos` command asks of its injector.
#[derive(Debug, Clone, PartialEq)]
pub enum Injection<P> {
    /// `inject [flags]` — install the plan, replacing any other.
    Inject(P),
    /// `off` — remove the installed plan.
    Off,
    /// `status` — the active plan and its tallies.
    Status,
}

/// A parsed shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `create table NAME (field type[, ...]) btree|hash KEY`
    CreateTable {
        /// Table name.
        name: String,
        /// Schema.
        schema: Schema,
        /// Organization (resolved key field).
        org: Organization,
    },
    /// `insert TABLE (v1, v2, ...)`
    Insert {
        /// Target table.
        table: String,
        /// Row values.
        row: Vec<Value>,
    },
    /// `define view ...` / `retrieve ...` — passed through verbatim.
    DefineView(String),
    /// `strategy KIND`
    Strategy(StrategyKind),
    /// `access VIEW`
    Access(String),
    /// `update VICTIM -> NEWKEY`
    Update(i64, i64),
    /// `explain VIEW`
    Explain(String),
    /// `explain analyze COMMAND` — run the inner command fully traced
    /// and render its span tree with per-layer timings.
    ExplainAnalyze(String),
    /// `show`
    Show,
    /// `costs`
    Costs,
    /// `stats` — per-procedure workload counters.
    Stats,
    /// `metrics` — Prometheus text exposition of the global registry.
    Metrics,
    /// `trace sample N` — trace one request in `N` (0 = off, 1 = all).
    TraceSample(u64),
    /// `trace slow MICROS` — retain the full span tree of any sampled
    /// request at least this slow (0 retains every sampled request).
    TraceSlow(u64),
    /// `fault inject [--seed S] [--io-reads P] [--io-writes P] [--torn P]
    /// [--kill-at N] [--window START END] [--include-uncharged]`, `fault
    /// off` or `fault status` — seeded storage faults on the engine's
    /// pagers.
    Fault(Injection<FaultPlan>),
    /// `chaos inject [--seed S] [--delay P] [--delay-ms MIN MAX]
    /// [--drop P] [--dup P] [--reorder P] [--heartbeat P] [--fence P]`,
    /// `chaos off` or `chaos status` — seeded message chaos on the
    /// replication layer (requires `replicas R` with R >= 2).
    Chaos(Injection<ChaosPlan>),
    /// `cache on|off` — toggle the front result cache (server-attached;
    /// hits are served before any session or shard lock).
    Cache(bool),
    /// `cache stats` — cache counters and per-shard watermarks.
    CacheStats,
    /// `crash [SHARD]` — simulate a crash (volatile state lost) on every
    /// shard; `crash N` kills only shard `N`.
    Crash(Option<usize>),
    /// `recover [SHARD]` — run crash recovery and report what it did,
    /// per shard; `recover N` recovers only shard `N`.
    Recover(Option<usize>),
    /// `shards N` — partition `R1` across `N` shard engines;
    /// bare `shards` reports per-shard status counters.
    Shards(Option<usize>),
    /// `replicas R` — run each shard as a replica group of `R` engines
    /// (primary + followers); bare `replicas` reports the current count.
    Replicas(Option<usize>),
    /// `promote SHARD` — force shard `SHARD` to fail over to its
    /// freshest live follower (the old primary is marked suspect).
    Promote(usize),
    /// `resync [SHARD]` — rejoin every down replica (of one shard or
    /// all) by delta-log replay, falling back to a full rebuild.
    Resync(Option<usize>),
    /// `call PROC(args...)` — invoke a registered stored procedure
    /// (`call P1(0, 5000)`, `call db.procedures()`). The v2 wire
    /// protocol carries the same call as a typed `CALL` frame.
    Call {
        /// Procedure name (case-insensitive; may contain dots).
        name: String,
        /// IN arguments, positionally.
        args: Vec<Value>,
    },
    /// `serve [--port P] [--max-conns N]` — turn the session into a
    /// TCP server (interactive shell only).
    Serve {
        /// TCP port to listen on.
        port: u16,
        /// Maximum simultaneous connections.
        max_conns: usize,
    },
    /// `help`
    Help,
    /// `quit` / `exit`
    Quit,
}

/// Default port for `serve`.
pub const DEFAULT_PORT: u16 = 7878;
/// Default connection cap for `serve`.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// The help text.
pub const HELP: &str = "\
commands:
  create table NAME (field type[, ...]) btree|hash KEYFIELD
      types: int | bytes N.  The first table is the updatable relation
      (must be btree); later tables are join targets (hash).
  insert TABLE (v1, v2, ...)            -- string values in double quotes
  define view NAME (T.all, ...) where … -- the paper's Section 2 syntax
  strategy recompute|cache|avm|rvm      -- switch processing strategy
  access VIEW                           -- read a procedure's value
  update VICTIM -> NEWKEY               -- re-key one base tuple in place
  explain VIEW                          -- show the precompiled plan
  explain analyze COMMAND               -- run COMMAND traced, show span tree
  show                                  -- tables, views, strategy
  costs                                 -- total ms charged so far
  stats                                 -- per-procedure workload counters
  metrics                               -- Prometheus text exposition
  trace sample N                        -- trace 1 request in N (0 = off)
  trace slow MICROS                     -- slow-query threshold (us, 0 = all)
  fault inject [--seed S] [--io-reads P] [--io-writes P] [--torn P]
               [--kill-at N] [--window START END] [--include-uncharged]
                                        -- inject seeded storage faults
  fault off | fault status              -- lift the plan / show counters
  chaos inject [--seed S] [--delay P] [--delay-ms MIN MAX] [--drop P]
               [--dup P] [--reorder P] [--heartbeat P] [--fence P]
                                        -- inject seeded replication chaos
  chaos off | chaos status              -- lift the plan / show counters
  cache on|off                          -- toggle the front result cache
  cache stats                           -- cache counters and watermarks
  crash [SHARD]                         -- simulate a crash (one shard or all)
  recover [SHARD]                       -- run crash recovery (one shard or all)
  shards N | shards                     -- partition R1 N ways / show shard status
  replicas R | replicas                 -- R engines per shard / show the count
  promote SHARD                         -- fail a shard over to its freshest follower
  resync [SHARD]                        -- rejoin down replicas by delta-log replay
  call PROC(args...)                    -- invoke a stored procedure
                                           (list them: call db.procedures())
  serve [--port P] [--max-conns N]      -- expose this session over TCP
  help, quit";

fn split_ident(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start();
    let end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_')
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 {
        None
    } else {
        Some((s[..end].to_string(), &s[end..]))
    }
}

fn parse_schema_body(body: &str) -> Result<Schema, String> {
    let mut fields: Vec<(String, FieldType)> = Vec::new();
    for part in body.split(',') {
        let toks: Vec<&str> = part.split_whitespace().collect();
        match toks.as_slice() {
            [name, ty] if ty.eq_ignore_ascii_case("int") => {
                fields.push((name.to_string(), FieldType::Int));
            }
            [name, ty, width] if ty.eq_ignore_ascii_case("bytes") => {
                let w: usize = width
                    .parse()
                    .map_err(|_| format!("bad bytes width {width}"))?;
                fields.push((name.to_string(), FieldType::Bytes(w)));
            }
            _ => return Err(format!("bad field declaration {part:?}")),
        }
    }
    if fields.is_empty() {
        return Err("empty schema".to_string());
    }
    Ok(Schema::new(
        fields.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
    ))
}

fn parse_values(body: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if rest.is_empty() {
            break;
        }
        if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped
                .find('"')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push(Value::Bytes(stripped.as_bytes()[..end].to_vec()));
            rest = &stripped[end + 1..];
        } else {
            let end = rest
                .char_indices()
                .find(|(_, c)| *c == ',' || c.is_whitespace())
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            let tok = &rest[..end];
            let v: i64 = tok.parse().map_err(|_| format!("bad value {tok:?}"))?;
            out.push(Value::Int(v));
            rest = &rest[end..];
        }
    }
    Ok(out)
}

fn parse_serve(rest: &str) -> Result<Command, String> {
    let mut port = DEFAULT_PORT;
    let mut max_conns = DEFAULT_MAX_CONNS;
    let mut toks = rest.split_whitespace();
    while let Some(flag) = toks.next() {
        match flag {
            "--port" => {
                let v = toks
                    .next()
                    .ok_or_else(|| "--port needs a value".to_string())?;
                port = v.parse().map_err(|_| format!("bad port {v:?}"))?;
            }
            "--max-conns" => {
                let v = toks
                    .next()
                    .ok_or_else(|| "--max-conns needs a value".to_string())?;
                max_conns = v.parse().map_err(|_| format!("bad count {v:?}"))?;
                if max_conns == 0 {
                    return Err("--max-conns must be at least 1".to_string());
                }
            }
            other => {
                return Err(format!(
                    "unknown serve flag {other:?} (--port P, --max-conns N)"
                ))
            }
        }
    }
    Ok(Command::Serve { port, max_conns })
}

/// The values after an `inject` flag, with the checks every injector
/// shares.
struct Flags<'a>(std::str::SplitWhitespace<'a>);

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn number(&mut self, flag: &str, what: &str) -> Result<u64, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {what} {v:?}"))
    }

    fn prob(&mut self, flag: &str) -> Result<f64, String> {
        let v = self.value(flag)?;
        let p: f64 = v
            .parse()
            .map_err(|_| format!("bad probability {v:?} for {flag}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{flag} must be in [0, 1], got {v}"));
        }
        Ok(p)
    }

    /// `flag LO HI` with `LO <= HI`, or with `strict` a 1-based
    /// half-open range (`1 <= LO < HI`).
    fn pair(
        &mut self,
        flag: &str,
        noun: &str,
        [lo, hi]: [&str; 2],
        strict: bool,
    ) -> Result<(u64, u64), String> {
        let what = |end: &str| format!("{noun} {}", end.to_ascii_lowercase());
        let a = self.number(flag, &what(lo))?;
        let b = self.number(&format!("{flag} {hi}"), &what(hi))?;
        let (ok, base, op) = match strict {
            true => (0 < a && a < b, "1-based ", "<"),
            false => (a <= b, "", "<="),
        };
        ok.then_some((a, b))
            .ok_or_else(|| format!("{flag} wants {base}{lo} {hi} with {lo} {op} {hi}"))
    }
}

/// `LAYER inject [flags] | off | status`, for both injectors. `--seed`
/// is common; `knob` sets one layer flag and answers `false` for a flag
/// it does not know.
fn parse_injection<'a, P>(
    rest: &'a str,
    layer: &str,
    mut plan: P,
    seed: fn(&mut P) -> &mut u64,
    knob: impl Fn(&mut P, &str, &mut Flags<'a>) -> Result<bool, String>,
) -> Result<Injection<P>, String> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("off") => Ok(Injection::Off),
        Some("status") => Ok(Injection::Status),
        Some("inject") => {
            let mut flags = Flags(toks);
            while let Some(flag) = flags.0.next() {
                if flag == "--seed" {
                    *seed(&mut plan) = flags.number(flag, "seed")?;
                } else if !knob(&mut plan, flag, &mut flags)? {
                    return Err(format!("unknown {layer} flag {flag:?}"));
                }
            }
            Ok(Injection::Inject(plan))
        }
        _ => Err(format!("expected: {layer} inject|off|status")),
    }
}

fn parse_fault(rest: &str) -> Result<Command, String> {
    parse_injection(
        rest,
        "fault",
        FaultPlan::new(1),
        |p| &mut p.seed,
        |p, flag, f| {
            match flag {
                "--io-reads" => p.io_read_prob = f.prob(flag)?,
                "--io-writes" => p.io_write_prob = f.prob(flag)?,
                "--torn" => p.torn_write_prob = f.prob(flag)?,
                "--kill-at" => match f.number(flag, "transfer number")? {
                    0 => return Err("--kill-at is 1-based; 0 never fires".to_string()),
                    n => p.kill_after = Some(n),
                },
                "--window" => {
                    p.fail_window = Some(f.pair(flag, "window", ["START", "END"], true)?)
                }
                "--include-uncharged" => p.charged_only = false,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )
    .map(Command::Fault)
}

fn parse_chaos(rest: &str) -> Result<Command, String> {
    parse_injection(
        rest,
        "chaos",
        ChaosPlan::new(1),
        |p| &mut p.seed,
        |p, flag, f| {
            match flag {
                "--delay" => p.delay_prob = f.prob(flag)?,
                "--delay-ms" => p.delay_ms = f.pair(flag, "delay", ["MIN", "MAX"], false)?,
                "--drop" => p.drop_prob = f.prob(flag)?,
                "--dup" => p.dup_prob = f.prob(flag)?,
                "--reorder" => p.reorder_prob = f.prob(flag)?,
                "--heartbeat" => p.heartbeat_delay_prob = f.prob(flag)?,
                "--fence" => p.fence_prob = f.prob(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    )
    .map(Command::Chaos)
}

fn parse_call(rest: &str) -> Result<Command, String> {
    let rest = rest.trim();
    // Procedure names may contain dots (`db.procedures`), so the scan is
    // wider than `split_ident`'s.
    let end = rest
        .char_indices()
        .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_' && *c != '.')
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if end == 0 {
        return Err("expected: call PROC(args...)".to_string());
    }
    let name = rest[..end].to_string();
    let tail = rest[end..].trim();
    if tail.is_empty() {
        // Bare `call P1` is allowed for zero-argument procedures.
        return Ok(Command::Call {
            name,
            args: Vec::new(),
        });
    }
    let open = tail
        .strip_prefix('(')
        .ok_or_else(|| "expected '(' after the procedure name".to_string())?;
    let close = open
        .rfind(')')
        .ok_or_else(|| "expected ')' closing the argument list".to_string())?;
    if !open[close + 1..].trim().is_empty() {
        return Err("unexpected text after ')'".to_string());
    }
    let args = parse_values(&open[..close])?;
    Ok(Command::Call { name, args })
}

/// `line` past the keyword `kw` at its front, compared without case;
/// `None` when the line does not start with it.
fn after<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let head = line.get(..kw.len())?;
    head.eq_ignore_ascii_case(kw).then(|| &line[kw.len()..])
}

/// [`after`] for a keyword that stands alone: the line is `kw`, or `kw`
/// and a space.
fn after_word<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    after(line, kw).filter(|rest| rest.is_empty() || rest.starts_with(' '))
}

fn parse_opt_shard(rest: &str, what: &str) -> Result<Option<usize>, String> {
    let rest = rest.trim().to_ascii_lowercase();
    if rest.is_empty() {
        return Ok(None);
    }
    rest.parse()
        .map(Some)
        .map_err(|_| format!("expected: {what} [SHARD], got {rest:?}"))
}

fn parse_insert(rest: &str) -> Result<Command, String> {
    let (table, rest) = split_ident(rest).ok_or_else(|| "expected table name".to_string())?;
    let rest = rest.trim_start();
    let open = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected '(' before values".to_string())?;
    let close = open
        .rfind(')')
        .ok_or_else(|| "expected ')' after values".to_string())?;
    let row = parse_values(&open[..close])?;
    Ok(Command::Insert { table, row })
}

fn parse_update(rest: &str) -> Result<Command, String> {
    let parts: Vec<&str> = rest.split("->").collect();
    if parts.len() != 2 {
        return Err("expected: update VICTIM -> NEWKEY".to_string());
    }
    let victim: i64 = parts[0]
        .trim()
        .parse()
        .map_err(|_| format!("bad key {:?}", parts[0].trim()))?;
    let new_key: i64 = parts[1]
        .trim()
        .parse()
        .map_err(|_| format!("bad key {:?}", parts[1].trim()))?;
    Ok(Command::Update(victim, new_key))
}

fn parse_trace(rest: &str) -> Result<Command, String> {
    let rest = rest.trim().to_ascii_lowercase();
    if let Some(n) = rest.strip_prefix("sample") {
        return n
            .trim()
            .parse()
            .map(Command::TraceSample)
            .map_err(|_| format!("expected: trace sample N, got {rest:?}"));
    }
    if let Some(us) = rest.strip_prefix("slow") {
        return us
            .trim()
            .parse()
            .map(Command::TraceSlow)
            .map_err(|_| format!("expected: trace slow MICROS, got {rest:?}"));
    }
    Err(format!(
        "expected 'trace sample N' or 'trace slow MICROS', got {rest:?}"
    ))
}

fn parse_strategy(rest: &str) -> Result<Command, String> {
    let kind = match rest.trim().to_ascii_lowercase().as_str() {
        "recompute" | "always-recompute" | "ar" => StrategyKind::AlwaysRecompute,
        "cache" | "cache-invalidate" | "ci" => StrategyKind::CacheInvalidate,
        "avm" | "update-cache-avm" => StrategyKind::UpdateCacheAvm,
        "rvm" | "update-cache-rvm" => StrategyKind::UpdateCacheRvm,
        other => {
            return Err(format!(
                "unknown strategy {other:?} (recompute|cache|avm|rvm)"
            ))
        }
    };
    Ok(Command::Strategy(kind))
}

fn parse_create_table(rest: &str) -> Result<Command, String> {
    let (name, rest) = split_ident(rest).ok_or_else(|| "expected table name".to_string())?;
    let rest = rest.trim_start();
    let open = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected '(' after table name".to_string())?;
    let close = open
        .find(')')
        .ok_or_else(|| "expected ')' closing the schema".to_string())?;
    let schema = parse_schema_body(&open[..close])?;
    let tail: Vec<&str> = open[close + 1..].split_whitespace().collect();
    let org = match tail.as_slice() {
        [kind, key] => {
            let key_field = schema
                .field_index(key)
                .ok_or_else(|| format!("unknown key field {key}"))?;
            if kind.eq_ignore_ascii_case("btree") {
                Organization::BTree { key_field }
            } else if kind.eq_ignore_ascii_case("hash") {
                Organization::Hash { key_field }
            } else {
                return Err(format!("unknown organization {kind:?} (btree|hash)"));
            }
        }
        _ => return Err("expected: btree|hash KEYFIELD after the schema".to_string()),
    };
    Ok(Command::CreateTable { name, schema, org })
}

/// Parse one input line (blank lines and `#` comments yield `None`).
///
/// The first keyword picks the parser. Keywords are compared in place
/// without case, the bulk `insert`, `access` and `update` first, so
/// those lines copy nothing and cost at most three comparisons; a
/// command whose arguments ignore case lowercases only the rest of its
/// own line. No line one keyword accepts starts with another keyword,
/// so the order of the tests matters only among the `explain` forms.
pub fn parse(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let is = |kw: &str| line.eq_ignore_ascii_case(kw);
    let cmd = if let Some(rest) = after(line, "insert") {
        parse_insert(rest)
    } else if let Some(rest) = after(line, "access") {
        split_ident(rest)
            .map(|(view, _)| Command::Access(view))
            .ok_or_else(|| "expected view name".to_string())
    } else if let Some(rest) = after(line, "update") {
        parse_update(rest)
    } else if is("quit") || is("exit") {
        Ok(Command::Quit)
    } else if is("help") {
        Ok(Command::Help)
    } else if is("show") {
        Ok(Command::Show)
    } else if is("costs") {
        Ok(Command::Costs)
    } else if is("stats") {
        Ok(Command::Stats)
    } else if is("metrics") {
        Ok(Command::Metrics)
    } else if let Some(rest) =
        after(line, "trace").filter(|r| r.is_empty() || r.starts_with(char::is_whitespace))
    {
        parse_trace(rest)
    } else if let Some(rest) = after_word(line, "serve") {
        parse_serve(rest)
    } else if let Some(rest) = after_word(line, "crash") {
        parse_opt_shard(rest, "crash").map(Command::Crash)
    } else if let Some(rest) = after_word(line, "recover") {
        parse_opt_shard(rest, "recover").map(Command::Recover)
    } else if let Some(rest) = after_word(line, "shards") {
        parse_opt_shard(rest, "shards").map(Command::Shards)
    } else if let Some(rest) = after_word(line, "replicas") {
        parse_opt_shard(rest, "replicas").map(Command::Replicas)
    } else if let Some(rest) = after_word(line, "promote") {
        let rest = rest.trim().to_ascii_lowercase();
        rest.parse()
            .map(Command::Promote)
            .map_err(|_| format!("expected: promote SHARD, got {rest:?}"))
    } else if let Some(rest) = after_word(line, "resync") {
        parse_opt_shard(rest, "resync").map(Command::Resync)
    } else if let Some(rest) = after_word(line, "fault") {
        parse_fault(&rest.to_ascii_lowercase())
    } else if let Some(rest) = after_word(line, "chaos") {
        parse_chaos(&rest.to_ascii_lowercase())
    } else if let Some(rest) = after_word(line, "cache") {
        match rest.trim().to_ascii_lowercase().as_str() {
            "on" => Ok(Command::Cache(true)),
            "off" => Ok(Command::Cache(false)),
            "stats" => Ok(Command::CacheStats),
            _ => Err("expected: cache on|off|stats".to_string()),
        }
    } else if let Some(rest) = after_word(line, "call") {
        parse_call(rest)
    } else if after(line, "define view").is_some() || after(line, "retrieve").is_some() {
        Ok(Command::DefineView(line.to_string()))
    } else if let Some(rest) = after(line, "strategy") {
        parse_strategy(rest)
    } else if let Some(rest) = after(line, "create table") {
        parse_create_table(rest)
    } else if let Some(inner) = after(line, "explain analyze ") {
        let inner = inner.trim();
        if inner.is_empty() {
            return Err("expected: explain analyze COMMAND".to_string());
        }
        Ok(Command::ExplainAnalyze(inner.to_string()))
    } else if is("explain analyze") {
        Err("expected: explain analyze COMMAND".to_string())
    } else if let Some(rest) = after(line, "explain") {
        split_ident(rest)
            .map(|(view, _)| Command::Explain(view))
            .ok_or_else(|| "expected view name".to_string())
    } else {
        Err(format!("unknown command {line:?} (try 'help')"))
    };
    cmd.map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_forms() {
        let c = parse("create table EMP (eid int, job bytes 12) btree eid")
            .unwrap()
            .unwrap();
        let Command::CreateTable { name, schema, org } = c else {
            panic!()
        };
        assert_eq!(name, "EMP");
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.fields()[1].ty, FieldType::Bytes(12));
        assert_eq!(org, Organization::BTree { key_field: 0 });

        let c = parse("create table DEPT (dname int, floor int) hash dname")
            .unwrap()
            .unwrap();
        let Command::CreateTable { org, .. } = c else {
            panic!()
        };
        assert_eq!(org, Organization::Hash { key_field: 0 });
    }

    #[test]
    fn insert_values_mixed_types() {
        let c = parse(r#"insert EMP (1, -5, "Programmer")"#)
            .unwrap()
            .unwrap();
        let Command::Insert { table, row } = c else {
            panic!()
        };
        assert_eq!(table, "EMP");
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(row[1], Value::Int(-5));
        assert_eq!(row[2], Value::Bytes(b"Programmer".to_vec()));
    }

    #[test]
    fn strategies_and_simple_commands() {
        assert_eq!(
            parse("strategy rvm").unwrap(),
            Some(Command::Strategy(StrategyKind::UpdateCacheRvm))
        );
        assert_eq!(
            parse("strategy recompute").unwrap(),
            Some(Command::Strategy(StrategyKind::AlwaysRecompute))
        );
        assert_eq!(
            parse("access V").unwrap(),
            Some(Command::Access("V".into()))
        );
        assert_eq!(
            parse("update 5 -> 99").unwrap(),
            Some(Command::Update(5, 99))
        );
        assert_eq!(
            parse("explain V").unwrap(),
            Some(Command::Explain("V".into()))
        );
        assert_eq!(
            parse("explain analyze access V").unwrap(),
            Some(Command::ExplainAnalyze("access V".into()))
        );
        assert_eq!(
            // `explain analyze` is keyword-first: a view named
            // "analyze" still needs plain `explain analyze` to error.
            parse("EXPLAIN ANALYZE call db.stats()").unwrap(),
            Some(Command::ExplainAnalyze("call db.stats()".into()))
        );
        assert!(parse("explain analyze").is_err());
        assert!(parse("explain analyze   ").is_err());
        assert_eq!(parse("show").unwrap(), Some(Command::Show));
        assert_eq!(parse("costs").unwrap(), Some(Command::Costs));
        assert_eq!(parse("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse("metrics").unwrap(), Some(Command::Metrics));
        assert!(
            parse("trace on").is_err(),
            "spans record under a context only"
        );
        assert!(parse("trace").is_err());
        assert!(parse("trace maybe").is_err());
        assert_eq!(
            parse("trace sample 64").unwrap(),
            Some(Command::TraceSample(64))
        );
        assert_eq!(
            parse("trace sample 0").unwrap(),
            Some(Command::TraceSample(0))
        );
        assert_eq!(
            parse("TRACE SLOW 1500").unwrap(),
            Some(Command::TraceSlow(1500))
        );
        assert!(parse("trace sample").is_err());
        assert!(parse("trace sample lots").is_err());
        assert!(parse("trace slow -3").is_err());
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse("  # comment").unwrap(), None);
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn serve_flags() {
        assert_eq!(
            parse("serve").unwrap(),
            Some(Command::Serve {
                port: DEFAULT_PORT,
                max_conns: DEFAULT_MAX_CONNS
            })
        );
        assert_eq!(
            parse("serve --port 9000 --max-conns 4").unwrap(),
            Some(Command::Serve {
                port: 9000,
                max_conns: 4
            })
        );
        assert!(parse("serve --port").is_err());
        assert!(parse("serve --port nope").is_err());
        assert!(parse("serve --max-conns 0").is_err());
        assert!(parse("serve --frobnicate 1").is_err());
    }

    #[test]
    fn fault_and_recovery_commands() {
        assert_eq!(parse("crash").unwrap(), Some(Command::Crash(None)));
        assert_eq!(parse("crash 2").unwrap(), Some(Command::Crash(Some(2))));
        assert_eq!(parse("RECOVER").unwrap(), Some(Command::Recover(None)));
        assert_eq!(parse("recover 0").unwrap(), Some(Command::Recover(Some(0))));
        assert!(parse("crash now").is_err());
        assert!(parse("recover -1").is_err());
        assert_eq!(parse("shards").unwrap(), Some(Command::Shards(None)));
        assert_eq!(parse("shards 4").unwrap(), Some(Command::Shards(Some(4))));
        assert!(parse("shards many").is_err());
        assert_eq!(parse("replicas").unwrap(), Some(Command::Replicas(None)));
        assert_eq!(
            parse("replicas 2").unwrap(),
            Some(Command::Replicas(Some(2)))
        );
        assert!(parse("replicas lots").is_err());
        assert_eq!(parse("promote 1").unwrap(), Some(Command::Promote(1)));
        assert!(parse("promote").is_err());
        assert!(parse("promote best").is_err());
        assert_eq!(parse("resync").unwrap(), Some(Command::Resync(None)));
        assert_eq!(parse("RESYNC 3").unwrap(), Some(Command::Resync(Some(3))));
        assert!(parse("resync -1").is_err());
        assert_eq!(
            parse("fault off").unwrap(),
            Some(Command::Fault(Injection::Off))
        );
        assert_eq!(
            parse("fault status").unwrap(),
            Some(Command::Fault(Injection::Status))
        );
        let c = parse("fault inject --seed 42 --io-reads 0.1 --io-writes 0.2 --torn 0.3")
            .unwrap()
            .unwrap();
        let Command::Fault(Injection::Inject(plan)) = c else {
            panic!()
        };
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.io_read_prob, 0.1);
        assert_eq!(plan.io_write_prob, 0.2);
        assert_eq!(plan.torn_write_prob, 0.3);
        assert!(plan.charged_only);
        let c = parse("fault inject --kill-at 7 --window 3 9 --include-uncharged")
            .unwrap()
            .unwrap();
        let Command::Fault(Injection::Inject(plan)) = c else {
            panic!()
        };
        assert_eq!(plan.kill_after, Some(7));
        assert_eq!(plan.fail_window, Some((3, 9)));
        assert!(!plan.charged_only);
        // Bare `fault inject` is a valid (inert) plan.
        assert!(matches!(
            parse("fault inject").unwrap(),
            Some(Command::Fault(Injection::Inject(_)))
        ));
        assert!(parse("fault").is_err());
        assert!(parse("fault frobnicate").is_err());
        assert!(parse("fault inject --io-reads 1.5").is_err());
        assert!(parse("fault inject --io-reads").is_err());
        assert!(parse("fault inject --kill-at 0").is_err());
        assert!(parse("fault inject --window 5 2").is_err());
        assert!(parse("fault inject --window 0 2").is_err());
        assert!(parse("fault inject --frobnicate 1").is_err());
    }

    #[test]
    fn chaos_commands() {
        assert_eq!(
            parse("chaos off").unwrap(),
            Some(Command::Chaos(Injection::Off))
        );
        assert_eq!(
            parse("CHAOS STATUS").unwrap(),
            Some(Command::Chaos(Injection::Status))
        );
        let c = parse(
            "chaos inject --seed 42 --delay 0.2 --delay-ms 1 8 --drop 0.1 \
             --dup 0.15 --reorder 0.25 --heartbeat 0.3 --fence 0.05",
        )
        .unwrap()
        .unwrap();
        let Command::Chaos(Injection::Inject(plan)) = c else {
            panic!()
        };
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.delay_prob, 0.2);
        assert_eq!(plan.delay_ms, (1, 8));
        assert_eq!(plan.drop_prob, 0.1);
        assert_eq!(plan.dup_prob, 0.15);
        assert_eq!(plan.reorder_prob, 0.25);
        assert_eq!(plan.heartbeat_delay_prob, 0.3);
        assert_eq!(plan.fence_prob, 0.05);
        // Bare `chaos inject` is a valid (inert) plan.
        assert!(matches!(
            parse("chaos inject").unwrap(),
            Some(Command::Chaos(Injection::Inject(p))) if p == ChaosPlan::new(1)
        ));
        assert!(parse("chaos").is_err());
        assert!(parse("chaos frobnicate").is_err());
        assert!(parse("chaos inject --drop 1.5").is_err());
        assert!(parse("chaos inject --drop").is_err());
        assert!(parse("chaos inject --delay-ms 5 2").is_err());
        assert!(parse("chaos inject --delay-ms 5").is_err());
        assert!(parse("chaos inject --frobnicate 1").is_err());
    }

    #[test]
    fn cache_commands() {
        assert_eq!(parse("cache on").unwrap(), Some(Command::Cache(true)));
        assert_eq!(parse("CACHE OFF").unwrap(), Some(Command::Cache(false)));
        assert_eq!(parse("cache stats").unwrap(), Some(Command::CacheStats));
        assert_eq!(
            parse("  cache   stats  ").unwrap(),
            Some(Command::CacheStats)
        );
        assert!(parse("cache").is_err());
        assert!(parse("cache maybe").is_err());
        assert!(parse("cache on off").is_err());
    }

    #[test]
    fn call_forms() {
        assert_eq!(
            parse("call P1(0, 5000)").unwrap(),
            Some(Command::Call {
                name: "P1".into(),
                args: vec![Value::Int(0), Value::Int(5000)],
            })
        );
        assert_eq!(
            parse("call db.procedures()").unwrap(),
            Some(Command::Call {
                name: "db.procedures".into(),
                args: vec![],
            })
        );
        // Bare form for zero-argument procedures; name case preserved.
        assert_eq!(
            parse("CALL db.stats").unwrap(),
            Some(Command::Call {
                name: "db.stats".into(),
                args: vec![],
            })
        );
        let c = parse(r#"call P9("abc", -3)"#).unwrap().unwrap();
        let Command::Call { name, args } = c else {
            panic!()
        };
        assert_eq!(name, "P9");
        assert_eq!(args[0], Value::Bytes(b"abc".to_vec()));
        assert_eq!(args[1], Value::Int(-3));
        assert!(parse("call").is_err());
        assert!(parse("call (1, 2)").is_err());
        assert!(parse("call P1(1, 2").is_err());
        assert!(parse("call P1(1) trailing").is_err());
        assert!(parse("call P1(nope)").is_err());
    }

    #[test]
    fn define_view_passthrough() {
        let src = "define view V (EMP.all) where EMP.eid >= 3";
        assert_eq!(
            parse(src).unwrap(),
            Some(Command::DefineView(src.to_string()))
        );
    }

    #[test]
    fn error_messages() {
        assert!(parse("strategy nope").is_err());
        assert!(parse("create table X eid int").is_err());
        assert!(parse("create table X (eid int) btree nope").is_err());
        assert!(parse("update 5 99").is_err());
        assert!(parse("frobnicate").is_err());
        assert!(parse(r#"insert T (1, "unterminated)"#).is_err());
    }

    /// Wire input is untrusted: no line, however malformed, may panic
    /// the parser (a panic would kill a server connection thread).
    #[test]
    fn parse_never_panics_on_garbage() {
        let torture = [
            "create table",
            "create table (",
            "create table T ((((",
            "create table T (x int) btree",
            "create table T () btree x",
            "insert",
            "insert (",
            "insert T (\"",
            "insert T (,,,,)",
            "insert T (99999999999999999999999999)",
            "update",
            "update ->",
            "update -> ->",
            "update 9223372036854775807 -> -9223372036854775808",
            "update 99999999999999999999 -> 0",
            "access",
            "access ???",
            "explain",
            "strategy",
            "serve --port 99999",
            "serve --max-conns -3",
            "define view",
            "retrieve",
            "fault",
            "fault inject --seed",
            "fault inject --window 1",
            "fault inject --io-reads NaN",
            "fault inject --kill-at 99999999999999999999",
            "chaos",
            "chaos inject --seed",
            "chaos inject --delay-ms 1",
            "chaos inject --drop NaN",
            "chaos inject --fence -0.5",
            "crash now",
            "call",
            "call (",
            "call P1(",
            "call P1(\"",
            "call P1(,,,,)",
            "call ...(1)",
            "call P1(1))",
            "call P1(99999999999999999999999999)",
            "\u{0}\u{1}\u{2}",
            "créate tàble ünïcode (x int) btree x",
            "update \u{FFFD} -> \u{FFFD}",
            "    ",
            "((((((((((",
            "\"\"\"\"\"",
        ];
        for line in torture {
            let _ = parse(line); // Ok or Err, never a panic.
        }
    }
}
