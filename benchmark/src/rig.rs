//! Set-up and the correctness gate: build the session from generated
//! command lines, serve it, and afterwards compare what it holds with the
//! clients' key models.

use std::collections::BTreeMap;
use std::time::Instant;

use procdb_obs::MetricValue;
use procdb_server::{execute, parse, Server, ServerConfig, Session};

use crate::client::{access_rows, LineClient, Reply};
use crate::workload::{ClientGen, Expected, Row, ViewSpec, Workload};

/// A loaded, served, warmed workload.
pub struct Rig {
    /// The running server.
    pub server: Server,
    /// Its `host:port`.
    pub addr: String,
    /// The initial `EMP` rows.
    pub population: Vec<Row>,
    /// The views, in definition order.
    pub views: Vec<ViewSpec>,
    /// A v1 control connection, idle while clients measure.
    pub control: LineClient,
}

/// Build the workload's session from its generated command lines.
pub fn build_session(w: &Workload, population: &[Row]) -> Result<Session, String> {
    let mut session = Session::new();
    for line in w.setup_lines(population) {
        let cmd = parse(&line)?.ok_or_else(|| format!("empty setup line {line:?}"))?;
        execute(&mut session, cmd).map_err(|e| format!("{line:?}: {e}"))?;
    }
    Ok(session)
}

/// Set the workload up and return it with the seconds that took: generate
/// the population, load it through the session, start the server, switch
/// the front cache, build the strategy and read every view once (checking
/// each against the population). This whole interval is `setup_s`.
pub fn setup(w: &Workload, seed: u64) -> Result<(Rig, f64), String> {
    let t0 = Instant::now();
    let population = w.population(seed);
    let session = build_session(w, &population)?;
    let server = Server::start(
        session,
        ServerConfig {
            port: 0,
            max_conns: 8,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr().to_string();
    let mut control = LineClient::connect(&addr)?;
    control.expect_ok("trace sample 0")?;
    control.expect_ok(if w.cache { "cache on" } else { "cache off" })?;
    let mut rig = Rig {
        server,
        addr,
        views: w.views(),
        population,
        control,
    };
    let initial = (0..rig.population.len()).map(|i| (rig.population[i].tag, i as u32));
    let expected = Expected::of(&rig.views, &rig.population, initial);
    let problems = rig.check_views_over_tcp(&expected)?;
    if let Some(first) = problems.first() {
        return Err(format!("set-up answered wrongly: {first}"));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((rig, secs))
}

impl Rig {
    /// Read every view over the control connection and compare its row
    /// count, and the rows the reply renders, with `expected`. Returns a
    /// description of each mismatch.
    pub fn check_views_over_tcp(&mut self, expected: &Expected) -> Result<Vec<String>, String> {
        let mut problems = Vec::new();
        let mut reply = Reply::default();
        for (view, want) in self.views.iter().zip(&expected.views) {
            self.control
                .command(&format!("access {}", view.name), &mut reply)?;
            let got = reply.ok.then(|| access_rows(&reply.body)).flatten();
            if got != Some(want.len()) {
                problems.push(format!(
                    "{}: {} rows expected, reply was {:?}",
                    view.name,
                    want.len(),
                    reply.body.lines().next().unwrap_or("")
                ));
                continue;
            }
            let shown = reply.body.lines().skip(1).take(want.len().min(20));
            for row in shown {
                if want.binary_search_by(|w| w.as_str().cmp(row)).is_err() {
                    problems.push(format!("{}: unexpected row {row}", view.name));
                }
            }
        }
        Ok(problems)
    }

    /// The correctness gate, run once the clients are quiet: every view
    /// over TCP, then — with the server stopped — every view's full row
    /// set and the base table read straight from the session. Returns the
    /// mismatches; consumes the rig and stops the server.
    pub fn gate(mut self, gens: &[ClientGen]) -> Result<Vec<String>, String> {
        let tuples = gens.iter().flat_map(|g| g.tuples());
        let expected = Expected::of(&self.views, &self.population, tuples);
        let mut problems = self.check_views_over_tcp(&expected)?;
        let _ = self.control.command("quit", &mut Reply::default());
        let mut session = self.server.stop();
        let render = |session: &Session, rows: &[procdb_query::Tuple]| -> Vec<String> {
            let text = session.render_rows(rows, usize::MAX);
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort_unstable();
            lines
        };
        for (view, want) in self.views.iter().zip(&expected.views) {
            let (rows, _) = session.access(&view.name)?;
            if render(&session, &rows) != *want {
                problems.push(format!(
                    "{}: session holds {} rows that differ from the {} the key models predict",
                    view.name,
                    rows.len(),
                    want.len()
                ));
            }
        }
        let base = session.scan_base()?;
        if render(&session, &base) != expected.base {
            problems.push(format!(
                "EMP: scan_base returned {} rows that differ from the {} the key models hold",
                base.len(),
                expected.base.len()
            ));
        }
        Ok(problems)
    }
}

/// The obs registry's counters summed by metric name over all label
/// sets (histograms contribute their sample count as `NAME_count`).
pub fn counters() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in procdb_obs::global().samples() {
        let (name, v) = match s.value {
            MetricValue::Counter(c) => (s.name, c as f64),
            MetricValue::Float(f) => (s.name, f),
            MetricValue::Histogram(count, _) => (format!("{}_count", s.name), count as f64),
        };
        *out.entry(name).or_insert(0.0) += v;
    }
    out
}

/// `after − before` for the counter `name` (0 when it never moved).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
