//! First-class stored procedures: a registry of named, typed callables
//! invocable over both protocols — `call P1(0, 5000)` on the v1 line
//! protocol, and the `CALL` opcode (typed IN arguments, typed OUT
//! parameters and rows in the response) on wire v2.
//!
//! A procedure is a name plus a signature of IN/OUT [`ParamSpec`]s and a
//! handler over `&Session` — handlers are read-only, so calls are served
//! under the server's shared read lock and pipeline freely across
//! shards. The registry is seeded with the paper's `P1`/`P2` procedures
//! as callables (parameterized selection window instead of the fixed
//! window a `define view` bakes in) and `db.*` introspection procedures
//! that bypass the planner entirely.

pub mod builtin;

use std::sync::OnceLock;

use procdb_query::{Tuple, Value};

use crate::session::Session;

/// Direction of a procedure parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// Supplied by the caller, positionally.
    In,
    /// Produced by the procedure, returned by name.
    Out,
}

/// Type of a procedure parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// 64-bit integer.
    Int,
    /// Byte string.
    Bytes,
}

impl ParamType {
    fn label(self) -> &'static str {
        match self {
            ParamType::Int => "int",
            ParamType::Bytes => "bytes",
        }
    }

    fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ParamType::Int, Value::Int(_)) | (ParamType::Bytes, Value::Bytes(_))
        )
    }
}

/// One parameter of a procedure signature.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name (OUT parameters are returned under this name).
    pub name: &'static str,
    /// Parameter type.
    pub ty: ParamType,
    /// IN (caller-supplied) or OUT (procedure-produced).
    pub mode: ParamMode,
}

/// What a successful call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Free-form text (introspection procedures answer in text).
    pub text: String,
    /// OUT parameters, in signature order.
    pub out: Vec<(String, Value)>,
    /// Result rows.
    pub rows: Vec<Tuple>,
}

impl CallOutcome {
    /// An outcome that is only text.
    pub fn text(s: impl Into<String>) -> CallOutcome {
        CallOutcome {
            text: s.into(),
            out: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Render for the v1 line protocol (one text blob; the v2 protocol
    /// sends the typed parts instead).
    pub fn render(&self, session: &Session) -> String {
        let mut s = String::new();
        if !self.text.is_empty() {
            s.push_str(&self.text);
            if !s.ends_with('\n') {
                s.push('\n');
            }
        }
        for (name, v) in &self.out {
            s.push_str(&format!("out {name} = {}\n", render_value(v)));
        }
        if !self.rows.is_empty() {
            s.push_str(&format!("{} row(s):\n", self.rows.len()));
            s.push_str(&session.render_rows(self.rows.as_slice(), 20));
        }
        s.trim_end_matches('\n').to_string()
    }
}

/// Render one value the way the shell prints tuple fields.
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Bytes(b) => format!("{:?}", String::from_utf8_lossy(b)),
    }
}

/// A procedure handler: read-only over the session, typed IN arguments
/// (already validated against the signature).
pub type Handler = fn(&Session, &[Value]) -> Result<CallOutcome, String>;

/// One registered procedure.
pub struct Procedure {
    /// Name, as called (`P1`, `db.views`). Lookup is case-insensitive.
    pub name: &'static str,
    /// One-line description, shown by `db.procedures()`.
    pub about: &'static str,
    /// Signature, IN parameters first.
    pub params: &'static [ParamSpec],
    /// The implementation.
    pub handler: Handler,
}

impl Procedure {
    /// IN parameters of the signature.
    pub fn in_params(&self) -> impl Iterator<Item = &ParamSpec> {
        self.params.iter().filter(|p| p.mode == ParamMode::In)
    }

    /// Render the signature: `P1(in lo:int, in hi:int, out matched:int, …)`.
    pub fn signature(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| {
                format!(
                    "{} {}:{}",
                    match p.mode {
                        ParamMode::In => "in",
                        ParamMode::Out => "out",
                    },
                    p.name,
                    p.ty.label()
                )
            })
            .collect();
        format!("{}({})", self.name, params.join(", "))
    }
}

/// The procedure registry: name → typed handler.
pub struct ProcedureRegistry {
    procs: Vec<Procedure>,
}

impl ProcedureRegistry {
    /// The process-wide registry, seeded with the built-in procedures on
    /// first use.
    pub fn global() -> &'static ProcedureRegistry {
        static REG: OnceLock<ProcedureRegistry> = OnceLock::new();
        REG.get_or_init(|| ProcedureRegistry {
            procs: builtin::all(),
        })
    }

    /// Look up a procedure by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Procedure> {
        self.procs
            .iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// All registered procedures, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Procedure> {
        self.procs.iter()
    }

    /// Validate `args` against the signature and invoke the handler.
    pub fn call(
        &self,
        session: &Session,
        name: &str,
        args: &[Value],
    ) -> Result<CallOutcome, String> {
        let proc = self
            .get(name)
            .ok_or_else(|| format!("unknown procedure {name} (try 'call db.procedures()')"))?;
        let want: Vec<&ParamSpec> = proc.in_params().collect();
        if args.len() != want.len() {
            return Err(format!(
                "{}: {} argument(s) given, {} expected — signature {}",
                proc.name,
                args.len(),
                want.len(),
                proc.signature()
            ));
        }
        for (arg, spec) in args.iter().zip(&want) {
            if !spec.ty.matches(arg) {
                return Err(format!(
                    "{}: argument {} must be {} — signature {}",
                    proc.name,
                    spec.name,
                    spec.ty.label(),
                    proc.signature()
                ));
            }
        }
        (proc.handler)(session, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_session() -> Session {
        let mut s = Session::new();
        let run = |s: &mut Session, line: &str| {
            let cmd = crate::command::parse(line).unwrap().unwrap();
            crate::exec::execute(s, cmd).unwrap();
        };
        run(&mut s, "create table EMP (eid int, dept int) btree eid");
        run(
            &mut s,
            "create table DEPT (dname int, floor int) hash dname",
        );
        for i in 0..10 {
            run(&mut s, &format!("insert EMP ({i}, {})", i % 2));
        }
        run(&mut s, "insert DEPT (0, 1)");
        run(&mut s, "insert DEPT (1, 2)");
        run(
            &mut s,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        );
        run(
            &mut s,
            "define view VJ (EMP.all, DEPT.all) where EMP.dept = DEPT.dname",
        );
        s
    }

    #[test]
    fn p1_selects_the_window_with_out_params() {
        let s = seeded_session();
        let reg = ProcedureRegistry::global();
        let got = reg.call(&s, "P1", &[Value::Int(2), Value::Int(5)]).unwrap();
        assert_eq!(got.rows.len(), 4);
        assert_eq!(got.out[0], ("matched".to_string(), Value::Int(4)));
        assert_eq!(got.out[1], ("scanned".to_string(), Value::Int(10)));
        // Rows come back sorted by key.
        let keys: Vec<i64> = got
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(k) => k,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec![2, 3, 4, 5]);
    }

    #[test]
    fn p2_joins_the_second_table() {
        let s = seeded_session();
        let reg = ProcedureRegistry::global();
        let got = reg.call(&s, "p2", &[Value::Int(0), Value::Int(3)]).unwrap();
        // eids 0..=3, each joining its dept row: arity grows.
        assert_eq!(got.rows.len(), 4);
        assert!(got.rows.iter().all(|r| r.len() == 4), "{:?}", got.rows);
    }

    #[test]
    fn signature_validation_is_typed() {
        let s = seeded_session();
        let reg = ProcedureRegistry::global();
        let e = reg.call(&s, "P1", &[Value::Int(1)]).unwrap_err();
        assert!(e.contains("1 argument(s) given, 2 expected"), "{e}");
        let e = reg
            .call(&s, "P1", &[Value::Bytes(vec![1]), Value::Int(5)])
            .unwrap_err();
        assert!(e.contains("must be int"), "{e}");
        let e = reg.call(&s, "nope", &[]).unwrap_err();
        assert!(e.contains("unknown procedure"), "{e}");
    }

    #[test]
    fn introspection_procedures_answer_in_text() {
        let s = seeded_session();
        let reg = ProcedureRegistry::global();
        let views = reg.call(&s, "db.views", &[]).unwrap();
        assert!(views.text.contains('V'), "{}", views.text);
        let procs = reg.call(&s, "db.procedures", &[]).unwrap();
        assert!(procs.text.contains("P1(in lo:int"), "{}", procs.text);
        assert!(procs.text.contains("db.stats()"), "{}", procs.text);
        let stats = reg.call(&s, "db.stats", &[]).unwrap();
        assert!(stats.text.contains("operations"), "{}", stats.text);
        let shards = reg.call(&s, "db.shards", &[]).unwrap();
        assert!(shards.text.contains("shards"), "{}", shards.text);
        // A bare session has no front cache; the server attaches one.
        let e = reg.call(&s, "db.cache", &[]).unwrap_err();
        assert!(e.contains("no result cache"), "{e}");
    }

    #[test]
    fn render_is_line_protocol_friendly() {
        let s = seeded_session();
        let reg = ProcedureRegistry::global();
        let got = reg.call(&s, "P1", &[Value::Int(2), Value::Int(5)]).unwrap();
        let text = got.render(&s);
        assert!(text.contains("out matched = 4"), "{text}");
        assert!(text.contains("4 row(s):"), "{text}");
        assert!(!text.ends_with('\n'));
    }
}
