//! Selection predicates: conjunctions of `field op constant` terms — the
//! paper's `C_f(R_i)` restriction clauses and the Rete network's t-const
//! node conditions.
//!
//! A predicate evaluates either on a decoded [`Tuple`] or on an encoded
//! row in place (`eval_encoded`); both compare through one `ValueRef`
//! path, so they agree on every row.

use crate::value::{Schema, Tuple, Value, ValueRef};

/// Comparison operator (the paper's `{<, >, ≤, ≥, =, ≠}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≥`
    Ge,
    /// `>`
    Gt,
}

impl CompOp {
    /// Apply the operator to an ordering between field value and constant.
    fn holds(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompOp::Lt => ord == Less,
            CompOp::Le => ord != Greater,
            CompOp::Eq => ord == Equal,
            CompOp::Ne => ord != Equal,
            CompOp::Ge => ord != Less,
            CompOp::Gt => ord == Greater,
        }
    }
}

/// One `attribute op constant` term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// Field index into the tuple.
    pub field: usize,
    /// Comparison operator.
    pub op: CompOp,
    /// Constant to compare against.
    pub constant: Value,
}

impl Term {
    /// Construct a term.
    pub fn new(field: usize, op: CompOp, constant: impl Into<Value>) -> Term {
        Term {
            field,
            op,
            constant: constant.into(),
        }
    }

    /// Does the term hold for `tuple`?
    pub fn eval(&self, tuple: &Tuple) -> bool {
        self.holds_for(tuple[self.field].view())
    }

    /// Does the term hold for the encoded row `row` of `schema`? Reads
    /// the one field it tests in place.
    pub(crate) fn eval_encoded(&self, schema: &Schema, row: &[u8]) -> bool {
        self.holds_for(schema.field(row, self.field))
    }

    fn holds_for(&self, v: ValueRef<'_>) -> bool {
        match (v, &self.constant) {
            (ValueRef::Int(a), Value::Int(b)) => self.op.holds(a.cmp(b)),
            (ValueRef::Bytes(a), Value::Bytes(b)) => self.op.holds(a.cmp(b.as_slice())),
            // Cross-type comparisons never hold (schema mismatch).
            _ => false,
        }
    }
}

/// A conjunction of terms. An empty predicate is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Predicate {
    /// The conjunct terms.
    pub terms: Vec<Term>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always() -> Predicate {
        Predicate { terms: Vec::new() }
    }

    /// A single-term predicate.
    pub fn single(field: usize, op: CompOp, constant: impl Into<Value>) -> Predicate {
        Predicate {
            terms: vec![Term::new(field, op, constant)],
        }
    }

    /// A closed integer range `lo ≤ field ≤ hi` — how the workload encodes
    /// a selectivity-`f` restriction over a uniform key space.
    pub fn int_range(field: usize, lo: i64, hi: i64) -> Predicate {
        Predicate {
            terms: vec![
                Term::new(field, CompOp::Ge, lo),
                Term::new(field, CompOp::Le, hi),
            ],
        }
    }

    /// Conjoin another term.
    pub fn and(mut self, term: Term) -> Predicate {
        self.terms.push(term);
        self
    }

    /// Does the whole conjunction hold for `tuple`?
    pub fn eval(&self, tuple: &Tuple) -> bool {
        self.terms.iter().all(|t| t.eval(tuple))
    }

    /// Does the whole conjunction hold for the encoded row `row` of
    /// `schema`? Agrees with [`Predicate::eval`] on the decoded row.
    pub(crate) fn eval_encoded(&self, schema: &Schema, row: &[u8]) -> bool {
        self.terms.iter().all(|t| t.eval_encoded(schema, row))
    }

    /// Whether this is the trivial (always-true) predicate.
    pub fn is_trivial(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the predicate constrains `field` to a contiguous integer range,
    /// return `(lo, hi)` — used to turn `C_f(R1)` into a B-tree range scan.
    pub fn int_bounds(&self, field: usize) -> Option<(i64, i64)> {
        let mut lo = i64::MIN;
        let mut hi = i64::MAX;
        let mut constrained = false;
        for t in &self.terms {
            if t.field != field {
                continue;
            }
            let Value::Int(c) = t.constant else {
                return None;
            };
            constrained = true;
            match t.op {
                CompOp::Ge => lo = lo.max(c),
                CompOp::Gt => lo = lo.max(c.saturating_add(1)),
                CompOp::Le => hi = hi.min(c),
                CompOp::Lt => hi = hi.min(c.saturating_sub(1)),
                CompOp::Eq => {
                    lo = lo.max(c);
                    hi = hi.min(c);
                }
                CompOp::Ne => return None,
            }
        }
        if constrained {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// The terms a scan bounded by `int_bounds(field)` must still test:
    /// all of them when there is no such range, else all but the terms on
    /// `field` that the closed range captures exactly.
    pub fn residual(&self, field: usize) -> Predicate {
        if self.int_bounds(field).is_none() {
            return self.clone();
        }
        let in_range = |t: &Term| match (t.op, &t.constant) {
            (CompOp::Ge | CompOp::Le | CompOp::Eq, Value::Int(_)) => true,
            // `> MAX` and `< MIN` saturate to a bound that still admits
            // the constant itself, so the range does not capture them.
            (CompOp::Gt, Value::Int(c)) => *c < i64::MAX,
            (CompOp::Lt, Value::Int(c)) => *c > i64::MIN,
            _ => false,
        };
        Predicate {
            terms: self
                .terms
                .iter()
                .filter(|t| t.field != field || !in_range(t))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::FieldType;

    fn t(id: i64, dept: i64) -> Tuple {
        vec![Value::Int(id), Value::Int(dept)]
    }

    #[test]
    fn operators() {
        let tup = t(5, 0);
        for (op, expect) in [
            (CompOp::Lt, false),
            (CompOp::Le, true),
            (CompOp::Eq, true),
            (CompOp::Ne, false),
            (CompOp::Ge, true),
            (CompOp::Gt, false),
        ] {
            assert_eq!(Term::new(0, op, 5i64).eval(&tup), expect, "{op:?}");
        }
        assert!(Term::new(0, CompOp::Lt, 6i64).eval(&tup));
        assert!(Term::new(0, CompOp::Gt, 4i64).eval(&tup));
    }

    #[test]
    fn bytes_comparison() {
        let tup = vec![Value::Bytes(b"abc".to_vec())];
        assert!(Term::new(0, CompOp::Eq, Value::Bytes(b"abc".to_vec())).eval(&tup));
        assert!(Term::new(0, CompOp::Lt, Value::Bytes(b"abd".to_vec())).eval(&tup));
        // Cross-type: never holds.
        assert!(!Term::new(0, CompOp::Eq, 1i64).eval(&tup));
        // Encoded: the field is compared at its full declared width.
        let schema = Schema::new(vec![("s", FieldType::Bytes(5))]);
        let row = schema.encode(&tup);
        let eq = |c: &[u8]| Term::new(0, CompOp::Eq, Value::Bytes(c.to_vec()));
        assert!(!eq(b"abc").eval_encoded(&schema, &row));
        assert!(eq(b"abc\0\0").eval_encoded(&schema, &row));
        assert!(Term::new(0, CompOp::Gt, Value::Bytes(b"abc".to_vec())).eval_encoded(&schema, &row));
        assert!(!Term::new(0, CompOp::Ne, 1i64).eval_encoded(&schema, &row));
    }

    #[test]
    fn conjunction_semantics() {
        let p = Predicate::int_range(0, 3, 7).and(Term::new(1, CompOp::Eq, 1i64));
        assert!(p.eval(&t(5, 1)));
        assert!(!p.eval(&t(5, 2)));
        assert!(!p.eval(&t(8, 1)));
        assert!(Predicate::always().eval(&t(0, 0)));
        assert!(Predicate::always().is_trivial());
    }

    #[test]
    fn int_bounds_extraction() {
        let p = Predicate::int_range(0, 10, 20);
        assert_eq!(p.int_bounds(0), Some((10, 20)));
        assert_eq!(p.int_bounds(1), None);
        let eq = Predicate::single(2, CompOp::Eq, 9i64);
        assert_eq!(eq.int_bounds(2), Some((9, 9)));
        let open = Predicate::single(0, CompOp::Gt, 4i64);
        assert_eq!(open.int_bounds(0), Some((5, i64::MAX)));
        let ne = Predicate::single(0, CompOp::Ne, 4i64);
        assert_eq!(ne.int_bounds(0), None);
    }

    #[test]
    fn contradictory_range_is_empty() {
        let p = Predicate::int_range(0, 10, 5);
        let (lo, hi) = p.int_bounds(0).unwrap();
        assert!(lo > hi);
        assert!(!p.eval(&t(7, 0)));
    }
}
