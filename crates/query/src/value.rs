//! Values, field types, schemas, and fixed-width tuple encoding.
//!
//! The paper's tuples are fixed-width (`S` = 100 bytes by default), so the
//! schema encodes every tuple to exactly [`Schema::tuple_width`] bytes:
//! `Int` fields as 8-byte little-endian, `Bytes(n)` fields as `n` raw
//! bytes. A `Bytes` *pad* field stretches a logical schema to the model's
//! `S`. The schema computes each field's byte offset once, so a field of
//! an encoded tuple can be read in place as a `ValueRef`.

use std::ops::Range;

/// A single field value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Fixed-width byte string (width set by the schema).
    Bytes(Vec<u8>),
}

impl Value {
    /// The integer inside, panicking on type mismatch (schema-checked
    /// call sites only).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Bytes(_) => panic!("expected Int value"),
        }
    }

    /// Borrow the value as a [`ValueRef`].
    pub(crate) fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Int(v) => ValueRef::Int(*v),
            Value::Bytes(b) => ValueRef::Bytes(b),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

/// A field value borrowed from an encoded tuple: the in-place twin of
/// [`Value`]. `Bytes` fields span their full declared width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueRef<'a> {
    /// 64-bit integer.
    Int(i64),
    /// Fixed-width byte string.
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// The integer inside, panicking on type mismatch (schema-checked
    /// call sites only).
    pub(crate) fn as_int(self) -> i64 {
        match self {
            ValueRef::Int(v) => v,
            ValueRef::Bytes(_) => panic!("expected Int value"),
        }
    }
}

/// Declared type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 8-byte integer.
    Int,
    /// Fixed-width byte string of this many bytes.
    Bytes(usize),
}

impl FieldType {
    /// Encoded width in bytes.
    pub fn width(&self) -> usize {
        match self {
            FieldType::Int => 8,
            FieldType::Bytes(n) => *n,
        }
    }
}

/// A named, typed field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: FieldType,
}

/// An ordered list of fields; defines the fixed-width tuple encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Vec<Field>,
    /// Byte offset of each field in the encoding, derived from `fields`.
    offsets: Vec<usize>,
    width: usize,
}

/// A tuple: one value per schema field.
pub type Tuple = Vec<Value>;

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(fields: Vec<(&str, FieldType)>) -> Schema {
        Schema::from_fields(
            fields
                .into_iter()
                .map(|(name, ty)| Field {
                    name: name.to_string(),
                    ty,
                })
                .collect(),
        )
    }

    fn from_fields(fields: Vec<Field>) -> Schema {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut width = 0;
        for f in &fields {
            offsets.push(width);
            width += f.ty.width();
        }
        Schema {
            fields,
            offsets,
            width,
        }
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the field named `name`.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Encoded width of every tuple, in bytes (the model's `S`).
    pub fn tuple_width(&self) -> usize {
        self.width
    }

    /// Concatenate two schemas (join output schema).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::from_fields(fields)
    }

    /// The listed fields, in the listed order (projection output schema).
    pub(crate) fn project(&self, fields: &[usize]) -> Schema {
        Schema::from_fields(fields.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Byte range of field `i` within an encoded tuple.
    pub(crate) fn field_range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i] + self.fields[i].ty.width()
    }

    /// Field `i` of the encoded tuple `row`, read in place.
    pub(crate) fn field<'a>(&self, row: &'a [u8], i: usize) -> ValueRef<'a> {
        let bytes = &row[self.field_range(i)];
        match self.fields[i].ty {
            FieldType::Int => ValueRef::Int(i64::from_le_bytes(
                bytes.try_into().expect("Int fields are 8 bytes wide"),
            )),
            FieldType::Bytes(_) => ValueRef::Bytes(bytes),
        }
    }

    /// Integer field `i` of the encoded tuple `row`, read in place.
    /// Panics if field `i` is not `Int`.
    pub fn int_field(&self, row: &[u8], i: usize) -> i64 {
        self.field(row, i).as_int()
    }

    /// Canonicalize a tuple: zero-pad every `Bytes` field to its declared
    /// width, so in-memory tuples compare equal to their stored form.
    /// Panics on arity or type mismatch, like [`Schema::encode`].
    pub fn normalize(&self, tuple: &Tuple) -> Tuple {
        assert_eq!(tuple.len(), self.fields.len(), "tuple arity mismatch");
        tuple
            .iter()
            .zip(&self.fields)
            .map(|(v, f)| match (v, f.ty) {
                (Value::Int(i), FieldType::Int) => Value::Int(*i),
                (Value::Bytes(b), FieldType::Bytes(n)) => {
                    assert!(b.len() <= n, "bytes field too long");
                    let mut out = b.clone();
                    out.resize(n, 0);
                    Value::Bytes(out)
                }
                _ => panic!("tuple value does not match schema field {:?}", f),
            })
            .collect()
    }

    /// Encode a tuple to its fixed-width byte form. Panics if the tuple
    /// does not match the schema (arity or types) — schema mismatches are
    /// programming errors, not runtime conditions.
    pub fn encode(&self, tuple: &Tuple) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.tuple_width());
        self.encode_into(tuple, &mut out);
        out
    }

    /// [`Schema::encode`], appending the bytes to `out`.
    pub(crate) fn encode_into(&self, tuple: &Tuple, out: &mut Vec<u8>) {
        assert_eq!(tuple.len(), self.fields.len(), "tuple arity mismatch");
        for (v, f) in tuple.iter().zip(&self.fields) {
            match (v, f.ty) {
                (Value::Int(i), FieldType::Int) => out.extend_from_slice(&i.to_le_bytes()),
                (Value::Bytes(b), FieldType::Bytes(n)) => {
                    assert!(b.len() <= n, "bytes field too long");
                    out.extend_from_slice(b);
                    out.resize(out.len() + (n - b.len()), 0);
                }
                _ => panic!("tuple value does not match schema field {:?}", f),
            }
        }
    }

    /// Decode a fixed-width byte form back into a tuple.
    pub fn decode(&self, bytes: &[u8]) -> Tuple {
        assert_eq!(bytes.len(), self.tuple_width(), "encoded width mismatch");
        let mut out = Vec::with_capacity(self.fields.len());
        let mut pos = 0;
        for f in &self.fields {
            match f.ty {
                FieldType::Int => {
                    let v = i64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
                    out.push(Value::Int(v));
                    pos += 8;
                }
                FieldType::Bytes(n) => {
                    out.push(Value::Bytes(bytes[pos..pos + n].to_vec()));
                    pos += n;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_schema() -> Schema {
        Schema::new(vec![
            ("id", FieldType::Int),
            ("dept", FieldType::Int),
            ("name", FieldType::Bytes(16)),
        ])
    }

    #[test]
    fn width_and_indexing() {
        let s = emp_schema();
        assert_eq!(s.tuple_width(), 8 + 8 + 16);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.field_index("dept"), Some(1));
        assert_eq!(s.field_index("nope"), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = emp_schema();
        let t: Tuple = vec![
            Value::Int(42),
            Value::Int(-7),
            Value::Bytes(b"susan".to_vec()),
        ];
        let bytes = s.encode(&t);
        assert_eq!(bytes.len(), s.tuple_width());
        let back = s.decode(&bytes);
        assert_eq!(back[0], Value::Int(42));
        assert_eq!(back[1], Value::Int(-7));
        // Bytes field comes back padded to its declared width.
        let Value::Bytes(name) = &back[2] else {
            panic!()
        };
        assert_eq!(&name[..5], b"susan");
        assert_eq!(name.len(), 16);
    }

    #[test]
    fn normalize_pads_bytes_fields() {
        let s = emp_schema();
        let t: Tuple = vec![Value::Int(1), Value::Int(2), Value::Bytes(b"ann".to_vec())];
        let n = s.normalize(&t);
        assert_eq!(n[0], Value::Int(1));
        let Value::Bytes(name) = &n[2] else { panic!() };
        assert_eq!(name.len(), 16);
        assert_eq!(&name[..3], b"ann");
        // Normalized form equals the decode-of-encode form.
        assert_eq!(n, s.decode(&s.encode(&t)));
    }

    #[test]
    fn concat_schemas() {
        let a = Schema::new(vec![("x", FieldType::Int)]);
        let b = Schema::new(vec![("y", FieldType::Int), ("z", FieldType::Bytes(4))]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.field_index("z"), Some(2));
        assert_eq!(c.tuple_width(), 8 + 8 + 4);
        assert_eq!(c.field_range(2), 16..20);
        let p = c.project(&[2, 0]);
        assert_eq!(p.field_index("x"), Some(1));
        assert_eq!((p.tuple_width(), p.field_range(1)), (12, 4..12));
    }

    #[test]
    fn fields_read_in_place() {
        let s = emp_schema();
        let t: Tuple = vec![
            Value::Int(42),
            Value::Int(-7),
            Value::Bytes(b"ann".to_vec()),
        ];
        let row = s.encode(&t);
        assert_eq!(s.field(&row, 1), ValueRef::Int(-7));
        assert_eq!(s.field(&row, 1).as_int(), -7);
        let ValueRef::Bytes(name) = s.field(&row, 2) else {
            panic!()
        };
        assert_eq!((name.len(), &name[..3]), (16, &b"ann"[..]));
        for (i, v) in s.normalize(&t).iter().enumerate() {
            assert_eq!(s.field(&row, i), v.view());
        }
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        emp_schema().encode(&vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        emp_schema().encode(&vec![
            Value::Bytes(vec![1]),
            Value::Int(0),
            Value::Bytes(vec![]),
        ]);
    }

    #[test]
    fn value_as_int() {
        assert_eq!(Value::Int(9).as_int(), 9);
        assert_eq!(Value::from(3i64), Value::Int(3));
    }
}
