//! Typed records: feature *Storage → Data Types* of Figure 2.
//!
//! Without this feature the engine stores raw byte strings. With it,
//! records follow a [`Schema`] of typed columns, and [`Value`]s serialize
//! to a compact, self-delimiting format. The SQL engine builds on these
//! types; the raw API does not need them — which is precisely why *Data
//! Types* is an optional feature.
//!
//! Encoding (little-endian):
//!
//! ```text
//! tag 0: Null
//! tag 1: Bool     (1 byte)
//! tag 2: U32      (4 bytes)
//! tag 3: I64      (8 bytes)
//! tag 4: F64      (8 bytes, IEEE bits)
//! tag 5: Str      (u16 length + UTF-8 bytes)
//! tag 6: Bytes    (u16 length + bytes)
//! ```
//!
//! `U32` keys additionally offer an *order-preserving* big-endian encoding
//! ([`Value::to_key_bytes`]) so they can be used directly as B+-tree keys.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Result, StorageError};

/// Column type of a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// Unsigned 32-bit integer (the embedded workhorse).
    U32,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// UTF-8 string (max 65535 bytes).
    Str,
    /// Raw bytes (max 65535 bytes).
    Bytes,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::U32 => "U32",
            DataType::I64 => "I64",
            DataType::F64 => "F64",
            DataType::Str => "STR",
            DataType::Bytes => "BYTES",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// Signed 64-bit integer.
    I64(i64),
    /// IEEE-754 double.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The value's type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Bool(_) => DataType::Bool,
            Value::U32(_) => DataType::U32,
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::Str(_) => DataType::Str,
            Value::Bytes(_) => DataType::Bytes,
        })
    }

    /// Append the self-delimiting encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::U32(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::I64(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::F64(v) => {
                out.push(4);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                debug_assert!(s.len() <= u16::MAX as usize);
                out.push(5);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                debug_assert!(b.len() <= u16::MAX as usize);
                out.push(6);
                out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    /// Decode one value from the front of `data`; returns it and the rest.
    pub fn decode(data: &[u8]) -> Result<(Value, &[u8])> {
        Value::decode_or_check(data, true)
    }

    /// [`Value::decode`], except that with `keep == false` the value is
    /// checked just as fully (tag, length, truncation, UTF-8) but returned
    /// as `Null`, so a skipped string or byte string is never allocated.
    fn decode_or_check(data: &[u8], keep: bool) -> Result<(Value, &[u8])> {
        let corrupt = |reason: &str| StorageError::Corrupt {
            page: 0,
            reason: format!("value decode: {reason}"),
        };
        let (&tag, rest) = data.split_first().ok_or_else(|| corrupt("empty input"))?;
        let (value, rest) = match tag {
            0 => (Value::Null, rest),
            1 => {
                let (&b, rest) = rest
                    .split_first()
                    .ok_or_else(|| corrupt("truncated bool"))?;
                (Value::Bool(b != 0), rest)
            }
            2 => {
                if rest.len() < 4 {
                    return Err(corrupt("truncated u32"));
                }
                (
                    Value::U32(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"))),
                    &rest[4..],
                )
            }
            3 => {
                if rest.len() < 8 {
                    return Err(corrupt("truncated i64"));
                }
                (
                    Value::I64(i64::from_le_bytes(rest[..8].try_into().expect("8 bytes"))),
                    &rest[8..],
                )
            }
            4 => {
                if rest.len() < 8 {
                    return Err(corrupt("truncated f64"));
                }
                (
                    Value::F64(f64::from_bits(u64::from_le_bytes(
                        rest[..8].try_into().expect("8 bytes"),
                    ))),
                    &rest[8..],
                )
            }
            5 | 6 => {
                if rest.len() < 2 {
                    return Err(corrupt("truncated length"));
                }
                let len = u16::from_le_bytes(rest[..2].try_into().expect("2 bytes")) as usize;
                let rest = &rest[2..];
                if rest.len() < len {
                    return Err(corrupt("truncated payload"));
                }
                let (payload, rest) = rest.split_at(len);
                let text = match tag {
                    5 => Some(
                        std::str::from_utf8(payload)
                            .map_err(|_| corrupt("invalid UTF-8 in string"))?,
                    ),
                    _ => None,
                };
                if !keep {
                    return Ok((Value::Null, rest));
                }
                match text {
                    Some(s) => (Value::Str(s.to_string()), rest),
                    None => (Value::Bytes(payload.to_vec()), rest),
                }
            }
            t => return Err(corrupt(&format!("unknown tag {t}"))),
        };
        Ok((if keep { value } else { Value::Null }, rest))
    }

    /// Order-preserving key encoding: comparing encoded keys bytewise
    /// equals comparing the values. Defined for `U32`, `I64`, `Str`, and
    /// `Bytes`; other types return `None`.
    pub fn to_key_bytes(&self) -> Option<Vec<u8>> {
        Some(match self {
            Value::U32(v) => v.to_be_bytes().to_vec(),
            // Flip the sign bit so negative numbers sort before positive.
            Value::I64(v) => ((*v as u64) ^ (1 << 63)).to_be_bytes().to_vec(),
            Value::Str(s) => s.as_bytes().to_vec(),
            Value::Bytes(b) => b.clone(),
            _ => return None,
        })
    }

    /// SQL-style three-valued comparison; `None` when incomparable
    /// (NULL involved or type mismatch).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::U32(a), Value::U32(b)) => Some(a.cmp(b)),
            (Value::I64(a), Value::I64(b)) => Some(a.cmp(b)),
            (Value::U32(a), Value::I64(b)) => Some(i64::from(*a).cmp(b)),
            (Value::I64(a), Value::U32(b)) => Some(a.cmp(&i64::from(*b))),
            (Value::F64(a), Value::F64(b)) => a.partial_cmp(b),
            (Value::F64(a), Value::I64(b)) => a.partial_cmp(&(*b as f64)),
            (Value::I64(a), Value::F64(b)) => (*a as f64).partial_cmp(b),
            (Value::F64(a), Value::U32(b)) => a.partial_cmp(&f64::from(*b)),
            (Value::U32(a), Value::F64(b)) => f64::from(*a).partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}'", hex(b)),
        }
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

/// An ordered list of columns; the first column is the primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs. The first column is the
    /// primary key.
    pub fn new(cols: impl IntoIterator<Item = (impl Into<String>, DataType)>) -> Schema {
        let columns = cols
            .into_iter()
            .map(|(name, ty)| Column {
                name: name.into(),
                ty,
            })
            .collect::<Vec<_>>();
        assert!(!columns.is_empty(), "schema needs at least one column");
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Type-check a row against the schema (NULL allowed anywhere but the
    /// key column 0).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        let mismatch = |msg: String| StorageError::Corrupt {
            page: 0,
            reason: msg,
        };
        if row.len() != self.arity() {
            return Err(mismatch(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.arity()
            )));
        }
        for (i, (v, c)) in row.iter().zip(&self.columns).enumerate() {
            match v.data_type() {
                None if i == 0 => {
                    return Err(mismatch("primary key must not be NULL".into()));
                }
                None => {}
                Some(t) if t == c.ty => {}
                Some(t) => {
                    return Err(mismatch(format!(
                        "column `{}` expects {}, got {}",
                        c.name, c.ty, t
                    )));
                }
            }
        }
        Ok(())
    }

    /// Encode a full row.
    pub fn encode_row(&self, row: &[Value]) -> Result<Vec<u8>> {
        self.check_row(row)?;
        let mut out = Vec::with_capacity(16 * row.len());
        for v in row {
            v.encode(&mut out);
        }
        Ok(out)
    }

    /// Decode a full row.
    #[cfg(test)]
    fn decode_row(&self, data: &[u8]) -> Result<Vec<Value>> {
        let mut row = Vec::with_capacity(self.arity());
        self.decode_row_into(data, &vec![true; self.arity()], &mut row)?;
        Ok(row)
    }

    /// Decode a row into `row` (cleared first), materialising only the
    /// columns `keep` marks. Every other column is checked just as fully
    /// as a kept one and left `Null`, so a corrupt
    /// column fails the decode whether or not it is read.
    pub fn decode_row_into(
        &self,
        mut data: &[u8],
        keep: &[bool],
        row: &mut Vec<Value>,
    ) -> Result<()> {
        assert_eq!(keep.len(), self.arity(), "one keep flag per column");
        row.clear();
        for &k in keep {
            let (v, rest) = Value::decode_or_check(data, k)?;
            row.push(v);
            data = rest;
        }
        Ok(())
    }

    /// Serialize the schema itself (for the catalog).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.columns.len() as u8];
        for c in &self.columns {
            out.push(match c.ty {
                DataType::Bool => 1,
                DataType::U32 => 2,
                DataType::I64 => 3,
                DataType::F64 => 4,
                DataType::Str => 5,
                DataType::Bytes => 6,
            });
            out.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
            out.extend_from_slice(c.name.as_bytes());
        }
        out
    }

    /// Deserialize a schema written by [`Schema::encode`].
    pub fn decode(data: &[u8]) -> Result<Schema> {
        let corrupt = |reason: &str| StorageError::Corrupt {
            page: 0,
            reason: format!("schema decode: {reason}"),
        };
        let (&n, mut rest) = data.split_first().ok_or_else(|| corrupt("empty"))?;
        let mut columns = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (&tag, r) = rest
                .split_first()
                .ok_or_else(|| corrupt("truncated type"))?;
            let ty = match tag {
                1 => DataType::Bool,
                2 => DataType::U32,
                3 => DataType::I64,
                4 => DataType::F64,
                5 => DataType::Str,
                6 => DataType::Bytes,
                t => return Err(corrupt(&format!("bad type tag {t}"))),
            };
            if r.len() < 2 {
                return Err(corrupt("truncated name length"));
            }
            let len = u16::from_le_bytes(r[..2].try_into().expect("2 bytes")) as usize;
            let r = &r[2..];
            if r.len() < len {
                return Err(corrupt("truncated name"));
            }
            let name = std::str::from_utf8(&r[..len])
                .map_err(|_| corrupt("name not UTF-8"))?
                .to_string();
            columns.push(Column { name, ty });
            rest = &r[len..];
        }
        if columns.is_empty() {
            return Err(corrupt("no columns"));
        }
        Ok(Schema { columns })
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<u32>().prop_map(Value::U32),
            any::<i64>().prop_map(Value::I64),
            // Finite floats only: NaN breaks PartialEq round-trip checks.
            prop::num::f64::NORMAL.prop_map(Value::F64),
            ".{0,20}".prop_map(Value::Str),
            prop::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ]
    }

    proptest! {
        #[test]
        fn value_round_trips(v in value_strategy()) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let (decoded, rest) = Value::decode(&buf).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert!(rest.is_empty());
        }

        #[test]
        fn rows_round_trip(
            id in any::<u32>(),
            name in ".{0,16}",
            amount in prop::num::f64::NORMAL,
            flag in any::<bool>(),
        ) {
            let s = Schema::new([
                ("id", DataType::U32),
                ("name", DataType::Str),
                ("amount", DataType::F64),
                ("flag", DataType::Bool),
            ]);
            let row = vec![
                Value::U32(id),
                Value::Str(name),
                Value::F64(amount),
                Value::Bool(flag),
            ];
            let bytes = s.encode_row(&row).unwrap();
            prop_assert_eq!(s.decode_row(&bytes).unwrap(), row);
        }

        /// Key encoding preserves order for every keyable type.
        #[test]
        fn u32_key_order(a in any::<u32>(), b in any::<u32>()) {
            let ka = Value::U32(a).to_key_bytes().unwrap();
            let kb = Value::U32(b).to_key_bytes().unwrap();
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        #[test]
        fn i64_key_order(a in any::<i64>(), b in any::<i64>()) {
            let ka = Value::I64(a).to_key_bytes().unwrap();
            let kb = Value::I64(b).to_key_bytes().unwrap();
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = Value::decode(&bytes);
            let _ = Schema::decode(&bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::U32(0),
            Value::U32(u32::MAX),
            Value::I64(-5),
            Value::I64(i64::MIN),
            Value::F64(3.5),
            Value::F64(-0.0),
            Value::Str("hällo".into()),
            Value::Str(String::new()),
            Value::Bytes(vec![0, 255, 3]),
        ]
    }

    #[test]
    fn value_encode_decode_round_trip() {
        for v in all_values() {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let (d, rest) = Value::decode(&buf).unwrap();
            assert_eq!(d, v);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[99]).is_err());
        assert!(Value::decode(&[2, 1, 2]).is_err()); // truncated u32
        assert!(Value::decode(&[5, 5, 0, b'a']).is_err()); // truncated str
        assert!(Value::decode(&[5, 2, 0, 0xFF, 0xFE]).is_err()); // bad UTF-8
    }

    #[test]
    fn key_bytes_preserve_order_u32() {
        let mut keys: Vec<Vec<u8>> = [5u32, 0, u32::MAX, 100, 99]
            .iter()
            .map(|&v| Value::U32(v).to_key_bytes().unwrap())
            .collect();
        keys.sort();
        let decoded: Vec<u32> = keys
            .iter()
            .map(|k| u32::from_be_bytes(k[..4].try_into().unwrap()))
            .collect();
        assert_eq!(decoded, [0, 5, 99, 100, u32::MAX]);
    }

    #[test]
    fn key_bytes_preserve_order_i64() {
        let vals = [-100i64, -1, 0, 1, i64::MIN, i64::MAX];
        let mut pairs: Vec<(Vec<u8>, i64)> = vals
            .iter()
            .map(|&v| (Value::I64(v).to_key_bytes().unwrap(), v))
            .collect();
        pairs.sort();
        let order: Vec<i64> = pairs.into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [i64::MIN, -100, -1, 0, 1, i64::MAX]);
    }

    #[test]
    fn null_has_no_key_bytes() {
        assert_eq!(Value::Null.to_key_bytes(), None);
        assert_eq!(Value::Bool(true).to_key_bytes(), None);
    }

    #[test]
    fn compare_three_valued() {
        use Ordering::*;
        assert_eq!(Value::U32(1).compare(&Value::U32(2)), Some(Less));
        assert_eq!(Value::I64(5).compare(&Value::U32(5)), Some(Equal));
        assert_eq!(Value::F64(1.5).compare(&Value::I64(1)), Some(Greater));
        assert_eq!(Value::Null.compare(&Value::U32(1)), None);
        assert_eq!(Value::Str("a".into()).compare(&Value::U32(1)), None);
    }

    #[test]
    fn schema_row_round_trip() {
        let s = Schema::new([
            ("id", DataType::U32),
            ("name", DataType::Str),
            ("balance", DataType::I64),
        ]);
        let row = vec![Value::U32(7), Value::Str("alice".into()), Value::I64(-250)];
        let bytes = s.encode_row(&row).unwrap();
        assert_eq!(s.decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn pruned_decode_skips_but_checks_columns() {
        let s = Schema::new([
            ("id", DataType::U32),
            ("name", DataType::Str),
            ("raw", DataType::Bytes),
        ]);
        let row = vec![
            Value::U32(7),
            Value::Str("alice".into()),
            Value::Bytes(vec![1, 2]),
        ];
        let bytes = s.encode_row(&row).unwrap();
        let mut out = vec![Value::Bool(true)];
        s.decode_row_into(&bytes, &[false, true, false], &mut out)
            .unwrap();
        assert_eq!(out, [Value::Null, row[1].clone(), Value::Null]);

        // A bad string or a short payload in a skipped column still fails.
        let mut bad_utf8 = Vec::new();
        Value::U32(7).encode(&mut bad_utf8);
        bad_utf8.extend_from_slice(&[5, 2, 0, 0xFF, 0xFE]);
        Value::Bytes(vec![]).encode(&mut bad_utf8);
        let truncated = &bytes[..bytes.len() - 1];
        for data in [&bad_utf8[..], truncated] {
            assert!(s.decode_row(data).is_err());
            assert!(s
                .decode_row_into(data, &[true, false, false], &mut out)
                .is_err());
        }
    }

    #[test]
    fn schema_rejects_bad_rows() {
        let s = Schema::new([("id", DataType::U32), ("name", DataType::Str)]);
        // wrong arity
        assert!(s.encode_row(&[Value::U32(1)]).is_err());
        // wrong type
        assert!(s.encode_row(&[Value::U32(1), Value::I64(2)]).is_err());
        // NULL key
        assert!(s
            .encode_row(&[Value::Null, Value::Str("x".into())])
            .is_err());
        // NULL non-key is fine
        assert!(s.encode_row(&[Value::U32(1), Value::Null]).is_ok());
    }

    #[test]
    fn schema_encode_decode() {
        let s = Schema::new([
            ("id", DataType::U32),
            ("note", DataType::Str),
            ("raw", DataType::Bytes),
            ("flag", DataType::Bool),
            ("amount", DataType::F64),
            ("count", DataType::I64),
        ]);
        let d = Schema::decode(&s.encode()).unwrap();
        assert_eq!(d, s);
        assert_eq!(d.column_index("raw"), Some(2));
        assert_eq!(d.column_index("missing"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Bytes(vec![0xAB]).to_string(), "x'ab'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(DataType::U32.to_string(), "U32");
    }
}
