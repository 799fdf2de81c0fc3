//! Tuple schemas.

use crate::error::{EngineError, Result};
use std::sync::Arc;

/// Declared attribute type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Time,
    /// Scalar uncertain attribute (carries a 1-D [`crate::updf::Updf`]).
    Uncertain,
    /// Multivariate uncertain attribute of the given dimension.
    UncertainVec(usize),
}

/// One schema field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered, name-indexed set of fields. Schemas are immutable and
/// shared (`Arc`) across every tuple of a stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Arc<Schema> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            assert!(
                seen.insert(f.name.clone()),
                "duplicate field name `{}`",
                f.name
            );
        }
        Arc::new(Schema { fields })
    }

    /// Builder-style convenience.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { fields: Vec::new() }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| EngineError::UnknownField(name.to_string()))
    }

    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// New schema = this schema plus extra fields (projection/derivation).
    pub fn extend(&self, extra: Vec<Field>) -> Arc<Schema> {
        let mut fields = self.fields.clone();
        fields.extend(extra);
        Schema::new(fields)
    }

    /// Concatenate two schemas (join output), prefixing clashing names
    /// from the right side with `right_prefix`.
    pub fn join(&self, other: &Schema, right_prefix: &str) -> Arc<Schema> {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let name = if self.fields.iter().any(|l| l.name == f.name) {
                format!("{right_prefix}{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.dtype));
        }
        Schema::new(fields)
    }
}

/// Incremental schema construction.
pub struct SchemaBuilder {
    fields: Vec<Field>,
}

impl SchemaBuilder {
    pub fn field(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.fields.push(Field::new(name, dtype));
        self
    }

    pub fn build(self) -> Arc<Schema> {
        Schema::new(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::builder()
            .field("tag_id", DataType::Int)
            .field("loc", DataType::UncertainVec(3))
            .build();
        assert_eq!(s.index_of("tag_id").unwrap(), 0);
        assert_eq!(s.field("loc").unwrap().dtype, DataType::UncertainVec(3));
        assert!(matches!(
            s.index_of("missing"),
            Err(EngineError::UnknownField(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn rejects_duplicates() {
        Schema::builder()
            .field("a", DataType::Int)
            .field("a", DataType::Float)
            .build();
    }

    #[test]
    fn extend_appends() {
        let s = Schema::builder().field("a", DataType::Int).build();
        let e = s.extend(vec![Field::new("b", DataType::Float)]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.index_of("b").unwrap(), 1);
        // Original untouched.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn join_prefixes_clashes() {
        let l = Schema::builder()
            .field("id", DataType::Int)
            .field("x", DataType::Float)
            .build();
        let r = Schema::builder()
            .field("id", DataType::Int)
            .field("temp", DataType::Uncertain)
            .build();
        let j = l.join(&r, "r_");
        assert_eq!(j.len(), 4);
        assert!(j.index_of("r_id").is_ok());
        assert!(j.index_of("temp").is_ok());
    }
}
