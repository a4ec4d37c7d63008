//! Interned identifiers for sources, objects, and values.
//!
//! Dependence detection is quadratic in sources and linear in claims, so the
//! hot loops compare small copyable ids instead of strings. A [`Catalog`]
//! interns names to dense `u32` indexes; each [`ClaimStore`](crate::ClaimStore)
//! owns one catalog per id kind.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the dense index backing this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflows u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id! {
    /// Identifies one data source (a website, a bookstore, a reviewer, ...).
    SourceId
}

define_id! {
    /// Identifies one data item — the paper's *identifier* `i_j`.
    ///
    /// For relational data this typically encapsulates
    /// `(table, record, attribute)`; the encapsulated description lives in the
    /// object [`Catalog`] as the interned name.
    ObjectId
}

define_id! {
    /// Identifies one interned [`Value`](crate::Value).
    ///
    /// Two claims assert the same value exactly when their `ValueId`s are
    /// equal, which makes agreement counting in dependence detection a `u32`
    /// comparison.
    ValueId
}

/// An interning table mapping names of type `K` to dense ids of type `I`.
///
/// `Catalog` is append-only: ids are handed out in insertion order and never
/// invalidated. Lookup by name is `O(1)` expected; lookup by id is `O(1)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catalog<K, I> {
    names: Vec<K>,
    #[serde(skip)]
    index: HashMap<K, u32>,
    #[serde(skip)]
    _marker: PhantomData<I>,
}

impl<K, I> Default for Catalog<K, I>
where
    K: Clone + Eq + Hash,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, I> Catalog<K, I>
where
    K: Clone + Eq + Hash,
{
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self {
            names: Vec::new(),
            index: HashMap::new(),
            _marker: PhantomData,
        }
    }

    /// Number of interned names.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no name has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Rebuilds the name→index map after deserialization.
    ///
    /// `serde` skips the redundant reverse map; call this once on a
    /// deserialized catalog before using [`Catalog::lookup`].
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
    }

    fn intern_raw(&mut self, name: &K) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("catalog overflows u32");
        self.names.push(name.clone());
        self.index.insert(name.clone(), i);
        i
    }

    fn lookup_raw(&self, name: &K) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn name_raw(&self, id: u32) -> Option<&K> {
        self.names.get(id as usize)
    }

    /// Iterates over all interned names in id order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.names.iter()
    }
}

macro_rules! typed_catalog {
    ($id:ty) => {
        impl<K> Catalog<K, $id>
        where
            K: Clone + Eq + Hash,
        {
            /// Interns `name`, returning its id (existing or fresh).
            pub fn intern(&mut self, name: &K) -> $id {
                <$id>::from_index(self.intern_raw(name) as usize)
            }

            /// Looks up an already interned name.
            pub fn lookup(&self, name: &K) -> Option<$id> {
                self.lookup_raw(name).map(|i| <$id>::from_index(i as usize))
            }

            /// Returns the name behind `id`, if `id` was issued by this catalog.
            pub fn name(&self, id: $id) -> Option<&K> {
                self.name_raw(id.0)
            }
        }
    };
}

typed_catalog!(SourceId);
typed_catalog!(ObjectId);
typed_catalog!(ValueId);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueId};

    #[test]
    fn intern_is_idempotent() {
        let mut c: Catalog<String, SourceId> = Catalog::new();
        let a = c.intern(&"alpha".to_string());
        let b = c.intern(&"beta".to_string());
        let a2 = c.intern(&"alpha".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let mut c: Catalog<String, ObjectId> = Catalog::new();
        let id = c.intern(&"Dong.affiliation".to_string());
        assert_eq!(c.lookup(&"Dong.affiliation".to_string()), Some(id));
        assert_eq!(c.name(id).map(String::as_str), Some("Dong.affiliation"));
        assert_eq!(c.lookup(&"missing".to_string()), None);
        assert_eq!(c.name(ObjectId(99)), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut c: Catalog<String, ValueId> = Catalog::new();
        for i in 0..10 {
            let id = c.intern(&format!("v{i}"));
            assert_eq!(id.index(), i);
        }
        assert_eq!(c.len(), 10);
        for i in 0..c.len() {
            let name = format!("v{i}");
            assert_eq!(c.name(ValueId::from_index(i)), Some(&name));
        }
        assert_eq!(c.name(ValueId::from_index(10)), None);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut c: Catalog<String, SourceId> = Catalog::new();
        c.intern(&"x".to_string());
        c.intern(&"y".to_string());
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Catalog<String, SourceId> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lookup(&"y".to_string()), None); // index skipped
        back.rebuild_index();
        assert_eq!(back.lookup(&"y".to_string()), Some(SourceId(1)));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn non_ascii_names_roundtrip_byte_identically() {
        let names = [
            "Müller & Søn",
            "\"quoted\" source",
            "back\\slash\\path",
            "line one\nline two\r\n\tend",
            "北京大学 · 東京",
            "rocket 🚀 launch",
            "",
        ];
        let mut c: Catalog<String, SourceId> = Catalog::new();
        for name in names {
            c.intern(&name.to_string());
        }
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Catalog<String, SourceId> = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.len(), c.len());
        for i in 0..c.len() {
            let id = SourceId::from_index(i);
            let name = c.name(id).unwrap();
            assert_eq!(back.name(id), Some(name));
            assert_eq!(back.lookup(name), Some(id));
        }
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        for name in names {
            let v = Value::text(format!("{name} ✓"));
            let json = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SourceId(3).to_string(), "SourceId(3)");
        assert_eq!(ObjectId(0).to_string(), "ObjectId(0)");
    }
}
