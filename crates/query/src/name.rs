//! Interned table and column names.
//!
//! Every table and column a plan, predicate or logical query names is a
//! [`Name`]: an 8-byte `Copy` handle to a string interned once for the life
//! of the process.  Candidate plans name the same few schema identifiers
//! over and over (the IMDB schema has a few dozen), so one shared record
//! per distinct text replaces one heap `String` per occurrence, and cloning
//! a plan copies handles instead of allocating.
//!
//! # Semantics
//!
//! Equality compares handles: the interner hands out one handle per
//! distinct text, so two names are equal exactly when their texts are.
//! `Hash`, `Ord` and `Borrow<str>` follow the text, so a `HashMap<Name, _>`
//! can be probed with a `&str` and sorted names keep the byte order of
//! their texts.  `Display` and `Debug` print the text as a `String` would.
//!
//! # Lifetime and bound
//!
//! The interner is append-only: a record is leaked on first sight of its
//! text and never freed.  Its size is the number of distinct table and
//! column names ever interned by the process: the schema's names, any
//! unknown names callers send in plans, and the names a checkpoint load
//! reads.  Interning runs where a name is created
//! (plan producers, checkpoint loads, `From` conversions), never when a
//! plan is hashed, featurized or served.  Literal operand values
//! ([`crate::Operand`]) are not names and stay `String`s, so traffic with
//! fresh constants does not grow the table.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

/// One interned text; leaked, so every handle is `'static`.
struct Interned {
    text: Box<str>,
}

/// A table or column name: a `Copy` handle to a process-wide interned
/// string (see the [module docs](self)).
#[derive(Clone, Copy)]
pub struct Name(&'static Interned);

/// Text → handle, read-mostly: a hit takes the read lock only.
fn interner() -> &'static RwLock<HashMap<&'static str, Name>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, Name>>> = OnceLock::new();
    INTERNER.get_or_init(Default::default)
}

impl Name {
    /// The handle for `text`, interning it on first sight.
    pub fn new(text: &str) -> Name {
        // A poisoned lock is recovered: the only update, one `insert` of a
        // leaked record, leaves the map valid whether or not it completed.
        let map = interner();
        if let Some(&name) = map.read().unwrap_or_else(PoisonError::into_inner).get(text) {
            return name;
        }
        let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&name) = map.get(text) {
            return name;
        }
        let record: &'static Interned = Box::leak(Box::new(Interned { text: text.into() }));
        let name = Name(record);
        map.insert(&record.text, name);
        name
    }

    /// The interned text.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        &self.0.text
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::BuildHasher;

    #[test]
    fn handles_are_equal_exactly_when_texts_are_across_threads() {
        let texts: Vec<String> = (0..64).map(|i| format!("name_interner_test_{}", i % 40)).collect();
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<Name>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let (texts, start) = (&texts, &start);
                    s.spawn(move || {
                        // All threads start together, each in its own
                        // rotation of the texts, so first sightings race.
                        start.wait();
                        (0..texts.len()).map(|i| Name::new(&texts[(i + t * 7) % texts.len()])).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interning thread")).collect()
        });
        let all: Vec<Name> = per_thread.into_iter().flatten().collect();
        for a in &all {
            for b in &all {
                assert_eq!(a == b, a.as_str() == b.as_str(), "{a} vs {b}");
            }
        }
        let distinct: HashSet<*const Interned> = all.iter().map(|n| n.0 as *const Interned).collect();
        assert_eq!(distinct.len(), 40);
    }

    #[test]
    fn display_debug_and_order_follow_the_text() {
        let title = Name::new("title");
        assert_eq!(title.to_string(), "title");
        assert_eq!(format!("{title:?}"), format!("{:?}", "title"));
        assert_eq!(format!("{title:>7}"), "  title");
        let mut names: Vec<Name> = ["movie_info", "title", "aka_title", "cast_info", "title"].map(Name::new).to_vec();
        names.sort();
        let texts: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
        assert_eq!(texts, ["aka_title", "cast_info", "movie_info", "title", "title"]);
        assert_eq!(Name::new("a").cmp(&Name::new("b")), "a".cmp("b"));
    }

    #[test]
    fn hash_follows_the_text_and_maps_probe_by_str() {
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(state.hash_one(Name::new("movie_id")), state.hash_one("movie_id"));
        let mut map: HashMap<Name, usize> = HashMap::new();
        map.insert(Name::new("title"), 1);
        map.insert("kind_id".into(), 2);
        map.insert(String::from("movie_id").into(), 3);
        assert_eq!(map.get("title"), Some(&1));
        assert_eq!(map.get("kind_id"), Some(&2));
        assert_eq!(map.get(&Name::new("movie_id")), Some(&3));
        assert_eq!(map.get("no_such_name"), None);
    }

    #[test]
    fn compares_against_strings() {
        let n = Name::new("production_year");
        let owned = String::from("production_year");
        assert!(n == "production_year");
        assert!(n == *"production_year");
        assert!(n == owned);
        assert!(n != "year");
        assert_eq!(&*n, "production_year");
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Option<Name>>(), std::mem::size_of::<usize>());
    }
}
