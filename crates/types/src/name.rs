//! Stored entry names: a TafDB row key, an IndexTable key and an IndexNode
//! command hold a [`Name`], so a name of up to [`INLINE_CAP`] bytes takes
//! no heap block and comparing it reads the key's own bytes; a longer one
//! is one shared `Arc<str>` (DESIGN.md §4.3, §4.12).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The longest name stored inline: what fits beside the length byte and the
/// variant tag in the size of a shared name.
pub const INLINE_CAP: usize = 22;

/// An owned entry name. It derefs to `str` and orders, compares and hashes
/// exactly as that `str` does, so maps keyed by it are probed with a `&str`
/// (`Borrow<str>`).
#[derive(Clone)]
pub struct Name(Repr);

/// Private, so that [`Name::new`] is the only maker of an inline name.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    Shared(Arc<str>),
}

impl Name {
    /// Stores `name`: inline when it fits, else in one new shared block.
    pub fn new(name: &str) -> Self {
        if name.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            // Lossless: the length is at most `INLINE_CAP`.
            let len = name.len() as u8;
            Name(Repr::Inline { len, bytes })
        } else {
            Name(Repr::Shared(Arc::from(name)))
        }
    }

    /// The name's text. Runs on every key comparison, so it does not
    /// re-validate UTF-8.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let bytes = &bytes[..usize::from(*len)];
                // SAFETY: `Name::new` is the only constructor of `Inline`
                // (`Repr` is private to this module and nothing here mutates
                // one), and it copies `bytes[..len]` whole from a `&str`, so
                // they are valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Shared(name) => name,
        }
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Self {
        Name::new(name)
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
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_are_inline_and_long_ones_shared() {
        let inline = |s: &str| matches!(Name::new(s).0, Repr::Inline { .. });
        assert!(inline("") && inline("/_ATTR") && inline(&"x".repeat(INLINE_CAP)));
        assert!(!inline(&"x".repeat(INLINE_CAP + 1)));
        let long = Name::new(&"y".repeat(40));
        let clone = long.clone();
        match (&long.0, &clone.0) {
            (Repr::Shared(a), Repr::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("a 40-byte name is shared"),
        }
    }
}
