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

#[derive(Clone)]
enum Repr {
    Inline(InlineStr<INLINE_CAP>),
    Shared(Arc<str>),
}

/// Up to `N` (at most 255) bytes of text held in place: the inline arm of
/// a [`Name`] and of a [`MetaPath`](crate::MetaPath).
#[derive(Clone, Copy)]
pub(crate) struct InlineStr<const N: usize> {
    len: u8,
    bytes: [u8; N],
}

impl<const N: usize> InlineStr<N> {
    /// `parts` joined, or `None` when they come to more than `N` bytes.
    #[inline]
    pub(crate) fn concat<'a>(parts: impl IntoIterator<Item = &'a str>) -> Option<Self> {
        let (mut bytes, mut len) = ([0; N], 0);
        for part in parts {
            let end = len + part.len();
            bytes.get_mut(len..end)?.copy_from_slice(part.as_bytes());
            len = end;
        }
        Some(InlineStr {
            len: u8::try_from(len).ok()?,
            bytes,
        })
    }

    /// The text. Runs on every key comparison, so it does not re-validate
    /// UTF-8.
    #[inline]
    pub(crate) fn as_str(&self) -> &str {
        let bytes = &self.bytes[..usize::from(self.len)];
        // SAFETY: `concat` is the only constructor (the fields are private
        // to this module and nothing here mutates them), and it fills
        // `bytes[..len]` with whole `&str`s one after another, so they are
        // valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }
}

impl Name {
    /// Stores `name`: inline when it fits, else in one new shared block.
    pub fn new(name: &str) -> Self {
        match InlineStr::concat([name]) {
            Some(text) => Name(Repr::Inline(text)),
            None => Name(Repr::Shared(Arc::from(name))),
        }
    }

    /// The name's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(text) => text.as_str(),
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
        let inline = |s: &str| matches!(Name::new(s).0, Repr::Inline(_));
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
