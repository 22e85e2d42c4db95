//! Normalized hierarchical paths.
//!
//! COSS applications address objects by full path (e.g. `/A/C/E/G/H`). The
//! IndexNode's TopDirPathCache works on *truncated prefixes* of such paths
//! (§5.1.1), and the Invalidator needs prefix tests (§5.1.2), so [`MetaPath`]
//! exposes those operations directly.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{MetaError, Result};
use crate::name::InlineStr;

/// A normalized, absolute path inside a namespace.
///
/// The normalized text (`/a/b/c`; the root is the empty string) is held
/// inline when it is at most [`INLINE_CAP`](MetaPath::INLINE_CAP) bytes,
/// so making, viewing and cloning such a path allocates nothing. A longer
/// text is stored once in a reference-counted buffer, and a path is a
/// *visible prefix* of that buffer: [`parent`], [`prefix`],
/// [`truncate_leaf`] and `clone` share the buffer while the prefix is
/// longer than the inline capacity, and copy it inline once it fits.
/// Three invariants follow (DESIGN.md §4.15):
///
/// * equality and hashing are over the visible bytes only, so a prefix view
///   and an independently parsed equal path are the same map key, inline
///   or shared;
/// * ordering is byte order over the visible text with `/` ranked below
///   every other byte, which is component-wise order (`/a/b` < `/a-x`,
///   though `-` sorts below `/` as a plain byte);
/// * an inline view is a copy, but a shared view keeps its whole buffer
///   alive — long-lived holders of a prefix copy it out with [`compact`].
///
/// [`parent`]: MetaPath::parent
/// [`prefix`]: MetaPath::prefix
/// [`truncate_leaf`]: MetaPath::truncate_leaf
/// [`compact`]: MetaPath::compact
#[derive(Clone)]
pub struct MetaPath(Repr);

#[derive(Clone)]
enum Repr {
    /// The whole text, when it fits. At most 38 components fit, so the
    /// depth fits a byte.
    Inline {
        text: InlineStr<{ MetaPath::INLINE_CAP }>,
        depth: u8,
    },
    /// `buf[..len]` (longer than the inline capacity, ending a component)
    /// of the text of this path or of one under it.
    Shared {
        buf: Arc<str>,
        len: usize,
        depth: usize,
    },
}

/// The separator as a predicate: components are a few bytes long, and for
/// those scanning characters is several times cheaper than the `char`
/// pattern's one `memchr` call per component.
fn is_separator(c: char) -> bool {
    c == '/'
}

/// Rejects the names no component may have: `.`/`..`, and the reserved
/// attribute-row name (§5.2.1 reserves `/_ATTR` as a key; the slash-less
/// form is refused so user names can never collide with attribute/delta
/// row keys).
fn check_name(name: &str) -> std::result::Result<(), &'static str> {
    if name == "." || name == ".." {
        Err("dot component")
    } else if name == crate::record::ATTR_ROW_NAME.trim_start_matches('/') {
        Err("reserved name")
    } else {
        Ok(())
    }
}

/// Rejects what can never be a component: what [`check_name`] does, the
/// empty string and anything holding a separator (`parse` cannot produce
/// those two by splitting; a caller of `child` can pass them).
fn check_component(name: &str) -> std::result::Result<(), &'static str> {
    if name.is_empty() {
        Err("empty component")
    } else if name.contains(is_separator) {
        Err("separator in component")
    } else {
        check_name(name)
    }
}

impl MetaPath {
    /// The longest path text held inline: what fits beside the length, the
    /// depth and the variant tag in 80 bytes.
    pub const INLINE_CAP: usize = 77;

    /// The root path `/`.
    pub fn root() -> Self {
        MetaPath::new("", 0)
    }

    /// The path `text` (`depth` components): inline when it fits, else in
    /// one new shared buffer.
    fn new(text: &str, depth: usize) -> MetaPath {
        MetaPath::concat([text], depth).unwrap_or_else(|| {
            let (buf, len) = (Arc::from(text), text.len());
            MetaPath(Repr::Shared { buf, len, depth })
        })
    }

    /// `parts` joined (`depth` components): inline when they fit, else in
    /// one new shared buffer.
    fn joined<'a>(parts: impl IntoIterator<Item = &'a str> + Clone, depth: usize) -> MetaPath {
        MetaPath::concat(parts.clone(), depth)
            .unwrap_or_else(|| MetaPath::new(&parts.into_iter().collect::<String>(), depth))
    }

    /// `parts` joined as an inline path, or `None` when they do not fit.
    fn concat<'a>(parts: impl IntoIterator<Item = &'a str>, depth: usize) -> Option<MetaPath> {
        // A text that fits holds at most 38 components, so this refuses none.
        let depth = u8::try_from(depth).ok()?;
        InlineStr::concat(parts).map(|text| MetaPath(Repr::Inline { text, depth }))
    }

    /// Parses an absolute path, normalizing redundant slashes. A path whose
    /// normalized text fits in [`INLINE_CAP`](MetaPath::INLINE_CAP) bytes
    /// costs no allocation; longer, already normalized input costs one.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::InvalidPath`] for relative paths, empty
    /// components produced by `.`/`..`, or components containing the
    /// reserved attribute-row name `/_ATTR` (§5.2.1 reserves it as a key).
    pub fn parse(s: &str) -> Result<Self> {
        let Some(rest) = s.strip_prefix('/') else {
            return Err(MetaError::InvalidPath(format!("not absolute: {s:?}")));
        };
        let parts = || rest.split(is_separator).filter(|part| !part.is_empty());
        let mut depth = 0;
        let mut len = 0;
        for part in parts() {
            check_name(part).map_err(|why| MetaError::InvalidPath(format!("{why} in {s:?}")))?;
            depth += 1;
            len += 1 + part.len();
        }
        // Every empty part (`//`, a trailing slash, the bare root) is a
        // separator the normalized text does not have.
        Ok(if len == s.len() {
            MetaPath::new(s, depth)
        } else {
            MetaPath::joined(parts().flat_map(|part| ["/", part]), depth)
        })
    }

    /// The visible normalized text; empty for the root.
    #[inline]
    fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { text, .. } => text.as_str(),
            Repr::Shared { buf, len, .. } => &buf[..*len],
        }
    }

    /// The first `len` bytes (`depth` components) of this path: a copy when
    /// they fit inline, else a view sharing its buffer.
    fn view(&self, len: usize, depth: usize) -> MetaPath {
        match &self.0 {
            Repr::Shared { buf, .. } if len > MetaPath::INLINE_CAP => {
                let buf = Arc::clone(buf);
                MetaPath(Repr::Shared { buf, len, depth })
            }
            _ => MetaPath::new(&self.as_str()[..len], depth),
        }
    }

    /// Number of components; the root has depth 0.
    #[inline]
    pub fn depth(&self) -> usize {
        match self.0 {
            Repr::Inline { depth, .. } => usize::from(depth),
            Repr::Shared { depth, .. } => depth,
        }
    }

    /// Whether this is the root path.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.as_str().is_empty()
    }

    /// The final component, if any.
    pub fn name(&self) -> Option<&str> {
        let text = self.as_str();
        text.rfind(is_separator).map(|slash| &text[slash + 1..])
    }

    /// The parent path; `None` for the root.
    pub fn parent(&self) -> Option<MetaPath> {
        let slash = self.as_str().rfind(is_separator)?;
        Some(self.view(slash, self.depth() - 1))
    }

    /// Iterates over the components from the root downwards.
    pub fn components(&self) -> impl Iterator<Item = &str> + '_ {
        // The text before the leading separator is not a component.
        self.as_str().split(is_separator).skip(1)
    }

    /// The first `n` components as a path (the whole path if `n >= depth`).
    pub fn prefix(&self, n: usize) -> MetaPath {
        match self.as_str().match_indices(is_separator).nth(n) {
            Some((slash, _)) => self.view(slash, n),
            None => self.clone(),
        }
    }

    /// Truncates the final `k` levels, the TopDirPathCache key operation
    /// (§5.1.1): resolving `/A/C/E/G/H` with `k = 3` consults the cache with
    /// `/A/C`. Returns `None` when the path is not deeper than `k` (such
    /// paths are never cached).
    pub fn truncate_leaf(&self, k: usize) -> Option<MetaPath> {
        if self.depth() <= k {
            return None;
        }
        let len = match k {
            0 => self.as_str().len(),
            _ => self.as_str().rmatch_indices(is_separator).nth(k - 1)?.0,
        };
        Some(self.view(len, self.depth() - k))
    }

    /// Whether this path keeps nothing beyond it alive: it is inline, or
    /// its buffer is not that of a longer path.
    pub fn is_compact(&self) -> bool {
        !matches!(&self.0, Repr::Shared { buf, len, .. } if *len < buf.len())
    }

    /// This path holding exactly its own text: `self` when it already does,
    /// a copy when it is a shared view of a longer path. What a long-lived
    /// holder (a cache key) stores, so that it does not keep the components
    /// below it alive.
    pub fn compact(&self) -> MetaPath {
        if self.is_compact() {
            return self.clone();
        }
        MetaPath::new(self.as_str(), self.depth())
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &MetaPath) -> bool {
        // Matching bytes must end on a component boundary of `other`:
        // `/ab` is not under `/a`.
        other
            .as_str()
            .strip_prefix(self.as_str())
            .is_some_and(|below| below.is_empty() || below.starts_with('/'))
    }

    /// Whether `self` is a *strict* ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &MetaPath) -> bool {
        self.as_str().len() < other.as_str().len() && self.is_prefix_of(other)
    }

    /// Appends a component, returning the child path.
    ///
    /// # Panics
    ///
    /// When `name` is not a component [`parse`](MetaPath::parse) would
    /// accept: empty, containing `/`, `.`, `..`, or the reserved `_ATTR`.
    pub fn child(&self, name: &str) -> MetaPath {
        if let Err(why) = check_component(name) {
            panic!("MetaPath::child({name:?}): {why}");
        }
        MetaPath::joined([self.as_str(), "/", name], self.depth() + 1)
    }

    /// Depth of the least common ancestor of two paths.
    ///
    /// Loop detection for `dirrename` walks from the LCA towards the
    /// destination (§5.2.2, Figure 9 step 6).
    pub fn lca_depth(&self, other: &MetaPath) -> usize {
        self.components()
            .zip(other.components())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Rewrites this path by replacing the `src` prefix with `dst`.
    ///
    /// Used by caches to remap descendants after a rename. Returns `None`
    /// when `src` is not a prefix of `self`.
    pub fn rebase(&self, src: &MetaPath, dst: &MetaPath) -> Option<MetaPath> {
        if !src.is_prefix_of(self) {
            return None;
        }
        let below = &self.as_str()[src.as_str().len()..];
        let depth = dst.depth() + self.depth() - src.depth();
        Some(MetaPath::joined([dst.as_str(), below], depth))
    }
}

impl PartialEq for MetaPath {
    fn eq(&self, other: &MetaPath) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for MetaPath {}

impl Hash for MetaPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Ord for MetaPath {
    /// Byte order with `/` ranked below every other byte: the order of the
    /// component lists, so a path and the paths under it are one range.
    fn cmp(&self, other: &MetaPath) -> Ordering {
        let (a, b) = (self.as_str().as_bytes(), other.as_str().as_bytes());
        let same = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        // The first differing byte decides; a text that ends first is lower.
        let rank = |text: &[u8]| text.get(same).map(|&c| (c != b'/', c));
        rank(a).cmp(&rank(b))
    }
}

impl PartialOrd for MetaPath {
    fn partial_cmp(&self, other: &MetaPath) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for MetaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_root() { "/" } else { self.as_str() })
    }
}

impl fmt::Debug for MetaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl std::str::FromStr for MetaPath {
    type Err = MetaError;

    fn from_str(s: &str) -> Result<Self> {
        MetaPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(p("/A/C/E").to_string(), "/A/C/E");
        assert_eq!(p("//A///C/").to_string(), "/A/C");
        assert_eq!(p("/").to_string(), "/");
        assert!(p("/").is_root());
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!(MetaPath::parse("relative").is_err());
        assert!(MetaPath::parse("/a/./b").is_err());
        assert!(MetaPath::parse("/a/../b").is_err());
        assert!(MetaPath::parse("/a/_ATTR/b").is_err());
    }

    #[test]
    fn parent_and_name() {
        let path = p("/A/C/E");
        assert_eq!(path.name(), Some("E"));
        assert_eq!(path.parent().unwrap(), p("/A/C"));
        assert_eq!(p("/A").parent().unwrap(), MetaPath::root());
        assert!(MetaPath::root().parent().is_none());
        assert!(MetaPath::root().name().is_none());
    }

    #[test]
    fn truncate_leaf_matches_paper_example() {
        // Resolving `/A/C/E/G/H` with k = 3 inspects `/A/C` (§5.1.1).
        assert_eq!(p("/A/C/E/G/H").truncate_leaf(3).unwrap(), p("/A/C"));
        assert!(p("/A/C").truncate_leaf(3).is_none());
        assert!(p("/A/C/E").truncate_leaf(3).is_none());
        assert_eq!(p("/A/C/E/G").truncate_leaf(3).unwrap(), p("/A"));
    }

    #[test]
    fn prefix_relations() {
        assert!(p("/A").is_prefix_of(&p("/A/B")));
        assert!(p("/A").is_ancestor_of(&p("/A/B")));
        assert!(!p("/A").is_ancestor_of(&p("/A")));
        assert!(p("/A").is_prefix_of(&p("/A")));
        assert!(!p("/A/B").is_prefix_of(&p("/A/C")));
        assert!(MetaPath::root().is_prefix_of(&p("/A")));
    }

    #[test]
    fn lca_depth_examples() {
        assert_eq!(p("/A/B/C").lca_depth(&p("/A/B/D/E")), 2);
        assert_eq!(p("/A").lca_depth(&p("/X")), 0);
        assert_eq!(p("/A/B").lca_depth(&p("/A/B")), 2);
    }

    #[test]
    fn rebase_rewrites_descendants() {
        let moved = p("/A/B/C/file").rebase(&p("/A/B"), &p("/X/Y")).unwrap();
        assert_eq!(moved, p("/X/Y/C/file"));
        assert!(p("/A/Z").rebase(&p("/A/B"), &p("/X")).is_none());
    }

    #[test]
    fn child_extends_path() {
        assert_eq!(MetaPath::root().child("A"), p("/A"));
        assert_eq!(p("/A").child("B").depth(), 2);
        // Names parse accepts, child accepts: dots and the reserved word
        // are only refused as a whole component.
        assert_eq!(p("/A").child("..."), p("/A/..."));
        assert_eq!(p("/A").child("_ATTRS"), p("/A/_ATTRS"));
    }

    fn child_panics(name: &str) -> bool {
        std::panic::catch_unwind(|| p("/A").child(name)).is_err()
    }

    #[test]
    fn child_rejects_empty_name() {
        assert!(child_panics(""));
    }

    #[test]
    fn child_rejects_separator() {
        // Depth +1 that displays and re-parses as depth +2.
        assert!(child_panics("b/c"));
        // A leaf whose entry key would be the parent's attribute-row key.
        assert!(child_panics("/_ATTR"));
        assert!(child_panics("/"));
    }

    #[test]
    fn child_rejects_dot() {
        assert!(child_panics("."));
    }

    #[test]
    fn child_rejects_dot_dot() {
        assert!(child_panics(".."));
    }

    #[test]
    fn child_rejects_reserved_name() {
        assert!(child_panics("_ATTR"));
    }

    fn hash_of(path: &MetaPath) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        path.hash(&mut h);
        h.finish()
    }

    #[test]
    fn views_equal_and_hash_like_parsed_paths() {
        let full = p("/A/C/E/G/H");
        for view in [
            full.parent().unwrap().parent().unwrap().parent().unwrap(),
            full.prefix(2),
            full.truncate_leaf(3).unwrap(),
        ] {
            assert_eq!(view, p("/A/C"));
            assert_eq!(hash_of(&view), hash_of(&p("/A/C")));
            assert_eq!(view.to_string(), "/A/C");
            assert_eq!(view.depth(), 2);
            assert_eq!(view.name(), Some("C"));
            assert_eq!(view.components().collect::<Vec<_>>(), ["A", "C"]);
        }
        assert_eq!(full.prefix(0), MetaPath::root());
        assert_eq!(hash_of(&full.prefix(0)), hash_of(&MetaPath::root()));
        assert_eq!(full.prefix(0).to_string(), "/");
        assert_eq!(full.prefix(9), full);
        assert_eq!(full.truncate_leaf(0).unwrap(), full);
    }

    #[test]
    fn order_is_component_wise() {
        // Plain byte order would put `/a-x` first, because `-` < `/`.
        assert!(p("/a/b") < p("/a-x"));
        assert!(p("/a/b/c") < p("/a b") && p("/a/b") < p("/a.b"));
        assert!(p("/a-x") < p("/a.b") && p("/a.b") < p("/ab"));
        assert!(p("/a") < p("/a/b"));
        assert!(MetaPath::root() < p("/a"));
        assert_eq!(p("/a/b/c").prefix(2).cmp(&p("/a/b")), Ordering::Equal);
    }

    #[test]
    fn prefix_test_respects_component_boundaries() {
        assert!(!p("/a").is_prefix_of(&p("/ab")));
        assert!(!p("/a").is_ancestor_of(&p("/ab/c")));
        assert!(p("/a/b/c").prefix(1).is_ancestor_of(&p("/a/b")));
    }

    fn shared(path: &MetaPath) -> Option<&Arc<str>> {
        match &path.0 {
            Repr::Shared { buf, .. } => Some(buf),
            Repr::Inline { .. } => None,
        }
    }

    #[test]
    fn short_paths_are_inline_and_views_under_the_cap_copies() {
        let cap = MetaPath::INLINE_CAP;
        assert!(shared(&p(&format!("/{}", "x".repeat(cap - 1)))).is_none());
        let full = p(&format!("/{}/{}/y", "x".repeat(cap - 1), "x".repeat(cap)));
        let long = full.parent().unwrap();
        assert!(Arc::ptr_eq(shared(&long).unwrap(), shared(&full).unwrap()));
        assert!(shared(&long.parent().unwrap()).is_none());
        assert!(shared(&full.prefix(1)).is_none() && full.prefix(1).is_compact());
    }

    #[test]
    fn compact_drops_the_hidden_tail() {
        let seg = "x".repeat(40);
        let full = p(&format!("/{seg}/{seg}/{seg}/{seg}"));
        let view = full.truncate_leaf(2).unwrap();
        assert!(Arc::ptr_eq(shared(&view).unwrap(), shared(&full).unwrap()));
        assert!(!view.is_compact());
        let compact = view.compact();
        assert_eq!(compact, view);
        assert_eq!(&**shared(&compact).unwrap(), format!("/{seg}/{seg}"));
        // Already right-sized: shared, not copied.
        assert!(full.is_compact());
        assert!(Arc::ptr_eq(
            shared(&full.compact()).unwrap(),
            shared(&full).unwrap()
        ));
    }
}
