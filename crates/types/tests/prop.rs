//! Property tests over paths, stored names, permissions and histograms.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use mantle_types::hist::Histogram;
use mantle_types::{MetaPath, Name, Permission};
use proptest::prelude::*;

/// Component names: bytes that sort below `/` (space, `+`, `-`, `.`),
/// names that are byte prefixes of one another, multi-byte names, and
/// near misses of the refused components. Few enough that two draws often
/// share a prefix.
fn arb_names(max: usize) -> impl Strategy<Value = Vec<String>> {
    let names = [
        "a", "b", "ab", "a-x", "a b", "a+", "-", "+", " ", ".a", "a.", "...", "0", "é", "日本",
        "_ATTRx",
    ];
    prop::collection::vec(
        prop::sample::select(names.map(String::from).to_vec()),
        0..max,
    )
}

/// `names` as path text, each component led by one to three slashes, with
/// or without trailing ones.
fn arb_text(max: usize) -> impl Strategy<Value = (Vec<String>, String)> {
    (
        arb_names(max),
        prop::collection::vec(1usize..4, max..max + 1),
        0usize..3,
    )
        .prop_map(|(names, slashes, trailing)| {
            let mut text: String = names
                .iter()
                .zip(&slashes)
                .map(|(name, n)| "/".repeat(*n) + name)
                .collect();
            if names.is_empty() || trailing > 0 {
                text += &"/".repeat(trailing.max(1));
            }
            (names, text)
        })
}

fn arb_path() -> impl Strategy<Value = MetaPath> {
    arb_text(8).prop_map(|(_, text)| MetaPath::parse(&text).expect("valid components"))
}

fn parse_names(names: &[String]) -> MetaPath {
    MetaPath::parse(&format!("/{}", names.join("/"))).expect("valid components")
}

/// The path `names`, as a view over the buffer of the longer path
/// `names + tail`, reached one of three ways.
fn view_of(names: &[String], tail: &[String], how: usize) -> MetaPath {
    let full = parse_names(&[names, tail].concat());
    match how % 3 {
        0 => full.prefix(names.len()),
        1 if !names.is_empty() => full
            .truncate_leaf(tail.len())
            .expect("deeper than the tail"),
        _ => (0..tail.len()).fold(full, |p, _| p.parent().expect("deeper than the tail")),
    }
}

fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Names on both sides of the inline capacity (22 bytes): lengths 0, 21,
/// 22, 23 and 200, a two- and a three-byte character straddling byte 22,
/// and one that ends exactly on it — each with one character optionally
/// replaced, so two draws often share a long prefix.
fn arb_stored_name() -> impl Strategy<Value = String> {
    let a = |n: usize| "a".repeat(n);
    let corpus = vec![
        String::new(),
        a(21),
        a(22),
        a(23),
        a(200),
        a(21) + "é",
        a(20) + "日",
        a(20) + "é",
        a(21) + "b",
        a(199) + "b",
    ];
    (prop::sample::select(corpus), 0usize..201, any::<bool>()).prop_map(|(name, at, flip)| {
        name.chars()
            .enumerate()
            .map(|(i, c)| if flip && i == at { 'b' } else { c })
            .collect()
    })
}

/// Component lists whose text is the path inline capacity less one, the
/// capacity, one more, or any length up to 200 bytes: short names from
/// [`arb_names`], then one filler name that brings the text to that length,
/// ending in a one-, two- or three-byte character (when there is room).
fn arb_boundary_names() -> impl Strategy<Value = Vec<String>> {
    let cap = MetaPath::INLINE_CAP;
    let last = prop::sample::select(vec!["x", "é", "日"]);
    (arb_names(6), 0usize..4, 0usize..201, last).prop_map(move |(mut names, pick, any, last)| {
        let length = [cap - 1, cap, cap + 1].get(pick).copied().unwrap_or(any);
        let text: usize = names.iter().map(|name| 1 + name.len()).sum();
        // The filler's bytes after its slash.
        let room = length.saturating_sub(text + 1);
        if room >= last.len() {
            names.push("x".repeat(room - last.len()) + last);
        } else if room > 0 {
            names.push("x".repeat(room));
        }
        names
    })
}

/// Arbitrary text: separator runs, refused components (`.`, `..`,
/// `_ATTR`), multi-byte characters and long runs, up to about 200 bytes,
/// absolute or not.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    let tokens = [
        "/",
        "/",
        "//",
        "///",
        ".",
        "..",
        "_ATTR",
        "a",
        "-",
        "é",
        "日本",
        "xxxxxxxxxxxxxxxx",
    ];
    (
        prop::sample::select(vec!["/", "/", "/", ""]),
        prop::collection::vec(prop::sample::select(tokens.to_vec()), 0..40),
    )
        .prop_map(|(lead, tokens)| lead.to_string() + &tokens.concat())
}

/// Checks `path` against the component list it must stand for.
fn check_against_model(path: &MetaPath, model: &[String]) -> Result<(), TestCaseError> {
    prop_assert_eq!(path.components().collect::<Vec<_>>(), model);
    prop_assert_eq!(path.depth(), model.len());
    prop_assert_eq!(path.is_root(), model.is_empty());
    prop_assert_eq!(path.name(), model.last().map(String::as_str));
    prop_assert_eq!(path.to_string(), format!("/{}", model.join("/")));
    let parsed = parse_names(model);
    prop_assert_eq!(path, &parsed);
    prop_assert_eq!(hash_of(path), hash_of(&parsed));
    prop_assert_eq!(path.cmp(&parsed), Ordering::Equal);
    prop_assert_eq!(&path.compact(), &parsed);
    prop_assert!(path.compact().is_compact());
    Ok(())
}
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stored name is its text: it derefs, orders, compares, hashes and
    /// debug-prints exactly as that `&str` does, inline or shared.
    #[test]
    fn a_name_behaves_as_its_text(a in arb_stored_name(), b in arb_stored_name()) {
        let (na, nb) = (Name::new(&a), Name::new(&b));
        prop_assert_eq!(&*na, a.as_str());
        prop_assert_eq!(&na.clone(), &na);
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(hash_of(&na), hash_of(a.as_str()));
        prop_assert_eq!(format!("{na:?}"), format!("{a:?}"));
        // `Borrow<str>`: a map of names is probed by text.
        prop_assert!(HashSet::from([na]).contains(a.as_str()));
    }

    /// Display → parse is the identity.
    #[test]
    fn path_display_parse_round_trip(path in arb_path()) {
        let reparsed = MetaPath::parse(&path.to_string()).unwrap();
        prop_assert_eq!(reparsed, path);
    }

    /// parent() strips exactly one component; child() undoes it.
    #[test]
    fn parent_child_inverse(path in arb_path()) {
        if let (Some(parent), Some(name)) = (path.parent(), path.name()) {
            prop_assert_eq!(parent.depth() + 1, path.depth());
            prop_assert_eq!(parent.child(name), path.clone());
            prop_assert!(parent.is_prefix_of(&path));
        } else {
            prop_assert!(path.is_root());
        }
    }

    /// prefix(n) is always a prefix; prefixes are totally ordered by depth.
    #[test]
    fn prefixes_are_prefixes(path in arb_path(), n in 0usize..10) {
        let prefix = path.prefix(n);
        prop_assert!(prefix.is_prefix_of(&path));
        prop_assert_eq!(prefix.depth(), n.min(path.depth()));
    }

    /// lca_depth is symmetric, bounded by both depths, and the shared
    /// prefix at that depth matches.
    #[test]
    fn lca_properties(a in arb_path(), b in arb_path()) {
        let d = a.lca_depth(&b);
        prop_assert_eq!(d, b.lca_depth(&a));
        prop_assert!(d <= a.depth() && d <= b.depth());
        prop_assert_eq!(a.prefix(d), b.prefix(d));
        if d < a.depth() && d < b.depth() {
            prop_assert_ne!(a.prefix(d + 1), b.prefix(d + 1));
        }
    }

    /// rebase moves a path between prefixes and is reversible.
    #[test]
    fn rebase_round_trip(base in arb_path(), suffix in arb_path(), dst in arb_path()) {
        let mut path = base.clone();
        for comp in suffix.components() {
            path = path.child(comp);
        }
        let moved = path.rebase(&base, &dst).expect("base is a prefix");
        prop_assert_eq!(moved.depth(), dst.depth() + suffix.depth());
        let back = moved.rebase(&dst, &base).expect("dst is a prefix");
        prop_assert_eq!(back, path);
    }

    /// `parse` normalizes to the component list, whatever the slashes.
    #[test]
    fn model_parse(case in arb_text(8)) {
        let (names, text) = case;
        check_against_model(&MetaPath::parse(&text).unwrap(), &names)?;
    }

    /// `prefix`, `truncate_leaf` and `parent` agree with slicing the
    /// component list, and every view equals, hashes like and orders like
    /// the same path parsed into a buffer of its own.
    #[test]
    fn model_views(names in arb_names(8), n in 0usize..10, k in 0usize..10, how in 0usize..3) {
        let path = parse_names(&names);
        check_against_model(&path.prefix(n), &names[..n.min(names.len())])?;
        match path.truncate_leaf(k) {
            Some(cut) => {
                prop_assert!(names.len() > k);
                check_against_model(&cut, &names[..names.len() - k])?;
            }
            None => prop_assert!(names.len() <= k),
        }
        match path.parent() {
            Some(parent) => check_against_model(&parent, &names[..names.len() - 1])?,
            None => prop_assert!(names.is_empty()),
        }
        // Views of views.
        let cut = n.min(names.len());
        let view = view_of(&names[..cut], &names[cut..], how);
        check_against_model(&view, &names[..cut])?;
        check_against_model(&view.prefix(k), &names[..k.min(cut)])?;
    }

    /// `child` pushes a component and `rebase` swaps a prefix, on views as
    /// on whole paths.
    #[test]
    fn model_child_rebase(base in arb_names(4), below in arb_names(4), dst in arb_names(4),
                          tail in arb_names(3), how in 0usize..3) {
        let whole = [base.clone(), below.clone()].concat();
        let path = view_of(&whole, &tail, how);
        let src = view_of(&base, &tail, how + 1);
        let dst_path = view_of(&dst, &below, how + 2);

        let mut grown = src.clone();
        for name in &below {
            grown = grown.child(name);
        }
        check_against_model(&grown, &whole)?;

        let moved = path.rebase(&src, &dst_path).expect("src is a prefix");
        check_against_model(&moved, &[dst.clone(), below.clone()].concat())?;
        // Not under `src`: no rebase.
        let other = parse_names(&dst);
        prop_assert_eq!(other.rebase(&src, &path).is_some(), dst.starts_with(&base));
    }

    /// The relations between two paths are those of their component
    /// lists: prefix tests, LCA depth, component-wise order, and equal
    /// paths hash equal whatever buffers they are views of.
    #[test]
    fn model_relations(base in arb_names(4), below_a in arb_names(4), below_b in arb_names(4),
                       tail in arb_names(3), how in 0usize..3) {
        let (names_a, names_b) = ([base.clone(), below_a].concat(), [base, below_b].concat());
        let a = view_of(&names_a, &tail, how);
        let b = parse_names(&names_b);

        prop_assert_eq!(a.is_prefix_of(&b), names_b.starts_with(&names_a));
        prop_assert_eq!(b.is_prefix_of(&a), names_a.starts_with(&names_b));
        prop_assert_eq!(
            a.is_ancestor_of(&b),
            names_b.starts_with(&names_a) && names_a.len() < names_b.len()
        );
        let common = names_a.iter().zip(&names_b).take_while(|(x, y)| x == y).count();
        prop_assert_eq!(a.lca_depth(&b), common);
        prop_assert_eq!(b.lca_depth(&a), common);
        prop_assert_eq!(a.cmp(&b), names_a.cmp(&names_b));
        prop_assert_eq!(a.partial_cmp(&b), Some(names_a.cmp(&names_b)));
        prop_assert_eq!(a == b, names_a == names_b);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    /// `parse` of any text never panics: it refuses a relative path or a
    /// refused component, and otherwise stands for the text's non-empty
    /// components, re-parsing from its display to the same path and depth.
    #[test]
    fn parse_survives_hostile_text(text in arb_hostile_text()) {
        let model: Vec<String> = text.split('/').filter(|c| !c.is_empty()).map(String::from).collect();
        let refused = ["." , "..", "_ATTR"];
        match MetaPath::parse(&text) {
            Ok(path) => {
                prop_assert!(text.starts_with('/'));
                check_against_model(&path, &model)?;
                let reparsed = MetaPath::parse(&path.to_string()).unwrap();
                prop_assert_eq!(reparsed.depth(), path.depth());
                prop_assert_eq!(reparsed, path);
            }
            Err(_) => prop_assert!(
                !text.starts_with('/') || model.iter().any(|c| refused.contains(&c.as_str()))
            ),
        }
    }

    /// Across the inline capacity, a path is its text: whole paths, views
    /// of a longer path that fall either side of the capacity, paths grown
    /// by `child` and moved by `rebase` all equal, hash like and order like
    /// a fresh parse, and `compact` gives a compact equal path.
    #[test]
    fn paths_across_the_inline_capacity(names in arb_boundary_names(), tail in arb_boundary_names(),
                                        n in 0usize..10, how in 0usize..3) {
        let whole = [names.clone(), tail.clone()].concat();
        check_against_model(&parse_names(&whole), &whole)?;
        let view = view_of(&names, &tail, how);
        check_against_model(&view, &names)?;
        check_against_model(&view.prefix(n), &names[..n.min(names.len())])?;

        let mut grown = view.clone();
        for name in &tail {
            grown = grown.child(name);
        }
        check_against_model(&grown, &whole)?;
        let dst = view_of(&tail, &names, how + 1);
        let moved = parse_names(&whole).rebase(&view, &dst).expect("a prefix");
        check_against_model(&moved, &[tail.clone(), tail.clone()].concat())?;
        prop_assert_eq!(view.cmp(&dst), names.cmp(&tail));
        prop_assert_eq!(view == dst, names == tail);
    }

    /// Permission aggregation is monotone: adding masks never grants more.
    #[test]
    fn permission_aggregation_monotone(masks in prop::collection::vec(0u16..8, 0..6), extra in 0u16..8) {
        let perms: Vec<Permission> = masks.iter().map(|m| Permission(*m)).collect();
        let agg = Permission::aggregate(perms.clone());
        let mut with_extra = perms;
        with_extra.push(Permission(extra));
        let agg2 = Permission::aggregate(with_extra);
        // agg2 ⊆ agg.
        prop_assert!(agg.allows(agg2));
    }

    /// Histogram quantiles are monotone, bounded by min/max, and count is
    /// exact; merging equals recording the concatenation.
    #[test]
    fn histogram_properties(a in prop::collection::vec(0u64..1_000_000, 1..200),
                            b in prop::collection::vec(0u64..1_000_000, 0..200)) {
        let mut ha = Histogram::new();
        for v in &a { ha.record(*v); }
        let mut hb = Histogram::new();
        for v in &b { hb.record(*v); }

        prop_assert_eq!(ha.count(), a.len() as u64);
        let exact_min = *a.iter().min().unwrap();
        let exact_max = *a.iter().max().unwrap();
        prop_assert_eq!(ha.min(), exact_min);
        prop_assert_eq!(ha.max(), exact_max);
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = ha.quantile(q);
            prop_assert!(v >= prev, "quantiles must be monotone");
            prop_assert!(v >= exact_min && v <= exact_max);
            prev = v;
        }

        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut concat = Histogram::new();
        for v in a.iter().chain(&b) { concat.record(*v); }
        prop_assert_eq!(merged.count(), concat.count());
        prop_assert_eq!(merged.quantile(0.5), concat.quantile(0.5));
        prop_assert_eq!(merged.max(), concat.max());
    }

    /// The bucketed quantile never exceeds the exact rank-based quantile
    /// and stays within the log-bucket relative-error bound (bucket width
    /// is 1/16 of the value's magnitude; the min/max clamp only tightens
    /// it). Samples stay below 2^40, inside the histogram's exact range.
    #[test]
    fn histogram_quantile_relative_error(samples in prop::collection::vec(1u64..(1 << 40), 1..300),
                                         q_pm in 0u32..=1000) {
        let q = q_pm as f64 / 1000.0;
        let mut h = Histogram::new();
        for v in &samples { h.record(*v); }
        let mut sorted = samples;
        sorted.sort_unstable();
        // Same rank convention as Histogram::quantile.
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];
        let approx = h.quantile(q);
        prop_assert!(approx <= exact, "bucket lower edge overshot: exact={} approx={}", exact, approx);
        let err = (exact - approx) as f64 / exact as f64;
        prop_assert!(err <= 1.0 / 16.0, "q={} exact={} approx={} err={}", q, exact, approx, err);
    }
}
