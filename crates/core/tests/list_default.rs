//! Contract tests for the default [`MetadataService::list`] paging
//! implementation: a mock backend supplies `readdir` (deliberately
//! unsorted) and every case below exercises the trait's default paging
//! over it — boundary `start_after` names, `limit == 0`, and the
//! `truncated` flag across page walks.

use mantle_core::MetadataService;
use mantle_types::record::EntryKind;
use mantle_types::{
    DirEntry, DirStat, InodeId, MetaError, MetaPath, ObjectMeta, Permission, RequestCtx,
    ResolvedPath, Result,
};

/// A backend that serves one fixed directory listing and counts `readdir`
/// calls; everything else is unreachable in these tests.
struct FixedDir {
    names: Vec<&'static str>,
}

impl FixedDir {
    fn new(names: &[&'static str]) -> Self {
        FixedDir {
            names: names.to_vec(),
        }
    }
}

fn entry(name: &str, i: u64) -> DirEntry {
    DirEntry {
        name: name.to_string(),
        id: InodeId(i + 1),
        kind: EntryKind::Dir,
    }
}

impl MetadataService for FixedDir {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn lookup(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<ResolvedPath> {
        Ok(ResolvedPath {
            id: InodeId(1),
            permission: Permission::ALL,
        })
    }

    fn mkdir(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<InodeId> {
        unreachable!()
    }

    fn rmdir(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<()> {
        unreachable!()
    }

    fn create(&self, _: &MetaPath, _: u64, _: &mut RequestCtx) -> Result<InodeId> {
        unreachable!()
    }

    fn delete(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<()> {
        unreachable!()
    }

    fn objstat(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<ObjectMeta> {
        unreachable!()
    }

    fn dirstat(&self, _: &MetaPath, _: &mut RequestCtx) -> Result<DirStat> {
        unreachable!()
    }

    fn readdir(&self, path: &MetaPath, _: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        if !path.is_root() {
            return Err(MetaError::NotFound(path.to_string()));
        }
        // Deliberately unsorted: the default `list` must sort before paging.
        Ok(self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| entry(n, i as u64))
            .collect())
    }

    fn rename_dir(&self, _: &MetaPath, _: &MetaPath, _: &mut RequestCtx) -> Result<()> {
        unreachable!()
    }
}

fn names(page: &[DirEntry]) -> Vec<&str> {
    page.iter().map(|e| e.name.as_str()).collect()
}

#[test]
fn first_page_sorted_and_truncated() {
    let svc = FixedDir::new(&["c", "a", "e", "b", "d"]);
    let mut ctx = RequestCtx::new();
    let (page, truncated) = svc.list(&MetaPath::root(), None, 2, &mut ctx).unwrap();
    assert_eq!(names(&page), ["a", "b"]);
    assert!(truncated, "3 entries remain after the page");
}

#[test]
fn start_after_is_exclusive_at_an_existing_boundary() {
    // `start_after` equal to an existing name must skip that name itself:
    // the contract is strictly-after, matching the COSS LIST marker shape.
    let svc = FixedDir::new(&["a", "b", "c", "d"]);
    let mut ctx = RequestCtx::new();
    let (page, truncated) = svc
        .list(&MetaPath::root(), Some("b"), 10, &mut ctx)
        .unwrap();
    assert_eq!(names(&page), ["c", "d"]);
    assert!(!truncated);
}

#[test]
fn start_after_between_names_and_past_the_end() {
    let svc = FixedDir::new(&["a", "c"]);
    let mut ctx = RequestCtx::new();
    // A marker that names no entry starts at the next name after it.
    let (page, _) = svc
        .list(&MetaPath::root(), Some("b"), 10, &mut ctx)
        .unwrap();
    assert_eq!(names(&page), ["c"]);
    // A marker past every name yields an empty, final page.
    let (page, truncated) = svc
        .list(&MetaPath::root(), Some("z"), 10, &mut ctx)
        .unwrap();
    assert!(page.is_empty());
    assert!(!truncated);
}

#[test]
fn limit_zero_returns_empty_page_with_truncation_signal() {
    let svc = FixedDir::new(&["a", "b"]);
    let mut ctx = RequestCtx::new();
    let (page, truncated) = svc.list(&MetaPath::root(), None, 0, &mut ctx).unwrap();
    assert!(page.is_empty());
    assert!(truncated, "entries remain, so the empty page is truncated");
    // limit 0 on an already-exhausted cursor is final, not truncated.
    let (page, truncated) = svc.list(&MetaPath::root(), Some("b"), 0, &mut ctx).unwrap();
    assert!(page.is_empty());
    assert!(!truncated);
}

#[test]
fn exact_fit_final_page_is_not_truncated() {
    let svc = FixedDir::new(&["a", "b", "c", "d"]);
    let mut ctx = RequestCtx::new();
    let (page, truncated) = svc.list(&MetaPath::root(), Some("b"), 2, &mut ctx).unwrap();
    assert_eq!(names(&page), ["c", "d"]);
    assert!(!truncated, "the page consumed exactly the remainder");
}

#[test]
fn full_walk_reassembles_the_sorted_listing() {
    let svc = FixedDir::new(&["f", "d", "b", "e", "a", "c"]);
    let mut ctx = RequestCtx::new();
    let mut out: Vec<String> = Vec::new();
    let mut marker: Option<String> = None;
    loop {
        let (page, truncated) = svc
            .list(&MetaPath::root(), marker.as_deref(), 2, &mut ctx)
            .unwrap();
        out.extend(page.iter().map(|e| e.name.clone()));
        if !truncated {
            break;
        }
        marker = page.last().map(|e| e.name.clone());
    }
    assert_eq!(out, ["a", "b", "c", "d", "e", "f"]);
}
