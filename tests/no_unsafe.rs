//! The workspace is `unsafe`-free, and stays that way.
//!
//! Every library crate under `crates/` and `shims/` carries
//! `#![forbid(unsafe_code)]` at its root, and no Rust source under those
//! directories (benches, tests and examples included, which the attribute
//! does not cover) may use the `unsafe` keyword — not even in a comment, so
//! a reintroduction cannot hide behind a justification.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True if `line` contains `unsafe` as a whole word (so `unsafe_code` in
/// the forbid attribute does not count).
fn has_unsafe_keyword(line: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices("unsafe").any(|(at, word)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn no_unsafe_keyword_in_crates_or_shims() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let offenders: Vec<String> = files
        .iter()
        .flat_map(|file| {
            let text = fs::read_to_string(file).expect("readable source");
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(file)
                .display()
                .to_string();
            text.lines()
                .enumerate()
                .filter(|(_, line)| has_unsafe_keyword(line))
                .map(|(n, line)| format!("{rel}:{}: {}", n + 1, line.trim()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "`unsafe` reappeared:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn every_library_root_forbids_unsafe_code() {
    let root = repo_root();
    let mut roots = vec![root.join("src/lib.rs")];
    for dir in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(dir)).expect("workspace directory") {
            let lib = entry.expect("directory entry").path().join("src/lib.rs");
            if lib.exists() {
                roots.push(lib);
            }
        }
    }
    assert!(roots.len() > 15, "found only {} crate roots", roots.len());
    for lib in roots {
        let text = fs::read_to_string(&lib).expect("readable crate root");
        assert!(
            text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

#[test]
fn keyword_matcher_ignores_longer_identifiers() {
    assert!(has_unsafe_keyword("    unsafe { x }"));
    assert!(has_unsafe_keyword("unsafe impl Send for T {}"));
    assert!(!has_unsafe_keyword("#![forbid(unsafe_code)]"));
    assert!(!has_unsafe_keyword("let not_unsafe = 1;"));
}
