//! `unsafe_audit` — workspace lint: every `unsafe` site must carry an
//! adjacent `// SAFETY:` comment.
//!
//! The simulation substrate keeps a small, deliberate set of `unsafe`
//! blocks (the coroutine context switch and protocol cells, the
//! stack allocator). The discipline that makes them reviewable is that
//! each one states its obligation in a `// SAFETY:` comment *at the
//! site*: what invariant holds, and who maintains it. This binary
//! enforces the discipline mechanically — CI runs it
//! (`cargo run -p rtk-analysis --bin unsafe_audit`) and fails on any
//! workspace `unsafe` block, `unsafe impl` or `unsafe fn` that has no
//! adjacent justification.
//!
//! A site is considered justified when the `// SAFETY:` marker appears
//! on the same line, or in the run of comment/attribute/`unsafe impl`
//! lines immediately above it (a single comment may cover a pair of
//! adjacent `unsafe impl Send`/`Sync` lines, the common idiom).
//!
//! Exit code 0 when every site is justified; 1 otherwise, listing each
//! offender as `path:line`.

use std::path::{Path, PathBuf};

/// Collects every `.rs` file under `crates/*/{src,tests,benches}`.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return out;
    };
    for krate in entries.filter_map(|e| e.ok()) {
        for sub in ["src", "tests", "benches"] {
            collect_rs(&krate.path().join(sub), &mut out);
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `true` when the line opens an `unsafe` site that needs a
/// justification (block, impl, fn or extern block).
fn is_unsafe_site(line: &str) -> bool {
    let code = match line.find("//") {
        // Strip a trailing comment, keeping the code part; a line that
        // *starts* with a comment has no code part at all.
        Some(pos) => &line[..pos],
        None => line,
    };
    ["unsafe {", "unsafe impl", "unsafe fn", "unsafe extern"]
        .iter()
        .any(|tok| {
            code.match_indices(tok).any(|(pos, _)| {
                // A token behind an odd number of quotes sits inside a
                // string literal (this file's own token table, say) —
                // not a real site.
                code[..pos].matches('"').count() % 2 == 0
            })
        })
}

fn is_comment_or_attr(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")
}

/// Scans one file; returns the 1-based lines of unjustified sites.
fn audit(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let mut bad = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !is_unsafe_site(line) {
            continue;
        }
        if line.contains("SAFETY") {
            continue;
        }
        // Walk upward through the adjacent run of comments, attributes
        // and sibling `unsafe impl` lines looking for the marker.
        let mut justified = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = lines[j];
            if above.contains("SAFETY") {
                justified = true;
                break;
            }
            if !(is_comment_or_attr(above) || is_unsafe_site(above)) {
                break;
            }
        }
        if !justified {
            bad.push(i + 1);
        }
    }
    bad
}

fn main() -> std::process::ExitCode {
    // The workspace root: this binary runs via `cargo run`, so the
    // manifest dir is `crates/analysis`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis has a workspace root")
        .to_path_buf();
    let mut sites = 0usize;
    let mut failures = Vec::new();
    for file in workspace_sources(&root) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        sites += text.lines().filter(|l| is_unsafe_site(l)).count();
        for line in audit(&text) {
            failures.push(format!("{}:{line}", file.display()));
        }
    }
    if failures.is_empty() {
        println!("unsafe_audit: {sites} unsafe site(s), all justified with // SAFETY:");
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!(
            "unsafe_audit: {} unsafe site(s) lack an adjacent // SAFETY: comment:",
            failures.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::audit;

    #[test]
    fn flags_bare_unsafe_block() {
        let src = "fn f() {\n    unsafe { core() };\n}\n";
        assert_eq!(audit(src), vec![2]);
    }

    #[test]
    fn accepts_adjacent_safety_comment() {
        let src = "fn f() {\n    // SAFETY: justified.\n    unsafe { core() };\n}\n";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn one_comment_covers_an_impl_pair() {
        let src = "// SAFETY: discipline documented above.\n\
                   unsafe impl Send for X {}\n\
                   unsafe impl Sync for X {}\n";
        assert!(audit(src).is_empty());
    }

    #[test]
    fn search_stops_at_code_lines() {
        let src = "// SAFETY: for something else.\nlet x = 1;\nunsafe { core() };\n";
        assert_eq!(audit(src), vec![3]);
    }

    #[test]
    fn comment_only_mentions_are_not_sites() {
        let src = "// talking about unsafe { blocks } here\nlet x = 1;\n";
        assert!(audit(src).is_empty());
    }
}
