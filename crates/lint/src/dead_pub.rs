//! The `dead-pub` rule's scanner: which `pub fn`s a file defines and
//! which identifiers its code mentions, with test-only code removed.
//!
//! The rule is name-based, like every other rule in this crate: a
//! `pub fn` counts as called when its name appears anywhere in
//! non-test code other than a `fn` definition or a `use` declaration.
//! Two functions that share a name therefore shield each other, which
//! is the price of needing no type information.

use std::collections::BTreeSet;

use crate::scan::is_ident;

/// True for the files whose callers count: library, binary and example
/// sources, including the separate `csqp-benchmark` package, which
/// builds against the workspace APIs. Everything else (`tests/`,
/// `benches/`, fixtures) is test code.
pub fn is_non_test_source(rel: &str) -> bool {
    let mut parts = rel.split('/');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some("crates"), Some(_), Some("src"))
            | (Some("csqp-benchmark"), Some("src"), _)
            | (Some("src" | "examples"), _, _)
    )
}

/// What one non-test file contributes to the rule.
#[derive(Debug, Default)]
pub struct FileUse {
    /// `(line, name)` of every `pub fn` outside `#[cfg(test)]` items.
    pub defs: Vec<(usize, String)>,
    /// Every identifier the file's non-test code mentions, except the
    /// names `fn` defines and the paths `use` imports.
    pub mentions: BTreeSet<String>,
}

/// Scan one file's stripped source (see [`crate::scan::strip`]);
/// `None` for a test-only file, one marked `#![cfg(test)]` (the file of
/// an out-of-line `#[cfg(test)] mod` carries that marker too).
pub fn scan(stripped: &str) -> Option<FileUse> {
    if stripped.contains("#![cfg(test)]") {
        return None;
    }
    let code = blank_cfg_test(stripped);
    let toks = tokens(&code);
    let mut file = FileUse::default();
    let mut i = 0;
    while i < toks.len() {
        let (line, tok) = toks[i];
        if tok == "use" {
            while toks.get(i).is_some_and(|t| t.1 != ";") {
                i += 1;
            }
        } else if tok == "fn" {
            if let Some(&(_, name)) = toks.get(i + 1).filter(|t| starts_ident(t.1)) {
                if is_pub(&toks[..i]) {
                    file.defs.push((line, name.to_string()));
                }
                i += 1;
            }
        } else if starts_ident(tok) {
            file.mentions.insert(tok.to_string());
        }
        i += 1;
    }
    Some(file)
}

/// True when the tokens before a `fn` end in plain `pub` (not
/// `pub(crate)`), allowing `const`, `async`, `unsafe` and `extern "…"`
/// qualifiers in between.
fn is_pub(before: &[(usize, &str)]) -> bool {
    for &(_, t) in before.iter().rev() {
        match t {
            "pub" => return true,
            "const" | "async" | "unsafe" | "extern" | "\"" => {}
            _ => return false,
        }
    }
    false
}

fn starts_ident(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
}

/// Split code into `(line, token)`: identifier-or-number runs and
/// single punctuation characters; whitespace is dropped.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut line = 1;
    let mut start = None;
    for (pos, c) in code.char_indices().chain([(code.len(), ' ')]) {
        if is_ident(c) {
            start.get_or_insert(pos);
            continue;
        }
        if let Some(s) = start.take() {
            out.push((line, &code[s..pos]));
        }
        if c == '\n' {
            line += 1;
        } else if !c.is_whitespace() {
            out.push((line, &code[pos..pos + c.len_utf8()]));
        }
    }
    out
}

/// Blank every item under an outer `#[cfg(test)]` attribute (through
/// its first `;` outside brackets, or the brace closing its body),
/// keeping newlines so line numbers stay exact.
fn blank_cfg_test(stripped: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = String::with_capacity(stripped.len());
    let mut rest = stripped;
    while let Some(start) = rest.find(ATTR) {
        out.push_str(&rest[..start]);
        let (mut depth, mut braced, mut end) = (0usize, false, rest.len());
        for (off, c) in rest[start..].char_indices() {
            match c {
                '(' | '[' => depth += 1,
                '{' => (depth, braced) = (depth + 1, true),
                ')' | ']' | '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            let closed = braced && c == '}' && depth == 0;
            if closed || (c == ';' && depth == 0 && !braced) {
                end = start + off + 1;
                break;
            }
        }
        out.extend(
            rest[start..end]
                .chars()
                .map(|c| if c == '\n' { c } else { ' ' }),
        );
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}
