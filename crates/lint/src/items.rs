//! Item indexer: a lightweight structural layer over the token stream.
//!
//! The flow-aware passes need to know *where* a finding sits — which
//! function, which impl, which module — so findings can carry a stable
//! item path (the fingerprint input), and so per-item waivers
//! (`// adavp-lint: allow(rule, item=name) — reason`) can scope a grant to
//! one function instead of one line. The indexer recognizes `mod`, `fn`,
//! `impl`, and `trait` items, records their 1-based line spans, captures
//! the outer attributes written directly above them, and nests them into
//! `::`-joined paths (`RowPool::take`, `tests::roundtrip`).
//!
//! This is not a parser: it is a single forward scan with brace matching,
//! which is enough because the lexer has already removed comments, string
//! bodies, and (via [`crate::lexer::strip_cfg_test`]) whole test items.

use crate::lexer::Token;

/// What kind of item a span is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Mod,
    Fn,
    Impl,
    Trait,
}

impl ItemKind {
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Mod => "mod",
            ItemKind::Fn => "fn",
            ItemKind::Impl => "impl",
            ItemKind::Trait => "trait",
        }
    }
}

/// One indexed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub kind: ItemKind,
    /// Final path segment (`take`, `tests`).
    pub name: String,
    /// `::`-joined path within the file (`RowPool::take`).
    pub path: String,
    /// Line of the introducing keyword.
    pub line_start: u32,
    /// Line of the closing `}` (or the `;` of a body-less declaration).
    pub line_end: u32,
    /// Outer attributes written directly above the item (`#[inline]`).
    pub attrs: Vec<String>,
}

impl Item {
    fn contains(&self, line: u32) -> bool {
        line >= self.line_start && line <= self.line_end
    }
}

/// All items of one file, in source order.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub items: Vec<Item>,
}

impl ItemIndex {
    /// Builds the index from a (comment-free) token stream.
    pub fn build(tokens: &[Token]) -> Self {
        let mut items = Vec::new();
        scan(tokens, 0, tokens.len(), "", &mut items);
        ItemIndex { items }
    }

    /// Innermost item whose span contains `line` (functions nest inside
    /// impls and mods, so the smallest span wins).
    pub fn enclosing(&self, line: u32) -> Option<&Item> {
        self.items
            .iter()
            .filter(|it| it.contains(line))
            .min_by_key(|it| it.line_end - it.line_start)
    }

    /// Items matching `name`: either the final segment or the full
    /// `::`-joined path.
    pub fn named(&self, name: &str) -> Vec<&Item> {
        self.items
            .iter()
            .filter(|it| it.name == name || it.path == name)
            .collect()
    }
}

/// Scan `tokens[i..end]` for items at path `prefix`, recursing into bodies.
fn scan(tokens: &[Token], mut i: usize, end: usize, prefix: &str, out: &mut Vec<Item>) {
    let mut pending_attrs: Vec<String> = Vec::new();
    while i < end {
        let text = tokens[i].text.as_str();
        match text {
            "#" if tokens.get(i + 1).is_some_and(|t| t.text == "[") => {
                let close = match_bracket(tokens, i + 1, end);
                pending_attrs.push(render_tokens(&tokens[i..close.min(end)]));
                i = close;
            }
            "mod" | "trait" if next_is_ident(tokens, i, end) => {
                let kind = if text == "mod" {
                    ItemKind::Mod
                } else {
                    ItemKind::Trait
                };
                let name = tokens[i + 1].text.clone();
                i = record_block_item(tokens, i, end, prefix, kind, name, &mut pending_attrs, out);
            }
            "fn" if next_is_ident(tokens, i, end) => {
                let name = tokens[i + 1].text.clone();
                i = record_block_item(
                    tokens,
                    i,
                    end,
                    prefix,
                    ItemKind::Fn,
                    name,
                    &mut pending_attrs,
                    out,
                );
            }
            "impl" if at_statement_position(tokens, i) => {
                let name = impl_target_name(tokens, i + 1, end);
                i = record_block_item(
                    tokens,
                    i,
                    end,
                    prefix,
                    ItemKind::Impl,
                    name,
                    &mut pending_attrs,
                    out,
                );
            }
            // Visibility and qualifiers sit between an attribute and its
            // item (`#[inline] pub(crate) const fn …`); anything else
            // orphans the pending attributes.
            "pub" | "(" | ")" | "crate" | "super" | "self" | "in" | "const" | "async"
            | "unsafe" | "extern" | "default" => i += 1,
            _ => {
                pending_attrs.clear();
                i += 1;
            }
        }
    }
}

/// `impl` is an item only in statement position; `-> impl Iterator` and
/// `x: impl Fn()` are type uses.
fn at_statement_position(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| tokens[p].text.as_str()) {
        None => true,
        Some(";" | "}" | "{" | "]") => true,
        Some(_) => false,
    }
}

fn next_is_ident(tokens: &[Token], i: usize, end: usize) -> bool {
    i + 1 < end && {
        let t = &tokens[i + 1].text;
        t.starts_with("r#")
            || t.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
    }
}

/// Record one item starting at keyword index `kw`, recurse into its body,
/// and return the index just past it.
#[allow(clippy::too_many_arguments)]
fn record_block_item(
    tokens: &[Token],
    kw: usize,
    end: usize,
    prefix: &str,
    kind: ItemKind,
    name: String,
    pending_attrs: &mut Vec<String>,
    out: &mut Vec<Item>,
) -> usize {
    let line_start = tokens[kw].line;
    // Find the body `{` (or a terminating `;` for body-less declarations).
    let mut j = kw + 1;
    let mut body_open = None;
    while j < end {
        match tokens[j].text.as_str() {
            "{" => {
                body_open = Some(j);
                break;
            }
            ";" => break,
            _ => j += 1,
        }
    }
    let path = if prefix.is_empty() {
        name.clone()
    } else {
        format!("{prefix}::{name}")
    };
    let slot = out.len();
    out.push(Item {
        kind,
        name,
        path: path.clone(),
        line_start,
        line_end: line_start,
        attrs: std::mem::take(pending_attrs),
    });
    match body_open {
        Some(open) => {
            let close = match_brace(tokens, open, end);
            out[slot].line_end = tokens
                .get(close.min(end - 1))
                .map_or(line_start, |t| t.line);
            scan(tokens, open + 1, close.min(end), &path, out);
            close + 1
        }
        None => {
            // Declaration without a body (`mod x;`, trait method signature).
            out[slot].line_end = tokens.get(j.min(end - 1)).map_or(line_start, |t| t.line);
            j + 1
        }
    }
}

/// Index of the `}` matching the `{` at `open` (or `end` if unbalanced).
fn match_brace(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    end
}

/// Index just past the `]` matching the `[` at `open` (or `end`).
fn match_bracket(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    end
}

/// The self-type name of an `impl` header: the last path identifier before
/// the body, taken from after `for` when a trait impl (`impl Display for
/// Row` → `Row`, `impl<T> RowPool<T>` → `RowPool`).
fn impl_target_name(tokens: &[Token], mut i: usize, end: usize) -> String {
    let mut last_ident = String::from("impl");
    let mut angle = 0i32;
    let mut after_for_ident: Option<String> = None;
    let mut saw_for = false;
    while i < end {
        match tokens[i].text.as_str() {
            "{" | "where" if angle == 0 => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => saw_for = true,
            t if angle == 0
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
            {
                if saw_for {
                    after_for_ident = Some(t.to_string());
                } else {
                    last_ident = t.to_string();
                }
            }
            _ => {}
        }
        i += 1;
    }
    after_for_ident.unwrap_or(last_ident)
}

/// Render a token slice for attribute display (`#[inline]`,
/// `#[derive(Debug, Clone)]`).
fn render_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (k, t) in tokens.iter().enumerate() {
        let text = t.text.as_str();
        if k > 0 && text == "," {
            out.push_str(", ");
            continue;
        }
        if out.ends_with(", ") || out.is_empty() {
            out.push_str(text);
            continue;
        }
        let joined = matches!(text, "[" | "]" | "(" | ")" | "#" | "::" | "=" | "\"")
            || out.ends_with(['[', '(', '#', '='])
            || out.ends_with("::");
        if !joined {
            out.push(' ');
        }
        out.push_str(text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> ItemIndex {
        ItemIndex::build(&lex(src).tokens)
    }

    #[test]
    fn nested_mods_and_fns_get_qualified_paths_and_spans() {
        let src = "\
mod outer {
    pub fn top(a: u8) -> u8 {
        a + 1
    }
    mod inner {
        fn leaf() {}
    }
}
fn free() {}
";
        let idx = index(src);
        let paths: Vec<(&str, &str, u32, u32)> = idx
            .items
            .iter()
            .map(|i| (i.kind.label(), i.path.as_str(), i.line_start, i.line_end))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("mod", "outer", 1, 8),
                ("fn", "outer::top", 2, 4),
                ("mod", "outer::inner", 5, 7),
                ("fn", "outer::inner::leaf", 6, 6),
                ("fn", "free", 9, 9),
            ]
        );
        assert_eq!(idx.enclosing(3).unwrap().path, "outer::top");
        assert_eq!(idx.enclosing(5).unwrap().path, "outer::inner");
    }

    #[test]
    fn impl_blocks_name_the_self_type() {
        let src = "\
struct Row;
impl Row {
    fn width(&self) -> usize { 0 }
}
impl std::fmt::Display for Row {
    fn fmt(&self) -> usize { 1 }
}
impl<T: Clone> Pool<T> {
    fn take(&mut self) {}
}
";
        let idx = index(src);
        let paths: Vec<&str> = idx.items.iter().map(|i| i.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["Row", "Row::width", "Row", "Row::fmt", "Pool", "Pool::take"]
        );
        assert_eq!(idx.enclosing(6).unwrap().path, "Row::fmt");
    }

    #[test]
    fn impl_in_type_position_is_not_an_item() {
        let src = "fn f(x: impl Iterator<Item = u8>) -> impl Clone { x.count() }\n";
        let idx = index(src);
        assert_eq!(idx.items.len(), 1);
        assert_eq!(idx.items[0].path, "f");
    }

    #[test]
    fn attributes_are_captured_on_the_following_item() {
        let src = "#[inline]\n#[must_use]\nfn hot() -> u8 { 3 }\n";
        let idx = index(src);
        assert_eq!(idx.items[0].attrs, vec!["#[inline]", "#[must_use]"]);
    }

    #[test]
    fn raw_identifier_fn_is_not_a_function_keyword() {
        // `r#fn` lexes as one identifier token; calling `r#fn()` must not
        // open a phantom item, and `fn r#try() {}` indexes under its raw
        // name.
        let idx = index("fn caller() { r#fn(); }\nfn r#try() {}\n");
        let paths: Vec<&str> = idx.items.iter().map(|i| i.path.as_str()).collect();
        assert_eq!(paths, vec!["caller", "r#try"]);
    }

    #[test]
    fn bodyless_declarations_span_their_signature() {
        let idx = index("mod detached;\ntrait T {\n    fn sig(&self) -> u8;\n}\n");
        let spans: Vec<(&str, u32, u32)> = idx
            .items
            .iter()
            .map(|i| (i.path.as_str(), i.line_start, i.line_end))
            .collect();
        assert_eq!(
            spans,
            vec![("detached", 1, 1), ("T", 2, 4), ("T::sig", 3, 3)]
        );
    }

    #[test]
    fn named_matches_segment_or_full_path() {
        let idx = index("mod a { fn f() {} }\nmod b { fn f() {} }\n");
        assert_eq!(idx.named("f").len(), 2);
        assert_eq!(idx.named("a::f").len(), 1);
        assert!(idx.named("missing").is_empty());
    }
}
