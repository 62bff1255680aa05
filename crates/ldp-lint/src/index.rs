//! Phase 1: the workspace symbol index.
//!
//! One walk over every production token stream collects the facts the
//! cross-file rules need:
//!
//! * **fn definitions** — name, containing module path (derived from the
//!   file path), the impl type / trait they belong to,
//!   parameter head types, and the token span of the body;
//! * **struct/enum fields** — `(owner, field) → head type`;
//! * **type aliases** — `type A = HashMap<…>` → `A → HashMap`;
//! * **`use` imports and renames** — `use std::collections::HashMap as
//!   Map` → `Map → [std, collections, HashMap]`.
//!
//! Resolution is name-based and deliberately *approximate*: the index
//! never loads crate metadata, so two `fn helper()` in different files
//! are simply both candidates for a call to `helper()`. Phase 2 rules
//! are conservative on that ambiguity (see [`crate::callgraph`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Token;
use crate::rules::FileScope;

/// One analyzed file: path, scope, and its production-only tokens.
#[derive(Debug)]
pub struct FileData {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Path-derived rule scope.
    pub scope: FileScope,
    /// Token stream with comments, strings and test code removed.
    pub tokens: Vec<Token>,
}

/// Head type of a parameter, field or binding: the outermost
/// *meaningful* type name after seeing through references and smart
/// pointers (`&`, `Arc`, `Box`, …), plus whether it came from a
/// `dyn Trait` / `impl Trait` position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadTy {
    /// Last path segment of the type name (`HashMap`, `Ctx`, `ReplayClock`).
    pub name: String,
    /// True when the head came from `dyn Trait` or `impl Trait`.
    pub is_trait_obj: bool,
}

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Bare name (raw-identifier prefix stripped: `r#async` → `async`).
    pub name: String,
    /// Module path derived from the file (`netsim::sim`).
    pub module: String,
    /// Index into the driver's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `Some(type)` when defined inside an `impl` block.
    pub self_ty: Option<String>,
    /// `Some(trait)` when defined inside `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// `(param name, head type)` pairs; `self` maps to the impl type.
    pub params: Vec<(String, HeadTy)>,
    /// Token-index span of the body `{ … }` in the file's stream
    /// (inclusive braces); `None` for bodyless trait/extern decls.
    pub body: Option<(usize, usize)>,
    /// Body directly reads `Instant::now` / `SystemTime::now`.
    pub reads_wall_clock: bool,
}

impl FnDef {
    /// `module::name` (plus the impl type when this is a method).
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{}::{}::{}", self.module, t, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// Per-file symbol tables.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Local name → full import path (`Map → [std, collections, HashMap]`).
    pub uses: BTreeMap<String, Vec<String>>,
    /// Ids (into [`WorkspaceIndex::fns`]) of fns defined in this file.
    pub fns: Vec<usize>,
}

/// The whole-workspace symbol index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// All fn definitions, in file order.
    pub fns: Vec<FnDef>,
    /// fn name → ids (methods and free fns alike).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `(owner type, field) → head type` for struct and enum fields.
    pub fields: BTreeMap<(String, String), HeadTy>,
    /// field name → owner types declaring it (for unresolved receivers).
    pub field_owners: BTreeMap<String, Vec<String>>,
    /// alias name → RHS head type (`type A = HashMap<…>` → `HashMap`).
    pub aliases: BTreeMap<String, String>,
    /// Per-file tables, parallel to the driver's file list.
    pub files: Vec<FileSymbols>,
}

/// Collection types whose iteration order is a hash function.
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Smart pointers / cells the head-type extraction sees through.
const WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Cell", "RefCell", "Mutex", "RwLock", "Option", "Pin",
];

/// Reserved words that can never be a call target or head type.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while",
];

/// Is `t` a language keyword?
pub fn is_keyword(t: &str) -> bool {
    KEYWORDS.contains(&t)
}

/// Strip a raw-identifier prefix: `r#async` → `async`.
pub fn bare(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Module path derived from a workspace-relative file path:
/// `crates/netsim/src/sim.rs` → `netsim::sim`; `src/lib.rs` → `ldplayer`.
pub fn module_of(path: &str) -> String {
    let p = path.trim_end_matches(".rs");
    let segs: Vec<&str> = p.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < segs.len() {
        match segs[i] {
            "crates" if i + 1 < segs.len() => {
                out.push(segs[i + 1].replace('-', "_"));
                i += 2;
            }
            "src" => i += 1,
            "lib" | "main" | "mod" => i += 1,
            s => {
                out.push(s.replace('-', "_"));
                i += 1;
            }
        }
    }
    if out.is_empty() {
        "crate".into()
    } else {
        out.join("::")
    }
}

/// Build the index over every non-exempt file.
pub fn build(files: &[FileData]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    for (file_id, fd) in files.iter().enumerate() {
        let mut syms = FileSymbols::default();
        let toks = &fd.tokens;
        collect_uses(toks, &mut syms.uses);
        collect_aliases(toks, &mut idx.aliases);
        collect_fields(toks, &mut idx);
        let impls = collect_impl_ranges(toks);
        let module = module_of(&fd.path);
        collect_fns(toks, file_id, &module, &impls, &mut idx, &mut syms);
        idx.files.push(syms);
    }
    for (id, f) in idx.fns.iter().enumerate() {
        idx.by_name.entry(f.name.clone()).or_default().push(id);
    }
    idx
}

// ---- use imports -----------------------------------------------------

/// Collect `use` trees into `local name → full path segments`.
fn collect_uses(toks: &[Token], out: &mut BTreeMap<String, Vec<String>>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "use" {
            // Gather the tree up to the terminating `;`.
            let start = i + 1;
            let mut j = start;
            while j < toks.len() && toks[j].text != ";" {
                j += 1;
            }
            parse_use_tree(&toks[start..j], &mut Vec::new(), out);
            i = j;
        }
        i += 1;
    }
}

/// Recursively expand a use tree (`a::b::{c, d as e, f::g}`).
fn parse_use_tree(
    toks: &[Token],
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let mut i = 0;
    let base = prefix.len();
    let mut last: Option<String> = None;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "::" => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
            }
            "{" => {
                // Split the group on top-level commas, recurse per item.
                let mut depth = 1usize;
                let mut item_start = i + 1;
                let mut j = i + 1;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "," if depth == 1 => {
                            parse_use_tree(&toks[item_start..j], prefix, out);
                            item_start = j + 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if item_start < j {
                    parse_use_tree(&toks[item_start..j.saturating_sub(1)], prefix, out);
                }
                i = j;
                continue;
            }
            "as" => {
                // `path as Alias`: bind the alias to the full path.
                if let (Some(orig), Some(alias)) = (last.take(), toks.get(i + 1)) {
                    if alias.is_ident() {
                        let mut full: Vec<String> = prefix.clone();
                        full.push(orig);
                        out.insert(bare(&alias.text).to_string(), full);
                    }
                }
                i += 1;
            }
            "*" => {} // glob: nothing nameable to record
            t if toks[i].is_ident() => last = Some(bare(t).to_string()),
            _ => {}
        }
        i += 1;
    }
    if let Some(leaf) = last {
        let mut full: Vec<String> = prefix.clone();
        full.push(leaf.clone());
        out.insert(leaf, full);
    }
    prefix.truncate(base);
}

// ---- type aliases and fields ----------------------------------------

/// Collect `type Name = RHS;` aliases (including associated types —
/// harmless extra entries, resolved only when a name matches).
fn collect_aliases(toks: &[Token], out: &mut BTreeMap<String, String>) {
    for i in 0..toks.len() {
        if toks[i].text != "type" || i + 2 >= toks.len() {
            continue;
        }
        if !toks[i + 1].is_ident() {
            continue;
        }
        let name = bare(&toks[i + 1].text).to_string();
        // Skip generics on the alias itself, find `=`.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" if angle > 0 => angle -= 1,
                "=" if angle == 0 => break,
                ";" | "{" => return,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        if let Some(head) = head_type(&toks[j + 1..]) {
            out.insert(name, head.name);
        }
    }
}

/// Collect named fields of `struct`/`enum` declarations.
fn collect_fields(toks: &[Token], idx: &mut WorkspaceIndex) {
    let mut i = 0;
    while i < toks.len() {
        if (toks[i].text == "struct" || toks[i].text == "enum")
            && i + 1 < toks.len()
            && toks[i + 1].is_ident()
        {
            let owner = bare(&toks[i + 1].text).to_string();
            // Find the body `{` (skip generics/where); stop at `;`/`(`
            // for unit and tuple structs.
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut open = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" if angle > 0 && toks[j - 1].text != "-" => angle -= 1,
                    "{" if angle == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if angle == 0 => break,
                    "(" if angle == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else {
                i += 1;
                continue;
            };
            // Within the body, record every `ident : Type` at a field
            // position (previous token is `{`, `,` or an attribute `]`).
            let mut depth = 0i32;
            let mut k = open;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ":" if k > open + 1 && toks[k - 1].is_ident() && toks[k - 2].text != ":" => {
                        let prev2 = &toks[k - 2].text;
                        if matches!(prev2.as_str(), "{" | "," | "]" | "pub" | ")") {
                            let field = bare(&toks[k - 1].text).to_string();
                            if let Some(head) = head_type(&toks[k + 1..]) {
                                idx.field_owners
                                    .entry(field.clone())
                                    .or_default()
                                    .push(owner.clone());
                                idx.fields.insert((owner.clone(), field), head);
                            }
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            i = k;
        }
        i += 1;
    }
}

/// The head type of a type expression: sees through `&`, lifetimes,
/// `mut`, wrapper generics (`Arc<…>`, `Box<…>`, …) and `dyn`/`impl`.
/// Returns the last path segment of the first concrete type name.
pub fn head_type(toks: &[Token]) -> Option<HeadTy> {
    let mut i = 0;
    let mut trait_obj = false;
    let mut guard = 0;
    while i < toks.len() && guard < 64 {
        guard += 1;
        match toks[i].text.as_str() {
            "&" | "*" | "mut" | "const" | "(" => i += 1,
            t if t.starts_with('\'') => i += 1,
            "dyn" | "impl" => {
                trait_obj = true;
                i += 1;
            }
            t if toks[i].is_ident() => {
                // Follow path segments `a::b::C` to the last one.
                let mut name = bare(t).to_string();
                let mut j = i + 1;
                while j + 1 < toks.len() && toks[j].text == "::" && toks[j + 1].is_ident() {
                    name = bare(&toks[j + 1].text).to_string();
                    j += 2;
                }
                // See through wrapper generics: `Arc<dyn Clock>` → Clock.
                if WRAPPERS.contains(&name.as_str()) && j < toks.len() && toks[j].text == "<" {
                    i = j + 1;
                    continue;
                }
                return Some(HeadTy {
                    name,
                    is_trait_obj: trait_obj,
                });
            }
            _ => return None,
        }
    }
    None
}

// ---- impl blocks and fns --------------------------------------------

/// Context of one `impl` block: body token span and resolved names.
#[derive(Debug)]
struct ImplRange {
    body: (usize, usize),
    self_ty: String,
    trait_name: Option<String>,
}

/// Find every impl block's body span plus its type / trait names.
fn collect_impl_ranges(toks: &[Token]) -> Vec<ImplRange> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "impl" {
            continue;
        }
        // Header runs to the body `{` (no braces occur in a header).
        let mut j = i + 1;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            continue;
        }
        let Some(close) = match_brace(toks, j) else {
            continue;
        };
        // Split the header on `for`: `impl Trait for Type` / `impl Type`.
        let header = &toks[i + 1..j];
        let for_pos = top_level_for(header);
        let (trait_part, type_part) = match for_pos {
            Some(p) => (Some(&header[..p]), &header[p + 1..]),
            None => (None, header),
        };
        let Some(self_ty) = last_type_name(type_part) else {
            continue;
        };
        let trait_name = trait_part.and_then(last_type_name);
        out.push(ImplRange {
            body: (j, close),
            self_ty,
            trait_name,
        });
    }
    out
}

/// Position of a `for` at angle-bracket depth 0 (the `impl … for …`
/// separator, never the `for` of a loop — headers have no bodies).
fn top_level_for(header: &[Token]) -> Option<usize> {
    let mut angle = 0i32;
    for (i, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 && i > 0 && header[i - 1].text != "-" => angle -= 1,
            "for" if angle == 0 => return Some(i),
            "where" if angle == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The principal type name of an impl-header fragment: the last path
/// segment of the first type, ignoring generic arguments.
fn last_type_name(part: &[Token]) -> Option<String> {
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    for (i, t) in part.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 && i > 0 && part[i - 1].text != "-" => angle -= 1,
            "where" if angle == 0 => break,
            s if angle == 0 && t.is_ident() && !is_keyword(s) => {
                name = Some(bare(s).to_string());
            }
            _ => {}
        }
    }
    name
}

/// Index of the `}` matching the `{` at `open`.
pub fn match_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Collect every `fn` definition with params, body span and impl context.
fn collect_fns(
    toks: &[Token],
    file_id: usize,
    module: &str,
    impls: &[ImplRange],
    idx: &mut WorkspaceIndex,
    syms: &mut FileSymbols,
) {
    for i in 0..toks.len() {
        if toks[i].text != "fn" || i + 1 >= toks.len() || !toks[i + 1].is_ident() {
            continue;
        }
        // `fn` in type position (`fn(u32) -> u32`) has no name ident, so
        // the is_ident check above already filters it.
        let name = bare(&toks[i + 1].text).to_string();
        if is_keyword(&name) {
            continue;
        }
        // Innermost impl whose body contains this fn.
        let ctx = impls
            .iter()
            .filter(|r| r.body.0 < i && i < r.body.1)
            .max_by_key(|r| r.body.0);
        // Skip generics to the parameter list.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" if angle > 0 && toks[j - 1].text != "-" && toks[j - 1].text != "=" => {
                    angle -= 1
                }
                "(" if angle == 0 => break,
                "{" | ";" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "(" {
            continue;
        }
        let Some(close_paren) = match_paren(toks, j) else {
            continue;
        };
        let params = parse_params(&toks[j + 1..close_paren], ctx.map(|c| c.self_ty.as_str()));
        // Body `{` (or `;` for a bodyless declaration).
        let mut b = close_paren + 1;
        let mut body = None;
        while b < toks.len() {
            match toks[b].text.as_str() {
                "{" => {
                    body = match_brace(toks, b).map(|c| (b, c));
                    break;
                }
                ";" => break,
                _ => b += 1,
            }
        }
        let reads_wall_clock = body
            .map(|(s, e)| reads_clock(&toks[s..=e]))
            .unwrap_or(false);
        let id = idx.fns.len();
        idx.fns.push(FnDef {
            name,
            module: module.to_string(),
            file: file_id,
            line: toks[i].line,
            self_ty: ctx.map(|c| c.self_ty.clone()),
            trait_name: ctx.and_then(|c| c.trait_name.clone()),
            params,
            body,
            reads_wall_clock,
        });
        syms.fns.push(id);
    }
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse a parameter list into `(name, head type)` pairs.
fn parse_params(toks: &[Token], self_ty: Option<&str>) -> Vec<(String, HeadTy)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let split = |span: &[Token], out: &mut Vec<(String, HeadTy)>| {
        if span.is_empty() {
            return;
        }
        // `self` / `&self` / `&mut self` / `self: Arc<Self>`.
        if let Some(st) = self_ty {
            if span.iter().any(|t| t.text == "self") && !span.iter().any(|t| t.text == ":") {
                out.push((
                    "self".into(),
                    HeadTy {
                        name: st.to_string(),
                        is_trait_obj: false,
                    },
                ));
                return;
            }
        }
        // `name : Type` — name is the last ident before the top `:`.
        let colon = span.iter().position(|t| t.text == ":");
        if let Some(c) = colon {
            let name = span[..c]
                .iter()
                .rev()
                .find(|t| t.is_ident() && t.text != "mut" && t.text != "ref");
            if let (Some(n), Some(head)) = (name, head_type(&span[c + 1..])) {
                if span.iter().any(|t| t.text == "self") {
                    // `self: Pin<&mut Self>` — keep the impl binding.
                    if let Some(st) = self_ty {
                        out.push((
                            "self".into(),
                            HeadTy {
                                name: st.to_string(),
                                is_trait_obj: false,
                            },
                        ));
                        return;
                    }
                }
                out.push((bare(&n.text).to_string(), head));
            }
        }
    };
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "<" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ">" if depth > 0 && i > 0 && toks[i - 1].text != "-" && toks[i - 1].text != "=" => {
                depth -= 1
            }
            "," if depth == 0 => {
                split(&toks[start..i], &mut out);
                start = i + 1;
            }
            _ => {}
        }
    }
    split(&toks[start..], &mut out);
    out
}

/// Does a token span directly read the wall clock?
fn reads_clock(toks: &[Token]) -> bool {
    toks.windows(3).any(|w| {
        (w[0].text == "Instant" || w[0].text == "SystemTime")
            && w[1].text == "::"
            && w[2].text == "now"
    })
}

impl WorkspaceIndex {
    /// Resolve a type name seen in `file` to its final head name:
    /// through `use` renames (last path segment) and alias chains.
    pub fn resolve_type(&self, file: usize, name: &str) -> String {
        let mut cur = name.to_string();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for _ in 0..8 {
            if !seen.insert(cur.clone()) {
                break;
            }
            if let Some(path) = self.files.get(file).and_then(|f| f.uses.get(&cur)) {
                if let Some(last) = path.last() {
                    if *last != cur {
                        cur = last.clone();
                        continue;
                    }
                }
            }
            if let Some(rhs) = self.aliases.get(&cur) {
                if *rhs != cur {
                    cur = rhs.clone();
                    continue;
                }
            }
            break;
        }
        cur
    }

    /// Does `name`, as written in `file`, resolve to a hash collection?
    #[cfg(test)]
    pub fn is_hash_type(&self, file: usize, name: &str) -> bool {
        HASH_TYPES.contains(&self.resolve_type(file, name).as_str())
    }

    /// Full import path for `name` in `file`, when imported.
    pub fn import_path(&self, file: usize, name: &str) -> Option<&[String]> {
        self.files
            .get(file)
            .and_then(|f| f.uses.get(name))
            .map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::classify;

    fn file(path: &str, src: &str) -> FileData {
        FileData {
            path: path.to_string(),
            scope: classify(path),
            tokens: tokenize(src),
        }
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(module_of("crates/netsim/src/sim.rs"), "netsim::sim");
        assert_eq!(module_of("crates/dns-wire/src/lib.rs"), "dns_wire");
        assert_eq!(module_of("src/lib.rs"), "crate");
        assert_eq!(module_of("crates/replay/src/clock.rs"), "replay::clock");
    }

    #[test]
    fn fn_defs_capture_impl_and_params() {
        let idx = build(&[file(
            "crates/netsim/src/sim.rs",
            r#"
            pub struct Ctx { id: u32 }
            impl Ctx {
                pub fn now(&self) -> SimTime { SimTime::ZERO }
            }
            pub fn drive(ctx: &mut Ctx, n: usize) {}
            trait Clock { fn tick(&self); }
            impl Clock for Ctx { fn tick(&self) {} }
            "#,
        )]);
        let now = &idx.fns[idx.by_name["now"][0]];
        assert_eq!(now.self_ty.as_deref(), Some("Ctx"));
        assert_eq!(now.trait_name, None);
        assert_eq!(
            now.params[0],
            (
                "self".into(),
                HeadTy {
                    name: "Ctx".into(),
                    is_trait_obj: false
                }
            )
        );

        let drive = &idx.fns[idx.by_name["drive"][0]];
        assert_eq!(drive.self_ty, None);
        assert_eq!(drive.params[0].1.name, "Ctx");
        assert_eq!(drive.params[1].1.name, "usize");

        let ticks = &idx.by_name["tick"];
        let tick_impl = ticks
            .iter()
            .map(|&i| &idx.fns[i])
            .find(|f| f.body.is_some())
            .expect("impl tick has a body");
        assert_eq!(tick_impl.trait_name.as_deref(), Some("Clock"));
        assert_eq!(tick_impl.self_ty.as_deref(), Some("Ctx"));
    }

    #[test]
    fn fields_aliases_and_use_renames_resolve() {
        let a = file(
            "crates/netsim/src/table.rs",
            "pub type EventMap = std::collections::HashMap<u64, u32>;
             pub struct Table { pub m: EventMap, pub v: Vec<u32> }",
        );
        let b = file(
            "crates/netsim/src/user.rs",
            "use crate::table::EventMap as EMap;
             pub struct Holder { inner: EMap }",
        );
        let idx = build(&[a, b]);
        assert_eq!(idx.aliases["EventMap"], "HashMap");
        assert_eq!(idx.fields[&("Table".into(), "m".into())].name, "EventMap");
        // Seen from file 1, `EMap` resolves through the rename and the
        // cross-file alias down to HashMap.
        assert!(idx.is_hash_type(1, "EMap"));
        assert!(idx.is_hash_type(0, "EventMap"));
        assert!(!idx.is_hash_type(0, "Vec"));
        // The field head recorded for Holder.inner resolves too.
        assert_eq!(idx.fields[&("Holder".into(), "inner".into())].name, "EMap");
    }

    #[test]
    fn use_groups_and_import_paths() {
        let f = file(
            "crates/dns-server/src/socket_server.rs",
            "use std::net::{SocketAddr, TcpStream};
             use netsim::host::{HostId, PacketBytes as Bytes};",
        );
        let idx = build(&[f]);
        assert_eq!(
            idx.import_path(0, "TcpStream").unwrap(),
            &["std".to_string(), "net".into(), "TcpStream".into()]
        );
        assert_eq!(
            idx.import_path(0, "Bytes").unwrap(),
            &["netsim".to_string(), "host".into(), "PacketBytes".into()]
        );
        assert_eq!(idx.import_path(0, "HostId").unwrap()[0], "netsim");
    }

    #[test]
    fn head_type_sees_through_wrappers_and_dyn() {
        let ty = |s: &str| head_type(&tokenize(s)).unwrap();
        assert_eq!(ty("&mut Ctx").name, "Ctx");
        assert_eq!(ty("Arc<dyn ReplayClock>").name, "ReplayClock");
        assert!(ty("Arc<dyn ReplayClock>").is_trait_obj);
        assert_eq!(ty("std::collections::HashMap<u64, u32>").name, "HashMap");
        assert_eq!(ty("impl Iterator<Item = u32>").name, "Iterator");
        assert_eq!(ty("Arc<Mutex<Vec<u8>>>").name, "Vec");
    }

    #[test]
    fn wall_clock_reads_are_marked() {
        let idx = build(&[file(
            "crates/replay/src/capture.rs",
            "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }
             pub fn clean() -> u64 { 0 }",
        )]);
        assert!(idx.fns[idx.by_name["stamp"][0]].reads_wall_clock);
        assert!(!idx.fns[idx.by_name["clean"][0]].reads_wall_clock);
    }
}
