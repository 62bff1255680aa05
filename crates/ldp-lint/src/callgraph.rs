//! Phase 2 support: the approximate call graph and rule D4.
//!
//! Edges are resolved by *name* through the symbol index. Resolution is
//! deliberately conservative: a call whose receiver type cannot be
//! determined fans out to **every** workspace method with that name, so
//! ambiguity can widen a taint report but never suppress one. Calls
//! that resolve into `std`/`core`/`alloc` (via `use` imports or inline
//! paths) produce no edge — those callees are not workspace functions.

use std::collections::BTreeMap;

use crate::index::{bare, is_keyword, FileData, FnDef, WorkspaceIndex};
use crate::lexer::Token;
use crate::rules::{Diagnostic, Severity};

/// Adjacency list over [`WorkspaceIndex::fns`] ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[caller] = callees` (deduplicated, sorted).
    pub edges: Vec<Vec<usize>>,
}

/// External path roots that never resolve to workspace functions.
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc"];

/// Control keywords that look like call sites (`if (…)`, `while (…)`).
fn is_call_keyword(t: &str) -> bool {
    is_keyword(t) || matches!(t, "Some" | "None" | "Ok" | "Err" | "Box" | "Vec" | "assert")
}

/// The fn (id) whose body span contains token index `pos` of `file`.
/// Innermost wins for nested fns (closures have no `fn` of their own
/// and attribute to the enclosing fn, which is what taint wants).
pub fn enclosing_fn(index: &WorkspaceIndex, file: usize, pos: usize) -> Option<usize> {
    index
        .files
        .get(file)?
        .fns
        .iter()
        .copied()
        .filter(|&id| {
            index.fns[id]
                .body
                .map(|(s, e)| s <= pos && pos <= e)
                .unwrap_or(false)
        })
        .max_by_key(|&id| index.fns[id].body.map(|(s, _)| s))
}

/// `let`-bound local types inside a body span: `name → head type name`
/// from `let [mut] n: Ty = …` and `let [mut] n = Ty::ctor(…)`.
pub fn local_types(toks: &[Token], body: (usize, usize)) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let (start, end) = body;
    let mut i = start;
    while i < end.min(toks.len()) {
        if toks[i].text != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < end && toks[j].text == "mut" {
            j += 1;
        }
        if j >= end || !toks[j].is_ident() {
            i += 1;
            continue;
        }
        let name = bare(&toks[j].text).to_string();
        match toks.get(j + 1).map(|t| t.text.as_str()) {
            Some(":") => {
                if let Some(head) = crate::index::head_type(&toks[j + 2..end]) {
                    out.insert(name, head.name);
                }
            }
            Some("=") => {
                // `= Ty::ctor(` or `= a::b::Ty::ctor(` — the segment
                // before the final `::fn(` names the type.
                let mut k = j + 2;
                let mut last_two: Option<(String, String)> = None;
                while k + 1 < end && toks[k].is_ident() && toks[k + 1].text == "::" {
                    if k + 2 < end && toks[k + 2].is_ident() {
                        last_two = Some((
                            bare(&toks[k].text).to_string(),
                            bare(&toks[k + 2].text).to_string(),
                        ));
                    }
                    k += 2;
                }
                if let Some((ty, _ctor)) = last_two {
                    if k + 1 < end && toks[k + 1].text == "(" {
                        out.insert(name, ty);
                    }
                }
            }
            _ => {}
        }
        i = j + 1;
    }
    out
}

/// Build the call graph over every indexed fn body.
pub fn build(files: &[FileData], index: &WorkspaceIndex) -> CallGraph {
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); index.fns.len()];
    for (caller_id, caller) in index.fns.iter().enumerate() {
        let Some(body) = caller.body else { continue };
        let toks = &files[caller.file].tokens;
        let locals = local_types(toks, body);
        let mut out = Vec::new();
        let (start, end) = body;
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            if !toks[i].is_ident() || is_call_keyword(bare(&toks[i].text)) {
                continue;
            }
            let name = bare(&toks[i].text).to_string();
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            match (prev, next) {
                // Macro invocation `name ! (` — not a fn call.
                (_, Some("!")) => {}
                // Method call `recv . name (`.
                (Some("."), Some("(")) => {
                    resolve_method(files, index, caller, &locals, toks, i, &name, &mut out);
                }
                // Path call or reference: `Q :: name [(]`.
                (Some("::"), _) => {
                    resolve_path_call(files, index, toks, caller.file, i, &name, &mut out);
                }
                // Bare call `name (`.
                (_, Some("(")) => {
                    resolve_free(index, caller.file, &name, &mut out);
                }
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&c| c != caller_id);
        edges[caller_id] = out;
    }
    CallGraph { edges }
}

/// Resolve `recv . name (` into method edges.
#[allow(clippy::too_many_arguments)]
fn resolve_method(
    files: &[FileData],
    index: &WorkspaceIndex,
    caller: &FnDef,
    locals: &BTreeMap<String, String>,
    toks: &[Token],
    i: usize,
    name: &str,
    out: &mut Vec<usize>,
) {
    let Some(candidates) = index.by_name.get(name) else {
        return;
    };
    // Receiver token sits before the `.`.
    let recv = i.checked_sub(2).map(|r| toks[r].text.as_str());
    let recv_ty: Option<String> = match recv {
        Some("self") => caller.self_ty.clone(),
        Some(r) if toks[i - 2].is_ident() => {
            let r = bare(r).to_string();
            // `self . field . name (` → the field's declared type.
            let via_field = i
                .checked_sub(4)
                .filter(|&p| toks[p + 1].text == "." && toks[p].text == "self")
                .and(caller.self_ty.as_ref())
                .and_then(|st| index.fields.get(&(st.clone(), r.clone())))
                .map(|h| h.name.clone());
            via_field.or_else(|| locals.get(&r).cloned()).or_else(|| {
                caller
                    .params
                    .iter()
                    .find(|(n, _)| *n == r)
                    .map(|(_, h)| h.name.clone())
            })
        }
        _ => None,
    };
    match recv_ty {
        Some(ty) => {
            let ty = index.resolve_type(caller.file, &ty);
            let direct: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&id| index.fns[id].self_ty.as_deref() == Some(ty.as_str()))
                .collect();
            if !direct.is_empty() {
                out.extend(direct);
                return;
            }
            // A trait name: dispatch could land on any impl.
            let via_trait: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&id| index.fns[id].trait_name.as_deref() == Some(ty.as_str()))
                .collect();
            if !via_trait.is_empty() {
                out.extend(via_trait);
            }
            // Known type, no workspace method → a std/collection method;
            // no edge. Conservatism is reserved for *unknown* receivers.
            let _ = files;
        }
        None => {
            // Unknown receiver (call-chain result, raw expression):
            // conservative — every workspace method with this name.
            out.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&id| index.fns[id].self_ty.is_some()),
            );
        }
    }
}

/// Resolve `Q :: name` (call or fn reference) into edges.
fn resolve_path_call(
    files: &[FileData],
    index: &WorkspaceIndex,
    toks: &[Token],
    file: usize,
    i: usize,
    name: &str,
    out: &mut Vec<usize>,
) {
    let Some(candidates) = index.by_name.get(name) else {
        return;
    };
    // Walk the full path back: `a :: b :: Q :: name`.
    let mut segs: Vec<String> = Vec::new();
    let mut p = i;
    while p >= 2 && toks[p - 1].text == "::" && toks[p - 2].is_ident() {
        segs.push(bare(&toks[p - 2].text).to_string());
        p -= 2;
    }
    segs.reverse(); // now [a, b, Q]
    let Some(qualifier) = segs.last().cloned() else {
        return;
    };
    // External path (`std::thread::sleep`)?
    if segs
        .first()
        .map(|r| EXTERNAL_ROOTS.contains(&r.as_str()))
        .unwrap_or(false)
    {
        return;
    }
    if let Some(import) = index.import_path(file, &segs[0]) {
        if import
            .first()
            .map(|r| EXTERNAL_ROOTS.contains(&r.as_str()))
            .unwrap_or(false)
        {
            return;
        }
    }
    let _ = files;
    if qualifier == "Self" {
        // `Self::name` — methods of the enclosing impl type; resolved
        // conservatively by name among methods (the enclosing type is
        // not threaded here; same-name methods are rare and widening is
        // safe).
        out.extend(
            candidates
                .iter()
                .copied()
                .filter(|&id| index.fns[id].self_ty.is_some()),
        );
        return;
    }
    let ty = index.resolve_type(file, &qualifier);
    let assoc: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&id| index.fns[id].self_ty.as_deref() == Some(ty.as_str()))
        .collect();
    if !assoc.is_empty() {
        out.extend(assoc);
        return;
    }
    // `module::free_fn(…)` — free fns with that name whose module path
    // contains the qualifier (pre- or post-rename). A qualifier that
    // matches no workspace module is a foreign type (`Instant::now`,
    // `Duration::from_micros`): no edge, rather than a bogus fan-out to
    // every same-named free fn.
    out.extend(candidates.iter().copied().filter(|&id| {
        index.fns[id].self_ty.is_none()
            && index.fns[id]
                .module
                .split("::")
                .any(|seg| seg == qualifier || seg == ty)
    }));
}

/// Resolve a bare `name(…)` call into free-fn edges.
fn resolve_free(index: &WorkspaceIndex, file: usize, name: &str, out: &mut Vec<usize>) {
    // Through an import: `use std::thread::sleep; sleep(…)` is external.
    if let Some(import) = index.import_path(file, name) {
        if import
            .first()
            .map(|r| EXTERNAL_ROOTS.contains(&r.as_str()))
            .unwrap_or(false)
        {
            return;
        }
    }
    if let Some(candidates) = index.by_name.get(name) {
        // Every same-named free fn: ambiguity widens, never suppresses.
        out.extend(
            candidates
                .iter()
                .copied()
                .filter(|&id| index.fns[id].self_ty.is_none()),
        );
    }
}

/// D4 — transitive wall-clock taint from simulator entry points.
///
/// Every fn defined in a sim-path file is an entry point. An entry that
/// *transitively* (path length ≥ 1 edge) reaches a fn whose body reads
/// `Instant::now`/`SystemTime::now` is an error — the helper-one-hop-away
/// case D1's per-file scan cannot see. A direct read in the entry itself
/// stays D1's report (or the file's allowlist entry), not D4's.
pub fn rule_d4(
    files: &[FileData],
    index: &WorkspaceIndex,
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    for (entry_id, entry) in index.fns.iter().enumerate() {
        if !files[entry.file].scope.sim_path || entry.body.is_none() {
            continue;
        }
        // BFS with parent pointers so the report can show the path.
        let mut parent: Vec<Option<usize>> = vec![None; index.fns.len()];
        let mut visited = vec![false; index.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[entry_id] = true;
        queue.push_back(entry_id);
        let mut hit: Option<usize> = None;
        'bfs: while let Some(cur) = queue.pop_front() {
            for &next in &graph.edges[cur] {
                if visited[next] {
                    continue;
                }
                visited[next] = true;
                parent[next] = Some(cur);
                if index.fns[next].reads_wall_clock {
                    hit = Some(next);
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        let Some(mut cur) = hit else { continue };
        // Reconstruct entry → … → tainted.
        let mut chain = vec![cur];
        while let Some(p) = parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        let path_str = chain
            .iter()
            .map(|&id| {
                let f = &index.fns[id];
                format!("{} ({}:{})", f.qualified(), files[f.file].path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" -> ");
        diags.push(Diagnostic {
            rule: "D4",
            severity: Severity::Error,
            path: files[entry.file].path.clone(),
            line: entry.line,
            message: format!(
                "sim-path fn `{}` transitively reaches a wall-clock read: {} — \
                 route time through the virtual clock (netsim Ctx::now / ReplayClock)",
                entry.name, path_str
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index;
    use crate::lexer::tokenize;
    use crate::rules::classify;

    fn file(path: &str, src: &str) -> FileData {
        FileData {
            path: path.to_string(),
            scope: classify(path),
            tokens: tokenize(src),
        }
    }

    fn graph_for(files: &[FileData]) -> (WorkspaceIndex, CallGraph) {
        let idx = index::build(files);
        let g = build(files, &idx);
        (idx, g)
    }

    fn edge(idx: &WorkspaceIndex, g: &CallGraph, from: &str, to: &str) -> bool {
        let f = idx.by_name[from][0];
        g.edges[f].iter().any(|&c| idx.fns[c].name == to)
    }

    #[test]
    fn free_fn_and_method_calls_resolve() {
        let files = [
            file(
                "crates/netsim/src/sim.rs",
                "pub struct Sim { id: u32 }
                 impl Sim {
                     pub fn step(&mut self) { helper(); self.inner(); }
                     fn inner(&self) {}
                 }
                 fn local_only() { }",
            ),
            file(
                "crates/netsim/src/util.rs",
                "pub fn helper() { leaf(); }\npub fn leaf() {}",
            ),
        ];
        let (idx, g) = graph_for(&files);
        assert!(
            edge(&idx, &g, "step", "helper"),
            "bare call to cross-file free fn"
        );
        assert!(edge(&idx, &g, "step", "inner"), "self method call");
        assert!(edge(&idx, &g, "helper", "leaf"));
        assert!(!edge(&idx, &g, "step", "local_only"));
    }

    #[test]
    fn typed_receivers_resolve_through_params_fields_and_locals() {
        let files = [file(
            "crates/netsim/src/host.rs",
            "pub struct Clocked { c: Ticker }
                 pub struct Ticker;
                 impl Ticker { pub fn tick(&self) {} pub fn make() -> Ticker { Ticker } }
                 impl Clocked {
                     pub fn via_field(&self) { self.c.tick(); }
                 }
                 pub fn via_param(t: &Ticker) { t.tick(); }
                 pub fn via_local() { let t = Ticker::make(); t.tick(); }
                 pub fn via_ctor() { Ticker::make(); }",
        )];
        let (idx, g) = graph_for(&files);
        assert!(edge(&idx, &g, "via_field", "tick"));
        assert!(edge(&idx, &g, "via_param", "tick"));
        assert!(edge(&idx, &g, "via_local", "tick"));
        assert!(edge(&idx, &g, "via_ctor", "make"));
    }

    #[test]
    fn std_paths_produce_no_edges() {
        let files = [file(
            "crates/netsim/src/sim.rs",
            "use std::thread::sleep as zzz;
             pub fn f() { std::thread::sleep(d); core::hint::sleep(d); zzz(d); }
             pub fn sleep(d: u64) {}",
        )];
        let (idx, g) = graph_for(&files);
        // All three sleeps are external; the workspace `sleep` free fn
        // must NOT become a callee of f.
        assert!(!edge(&idx, &g, "f", "sleep"));
    }

    #[test]
    fn fn_references_in_path_form_are_edges() {
        let files = [file(
            "crates/telemetry/src/clock.rs",
            "pub struct WallClockSource;
             impl WallClockSource { pub fn new() -> Self { WallClockSource } }
             pub fn now_ns() -> u64 { WALL.get_or_init(WallClockSource::new); 0 }",
        )];
        let (idx, g) = graph_for(&files);
        assert!(
            edge(&idx, &g, "now_ns", "new"),
            "Type::fn reference counts as an edge"
        );
    }

    #[test]
    fn d4_reports_transitive_taint_with_path() {
        let files = [
            file("crates/netsim/src/sim.rs", "pub fn run_sim() { stamp(); }"),
            file(
                "crates/replay/src/capture.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
        ];
        let (idx, g) = graph_for(&files);
        let mut diags = Vec::new();
        rule_d4(&files, &idx, &g, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "D4");
        assert_eq!(diags[0].path, "crates/netsim/src/sim.rs");
        assert!(diags[0].message.contains("run_sim"));
        assert!(diags[0].message.contains("capture.rs"));
    }

    #[test]
    fn d4_skips_direct_reads_and_ambiguity_does_not_suppress() {
        let files = [
            file(
                "crates/netsim/src/sim.rs",
                "pub fn direct() { let t = Instant::now(); }
                 pub fn ambiguous() { helper_now(); }",
            ),
            // Two same-named free fns: one clean, one tainted. The
            // conservative resolver must keep both edges, so the taint
            // still surfaces.
            file(
                "crates/replay/src/helper_a.rs",
                "pub fn helper_now() -> u64 { 0 }",
            ),
            file(
                "crates/dns-server/src/socket_server.rs",
                "pub fn helper_now() -> u64 { Instant::now().elapsed().as_micros() as u64 }",
            ),
        ];
        let (idx, g) = graph_for(&files);
        let mut diags = Vec::new();
        rule_d4(&files, &idx, &g, &mut diags);
        // `direct` is D1's problem, not D4's; `ambiguous` is flagged.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("ambiguous"));
    }

    #[test]
    fn locals_and_enclosing_fn_helpers() {
        let files = [file(
            "crates/netsim/src/sim.rs",
            "pub fn f() { let a: Ticker = x; let mut b = Ticker::make(); let c = other; }",
        )];
        let idx = index::build(&files);
        let f = &idx.fns[0];
        let locals = local_types(&files[0].tokens, f.body.unwrap());
        assert_eq!(locals.get("a").map(String::as_str), Some("Ticker"));
        assert_eq!(locals.get("b").map(String::as_str), Some("Ticker"));
        assert_eq!(locals.get("c"), None);
        let mid = f.body.unwrap().0 + 1;
        assert_eq!(enclosing_fn(&idx, 0, mid), Some(0));
        assert_eq!(enclosing_fn(&idx, 0, 0), None);
    }
}
