//! The eleven LDplayer correctness rules.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no wall-clock reads (`Instant::now`, `SystemTime::now`) outside real-clock modules |
//! | D2   | no order-dependent iteration over `HashMap`/`HashSet` in simulator-path code — resolved through type aliases and struct fields **across files** |
//! | D3   | no ambient randomness (`thread_rng`, `rand::random`, `from_entropy`) — all RNG is seeded |
//! | D4   | no sim-path fn may *transitively* reach a wall-clock read through the call graph |
//! | P1   | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in packet-decode and server hot paths |
//! | A1   | no unbounded channels in the server/replay/proxy crates |
//! | T1   | no raw clock reads inside `crates/telemetry` — all time flows through `ClockSource` |
//! | R1   | a loop that calls a retry/reconnect/backoff helper must reference a budget/cap identifier (server/replay/proxy crates) |
//!
//! Detection is token-based (see [`crate::lexer`]): comments, strings
//! and `#[cfg(test)]` code never trigger a rule. Scoping is path-based
//! and mirrors the workspace layout, so the fixture tree under
//! `crates/ldp-lint/fixtures/` can reproduce every scope. The analysis
//! is two-phase: phase 1 tokenizes every file and builds the workspace
//! symbol index ([`crate::index`]) and call graph ([`crate::callgraph`]);
//! phase 2 runs the per-file rules plus the cross-file rules (D2's
//! cross-file layer, D4) over it.

use std::collections::BTreeSet;

use crate::callgraph::{enclosing_fn, local_types};
use crate::index::{FileData, WorkspaceIndex, HASH_TYPES};
use crate::lexer::{test_code_mask, tokenize, Token};

/// Diagnostic severity. Only errors fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; reported but does not fail the run.
    Warning,
    /// Invariant violation; fails the run unless allowlisted.
    Error,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`CATALOG`]).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Path as given to the analyzer (workspace-relative).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One entry of the rule catalog: the single source of truth the
/// `rules` listing, `explain <RULE>`, the allowlist's rule-id
/// validation and the DESIGN.md §7 table all derive from.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id (`D1` … `S1`).
    pub id: &'static str,
    /// Worst severity the rule emits (`error` or `warning`).
    pub severity: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Why the invariant exists — what breaks when it is violated.
    pub rationale: &'static str,
}

/// Every rule, in display order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        severity: "error",
        summary: "no Instant::now/SystemTime::now outside real-clock modules \
                  (socket_server.rs, capture.rs, crates/bench)",
        rationale: "Sim-path code that reads the wall clock produces transcripts that \
                    differ run to run; all time flows through the replay/netsim clock \
                    abstractions so virtual-time runs are bit-reproducible.",
    },
    RuleInfo {
        id: "D2",
        severity: "error",
        summary: "no order-dependent iteration over HashMap/HashSet in simulator paths \
                  (crates/netsim/src, crates/chaos/src, crates/cache/src, crates/rng/src, sim_*.rs) — \
                  resolved through type aliases and struct fields across files; any \
                  hash-collection mention there is a warning",
        rationale: "Hash iteration order is randomized per process; if it reaches event \
                    order, the same seed yields different transcripts. BTreeMap/BTreeSet \
                    give deterministic order. The cross-file layer resolves aliases, use \
                    renames and struct fields through the workspace symbol index, so \
                    declaring the map in another file no longer hides the iteration.",
    },
    RuleInfo {
        id: "D3",
        severity: "error",
        summary: "no thread_rng / rand::random / from_entropy anywhere — randomness \
                  must flow from a seeded RNG",
        rationale: "Ambient entropy makes workload generation and chaos injection \
                    unrepeatable; every RNG is constructed from an explicit seed \
                    (ldp_rng::SplitMix64::seed_from_u64) so experiments can be replayed.",
    },
    RuleInfo {
        id: "D4",
        severity: "error",
        summary: "no sim-path fn may transitively reach Instant::now/SystemTime::now \
                  through the workspace call graph",
        rationale: "D1 sees only direct reads; a helper one hop away (often in a \
                    real-clock-exempt socket_server.rs) still leaks wall time into the \
                    simulation. The call graph is resolved by name through the symbol \
                    index and is conservative on ambiguity: an ambiguous callee widens \
                    the search, never suppresses a report. The diagnostic prints the \
                    full call path to the offending read.",
    },
    RuleInfo {
        id: "P1",
        severity: "error",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in hot \
                  paths (crates/dns-wire/src, crates/proxy/src, crates/guard/src, \
                  dns-server/src/engine.rs, dns-server/src/template.rs, \
                  replay/src/core.rs)",
        rationale: "A malformed packet must never panic the server: decode and dispatch \
                    paths return typed errors so a fuzzer (or the internet) cannot take \
                    the process down.",
    },
    RuleInfo {
        id: "A1",
        severity: "error",
        summary: "no unbounded channels (`unbounded`, `unbounded_channel`, std `mpsc::channel`) \
                  in dns-server/replay/proxy/guard crates",
        rationale: "The pre-load window (paper §2.6) depends on bounded stage-to-stage \
                    queues for backpressure; an unbounded channel turns overload into \
                    unbounded memory growth instead of a measurable stall.",
    },
    RuleInfo {
        id: "T1",
        severity: "error",
        summary: "no Instant::now/SystemTime::now inside crates/telemetry — timestamps \
                  go through the ClockSource abstraction",
        rationale: "Telemetry must be a pure observer: under virtual time it records \
                    simulator timestamps, and the only sanctioned wall-clock read is \
                    the WallClockSource impl behind the trait (allowlisted by file).",
    },
    RuleInfo {
        id: "R1",
        severity: "error",
        summary: "a loop calling a retry/reconnect/backoff helper in the \
                  dns-server/replay/proxy/guard crates must reference a budget/attempt/\
                  deadline/limit/cap identifier",
        rationale: "A retry loop with no visible bound spins forever against a dead \
                    peer — exactly the failure mode ldp_guard::RetryBudget exists to \
                    prevent.",
    },
    RuleInfo {
        id: "S1",
        severity: "error",
        summary: "no direct Simulator::enqueue_remote calls in crates/shard/src \
                  outside exchange.rs — cross-shard packets go through the Exchange",
        rationale: "The sharded simulator's determinism rests on every cross-shard \
                    packet passing the exchange's lookahead assertion and \
                    (time, lane, seq)-ordered routing. A worker-side enqueue_remote \
                    bypasses both, re-introducing thread-schedule-dependent delivery \
                    order — transcripts stop being byte-identical to single-shard.",
    },
];

/// Look up a catalog entry by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Path-derived scope of a file, controlling which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Test/bench/example/fixture code: no rules at all.
    pub exempt: bool,
    /// Real-clock module (D1 does not apply): `socket_server.rs`,
    /// `capture.rs`, bench binaries.
    pub real_clock_ok: bool,
    /// Simulator-path file (D2 applies): `crates/netsim/src/**`,
    /// `crates/chaos/src/**` (fault injection runs inside the
    /// simulator's delivery path), `crates/cache/src/**` (the resolver
    /// cache's iteration order decides evictions and fan-out order),
    /// `crates/shard/src/**` (the sharded coordinator is simulator
    /// infrastructure), `crates/rng/src/**` (every seeded draw in a
    /// simulation comes from it), `crates/replay/src/core.rs` (its
    /// iteration order is the order of a checkpoint's `inflight`
    /// lines), `sim_*.rs` anywhere.
    pub sim_path: bool,
    /// Panic-safety hot path (P1 applies): `crates/dns-wire/src/**`,
    /// `crates/proxy/src/**`, `crates/cache/src/**` (every resolver
    /// query crosses the cache), `crates/dns-server/src/engine.rs`,
    /// `crates/dns-server/src/template.rs`, `crates/shard/src/**` (a
    /// worker-thread panic aborts the whole windowed drive),
    /// `crates/guard/src/**` (checkpoint parse/serialize runs on the
    /// replay host's dispatch thread — a malformed document must
    /// return an error, never panic mid-replay), and
    /// `crates/replay/src/core.rs` (called on every dispatch and
    /// every answer).
    pub hot_path: bool,
    /// Channel/retry-discipline crate (A1 and R1 apply): dns-server,
    /// replay, proxy — the crates that dial, redial and resend — plus
    /// guard, which owns the retry budgets themselves.
    pub channel_scope: bool,
    /// Telemetry crate source (T1 applies instead of D1): the only
    /// sanctioned raw-clock read is `ClockSource`'s wall impl, which is
    /// allowlisted explicitly.
    pub telemetry_path: bool,
    /// Sharded-simulator source (S1 applies): `crates/shard/src/**` —
    /// cross-shard sends must flow through `exchange.rs`.
    pub shard_path: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileScope {
    let p = path.replace('\\', "/");
    let file = p.rsplit('/').next().unwrap_or(&p);
    let in_dir = |d: &str| p.contains(&format!("/{d}/")) || p.starts_with(&format!("{d}/"));

    let exempt = in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
        || in_dir("fixtures")
        || in_dir("target");
    let real_clock_ok = file == "socket_server.rs"
        || file == "capture.rs"
        || in_dir("crates/bench")
        || p.contains("crates/bench/");
    let shard_path = p.contains("crates/shard/src/");
    let is_replay_core = p.ends_with("crates/replay/src/core.rs");
    let sim_path = p.contains("crates/netsim/src/")
        || p.contains("crates/chaos/src/")
        || p.contains("crates/cache/src/")
        || p.contains("crates/rng/src/")
        || shard_path
        || is_replay_core
        || file.starts_with("sim_");
    let hot_path = p.contains("crates/dns-wire/src/")
        || p.contains("crates/proxy/src/")
        || p.contains("crates/cache/src/")
        || p.contains("crates/guard/src/")
        || shard_path
        || p.ends_with("crates/dns-server/src/engine.rs")
        || p == "crates/dns-server/src/engine.rs"
        || p.ends_with("crates/dns-server/src/template.rs")
        || p == "crates/dns-server/src/template.rs"
        || is_replay_core;
    let channel_scope = p.contains("crates/dns-server/")
        || p.contains("crates/replay/")
        || p.contains("crates/proxy/")
        || p.contains("crates/guard/");
    let telemetry_path = p.contains("crates/telemetry/src/");

    FileScope {
        exempt,
        real_clock_ok,
        sim_path,
        hot_path,
        channel_scope,
        telemetry_path,
        shard_path,
    }
}

/// Tokenize one file into its production-only (test-code-stripped)
/// token stream; `None` for exempt paths, which never enter the
/// workspace index.
pub fn file_data(path: &str, src: &str) -> Option<FileData> {
    let scope = classify(path);
    if scope.exempt {
        return None;
    }
    let tokens = tokenize(src);
    let mask = test_code_mask(&tokens);
    let tokens = tokens
        .into_iter()
        .zip(mask)
        .filter(|(_, m)| !m)
        .map(|(t, _)| t)
        .collect();
    Some(FileData {
        path: path.to_string(),
        scope,
        tokens,
    })
}

/// Run every applicable rule over one file's source (single-file view:
/// the workspace index is built over just this file, so the cross-file
/// rules still run but can only see local symbols).
#[cfg(test)]
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    match file_data(path, src) {
        Some(fd) => analyze_files(std::slice::from_ref(&fd)),
        None => Vec::new(),
    }
}

/// Phase 1 + phase 2 over a set of files: build the symbol index and
/// call graph, then run per-file rules and cross-file rules (D2's
/// cross-file layer, D4).
pub fn analyze_files(files: &[FileData]) -> Vec<Diagnostic> {
    let index = crate::index::build(files);
    let graph = crate::callgraph::build(files, &index);

    let mut diags = Vec::new();
    for (fid, fd) in files.iter().enumerate() {
        let scope = fd.scope;
        let path = fd.path.as_str();
        let toks = fd.tokens.as_slice();
        if scope.telemetry_path {
            // T1 subsumes D1 inside the telemetry crate: the stricter
            // message points at ClockSource rather than replay/netsim time.
            rule_t1(path, toks, &mut diags);
        } else if !scope.real_clock_ok {
            rule_d1(path, toks, &mut diags);
        }
        if scope.sim_path {
            rule_d2(path, toks, &mut diags);
            rule_d2_cross(fid, fd, &index, &mut diags);
        }
        rule_d3(path, toks, &mut diags);
        if scope.hot_path {
            rule_p1(path, toks, &mut diags);
        }
        if scope.channel_scope {
            rule_a1(path, toks, &mut diags);
            rule_r1(path, toks, &mut diags);
        }
        if scope.shard_path {
            rule_s1(path, toks, &mut diags);
        }
    }
    crate::callgraph::rule_d4(files, &index, &graph, &mut diags);
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    severity: Severity,
    path: &str,
    line: u32,
    message: impl Into<String>,
) {
    diags.push(Diagnostic {
        rule,
        severity,
        path: path.to_string(),
        line,
        message: message.into(),
    });
}

/// D1 — wall-clock reads in virtual-time code.
fn rule_d1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for w in toks.windows(3) {
        let clock = w[0].text.as_str();
        if (clock == "Instant" || clock == "SystemTime") && w[1].text == "::" && w[2].text == "now"
        {
            push(
                diags,
                "D1",
                Severity::Error,
                path,
                w[0].line,
                format!(
                    "{clock}::now() outside a real-clock module — route time through \
                     the clock abstraction (replay::clock / netsim virtual time)"
                ),
            );
        }
    }
}

/// T1 — raw clock reads inside the telemetry crate. Telemetry must be
/// usable from virtual-time code, so every timestamp goes through the
/// `ClockSource` abstraction; the one wall-clock implementation behind
/// that trait is allowlisted by file in `ldp-lint.allow`.
fn rule_t1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for w in toks.windows(3) {
        let clock = w[0].text.as_str();
        if (clock == "Instant" || clock == "SystemTime") && w[1].text == "::" && w[2].text == "now"
        {
            push(
                diags,
                "T1",
                Severity::Error,
                path,
                w[0].line,
                format!(
                    "{clock}::now() inside crates/telemetry — timestamps must flow \
                     through ClockSource so virtual-time runs stay deterministic"
                ),
            );
        }
    }
}

/// Methods whose call on a hash collection is order-dependent.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// D2 — order-dependent iteration over hash collections in sim paths.
///
/// Two layers:
/// 1. *Error*: iteration (`.iter()`, `.keys()`, `for … in map`, …) over
///    an identifier that this file declares with a `HashMap`/`HashSet`
///    type (struct field, `let` with annotation, or `= HashMap::new()`).
/// 2. *Warning*: any other mention of `HashMap`/`HashSet` in a sim-path
///    file — the type itself invites order dependence; use `BTreeMap`/
///    `BTreeSet`.
fn rule_d2(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    let hash_names = collect_hash_decls(toks);

    for (i, t) in toks.iter().enumerate() {
        // Layer 1a: `recv.method(` where recv ∈ hash_names, method order-dependent.
        if t.text == "."
            && i + 2 < toks.len()
            && ORDER_DEPENDENT_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].text == "("
        {
            if let Some(recv) = receiver_ident(toks, i) {
                if hash_names.contains(recv.as_str()) {
                    push(
                        diags,
                        "D2",
                        Severity::Error,
                        path,
                        toks[i + 1].line,
                        format!(
                            "order-dependent `.{}()` over hash collection `{recv}` in \
                             simulator-path code — use BTreeMap/BTreeSet",
                            toks[i + 1].text
                        ),
                    );
                }
            }
        }
        // Layer 1b: `for pat in [&[mut]] recv {` / `for (…) in recv.…`.
        if t.text == "for" {
            if let Some(idx) = for_loop_receiver(toks, i) {
                let recv = &toks[idx].text;
                if hash_names.contains(recv.as_str()) {
                    push(
                        diags,
                        "D2",
                        Severity::Error,
                        path,
                        toks[idx].line,
                        format!(
                            "order-dependent `for` over hash collection `{recv}` in \
                             simulator-path code — use BTreeMap/BTreeSet"
                        ),
                    );
                }
            }
        }
        // Layer 2: hash collection types at all in sim paths.
        if t.text == "HashMap" || t.text == "HashSet" {
            // Skip the declaration-position duplicates only if already
            // flagged as errors? No: the warning is cheap and explicit.
            push(
                diags,
                "D2",
                Severity::Warning,
                path,
                t.line,
                format!(
                    "`{}` in simulator-path code — prefer BTreeMap/BTreeSet so \
                     iteration order can never leak into event order",
                    t.text
                ),
            );
        }
    }
}

/// Names declared in this file with a hash-collection type.
fn collect_hash_decls(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // `name : HashMap` (field or annotated binding), possibly
        // through `std :: collections ::` path prefix.
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2; // skip `ident ::`
        }
        if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].is_ident() {
            names.insert(toks[j - 2].text.clone());
        }
        // `let [mut] name = HashMap::new(...)` / `with_capacity`.
        if j >= 2 && toks[j - 1].text == "=" {
            let mut k = j - 2;
            if toks[k].is_ident() {
                // skip nothing; `let mut name =` → toks[k] is name.
                if toks[k].text == "mut" && k >= 1 {
                    k -= 1;
                }
                names.insert(toks[k].text.clone());
            }
        }
    }
    names
}

/// The identifier receiving a method call at dot-index `i`:
/// `name . m (` → `name`; `self . name . m (` → `name`.
fn receiver_ident(toks: &[Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &toks[dot - 1];
    if prev.is_ident() && prev.text != "self" {
        return Some(prev.text.clone());
    }
    // `) . m (` — a call result; can't resolve.
    None
}

/// For `for <pat> in <expr> {`, the token index of the trailing
/// identifier of the iterated expression (before `{` or before
/// `.iter()`-style tails).
fn for_loop_receiver(toks: &[Token], for_idx: usize) -> Option<usize> {
    // Find `in` at paren/bracket depth 0 after `for`.
    let mut j = for_idx + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => break,
            "{" => return None, // malformed / not a for loop
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    // Collect expr token indices until the loop body `{` at depth 0.
    let mut expr: Vec<usize> = Vec::new();
    let mut k = j + 1;
    depth = 0;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break,
            _ => {}
        }
        expr.push(k);
        k += 1;
    }
    // `&map`, `&mut map`, `map`, `self.map` → last ident token, but
    // only when the expression is a plain (borrowed) place with no
    // call: calls like `map.keys()` are handled by the method matcher.
    if expr.iter().any(|&p| toks[p].text == "(") {
        return None;
    }
    expr.iter()
        .rev()
        .copied()
        .find(|&p| toks[p].is_ident() && toks[p].text != "mut")
}

/// D2's cross-file layer: iteration receivers resolved through the
/// workspace symbol index — struct fields declared in *other* files,
/// type aliases, and `use` renames. Receivers the per-file layer
/// already resolved (names in this file's own hash declarations) are
/// skipped so a site is never reported twice.
///
/// Receiver shapes:
/// * `owner.field.iter()` / `for … in &owner.field` — the field's
///   declared type, looked up by owner type when the owner resolves
///   (via `self`, a param, or a local), else conservatively by field
///   name across every struct that declares it. A bare identifier is
///   never resolved through the field fallback — locals cannot be
///   another struct's field.
/// * `name.iter()` with `name: SomeAlias` — the alias chased through
///   `use` renames and workspace `type` aliases down to its head type.
fn rule_d2_cross(fid: usize, fd: &FileData, index: &WorkspaceIndex, diags: &mut Vec<Diagnostic>) {
    let toks = fd.tokens.as_slice();
    let path = fd.path.as_str();
    let local_hash = collect_hash_decls(toks);

    // Resolved head type of a bare identifier at token `pos`, from the
    // enclosing fn's params and `let` bindings.
    let ident_type = |pos: usize, name: &str| -> Option<String> {
        let f = &index.fns[enclosing_fn(index, fid, pos)?];
        let locals = local_types(toks, f.body?);
        let ty = locals.get(name).cloned().or_else(|| {
            f.params
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.name.clone())
        })?;
        Some(index.resolve_type(fid, &ty))
    };
    let head_is_hash = |head: &str| HASH_TYPES.contains(&index.resolve_type(fid, head).as_str());
    // Is `owner.field` (owner type known or not) a hash collection?
    let field_is_hash = |owner: Option<&str>, field: &str| -> bool {
        match owner {
            Some(o) => index
                .fields
                .get(&(o.to_string(), field.to_string()))
                .map(|h| head_is_hash(&h.name))
                .unwrap_or(false),
            None => index
                .field_owners
                .get(field)
                .map(|owners| {
                    owners.iter().any(|o| {
                        index
                            .fields
                            .get(&(o.clone(), field.to_string()))
                            .map(|h| head_is_hash(&h.name))
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false),
        }
    };
    // Cross-file resolution for the receiver ident at token `recv`.
    let recv_is_hash = |recv: usize| -> bool {
        let name = toks[recv].text.as_str();
        if name == "self" || local_hash.contains(name) {
            return false; // the per-file layer owns these
        }
        if recv >= 2 && toks[recv - 1].text == "." && toks[recv - 2].is_ident() {
            // `owner . field` access.
            let owner = toks[recv - 2].text.as_str();
            let owner_ty = if owner == "self" {
                enclosing_fn(index, fid, recv).and_then(|id| index.fns[id].self_ty.clone())
            } else {
                ident_type(recv - 2, owner)
            };
            field_is_hash(owner_ty.as_deref(), name)
        } else {
            ident_type(recv, name)
                .map(|t| head_is_hash(&t))
                .unwrap_or(false)
        }
    };

    for (i, t) in toks.iter().enumerate() {
        // `recv.method(` with an order-dependent method.
        if t.text == "."
            && i >= 1
            && i + 2 < toks.len()
            && ORDER_DEPENDENT_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].text == "("
            && toks[i - 1].is_ident()
            && recv_is_hash(i - 1)
        {
            push(
                diags,
                "D2",
                Severity::Error,
                path,
                toks[i + 1].line,
                format!(
                    "order-dependent `.{}()` over hash collection `{}` (resolved \
                     through the workspace symbol index, possibly from another file) \
                     in simulator-path code — use BTreeMap/BTreeSet",
                    toks[i + 1].text,
                    toks[i - 1].text
                ),
            );
        }
        // `for … in <place>`.
        if t.text == "for" {
            if let Some(idx) = for_loop_receiver(toks, i) {
                if recv_is_hash(idx) {
                    push(
                        diags,
                        "D2",
                        Severity::Error,
                        path,
                        toks[idx].line,
                        format!(
                            "order-dependent `for` over hash collection `{}` (resolved \
                             through the workspace symbol index, possibly from another \
                             file) in simulator-path code — use BTreeMap/BTreeSet",
                            toks[idx].text
                        ),
                    );
                }
            }
        }
        // Warning layer: a type name that *resolves* to a hash
        // collection (alias or renamed import) — the literal
        // `HashMap`/`HashSet` mention is the per-file layer's warning.
        if t.is_ident()
            && t.text != "HashMap"
            && t.text != "HashSet"
            && !HASH_TYPES.contains(&t.text.as_str())
        {
            let resolved = index.resolve_type(fid, &t.text);
            if resolved != t.text && HASH_TYPES.contains(&resolved.as_str()) {
                push(
                    diags,
                    "D2",
                    Severity::Warning,
                    path,
                    t.line,
                    format!(
                        "`{}` resolves to `{resolved}` in simulator-path code — prefer \
                         BTreeMap/BTreeSet so iteration order can never leak into \
                         event order",
                        t.text
                    ),
                );
            }
        }
    }
}

/// D3 — ambient (unseeded) randomness anywhere in production code.
fn rule_d3(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        let flagged = match t.text.as_str() {
            "thread_rng" => Some("rand::thread_rng()"),
            "from_entropy" => Some("SeedableRng::from_entropy()"),
            "random" => {
                // Only `rand :: random` (the free function), not a field
                // or method called `random`.
                if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "rand" {
                    Some("rand::random()")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = flagged {
            push(
                diags,
                "D3",
                Severity::Error,
                path,
                t.line,
                format!(
                    "{what} draws from ambient entropy — all randomness must flow \
                     from a seeded RNG (e.g. StdRng::seed_from_u64) for repeatability"
                ),
            );
        }
    }
}

/// P1 — panics in packet-decode / server hot paths.
fn rule_p1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        // `.unwrap()` / `.expect(`
        if t.text == "."
            && i + 2 < toks.len()
            && toks[i + 2].text == "("
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
        {
            push(
                diags,
                "P1",
                Severity::Error,
                path,
                toks[i + 1].line,
                format!(
                    "`.{}()` in a packet-decode/server hot path — return a typed \
                     error instead (a malformed packet must never panic the server)",
                    toks[i + 1].text
                ),
            );
        }
        // `panic!(` / `unreachable!(` / `todo!(` / `unimplemented!(`
        if i + 1 < toks.len()
            && toks[i + 1].text == "!"
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            push(
                diags,
                "P1",
                Severity::Error,
                path,
                t.line,
                format!(
                    "`{}!` in a packet-decode/server hot path — return a typed error",
                    t.text
                ),
            );
        }
    }
}

/// S1 — direct `enqueue_remote` calls in the shard crate. Only
/// `exchange.rs` may push into a worker's remote inbox: the exchange
/// is where the lookahead assertion and the `(time, lane, seq)` key
/// ordering live, and a bypass silently reintroduces thread-schedule-
/// dependent delivery order.
fn rule_s1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    if path.ends_with("exchange.rs") {
        return; // the one sanctioned call site
    }
    for (i, t) in toks.iter().enumerate() {
        if t.text == "."
            && i + 2 < toks.len()
            && toks[i + 1].text == "enqueue_remote"
            && toks[i + 2].text == "("
        {
            push(
                diags,
                "S1",
                Severity::Error,
                path,
                toks[i + 1].line,
                "`.enqueue_remote()` outside exchange.rs — route cross-shard packets \
                 through Exchange::route/deliver so the lookahead assertion and \
                 deterministic (time, lane, seq) ordering apply"
                    .to_string(),
            );
        }
    }
}

/// A1 — unbounded channels in server/replay/proxy crates.
fn rule_a1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        // std's unbounded constructor is `mpsc::channel` (the bounded
        // one is `sync_channel`).
        let std_unbounded =
            t.text == "channel" && i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "mpsc";
        if t.text == "unbounded" || t.text == "unbounded_channel" || std_unbounded {
            push(
                diags,
                "A1",
                Severity::Error,
                path,
                t.line,
                format!(
                    "`{}` creates an unbounded channel — server/replay/proxy stages \
                     must use bounded channels (the pre-load window, paper §2.6)",
                    t.text
                ),
            );
        }
    }
}

/// Identifier substrings that mark a call as a retry-shaped helper.
const R1_RETRY_MARKERS: &[&str] = &["retry", "retrans", "reconnect", "backoff", "redial"];

/// Identifier substrings that prove the enclosing loop is bounded.
const R1_BOUND_MARKERS: &[&str] = &[
    "budget",
    "attempt",
    "deadline",
    "limit",
    "cap",
    "remaining",
    "tries",
    "max_",
];

/// R1 — unbounded retry loops in the dial/redial crates.
///
/// A `loop`/`while`/`for` whose body *calls* a retry-shaped helper
/// (identifier containing `retry`/`retrans`/`reconnect`/`backoff`/
/// `redial`, immediately applied) must mention a bounding identifier —
/// `budget`, `attempt*`, `deadline`, `*limit*`, `*cap*`, `remaining`,
/// `tries`, `max_*` — somewhere in its head or body. A retry loop with
/// no visible bound spins forever against a dead peer, which is exactly
/// the failure mode `ldp_guard::RetryBudget` exists to prevent. One
/// diagnostic per loop, anchored at the loop keyword; innermost loop
/// wins when retries nest.
fn rule_r1(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    // (keyword index, body-open index, body-close index, keyword line)
    let mut loops: Vec<(usize, usize, usize, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(t.text.as_str(), "loop" | "while" | "for") {
            continue;
        }
        // Find the body `{`: first brace at ()/[] depth 0 after the
        // keyword (struct literals are not legal in loop conditions).
        let mut depth = 0i32;
        let mut open = None;
        for (j, tj) in toks.iter().enumerate().skip(i + 1) {
            match tj.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break, // not a loop after all
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        // Match braces to the body close.
        let mut braces = 0i32;
        let mut close = None;
        for (j, tj) in toks.iter().enumerate().skip(open) {
            match tj.text.as_str() {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        loops.push((i, open, close, t.line));
    }

    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        // A call site: `ident (` where the identifier is retry-shaped.
        if !t.is_ident() || i + 1 >= toks.len() || toks[i + 1].text != "(" {
            continue;
        }
        let lower = t.text.to_lowercase();
        if !R1_RETRY_MARKERS.iter().any(|m| lower.contains(m)) {
            continue;
        }
        // Innermost enclosing loop: the latest-starting span containing i.
        let Some(&(start, _, end, line)) = loops
            .iter()
            .filter(|&&(s, _, e, _)| s < i && i < e)
            .max_by_key(|&&(s, _, _, _)| s)
        else {
            continue; // retry call outside any loop — the caller's problem
        };
        if flagged.contains(&start) {
            continue;
        }
        // The loop (head + body) must reference a bound.
        let bounded = toks[start..=end].iter().any(|b| {
            b.is_ident() && {
                let l = b.text.to_lowercase();
                R1_BOUND_MARKERS.iter().any(|m| l.contains(m))
            }
        });
        if bounded {
            continue;
        }
        flagged.insert(start);
        push(
            diags,
            "R1",
            Severity::Error,
            path,
            line,
            format!(
                "loop calls retry helper `{}` with no budget/cap in sight — bound it \
                 with a RetryBudget/attempt counter/deadline so a dead peer cannot \
                 spin it forever",
                t.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(path, src)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    // ---- D1 ----

    #[test]
    fn d1_flags_wall_clock_in_sim_code() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let ds = errors("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.rule == "D1"));
        assert_eq!(ds[0].line, 1);
    }

    #[test]
    fn d1_allows_real_clock_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(errors("crates/replay/src/capture.rs", src).is_empty());
        assert!(errors("crates/dns-server/src/socket_server.rs", src).is_empty());
        assert!(errors("crates/bench/src/bin/ablations.rs", src).is_empty());
    }

    #[test]
    fn d1_ignores_tests_comments_strings() {
        let src = r#"
            // Instant::now() here is fine
            fn f() { let s = "Instant::now()"; }
            #[cfg(test)]
            mod tests {
                fn t() { let x = Instant::now(); }
            }
        "#;
        assert!(errors("crates/netsim/src/sim.rs", src).is_empty());
    }

    // ---- D2 ----

    #[test]
    fn d2_flags_iteration_over_declared_hashmap() {
        let src = r#"
            use std::collections::HashMap;
            struct S { events: HashMap<u64, u32> }
            impl S {
                fn f(&self) {
                    for (k, v) in &self.events {}
                    let _ = self.events.keys().next();
                }
            }
        "#;
        let ds = errors("crates/netsim/src/sim.rs", src);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "D2"));
    }

    #[test]
    fn d2_flags_let_bound_hashmap_iteration() {
        let src = r#"
            fn f() {
                let mut m = std::collections::HashMap::new();
                m.insert(1, 2);
                for x in m.values() {}
            }
        "#;
        let ds = errors("crates/dns-server/src/sim_server.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "D2");
    }

    #[test]
    fn d2_allows_keyed_access_and_btreemap() {
        let src = r#"
            use std::collections::BTreeMap;
            struct S { events: BTreeMap<u64, u32>, lookup: std::collections::HashMap<u64, u32> }
            impl S {
                fn f(&mut self) {
                    let _ = self.lookup.get(&1);
                    self.lookup.insert(1, 2);
                    for (k, v) in &self.events {}
                }
            }
        "#;
        // Keyed access on a HashMap is not an error (warning only);
        // iterating the BTreeMap is fine.
        assert!(errors("crates/netsim/src/sim.rs", src).is_empty());
        // But the HashMap type itself draws a warning in sim paths.
        let warns: Vec<_> = analyze_source("crates/netsim/src/sim.rs", src)
            .into_iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert!(!warns.is_empty());
    }

    #[test]
    fn d2_applies_to_chaos_crate() {
        let src = r#"
            struct S { m: std::collections::HashMap<u64, u32> }
            impl S { fn f(&self) { for x in self.m.values() {} } }
        "#;
        let ds = errors("crates/chaos/src/injector.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "D2");
    }

    #[test]
    fn d2_not_applied_outside_sim_paths() {
        let src = r#"
            struct S { m: std::collections::HashMap<u64, u32> }
            impl S { fn f(&self) { for x in self.m.values() {} } }
        "#;
        assert!(errors("crates/dns-zone/src/zone.rs", src).is_empty());
    }

    // ---- D3 ----

    #[test]
    fn d3_flags_ambient_randomness_everywhere() {
        let src = r#"
            fn f() -> u64 {
                let mut rng = rand::thread_rng();
                let x: u64 = rand::random();
                let r = StdRng::from_entropy();
                0
            }
        "#;
        let ds = errors("crates/workloads/src/zipf.rs", src);
        assert_eq!(ds.len(), 3, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "D3"));
    }

    #[test]
    fn d3_allows_seeded_rng_and_random_methods() {
        let src = r#"
            fn f(seed: u64) {
                let mut rng = StdRng::seed_from_u64(seed);
                let v: f64 = rng.gen();
                let x = config.random; // a field named random is fine
                let y = obj.random();
            }
        "#;
        assert!(errors("crates/workloads/src/zipf.rs", src).is_empty());
    }

    // ---- P1 ----

    #[test]
    fn p1_flags_panics_in_hot_paths() {
        let src = r#"
            fn decode(b: &[u8]) -> u8 {
                let x = b.first().unwrap();
                let y = b.get(1).expect("has second");
                if b.len() > 9000 { panic!("too big") }
                match x { 0 => *x, _ => unreachable!() }
            }
        "#;
        let ds = errors("crates/dns-wire/src/message.rs", src);
        assert_eq!(ds.len(), 4, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "P1"));
        // Line numbers point at the offending tokens.
        assert_eq!(ds[0].line, 3);
    }

    #[test]
    fn p1_scope_is_hot_paths_only() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert!(errors("crates/dns-wire/src/name.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        assert!(errors("crates/proxy/src/rewrite.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        assert!(errors("crates/dns-server/src/engine.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        // The template fast path serves precompiled bytes per query:
        // it is P1 scope like the engine that calls into it.
        assert!(errors("crates/dns-server/src/template.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        // Outside the hot-path crates, unwrap is clippy's problem.
        assert!(errors("crates/metrics/src/histogram.rs", src).is_empty());
        // Non-engine dns-server files are clippy's too (the crate
        // denies unwrap_used/expect_used/panic in its manifest).
        assert!(errors("crates/dns-server/src/rrl.rs", src).is_empty());
    }

    // ---- T1 ----

    #[test]
    fn t1_flags_raw_clock_reads_in_telemetry() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let ds = errors("crates/telemetry/src/clock.rs", src);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "T1"), "{ds:?}");
        // T1 replaces D1 inside the crate — no double report.
        assert!(!ds.iter().any(|d| d.rule == "D1"));
    }

    #[test]
    fn t1_scope_is_telemetry_src_only() {
        let src = "fn f() { let t = Instant::now(); }";
        // Elsewhere the same read is D1 (or allowed in real-clock files).
        assert!(errors("crates/netsim/src/sim.rs", src)
            .iter()
            .all(|d| d.rule == "D1"));
        assert!(analyze_source("crates/telemetry/tests/smoke.rs", src).is_empty());
    }

    #[test]
    fn p1_ignores_test_code() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("boom"); }
            }
        "#;
        assert!(errors("crates/dns-wire/src/message.rs", src).is_empty());
    }

    // ---- A1 ----

    #[test]
    fn a1_flags_unbounded_channels() {
        let src = r#"
            fn f() {
                let (tx, rx) = channel::unbounded::<u8>();
                let (t2, r2) = mpsc::unbounded_channel::<u8>();
                let (t3, r3) = std::sync::mpsc::channel::<u8>();
                let (t4, r4) = std::sync::mpsc::sync_channel::<u8>(8);
            }
        "#;
        let ds = errors("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 3, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "A1"));
    }

    #[test]
    fn a1_allows_bounded_and_other_crates() {
        let bounded = "fn f() { let (tx, rx) = channel::bounded::<u8>(64); }";
        assert!(errors("crates/replay/src/engine.rs", bounded).is_empty());
        let unbounded = "fn f() { let (tx, rx) = channel::unbounded::<u8>(); }";
        assert!(errors("crates/workloads/src/broot.rs", unbounded).is_empty());
    }

    // ---- R1 ----

    #[test]
    fn r1_flags_unbounded_retry_loop() {
        let src = r#"
            fn f(target: Addr) -> Conn {
                loop {
                    if let Some(c) = reconnect(target) {
                        return c;
                    }
                    backoff_sleep();
                }
            }
        "#;
        let ds = errors("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 1, "one diagnostic per loop, not per call: {ds:?}");
        assert_eq!(ds[0].rule, "R1");
        assert_eq!(ds[0].line, 3, "anchored at the loop keyword");
    }

    #[test]
    fn r1_allows_budgeted_retry_loops() {
        // A budget parameter, an attempt counter, or a deadline in the
        // while-head all count as bounds.
        for src in [
            r#"fn f(budget: &mut RetryBudget) {
                loop {
                    if try_reconnect().is_some() { return; }
                    if budget.next_delay_us().is_none() { return; }
                }
            }"#,
            r#"fn f() {
                let mut attempts = 0;
                while attempts < 5 {
                    retry_send();
                    attempts += 1;
                }
            }"#,
            r#"fn f(deadline_us: u64) {
                while now() < deadline_us { redial(); }
            }"#,
        ] {
            let ds = errors("crates/replay/src/engine.rs", src);
            assert!(ds.is_empty(), "{ds:?}");
        }
    }

    #[test]
    fn r1_attributes_to_the_innermost_loop() {
        // The outer loop mentions `max_rounds`; the inner retry loop has
        // no bound of its own and is the one flagged.
        let src = r#"
            fn f(max_rounds: u32) {
                for _ in 0..max_rounds {
                    loop {
                        if reconnect().is_some() { break; }
                    }
                }
            }
        "#;
        let ds = errors("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].line, 4);
    }

    #[test]
    fn r1_scope_and_non_call_mentions() {
        // Outside dns-server/replay/proxy the rule does not run …
        let src = "fn f() { loop { reconnect(); } }";
        assert!(errors("crates/workloads/src/broot.rs", src).is_empty());
        // … a field named `retrying` is not a call site …
        let field = r#"
            fn f(s: &mut S) {
                loop {
                    if s.retrying { return; }
                    poll(s);
                }
            }
        "#;
        assert!(errors("crates/replay/src/sim_replay.rs", field).is_empty());
        // … and test code never trips it.
        let test_code = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { loop { reconnect(); } }
            }
        "#;
        assert!(errors("crates/replay/src/engine.rs", test_code).is_empty());
    }

    // ---- D2 cross-file layer ----

    fn multi(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let fds: Vec<_> = files.iter().filter_map(|(p, s)| file_data(p, s)).collect();
        analyze_files(&fds)
    }

    fn multi_errors(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        multi(files)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn d2_cross_resolves_fields_and_aliases_across_files() {
        let table = r#"
            use std::collections::HashMap;
            pub type EventMap = HashMap<u64, u32>;
            pub struct Table { pub m: EventMap }
        "#;
        let user = r#"
            use crate::table::Table;
            pub fn drain_in_hash_order(t: &Table) -> Vec<u32> {
                t.m.values().copied().collect()
            }
        "#;
        let errs = multi_errors(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].rule, "D2");
        assert!(errs[0].path.ends_with("user.rs"), "{errs:?}");
        assert_eq!(errs[0].line, 4);
    }

    #[test]
    fn d2_cross_resolves_alias_through_use_rename() {
        let table = "use std::collections::HashMap;\npub type EventMap = HashMap<u64, u32>;\n";
        let user = r#"
            use crate::table::EventMap as EMap;
            pub fn f() {
                let x: EMap = EMap::new();
                for v in x.values() {}
            }
        "#;
        let errs = multi_errors(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].rule, "D2");
        assert_eq!(errs[0].line, 5, "anchored at the for-loop receiver");
        // The renamed alias also draws the resolves-to warning.
        let warns = multi(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert!(
            warns.iter().any(|d| d.severity == Severity::Warning
                && d.path.ends_with("user.rs")
                && d.message.contains("resolves to")),
            "{warns:?}"
        );
    }

    #[test]
    fn d2_cross_bare_idents_never_use_the_field_fallback() {
        // A cross-file struct declares a hash field named `entries`;
        // a *parameter* with the same bare name must not inherit it.
        let table = r#"
            use std::collections::HashMap;
            pub struct Table { pub entries: HashMap<u64, u32> }
        "#;
        let user = r#"
            pub fn sum(entries: &[u32]) -> u32 {
                let mut s = 0;
                for e in entries { s += *e; }
                s
            }
        "#;
        let errs = multi_errors(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn d2_cross_unknown_owner_falls_back_to_any_declaring_struct() {
        // `c` has no resolvable type, but *some* struct declares an
        // `entries` field of hash type — field access stays conservative.
        let table = r#"
            use std::collections::HashMap;
            pub struct Table { pub entries: HashMap<u64, u32> }
        "#;
        let user = r#"
            pub fn h() {
                let c = make_ctx();
                for v in c.entries.values() {}
            }
        "#;
        let errs = multi_errors(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].rule, "D2");
        assert!(errs[0].path.ends_with("user.rs"));
    }

    #[test]
    fn d2_cross_known_owner_without_the_field_stays_silent() {
        // The owner's type *is* known and does not declare `entries`,
        // so the any-owner fallback must not apply.
        let table = r#"
            use std::collections::HashMap;
            pub struct Table { pub entries: HashMap<u64, u32> }
            pub struct Ctx { pub entries: Vec<u32> }
        "#;
        let user = r#"
            use crate::table::Ctx;
            pub fn h(c: &Ctx) {
                for v in c.entries.iter() {}
            }
        "#;
        let errs = multi_errors(&[
            ("crates/netsim/src/table.rs", table),
            ("crates/netsim/src/user.rs", user),
        ]);
        assert!(
            errs.iter().all(|d| !d.path.ends_with("user.rs")),
            "{errs:?}"
        );
    }

    #[test]
    fn d2_cross_never_double_reports_same_file_declarations() {
        // A hash declared and iterated in one file is v1 territory:
        // exactly one error, not one per layer.
        let src = r#"
            use std::collections::HashMap;
            pub struct S { pub m: HashMap<u64, u32> }
            impl S {
                pub fn f(&self) {
                    for x in self.m.values() {}
                }
            }
        "#;
        let errs = multi_errors(&[("crates/netsim/src/solo.rs", src)]);
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    // ---- S1 ----

    #[test]
    fn s1_flags_enqueue_remote_outside_exchange() {
        let src = r#"
            pub fn leak(sim: &mut Simulator, r: RemoteUdp) {
                sim.enqueue_remote(r);
            }
        "#;
        let ds = errors("crates/shard/src/sim.rs", src);
        assert!(ds.iter().any(|d| d.rule == "S1" && d.line == 3), "{ds:?}");
    }

    #[test]
    fn s1_exchange_is_the_sanctioned_call_site() {
        let src = "pub fn deliver(sim: &mut Simulator, r: RemoteUdp) { sim.enqueue_remote(r); }";
        assert!(errors("crates/shard/src/exchange.rs", src).is_empty());
        // Outside the shard crate the rule does not apply at all —
        // netsim itself defines and may use enqueue_remote.
        assert!(errors("crates/netsim/src/sim.rs", src)
            .iter()
            .all(|d| d.rule != "S1"));
    }

    #[test]
    fn shard_crate_is_sim_and_hot_path_scope() {
        // D2 (hash iteration) and P1 (panic discipline) both cover the
        // sharded coordinator.
        let hash = r#"
            use std::collections::HashMap;
            pub struct W { pub owners: HashMap<u64, u32> }
            impl W { pub fn f(&self) { for x in self.owners.values() { let _ = x; } } }
        "#;
        assert!(errors("crates/shard/src/sim.rs", hash)
            .iter()
            .any(|d| d.rule == "D2"));
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(errors("crates/shard/src/plan.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
    }

    #[test]
    fn cache_crate_is_sim_and_hot_path_scope() {
        // The resolver cache decides eviction and fan-out order, so D2
        // (hash iteration) and P1 (panic discipline) both cover it.
        let hash = r#"
            use std::collections::HashMap;
            pub struct C { pub entries: HashMap<u64, u32> }
            impl C { pub fn f(&self) { for x in self.entries.values() { let _ = x; } } }
        "#;
        assert!(errors("crates/cache/src/store.rs", hash)
            .iter()
            .any(|d| d.rule == "D2"));
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(errors("crates/cache/src/policy.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
        let scope = classify("crates/cache/src/outstanding.rs");
        assert!(scope.sim_path && scope.hot_path && !scope.exempt);
    }

    #[test]
    fn guard_crate_is_hot_path_and_channel_scope() {
        // Checkpoint parse/serialize runs on the replay host's thread,
        // so P1 (panic discipline) covers the guard crate; it owns the
        // retry budgets, so A1/R1 (channel/retry discipline) do too.
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(errors("crates/guard/src/checkpoint.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
        let scope = classify("crates/guard/src/inflight.rs");
        assert!(scope.hot_path && scope.channel_scope && !scope.exempt);
        let unbounded = r#"
            pub fn mk() {
                let (tx, rx) = channel::unbounded();
                let _ = (tx, rx);
            }
        "#;
        assert!(errors("crates/guard/src/config.rs", unbounded)
            .iter()
            .any(|d| d.rule == "A1"));
    }

    #[test]
    fn replay_core_is_hot_path_and_sim_scope() {
        // Called on every dispatch and every answer: P1 applies, on
        // top of the replay crate's existing A1/R1 channel scope; and
        // its iteration order reaches checkpoints, so D2 does too.
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"boom\") }";
        assert!(errors("crates/replay/src/core.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
        let hashed = "use std::collections::HashMap; pub fn f(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }";
        assert!(errors("crates/replay/src/core.rs", hashed)
            .iter()
            .any(|d| d.rule == "D2"));
        let scope = classify("crates/replay/src/core.rs");
        assert!(scope.hot_path && scope.channel_scope && scope.sim_path);
        // The rest of the replay crate keeps its previous scoping.
        let engine = classify("crates/replay/src/engine.rs");
        assert!(!engine.hot_path && !engine.sim_path && engine.channel_scope);
    }

    // ---- rule catalog ----

    #[test]
    fn catalog_covers_every_rule_exactly_once() {
        let mut ids: Vec<_> = CATALOG.iter().map(|r| r.id).collect();
        ids.sort();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup, "duplicate rule ids in CATALOG");
        for id in ["D1", "D2", "D3", "D4", "P1", "A1", "T1", "R1", "S1"] {
            assert!(rule_info(id).is_some(), "{id} missing from CATALOG");
        }
        assert_eq!(CATALOG.len(), 9);
        assert!(rule_info("D9").is_none());
    }

    // ---- scoping ----

    #[test]
    fn exempt_dirs_produce_nothing() {
        let src = "fn f() { Instant::now(); Some(1).unwrap(); }";
        assert!(analyze_source("crates/netsim/tests/determinism.rs", src).is_empty());
        assert!(analyze_source("examples/quickstart.rs", src).is_empty());
        assert!(
            analyze_source("crates/ldp-lint/fixtures/crates/netsim/src/bad.rs", src).is_empty()
        );
    }
}
