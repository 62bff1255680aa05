//! The nine LDplayer correctness rules.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D1   | no wall-clock reads (`Instant::now`, `SystemTime::now`) outside real-clock modules |
//! | D2   | no `HashMap`/`HashSet` in simulator-path code |
//! | D3   | no ambient randomness (`thread_rng`, `rand::random`, `from_entropy`) — all RNG is seeded |
//! | D4   | simulator-path code names no wall-clock type and no real-clock module |
//! | P1   | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in packet-decode and server hot paths |
//! | A1   | no unbounded channels in the server/replay/proxy crates |
//! | T1   | no raw clock reads inside `crates/telemetry` — all time flows through `ClockSource` |
//! | R1   | a loop that calls a retry/reconnect/backoff helper must reference a budget/cap identifier (server/replay/proxy crates) |
//! | S1   | no cross-shard sends in `crates/shard` outside `exchange.rs` |
//!
//! Detection is token-based (see [`crate::lexer`]): comments, strings
//! and `#[cfg(test)]` code never trigger a rule. Scoping is path-based
//! and mirrors the workspace layout, so the fixture tree under
//! `crates/ldp-lint/fixtures/` can reproduce every scope. Every rule
//! reads one file's tokens and nothing else, so the whole analysis is
//! one pass; DESIGN.md §7 names what that cannot see and what catches
//! it instead.

use std::collections::BTreeSet;

use crate::lexer::{test_code_mask, tokenize, Token};

/// One finding. Every finding is an error: it fails the run unless
/// allowlisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`CATALOG`]).
    pub rule: &'static str,
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
pub(crate) struct RuleInfo {
    /// Rule id (`D1` … `S1`).
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// Why the invariant exists — what breaks when it is violated.
    pub rationale: &'static str,
}

/// Every rule, in display order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no Instant::now/SystemTime::now outside real-clock modules \
                  (dns-server/src/socket_server.rs, replay/src/capture.rs, crates/bench)",
        rationale: "Sim-path code that reads the wall clock produces transcripts that \
                    differ run to run; all time flows through the replay/netsim clock \
                    abstractions so virtual-time runs are bit-reproducible.",
    },
    RuleInfo {
        id: "D2",
        summary: "no HashMap/HashSet in simulator paths (crates/netsim/src, crates/chaos/src, \
                  crates/cache/src, crates/rng/src, crates/shard/src, replay/src/core.rs, \
                  sim_*.rs)",
        rationale: "Hash iteration order is randomized per process; if it reaches event \
                    order, the same seed yields different transcripts. Iterating a hash \
                    collection takes its type's name somewhere in the file that declares \
                    it, so the rule is the name. BTreeMap/BTreeSet give deterministic \
                    order.",
    },
    RuleInfo {
        id: "D3",
        summary: "no thread_rng / rand::random / from_entropy anywhere — randomness \
                  must flow from a seeded RNG",
        rationale: "Ambient entropy makes workload generation and chaos injection \
                    unrepeatable; every RNG is constructed from an explicit seed \
                    (ldp_rng::SplitMix64::seed_from_u64) so experiments can be replayed.",
    },
    RuleInfo {
        id: "D4",
        summary: "a simulator-path file names no wall-clock type (Instant, SystemTime, \
                  WallClock) and no real-clock module as a path segment \
                  (socket_server::, capture::)",
        rationale: "D1 sees only direct reads; a helper one hop away (in real-clock-exempt \
                    socket_server.rs or capture.rs) or a stored Instant still leaks wall \
                    time into the simulation. Simulator code has no use for those names \
                    at all, so naming one is the violation. `Instant::now` itself is \
                    D1's report, not repeated here.",
    },
    RuleInfo {
        id: "P1",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in hot \
                  paths (crates/dns-wire/src, crates/proxy/src, crates/guard/src, \
                  dns-server/src/{engine,scratch,sim_server}.rs, \
                  dns-zone/src/{lookup,zone,catalog,view}.rs, replay/src/core.rs, \
                  dns-resolver/src/{core,sim_resolver}.rs)",
        rationale: "A malformed packet must never panic the server: decode and dispatch \
                    paths return typed errors so a fuzzer (or the internet) cannot take \
                    the process down.",
    },
    RuleInfo {
        id: "A1",
        summary: "no unbounded channels (`unbounded`, `unbounded_channel`, std `mpsc::channel`) \
                  in dns-server/replay/proxy/guard crates",
        rationale: "The pre-load window (paper §2.6) depends on bounded stage-to-stage \
                    queues for backpressure; an unbounded channel turns overload into \
                    unbounded memory growth instead of a measurable stall.",
    },
    RuleInfo {
        id: "T1",
        summary: "no Instant::now/SystemTime::now inside crates/telemetry — timestamps \
                  go through the ClockSource abstraction",
        rationale: "Telemetry must be a pure observer: under virtual time it records \
                    simulator timestamps, and a run against the wall clock installs \
                    its own ClockSource from outside the crate.",
    },
    RuleInfo {
        id: "R1",
        summary: "a loop calling a retry/reconnect/backoff helper in the \
                  dns-server/replay/proxy/guard crates must reference a budget/attempt/\
                  deadline/limit/cap identifier",
        rationale: "A retry loop with no visible bound spins forever against a dead \
                    peer — exactly the failure mode ldp_guard::RetryBudget exists to \
                    prevent.",
    },
    RuleInfo {
        id: "S1",
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
pub(crate) struct FileScope {
    /// Test/bench/example/fixture code: no rules at all.
    pub exempt: bool,
    /// Real-clock module (D1 does not apply):
    /// `crates/dns-server/src/socket_server.rs`,
    /// `crates/replay/src/capture.rs`, bench binaries.
    pub real_clock_ok: bool,
    /// Simulator-path file (D2 and D4 apply): `crates/netsim/src/**`,
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
    /// `scratch.rs` and `sim_server.rs` there and
    /// `crates/dns-zone/src/{lookup,zone,catalog,view}.rs` (every
    /// authoritative query crosses them), `crates/shard/src/**` (a
    /// worker-thread panic aborts the whole windowed drive),
    /// `crates/guard/src/**` (checkpoint parse/serialize runs on the
    /// replay host's dispatch thread — a malformed document must
    /// return an error, never panic mid-replay),
    /// `crates/replay/src/core.rs` (called on every dispatch and
    /// every answer), and `crates/dns-resolver/src/sim_resolver.rs`
    /// with the resolution core under it, `core.rs` (every stub query
    /// and every upstream response of the recursive experiments; what
    /// the upstream sends is outside input).
    pub hot_path: bool,
    /// Channel/retry-discipline crate (A1 and R1 apply): dns-server,
    /// replay, proxy — the crates that dial, redial and resend — plus
    /// guard, which owns the retry budgets themselves.
    pub channel_scope: bool,
    /// Telemetry crate source (T1 applies instead of D1): the crate
    /// reads no raw clock at all.
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
    // By path, not by file name: a `capture.rs` in another crate (a
    // netsim pcap tap, say) is not a real-clock module.
    let real_clock_ok = p.ends_with("crates/dns-server/src/socket_server.rs")
        || p.ends_with("crates/replay/src/capture.rs")
        || in_dir("crates/bench");
    let shard_path = p.contains("crates/shard/src/");
    let is_replay_core = p.ends_with("crates/replay/src/core.rs");
    // The resolution core runs under the sim resolver: its scopes.
    let is_resolve_core = p.ends_with("crates/dns-resolver/src/core.rs");
    let sim_path = p.contains("crates/netsim/src/")
        || p.contains("crates/chaos/src/")
        || p.contains("crates/cache/src/")
        || p.contains("crates/rng/src/")
        || shard_path
        || is_replay_core
        || is_resolve_core
        || file.starts_with("sim_");
    let hot_path = p.contains("crates/dns-wire/src/")
        || p.contains("crates/proxy/src/")
        || p.contains("crates/cache/src/")
        || p.contains("crates/guard/src/")
        || shard_path
        || ["engine", "scratch", "sim_server"]
            .iter()
            .any(|f| p.ends_with(&format!("crates/dns-server/src/{f}.rs")))
        || ["lookup", "zone", "catalog", "view"]
            .iter()
            .any(|f| p.ends_with(&format!("crates/dns-zone/src/{f}.rs")))
        || p.ends_with("crates/dns-resolver/src/sim_resolver.rs")
        || is_resolve_core
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

/// Run every applicable rule over one file's source: its production
/// tokens (comments, strings and test code removed) and nothing else.
/// Exempt paths produce nothing.
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let scope = classify(path);
    if scope.exempt {
        return Vec::new();
    }
    let tokens = tokenize(src);
    let mask = test_code_mask(&tokens);
    let toks: Vec<Token> = tokens
        .into_iter()
        .zip(mask)
        .filter(|(_, m)| !m)
        .map(|(t, _)| t)
        .collect();
    let toks = toks.as_slice();

    let mut diags = Vec::new();
    if scope.telemetry_path {
        // T1 replaces D1 inside the telemetry crate: the stricter
        // message points at ClockSource rather than replay/netsim time.
        rule_clock_read(
            "T1",
            "inside crates/telemetry — timestamps must flow through ClockSource so \
             virtual-time runs stay deterministic",
            path,
            toks,
            &mut diags,
        );
    } else if !scope.real_clock_ok {
        rule_clock_read(
            "D1",
            "outside a real-clock module — route time through the clock abstraction \
             (replay::clock / netsim virtual time)",
            path,
            toks,
            &mut diags,
        );
    }
    if scope.sim_path {
        rule_d2(path, toks, &mut diags);
        rule_d4(path, toks, &mut diags);
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
    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: impl Into<String>,
) {
    diags.push(Diagnostic {
        rule,
        path: path.to_string(),
        line,
        message: message.into(),
    });
}

/// Is token `i` the head of `Instant::now` / `SystemTime::now`?
fn is_clock_read(toks: &[Token], i: usize) -> bool {
    matches!(toks[i].text.as_str(), "Instant" | "SystemTime")
        && toks.get(i + 1).is_some_and(|t| t.text == "::")
        && toks.get(i + 2).is_some_and(|t| t.text == "now")
}

/// D1 / T1 — wall-clock reads. The same read is D1 in virtual-time
/// code and T1 inside the telemetry crate, where every timestamp goes
/// through the `ClockSource` abstraction, which has no wall-clock
/// implementation inside the crate; replay's one (`WallClock`, behind
/// `ReplayClock`) is allowlisted by file in `ldp-lint.allow`.
fn rule_clock_read(
    rule: &'static str,
    why: &str,
    path: &str,
    toks: &[Token],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if is_clock_read(toks, i) {
            push(
                diags,
                rule,
                path,
                t.line,
                format!("{}::now() {why}", t.text),
            );
        }
    }
}

/// D2 — hash collections in sim paths. Iterating one in hash order
/// takes its type's name in the declaring file, so the name is the
/// violation. Keyed access earns no exception: a map kept for lookups
/// is one `.values()` away from a transcript that differs per process.
fn rule_d2(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for t in toks {
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                diags,
                "D2",
                path,
                t.line,
                format!(
                    "`{}` in simulator-path code — use BTreeMap/BTreeSet so iteration \
                     order can never leak into event order",
                    t.text
                ),
            );
        }
    }
}

/// Types whose only use is to hold or read wall-clock time.
const WALL_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime", "WallClock"];

/// Modules that D1 lets read the wall clock (see [`classify`]).
const REAL_CLOCK_MODULES: &[&str] = &["socket_server", "capture"];

/// D4 — wall-clock names in sim paths. D1 reports the read itself; this
/// reports what lets wall time in one hop away: a wall-clock type as a
/// field, parameter or import, or a path into a real-clock module
/// (`capture::stamp_now()`, `use crate::socket_server::X`). A module
/// name counts only as a path segment, so a local called `capture` is
/// not a site. One diagnostic per site, none where D1 already reports.
fn rule_d4(path: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        let name = t.text.as_str();
        if WALL_CLOCK_TYPES.contains(&name) && !is_clock_read(toks, i) {
            push(
                diags,
                "D4",
                path,
                t.line,
                format!(
                    "wall-clock type `{name}` named in simulator-path code — simulated \
                     time is the netsim / ReplayClock virtual clock"
                ),
            );
        } else if REAL_CLOCK_MODULES.contains(&name)
            && toks.get(i + 1).is_some_and(|n| n.text == "::")
        {
            push(
                diags,
                "D4",
                path,
                t.line,
                format!(
                    "path into real-clock module `{name}` in simulator-path code — what \
                     it exports may read the wall clock"
                ),
            );
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

    // ---- D1 ----

    #[test]
    fn d1_flags_wall_clock_in_sim_code() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let ds = analyze_source("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.rule == "D1"));
        assert_eq!(ds[0].line, 1);
    }

    #[test]
    fn d1_allows_real_clock_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(analyze_source("crates/replay/src/capture.rs", src).is_empty());
        assert!(analyze_source("crates/dns-server/src/socket_server.rs", src).is_empty());
        assert!(analyze_source("crates/bench/src/bin/ablations.rs", src).is_empty());
    }

    #[test]
    fn d1_real_clock_exemption_is_by_path_not_file_name() {
        // A pcap tap in the simulator would naturally be called
        // capture.rs; it is sim-path code, not a real-clock module.
        let src = "fn f() { let t = Instant::now(); }";
        let ds = analyze_source("crates/netsim/src/capture.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "D1");
        assert!(!classify("crates/netsim/src/capture.rs").real_clock_ok);
        assert!(!classify("crates/proxy/src/socket_server.rs").real_clock_ok);
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
        assert!(analyze_source("crates/netsim/src/sim.rs", src).is_empty());
    }

    // ---- D2 ----

    #[test]
    fn d2_flags_every_hash_collection_token() {
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
        let ds = analyze_source("crates/netsim/src/sim.rs", src);
        assert!(ds.iter().all(|d| d.rule == "D2"));
        // The two mentions of the type, not the two iterations.
        let lines: Vec<u32> = ds.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3], "{ds:?}");
    }

    #[test]
    fn d2_flags_let_bound_hash_collections_in_sim_modules() {
        let src = r#"
            fn f() {
                let mut m = std::collections::HashMap::new();
                m.insert(1, 2);
                let s: HashSet<u8> = HashSet::new();
            }
        "#;
        let ds = analyze_source("crates/dns-server/src/sim_server.rs", src);
        let lines: Vec<u32> = ds.iter().map(|d| d.line).collect();
        assert_eq!(lines, [3, 5, 5], "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "D2"));
    }

    #[test]
    fn d2_flags_keyed_access_and_allows_btreemap() {
        let keyed = r#"
            struct S { lookup: std::collections::HashMap<u64, u32> }
            impl S {
                fn f(&mut self) {
                    let _ = self.lookup.get(&1);
                    self.lookup.insert(1, 2);
                }
            }
        "#;
        // Keyed access only — still an error: the type is the rule.
        let ds = analyze_source("crates/netsim/src/sim.rs", keyed);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!((ds[0].rule, ds[0].line), ("D2", 2));
        let ordered = r#"
            use std::collections::{BTreeMap, BTreeSet};
            struct S { events: BTreeMap<u64, u32>, seen: BTreeSet<u64> }
            impl S { fn f(&self) { for (k, v) in &self.events {} } }
        "#;
        assert!(analyze_source("crates/netsim/src/sim.rs", ordered).is_empty());
    }

    #[test]
    fn d2_ignores_comments_strings_and_test_code() {
        let src = r#"
            // a HashMap would be wrong here
            fn f() { let s = "HashSet"; }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
            }
        "#;
        assert!(analyze_source("crates/netsim/src/sim.rs", src).is_empty());
    }

    #[test]
    fn d2_applies_to_chaos_crate() {
        let src = r#"
            struct S { m: std::collections::HashMap<u64, u32> }
            impl S { fn f(&self) { for x in self.m.values() {} } }
        "#;
        let ds = analyze_source("crates/chaos/src/injector.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "D2");
    }

    #[test]
    fn d2_not_applied_outside_sim_paths() {
        let src = r#"
            struct S { m: std::collections::HashMap<u64, u32> }
            impl S { fn f(&self) { for x in self.m.values() {} } }
        "#;
        assert!(analyze_source("crates/dns-zone/src/zone.rs", src).is_empty());
    }

    // ---- D4 ----

    #[test]
    fn d4_flags_wall_clock_types_and_real_clock_module_paths() {
        let src = r#"
            use crate::socket_server::helper_now;
            use std::time::Instant;
            pub struct Host { started: Instant }
            pub fn step(clock: &WallClock, now_us: u64) -> u64 {
                crate::capture::stamp_now() + now_us
            }
        "#;
        let ds = analyze_source("crates/dns-server/src/sim_server.rs", src);
        assert!(ds.iter().all(|d| d.rule == "D4"), "{ds:?}");
        let lines: Vec<u32> = ds.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3, 4, 5, 6], "{ds:?}");
        assert!(ds[0].message.contains("socket_server"), "{}", ds[0].message);
        assert!(ds[3].message.contains("WallClock"), "{}", ds[3].message);
    }

    #[test]
    fn d4_ignores_comments_strings_tests_and_look_alikes() {
        let src = r#"
            // Instant and capture::stamp_now are only mentioned here.
            pub trait Instantiate { fn instantiate(&self); }
            pub fn f(capture: bool, socket_server: u8) -> &'static str {
                let capture = capture && socket_server > 0;
                if capture { "SystemTime" } else { "capture::x" }
            }
            #[cfg(test)]
            mod tests {
                use std::time::Instant;
                fn t() { let _ = crate::capture::stamp_now(); }
            }
        "#;
        assert!(analyze_source("crates/netsim/src/sim.rs", src).is_empty());
    }

    #[test]
    fn d4_leaves_the_read_itself_to_d1() {
        let src = "fn f() { let t = std::time::Instant::now(); let e: Instant = t; }";
        let ds = analyze_source("crates/netsim/src/sim.rs", src);
        let got: Vec<&str> = ds.iter().map(|d| d.rule).collect();
        // One D1 for the read, one D4 for the annotation; the read is
        // not reported twice.
        assert_eq!(got, ["D1", "D4"], "{ds:?}");
    }

    #[test]
    fn d4_not_applied_outside_sim_paths() {
        let src = "use std::time::Instant; pub struct S { t: Instant }";
        assert!(analyze_source("crates/replay/src/engine.rs", src).is_empty());
        assert!(analyze_source("crates/dns-server/src/socket_server.rs", src).is_empty());
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
        let ds = analyze_source("crates/workloads/src/zipf.rs", src);
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
        assert!(analyze_source("crates/workloads/src/zipf.rs", src).is_empty());
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
        let ds = analyze_source("crates/dns-wire/src/message.rs", src);
        assert_eq!(ds.len(), 4, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "P1"));
        // Line numbers point at the offending tokens.
        assert_eq!(ds[0].line, 3);
    }

    #[test]
    fn p1_scope_is_hot_paths_only() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert!(analyze_source("crates/dns-wire/src/name.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        assert!(analyze_source("crates/proxy/src/rewrite.rs", src)
            .iter()
            .any(|d| d.rule == "P1"));
        // Everything an authoritative query crosses on its way through
        // the simulated server: the engine and the scratch it answers
        // in, the netsim host around them, and the zone structures the
        // lookup walks.
        for path in [
            "crates/dns-server/src/engine.rs",
            "crates/dns-server/src/scratch.rs",
            "crates/dns-server/src/sim_server.rs",
            "crates/dns-zone/src/lookup.rs",
            "crates/dns-zone/src/zone.rs",
            "crates/dns-zone/src/catalog.rs",
            "crates/dns-zone/src/view.rs",
        ] {
            let ds = analyze_source(path, src);
            assert!(ds.iter().any(|d| d.rule == "P1"), "{path}");
        }
        // Outside the hot-path crates, unwrap is clippy's problem.
        assert!(analyze_source("crates/metrics/src/histogram.rs", src).is_empty());
        // So are the other dns-server and dns-zone files (dns-server
        // denies unwrap_used/expect_used/panic in its manifest; master
        // files and signing run at load time).
        assert!(analyze_source("crates/dns-server/src/rrl.rs", src).is_empty());
        assert!(analyze_source("crates/dns-zone/src/master.rs", src).is_empty());
    }

    // ---- T1 ----

    #[test]
    fn t1_flags_raw_clock_reads_in_telemetry() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let ds = analyze_source("crates/telemetry/src/clock.rs", src);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "T1"), "{ds:?}");
        // T1 replaces D1 inside the crate — no double report.
        assert!(!ds.iter().any(|d| d.rule == "D1"));
    }

    #[test]
    fn t1_scope_is_telemetry_src_only() {
        let src = "fn f() { let t = Instant::now(); }";
        // Elsewhere the same read is D1 (or allowed in real-clock files).
        assert!(analyze_source("crates/netsim/src/sim.rs", src)
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
        assert!(analyze_source("crates/dns-wire/src/message.rs", src).is_empty());
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
        let ds = analyze_source("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 3, "{ds:?}");
        assert!(ds.iter().all(|d| d.rule == "A1"));
    }

    #[test]
    fn a1_allows_bounded_and_other_crates() {
        let bounded = "fn f() { let (tx, rx) = channel::bounded::<u8>(64); }";
        assert!(analyze_source("crates/replay/src/engine.rs", bounded).is_empty());
        let unbounded = "fn f() { let (tx, rx) = channel::unbounded::<u8>(); }";
        assert!(analyze_source("crates/workloads/src/broot.rs", unbounded).is_empty());
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
        let ds = analyze_source("crates/replay/src/engine.rs", src);
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
            let ds = analyze_source("crates/replay/src/engine.rs", src);
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
        let ds = analyze_source("crates/replay/src/engine.rs", src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].line, 4);
    }

    #[test]
    fn r1_scope_and_non_call_mentions() {
        // Outside dns-server/replay/proxy the rule does not run …
        let src = "fn f() { loop { reconnect(); } }";
        assert!(analyze_source("crates/workloads/src/broot.rs", src).is_empty());
        // … a field named `retrying` is not a call site …
        let field = r#"
            fn f(s: &mut S) {
                loop {
                    if s.retrying { return; }
                    poll(s);
                }
            }
        "#;
        assert!(analyze_source("crates/replay/src/sim_replay.rs", field).is_empty());
        // … and test code never trips it.
        let test_code = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { loop { reconnect(); } }
            }
        "#;
        assert!(analyze_source("crates/replay/src/engine.rs", test_code).is_empty());
    }

    // ---- S1 ----

    #[test]
    fn s1_flags_enqueue_remote_outside_exchange() {
        let src = r#"
            pub fn leak(sim: &mut Simulator, r: RemoteUdp) {
                sim.enqueue_remote(r);
            }
        "#;
        let ds = analyze_source("crates/shard/src/sim.rs", src);
        assert!(ds.iter().any(|d| d.rule == "S1" && d.line == 3), "{ds:?}");
    }

    #[test]
    fn s1_exchange_is_the_sanctioned_call_site() {
        let src = "pub fn deliver(sim: &mut Simulator, r: RemoteUdp) { sim.enqueue_remote(r); }";
        assert!(analyze_source("crates/shard/src/exchange.rs", src).is_empty());
        // Outside the shard crate the rule does not apply at all —
        // netsim itself defines and may use enqueue_remote.
        assert!(analyze_source("crates/netsim/src/sim.rs", src)
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
        assert!(analyze_source("crates/shard/src/sim.rs", hash)
            .iter()
            .any(|d| d.rule == "D2"));
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(analyze_source("crates/shard/src/plan.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
    }

    #[test]
    fn cache_crate_is_sim_and_hot_path_scope() {
        // The resolver cache decides eviction and fan-out order, so D2
        // (hash iteration) and P1 (panic discipline) both cover it.
        let hash = r#"
            use std::collections::HashMap;
            struct C { pub entries: HashMap<u64, u32> }
            impl C { pub fn f(&self) { for x in self.entries.values() { let _ = x; } } }
        "#;
        assert!(analyze_source("crates/cache/src/store.rs", hash)
            .iter()
            .any(|d| d.rule == "D2"));
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(analyze_source("crates/cache/src/policy.rs", panicky)
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
        assert!(analyze_source("crates/guard/src/checkpoint.rs", panicky)
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
        assert!(analyze_source("crates/guard/src/config.rs", unbounded)
            .iter()
            .any(|d| d.rule == "A1"));
    }

    #[test]
    fn replay_core_is_hot_path_and_sim_scope() {
        // Called on every dispatch and every answer: P1 applies, on
        // top of the replay crate's existing A1/R1 channel scope; and
        // its iteration order reaches checkpoints, so D2 does too.
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"boom\") }";
        assert!(analyze_source("crates/replay/src/core.rs", panicky)
            .iter()
            .any(|d| d.rule == "P1"));
        let hashed = "use std::collections::HashMap; pub fn f(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }";
        assert!(analyze_source("crates/replay/src/core.rs", hashed)
            .iter()
            .any(|d| d.rule == "D2"));
        let scope = classify("crates/replay/src/core.rs");
        assert!(scope.hot_path && scope.channel_scope && scope.sim_path);
        // The rest of the replay crate keeps its previous scoping.
        let engine = classify("crates/replay/src/engine.rs");
        assert!(!engine.hot_path && !engine.sim_path && engine.channel_scope);
    }

    #[test]
    fn sim_resolver_is_hot_path_and_sim_scope() {
        // Every stub query and upstream response of a recursive
        // experiment crosses it, and what an upstream sends is outside
        // input: P1 applies. The synchronous resolver next to it (zone
        // construction, one-time) keeps its previous scoping.
        let panicky = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"task exists\") }";
        assert!(
            analyze_source("crates/dns-resolver/src/sim_resolver.rs", panicky)
                .iter()
                .any(|d| d.rule == "P1")
        );
        let scope = classify("crates/dns-resolver/src/sim_resolver.rs");
        assert!(scope.hot_path && scope.sim_path && !scope.channel_scope);
        assert!(!classify("crates/dns-resolver/src/iterative.rs").hot_path);
    }

    #[test]
    fn resolve_core_shares_the_sim_resolvers_scopes() {
        // `SimResolver` hands every upstream response to the core's
        // step and keeps its delegation table there: P1 and D2 follow.
        let core = "crates/dns-resolver/src/core.rs";
        let src = "use std::collections::HashMap;\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let rules: Vec<_> = analyze_source(core, src).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"P1") && rules.contains(&"D2"), "{rules:?}");
        let scope = classify(core);
        assert!(scope.hot_path && scope.sim_path && !scope.channel_scope);
        // The old walk kept under `#[cfg(test)]` as the reference is
        // test code: its `HashMap`s are not the core's.
        let reference = "#[cfg(test)]\nmod reference { use std::collections::HashMap; }";
        assert!(analyze_source(core, reference).is_empty());
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
