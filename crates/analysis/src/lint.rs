//! Repo-specific source lints for the GVFS workspace.
//!
//! Five rules, all keyed to the consistency protocol's concurrency
//! discipline (see `DESIGN.md`, "Checked invariants"):
//!
//! 1. **guard-across-send** — no named `MutexGuard`/`RwLock` guard may
//!    be live at an RPC send or callback invocation. The delegation
//!    protocol re-enters the proxy server from callback replies, so a
//!    guard held across the wire is a deadlock waiting for load. The
//!    rule is *interprocedural*: a guard live at a call to a workspace
//!    helper whose call chain reaches the wire is flagged too, with the
//!    chain spelled out.
//! 2. **unwrap-in-request-path** — no `unwrap()`/`expect()` in the
//!    proxy, server, or RPC request paths; a malformed request must
//!    surface as an error reply, not a panic that takes the session
//!    down.
//! 3. **protocol-match-exhaustive** — `match`es over the wire-protocol
//!    enums declared in `crates/core/src/protocol.rs` must not use a
//!    `_` arm, so adding a protocol variant fails to compile instead of
//!    silently taking a default path.
//! 4. **lock-order** — nested lock acquisitions in `crates/core` must
//!    follow the declared session → delegation → invalidation order
//!    (see [`LOCK_ORDER`]), including acquisitions made by callees
//!    (interprocedural, through the same call graph as rule 1). The
//!    table itself is drift-checked against the sources: an entry
//!    naming a lock no longer acquired anywhere in `crates/core`, or a
//!    lock receiver in `crates/core` missing from the table, fails the
//!    analysis.
//! 5. **blocking-in-actor** — actor-scoped code (`crates/core`) runs
//!    under the netsim virtual clock; real-time and thread-blocking std
//!    calls (`thread::sleep`/`park*`, `Instant::now`,
//!    `SystemTime::now`) would block a simulation actor or tear the
//!    deterministic clock, directly or through a workspace callee.
//!
//! The pass is textual (a token scan, not a type-checked analysis):
//! only *named* guards (`let g = x.lock();`) are tracked, and
//! `#[cfg(test)]` modules are skipped. That is deliberate — the
//! codebase's idiom for "release before the wire" is a named guard in a
//! scoped block, which is exactly the shape the scan verifies. The
//! interprocedural layer resolves calls by *name* against the `fn`s
//! defined in the same crate ([`CallGraph`]; sibling stacks such as the
//! legacy NFS client share too many method names for cross-crate
//! resolution to be sound), and common container/combinator names are
//! excluded from resolution so homonyms cannot poison chains.

use crate::lexer::{tokenize, Kind, Token};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// The declared lock order for `crates/core`, outermost first. A lock
/// may only be acquired while holding locks of strictly lower rank.
///
/// Rank 0 is the session layer (callback routes, persisted client
/// list), then the client disk cache, then the proxy-client volatile
/// state, the server's delegation table (`deleg`, one mutex over the
/// whole open-file table) and the client readahead window,
/// then the persistent block store's extent index (`index`, reached
/// under the disk-cache guard — and, on the fill path, the readahead
/// guard too — so it must rank below both; it shares a rank with the
/// server's invalidation tracker `buffers`, one mutex over every
/// client's buffer, because the client store and the server tracker
/// never interleave), then the store's
/// WAL appender (`wal`, taken under `index` to keep log order matching
/// index order), then the write-back/invalidation plumbing, then
/// actor handles (flusher/poller/supervisor/scrubber), the server's per-client
/// WAN-health registry (`health`, scoped to a breaker lookup, never
/// held across the wire), and counters beside the recall fan-out
/// window (`fanout`, a terminal lock: the semaphore guard is dropped
/// before the acquiring actor parks and nothing is acquired under it).
/// The peer-sourcing registry (`peers`) and advert map (`peer_hints`)
/// are likewise terminal: each guard scopes a single lookup / insert /
/// removal — candidate peers are collected and the guard dropped
/// before any `PEERREAD` goes on the wire — and `peer_hints` is taken
/// under the disk-cache guard on the invalidation path, so it must
/// rank below `disk`. Neither store lock may be held
/// across a WAN send: the store does disk I/O only, and its deferred
/// cost settlement happens after every guard is released.
pub const LOCK_ORDER: &[(&str, u32)] = &[
    ("callbacks", 0),
    ("persisted_clients", 0),
    ("disk", 1),
    ("state", 2),
    ("deleg", 2),
    ("readahead", 2),
    ("index", 3),
    ("buffers", 3),
    ("wal", 4),
    ("flush_queue", 5),
    ("flusher", 6),
    ("poller", 6),
    ("supervisor", 6),
    ("scrubber", 6),
    ("poll_ts", 7),
    ("health", 7),
    ("stats", 8),
    ("fanout", 8),
    ("peers", 8),
    ("peer_hints", 8),
    // The protocol-trace buffer is written under the `deleg` lock
    // (so per-file event order matches the table's linearization) and
    // must therefore rank below everything that may be held at an
    // emission point.
    ("tracebuf", 9),
];

/// Method names that send an RPC or invoke a callback (directly or as
/// the documented entry point of a path that does). `send` /
/// `send_with_cred` / `wait_pending` are the split halves of the
/// [`RpcChannel`] pipeline: issuing *or* awaiting a pending call parks
/// the actor, so a live guard at either point is held across the wire.
/// (`wait` itself is deliberately absent: `Condvar::wait(guard)` in the
/// TCP transport legitimately consumes a guard.)
///
/// [`RpcChannel`]: ../../rpc/src/channel.rs
const SEND_MARKERS: &[&str] = &[
    "call",
    "call_with_cred",
    "send",
    "send_with_cred",
    "wait_pending",
    "dispatch",
    "forward",
    "forward_wan",
    "perform_recall",
    "perform_recalls",
    "send_recall",
    "finish_recall",
    "flush_block",
    "flush_blocks",
    "flush_all",
    "drain_flush_queue",
    "poll_once",
    "read_from_cache",
    "fetch_missing",
    "maybe_prefetch",
    "crash_recover",
    "recover",
    "reconcile_dirty",
    "repromote",
    "run_supervisor",
    "repair_clean_range",
    "run_scrubber",
];

/// Callee names never followed through the call graph. Resolution is
/// by bare name, so a workspace method that happens to share its name
/// with a std container/combinator method would otherwise claim every
/// `.get(…)` or `.insert(…)` in the tree as an edge to itself. `sync`
/// is here for the same reason: it is the universal durability verb —
/// the netsim virtual disk, the block-store trait, and `std::fs::File`
/// all speak it — and following `disk.sync()` to the store's own
/// `sync` would make every WAL append look like a recursive
/// index-lock acquisition.
const EXCLUDED_CALLEES: &[&str] = &[
    "all",
    "and_modify",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "chain",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "drop",
    "end",
    "entry",
    "eq",
    "err",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_none_or",
    "is_ok",
    "is_some",
    "is_some_and",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "map_err",
    "map_or",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "replace",
    "retain",
    "rev",
    "rposition",
    "saturating_add",
    "saturating_sub",
    "set",
    "sort",
    "sort_unstable",
    "sort_unstable_by_key",
    "split",
    "starts_with",
    "store",
    "sum",
    "swap",
    "sync",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "with_capacity",
    "wrapping_add",
    "write",
    "zip",
];

/// Identifiers that look like calls but are control-flow or binding
/// keywords.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// Real-time / thread-blocking std entry points, as `(qualifier,
/// name)` pairs: calling any of these inside actor-scoped code blocks
/// a simulation actor or reads the wall clock behind the virtual one.
const BLOCKING_CALLS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("thread", "park"),
    ("thread", "park_timeout"),
    ("Instant", "now"),
    ("SystemTime", "now"),
];

/// Per-function facts extracted from one `fn` body, merged by name
/// across the scanned sources (conservative: homonyms union).
#[derive(Debug, Default, Clone)]
pub struct FnSummary {
    /// Where the (first) definition was seen.
    pub file: String,
    pub line: u32,
    /// Contains a direct send-marker method call.
    pub sends: bool,
    /// Contains a direct real-time/blocking std call.
    pub blocks: bool,
    /// Lock fields acquired directly in the body.
    pub acquires: BTreeSet<String>,
    /// Workspace-resolvable callee names.
    pub calls: BTreeSet<String>,
}

/// A name-resolved call graph over every `fn` in the scanned sources,
/// with transitive closures for the three interprocedural questions
/// the lints ask: does a callee reach the wire, does it block, and
/// which locks does it (transitively) acquire.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Name → merged summary.
    pub fns: HashMap<String, FnSummary>,
    /// Name → next hop towards a send marker (`None` = sends directly).
    send_via: HashMap<String, Option<String>>,
    /// Name → next hop towards a blocking call (`None` = blocks directly).
    block_via: HashMap<String, Option<String>>,
    /// Name → locks transitively acquired, with the callee hop that
    /// introduces each (`None` = acquired directly).
    acquires_closed: HashMap<String, BTreeMap<String, Option<String>>>,
}

impl CallGraph {
    /// Builds the graph from `(path, source)` pairs. `#[cfg(test)]`
    /// modules are stripped, matching the lint walks.
    pub fn build(sources: &[(String, String)]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file, src) in sources {
            let toks = strip_cfg_test(tokenize(src));
            collect_fn_summaries(file, &toks, &mut graph.fns);
        }
        graph.close();
        graph
    }

    /// Fixpoint over the merged summaries.
    fn close(&mut self) {
        for (name, s) in &self.fns {
            if s.sends {
                self.send_via.insert(name.clone(), None);
            }
            if s.blocks {
                self.block_via.insert(name.clone(), None);
            }
            if !s.acquires.is_empty() {
                let direct: BTreeMap<String, Option<String>> =
                    s.acquires.iter().map(|l| (l.clone(), None)).collect();
                self.acquires_closed.insert(name.clone(), direct);
            }
        }
        loop {
            let mut changed = false;
            for (name, s) in &self.fns {
                for callee in &s.calls {
                    if self.send_via.contains_key(callee) && !self.send_via.contains_key(name) {
                        self.send_via.insert(name.clone(), Some(callee.clone()));
                        changed = true;
                    }
                    if self.block_via.contains_key(callee) && !self.block_via.contains_key(name) {
                        self.block_via.insert(name.clone(), Some(callee.clone()));
                        changed = true;
                    }
                    if let Some(locks) = self.acquires_closed.get(callee).cloned() {
                        let mine = self.acquires_closed.entry(name.clone()).or_default();
                        for lock in locks.keys() {
                            if !mine.contains_key(lock) {
                                mine.insert(lock.clone(), Some(callee.clone()));
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The call chain from `name` to a direct send marker, e.g.
    /// `["helper", "deeper"]` (the last element sends directly).
    /// `None` when `name` does not reach the wire.
    pub fn send_chain(&self, name: &str) -> Option<Vec<String>> {
        self.chain_of(&self.send_via, name)
    }

    /// The call chain from `name` to a direct blocking call.
    pub fn block_chain(&self, name: &str) -> Option<Vec<String>> {
        self.chain_of(&self.block_via, name)
    }

    /// Locks `name` transitively acquires.
    pub fn acquired_locks(&self, name: &str) -> Option<&BTreeMap<String, Option<String>>> {
        self.acquires_closed.get(name)
    }

    fn chain_of(&self, via: &HashMap<String, Option<String>>, name: &str) -> Option<Vec<String>> {
        if !via.contains_key(name) {
            return None;
        }
        let mut chain = vec![name.to_string()];
        let mut cur = name.to_string();
        while let Some(Some(next)) = via.get(&cur) {
            // Cycles cannot occur (a `Some` hop always points at a
            // node recorded earlier in the fixpoint), but stay bounded.
            if chain.len() > 32 || chain.contains(next) {
                break;
            }
            chain.push(next.clone());
            cur = next.clone();
        }
        Some(chain)
    }
}

/// Whether `toks[i]` is the name of a call site (`name(...)`,
/// `.name(...)`, or `Qualifier::name(...)`) that the graph should
/// resolve. Declarations (`fn name(`), macros (`name!(`), excluded and
/// keyword names, and capitalized names (types, variants) are not.
fn is_resolvable_call(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    if t.kind != Kind::Ident
        || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        || KEYWORDS.contains(&t.text.as_str())
        || EXCLUDED_CALLEES.contains(&t.text.as_str())
        || t.text.starts_with(char::is_uppercase)
        || t.text.starts_with('_')
    {
        return false;
    }
    if i > 0 && toks[i - 1].is_ident("fn") {
        return false;
    }
    true
}

/// The `Qualifier` of a `Qualifier::name(...)` call at `toks[i]`, if
/// any.
fn call_qualifier(toks: &[Token], i: usize) -> Option<&str> {
    if i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == Kind::Ident
    {
        Some(toks[i - 3].text.as_str())
    } else {
        None
    }
}

/// Whether `toks[i]` is a direct blocking/real-time std call.
fn is_blocking_call(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    if t.kind != Kind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return false;
    }
    let Some(q) = call_qualifier(toks, i) else { return false };
    BLOCKING_CALLS.iter().any(|&(qual, name)| q == qual && t.text == name)
}

/// Scans `toks` for `fn` items and records a merged [`FnSummary`] per
/// name.
fn collect_fn_summaries(file: &str, toks: &[Token], out: &mut HashMap<String, FnSummary>) {
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != Kind::Ident {
            i += 1;
            continue;
        }
        // Find the body `{` (or a `;` for trait signatures) at bracket
        // depth 0. `<`/`>` generics are not tracked by the lexer as
        // brackets, so only parens and square brackets need balancing.
        let (mut parens, mut brackets) = (0i32, 0i32);
        let mut body_open = None;
        let mut j = i + 2;
        while j < toks.len() {
            let tk = &toks[j];
            if tk.kind == Kind::Punct {
                match tk.text.as_bytes()[0] {
                    b'(' => parens += 1,
                    b')' => parens -= 1,
                    b'[' => brackets += 1,
                    b']' => brackets -= 1,
                    b'{' if parens == 0 && brackets == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    b';' if parens == 0 && brackets == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        // Matched close brace.
        let mut depth = 0i32;
        let mut close = open;
        for (k, tk) in toks.iter().enumerate().skip(open) {
            if tk.is_punct('{') {
                depth += 1;
            } else if tk.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        let body = &toks[open + 1..close];
        let entry = out.entry(name_tok.text.clone()).or_insert_with(|| FnSummary {
            file: file.to_string(),
            line: name_tok.line,
            ..FnSummary::default()
        });
        for (k, tk) in body.iter().enumerate() {
            if tk.kind != Kind::Ident {
                continue;
            }
            // Direct send marker: method-call form, like rule 1.
            if SEND_MARKERS.contains(&tk.text.as_str())
                && k >= 1
                && body[k - 1].is_punct('.')
                && body.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                entry.sends = true;
            }
            if is_blocking_call(body, k) {
                entry.blocks = true;
            }
            // Direct lock acquisition: `<field> . lock|read|write ( )`.
            if matches!(tk.text.as_str(), "lock" | "read" | "write")
                && k >= 2
                && body[k - 1].is_punct('.')
                && body[k - 2].kind == Kind::Ident
                && body.get(k + 1).is_some_and(|n| n.is_punct('('))
                && body.get(k + 2).is_some_and(|n| n.is_punct(')'))
            {
                entry.acquires.insert(body[k - 2].text.clone());
            }
            if is_resolvable_call(body, k) && !SEND_MARKERS.contains(&tk.text.as_str()) {
                entry.calls.insert(tk.text.clone());
            }
        }
        i = close + 1;
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file (workspace-relative when produced by
    /// [`lint_workspace`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Extracts the names of `enum`s declared in protocol source text.
pub fn protocol_enum_names(protocol_source: &str) -> Vec<String> {
    let toks = tokenize(protocol_source);
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("enum") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == Kind::Ident {
                    names.push(name.text.clone());
                }
            }
        }
    }
    names
}

/// Whether rule 2 (unwrap/expect) applies to this path.
fn in_request_path(file: &str) -> bool {
    let f = file.replace('\\', "/");
    f.contains("crates/core/src/proxy/")
        || f.contains("crates/server/src/")
        || f.contains("crates/rpc/src/")
}

/// Whether rule 4 (lock order) applies to this path.
fn in_lock_order_scope(file: &str) -> bool {
    file.replace('\\', "/").contains("crates/core/src/")
}

fn rank_of(lock: &str) -> Option<u32> {
    LOCK_ORDER.iter().find(|(n, _)| *n == lock).map(|&(_, r)| r)
}

/// Drops tokens belonging to `#[cfg(test)] mod … { … }` blocks.
fn strip_cfg_test(toks: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(']'));
        if !is_cfg_test {
            out.push(toks[i].clone());
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while j < toks.len() && toks[j].is_punct('#') {
            let mut depth = 0;
            j += 1; // consume '#'
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
            // Skip to the matching close brace of the module body.
            let mut depth = 0;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            i = j;
        } else {
            // `#[cfg(test)]` on a non-module item: drop the attribute
            // only; the item itself is still scanned.
            i = j;
        }
    }
    out
}

#[derive(Debug)]
struct Guard {
    name: String,
    lock: String,
    depth: i32,
    line: u32,
    /// Token index of the declaring statement's `;` — the guard is only
    /// live *after* it, so its own initializer is not checked against it.
    born: usize,
}

/// Lints one file's source text. `protocol_enums` comes from
/// [`protocol_enum_names`] on `crates/core/src/protocol.rs`. The call
/// graph for the interprocedural checks is built from this file alone;
/// [`lint_workspace`] resolves calls across the whole workspace.
pub fn lint_source(file: &str, source: &str, protocol_enums: &[String]) -> Vec<Diagnostic> {
    let graph = CallGraph::build(&[(file.to_string(), source.to_string())]);
    lint_source_with_graph(file, source, protocol_enums, &graph)
}

/// Lints one file against an externally built (typically
/// workspace-wide) call graph.
pub fn lint_source_with_graph(
    file: &str,
    source: &str,
    protocol_enums: &[String],
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    let toks = strip_cfg_test(tokenize(source));
    let mut diags = Vec::new();
    lint_guards_and_locks(file, &toks, graph, &mut diags);
    lint_protocol_matches(file, &toks, protocol_enums, &mut diags);
    lint_blocking(file, &toks, graph, &mut diags);
    diags
}

/// Rules 1, 2 and 4 share one walk with live-guard tracking.
fn lint_guards_and_locks(
    file: &str,
    toks: &[Token],
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    let request_path = in_request_path(file);
    let lock_scope = in_lock_order_scope(file);
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            guards.retain(|g| g.depth < depth);
            depth -= 1;
            continue;
        }
        if t.kind != Kind::Ident {
            continue;
        }

        // Acquisition event: `<field> . lock|read|write ( )`.
        let acquires = matches!(t.text.as_str(), "lock" | "read" | "write")
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == Kind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
        if acquires && lock_scope {
            let field = toks[i - 2].text.clone();
            for g in guards.iter().filter(|g| g.born < i) {
                match (rank_of(&g.lock), rank_of(&field)) {
                    (Some(held), Some(new)) if held < new => {}
                    (Some(_), Some(_)) => diags.push(Diagnostic {
                        file: file.into(),
                        line: t.line,
                        rule: "lock-order",
                        message: format!(
                            "acquiring `{field}` while guard `{}` holds `{}` (declared at line {}) \
                             violates the session → delegation → invalidation lock order",
                            g.name, g.lock, g.line
                        ),
                    }),
                    _ => diags.push(Diagnostic {
                        file: file.into(),
                        line: t.line,
                        rule: "lock-order",
                        message: format!(
                            "nested acquisition of `{field}` under `{}` but one of them is not in \
                             the declared lock-order table",
                            g.lock
                        ),
                    }),
                }
            }
        }

        // Send/callback marker (rule 1): method call on one of the
        // known wire entry points with a guard live.
        if SEND_MARKERS.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            for g in guards.iter().filter(|g| g.born < i) {
                diags.push(Diagnostic {
                    file: file.into(),
                    line: t.line,
                    rule: "guard-across-send",
                    message: format!(
                        "guard `{}` (lock `{}`, declared at line {}) is live across `.{}()`; \
                         release it (scoped block or drop) before the wire",
                        g.name, g.lock, g.line, t.text
                    ),
                });
            }
        }

        // Interprocedural forms of rules 1 and 4: a call to a workspace
        // fn whose chain reaches the wire, or whose transitive lock
        // acquisitions break the order, with a guard live. Names in
        // SEND_MARKERS are skipped here — the direct rule above already
        // owns them.
        if guards.iter().any(|g| g.born < i)
            && is_resolvable_call(toks, i)
            && !SEND_MARKERS.contains(&t.text.as_str())
        {
            let callee = t.text.as_str();
            if let Some(chain) = graph.send_chain(callee) {
                let path = chain.join(" -> ");
                for g in guards.iter().filter(|g| g.born < i) {
                    diags.push(Diagnostic {
                        file: file.into(),
                        line: t.line,
                        rule: "guard-across-send",
                        message: format!(
                            "guard `{}` (lock `{}`, declared at line {}) is live across \
                             `{callee}()`, which reaches the wire via `{path}`; release it \
                             before the call",
                            g.name, g.lock, g.line
                        ),
                    });
                }
            }
            if lock_scope {
                if let Some(locks) = graph.acquired_locks(callee) {
                    for (lock, via) in locks {
                        // Only ranked-vs-ranked pairs are judged here:
                        // callees elsewhere in the workspace may guard
                        // private state the core order does not rank.
                        for g in guards.iter().filter(|g| g.born < i) {
                            if let (Some(held), Some(new)) = (rank_of(&g.lock), rank_of(lock)) {
                                if held >= new {
                                    let hop = match via {
                                        Some(v) => format!("via `{v}`"),
                                        None => "directly".to_string(),
                                    };
                                    diags.push(Diagnostic {
                                        file: file.into(),
                                        line: t.line,
                                        rule: "lock-order",
                                        message: format!(
                                            "`{callee}()` acquires `{lock}` ({hop}) while guard \
                                             `{}` holds `{}` (declared at line {}); this violates \
                                             the session → delegation → invalidation lock order",
                                            g.name, g.lock, g.line
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // Rule 2: unwrap/expect in request-path crates.
        if request_path
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            diags.push(Diagnostic {
                file: file.into(),
                line: t.line,
                rule: "unwrap-in-request-path",
                message: format!(
                    "`.{}()` in a proxy/server/RPC request path; propagate the error instead",
                    t.text
                ),
            });
        }

        // Explicit `drop(guard)`.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2) {
                if let Some(pos) = guards.iter().rposition(|g| g.name == name.text) {
                    guards.remove(pos);
                }
            }
        }

        // Guard registration: `let [mut] NAME = <recv>.lock();` (or
        // `.read()`/`.write()`).
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j) else { continue };
            if name.kind != Kind::Ident || name.text == "_" {
                continue;
            }
            if !toks.get(j + 1).is_some_and(|n| n.is_punct('=')) {
                continue; // pattern or type-annotated binding: not tracked
            }
            let init = j + 2;
            if toks.get(init).is_some_and(|n| n.is_punct('*')) {
                continue; // `let v = *x.lock();` copies out; guard is temporary
            }
            // Find the terminating `;` of the statement.
            let (mut braces, mut parens, mut brackets) = (0i32, 0i32, 0i32);
            let mut end = None;
            for (k, tk) in toks.iter().enumerate().skip(init) {
                if tk.kind == Kind::Punct {
                    match tk.text.as_bytes()[0] {
                        b'{' => braces += 1,
                        b'}' => braces -= 1,
                        b'(' => parens += 1,
                        b')' => parens -= 1,
                        b'[' => brackets += 1,
                        b']' => brackets -= 1,
                        b';' if braces == 0 && parens == 0 && brackets == 0 => {
                            end = Some(k);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            let Some(end) = end else { continue };
            if end >= init + 5
                && toks[end - 1].is_punct(')')
                && toks[end - 2].is_punct('(')
                && matches!(toks[end - 3].text.as_str(), "lock" | "read" | "write")
                && toks[end - 3].kind == Kind::Ident
                && toks[end - 4].is_punct('.')
                && toks[end - 5].kind == Kind::Ident
            {
                // Shadowing at the same depth replaces the old guard.
                guards.retain(|g| !(g.name == name.text && g.depth == depth));
                guards.push(Guard {
                    name: name.text.clone(),
                    lock: toks[end - 5].text.clone(),
                    depth,
                    line: t.line,
                    born: end,
                });
            }
        }
    }
}

/// Rule 5: real-time / thread-blocking std calls in actor-scoped code
/// (`crates/core`), directly or through a workspace callee.
fn lint_blocking(file: &str, toks: &[Token], graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    if !in_lock_order_scope(file) {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        if is_blocking_call(toks, i) {
            let q = call_qualifier(toks, i).unwrap_or("std");
            diags.push(Diagnostic {
                file: file.into(),
                line: t.line,
                rule: "blocking-in-actor",
                message: format!(
                    "`{q}::{}()` in actor-scoped code blocks the simulation actor / reads the \
                     wall clock; use the netsim virtual clock (`gvfs_netsim::now` / \
                     `park_timeout`) instead",
                    t.text
                ),
            });
            continue;
        }
        if is_resolvable_call(toks, i) && !SEND_MARKERS.contains(&t.text.as_str()) {
            if let Some(chain) = graph.block_chain(&t.text) {
                // When the blocking terminus is itself actor-scoped the
                // direct form above already flags it at its own site;
                // only chains escaping the scope need a report here.
                let Some(terminal) = chain.last() else { continue };
                let terminal_in_scope =
                    graph.fns.get(terminal).is_some_and(|s| in_lock_order_scope(&s.file));
                if !terminal_in_scope {
                    let path = chain.join(" -> ");
                    diags.push(Diagnostic {
                        file: file.into(),
                        line: t.line,
                        rule: "blocking-in-actor",
                        message: format!(
                            "`{}()` reaches a real-time/blocking std call via `{path}`; \
                             actor-scoped code must stay on the virtual clock",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 4's table is load-bearing, so it is drift-checked against the
/// sources both ways: a [`LOCK_ORDER`] entry naming a lock no longer
/// acquired anywhere in `crates/core`, or an acquisition receiver there
/// that the table does not rank, fails the analysis.
pub fn lint_lock_order_drift(sources: &[(String, String)], diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for (file, src) in sources {
        if !in_lock_order_scope(file) {
            continue;
        }
        let toks = strip_cfg_test(tokenize(src));
        for (i, t) in toks.iter().enumerate() {
            if matches!(t.text.as_str(), "lock" | "read" | "write")
                && t.kind == Kind::Ident
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks[i - 2].kind == Kind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
            {
                seen.entry(toks[i - 2].text.clone()).or_insert_with(|| (file.clone(), t.line));
            }
        }
    }
    for (lock, _) in LOCK_ORDER {
        if !seen.contains_key(*lock) {
            diags.push(Diagnostic {
                file: "crates/analysis/src/lint.rs".into(),
                line: 1,
                rule: "lock-order-drift",
                message: format!(
                    "LOCK_ORDER ranks `{lock}` but nothing in crates/core acquires it; remove \
                     the stale entry"
                ),
            });
        }
    }
    for (recv, (file, line)) in &seen {
        if rank_of(recv).is_none() {
            diags.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: "lock-order-drift",
                message: format!(
                    "`{recv}` is acquired in crates/core but has no rank in LOCK_ORDER; add it \
                     to the table so nesting against it is checked"
                ),
            });
        }
    }
}

/// Rule 3: a `match` whose *patterns* reference a protocol enum must
/// not have a top-level `_` arm.
fn lint_protocol_matches(
    file: &str,
    toks: &[Token],
    protocol_enums: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    if protocol_enums.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if !toks[i].is_ident("match") || (i > 0 && toks[i - 1].is_punct('.')) {
            continue;
        }
        // Find the body `{` (scrutinees cannot contain bare braces).
        let (mut parens, mut brackets) = (0i32, 0i32);
        let mut body = None;
        for (k, tk) in toks.iter().enumerate().skip(i + 1) {
            if tk.kind == Kind::Punct {
                match tk.text.as_bytes()[0] {
                    b'(' => parens += 1,
                    b')' => parens -= 1,
                    b'[' => brackets += 1,
                    b']' => brackets -= 1,
                    b'{' if parens == 0 && brackets == 0 => {
                        body = Some(k);
                        break;
                    }
                    b';' if parens == 0 && brackets == 0 => break, // not a match expr
                    _ => {}
                }
            }
        }
        let Some(body) = body else { continue };
        let (mut braces, mut parens, mut brackets) = (0i32, 0i32, 0i32);
        let mut in_pattern = true;
        let mut refs_protocol_enum = false;
        let mut wildcard: Option<u32> = None;
        let mut k = body + 1;
        while k < toks.len() {
            let tk = &toks[k];
            let level = braces == 0 && parens == 0 && brackets == 0;
            if tk.kind == Kind::Punct {
                match tk.text.as_bytes()[0] {
                    b'{' => braces += 1,
                    b'}' => {
                        if braces == 0 {
                            break; // end of the match body
                        }
                        braces -= 1;
                        if braces == 0 && parens == 0 && brackets == 0 {
                            in_pattern = true; // block-bodied arm ended
                        }
                    }
                    b'(' => parens += 1,
                    b')' => parens -= 1,
                    b'[' => brackets += 1,
                    b']' => brackets -= 1,
                    b',' if level => in_pattern = true,
                    b'=' if level && toks.get(k + 1).is_some_and(|n| n.is_punct('>')) => {
                        in_pattern = false;
                        k += 1;
                    }
                    _ => {}
                }
            } else if tk.kind == Kind::Ident && in_pattern {
                if tk.text == "_"
                    && level
                    && toks.get(k + 1).is_some_and(|n| n.is_punct('='))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct('>'))
                {
                    wildcard = Some(tk.line);
                } else if protocol_enums.contains(&tk.text)
                    && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                {
                    refs_protocol_enum = true;
                }
            }
            k += 1;
        }
        if refs_protocol_enum {
            if let Some(line) = wildcard {
                diags.push(Diagnostic {
                    file: file.into(),
                    line,
                    rule: "protocol-match-exhaustive",
                    message: "`_` arm in a match over a protocol enum; name every variant so new \
                              protocol states fail to compile here"
                        .into(),
                });
            }
        }
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every `crates/*/src/**/*.rs` file under `root` (the workspace
/// root). Vendored stand-ins under `vendor/` are never scanned.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let protocol_path = root.join("crates/core/src/protocol.rs");
    let protocol_src = std::fs::read_to_string(&protocol_path)
        .map_err(|e| format!("cannot read {}: {e}", protocol_path.display()))?;
    let enums = protocol_enum_names(&protocol_src);
    if enums.is_empty() {
        return Err(format!("no protocol enums found in {}", protocol_path.display()));
    }

    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Err(format!("cannot read {}", crates_dir.display()));
    };
    let mut crate_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for c in crate_dirs {
        collect_rs(&c.join("src"), &mut files);
    }
    if files.is_empty() {
        return Err(format!("no sources found under {}", crates_dir.display()));
    }

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(path).display().to_string();
        sources.push((rel, source));
    }

    // One call graph per crate, so the interprocedural checks follow
    // helpers across module boundaries. Resolution is deliberately NOT
    // cross-crate: callee names are matched textually, and the
    // workspace carries whole sibling stacks (the legacy NFS client,
    // the AFS baseline) whose homonyms (`lookup`, `getattr`, `now`, …)
    // would otherwise poison every chain. Cross-crate wire entry
    // points are covered by name via [`SEND_MARKERS`] instead.
    let mut by_crate: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for (rel, source) in sources.iter().cloned() {
        by_crate.entry(crate_of(&rel)).or_default().push((rel, source));
    }
    let mut diags = Vec::new();
    for crate_sources in by_crate.values() {
        let graph = CallGraph::build(crate_sources);
        for (rel, source) in crate_sources {
            diags.extend(lint_source_with_graph(rel, source, &enums, &graph));
        }
    }
    lint_lock_order_drift(&sources, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(diags)
}

/// The `crates/<name>` prefix of a workspace-relative path (the whole
/// path when it has none), used to scope call-graph resolution.
fn crate_of(rel: &str) -> String {
    let norm = rel.replace('\\', "/");
    let mut parts = norm.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => norm,
    }
}
