//! Proves the analysis pass actually detects what it claims to detect:
//! each lint rule is fed a minimal fixture containing a seeded
//! violation (and a clean twin), and the model checkers are run to
//! confirm they really explore and hold on the shipped implementation.

use gvfs_analysis::lint::{
    lint_lock_order_drift, lint_source, lint_source_with_graph, lint_workspace, CallGraph,
    Diagnostic, LOCK_ORDER,
};
use gvfs_analysis::model::{self, ModelReport};
use gvfs_analysis::product;
use std::path::Path;

const PROTOCOL_ENUMS: &[&str] = &["DelegationGrant", "SessionOp"];

fn lint(file: &str, src: &str) -> Vec<Diagnostic> {
    let enums: Vec<String> = PROTOCOL_ENUMS.iter().map(|s| s.to_string()).collect();
    lint_source(file, src, &enums)
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn detects_guard_across_send() {
    let src = r#"
        fn recall(&self) {
            let st = self.state.lock();
            self.transport.call(proc, args);
        }
    "#;
    let diags = lint("crates/core/src/proxy/server.rs", src);
    assert_eq!(rules(&diags), ["guard-across-send"], "{diags:?}");
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("`st`"));
}

#[test]
fn guard_released_by_scope_or_drop_is_clean() {
    let src = r#"
        fn recall(&self) {
            let actions = {
                let st = self.state.lock();
                st.deleg.access(fh)
            };
            self.transport.call(proc, actions);
            let st2 = self.state.lock();
            drop(st2);
            self.transport.call(proc, args);
        }
    "#;
    let diags = lint("crates/core/src/proxy/server.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn detects_lock_order_inversion() {
    // `state` (rank 2) is held while `disk` (rank 1) is acquired.
    let src = r#"
        fn op(&self) {
            let st = self.state.lock();
            let d = self.disk.lock();
        }
    "#;
    let diags = lint("crates/core/src/proxy/client.rs", src);
    assert_eq!(rules(&diags), ["lock-order"], "{diags:?}");
    assert_eq!(diags[0].line, 4);

    // The declared order (disk before state) is clean.
    let ok = r#"
        fn op(&self) {
            let d = self.disk.lock();
            let st = self.state.lock();
        }
    "#;
    assert!(lint("crates/core/src/proxy/client.rs", ok).is_empty());
}

#[test]
fn detects_unknown_lock_in_nesting() {
    let src = r#"
        fn op(&self) {
            let st = self.state.lock();
            let x = self.mystery.lock();
        }
    "#;
    let diags = lint("crates/core/src/proxy/client.rs", src);
    assert_eq!(rules(&diags), ["lock-order"], "{diags:?}");
    assert!(diags[0].message.contains("not in the declared lock-order table"), "{diags:?}");
}

#[test]
fn detects_unwrap_in_request_path() {
    let src = r#"
        fn handle(&self) {
            let v = decode(bytes).unwrap();
            let w = decode(bytes).expect("fine");
        }
    "#;
    let diags = lint("crates/rpc/src/x.rs", src);
    assert_eq!(rules(&diags), ["unwrap-in-request-path", "unwrap-in-request-path"]);

    // Same text outside the request-path crates is not flagged.
    assert!(lint("crates/workloads/src/x.rs", src).is_empty());

    // ... and inside a #[cfg(test)] module it is exempt.
    let test_mod = r#"
        #[cfg(test)]
        mod tests {
            fn check() { decode(bytes).unwrap(); }
        }
    "#;
    assert!(lint("crates/rpc/src/x.rs", test_mod).is_empty());
}

#[test]
fn detects_wildcard_match_on_protocol_enum() {
    let src = r#"
        fn grant_name(g: DelegationGrant) -> u32 {
            match g {
                DelegationGrant::Write => 2,
                _ => 0,
            }
        }
    "#;
    let diags = lint("crates/client/src/cache.rs", src);
    assert_eq!(rules(&diags), ["protocol-match-exhaustive"], "{diags:?}");
    assert_eq!(diags[0].line, 5);
}

#[test]
fn exhaustive_protocol_match_is_clean() {
    let src = r#"
        fn grant_name(g: DelegationGrant) -> u32 {
            match g {
                DelegationGrant::None => 0,
                DelegationGrant::Read => 1,
                DelegationGrant::Write => 2,
                DelegationGrant::NonCacheable => 3,
            }
        }
    "#;
    assert!(lint("crates/client/src/cache.rs", src).is_empty());
}

#[test]
fn wildcard_on_non_protocol_match_is_clean() {
    // The enum reference is in an arm *body*, not a pattern: this match
    // is over something else entirely and may use `_` freely.
    let src = r#"
        fn pick(n: u32) -> DelegationGrant {
            match n {
                2 => DelegationGrant::Write,
                _ => DelegationGrant::None,
            }
        }
    "#;
    assert!(lint("crates/client/src/cache.rs", src).is_empty());
}

#[test]
fn detects_guard_across_send_through_helper() {
    // The helper is not a send-marker name, so the purely textual scan
    // missed this; the call graph follows it to the wire.
    let src = r#"
        fn issue_recall(&self) {
            let st = self.state.lock();
            self.notify_holder(st.fh);
        }
        fn notify_holder(&self, fh: Fh3) {
            self.transport.call(RECALL, fh);
        }
    "#;
    let diags = lint("crates/core/src/proxy/server.rs", src);
    assert_eq!(rules(&diags), ["guard-across-send"], "{diags:?}");
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("via `notify_holder`"), "{diags:?}");

    // Releasing the guard before the helper call is clean.
    let ok = r#"
        fn issue_recall(&self) {
            let fh = { let st = self.state.lock(); st.fh };
            self.notify_holder(fh);
        }
        fn notify_holder(&self, fh: Fh3) {
            self.transport.call(RECALL, fh);
        }
    "#;
    assert!(lint("crates/core/src/proxy/server.rs", ok).is_empty());
}

#[test]
fn interprocedural_send_followed_across_files() {
    let caller = r#"
        fn issue_recall(&self) {
            let st = self.state.lock();
            notify(self, st.fh);
        }
    "#;
    let helper = r#"
        fn notify(c: &Proxy, fh: Fh3) {
            deeper(c, fh);
        }
        fn deeper(c: &Proxy, fh: Fh3) {
            c.transport.call(RECALL, fh);
        }
    "#;
    let sources = vec![
        ("crates/core/src/proxy/server.rs".to_string(), caller.to_string()),
        ("crates/core/src/proxy/notify.rs".to_string(), helper.to_string()),
    ];
    let graph = CallGraph::build(&sources);
    let enums: Vec<String> = PROTOCOL_ENUMS.iter().map(|s| s.to_string()).collect();
    let diags = lint_source_with_graph("crates/core/src/proxy/server.rs", caller, &enums, &graph);
    assert_eq!(rules(&diags), ["guard-across-send"], "{diags:?}");
    assert!(diags[0].message.contains("notify -> deeper"), "{diags:?}");
}

#[test]
fn detects_lock_order_inversion_through_helper() {
    let src = r#"
        fn op(&self) {
            let st = self.state.lock();
            self.read_disk(st.fh);
        }
        fn read_disk(&self, fh: Fh3) {
            let d = self.disk.lock();
            d.len();
        }
    "#;
    let diags = lint("crates/core/src/proxy/client.rs", src);
    assert_eq!(rules(&diags), ["lock-order"], "{diags:?}");
    assert!(diags[0].message.contains("`read_disk()` acquires `disk`"), "{diags:?}");
}

#[test]
fn detects_blocking_call_in_actor_scope() {
    let src = r#"
        fn backoff(&self) {
            std::thread::sleep(Duration::from_millis(50));
        }
    "#;
    let diags = lint("crates/core/src/proxy/client.rs", src);
    assert_eq!(rules(&diags), ["blocking-in-actor"], "{diags:?}");

    // The same text outside actor scope is fine, and the netsim
    // virtual-clock equivalents are exempt inside it.
    assert!(lint("crates/bench/src/soak.rs", src).is_empty());
    let virt = r#"
        fn backoff(&self) {
            gvfs_netsim::park_timeout(gvfs_netsim::now() + 50);
        }
    "#;
    assert!(lint("crates/core/src/proxy/client.rs", virt).is_empty());
}

#[test]
fn detects_blocking_call_through_out_of_scope_helper() {
    // The blocking terminus lives outside crates/core, so the direct
    // form never fires there; only the chain report can catch it.
    let caller = r#"
        fn tick(&self) {
            real_sleep(50);
        }
    "#;
    let helper = r#"
        fn real_sleep(ms: u64) {
            thread::sleep(Duration::from_millis(ms));
        }
    "#;
    let sources = vec![
        ("crates/core/src/proxy/client.rs".to_string(), caller.to_string()),
        ("crates/rpc/src/transport.rs".to_string(), helper.to_string()),
    ];
    let graph = CallGraph::build(&sources);
    let enums: Vec<String> = PROTOCOL_ENUMS.iter().map(|s| s.to_string()).collect();
    let diags = lint_source_with_graph("crates/core/src/proxy/client.rs", caller, &enums, &graph);
    assert_eq!(rules(&diags), ["blocking-in-actor"], "{diags:?}");
    assert!(diags[0].message.contains("real_sleep"), "{diags:?}");
    // The helper's own crate is not actor-scoped: no diagnostic there.
    assert!(
        lint_source_with_graph("crates/rpc/src/transport.rs", helper, &enums, &graph).is_empty()
    );
}

#[test]
fn lock_order_drift_flags_both_directions() {
    // Sources acquiring every ranked lock: the table is in sync.
    let all: String = LOCK_ORDER
        .iter()
        .map(|(name, _)| format!("fn f_{name}(&self) {{ let g = self.{name}.lock(); }}\n"))
        .collect();
    let mut diags = Vec::new();
    lint_lock_order_drift(&[("crates/core/src/all.rs".into(), all.clone())], &mut diags);
    assert!(diags.is_empty(), "{diags:?}");

    // A receiver the table does not rank.
    let mut diags = Vec::new();
    let extra = format!("{all}fn g(&self) {{ let m = self.mystery.lock(); }}\n");
    lint_lock_order_drift(&[("crates/core/src/all.rs".into(), extra)], &mut diags);
    assert_eq!(rules(&diags), ["lock-order-drift"], "{diags:?}");
    assert!(diags[0].message.contains("`mystery`"), "{diags:?}");

    // A table entry nothing acquires any more (drop the last lock's fn).
    let (stale, _) = LOCK_ORDER.last().expect("table is non-empty");
    let missing: String = LOCK_ORDER
        .iter()
        .filter(|(name, _)| name != stale)
        .map(|(name, _)| format!("fn f_{name}(&self) {{ let g = self.{name}.lock(); }}\n"))
        .collect();
    let mut diags = Vec::new();
    lint_lock_order_drift(&[("crates/core/src/all.rs".into(), missing)], &mut diags);
    assert_eq!(rules(&diags), ["lock-order-drift"], "{diags:?}");
    assert!(diags[0].message.contains(stale), "{diags:?}");

    // Acquisitions outside crates/core never count towards the table.
    let mut diags = Vec::new();
    lint_lock_order_drift(&[("crates/bench/src/all.rs".into(), all)], &mut diags);
    assert_eq!(diags.len(), LOCK_ORDER.len(), "{diags:?}");
}

#[test]
fn golden_fixtures_trip_exactly_their_rule() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 7, "expected one known-bad fixture per rule, got {entries:?}");
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let mut lines = src.lines();
        let expect = lines
            .next()
            .and_then(|l| l.strip_prefix("// expect: "))
            .unwrap_or_else(|| panic!("{path:?} missing `// expect:` header"))
            .trim();
        let as_path = lines
            .next()
            .and_then(|l| l.strip_prefix("// as: "))
            .unwrap_or_else(|| panic!("{path:?} missing `// as:` header"))
            .trim();
        let diags = lint(as_path, &src);
        assert!(!diags.is_empty(), "{path:?}: known-bad fixture produced no diagnostics");
        for d in &diags {
            assert_eq!(d.rule, expect, "{path:?}: unexpected rule in {diags:?}");
        }
    }
}

#[test]
fn shipped_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("workspace lints");
    assert!(diags.is_empty(), "{diags:#?}");
}

/// Asserts a machine explores exactly the pinned state space and holds:
/// a changed count means the exploration itself changed, which must be
/// deliberate.
fn assert_explores(report: ModelReport, states: usize, transitions: usize) {
    assert!(report.violations.is_empty(), "{}: {:#?}", report.machine, report.violations);
    assert_eq!(
        (report.states, report.transitions),
        (states, transitions),
        "{}: (states, transitions) drifted",
        report.machine
    );
}

#[test]
fn delegation_model_explores_and_holds() {
    assert_explores(model::check_delegation(), 4_773, 29_061);
}

#[test]
fn invalidation_model_explores_and_holds() {
    assert_explores(model::check_invalidation(), 9_671, 26_063);
}

#[test]
fn breaker_model_explores_and_holds() {
    assert_explores(model::check_breaker(), 8, 295_245);
}

#[test]
fn fanout_model_explores_and_holds() {
    assert_explores(model::check_fanout(), 3_850, 11_644);
}

#[test]
fn product_model_explores_and_holds() {
    assert_explores(product::check_product(), 72_014, 132_797);
}
