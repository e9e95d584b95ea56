//! Chaos soak: runs the seeded fault-injection scenarios over a seed
//! matrix, replaying every seed twice to prove determinism, shrinking
//! any violation to a minimal reproducer, and writing
//! `results/chaos_violations.json` for CI artifact upload. The JSON
//! also keys every run's trace hash by `<scenario>-seed<N>`, so a
//! committed copy pins the traces byte for byte.
//!
//! Run: `cargo run --release -p gvfs-bench --bin chaos_soak --
//!       [--seeds N] [--start S] [--model all|passthrough|polling|delegation]
//!       [--break-recall] [--break-peerread] [--break-scrub]
//!       [--trace-dir DIR]`
//!
//! `--trace-dir DIR` writes each run's protocol-event trace to
//! `DIR/<model>-seed<N>.jsonl` for `gvfs-analysis -- replay` conformance
//! checking; the traces also join the determinism comparison.
//!
//! `--break-recall` is the harness self-test: it re-runs the matrix with
//! delegation recalls suppressed and **fails unless** the oracles catch
//! the breakage and the shrinker produces a reproducer — a chaos harness
//! that cannot see a broken protocol is worse than none.
//! `--break-peerread` is the same idea for the peer mesh: it re-runs the
//! peer-partition scenario with de-advertisement suppressed and the
//! serving peer answering from raw (condemned) store bytes, and fails
//! unless the oracle convicts the stale read on at least one seed.
//! `--break-scrub` is the same idea for store integrity: it re-runs the
//! disk-corruption scenario with verify-on-read disabled, so the store
//! serves rotted bytes, and fails unless the oracle convicts at least
//! 7 in 8 seeds (the rot is planted deterministically, so conviction
//! should be near-universal).
//!
//! Exit codes: 0 clean, 1 violations or a determinism break, 2 a
//! `--break-*` self-test found the harness toothless.

use gvfs_bench::save_json;
use gvfs_integration::chaos::{
    format_reproducer, run_crash_restart, run_disk_corruption, run_partition_heal,
    run_peer_partition, run_scenario, shrink_failure, ChaosReport, ModelKind, ScenarioConfig,
    Shrunk,
};
use serde_json::{json, Value};

struct Args {
    seeds: u64,
    start: u64,
    models: Vec<ModelKind>,
    break_recall: bool,
    break_peerread: bool,
    break_scrub: bool,
    trace_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut out = Args {
        seeds: 8,
        start: 1,
        models: ModelKind::ALL.to_vec(),
        break_recall: false,
        break_peerread: false,
        break_scrub: false,
        trace_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = argv.next().expect("--seeds needs a count");
                out.seeds = v.parse().expect("--seeds takes a number");
            }
            "--start" => {
                let v = argv.next().expect("--start needs a seed");
                out.start = v.parse().expect("--start takes a number");
            }
            "--model" => {
                let v = argv.next().expect("--model needs a name");
                out.models =
                    match v.as_str() {
                        "all" => ModelKind::ALL.to_vec(),
                        name => vec![ModelKind::parse(name)
                            .unwrap_or_else(|| panic!("unknown model {name:?}"))],
                    };
            }
            "--break-recall" => out.break_recall = true,
            "--break-peerread" => out.break_peerread = true,
            "--break-scrub" => out.break_scrub = true,
            "--trace-dir" => {
                let v = argv.next().expect("--trace-dir needs a directory");
                out.trace_dir = Some(std::path::PathBuf::from(v));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    out
}

fn write_trace(dir: &std::path::Path, name: &str, seed: u64, trace: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        panic!("cannot create trace dir {}: {e}", dir.display());
    }
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    if let Err(e) = std::fs::write(&path, trace) {
        panic!("cannot write trace {}: {e}", path.display());
    }
}

/// What the soak counts across every scenario.
#[derive(Default)]
struct Tally {
    runs: u64,
    determinism_breaks: u64,
    violations: Vec<Value>,
    /// `(<scenario>-seed<N>, trace hash)` in run order.
    traces: Vec<(String, Value)>,
}

/// One row of the soak matrix: a randomized model or a scripted
/// scenario.
#[derive(Clone, Copy)]
enum Scenario {
    Model(ModelKind),
    PartitionHeal,
    CrashRestart,
    PeerPartition,
    DiskCorruption,
}

impl Scenario {
    /// The `<scenario>` of trace keys, trace files and the JSON `model`.
    fn name(self) -> &'static str {
        match self {
            Scenario::Model(model) => model.name(),
            Scenario::PartitionHeal => "partition-heal",
            Scenario::CrashRestart => "crash-restart",
            Scenario::PeerPartition => "peer-partition",
            Scenario::DiskCorruption => "disk-corruption",
        }
    }

    /// Runs `seed`; `broken` turns on the scenario's self-test knob
    /// (partition-heal and crash-restart have none).
    fn run(self, seed: u64, broken: bool) -> ChaosReport {
        match self {
            Scenario::Model(model) => {
                let mut cfg = ScenarioConfig::new(seed, model);
                cfg.suppress_recalls = broken;
                run_scenario(&cfg)
            }
            Scenario::PartitionHeal => run_partition_heal(seed),
            Scenario::CrashRestart => run_crash_restart(seed),
            Scenario::PeerPartition => run_peer_partition(seed, broken),
            Scenario::DiskCorruption => run_disk_corruption(seed, broken),
        }
    }

    /// The counters the `ok` line reports.
    fn summary(self, r: &ChaosReport) -> String {
        let s = &r.stats;
        match self {
            Scenario::Model(_) => format!("fault events {}", r.events.len()),
            Scenario::PartitionHeal => {
                format!("trips {}, degraded reads {}", r.breaker_trips, s.degraded_reads)
            }
            Scenario::CrashRestart => format!("warm blocks {}", s.restart_warm_blocks),
            Scenario::PeerPartition => {
                format!("peer hits {}, fallbacks {}", s.peer_hits, s.peer_fallbacks)
            }
            Scenario::DiskCorruption => format!(
                "rotted {}, quarantined {}, scrub repairs {}",
                r.extras.corrupted_paths, s.quarantined_blocks, s.scrub_repairs
            ),
        }
    }

    /// Shrinks a violating randomized run (made with the self-test knob
    /// `broken`) to a minimal reproducer; the scripted scenarios are
    /// already minimal.
    fn shrink(self, r: &ChaosReport, broken: bool) -> Option<Shrunk> {
        let Scenario::Model(model) = self else { return None };
        let mut cfg = ScenarioConfig::new(r.seed, model);
        cfg.suppress_recalls = broken;
        shrink_failure(&cfg, &r.events)
    }
}

/// Runs `scenario` twice per seed: writes the first run's trace,
/// requires both runs to agree on hash, history, verdict and trace, and
/// files every violating seed (shrunk, where it can be).
fn soak(args: &Args, tally: &mut Tally, scenario: Scenario) {
    let name = scenario.name();
    for seed in args.start..args.start + args.seeds {
        let a = scenario.run(seed, false);
        let b = scenario.run(seed, false);
        tally.runs += 2;
        tally.traces.push((format!("{name}-seed{seed}"), format!("{:#x}", a.trace_hash).into()));
        if let Some(dir) = &args.trace_dir {
            write_trace(dir, name, seed, &a.protocol_trace);
        }
        if a.trace_hash != b.trace_hash
            || a.history != b.history
            || a.violations != b.violations
            || a.protocol_trace != b.protocol_trace
        {
            tally.determinism_breaks += 1;
            println!(
                "DETERMINISM BREAK: {name} seed={seed} hashes {:#x} vs {:#x}",
                a.trace_hash, b.trace_hash
            );
            continue;
        }
        if a.violations.is_empty() {
            println!("seed={seed} {name} ok ({}, trace {:#x})", scenario.summary(&a), a.trace_hash);
            continue;
        }
        println!("seed={seed} {name}: {} violation(s)", a.violations.len());
        let shrunk = scenario.shrink(&a, false);
        let reproducer = shrunk.as_ref().map(format_reproducer);
        if let Some(repro) = &reproducer {
            println!("{repro}");
        }
        let mut entry = json!({
            "seed": seed,
            "model": name,
            "suppress_recalls": false,
            "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            "shrunk_events": shrunk
                .as_ref()
                .map(|s| s.events.iter().map(|e| e.to_string()).collect::<Vec<_>>()),
            "reproducer": reproducer,
        });
        // A disk-corruption entry carries its integrity counters after
        // `suppress_recalls`, where readers of the JSON find them.
        if let (Scenario::DiskCorruption, Value::Object(fields)) = (scenario, &mut entry) {
            let s = &a.stats;
            let report = json!({
                "corrupted_paths": a.extras.corrupted_paths,
                "integrity_failures": s.integrity_failures,
                "quarantined_blocks": s.quarantined_blocks,
                "refetch_repairs": s.refetch_repairs,
                "scrub_repairs": s.scrub_repairs,
                "integrity_dirty_loss": s.integrity_dirty_loss,
            });
            fields.insert(3, ("quarantine_report".to_string(), report));
        }
        tally.violations.push(entry);
    }
}

/// Runs `scenario` with its self-test knob on over every seed and
/// returns whether the harness convicted at least `need` seeds — and,
/// for a randomized model, shrank the first conviction to a reproducer.
fn self_test(args: &Args, tally: &mut Tally, flag: &str, scenario: Scenario, need: u64) -> bool {
    let mut caught = 0u64;
    let mut reproduced = !matches!(scenario, Scenario::Model(_));
    for seed in args.start..args.start + args.seeds {
        let report = scenario.run(seed, true);
        tally.runs += 1;
        if report.violations.is_empty() {
            println!("self-test {flag}: seed={seed} UNCONVICTED");
            continue;
        }
        caught += 1;
        if caught == 1 {
            println!("self-test {flag}: convicted at seed={seed}: {}", report.violations[0]);
            if let Some(s) = scenario.shrink(&report, true) {
                reproduced = true;
                println!("{}", format_reproducer(&s));
            }
        }
    }
    let passed = caught >= need && reproduced;
    if passed {
        println!("self-test {flag} passed: convicted on {caught}/{} seeds", args.seeds);
    } else {
        println!(
            "SELF-TEST FAILED: {flag} convicted on {caught}/{} seeds (need {need}), \
             reproducer: {reproduced} — the harness has lost its teeth",
            args.seeds
        );
    }
    passed
}

fn main() {
    let args = parse_args();
    let mut tally = Tally::default();

    // The scripted scenarios ride alongside the random matrix whenever
    // delegation is in scope:
    // - partition-heal: a 35 s partition must trip the breaker, the
    //   ladder must serve bounded-staleness reads, and the heal must
    //   re-promote without losing an acknowledged write;
    // - crash-restart: a mid-write-back machine crash on a persistent
    //   block store must recover exactly the synced prefix — the torn
    //   WAL tail discarded, the surviving dirty data reconciled, and no
    //   reader ever served a torn or never-synced block from disk;
    // - peer-partition: a serving peer is cut off mid-PEERREAD (the read
    //   must complete via origin fallback, never torn or stale), and a
    //   later write must condemn every advertised peer copy before the
    //   verify-phase mesh reads;
    // - disk-corruption: silent media rot on a client's persistent store
    //   must be quarantined by verify-on-read and repaired by the
    //   background scrubber — no reader may ever observe a
    //   checksum-failed block.
    let mut scenarios: Vec<Scenario> = args.models.iter().map(|&m| Scenario::Model(m)).collect();
    if args.models.contains(&ModelKind::Delegation) {
        scenarios.extend([
            Scenario::PartitionHeal,
            Scenario::CrashRestart,
            Scenario::PeerPartition,
            Scenario::DiskCorruption,
        ]);
    }
    for scenario in scenarios {
        soak(&args, &mut tally, scenario);
    }

    // Self-tests, each with its own verdict:
    // - --break-recall: with recalls suppressed the oracles must fire on
    //   at least one seed, and the shrinker must produce a reproducer;
    // - --break-peerread: with de-advertisement suppressed and the
    //   serving peer answering from condemned store bytes, the
    //   peer-partition oracle must convict at least one seed;
    // - --break-scrub: with verify-on-read disabled the store serves
    //   rotted bytes, and the disk-corruption oracle must convict 7 in
    //   8 seeds — the rot is planted deterministically, so anything
    //   less means the integrity machinery has a blind spot.
    let self_tests = [
        ("--break-recall", args.break_recall, Scenario::Model(ModelKind::Delegation), 1),
        ("--break-peerread", args.break_peerread, Scenario::PeerPartition, 1),
        ("--break-scrub", args.break_scrub, Scenario::DiskCorruption, (args.seeds * 7).div_ceil(8)),
    ];
    let verdicts: Vec<Option<bool>> = self_tests
        .into_iter()
        .map(|(flag, on, scenario, need)| {
            on.then(|| self_test(&args, &mut tally, flag, scenario, need))
        })
        .collect();

    save_json(
        "chaos_violations.json",
        &json!({
            "runs": tally.runs,
            "seed_start": args.start,
            "seeds": args.seeds,
            "models": args.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "determinism_breaks": tally.determinism_breaks,
            "break_recall_selftest": verdicts[0],
            "break_peerread_selftest": verdicts[1],
            "break_scrub_selftest": verdicts[2],
            "violations": tally.violations.clone(),
            "traces": Value::Object(tally.traces),
        }),
    );

    if verdicts.contains(&Some(false)) {
        std::process::exit(2);
    }
    if tally.determinism_breaks > 0 || !tally.violations.is_empty() {
        std::process::exit(1);
    }
    println!("chaos soak clean: {} runs, no violations, no determinism breaks", tally.runs);
}
