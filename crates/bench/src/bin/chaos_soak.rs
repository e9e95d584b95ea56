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
    format_reproducer, generate_events, run_crash_restart, run_disk_corruption, run_partition_heal,
    run_peer_partition, run_scenario, shrink_failure, Event, ModelKind, ScenarioConfig, Violation,
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

/// A scripted scenario's report, reduced to what the soak compares
/// across the two runs of a seed, prints and files.
struct Scripted {
    trace_hash: u64,
    history: Vec<Event>,
    protocol_trace: String,
    violations: Vec<Violation>,
    /// The counters the `ok` line reports.
    summary: String,
    /// Counters filed with a violation, ahead of the violations.
    quarantine_report: Option<Value>,
}

impl Scripted {
    fn new(
        trace_hash: u64,
        history: Vec<Event>,
        protocol_trace: String,
        violations: Vec<Violation>,
        summary: String,
    ) -> Self {
        Scripted {
            trace_hash,
            history,
            protocol_trace,
            violations,
            summary,
            quarantine_report: None,
        }
    }
}

/// Runs the scripted scenario `name` twice per seed: writes the first
/// run's trace, requires both runs to agree on hash, history and trace,
/// and files every violating seed.
fn soak_scripted(args: &Args, tally: &mut Tally, name: &str, run: fn(u64) -> Scripted) {
    for seed in args.start..args.start + args.seeds {
        let a = run(seed);
        let b = run(seed);
        tally.runs += 2;
        tally.traces.push((format!("{name}-seed{seed}"), format!("{:#x}", a.trace_hash).into()));
        if let Some(dir) = &args.trace_dir {
            write_trace(dir, name, seed, &a.protocol_trace);
        }
        if a.trace_hash != b.trace_hash
            || a.history != b.history
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
            println!("seed={seed} {name} ok ({}, trace {:#x})", a.summary, a.trace_hash);
            continue;
        }
        println!("seed={seed} {name}: {} violation(s)", a.violations.len());
        let mut entry = json!({
            "seed": seed,
            "model": name,
            "suppress_recalls": false,
            "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            "shrunk_events": Option::<Vec<String>>::None,
            "reproducer": Option::<String>::None,
        });
        // The report goes after `suppress_recalls`, where readers of the
        // JSON have always found it.
        if let (Some(report), Value::Object(fields)) = (a.quarantine_report, &mut entry) {
            fields.insert(3, ("quarantine_report".to_string(), report));
        }
        tally.violations.push(entry);
    }
}

fn main() {
    let args = parse_args();
    let mut tally = Tally::default();

    for &model in &args.models {
        for seed in args.start..args.start + args.seeds {
            let cfg = ScenarioConfig::new(seed, model);
            let a = run_scenario(&cfg);
            let b = run_scenario(&cfg);
            tally.runs += 2;
            let key = format!("{}-seed{seed}", model.name());
            tally.traces.push((key, format!("{:#x}", a.trace_hash).into()));
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, model.name(), seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.violations != b.violations
                || a.protocol_trace != b.protocol_trace
            {
                tally.determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: seed={seed} model={} hashes {:#x} vs {:#x}",
                    model.name(),
                    a.trace_hash,
                    b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!("seed={seed} model={} ok (trace {:#x})", model.name(), a.trace_hash);
                continue;
            }
            println!(
                "seed={seed} model={}: {} violation(s), shrinking...",
                model.name(),
                a.violations.len()
            );
            let events = generate_events(seed, cfg.clients);
            let shrunk = shrink_failure(&cfg, &events);
            let reproducer = shrunk.as_ref().map(format_reproducer);
            if let Some(repro) = &reproducer {
                println!("{repro}");
            }
            tally.violations.push(json!({
                "seed": seed,
                "model": model.name(),
                "suppress_recalls": false,
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": shrunk
                    .as_ref()
                    .map(|s| s.events.iter().map(|e| e.to_string()).collect::<Vec<_>>()),
                "reproducer": reproducer,
            }));
        }
    }

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
    if args.models.contains(&ModelKind::Delegation) {
        soak_scripted(&args, &mut tally, "partition-heal", |seed| {
            let r = run_partition_heal(seed);
            let summary = format!(
                "trips {}, degraded reads {}",
                r.breaker_trips, r.writer_stats.degraded_reads
            );
            Scripted::new(r.trace_hash, r.history, r.protocol_trace, r.violations, summary)
        });
        soak_scripted(&args, &mut tally, "crash-restart", |seed| {
            let r = run_crash_restart(seed);
            let summary = format!("warm blocks {}", r.writer_stats.restart_warm_blocks);
            Scripted::new(r.trace_hash, r.history, r.protocol_trace, r.violations, summary)
        });
        soak_scripted(&args, &mut tally, "peer-partition", |seed| {
            let r = run_peer_partition(seed, false);
            let summary = format!(
                "peer hits {}, fallbacks {}",
                r.reader_stats.peer_hits, r.reader_stats.peer_fallbacks
            );
            Scripted::new(r.trace_hash, r.history, r.protocol_trace, r.violations, summary)
        });
        soak_scripted(&args, &mut tally, "disk-corruption", |seed| {
            let r = run_disk_corruption(seed, false);
            let stats = &r.reader_stats;
            let summary = format!(
                "rotted {}, quarantined {}, scrub repairs {}",
                r.corrupted_paths, stats.quarantined_blocks, stats.scrub_repairs
            );
            let quarantine_report = json!({
                "corrupted_paths": r.corrupted_paths,
                "integrity_failures": stats.integrity_failures,
                "quarantined_blocks": stats.quarantined_blocks,
                "refetch_repairs": stats.refetch_repairs,
                "scrub_repairs": stats.scrub_repairs,
                "integrity_dirty_loss": stats.integrity_dirty_loss,
            });
            Scripted {
                quarantine_report: Some(quarantine_report),
                ..Scripted::new(r.trace_hash, r.history, r.protocol_trace, r.violations, summary)
            }
        });
    }

    // Self-test: with recalls suppressed the oracles MUST fire on at
    // least one seed, and the shrinker must produce a reproducer.
    let mut selftest_failed = false;
    if args.break_recall {
        let mut caught = 0u64;
        let mut shrunk_ok = false;
        for seed in args.start..args.start + args.seeds {
            let mut cfg = ScenarioConfig::new(seed, ModelKind::Delegation);
            cfg.suppress_recalls = true;
            let report = run_scenario(&cfg);
            tally.runs += 1;
            if report.violations.is_empty() {
                continue;
            }
            caught += 1;
            if !shrunk_ok {
                let events = generate_events(seed, cfg.clients);
                if let Some(s) = shrink_failure(&cfg, &events) {
                    shrunk_ok = true;
                    println!(
                        "self-test: suppression caught at seed={seed}, shrunk to {} event(s)",
                        s.events.len()
                    );
                    println!("{}", format_reproducer(&s));
                }
            }
        }
        if caught == 0 || !shrunk_ok {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: recall suppression caught on {caught}/{} seeds, \
                 shrinker ok: {shrunk_ok} — the harness has lost its teeth",
                args.seeds
            );
        } else {
            println!("self-test passed: suppression caught on {caught}/{} seeds", args.seeds);
        }
    }

    // Self-test: with de-advertisement suppressed and the serving peer
    // answering from condemned store bytes, the peer-partition oracle
    // MUST convict the stale read on at least one seed.
    if args.break_peerread {
        let mut caught = 0u64;
        for seed in args.start..args.start + args.seeds {
            let report = run_peer_partition(seed, true);
            tally.runs += 1;
            if report.violations.is_empty() {
                continue;
            }
            caught += 1;
            if caught == 1 {
                println!(
                    "self-test: broken peer convicted at seed={seed}: {}",
                    report.violations[0]
                );
            }
        }
        if caught == 0 {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: a peer serving condemned blocks went unconvicted on all \
                 {} seeds — the peer oracle has lost its teeth",
                args.seeds
            );
        } else {
            println!("self-test passed: broken peer convicted on {caught}/{} seeds", args.seeds);
        }
    }

    // Self-test: with verify-on-read disabled the store serves rotted
    // bytes, and the disk-corruption oracle MUST convict nearly every
    // seed — the rot is planted deterministically, so anything short of
    // 7 in 8 means the integrity machinery has a blind spot.
    let mut break_scrub_caught = 0u64;
    if args.break_scrub {
        for seed in args.start..args.start + args.seeds {
            let report = run_disk_corruption(seed, true);
            tally.runs += 1;
            if report.violations.is_empty() {
                println!("self-test: seed={seed} served rot UNCONVICTED");
                continue;
            }
            break_scrub_caught += 1;
            if break_scrub_caught == 1 {
                println!(
                    "self-test: served rot convicted at seed={seed}: {}",
                    report.violations[0]
                );
            }
        }
        if break_scrub_caught * 8 < args.seeds * 7 {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: a store serving rotted bytes was convicted on only \
                 {break_scrub_caught}/{} seeds (need 7 in 8) — the integrity oracle has lost \
                 its teeth",
                args.seeds
            );
        } else {
            println!(
                "self-test passed: served rot convicted on {break_scrub_caught}/{} seeds",
                args.seeds
            );
        }
    }

    save_json(
        "chaos_violations.json",
        &json!({
            "runs": tally.runs,
            "seed_start": args.start,
            "seeds": args.seeds,
            "models": args.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "determinism_breaks": tally.determinism_breaks,
            "break_recall_selftest": if args.break_recall {
                Some(!selftest_failed)
            } else {
                None
            },
            "break_peerread_selftest": if args.break_peerread {
                Some(!selftest_failed)
            } else {
                None
            },
            "break_scrub_selftest": if args.break_scrub {
                Some(break_scrub_caught * 8 >= args.seeds * 7)
            } else {
                None
            },
            "violations": tally.violations.clone(),
            "traces": Value::Object(tally.traces),
        }),
    );

    if selftest_failed {
        std::process::exit(2);
    }
    if tally.determinism_breaks > 0 || !tally.violations.is_empty() {
        std::process::exit(1);
    }
    println!("chaos soak clean: {} runs, no violations, no determinism breaks", tally.runs);
}
