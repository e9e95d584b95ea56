//! The chaos harness end to end: exact-replay determinism, clean seeds
//! across every model, and the deliberately-broken fixture (delegation
//! recalls suppressed) being caught by the oracles and shrunk to a
//! seed-only reproducer.

use gvfs_integration::chaos::{
    generate_events, run_partition_heal, run_scenario, run_with_events, shrink_failure, ModelKind,
    ScenarioConfig,
};

#[test]
fn same_seed_reproduces_identical_trace_and_verdict() {
    let cfg = ScenarioConfig::new(42, ModelKind::Delegation);
    let a = run_scenario(&cfg);
    let b = run_scenario(&cfg);
    assert_eq!(a.events, b.events, "fault-plan expansion must be deterministic");
    assert_eq!(a.history, b.history, "event traces must replay bit-identically");
    assert_eq!(a.final_tags, b.final_tags);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.trace_hash, b.trace_hash);
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(&ScenarioConfig::new(1, ModelKind::Polling));
    let b = run_scenario(&ScenarioConfig::new(2, ModelKind::Polling));
    assert_ne!(a.trace_hash, b.trace_hash, "distinct seeds must explore distinct schedules");
}

#[test]
fn clean_seeds_pass_every_model() {
    for model in ModelKind::ALL {
        for seed in [1u64, 2, 3] {
            let report = run_scenario(&ScenarioConfig::new(seed, model));
            assert!(
                report.violations.is_empty(),
                "seed {seed} under {} must be clean, got: {:#?}\nevents: {:?}",
                model.name(),
                report.violations,
                report.events
            );
            assert!(
                report
                    .history
                    .iter()
                    .any(|e| { matches!(e, gvfs_integration::chaos::Event::WriteAcked { .. }) }),
                "the workload must actually write (seed {seed}, {})",
                model.name()
            );
        }
    }
}

#[test]
fn partition_heal_rides_the_ladder_and_loses_nothing() {
    let report = run_partition_heal(7);
    assert!(
        report.violations.is_empty(),
        "partition-heal must be clean, got: {:#?}\nhistory: {:#?}",
        report.violations,
        report.history
    );
    // The report's own checks already demand these, but assert the
    // interesting counters explicitly so a regression reads clearly.
    assert!(report.breaker_trips >= 1, "the partition must trip the WAN breaker");
    assert!(
        report.stats.degraded_reads >= 3,
        "the bounded-staleness rung must serve the mid-outage reads, stats: {:?}",
        report.stats
    );
    assert_eq!(report.stats.repromotions, 1, "exactly one heal, one re-promotion");
    assert_eq!(
        report.stats.stale_discards + report.stats.corrupted_discards,
        0,
        "nothing conflicted server-side, so nothing may be discarded"
    );

    // Exact-replay determinism, scripted like the randomized scenarios.
    let again = run_partition_heal(7);
    assert_eq!(report.history, again.history, "scenario must replay bit-identically");
    assert_eq!(report.trace_hash, again.trace_hash);
}

#[test]
fn crash_restart_recovers_synced_state_and_discards_the_torn_write() {
    let report = gvfs_integration::chaos::run_crash_restart(7);
    assert!(
        report.violations.is_empty(),
        "crash-restart must be clean, got: {:#?}\nhistory: {:#?}\nstats: {:?}",
        report.violations,
        report.history,
        report.stats
    );
    // The report's own checks already demand these, but assert the
    // interesting counters explicitly so a regression reads clearly.
    assert!(
        report.stats.restart_warm_blocks >= 1,
        "the reopened store must serve at least /crash-1's clean block warm, stats: {:?}",
        report.stats
    );
    assert!(report.extras.corrupted.is_empty(), "nothing conflicted server-side");

    // Exact-replay determinism, scripted like the randomized scenarios.
    let again = gvfs_integration::chaos::run_crash_restart(7);
    assert_eq!(report.history, again.history, "scenario must replay bit-identically");
    assert_eq!(report.trace_hash, again.trace_hash);
}

#[test]
fn disk_corruption_self_heals_and_break_scrub_is_convicted() {
    let report = gvfs_integration::chaos::run_disk_corruption(7, false);
    assert!(
        report.violations.is_empty(),
        "disk-corruption must be clean, got: {:#?}\nhistory: {:#?}\nstats: {:?}",
        report.violations,
        report.history,
        report.stats
    );
    // The report's own checks already demand these, but assert the
    // interesting counters explicitly so a regression reads clearly.
    assert!(report.extras.corrupted_paths >= 2, "rot must land on data/ and chunks/");
    assert!(
        report.stats.integrity_failures >= report.extras.corrupted_paths as u64,
        "every rotted file must fail at least one verification, stats: {:?}",
        report.stats
    );
    assert!(report.stats.scrub_repairs >= 1, "the scrubber must repair ahead of demand");
    assert_eq!(report.stats.integrity_dirty_loss, 0, "only clean data was rotted");

    // Exact-replay determinism, scripted like the randomized scenarios.
    let again = gvfs_integration::chaos::run_disk_corruption(7, false);
    assert_eq!(report.history, again.history, "scenario must replay bit-identically");
    assert_eq!(report.trace_hash, again.trace_hash);

    // The --break-scrub arm: with verify-on-read disabled the rot is
    // served, and the oracle must convict it.
    let broken = gvfs_integration::chaos::run_disk_corruption(7, true);
    assert!(
        !broken.violations.is_empty(),
        "a store serving rotted bytes must be convicted, stats: {:?}",
        broken.stats
    );
}

#[test]
fn peer_partition_falls_back_to_the_origin_and_serves_from_the_mesh() {
    let report = gvfs_integration::chaos::run_peer_partition(7, false);
    assert!(
        report.violations.is_empty(),
        "peer-partition must be clean, got: {:#?}\nhistory: {:#?}\nstats: {:?}",
        report.violations,
        report.history,
        report.stats
    );
    // The report's own checks already demand these, but assert the
    // interesting counters explicitly so a regression reads clearly.
    assert!(
        report.stats.peer_fallbacks >= 1,
        "the partitioned PEERREAD must fall back to the origin, stats: {:?}",
        report.stats
    );
    assert!(
        report.stats.peer_hits >= 1,
        "the verify-phase block must come over the mesh, stats: {:?}",
        report.stats
    );

    // Exact-replay determinism, scripted like the randomized scenarios.
    let again = gvfs_integration::chaos::run_peer_partition(7, false);
    assert_eq!(report.history, again.history, "scenario must replay bit-identically");
    assert_eq!(report.trace_hash, again.trace_hash);
}

#[test]
fn suppressed_recalls_are_caught_and_shrunk() {
    let mut cfg = ScenarioConfig::new(10, ModelKind::Delegation);
    cfg.suppress_recalls = true;
    // Even with zero injected faults the oracles must reject the run:
    // holders are revoked without being told, so stale reads and
    // clobbered final state follow from the workload alone.
    let report = run_with_events(&cfg, &[]);
    assert!(!report.violations.is_empty(), "the breakage fixture must be caught");
    // A full seeded fault plan on top shrinks back to the empty list —
    // the minimal reproducer is the seed alone.
    let events = generate_events(cfg.seed, cfg.clients);
    let shrunk = shrink_failure(&cfg, &events).expect("the plan must still violate");
    assert!(
        shrunk.events.is_empty(),
        "suppression needs no faults, so the plan must shrink to empty: {:?}",
        shrunk.events
    );
    assert!(!shrunk.report.violations.is_empty());
}
