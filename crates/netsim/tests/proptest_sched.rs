//! Differential property test: the threaded virtual-time scheduler must
//! run every script exactly as a single-threaded reference does.
//!
//! Random scripts for up to eight actors mix `sleep`, `advance_to`,
//! `park`, `park_timeout`, `unpark` (also of an actor that is running,
//! sleeping or not yet parked, which banks a permit) and
//! `spawn_from_actor`. Each actor logs `(actor, now())` after each step.
//! The reference below keeps no threads: it picks the next actor by the
//! minimum `(wake_at, id)` with ids in spawn order, and applies the
//! permit and unpark rules of `sched.rs`. Its log must equal the
//! scheduler's, and it must predict whether the run completes (and at
//! what time) or ends in the deadlock panic.

use gvfs_netsim::{
    advance_to, now, park, park_timeout, sleep, spawn_from_actor, ActorHandle, Sim, SimTime,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Actor slots; a script names actors by slot.
const SLOTS: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Step {
    Sleep(u64),
    AdvanceTo(u64),
    Park,
    ParkTimeout(u64),
    /// Unparks the actor in this slot, if it has been spawned.
    Unpark(usize),
    /// Spawns the actor in this slot, unless it has been spawned.
    Spawn(usize),
}

#[derive(Debug, Clone)]
struct Script {
    /// Slots `0..initial` are spawned before the run, in slot order.
    initial: usize,
    actors: Vec<Vec<Step>>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let park_timeout = || (0u64..60).prop_map(Step::ParkTimeout);
    // The shimmed prop_oneof! has no weights. Nesting halves the weight
    // of a bare park and the second unpark arm doubles the unparks, so
    // runs end in completion about as often as in deadlock.
    prop_oneof![
        (0u64..40).prop_map(Step::Sleep),
        (0u64..150).prop_map(Step::AdvanceTo),
        prop_oneof![Just(Step::Park), park_timeout()],
        park_timeout(),
        (0..SLOTS).prop_map(Step::Unpark),
        (0..SLOTS).prop_map(Step::Unpark),
        (0..SLOTS).prop_map(Step::Spawn),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (1..=SLOTS, proptest::collection::vec(proptest::collection::vec(step_strategy(), 0..8), SLOTS))
        .prop_map(|(initial, actors)| Script { initial, actors })
}

/// How a run ended: completion at a virtual time (ms), or deadlock.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Completed(u64),
    Deadlock,
}

fn ms(t: SimTime) -> u64 {
    t.as_nanos() / 1_000_000
}

struct Shared {
    script: Script,
    log: Mutex<Vec<(usize, u64)>>,
    handles: Mutex<Vec<Option<ActorHandle>>>,
}

fn actor(slot: usize, shared: Arc<Shared>) {
    for &step in &shared.script.actors[slot] {
        match step {
            Step::Sleep(d) => sleep(Duration::from_millis(d)),
            Step::AdvanceTo(t) => advance_to(SimTime::from_millis(t)),
            Step::Park => park(),
            Step::ParkTimeout(d) => {
                park_timeout(Duration::from_millis(d));
            }
            Step::Unpark(target) => {
                let handle = shared.handles.lock()[target].clone();
                if let Some(handle) = handle {
                    handle.unpark();
                }
            }
            Step::Spawn(child) => {
                let mut handles = shared.handles.lock();
                if handles[child].is_none() {
                    let shared = Arc::clone(&shared);
                    handles[child] =
                        Some(spawn_from_actor(&format!("a{child}"), move || actor(child, shared)));
                }
            }
        }
        shared.log.lock().push((slot, ms(now())));
    }
}

/// Runs `script` on the scheduler.
fn run_threaded(script: &Script) -> (Vec<(usize, u64)>, Outcome) {
    let shared = Arc::new(Shared {
        script: script.clone(),
        log: Mutex::new(Vec::new()),
        handles: Mutex::new(vec![None; SLOTS]),
    });
    let sim = Sim::new();
    for slot in 0..script.initial {
        let s = Arc::clone(&shared);
        let handle = sim.spawn(&format!("a{slot}"), move || actor(slot, s));
        shared.handles.lock()[slot] = Some(handle);
    }
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())) {
        Ok(end) => Outcome::Completed(ms(end)),
        Err(e) => {
            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("virtual-time deadlock"), "unexpected failure: {msg}");
            Outcome::Deadlock
        }
    };
    let log = shared.log.lock().clone();
    (log, outcome)
}

struct RefActor {
    slot: usize,
    pc: usize,
    started: bool,
    /// `Some` while blocked: `(parked, wake_at)`.
    block: Option<(bool, Option<u64>)>,
    permit: bool,
}

/// Runs `script` on the single-threaded reference.
fn run_reference(script: &Script) -> (Vec<(usize, u64)>, Outcome) {
    let mut log = Vec::new();
    let mut time = 0u64;
    let mut actors: BTreeMap<u64, RefActor> = BTreeMap::new();
    let mut ids: [Option<u64>; SLOTS] = [None; SLOTS];
    // Ids count spawns, so the tie-break is spawn order.
    let spawn = |actors: &mut BTreeMap<u64, RefActor>, ids: &mut [Option<u64>], slot, at| {
        let id = ids.iter().flatten().count() as u64;
        ids[slot] = Some(id);
        let rec =
            RefActor { slot, pc: 0, started: false, block: Some((false, Some(at))), permit: false };
        actors.insert(id, rec);
    };
    for slot in 0..script.initial {
        spawn(&mut actors, &mut ids, slot, 0);
    }
    loop {
        let next = actors
            .iter()
            .filter_map(|(&id, a)| a.block.and_then(|(_, wake)| wake).map(|wake| (wake, id)))
            .min();
        let Some((wake, id)) = next else {
            let outcome =
                if actors.is_empty() { Outcome::Completed(time) } else { Outcome::Deadlock };
            return (log, outcome);
        };
        time = time.max(wake);
        let a = actors.get_mut(&id).expect("picked actor");
        a.block = None;
        if a.started {
            log.push((a.slot, time)); // the step it blocked in returns now
        }
        a.started = true;
        // Run the actor until it blocks or finishes.
        loop {
            let a = actors.get_mut(&id).expect("running actor");
            let Some(&step) = script.actors[a.slot].get(a.pc) else {
                actors.remove(&id);
                break;
            };
            a.pc += 1;
            let slot = a.slot;
            let block = match step {
                Step::Sleep(d) => Some((false, Some(time + d))),
                Step::AdvanceTo(t) => (t > time).then_some((false, Some(t))),
                Step::Park | Step::ParkTimeout(_) if a.permit => {
                    a.permit = false;
                    None
                }
                Step::Park => Some((true, None)),
                Step::ParkTimeout(d) => Some((true, Some(time + d))),
                Step::Unpark(target) => {
                    if let Some(t) = ids[target].and_then(|tid| actors.get_mut(&tid)) {
                        match &mut t.block {
                            Some((true, wake)) => {
                                *wake = Some(wake.filter(|&w| w <= time).unwrap_or(time));
                            }
                            _ => t.permit = true,
                        }
                    }
                    None
                }
                Step::Spawn(child) => {
                    if ids[child].is_none() {
                        spawn(&mut actors, &mut ids, child, time);
                    }
                    None
                }
            };
            if let Some(block) = block {
                actors.get_mut(&id).expect("running actor").block = Some(block);
                break;
            }
            log.push((slot, time));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scheduler_matches_the_single_threaded_reference(script in script_strategy()) {
        let (ref_log, ref_outcome) = run_reference(&script);
        let (log, outcome) = run_threaded(&script);
        prop_assert_eq!(&log, &ref_log, "log differs for {:?}", script);
        prop_assert_eq!(outcome, ref_outcome, "outcome differs for {:?}", script);
    }
}
