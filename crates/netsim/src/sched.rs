//! The conservative virtual-time scheduler.
//!
//! Actors are OS threads; at most one executes at a time, and the one
//! allowed to run is always the one with the minimum local virtual clock
//! (ties broken by actor id, i.e. spawn order). This makes every
//! simulation fully deterministic while letting protocol code be written
//! in ordinary blocking style.
//!
//! Each actor thread waits on a condition variable of its own, and
//! [`Sim::run`] on another, all on the one state mutex. A handoff signals
//! exactly the thread that runs next (nobody, when the yielding actor is
//! itself next), `Sim::run` only once no actor is live, and every thread
//! only when the simulation fails. With one shared condition variable
//! every waiting thread would wake on every handoff just to find it was
//! not its turn.

use crate::time::SimTime;

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

type ActorId = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    /// Waiting for virtual time to reach `wake_at`; unparks are banked.
    Sleeping,
    /// Waiting for an unpark (optionally with a timeout).
    Parked,
}

#[derive(Debug)]
struct Block {
    kind: BlockKind,
    /// `None` means "until unparked".
    wake_at: Option<SimTime>,
    unparked: bool,
}

struct ActorRec {
    name: String,
    block: Option<Block>,
    /// A banked unpark delivered while the actor was running or sleeping.
    permit: bool,
    /// Signalled when this actor is scheduled or the simulation fails;
    /// only the actor's own thread waits on it.
    wake: Arc<Condvar>,
}

#[derive(Default)]
struct State {
    time: SimTime,
    running: Option<ActorId>,
    actors: HashMap<ActorId, ActorRec>,
    live: usize,
    next_id: ActorId,
    failed: Option<String>,
    started: bool,
    /// Pending wake-ups `(wake_at, actor)`, lazily invalidated: an entry
    /// is honored only while the actor's *current* block still wakes at
    /// exactly that time; anything else (finished actor, consumed
    /// block, rescheduled wake) is discarded on pop. Keeps picking the
    /// next actor O(log n) instead of a linear scan over all actors —
    /// the scheduling hot path once simulations carry thousands of
    /// actors.
    ready: BinaryHeap<Reverse<(SimTime, ActorId)>>,
    /// Waits that returned with nothing for the waiter to do: its actor
    /// not scheduled, or `Sim::run` with actors live, and no failure.
    #[cfg(test)]
    idle_wakeups: u64,
}

pub(crate) struct Scheduler {
    state: Mutex<State>,
    /// Signalled only when no actor is live or the simulation fails;
    /// [`Sim::run`] waits on it.
    done: Condvar,
}

impl Scheduler {
    fn new() -> Arc<Self> {
        Arc::new(Scheduler { state: Mutex::new(State::default()), done: Condvar::new() })
    }

    /// Waits on `cv` until `ready` holds, or returns the failure message
    /// once the simulation has failed.
    fn wait_until(
        st: &mut MutexGuard<'_, State>,
        cv: &Condvar,
        ready: impl Fn(&State) -> bool,
    ) -> Option<String> {
        loop {
            if let Some(msg) = &st.failed {
                return Some(msg.clone());
            }
            if ready(st) {
                return None;
            }
            cv.wait(st);
            #[cfg(test)]
            if !ready(st) && st.failed.is_none() {
                st.idle_wakeups += 1;
            }
        }
    }

    /// Wakes the threads that have something to do after a handoff:
    /// every actor and [`Sim::run`] once the simulation has failed, so
    /// that all of them exit; otherwise the scheduled actor, unless it is
    /// `yielding` (the caller, which keeps the token without waiting),
    /// or `Sim::run` once no actor is live.
    fn wake_next(&self, st: &State, yielding: Option<ActorId>) {
        if st.failed.is_some() {
            for rec in st.actors.values() {
                rec.wake.notify_one();
            }
            self.done.notify_one();
        } else if let Some(id) = st.running {
            if Some(id) != yielding {
                st.actors[&id].wake.notify_one();
            }
        } else if st.live == 0 {
            self.done.notify_one();
        }
    }

    /// Picks the next actor to run. Must be called with `running == None`.
    ///
    /// Pops the minimum `(wake_at, actor)` entry — ties therefore still
    /// resolve by actor id, i.e. spawn order, exactly as the previous
    /// full scan did — skipping entries the lazy invalidation scheme
    /// has made stale.
    fn schedule_next(st: &mut State) {
        debug_assert!(st.running.is_none());
        while let Some(&Reverse((wake, id))) = st.ready.peek() {
            let current_wake =
                st.actors.get(&id).and_then(|rec| rec.block.as_ref()).and_then(|b| b.wake_at);
            st.ready.pop();
            if current_wake != Some(wake) {
                continue; // stale: finished, already woken, or re-timed
            }
            debug_assert!(wake >= st.time, "virtual time went backwards");
            st.time = st.time.max(wake);
            st.running = Some(id);
            return;
        }
        if st.live > 0 && st.failed.is_none() {
            let stuck: Vec<&str> = st.actors.values().map(|r| r.name.as_str()).collect();
            st.failed = Some(format!(
                "virtual-time deadlock at {}: all live actors parked: {stuck:?}",
                st.time
            ));
        }
    }

    /// Blocks the calling actor and waits to be rescheduled.
    /// Returns whether it was unparked (vs. woken by time).
    fn block_and_wait(ctx: &Ctx, kind: BlockKind, wake_at: Option<SimTime>) -> bool {
        let (sched, id) = (&ctx.sched, ctx.id);
        let mut st = sched.state.lock();
        debug_assert_eq!(st.running, Some(id), "only the running actor may block");
        {
            let rec = st.actors.get_mut(&id).expect("actor record");
            rec.block = Some(Block { kind, wake_at, unparked: false });
        }
        if let Some(wake) = wake_at {
            st.ready.push(Reverse((wake, id)));
        }
        st.running = None;
        Self::schedule_next(&mut st);
        sched.wake_next(&st, Some(id));
        if let Some(msg) = Self::wait_until(&mut st, &ctx.wake, |st| st.running == Some(id)) {
            drop(st);
            panic!("{msg}");
        }
        let rec = st.actors.get_mut(&id).expect("actor record");
        rec.block.take().map(|b| b.unparked).unwrap_or(false)
    }

    fn spawn_inner(
        self: &Arc<Self>,
        name: &str,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> ActorHandle {
        let id;
        let wake = Arc::new(Condvar::new());
        {
            let mut st = self.state.lock();
            if st.failed.is_some() {
                panic!("cannot spawn into a failed simulation");
            }
            id = st.next_id;
            st.next_id += 1;
            let birth = st.time;
            st.actors.insert(
                id,
                ActorRec {
                    name: name.to_string(),
                    block: Some(Block {
                        kind: BlockKind::Sleeping,
                        wake_at: Some(birth),
                        unparked: false,
                    }),
                    permit: false,
                    wake: Arc::clone(&wake),
                },
            );
            st.ready.push(Reverse((birth, id)));
            st.live += 1;
        }
        let sched = Arc::clone(self);
        let tname = name.to_string();
        std::thread::Builder::new()
            .name(tname.clone())
            .spawn(move || {
                CURRENT.with(|c| {
                    *c.borrow_mut() =
                        Some(Ctx { sched: Arc::clone(&sched), id, wake: Arc::clone(&wake) })
                });
                // Wait to be scheduled for the first time.
                {
                    let mut st = sched.state.lock();
                    if let Some(msg) =
                        Scheduler::wait_until(&mut st, &wake, |st| st.running == Some(id))
                    {
                        drop(st);
                        // Simulation already failed; just deregister.
                        sched.finish_actor(id, Some(msg));
                        return;
                    }
                    st.actors.get_mut(&id).expect("actor record").block = None;
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let failure = result.err().map(|e| {
                    let detail = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    format!("actor '{tname}' panicked: {detail}")
                });
                sched.finish_actor(id, failure);
            })
            .expect("failed to spawn actor thread");
        ActorHandle { sched: Arc::clone(self), id }
    }

    fn finish_actor(&self, id: ActorId, failure: Option<String>) {
        let mut st = self.state.lock();
        if st.actors.remove(&id).is_some() {
            st.live -= 1;
        }
        if let Some(msg) = failure {
            if st.failed.is_none() {
                st.failed = Some(msg);
            }
        }
        if st.running == Some(id) {
            st.running = None;
            if st.failed.is_none() {
                Self::schedule_next(&mut st);
            }
        }
        self.wake_next(&st, None);
    }
}

struct Ctx {
    sched: Arc<Scheduler>,
    id: ActorId,
    wake: Arc<Condvar>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let ctx = borrow.as_ref().expect("this operation must run inside a simulation actor");
        f(ctx)
    })
}

/// Whether the calling thread is a simulation actor, i.e. whether
/// [`now`]/[`sleep`]/[`park`] may be called without panicking. Lets code
/// shared between actors and ordinary threads (tests, setup) charge
/// virtual-time costs only when there is a clock to charge.
pub fn in_actor() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The calling actor's current virtual time.
///
/// # Panics
///
/// Panics when called from a thread that is not a simulation actor.
pub fn now() -> SimTime {
    with_ctx(|ctx| ctx.sched.state.lock().time)
}

/// Advances the calling actor's clock by `d`, yielding to any actor whose
/// clock is earlier. Unparks received while sleeping are banked as a
/// permit for the next [`park`].
///
/// # Panics
///
/// Panics outside an actor, or if the simulation has failed.
pub fn sleep(d: Duration) {
    with_ctx(|ctx| {
        let wake = {
            let st = ctx.sched.state.lock();
            st.time + d
        };
        Scheduler::block_and_wait(ctx, BlockKind::Sleeping, Some(wake));
    });
}

/// Advances the calling actor's clock to `t` (no-op if `t` is in the past).
///
/// # Panics
///
/// Panics outside an actor, or if the simulation has failed.
pub fn advance_to(t: SimTime) {
    with_ctx(|ctx| {
        let wake = {
            let st = ctx.sched.state.lock();
            if t <= st.time {
                return;
            }
            t
        };
        Scheduler::block_and_wait(ctx, BlockKind::Sleeping, Some(wake));
    });
}

/// Parks the calling actor until some other actor unparks it.
///
/// If an unpark permit is already banked, consumes it and returns
/// immediately without yielding.
///
/// # Panics
///
/// Panics outside an actor. A simulation in which every live actor is
/// parked is reported as a deadlock and fails.
pub fn park() {
    with_ctx(|ctx| {
        {
            let mut st = ctx.sched.state.lock();
            let rec = st.actors.get_mut(&ctx.id).expect("actor record");
            if rec.permit {
                rec.permit = false;
                return;
            }
        }
        Scheduler::block_and_wait(ctx, BlockKind::Parked, None);
    });
}

/// Parks the calling actor until unparked or until `d` of virtual time
/// elapses. Returns `true` if it was unparked, `false` on timeout.
///
/// # Panics
///
/// Panics outside an actor.
pub fn park_timeout(d: Duration) -> bool {
    with_ctx(|ctx| {
        let wake = {
            let mut st = ctx.sched.state.lock();
            let rec = st.actors.get_mut(&ctx.id).expect("actor record");
            if rec.permit {
                rec.permit = false;
                return true;
            }
            st.time + d
        };
        Scheduler::block_and_wait(ctx, BlockKind::Parked, Some(wake))
    })
}

/// Returns a handle to the calling actor (for handing to peers that will
/// unpark it).
///
/// # Panics
///
/// Panics outside an actor.
pub fn current_actor() -> ActorHandle {
    with_ctx(|ctx| ActorHandle { sched: Arc::clone(&ctx.sched), id: ctx.id })
}

/// A handle to a spawned actor.
#[derive(Clone)]
pub struct ActorHandle {
    sched: Arc<Scheduler>,
    id: ActorId,
}

impl std::fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHandle").field("id", &self.id).finish()
    }
}

impl ActorHandle {
    /// Wakes the actor if it is parked; otherwise banks a permit that the
    /// actor's next [`park`] will consume. Unparking a finished actor is
    /// a no-op.
    pub fn unpark(&self) {
        let mut st = self.sched.state.lock();
        let time = st.time;
        let Some(rec) = st.actors.get_mut(&self.id) else { return };
        let mut woke_at = None;
        match rec.block.as_mut() {
            Some(b) if b.kind == BlockKind::Parked => {
                b.unparked = true;
                let wake = match b.wake_at {
                    Some(t) if t <= time => t,
                    _ => time,
                };
                b.wake_at = Some(wake);
                woke_at = Some(wake);
            }
            _ => rec.permit = true,
        }
        if let Some(wake) = woke_at {
            st.ready.push(Reverse((wake, self.id)));
        }
        // The unparker keeps running; the scheduler will consider the
        // woken actor at the unparker's next yield.
    }
}

/// A virtual-time simulation: spawn actors, then [`Sim::run`] to completion.
///
/// See the [crate docs](crate) for an example.
pub struct Sim {
    sched: Arc<Scheduler>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.sched.state.lock();
        f.debug_struct("Sim").field("time", &st.time).field("live_actors", &st.live).finish()
    }
}

impl Drop for Sim {
    /// Dropping a simulation that was never [run](Sim::run) releases any
    /// spawned actor threads (they observe the failure and exit) instead
    /// of leaving them blocked forever.
    fn drop(&mut self) {
        let mut st = self.sched.state.lock();
        if !st.started && st.live > 0 && st.failed.is_none() {
            st.failed = Some("simulation dropped without running".to_string());
            self.sched.wake_next(&st, None);
        }
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim { sched: Scheduler::new() }
    }

    /// Spawns an actor. Actors spawned before [`Sim::run`] start at time
    /// zero; actors spawned by other actors start at their parent's
    /// current time.
    ///
    /// The closure runs on its own OS thread but only ever executes while
    /// it holds the virtual-time token.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) -> ActorHandle {
        self.sched.spawn_inner(name, Box::new(f))
    }

    /// Runs the simulation until every actor has finished, returning the
    /// final virtual time.
    ///
    /// # Panics
    ///
    /// Panics if any actor panicked or if the simulation deadlocked
    /// (every live actor parked with no pending wake).
    pub fn run(self) -> SimTime {
        let mut st = self.sched.state.lock();
        assert!(!st.started, "run may only be called once");
        st.started = true;
        if st.running.is_none() {
            Scheduler::schedule_next(&mut st);
        }
        self.sched.wake_next(&st, None);
        if let Some(msg) = Scheduler::wait_until(&mut st, &self.sched.done, |st| st.live == 0) {
            drop(st);
            panic!("{msg}");
        }
        st.time
    }
}

/// Spawns an actor from within another actor, on the same scheduler.
///
/// Equivalent to [`Sim::spawn`] but callable where the [`Sim`] handle is
/// not available; the child starts at the parent's current virtual time.
///
/// # Panics
///
/// Panics when called from a thread that is not a simulation actor.
pub fn spawn_from_actor<F: FnOnce() + Send + 'static>(name: &str, f: F) -> ActorHandle {
    with_ctx(|ctx| ctx.sched.spawn_inner(name, Box::new(f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[test]
    fn single_actor_advances_time() {
        let sim = Sim::new();
        sim.spawn("a", || {
            assert_eq!(now(), SimTime::ZERO);
            sleep(Duration::from_secs(3));
            assert_eq!(now(), SimTime::from_secs(3));
        });
        assert_eq!(sim.run(), SimTime::from_secs(3));
    }

    #[test]
    fn actors_interleave_by_virtual_time() {
        let sim = Sim::new();
        let log = Arc::new(PMutex::new(Vec::new()));
        for (name, step_ms) in [("a", 30u64), ("b", 20)] {
            let log = log.clone();
            sim.spawn(name, move || {
                for _ in 0..3 {
                    sleep(Duration::from_millis(step_ms));
                    log.lock().push((name, now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let log = log.lock();
        assert_eq!(*log, vec![("b", 20), ("a", 30), ("b", 40), ("a", 60), ("b", 60), ("a", 90)]);
    }

    #[test]
    fn ties_resolve_by_spawn_order() {
        let sim = Sim::new();
        let log = Arc::new(PMutex::new(Vec::new()));
        for name in ["first", "second"] {
            let log = log.clone();
            sim.spawn(name, move || {
                sleep(Duration::from_millis(5));
                log.lock().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec!["first", "second"]);
    }

    #[test]
    fn park_and_unpark() {
        let sim = Sim::new();
        let result = Arc::new(PMutex::new(None));
        let r2 = result.clone();
        let waiter = sim.spawn("waiter", move || {
            park();
            *r2.lock() = Some(now());
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_secs(1));
            waiter.unpark();
        });
        sim.run();
        assert_eq!(result.lock().unwrap(), SimTime::from_secs(1));
    }

    #[test]
    fn unpark_before_park_is_banked() {
        let sim = Sim::new();
        let sim2 = &sim;
        let handle = Arc::new(PMutex::new(None::<ActorHandle>));
        let h2 = handle.clone();
        let done = Arc::new(PMutex::new(false));
        let d2 = done.clone();
        let target = sim2.spawn("target", move || {
            sleep(Duration::from_secs(2)); // unpark arrives during this sleep
            park(); // consumes the banked permit, returns immediately
            *d2.lock() = true;
            assert_eq!(now(), SimTime::from_secs(2));
        });
        *handle.lock() = Some(target);
        let h3 = handle.clone();
        sim.spawn("poker", move || {
            sleep(Duration::from_secs(1));
            h3.lock().as_ref().unwrap().unpark();
        });
        sim.run();
        assert!(*done.lock());
        let _ = h2;
    }

    #[test]
    fn park_timeout_times_out() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        sim.spawn("a", move || {
            let unparked = park_timeout(Duration::from_millis(100));
            *o.lock() = Some((unparked, now()));
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), (false, SimTime::from_millis(100)));
    }

    #[test]
    fn park_timeout_unparked_early() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        let waiter = sim.spawn("waiter", move || {
            let unparked = park_timeout(Duration::from_secs(60));
            *o.lock() = Some((unparked, now()));
        });
        sim.spawn("waker", move || {
            sleep(Duration::from_millis(250));
            waiter.unpark();
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), (true, SimTime::from_millis(250)));
    }

    #[test]
    fn nested_spawn_starts_at_parent_time() {
        let sim = Sim::new();
        let out = Arc::new(PMutex::new(None));
        let o = out.clone();
        sim.spawn("parent", move || {
            sleep(Duration::from_secs(5));
            current_actor(); // smoke-test handle acquisition
            spawn_from_actor("child", move || {
                *o.lock() = Some(now());
            });
        });
        sim.run();
        assert_eq!(out.lock().unwrap(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn all_parked_is_deadlock() {
        let sim = Sim::new();
        sim.spawn("stuck", park);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_panic_propagates() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.spawn("good", || sleep(Duration::from_secs(1)));
        sim.run();
    }

    #[test]
    fn advance_to_past_is_noop() {
        let sim = Sim::new();
        sim.spawn("a", || {
            sleep(Duration::from_secs(1));
            advance_to(SimTime::ZERO);
            assert_eq!(now(), SimTime::from_secs(1));
            advance_to(SimTime::from_secs(2));
            assert_eq!(now(), SimTime::from_secs(2));
        });
        sim.run();
    }

    #[test]
    fn run_returns_zero_with_no_actors() {
        assert_eq!(Sim::new().run(), SimTime::ZERO);
    }

    #[test]
    fn dropping_an_unrun_sim_releases_its_actors() {
        let spawned = Arc::new(PMutex::new(false));
        let token = Arc::new(());
        {
            let sim = Sim::new();
            let s = spawned.clone();
            sim.spawn("never-scheduled", move || {
                *s.lock() = true; // must never execute
            });
            spawn_bystanders(&sim, &token);
            // sim dropped here without run()
        }
        wait_for_release(&token);
        assert!(!*spawned.lock(), "the actor body never ran");
    }

    /// Spawns 16 actors that each own a clone of `token`: half park at
    /// once, half sleep an hour ahead and then park.
    fn spawn_bystanders(sim: &Sim, token: &Arc<()>) {
        for i in 0..16 {
            let token = Arc::clone(token);
            sim.spawn(&format!("bystander-{i}"), move || {
                let _token = token;
                if i % 2 == 1 {
                    sleep(Duration::from_secs(3600));
                }
                park();
            });
        }
    }

    /// Waits, on the wall clock, until every actor thread holding a clone
    /// of `token` has exited.
    fn wait_for_release(token: &Arc<()>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(token) > 1 {
            let left = Arc::strong_count(token) - 1;
            assert!(std::time::Instant::now() < deadline, "{left} actor threads never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs `sim`, which must fail, and returns its panic message.
    fn run_failure(sim: Sim) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the simulation must fail");
        err.downcast_ref::<String>().cloned().expect("string panic payload")
    }

    #[test]
    fn actor_panic_releases_every_bystander() {
        let token = Arc::new(());
        let sim = Sim::new();
        spawn_bystanders(&sim, &token);
        sim.spawn("bad", || {
            sleep(Duration::from_secs(1));
            panic!("boom");
        });
        assert_eq!(run_failure(sim), "actor 'bad' panicked: boom");
        wait_for_release(&token);
    }

    #[test]
    fn deadlock_releases_every_bystander() {
        let token = Arc::new(());
        let sim = Sim::new();
        spawn_bystanders(&sim, &token);
        let msg = run_failure(sim);
        assert!(msg.starts_with("virtual-time deadlock at 3600.000"), "{msg}");
        wait_for_release(&token);
    }

    #[test]
    fn a_handoff_wakes_only_the_actor_that_runs_next() {
        let sim = Sim::new();
        for i in 0..32 {
            sim.spawn(&format!("bystander-{i}"), || {
                assert!(!park_timeout(Duration::from_secs(3600)));
            });
        }
        sim.spawn("worker", || {
            for _ in 0..10_000 {
                sleep(Duration::from_micros(1));
            }
        });
        let sched = Arc::clone(&sim.sched);
        assert_eq!(sim.run(), SimTime::from_secs(3600));
        assert_eq!(sched.state.lock().idle_wakeups, 0, "waits that returned out of turn");
    }
}
