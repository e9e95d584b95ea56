//! The one loop behind every batch of concurrent calls (§4.3.2, §4.3.4):
//! recall fan-out, sweep recalls, the `RECOVER` multicast and the
//! client's write-back. The window's `step` decides, without parking or
//! holding its lock across a send; [`Round::advance`] acts on it, driven
//! by [`Window::run`] on an actor and by the `fanout` model machine.

use gvfs_netsim::ActorHandle;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// A window without a bound: it counts and locks nothing.
pub const UNBOUNDED: usize = usize::MAX;

/// What a round does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A slot was taken: send the next item.
    Send,
    /// Claim the round's oldest call, then return its slot.
    Claim,
    /// Other rounds hold every slot: the round waits in the queue until
    /// a returned slot takes it off.
    Park,
    /// Nothing is left to send or claim.
    Done,
}

#[derive(Debug, Clone)]
struct Slots<W> {
    in_use: usize,
    /// Most slots ever in use at once.
    hwm: usize,
    /// Parked rounds, oldest first.
    waiters: VecDeque<W>,
}

/// Slots shared by every round that uses it. `W` names a parked round:
/// the actor to wake, or a round index in the model. The `fanout` lock
/// is terminal: nothing is taken or sent under it.
#[derive(Debug)]
pub struct Window<W = ActorHandle> {
    capacity: usize,
    fanout: Mutex<Slots<W>>,
}

impl<W: Clone> Clone for Window<W> {
    fn clone(&self) -> Self {
        Window { capacity: self.capacity, fanout: Mutex::new(self.fanout.lock().clone()) }
    }
}

impl<W> Window<W> {
    /// A window of `capacity` slots (at least one).
    pub fn new(capacity: usize) -> Self {
        let slots = Slots { in_use: 0, hwm: 0, waiters: VecDeque::new() };
        Window { capacity: capacity.max(1), fanout: Mutex::new(slots) }
    }

    /// The number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most slots ever in use at once (0 when unbounded).
    pub(crate) fn hwm(&self) -> u64 {
        self.fanout.lock().hwm as u64
    }

    /// Decides a round's next move from whether it has an item `pending`
    /// and how many of its calls are in flight (`own`). [`Step::Send`]
    /// has taken the slot; [`Step::Park`] has queued the round as `me()`.
    fn step(&self, pending: bool, own: usize, me: impl FnOnce() -> W) -> Step {
        if !pending {
            return if own > 0 { Step::Claim } else { Step::Done };
        }
        if self.capacity == UNBOUNDED {
            return Step::Send;
        }
        let mut slots = self.fanout.lock();
        if slots.in_use < self.capacity {
            slots.in_use += 1;
            slots.hwm = slots.hwm.max(slots.in_use);
            Step::Send
        } else if own > 0 {
            Step::Claim
        } else {
            slots.waiters.push_back(me());
            Step::Park
        }
    }

    /// Returns a slot and takes the oldest parked round off the queue,
    /// for the caller to wake.
    fn release(&self) -> Option<W> {
        if self.capacity == UNBOUNDED {
            return None;
        }
        let mut slots = self.fanout.lock();
        slots.in_use -= 1;
        slots.waiters.pop_front()
    }

    /// Whether `me` is still queued for a slot.
    pub fn queued(&self, me: &W) -> bool
    where
        W: PartialEq,
    {
        self.fanout.lock().waiters.contains(me)
    }
}

/// One round: the item to send next, the rest, and the calls in flight,
/// oldest first. An item is drawn when the previous one was sent, so
/// the iterator's per-item work comes before the item takes a slot.
#[derive(Debug, Clone)]
pub struct Round<I: Iterator, C> {
    next: Option<I::Item>,
    items: I,
    in_flight: VecDeque<C>,
}

impl<I: Iterator, C> Round<I, C> {
    /// A round over `items`, none of them sent.
    pub fn new(items: impl IntoIterator<IntoIter = I>) -> Self {
        let mut items = items.into_iter();
        Round { next: items.next(), items, in_flight: VecDeque::new() }
    }

    /// The calls in flight, oldest first.
    pub fn in_flight(&self) -> impl Iterator<Item = &C> {
        self.in_flight.iter()
    }

    /// Takes one step of the window's decision and acts on it: sends the next item
    /// with `send` (whose `None`, a failed send, returns the slot) or
    /// hands the oldest call to `claim` and returns its slot. A round
    /// that a returned slot takes off the queue goes to `wake`.
    pub fn advance<W>(
        &mut self,
        window: &Window<W>,
        me: impl FnOnce() -> W,
        send: impl FnOnce(I::Item) -> Option<C>,
        claim: impl FnOnce(C),
        wake: impl FnOnce(W),
    ) -> Step {
        let step = window.step(self.next.is_some(), self.in_flight.len(), me);
        let returns_slot = match step {
            Step::Send => {
                let call = self.next.take().and_then(send);
                self.next = self.items.next();
                call.map(|call| self.in_flight.push_back(call)).is_none()
            }
            Step::Claim => {
                if let Some(call) = self.in_flight.pop_front() {
                    claim(call);
                }
                true
            }
            Step::Park | Step::Done => false,
        };
        if let Some(waiter) = returns_slot.then(|| window.release()).flatten() {
            wake(waiter);
        }
        step
    }
}

impl Window {
    /// Runs one round to its end on the calling actor: `send` puts an
    /// item on the wire (`None` when it failed) and `claim` takes each
    /// call's reply, in send order.
    pub fn run<I, C>(
        &self,
        items: impl IntoIterator<Item = I>,
        mut send: impl FnMut(I) -> Option<C>,
        mut claim: impl FnMut(C),
    ) {
        let mut round = Round::new(items);
        let me = gvfs_netsim::current_actor;
        loop {
            match round.advance(self, me, &mut send, &mut claim, |w| w.unpark()) {
                // Another unpark may come early: only a release takes
                // the round off the queue.
                Step::Park => {
                    while self.queued(&me()) {
                        gvfs_netsim::park();
                    }
                }
                Step::Done => return,
                Step::Send | Step::Claim => {}
            }
        }
    }
}
