//! The sans-io actor contract, clocks, and the runtime-neutral handles
//! that reach a worker loop from outside ([`Wake`], [`Dumper`]).
//!
//! A protocol worker (Kite worker, ZAB worker, Derecho io thread) is written
//! once as an [`Actor`]: a state machine that reacts to delivered envelopes
//! and to ticks, emitting messages into an [`Outbox`]. The epoll fabric
//! (`kite-net`) and the deterministic simulator drive the same actor code —
//! protocol logic cannot tell which scheduler it runs under except through
//! the clock values it is handed.
//!
//! # Deadline-driven ticks
//!
//! No scheduler polls an actor on a beat. Every [`Actor::on_tick`] ends by
//! saying when the actor next needs one ([`Wakeup`]), and every runtime
//! waits for `min(next_deadline, I/O)`: the simulator skips the calls of
//! ticks that are not due, the epoll loop hands the deadline to
//! `epoll_wait`. What the actor owes in return is a step that costs O(due),
//! not O(pending). The simulator's own bookkeeping follows the same rule:
//! a busy worker's tick, deferred behind the receive-queue drain it
//! trails, is stepped inside that drain rather than as an event of its own
//! (see `crate::sim`), so an actor sees the same calls at the same
//! virtual times either way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kite_common::NodeId;

use crate::outbox::Outbox;

/// A deterministic, single-threaded protocol state machine bound to one
/// `(node, worker)` slot.
pub trait Actor: Send {
    /// Protocol message type carried by the fabric.
    type Msg: Send + Clone + std::fmt::Debug + 'static;

    /// A batch of messages from `src` arrived, stamped with the sender's
    /// membership epoch `mepoch` (its [`Outbox::stamp`] at flush, carried
    /// as the wire frame's `mepoch` field; a runtime may pass 0 for a batch
    /// the actor addressed to itself). Kite's worker gates stale-epoch traffic on it; the
    /// membership-oblivious actors (the ZAB and Derecho baselines,
    /// unit-test actors) ignore it. The actor **drains** `msgs` (e.g.
    /// `for m in msgs.drain(..)`); the driving scheduler recycles the
    /// emptied buffer into the outbox pool afterwards, which is what keeps
    /// the steady-state fabric allocation-free (see [`crate::outbox`]'s
    /// buffer-recycling contract). `now` is nanoseconds on the driving
    /// scheduler's clock.
    fn on_envelope(
        &mut self,
        src: NodeId,
        mepoch: u32,
        msgs: &mut Vec<Self::Msg>,
        now: u64,
        out: &mut Outbox<Self::Msg>,
    );

    /// Look-ahead, the software-pipelining way: a runtime about to deliver
    /// one batch tells the actor which batch comes **after** it — `msgs` is
    /// what the [`Actor::on_envelope`] following the one now in hand will be
    /// given. The actor may use the notice to warm caches (Kite's worker
    /// asks the store to start loading each request's key) and for nothing
    /// else: `&self` rules out protocol state, and the call promises
    /// nothing — a runtime may never make it, and a batch it announced may
    /// be dropped (the node crashed) instead of delivered. What a runtime
    /// that does call must keep: if the actor gets a delivery after the one
    /// in hand, it is `msgs`. The default does nothing.
    fn prefetch(&self, msgs: &[Self::Msg]) {
        let _ = msgs;
    }

    /// Pump sessions, fire whatever protocol timers are due, issue
    /// retransmissions. Every runtime calls it after each batch of
    /// envelope deliveries, when the deadline it last returned passes, and
    /// when something outside the actor asks for it (a local client
    /// submitted an op and ended the park). The returned [`Wakeup`] is the
    /// actor's whole claim on the scheduler until the next call — see its
    /// fields for what it must cover.
    fn on_tick(&mut self, now: u64, out: &mut Outbox<Self::Msg>) -> Wakeup;

    /// `true` when the actor has no outstanding work of its own (all
    /// sessions finished their scripts, no in-flight quorums). Used by the
    /// simulator's quiescence detection; throughput actors never go idle.
    fn is_idle(&self) -> bool {
        false
    }

    /// Append a human-readable snapshot of the actor's internal state to
    /// `out` — sessions, in-flight rounds, timers. Called by a runtime's
    /// watchdog path (see [`Dumper`]) from the actor's own thread, so
    /// implementations may read any owned state.
    /// The default writes nothing.
    fn describe(&self, out: &mut String) {
        let _ = out;
    }
}

/// What an actor needs from its scheduler after an [`Actor::on_tick`].
///
/// The contract, from the actor's side:
///
/// * `next_deadline` must cover **every** reason the actor could have to
///   act without a new envelope arriving: a retransmission scan, a release
///   timeout, a back-off expiry, a periodic sweep. Anything it leaves out
///   simply never happens on an idle node. [`Wakeup::NEVER`]
///   (`u64::MAX`) means "nothing is scheduled": only an envelope or an
///   outside wake will bring the next call.
/// * Lateness is legal. A runtime may call after the deadline (a busy
///   worker, a descheduled thread, a sleeping replica); the actor compares
///   `now` with its own due-times and must not assume the call is punctual.
///   Earliness is legal too: a call before the deadline finds nothing due
///   and must leave the actor's state as it was.
/// * `more_now` is for work another call could start **immediately** — a
///   session that stopped at its per-tick budget with more queued. The
///   runtime goes round again without parking; it is not a way to poll.
/// * `kick_siblings` is for state the actors of one node share: an actor's
///   deadline is computed from what it saw, so an actor that changes what
///   its siblings' deadlines were computed from says so, and the runtime
///   makes their next tick due at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wakeup {
    /// Another `on_tick` right away would start more work.
    pub more_now: bool,
    /// Scheduler-clock time (ns) of the earliest timer the actor holds;
    /// [`Wakeup::NEVER`] when it holds none.
    pub next_deadline: u64,
    /// This step changed node-shared state the other workers of the node
    /// wait on (for Kite: the suspected set, the membership): call their
    /// `on_tick` as soon as possible, whatever deadline they last gave.
    pub kick_siblings: bool,
}

impl Wakeup {
    /// The `next_deadline` of an actor with no timer armed.
    pub const NEVER: u64 = u64::MAX;

    /// Nothing to do until an envelope (or an outside wake) arrives.
    pub const IDLE: Wakeup = Wakeup::at(Wakeup::NEVER);

    /// More work can start right now.
    pub const AGAIN: Wakeup = Wakeup { more_now: true, ..Wakeup::IDLE };

    /// Nothing to do before `next_deadline`.
    pub const fn at(next_deadline: u64) -> Wakeup {
        Wakeup { more_now: false, next_deadline, kick_siblings: false }
    }

    /// The time a scheduler should make its next call at: `0` (as soon as
    /// possible) while `more_now`, the deadline otherwise.
    #[inline]
    pub fn due(self) -> u64 {
        if self.more_now {
            0
        } else {
            self.next_deadline
        }
    }
}

/// Monotonic wall-clock time since a **process-wide** origin: every
/// `WallClock` of one process reads the same time base, so stamps taken by
/// the nodes of an in-process cluster (`invoked_at`/`completed_at` of the
/// same history) order across nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClock;

/// The instant every [`WallClock`] counts from (fixed by the first one).
static ORIGIN: OnceLock<Instant> = OnceLock::new();

impl WallClock {
    /// The process clock; fixes the origin if no clock has yet.
    pub fn new() -> Self {
        ORIGIN.get_or_init(Instant::now);
        WallClock
    }

    /// Nanoseconds since the process-wide origin.
    #[inline]
    pub fn now(&self) -> u64 {
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Ends the park of one or more worker loops, from any thread: what a
/// client handle, a stop request or a watchdog holds in place of a timer
/// the loops do not have.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Asks every worker of a runtime for a one-time diagnostics dump: each
/// prints an [`Actor::describe`] snapshot of its own state to stderr from
/// its own thread — the watchdog's view into otherwise thread-owned
/// protocol state when a test wedges. Clonable, so a watchdog thread can
/// hold one.
#[derive(Clone)]
pub struct Dumper {
    flag: Arc<AtomicBool>,
    wake_all: Wake,
}

impl Dumper {
    /// A dumper over `flag` that wakes the loops watching it with `wake_all`.
    pub fn new(flag: Arc<AtomicBool>, wake_all: Wake) -> Dumper {
        Dumper { flag, wake_all }
    }

    /// Raise the flag and end every worker's park so it is seen now.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        (self.wake_all)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // A second clock shares the origin: it never reads behind the first.
        assert!(WallClock::new().now() >= b);
    }

    // A trivial actor used to confirm object-safety and default idle.
    struct Echo {
        me: NodeId,
        got: usize,
    }

    impl Actor for Echo {
        type Msg = u32;

        fn on_envelope(
            &mut self,
            src: NodeId,
            _mepoch: u32,
            msgs: &mut Vec<u32>,
            _now: u64,
            out: &mut Outbox<u32>,
        ) {
            self.got += msgs.len();
            for m in msgs.drain(..) {
                out.send(src, m + 1);
            }
        }

        fn on_tick(&mut self, _now: u64, _out: &mut Outbox<u32>) -> Wakeup {
            Wakeup::IDLE
        }

        fn is_idle(&self) -> bool {
            self.me.0 > 0 // arbitrary: node 0 is never idle
        }
    }

    #[test]
    fn actor_contract_smoke() {
        let mut a = Echo { me: NodeId(1), got: 0 };
        let mut out = Outbox::new(2);
        a.on_envelope(NodeId(0), 0, &mut vec![1, 2], 0, &mut out);
        assert_eq!(a.got, 2);
        let mut echoed = Vec::new();
        out.flush(|d, b| echoed.push((d, b)));
        assert_eq!(echoed, vec![(NodeId(0), vec![2, 3])]);
        assert!(a.is_idle());
        assert_eq!(a.on_tick(0, &mut out), Wakeup::IDLE);
    }

    #[test]
    fn a_wakeup_is_due_at_once_while_more_can_start() {
        assert_eq!(Wakeup::at(700).due(), 700);
        assert_eq!(Wakeup { more_now: true, ..Wakeup::at(700) }.due(), 0);
        assert_eq!(Wakeup::IDLE.due(), Wakeup::NEVER);
        assert_eq!(Wakeup::AGAIN.due(), 0);
    }
}
