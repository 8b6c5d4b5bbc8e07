//! The simulation world: actors, one event queue, and FIFO links.

use crate::linkstate::LinkState;
use crate::obs::Observation;
use crate::stats::SimStats;
use crate::{LinkFault, LinkModel, SimTime};
use flexcast_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a simulated process (index into the actor table).
pub type ProcessId = usize;

/// A simulated process.
///
/// Actors are deterministic state machines: all interaction with the world
/// happens through the [`Ctx`] handed to each callback. Protocol engines
/// (FlexCast, Skeen, hierarchical) and workload clients both implement this
/// trait in higher crates.
pub trait Actor<M> {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called when a message arrives.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, M>) {}
}

/// One buffered side effect: a point-to-point send, a fan-out, or a
/// control-plane send (no service occupancy). The point-to-point kinds
/// carry the encoded size their sender attached, if any (see
/// [`Ctx::send_sized`]).
enum SendOp<M> {
    One(ProcessId, M, Option<u32>),
    Many(Vec<ProcessId>, M),
    Control(ProcessId, M, Option<u32>),
}

/// Side-effect collector passed to actor callbacks.
///
/// Sends and timers are buffered and applied by the world after the
/// callback returns, which keeps actor code free of world borrows. The
/// buffers live on the world and are reused across callbacks, so steady
/// state allocates nothing here.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: ProcessId,
    /// What [`Ctx::incoming_bytes`] answers during this callback.
    incoming_bytes: Option<u32>,
    sends: &'a mut Vec<SendOp<M>>,
    timers: &'a mut Vec<(SimTime, u64)>,
    observations: &'a mut Vec<Observation>,
    probes: bool,
    telemetry: &'a Telemetry,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor being invoked.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Sends `msg` to `to`; it will arrive after the link delay.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push(SendOp::One(to, msg, None));
    }

    /// [`Ctx::send`] for a sender that has already computed the encoded
    /// size of `msg`: `bytes` rides with the message (on both deliveries,
    /// if a duplication fault fires) and the receiver reads it back from
    /// [`Ctx::incoming_bytes`] instead of sizing the message a second
    /// time. The world never interprets the number.
    pub fn send_sized(&mut self, to: ProcessId, msg: M, bytes: u32) {
        self.sends.push(SendOp::One(to, msg, Some(bytes)));
    }

    /// The size the sender attached to the message being delivered
    /// ([`Ctx::send_sized`] / [`Ctx::send_control_sized`]). `None` when
    /// the sender attached none ([`Ctx::send`], [`Ctx::send_many`],
    /// [`Ctx::send_control`], [`World::inject`]) and in `on_start` and
    /// `on_timer`, which deliver no message.
    pub fn incoming_bytes(&self) -> Option<u32> {
        self.incoming_bytes
    }

    /// Fans `msg` out to every process in `targets`, in order. Equivalent
    /// to one [`Ctx::send`] per target, except that the world samples each
    /// link's partition/drop fate *before* cloning, so a message bound for
    /// a dead link is never copied — and the last delivering target takes
    /// the original without any clone at all.
    pub fn send_many(&mut self, targets: Vec<ProcessId>, msg: M) {
        self.sends.push(SendOp::Many(targets, msg));
    }

    /// Sends `msg` to `to` as *control-plane* traffic: it experiences the
    /// link delay, jitter, FIFO clamping, partitions, and faults like any
    /// other message, but does not occupy the receiver's serial service
    /// time. Use for small background/piggyback messages (e.g. FlexCast
    /// watermark advertisements) that a real deployment would process off
    /// the request path — charging them a full service slot would let one
    /// in-flight WAN control message head-of-line block the receiver.
    pub fn send_control(&mut self, to: ProcessId, msg: M) {
        self.sends.push(SendOp::Control(to, msg, None));
    }

    /// [`Ctx::send_control`] carrying the sender-computed encoded size,
    /// as [`Ctx::send_sized`] does for data-plane sends.
    pub fn send_control_sized(&mut self, to: ProcessId, msg: M, bytes: u32) {
        self.sends.push(SendOp::Control(to, msg, Some(bytes)));
    }

    /// Schedules [`Actor::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((self.now + delay, token));
    }

    /// Publishes a typed observation to the world's observation buffer
    /// (see [`crate::obs`]). A no-op unless probes are enabled, so
    /// undriven runs pay nothing. Publishing is pure data flow: it draws
    /// no randomness and schedules no events, so it never perturbs the
    /// execution.
    pub fn observe(&mut self, obs: Observation) {
        if self.probes {
            self.observations.push(obs);
        }
    }

    /// The world's telemetry handle (see [`World::set_telemetry`]).
    /// Disabled by default, in which case every recording call on it is
    /// a single-branch no-op — actors can instrument unconditionally, or
    /// check [`Telemetry::is_enabled`] to skip argument construction.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }
}

enum Event<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        /// The sender-attached encoded size ([`Ctx::send_sized`]).
        bytes: Option<u32>,
    },
    Timer {
        pid: ProcessId,
        token: u64,
    },
    Start {
        pid: ProcessId,
    },
}

impl<M> Event<M> {
    /// The process this event executes on, whose shard label counts it.
    fn target(&self) -> ProcessId {
        match self {
            Event::Deliver { to, .. } => *to,
            Event::Timer { pid, .. } | Event::Start { pid } => *pid,
        }
    }
}

/// An entry of the world's event queue, payload stored inline: ordering
/// ignores the payload entirely, comparing only `(at, seq)`. Keeping the
/// payload in the heap entry kills the seed's side `HashMap<u64, Event<M>>`
/// — one heap push/pop per event instead of a push/pop plus two hashed
/// probes.
struct HeapEntry<M> {
    at: SimTime,
    seq: u64,
    ev: Event<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for HeapEntry<M> {}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The fate of one routed send, decided before any payload is cloned.
#[derive(Clone, Copy)]
enum SendFate {
    /// Blocked link or sampled drop: the message never enters the queue.
    Dropped,
    /// Normal delivery at `at`.
    Deliver { at: SimTime },
    /// A duplication fault fired: two deliveries.
    DeliverDup { dup_at: SimTime, at: SimTime },
}

/// Accepted by [`World::set_shard_execution`], which ignores it: a world
/// has one event queue and shards are only labels (see
/// [`World::set_shards`]). The variants stay because the `flexbench`
/// benchmark names them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShardExecution {
    /// No effect.
    #[default]
    Auto,
    /// No effect.
    Inline,
    /// No effect.
    Threads,
}

/// A deterministic discrete-event world hosting actors of type `A`.
///
/// Guarantees:
///
/// * **Determinism** — identical seeds and actor behaviour produce
///   identical executions (the event queue breaks ties by sequence number).
/// * **FIFO links** — messages between a given pair of processes are
///   delivered in send order even under jitter (delays are clamped to be
///   monotone per link), matching the paper's FIFO reliable channels.
/// * **Reliability** — messages to *up* processes are never lost; messages
///   to crashed processes are silently dropped (crash-stop model).
///
/// All of the above can be selectively broken for chaos experiments: links
/// can be blocked (partitions, [`World::block_link`]) or given a
/// probabilistic [`LinkFault`] (drop/duplicate/reorder/latency spike,
/// [`World::set_link_fault`]). Fault sampling draws from the same seeded
/// RNG as jitter, and only on faulty links, so fault-free runs replay
/// byte-identically with or without the fault machinery.
pub struct World<M, A: Actor<M>> {
    actors: Vec<A>,
    link: LinkModel,
    now: SimTime,
    seq: u64,
    /// The event queue, payloads inline (see [`HeapEntry`]).
    queue: BinaryHeap<Reverse<HeapEntry<M>>>,
    /// Each process's shard label (see [`World::set_shards`]).
    label: Vec<usize>,
    /// Flat per-link state: FIFO clamps, partitions, faults, service.
    links: LinkState,
    down: Vec<bool>,
    rng: StdRng,
    delivered_events: u64,
    /// Events committed per label since the labels were last set.
    events_by_shard: Vec<u64>,
    sent_messages: u64,
    dropped_messages: u64,
    peak_queue_depth: usize,
    /// Reusable per-callback scratch buffers (see [`Ctx`]).
    scratch_sends: Vec<SendOp<M>>,
    scratch_timers: Vec<(SimTime, u64)>,
    /// Reusable fate buffer for [`Ctx::send_many`] routing.
    scratch_fates: Vec<SendFate>,
    /// Published-but-undrained observations; only filled when `probes`.
    observations: Vec<Observation>,
    /// Observation publishing gate (see [`World::enable_probes`]).
    probes: bool,
    /// Telemetry handle exposed to actors via [`Ctx::telemetry`].
    /// Disabled by default (see [`World::set_telemetry`]).
    telemetry: Telemetry,
}

impl<M: Clone, A: Actor<M>> World<M, A> {
    /// Creates a world over `actors` with the given link model and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the link model does not cover every actor.
    pub fn new(actors: Vec<A>, link: LinkModel, seed: u64) -> Self {
        assert_eq!(
            actors.len(),
            link.len(),
            "link model must cover every actor"
        );
        let n = actors.len();
        let mut w = World {
            actors,
            link,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::with_capacity(4 * n),
            label: vec![0; n],
            links: LinkState::new(n),
            down: vec![false; n],
            rng: StdRng::seed_from_u64(seed),
            delivered_events: 0,
            events_by_shard: vec![0],
            sent_messages: 0,
            dropped_messages: 0,
            peak_queue_depth: 0,
            scratch_sends: Vec::with_capacity(16),
            scratch_timers: Vec::with_capacity(4),
            scratch_fates: Vec::with_capacity(8),
            observations: Vec::new(),
            probes: false,
            telemetry: Telemetry::disabled(),
        };
        for pid in 0..n {
            w.push(SimTime::ZERO, Event::Start { pid });
        }
        w
    }

    fn push(&mut self, at: SimTime, ev: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(HeapEntry { at, seq, ev }));
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Labels every process with one of `k` shards, cut from the link
    /// model's sites in contiguous blocks: site rank `r` of `n_sites` gets
    /// label `r·k/n_sites`, so co-located processes share a label. `k` is
    /// clamped to `[1, n_sites]`, so no label is empty and `0` means one.
    /// Labels only attribute committed events in
    /// [`SimStats::events_by_shard`], whose counts restart here; the world
    /// keeps one event queue, so they never change the execution.
    pub fn set_shards(&mut self, k: usize) {
        let sites: Vec<usize> = (0..self.link.len())
            .map(|p| self.link.site(p).index())
            .collect();
        let n_sites = sites.iter().max().map_or(1, |&s| s + 1);
        let k = k.clamp(1, n_sites);
        self.label = sites.iter().map(|&s| s * k / n_sites).collect();
        self.events_by_shard = vec![0; k];
    }

    /// Accepts a [`ShardExecution`] and changes nothing. Kept because the
    /// `flexbench` benchmark calls it.
    pub fn set_shard_execution(&mut self, _exec: ShardExecution) {}

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to an actor (for inspection and metrics).
    pub fn actor(&self, pid: ProcessId) -> &A {
        &self.actors[pid]
    }

    /// Mutable access to an actor (for test instrumentation).
    pub fn actor_mut(&mut self, pid: ProcessId) -> &mut A {
        &mut self.actors[pid]
    }

    /// Number of actors in the world.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if the world hosts no actors.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Total messages sent so far (including ones later dropped at crashed
    /// destinations).
    pub fn sent_messages(&self) -> u64 {
        self.sent_messages
    }

    /// Total events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.delivered_events
    }

    /// Messages lost to partitions, link faults, or crashed destinations.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// The deepest the event queue has been so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Turns on the observation plane: from now on, [`Ctx::observe`]
    /// buffers observations for a driver to [`World::drain_observations`].
    /// Off by default so undriven runs never accumulate anything.
    pub fn enable_probes(&mut self) {
        self.probes = true;
    }

    /// Moves every buffered observation into `into`, sorted by
    /// observation time with publish order (which follows the
    /// deterministic event order) breaking ties.
    ///
    /// Actors supply the `at` on each [`Observation`] themselves, so a
    /// buffer can hold observations whose times run backwards — e.g. an
    /// actor reporting a state change it detected *after* processing a
    /// batch, stamped with the earlier cause time. Adversaries trigger on
    /// the drained sequence, so it must present one deterministic
    /// timeline: `(at, publish order)`, never raw emit order.
    pub fn drain_observations(&mut self, into: &mut Vec<Observation>) {
        // Stable: equal-time observations keep publish (event) order.
        self.observations.sort_by_key(|o| o.at());
        into.append(&mut self.observations);
    }

    /// Installs a telemetry handle, shared with the driver via clone.
    /// Like the observation plane, telemetry is disabled by default and
    /// recording through a disabled handle is a single-branch no-op, so
    /// undriven runs pay nothing. Telemetry draws no randomness and
    /// schedules no events, so it never perturbs the execution.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle (disabled unless
    /// [`World::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The scheduled time of the earliest queued event, if any. Drivers
    /// use this to decide whether a pending external action (e.g. a fault)
    /// fires before the simulation's own next step.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Snapshot of the run's throughput counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            events: self.delivered_events,
            sent_messages: self.sent_messages,
            dropped_messages: self.dropped_messages,
            peak_queue_depth: self.peak_queue_depth,
            sim_time: self.now,
            events_by_shard: self.events_by_shard.clone(),
        }
    }

    /// Marks a process as crashed (messages to it are dropped) or back up.
    /// Crash-stop with restart is all the SMR substrate needs: a restarted
    /// replica rejoins with its pre-crash state intact. Bringing a crashed
    /// process back up re-enqueues its [`Actor::on_start`] at the current
    /// time — the restart hook a recovering replica uses to re-arm timers
    /// that were dropped while it was down.
    pub fn set_down(&mut self, pid: ProcessId, down: bool) {
        let was_down = self.down[pid];
        self.down[pid] = down;
        if was_down && !down {
            self.push(self.now, Event::Start { pid });
        }
    }

    /// Severs the directed link `from → to`: every message sent on it is
    /// dropped until [`World::unblock_link`]. Building block for symmetric
    /// and asymmetric partitions.
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.links.set_blocked(from, to, true);
    }

    /// Restores a severed link.
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.links.set_blocked(from, to, false);
    }

    /// True if the directed link is currently severed.
    pub fn is_blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        self.links.is_blocked(from, to)
    }

    /// Symmetric partition: severs every link between the `a` side and the
    /// `b` side, in both directions. Links within each side are untouched.
    pub fn partition(&mut self, a: &[ProcessId], b: &[ProcessId]) {
        for &x in a {
            for &y in b {
                self.block_link(x, y);
                self.block_link(y, x);
            }
        }
    }

    /// Heals a symmetric partition created by [`World::partition`].
    pub fn heal(&mut self, a: &[ProcessId], b: &[ProcessId]) {
        for &x in a {
            for &y in b {
                self.unblock_link(x, y);
                self.unblock_link(y, x);
            }
        }
    }

    /// Installs (or replaces) a probabilistic fault on the directed link
    /// `from → to`. A [`LinkFault::is_none`] fault clears the entry.
    ///
    /// # Panics
    ///
    /// Panics if a probability lies outside `[0, 1]`.
    pub fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        fault.validate();
        self.links.set_fault(from, to, fault);
    }

    /// The fault currently installed on a link, if any.
    pub fn link_fault(&self, from: ProcessId, to: ProcessId) -> Option<LinkFault> {
        let f = self.links.fault(from, to);
        if f.is_none() {
            None
        } else {
            Some(f)
        }
    }

    /// Removes every probabilistic link fault (partitions are unaffected).
    pub fn clear_link_faults(&mut self) {
        self.links.clear_faults();
    }

    /// True if the process is currently crashed.
    pub fn is_down(&self, pid: ProcessId) -> bool {
        self.down[pid]
    }

    /// Injects a message from the outside world (e.g. a test harness acting
    /// as a client that is not itself simulated). Subject to partitions and
    /// link faults like any other send.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.route_send(from, to, msg, None, false);
    }

    /// Applies partitions and link faults to one send — sampling the fate
    /// *before* the caller-visible payload handling, so dropped messages
    /// are never cloned — and returns the scheduled arrival time(s). A
    /// send to a pid this world does not host is dropped.
    #[inline]
    fn plan_send(&mut self, from: ProcessId, to: ProcessId, control: bool) -> SendFate {
        self.sent_messages += 1;
        // `link` covers every pid this world hosts.
        if to >= self.link.len() || self.links.is_blocked(from, to) {
            self.dropped_messages += 1;
            return SendFate::Dropped;
        }
        let fault = self.links.fault(from, to);
        let mut dup_at = None;
        if !fault.is_none() {
            if fault.drop > 0.0 && self.rng.random::<f64>() < fault.drop {
                self.dropped_messages += 1;
                return SendFate::Dropped;
            }
            if fault.dup > 0.0 && self.rng.random::<f64>() < fault.dup {
                dup_at = Some(self.arrival_time(from, to, fault, control));
                self.sent_messages += 1;
            }
        }
        let at = self.arrival_time(from, to, fault, control);
        match dup_at {
            Some(dup_at) => SendFate::DeliverDup { dup_at, at },
            None => SendFate::Deliver { at },
        }
    }

    /// Applies one buffered send of `from`'s callback.
    fn apply_send(&mut self, from: ProcessId, op: SendOp<M>) {
        match op {
            SendOp::One(to, msg, bytes) => self.route_send(from, to, msg, bytes, false),
            SendOp::Many(targets, msg) => self.route_fanout(from, &targets, msg),
            SendOp::Control(to, msg, bytes) => self.route_send(from, to, msg, bytes, true),
        }
    }

    /// Routes one owned send, scheduling zero, one, or two delivery
    /// events.
    fn route_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        bytes: Option<u32>,
        control: bool,
    ) {
        let fate = self.plan_send(from, to, control);
        self.schedule(from, to, fate, msg, bytes);
    }

    /// Queues the delivery events of one planned send; a duplicated
    /// delivery queues a clone first, and both copies carry `bytes`.
    fn schedule(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        fate: SendFate,
        msg: M,
        bytes: Option<u32>,
    ) {
        let deliver = |msg| Event::Deliver {
            from,
            to,
            msg,
            bytes,
        };
        match fate {
            SendFate::Dropped => {}
            SendFate::Deliver { at } => self.push(at, deliver(msg)),
            SendFate::DeliverDup { dup_at, at } => {
                self.push(dup_at, deliver(msg.clone()));
                self.push(at, deliver(msg));
            }
        }
    }

    /// Routes a fan-out ([`Ctx::send_many`]): every link's fate is sampled
    /// first (same RNG draw order as the equivalent per-target sends),
    /// then clones are made only for targets that actually receive a
    /// delivery event — the last *delivering* target consumes the
    /// original message, so k deliveries cost exactly k − 1 clones.
    fn route_fanout(&mut self, from: ProcessId, targets: &[ProcessId], msg: M) {
        let mut fates = std::mem::take(&mut self.scratch_fates);
        debug_assert!(fates.is_empty());
        for &to in targets {
            let fate = self.plan_send(from, to, false);
            fates.push(fate);
        }
        // Planning never touches the queue, so pushing afterwards keeps
        // event seq numbers identical to the interleaved ordering.
        let delivers = |f: &SendFate| !matches!(f, SendFate::Dropped);
        if let Some(last) = fates.iter().rposition(delivers) {
            for (&to, &fate) in targets.iter().zip(&fates[..last]) {
                if delivers(&fate) {
                    self.schedule(from, to, fate, msg.clone(), None);
                }
            }
            self.schedule(from, targets[last], fates[last], msg, None);
        }
        fates.clear();
        self.scratch_fates = fates;
    }

    fn arrival_time(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        fault: LinkFault,
        control: bool,
    ) -> SimTime {
        let mut delay = self.link.sample_delay(from, to, &mut self.rng);
        delay += fault.extra_delay;
        let reordered = fault.reorder > 0.0 && self.rng.random::<f64>() < fault.reorder;
        let mut at = self.now + delay;
        // FIFO clamp: never deliver before an earlier message on this link
        // — unless the link's reorder fault fires, in which case the
        // message may overtake (and does not advance the clamp either).
        if !reordered {
            let last = self.links.last_arrival(from, to);
            if at < last {
                at = last;
            }
        }
        // Serial service: the receiver handles one message at a time, each
        // occupying it for its configured service time. Control-plane
        // sends skip this ([`Ctx::send_control`]).
        let svc = self.link.service(to);
        if !control && svc > SimTime::ZERO {
            at = at.max(self.links.busy_until(to)) + svc;
            self.links.set_busy_until(to, at);
        }
        if !reordered {
            self.links.set_last_arrival(from, to, at);
        }
        at
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    ///
    /// [`World::run_until`] and [`World::run_to_quiescence`] are loops of
    /// it, and drivers that interleave steps with world mutation
    /// (observing adversaries) call it directly.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(HeapEntry { at, ev, .. })) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        self.delivered_events += 1;
        self.events_by_shard[self.label[ev.target()]] += 1;

        match ev {
            Event::Start { pid } => {
                if !self.down[pid] {
                    self.invoke(pid, None, |actor, ctx| actor.on_start(ctx));
                }
            }
            Event::Deliver {
                from,
                to,
                msg,
                bytes,
            } => {
                if self.down[to] {
                    self.dropped_messages += 1;
                } else {
                    self.invoke(to, bytes, |actor, ctx| actor.on_message(from, msg, ctx));
                }
            }
            Event::Timer { pid, token } => {
                if !self.down[pid] {
                    self.invoke(pid, None, |actor, ctx| actor.on_timer(token, ctx));
                }
            }
        }
        true
    }

    /// Runs one actor callback with the reusable scratch buffers, then
    /// applies the buffered sends and timers. `incoming_bytes` is the
    /// size carried by the message being delivered, if any.
    fn invoke(
        &mut self,
        pid: ProcessId,
        incoming_bytes: Option<u32>,
        f: impl FnOnce(&mut A, &mut Ctx<'_, M>),
    ) {
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        debug_assert!(sends.is_empty() && timers.is_empty());
        {
            let mut ctx = Ctx {
                now: self.now,
                me: pid,
                incoming_bytes,
                sends: &mut sends,
                timers: &mut timers,
                observations: &mut self.observations,
                probes: self.probes,
                telemetry: &self.telemetry,
            };
            f(&mut self.actors[pid], &mut ctx);
        }
        for op in sends.drain(..) {
            self.apply_send(pid, op);
        }
        for (at, token) in timers.drain(..) {
            self.push(at, Event::Timer { pid, token });
        }
        // Hand the (now empty) buffers back for the next callback.
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Runs until the queue drains or simulated time exceeds `deadline`,
    /// then advances the clock to `deadline` (so anything scheduled next —
    /// a fault event, an injected message, a restart — happens at the
    /// right simulated time even if the world went idle earlier).
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while self.next_event_time().is_some_and(|at| at <= deadline) {
            self.step();
            n += 1;
        }
        self.now = self.now.max(deadline);
        n
    }

    /// Runs until the event queue is empty (quiescence), up to `max_events`.
    /// Returns the number of events processed; panics if the limit is hit,
    /// which in a correct protocol signals a livelock.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
            assert!(
                n < max_events,
                "simulation did not quiesce after {max_events} events"
            );
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::LatencyMatrix;
    use flexcast_types::GroupId;

    /// Echo actor: replies to every `Ping(k)` with `Pong(k)`; the
    /// originator records arrival times.
    #[derive(Default)]
    struct Echo {
        got: Vec<(ProcessId, i32, SimTime)>,
        initial: Vec<(ProcessId, i32)>,
    }

    #[derive(Clone)]
    enum Msg {
        Ping(i32),
        Pong(i32),
    }

    impl Actor<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for (to, k) in self.initial.clone() {
                ctx.send(to, Msg::Ping(k));
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Ping(k) => ctx.send(from, Msg::Pong(k)),
                Msg::Pong(k) => self.got.push((from, k, ctx.now())),
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
            self.got.push((usize::MAX, token as i32, ctx.now()));
        }
    }

    fn two_site_world(actors: Vec<Echo>, jitter: f64) -> World<Msg, Echo> {
        let mut m = LatencyMatrix::zero(2);
        m.set_rtt(0, 1, 100.0);
        let sites = vec![GroupId(0), GroupId(1)];
        World::new(actors, LinkModel::new(m, sites, jitter), 7)
    }

    #[test]
    fn ping_pong_takes_one_rtt() {
        let a = Echo {
            initial: vec![(1, 5)],
            ..Default::default()
        };
        let b = Echo::default();
        let mut w = two_site_world(vec![a, b], 0.0);
        w.run_to_quiescence(100);
        let got = &w.actor(0).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1, 5);
        assert_eq!(got[0].2, SimTime::from_ms(100.0), "one full RTT");
    }

    #[test]
    fn fifo_holds_under_jitter() {
        // Send many pings; pongs must come back in order per link.
        let a = Echo {
            initial: (0..50).map(|k| (1usize, k)).collect(),
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 30.0);
        w.run_to_quiescence(10_000);
        let ks: Vec<i32> = w.actor(0).got.iter().map(|&(_, k, _)| k).collect();
        assert_eq!(ks, (0..50).collect::<Vec<_>>(), "FIFO per link");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mk = || {
            let a = Echo {
                initial: (0..20).map(|k| (1usize, k)).collect(),
                ..Default::default()
            };
            let mut w = two_site_world(vec![a, Echo::default()], 10.0);
            w.run_to_quiescence(10_000);
            w.actor(0)
                .got
                .iter()
                .map(|&(_, k, t)| (k, t.as_nanos()))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn crashed_process_drops_messages() {
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.set_down(1, true);
        w.run_to_quiescence(100);
        assert!(w.actor(0).got.is_empty(), "no pong from a crashed echo");
        assert!(w.is_down(1));
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        struct T;
        impl Actor<()> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimTime::from_ms(5.0), 42);
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ()>) {
                assert_eq!(token, 42);
                assert_eq!(ctx.now(), SimTime::from_ms(5.0));
            }
        }
        let m = LatencyMatrix::zero(1);
        let mut w = World::new(vec![T], LinkModel::new(m, vec![GroupId(0)], 0.0), 0);
        assert_eq!(w.run_to_quiescence(10), 2, "start + timer");
    }

    #[test]
    fn inject_counts_and_delivers() {
        let mut w = two_site_world(vec![Echo::default(), Echo::default()], 0.0);
        w.inject(0, 1, Msg::Ping(9));
        w.run_to_quiescence(100);
        assert_eq!(w.actor(0).got.len(), 1);
        assert!(w.sent_messages() >= 2);
        assert!(w.processed_events() >= 2);
    }

    #[test]
    fn service_time_serializes_a_receiver() {
        // Two pings sent back to back; with 10 ms service at the echo
        // node, the second pong returns 10 ms after the first.
        let a = Echo {
            initial: vec![(1, 1), (1, 2)],
            ..Default::default()
        };
        let mut m = LatencyMatrix::zero(2);
        m.set_rtt(0, 1, 100.0);
        let mut link = LinkModel::new(m, vec![GroupId(0), GroupId(1)], 0.0);
        link.set_service_ms(1, 10.0);
        let mut w = World::new(vec![a, Echo::default()], link, 7);
        w.run_to_quiescence(100);
        let times: Vec<f64> = w.actor(0).got.iter().map(|&(_, _, t)| t.as_ms()).collect();
        assert_eq!(times.len(), 2);
        // First ping: 50 link + 10 service = 60, pong back at 110.
        assert_eq!(times[0], 110.0);
        // Second ping arrives at 50 but waits for the server: 70 + 50.
        assert_eq!(times[1], 120.0);
    }

    #[test]
    fn blocked_link_drops_until_healed() {
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.partition(&[0], &[1]);
        assert!(w.is_blocked(0, 1) && w.is_blocked(1, 0));
        w.run_to_quiescence(100);
        assert!(w.actor(0).got.is_empty());
        assert_eq!(w.dropped_messages(), 1);

        // Healed: a re-injected ping flows again.
        w.heal(&[0], &[1]);
        w.inject(0, 1, Msg::Ping(2));
        w.run_to_quiescence(100);
        assert_eq!(w.actor(0).got.len(), 1);
    }

    #[test]
    fn drop_fault_loses_messages() {
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.set_link_fault(0, 1, LinkFault::dropping(1.0));
        w.run_to_quiescence(100);
        assert!(w.actor(0).got.is_empty(), "ping dropped on the way out");
        assert_eq!(w.dropped_messages(), 1);
        // Clearing restores the reliable link.
        w.set_link_fault(0, 1, LinkFault::NONE);
        assert_eq!(w.link_fault(0, 1), None);
        w.inject(0, 1, Msg::Ping(2));
        w.run_to_quiescence(100);
        assert_eq!(w.actor(0).got.len(), 1);
    }

    #[test]
    fn dup_fault_duplicates_messages() {
        let a = Echo {
            initial: vec![(1, 7)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.set_link_fault(
            0,
            1,
            LinkFault {
                dup: 1.0,
                ..LinkFault::NONE
            },
        );
        w.run_to_quiescence(100);
        // The ping arrives twice, so two pongs come back.
        assert_eq!(w.actor(0).got.len(), 2);
        assert!(w.actor(0).got.iter().all(|&(_, k, _)| k == 7));
    }

    #[test]
    fn spike_fault_delays_messages() {
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.set_link_fault(0, 1, LinkFault::spike_ms(40.0));
        w.run_to_quiescence(100);
        let got = &w.actor(0).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, SimTime::from_ms(140.0), "one RTT + 40 ms spike");
    }

    #[test]
    fn reorder_fault_breaks_fifo_deterministically() {
        let mk = |faulty: bool| {
            let a = Echo {
                initial: (0..50).map(|k| (1usize, k)).collect(),
                ..Default::default()
            };
            let mut w = two_site_world(vec![a, Echo::default()], 30.0);
            if faulty {
                w.set_link_fault(
                    0,
                    1,
                    LinkFault {
                        reorder: 1.0,
                        ..LinkFault::NONE
                    },
                );
            }
            w.run_to_quiescence(10_000);
            w.actor(0)
                .got
                .iter()
                .map(|&(_, k, _)| k)
                .collect::<Vec<i32>>()
        };
        let clean = mk(false);
        assert_eq!(clean, (0..50).collect::<Vec<_>>(), "clean link is FIFO");
        let shuffled = mk(true);
        assert_ne!(shuffled, clean, "reorder fault lets messages overtake");
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, clean, "no loss, only reordering");
        assert_eq!(mk(true), shuffled, "same seed, same shuffle");
    }

    /// `n_sites` sites of `per_site` processes each, 20 ms apart; only
    /// `pinger` (if any) sends: one ping to itself, so its label counts
    /// two events beyond every process's start.
    fn sites_world(n_sites: usize, per_site: usize, pinger: Option<ProcessId>) -> World<Msg, Echo> {
        let mut m = LatencyMatrix::zero(n_sites);
        for a in 0..n_sites {
            for b in (a + 1)..n_sites {
                m.set_rtt(a, b, 20.0);
            }
        }
        let sites = (0..n_sites)
            .flat_map(|s| std::iter::repeat_n(GroupId(s as u16), per_site))
            .collect();
        let mut actors: Vec<Echo> = (0..n_sites * per_site).map(|_| Echo::default()).collect();
        if let Some(p) = pinger {
            actors[p].initial.push((p, 0));
        }
        World::new(actors, LinkModel::new(m, sites, 0.0), 1)
    }

    /// The label of every process at `k` labels, read back from
    /// `events_by_shard`: the one label whose count the process's
    /// self-ping moves.
    fn labels(n_sites: usize, per_site: usize, k: usize) -> Vec<usize> {
        let counts = |pinger| {
            let mut w = sites_world(n_sites, per_site, pinger);
            w.set_shards(k);
            w.run_to_quiescence(100);
            w.stats().events_by_shard
        };
        let idle = counts(None);
        (0..n_sites * per_site)
            .map(|p| {
                let busy = counts(Some(p));
                let moved: Vec<usize> = (0..idle.len()).filter(|&l| busy[l] != idle[l]).collect();
                assert_eq!(moved.len(), 1, "{busy:?} against {idle:?}");
                moved[0]
            })
            .collect()
    }

    #[test]
    fn a_new_world_counts_every_event_on_one_label() {
        let mut w = sites_world(3, 2, Some(4));
        assert_eq!(w.stats().events_by_shard, [0]);
        w.run_to_quiescence(100);
        assert_eq!(w.stats().events_by_shard, [w.stats().events]);
    }

    #[test]
    fn labels_cut_sites_into_contiguous_blocks() {
        assert_eq!(labels(4, 2, 2), [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(labels(3, 1, 3), [0, 1, 2]);
    }

    #[test]
    fn label_count_clamps_to_the_site_count() {
        let mut w = sites_world(2, 1, None);
        w.set_shards(8);
        assert_eq!(w.stats().events_by_shard.len(), 2, "no empty label");
        w.set_shards(0);
        assert_eq!(w.stats().events_by_shard.len(), 1, "zero means one label");
    }

    #[test]
    fn label_counts_sum_to_events() {
        let a = Echo {
            initial: (0..40).map(|k| (1usize, k)).collect(),
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 20.0);
        w.set_shards(2);
        w.run_to_quiescence(100_000);
        let s = w.stats();
        assert_eq!(s.events_by_shard.len(), 2);
        assert!(s.events_by_shard.iter().all(|&n| n > 0));
        assert_eq!(s.events_by_shard.iter().sum::<u64>(), s.events);
    }

    /// Setting labels mid-run restarts the counts and changes nothing
    /// else: the pong trace (values and nanosecond timestamps, under
    /// jitter that makes the RNG-draw order load-bearing) is the one an
    /// unlabelled run delivers.
    #[test]
    fn relabelling_mid_run_restarts_the_counts_and_keeps_the_trace() {
        let run = |relabel: bool| {
            let a = Echo {
                initial: (0..40).map(|k| (1usize, k)).collect(),
                ..Default::default()
            };
            let mut w = two_site_world(vec![a, Echo::default()], 20.0);
            let early = w.run_until(SimTime::from_ms(60.0));
            assert!(early > 0 && w.next_event_time().is_some(), "mid-run");
            if relabel {
                w.set_shards(2);
                assert_eq!(w.stats().events_by_shard, [0, 0]);
            }
            let late = w.run_to_quiescence(100_000);
            let s = w.stats();
            let counted: u64 = s.events_by_shard.iter().sum();
            assert_eq!(counted, if relabel { late } else { early + late });
            let trace: Vec<(i32, u64)> = w
                .actor(0)
                .got
                .iter()
                .map(|&(_, k, t)| (k, t.as_nanos()))
                .collect();
            (trace, s.events, s.peak_queue_depth)
        };
        assert_eq!(run(true), run(false));
    }

    /// Pings its peer on start and on every pong, up to `left` rounds,
    /// and counts pongs in a shared `Rc<Cell<_>>` (so the actor is not
    /// `Send`).
    struct RcCounter {
        peer: ProcessId,
        left: u32,
        pongs: std::rc::Rc<std::cell::Cell<u64>>,
        trace: Vec<(ProcessId, u64)>,
    }

    impl Actor<u32> for RcCounter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.left > 0 {
                ctx.send(self.peer, self.left);
            }
        }
        fn on_message(&mut self, from: ProcessId, k: u32, ctx: &mut Ctx<'_, u32>) {
            self.trace.push((from, ctx.now().as_nanos()));
            if self.left == 0 {
                ctx.send(from, k); // echo side
            } else {
                self.pongs.set(self.pongs.get() + 1);
                self.left -= 1;
                if self.left > 0 {
                    ctx.send(self.peer, self.left);
                }
            }
        }
    }

    /// A world of non-`Send` actors runs through both run loops.
    #[test]
    fn non_send_actors_run_in_one_world() {
        let pongs = std::rc::Rc::new(std::cell::Cell::new(0));
        let mk = |peer, left| RcCounter {
            peer,
            left,
            pongs: pongs.clone(),
            trace: Vec::new(),
        };
        let mut m = LatencyMatrix::zero(2);
        m.set_rtt(0, 1, 100.0);
        let link = LinkModel::new(m, vec![GroupId(0), GroupId(1)], 20.0);
        let mut w = World::new(vec![mk(1, 30), mk(0, 0)], link, 11);
        let early = w.run_until(SimTime::from_ms(1_000.0));
        let late = w.run_to_quiescence(10_000);
        assert_eq!(pongs.get(), 30, "every round trip completed");
        assert!(early > 0 && late > 0, "both loops ran events");
        assert_eq!(w.actor(0).trace.len(), 30);
        assert_eq!(w.actor(1).trace.len(), 30);
        assert_eq!(w.stats().events, early + late);
    }

    /// Records what [`Ctx::incoming_bytes`] answered in every callback.
    /// Process 0 sends one message of each kind on start; `Kind::Timer`
    /// and `Kind::Start` tag the callbacks that deliver no message.
    #[derive(Default)]
    struct SizeProbe {
        seen: Vec<(Kind, Option<u32>)>,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Kind {
        Sized,
        ControlSized,
        Plain,
        Control,
        Many,
        Injected,
        Timer,
        Start,
    }

    impl Actor<Kind> for SizeProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Kind>) {
            self.seen.push((Kind::Start, ctx.incoming_bytes()));
            if ctx.me() == 0 {
                ctx.send_sized(1, Kind::Sized, 1450);
                ctx.send_control_sized(1, Kind::ControlSized, 7);
                ctx.send(1, Kind::Plain);
                ctx.send_control(1, Kind::Control);
                ctx.send_many(vec![1], Kind::Many);
                ctx.set_timer(SimTime::from_ms(1.0), 0);
            }
        }
        fn on_message(&mut self, _: ProcessId, kind: Kind, ctx: &mut Ctx<'_, Kind>) {
            self.seen.push((kind, ctx.incoming_bytes()));
        }
        fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_, Kind>) {
            self.seen.push((Kind::Timer, ctx.incoming_bytes()));
        }
    }

    /// A sized send reaches the receiver as `Some(bytes)` — on both
    /// deliveries when the link duplicates, and the same on a replay;
    /// every other way into a callback reads `None`.
    #[test]
    fn sized_sends_carry_their_size_to_the_receiver() {
        let run = |dup: bool| {
            let mut m = LatencyMatrix::zero(2);
            m.set_rtt(0, 1, 100.0);
            let link = LinkModel::new(m, vec![GroupId(0), GroupId(1)], 0.0);
            let mut w = World::new(vec![SizeProbe::default(), SizeProbe::default()], link, 7);
            if dup {
                w.set_link_fault(
                    0,
                    1,
                    LinkFault {
                        dup: 1.0,
                        ..LinkFault::NONE
                    },
                );
            }
            w.inject(0, 1, Kind::Injected);
            w.run_to_quiescence(1_000);
            (w.actor(0).seen.clone(), w.actor(1).seen.clone())
        };
        let expected = |kind| match kind {
            Kind::Sized => Some(1450),
            Kind::ControlSized => Some(7),
            _ => None,
        };
        for dup in [false, true] {
            let seq = run(dup);
            assert_eq!(seq.0, [(Kind::Start, None), (Kind::Timer, None)]);
            let copies = if dup { 2 } else { 1 };
            for kind in [
                Kind::Sized,
                Kind::ControlSized,
                Kind::Plain,
                Kind::Control,
                Kind::Many,
                Kind::Injected,
            ] {
                let got: Vec<_> = seq.1.iter().filter(|(k, _)| *k == kind).collect();
                assert_eq!(got.len(), copies, "{kind:?}, dup {dup}");
                assert!(got.iter().all(|(_, b)| *b == expected(kind)), "{got:?}");
            }
            assert_eq!(run(dup), seq, "replay, dup {dup}");
        }
    }

    #[test]
    fn run_until_advances_the_clock_past_quiescence() {
        // The world quiesces at 100 ms; a later run_until must still move
        // the clock so follow-up actions (fault events, restarts) happen
        // at the scheduled time, not at the stale quiescence time.
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.run_until(SimTime::from_ms(500.0));
        assert_eq!(w.now(), SimTime::from_ms(500.0));
        // A restart after idle time starts at the advanced clock.
        w.set_down(0, true);
        w.set_down(0, false);
        w.run_to_quiescence(100);
        let re_pong = w.actor(0).got.last().copied().unwrap();
        assert_eq!(re_pong.2, SimTime::from_ms(600.0), "500 ms idle + 1 RTT");
    }

    #[test]
    fn recovery_reinvokes_on_start() {
        // Echo's on_start re-sends its initial pings, so a crash+recover
        // of actor 0 produces a second round of pongs.
        let a = Echo {
            initial: vec![(1, 3)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.run_to_quiescence(100);
        assert_eq!(w.actor(0).got.len(), 1);
        w.set_down(0, true);
        w.set_down(0, false);
        w.run_to_quiescence(100);
        assert_eq!(w.actor(0).got.len(), 2, "restart hook re-ran on_start");
        // Bringing an already-up process "up" is a no-op.
        w.set_down(0, false);
        assert_eq!(w.run_to_quiescence(100), 0);
    }

    #[test]
    fn stats_report_throughput_counters() {
        let a = Echo {
            initial: (0..10).map(|k| (1usize, k)).collect(),
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        w.run_to_quiescence(1_000);
        let s = w.stats();
        assert_eq!(s.events, w.processed_events());
        assert_eq!(s.sent_messages, w.sent_messages());
        assert!(s.peak_queue_depth >= 10, "ten pings queued at once");
        assert_eq!(s.peak_queue_depth, w.peak_queue_depth());
        assert!(s.events_per_sec(1.0) > 0.0);
        assert_eq!(s.sim_time, w.now());
    }

    /// A message that counts how often it is cloned.
    #[derive(Default)]
    struct CloneCounted(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for CloneCounted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CloneCounted(self.0.clone())
        }
    }

    struct Fanner {
        targets: Vec<ProcessId>,
        counter: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        received: u32,
    }

    impl Actor<CloneCounted> for Fanner {
        fn on_start(&mut self, ctx: &mut Ctx<'_, CloneCounted>) {
            if !self.targets.is_empty() {
                ctx.send_many(self.targets.clone(), CloneCounted(self.counter.clone()));
            }
        }
        fn on_message(&mut self, _: ProcessId, _: CloneCounted, _: &mut Ctx<'_, CloneCounted>) {
            self.received += 1;
        }
    }

    fn fanout_world(
        blocked: &[(ProcessId, ProcessId)],
    ) -> (
        World<CloneCounted, Fanner>,
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mk = |targets: Vec<ProcessId>| Fanner {
            targets,
            counter: counter.clone(),
            received: 0,
        };
        let actors = vec![mk(vec![1, 2, 3]), mk(vec![]), mk(vec![]), mk(vec![])];
        let m = LatencyMatrix::zero(4);
        let sites = (0..4).map(|i| GroupId(i as u16)).collect();
        let mut w = World::new(actors, LinkModel::new(m, sites, 0.0), 3);
        for &(f, t) in blocked {
            w.block_link(f, t);
        }
        (w, counter)
    }

    #[test]
    fn send_many_clones_once_per_extra_delivery() {
        // Three delivering targets: the last takes the original, so only
        // two clones happen (the counter itself is cloned once per clone).
        let (mut w, counter) = fanout_world(&[]);
        w.run_to_quiescence(100);
        for pid in 1..=3 {
            assert_eq!(w.actor(pid).received, 1, "target {pid} got its copy");
        }
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "fan-out to k targets costs k − 1 clones"
        );
    }

    #[test]
    fn send_many_skips_clones_for_dead_links() {
        // First two targets blocked, only the last delivers: it takes the
        // original outright, so the blocked links cost zero clones — each
        // link's fate is sampled before the payload is touched.
        let (mut w, counter) = fanout_world(&[(0, 1), (0, 2)]);
        w.run_to_quiescence(100);
        assert_eq!(w.actor(1).received, 0);
        assert_eq!(w.actor(2).received, 0);
        assert_eq!(w.actor(3).received, 1);
        assert_eq!(w.dropped_messages(), 2);
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "dropped targets never clone"
        );
    }

    #[test]
    fn send_many_gives_original_to_last_delivering_target() {
        // The *last delivering* target takes the original even when later
        // targets drop: two deliveries cost exactly one clone.
        let (mut w, counter) = fanout_world(&[(0, 3)]);
        w.run_to_quiescence(100);
        assert_eq!(w.actor(1).received, 1);
        assert_eq!(w.actor(2).received, 1);
        assert_eq!(w.actor(3).received, 0);
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "k deliveries cost k − 1 clones regardless of trailing drops"
        );
    }

    #[test]
    fn send_many_clones_once_per_extra_delivery_when_a_link_duplicates() {
        // One duplicating link, in the middle or last: four deliveries
        // cost three clones either way.
        for dup_to in [2, 3] {
            let (mut w, counter) = fanout_world(&[]);
            let dup = LinkFault {
                dup: 1.0,
                ..LinkFault::NONE
            };
            w.set_link_fault(0, dup_to, dup);
            w.run_to_quiescence(100);
            for pid in 1..=3 {
                let copies = if pid == dup_to { 2 } else { 1 };
                assert_eq!(w.actor(pid).received, copies, "target {pid}");
            }
            assert_eq!(
                counter.load(std::sync::atomic::Ordering::Relaxed),
                3,
                "k deliveries cost k − 1 clones, duplicates included"
            );
        }
    }

    #[test]
    fn send_many_matches_per_target_sends() {
        // A fan-out must schedule exactly like the equivalent sequence of
        // point-to-point sends: same arrival times, same FIFO clamps.
        struct Single;
        impl Actor<u8> for Single {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.send(1, 1);
                ctx.send(2, 1);
            }
            fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Ctx<'_, u8>) {}
        }
        struct Many;
        impl Actor<u8> for Many {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.send_many(vec![1, 2], 1);
            }
            fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Ctx<'_, u8>) {}
        }
        let m = LatencyMatrix::zero(3);
        let sites: Vec<GroupId> = (0..3).map(|i| GroupId(i as u16)).collect();
        let mut w1 = World::new(
            vec![Single, Single, Single],
            LinkModel::new(m.clone(), sites.clone(), 3.0),
            9,
        );
        let mut w2 = World::new(vec![Many, Many, Many], LinkModel::new(m, sites, 3.0), 9);
        w1.run_to_quiescence(100);
        w2.run_to_quiescence(100);
        assert_eq!(w1.processed_events(), w2.processed_events());
        assert_eq!(w1.sent_messages(), w2.sent_messages());
    }

    /// Publishes a `Custom` observation for every pong received.
    struct Observer {
        peer: ProcessId,
        pings: u64,
    }

    impl Actor<u64> for Observer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for k in 0..self.pings {
                ctx.send(self.peer, k);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if self.pings == 0 {
                ctx.send(from, msg); // echo side
            } else {
                ctx.observe(crate::Observation::Custom {
                    pid: ctx.me(),
                    tag: 1,
                    value: msg,
                    at: ctx.now(),
                });
            }
        }
    }

    fn observer_world() -> World<u64, Observer> {
        let mut m = LatencyMatrix::zero(2);
        m.set_rtt(0, 1, 10.0);
        let a = Observer { peer: 1, pings: 3 };
        let b = Observer { peer: 0, pings: 0 };
        World::new(
            vec![a, b],
            LinkModel::new(m, vec![GroupId(0), GroupId(1)], 0.0),
            5,
        )
    }

    #[test]
    fn observations_are_gated_off_by_default() {
        let mut w = observer_world();
        w.run_to_quiescence(100);
        let mut got = Vec::new();
        w.drain_observations(&mut got);
        assert!(got.is_empty(), "no probes enabled, nothing buffered");
    }

    #[test]
    fn enabled_probes_buffer_in_event_order_and_drain_once() {
        let mut w = observer_world();
        w.enable_probes();
        w.run_to_quiescence(100);
        let mut got = Vec::new();
        w.drain_observations(&mut got);
        let values: Vec<u64> = got
            .iter()
            .map(|o| match *o {
                crate::Observation::Custom { value, pid, .. } => {
                    assert_eq!(pid, 0, "published by the pinger");
                    value
                }
                ref other => panic!("unexpected observation {other:?}"),
            })
            .collect();
        assert_eq!(values, vec![0, 1, 2], "FIFO pongs, publish order");
        assert_eq!(got[0].at(), SimTime::from_ms(10.0), "one RTT");
        let mut again = Vec::new();
        w.drain_observations(&mut again);
        assert!(again.is_empty(), "draining moves, not copies");
    }

    #[test]
    fn next_event_time_peeks_the_queue() {
        let mut w = observer_world();
        assert_eq!(w.next_event_time(), Some(SimTime::ZERO), "start events");
        w.run_to_quiescence(100);
        assert_eq!(w.next_event_time(), None, "quiescent");
    }

    #[test]
    fn probes_do_not_perturb_the_execution() {
        let run = |probes: bool| {
            let mut w = observer_world();
            if probes {
                w.enable_probes();
            }
            w.run_to_quiescence(100);
            (w.processed_events(), w.sent_messages(), w.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let a = Echo {
            initial: vec![(1, 1)],
            ..Default::default()
        };
        let mut w = two_site_world(vec![a, Echo::default()], 0.0);
        // Ping arrives at 50 ms, pong at 100 ms; stop before the pong.
        w.run_until(SimTime::from_ms(60.0));
        assert!(w.actor(0).got.is_empty());
        w.run_until(SimTime::from_ms(200.0));
        assert_eq!(w.actor(0).got.len(), 1);
    }
}
