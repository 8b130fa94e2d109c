//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a set of [`Endpoint`]s (transport senders/receivers),
//! a single bottleneck link with a pluggable queue discipline (the dumbbell
//! of Fig 1; drop-tail by default, any [`crate::aqm::QdiscSpec`] via
//! [`Engine::with_scenario`]), per-flow path delays, optional link
//! impairments, and a [`Trace`]. Endpoints interact with the world only
//! through [`Ctx`], which keeps the design single-threaded and
//! deterministic.

use crate::aqm::QueueDiscipline;
use crate::event::Event;
use crate::invariant::InvariantGuard;
use crate::link::{BottleneckConfig, PathSpec};
use crate::packet::{EndpointId, FlowId, Packet, PacketArena, PacketKind, ServiceId};
use crate::pcap::PcapWriter;
use crate::queue::{EnqueueResult, ServiceQueueStats};
use crate::scenario::{ImpairmentSpec, ScenarioSpec};
use crate::time::{serialization_time, SimDuration, SimTime};
use crate::trace::Trace;
use crate::wheel::TimingWheel;
use prudentia_obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An actor attached to the engine: a transport sender, receiver, or an
/// application driver. All callbacks receive a [`Ctx`] for interacting with
/// the network.
pub trait Endpoint {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A packet addressed to this endpoint was delivered.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// A timer set by this endpoint fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);
}

/// Seed-mixing constant for the impairment RNG, so its stream is
/// independent of the engine's main RNG under the same experiment seed.
const IMPAIRMENT_SEED_MIX: u64 = 0x1337_11FA_11AB_11E5;

/// State shared by all endpoints: the bottleneck, paths, loss model, RNG.
struct Network {
    config: BottleneckConfig,
    queue: Box<dyn QueueDiscipline>,
    /// Packet currently being serialized, with the queueing delay it saw.
    in_flight: Option<(Packet, SimDuration)>,
    /// Path delays indexed by `FlowId.0` — flow ids are dense (assigned
    /// sequentially by `register_flow`), so the per-send lookup is an
    /// array index instead of a hash.
    paths: Vec<PathSpec>,
    /// Storage for packets travelling between scheduler legs; events
    /// carry handles into it (see [`crate::packet::PacketArena`]).
    arena: PacketArena,
    /// Probability of a packet being lost upstream of the testbed
    /// ("background noise" external to the bottleneck, §3.1).
    external_loss_prob: f64,
    external_losses: u64,
    external_candidates: u64,
    /// Link impairments at the bottleneck (no-op for legacy scenarios).
    impairment: ImpairmentSpec,
    /// Packets lost to the impairment layer at the bottleneck egress.
    impairment_losses: u64,
    /// Dedicated RNG for impairment draws. The default (no-op) scenario
    /// never consults it, so legacy trials stay byte-identical; when it is
    /// consulted, the stream is independent of `rng` so enabling loss does
    /// not shift path-jitter draws.
    imp_rng: StdRng,
    /// The two services of the pair, for per-service queue samples.
    svc_pair: (ServiceId, ServiceId),
    rng: StdRng,
}

/// The endpoint-facing API: clock, packet injection, timers, randomness.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: EndpointId,
    events: &'a mut TimingWheel,
    net: &'a mut Network,
    trace: &'a mut Trace,
}

impl<'a> Ctx<'a> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the endpoint being dispatched.
    pub fn self_id(&self) -> EndpointId {
        self.self_id
    }

    /// Seeded randomness for stochastic application behaviour.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.net.rng
    }

    /// Read-only access to the trace (e.g. for apps sampling their own rate).
    pub fn trace(&self) -> &Trace {
        self.trace
    }

    /// Base (unloaded) RTT of `flow`'s path.
    pub fn base_rtt(&self, flow: FlowId) -> SimDuration {
        self.net
            .paths
            .get(flow.0 as usize)
            .map(|p| p.base_rtt())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Send a data packet towards the bottleneck queue. The packet may be
    /// lost upstream (external loss) before reaching the queue.
    pub fn send_data(&mut self, mut pkt: Packet) {
        debug_assert_eq!(pkt.kind, PacketKind::Data);
        pkt.sent_at = self.now;
        let path = *self
            .net
            .paths
            .get(pkt.flow.0 as usize)
            .expect("send_data: unknown flow — register_flow first");
        self.net.external_candidates += 1;
        if self.net.external_loss_prob > 0.0
            && self.net.rng.gen::<f64>() < self.net.external_loss_prob
        {
            self.net.external_losses += 1;
            return;
        }
        let handle = self.net.arena.alloc(pkt);
        self.events.schedule(
            self.now + path.to_bottleneck,
            Event::ArriveAtBottleneck(handle),
        );
    }

    /// Send a packet over the uncongested reverse path (ACKs).
    pub fn send_reverse(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.now;
        let path = *self
            .net
            .paths
            .get(pkt.flow.0 as usize)
            .expect("send_reverse: unknown flow");
        let handle = self.net.arena.alloc(pkt);
        self.events
            .schedule(self.now + path.ack_return, Event::Deliver(handle));
    }

    /// Deliver a packet to another endpoint after an arbitrary delay,
    /// bypassing the bottleneck entirely (control-plane style messaging).
    pub fn send_direct(&mut self, mut pkt: Packet, delay: SimDuration) {
        pkt.sent_at = self.now;
        let handle = self.net.arena.alloc(pkt);
        self.events
            .schedule(self.now + delay, Event::Deliver(handle));
    }

    /// Arrange for `on_timer(token)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.events.schedule(
            self.now + delay,
            Event::Timer {
                endpoint: self.self_id,
                token,
            },
        );
    }

    /// Arrange for `on_timer(token)` of a *different* endpoint to fire
    /// (used by application controllers to poke their flows).
    pub fn set_timer_for(&mut self, endpoint: EndpointId, delay: SimDuration, token: u64) {
        self.events
            .schedule(self.now + delay, Event::Timer { endpoint, token });
    }

    /// Record an application-level delivery into the trace.
    pub fn trace_mut(&mut self) -> &mut Trace {
        self.trace
    }
}

/// The simulation engine.
pub struct Engine {
    now: SimTime,
    events: TimingWheel,
    endpoints: Vec<Box<dyn Endpoint>>,
    net: Network,
    trace: Trace,
    pcap: Option<PcapWriter>,
    next_flow: u32,
    started: bool,
    events_processed: u64,
    /// Deliveries and timers addressed to an endpoint id that does not
    /// exist (see [`Engine::dropped_dispatches`]).
    dropped_dispatches: u64,
    /// Total queue occupancy (packets) at every sampling point. A private
    /// histogram — no locks in the event loop; higher layers merge it into
    /// a registry once per trial. Recording reads only `queue.len()`, so
    /// it cannot perturb simulation outcomes.
    queue_depth: Histogram,
    /// Samples per occupancy (index = packets queued) not yet folded into
    /// `queue_depth`. Depths are integers, so folding `n` samples of
    /// depth `d` at the end of [`Engine::run_until`] gives the histogram
    /// per-sample recording would, at an array increment per sample.
    depth_counts: Vec<u64>,
    /// The experiment seed and serialized scenario, kept for repro context
    /// in invariant-violation messages.
    seed: u64,
    scenario_json: String,
    /// Self-checks run after every event (see [`crate::invariant`]).
    /// `None` when checking is off (release builds by default). The guard
    /// only reads simulation state, so its presence cannot change outcomes.
    invariants: Option<InvariantGuard>,
}

impl Engine {
    /// Create an engine for the given bottleneck, seeding all randomness
    /// from `seed`. Uses the default scenario (drop-tail, no impairments) —
    /// the paper's testbed.
    pub fn new(config: BottleneckConfig, seed: u64) -> Self {
        Engine::with_scenario(config, &ScenarioSpec::default(), seed)
    }

    /// Create an engine whose bottleneck runs the given scenario: the
    /// scenario's queue discipline replaces drop-tail and its impairments
    /// (rate schedule, loss, jitter, reordering) act on the link.
    pub fn with_scenario(config: BottleneckConfig, scenario: &ScenarioSpec, seed: u64) -> Self {
        let scenario_json = scenario.to_json_compact();
        let invariants = crate::invariant::runtime_enabled()
            .then(|| InvariantGuard::from_json(scenario_json.clone(), seed));
        Engine {
            seed,
            scenario_json,
            now: SimTime::ZERO,
            events: TimingWheel::new(),
            endpoints: Vec::new(),
            net: Network {
                queue: scenario.qdisc.build(config.queue_capacity_pkts, seed),
                config,
                in_flight: None,
                paths: Vec::new(),
                arena: PacketArena::with_capacity(config.queue_capacity_pkts.min(4096)),
                external_loss_prob: 0.0,
                external_losses: 0,
                external_candidates: 0,
                impairment: scenario.impairment.clone(),
                impairment_losses: 0,
                imp_rng: StdRng::seed_from_u64(seed ^ IMPAIRMENT_SEED_MIX),
                svc_pair: (ServiceId(0), ServiceId(1)),
                rng: StdRng::seed_from_u64(seed),
            },
            trace: Trace::new(),
            pcap: None,
            next_flow: 0,
            started: false,
            events_processed: 0,
            dropped_dispatches: 0,
            queue_depth: Histogram::new(),
            depth_counts: Vec::new(),
            invariants,
        }
    }

    /// Force invariant checking on for this engine regardless of build
    /// flavour (release builds default to off). Used by `prudentia
    /// --validate` so the conformance sweep is guarded even when compiled
    /// with optimizations. Must run before the first event so the
    /// conservation ledger starts from zero; no-op if checking is already
    /// on.
    pub fn enable_invariants(&mut self) {
        if self.invariants.is_none() {
            assert!(
                !self.started,
                "enable_invariants must be called before the engine runs"
            );
            self.invariants = Some(InvariantGuard::from_json(
                self.scenario_json.clone(),
                self.seed,
            ));
        }
    }

    /// Whether this engine is running with invariant checks on.
    pub fn invariants_enabled(&self) -> bool {
        self.invariants.is_some()
    }

    /// The engine's packet-conservation ledger, when invariants are on:
    /// `(arrivals, dequeues, drops, queued)`. Tests assert
    /// `arrivals == dequeues + drops + queued` explicitly; the guard also
    /// re-checks it after every event.
    pub fn conservation_ledger(&self) -> Option<(u64, u64, u64, u64)> {
        self.invariants.as_ref().map(|g| {
            (
                g.arrivals(),
                g.dequeues(),
                self.net.queue.total_drops(),
                self.net.queue.len() as u64,
            )
        })
    }

    /// Capture packets leaving the bottleneck (the client-side view) as a
    /// libpcap file, like the PCAPs Prudentia publishes per experiment (§7).
    pub fn enable_pcap(&mut self) {
        self.pcap = Some(PcapWriter::new());
    }

    /// The capture, if [`Engine::enable_pcap`] was called.
    pub fn pcap(&self) -> Option<&PcapWriter> {
        self.pcap.as_ref()
    }

    /// Set the probability that a data packet is lost upstream of the
    /// bottleneck (default 0; Prudentia discards experiments where this
    /// exceeds 0.05%).
    pub fn set_external_loss(&mut self, prob: f64) {
        assert!((0.0..=1.0).contains(&prob));
        self.net.external_loss_prob = prob;
    }

    /// Declare which two services the queue samples should break out.
    pub fn set_service_pair(&mut self, a: ServiceId, b: ServiceId) {
        self.net.svc_pair = (a, b);
    }

    /// The id the next `add_endpoint` call will assign. Builders use this
    /// to wire mutually-referencing endpoint pairs (sender ⇄ receiver).
    pub fn next_endpoint_id(&self) -> EndpointId {
        EndpointId(self.endpoints.len() as u32)
    }

    /// Register an endpoint; returns its id.
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint>) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(ep);
        id
    }

    /// Register a flow with its path delays; returns its id.
    pub fn register_flow(&mut self, path: PathSpec) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        debug_assert_eq!(id.0 as usize, self.net.paths.len());
        self.net.paths.push(path);
        id
    }

    /// Register a flow with sub-millisecond path jitter drawn from the
    /// engine's seeded RNG. Real paths never have microsecond-identical
    /// delays; the jitter de-synchronizes flow phases so different trial
    /// seeds produce genuinely different trajectories (without it, a
    /// loss-free simulation never consults the RNG and every trial of a
    /// pair would be bit-identical).
    pub fn register_flow_jittered(&mut self, path: PathSpec) -> FlowId {
        let jitter = |rng: &mut StdRng| SimDuration::from_micros(rng.gen_range(0..500));
        let path = PathSpec {
            to_bottleneck: path.to_bottleneck + jitter(&mut self.net.rng),
            from_bottleneck: path.from_bottleneck + jitter(&mut self.net.rng),
            ack_return: path.ack_return + jitter(&mut self.net.rng),
        };
        self.register_flow(path)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Per-service bottleneck arrival/drop counters.
    pub fn queue_stats(&self, service: ServiceId) -> ServiceQueueStats {
        self.net.queue.service_stats(service)
    }

    /// Total external (upstream) losses injected so far and the number of
    /// packets that were subject to the loss draw.
    pub fn external_loss_stats(&self) -> (u64, u64) {
        (self.net.external_losses, self.net.external_candidates)
    }

    /// Packets lost to the scenario's impairment layer at the bottleneck
    /// egress (0 unless the scenario enables random loss).
    pub fn impairment_losses(&self) -> u64 {
        self.net.impairment_losses
    }

    /// Fraction of data packets lost externally to the testbed.
    pub fn external_loss_rate(&self) -> f64 {
        if self.net.external_candidates == 0 {
            0.0
        } else {
            self.net.external_losses as f64 / self.net.external_candidates as f64
        }
    }

    /// Total events processed (for benchmark instrumentation).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Packet-arena accounting: `(allocs, frees, live)`. The arena
    /// conserves handles — `allocs == frees + live` always — and `live`
    /// counts exactly the packets referenced by pending events.
    pub fn arena_stats(&self) -> (u64, u64, usize) {
        (
            self.net.arena.allocs(),
            self.net.arena.frees(),
            self.net.arena.live(),
        )
    }

    /// Packets and timers that were popped but could not be handed to an
    /// endpoint because their destination id names no endpoint. Endpoints
    /// are never removed and dispatch is not re-entrant, so anything but 0
    /// is a wiring bug (a flow built against the wrong endpoint id) that
    /// silently starves that flow; the [`InvariantGuard`] fails the trial
    /// on the first one.
    pub fn dropped_dispatches(&self) -> u64 {
        self.dropped_dispatches
    }

    /// Distribution of total bottleneck queue occupancy (in packets),
    /// sampled at every enqueue and transmit completion, up to the end of
    /// the last [`Engine::run_until`].
    pub fn queue_depth_histogram(&self) -> &Histogram {
        &self.queue_depth
    }

    /// The active queue discipline's stable identifier ("droptail",
    /// "codel", ...).
    pub fn qdisc_kind(&self) -> &'static str {
        self.net.queue.kind()
    }

    /// Packets the discipline has dropped so far (tail, early, and head
    /// drops combined).
    pub fn total_queue_drops(&self) -> u64 {
        self.net.queue.total_drops()
    }

    fn start_endpoints(&mut self) {
        for (idx, ep) in self.endpoints.iter_mut().enumerate() {
            let mut ctx = Ctx {
                now: self.now,
                self_id: EndpointId(idx as u32),
                events: &mut self.events,
                net: &mut self.net,
                trace: &mut self.trace,
            };
            ep.on_start(&mut ctx);
        }
    }

    fn maybe_start_tx(&mut self) {
        if self.net.in_flight.is_some() {
            return;
        }
        if let Some(pkt) = self.net.queue.dequeue(self.now) {
            if let Some(g) = self.invariants.as_mut() {
                g.on_dequeue();
            }
            let qdelay = self.now.saturating_since(pkt.enqueued_at);
            // Under a rate schedule the packet serializes at the rate in
            // effect when its transmission starts (piecewise-constant link).
            let rate = self
                .net
                .impairment
                .rate_at(self.now, self.net.config.rate_bps);
            let ser = serialization_time(pkt.size, rate);
            self.net.in_flight = Some((pkt, qdelay));
            self.events
                .schedule(self.now + ser, Event::BottleneckTxDone);
        }
    }

    fn sample_queue(&mut self) {
        let total = self.net.queue.len();
        if total >= self.depth_counts.len() {
            self.depth_counts.resize(total + 1, 0);
        }
        self.depth_counts[total] += 1;
        // The trace keeps one sample per 10 ms by default; skip the
        // per-service lookups for the samples it would discard.
        if self.trace.wants_queue_sample(self.now) {
            let (a, b) = self.net.svc_pair;
            let qa = self.net.queue.occupancy_of(a);
            let qb = self.net.queue.occupancy_of(b);
            self.trace.sample_queue(self.now, total, qa, qb);
        }
    }

    fn fold_depth_counts(&mut self) {
        for (depth, n) in self.depth_counts.iter_mut().enumerate() {
            if *n > 0 {
                self.queue_depth.record_n(depth as f64, *n);
                *n = 0;
            }
        }
    }

    fn dispatch_to_endpoint(&mut self, id: EndpointId, action: DispatchAction) {
        // The endpoint is borrowed in place: `Ctx` reaches only the other
        // fields of `self`, so no callback can reach `endpoints`.
        let Some(ep) = self.endpoints.get_mut(id.0 as usize) else {
            self.dropped_dispatches += 1;
            if let Some(g) = self.invariants.as_ref() {
                g.dispatch_dropped(id, self.endpoints.len());
            }
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            self_id: id,
            events: &mut self.events,
            net: &mut self.net,
            trace: &mut self.trace,
        };
        match action {
            DispatchAction::Packet(pkt) => ep.on_packet(pkt, &mut ctx),
            DispatchAction::Timer(token) => ep.on_timer(token, &mut ctx),
        }
    }

    /// Run the simulation until `until`, or until no events remain.
    pub fn run_until(&mut self, until: SimTime) {
        if !self.started {
            self.started = true;
            self.start_endpoints();
        }
        while let Some(at) = self.events.peek_time() {
            if at > until {
                break;
            }
            let (at, event) = self.events.pop().expect("peeked event vanished");
            debug_assert!(at >= self.now, "time went backwards");
            if let Some(g) = self.invariants.as_ref() {
                g.check_clock(at, self.now);
            }
            self.now = at;
            self.events_processed += 1;
            match event {
                Event::ArriveAtBottleneck(handle) => {
                    let mut pkt = self.net.arena.take(handle);
                    pkt.enqueued_at = self.now;
                    if let Some(g) = self.invariants.as_mut() {
                        g.on_arrival();
                    }
                    let res = self.net.queue.enqueue(pkt, self.now);
                    if res == EnqueueResult::Queued {
                        self.maybe_start_tx();
                    }
                    self.sample_queue();
                }
                Event::BottleneckTxDone => {
                    let (pkt, qdelay) = self
                        .net
                        .in_flight
                        .take()
                        .expect("TxDone with no packet in flight");
                    // Impairment layer at the bottleneck egress. Every draw
                    // is gated on its knob being enabled, so the default
                    // scenario never touches the impairment RNG.
                    if self.net.impairment.loss_prob > 0.0
                        && self.net.imp_rng.gen::<f64>() < self.net.impairment.loss_prob
                    {
                        self.net.impairment_losses += 1;
                        self.maybe_start_tx();
                        self.sample_queue();
                        continue;
                    }
                    self.trace
                        .on_delivered(self.now, pkt.service, pkt.size as u64, qdelay);
                    if let Some(pcap) = self.pcap.as_mut() {
                        pcap.record(self.now, &pkt);
                    }
                    let path = *self
                        .net
                        .paths
                        .get(pkt.flow.0 as usize)
                        .expect("unknown flow at egress");
                    let mut extra = SimDuration::ZERO;
                    if self.net.impairment.jitter > SimDuration::ZERO {
                        let ns = self.net.impairment.jitter.as_nanos();
                        extra += SimDuration::from_nanos(self.net.imp_rng.gen_range(0..ns));
                    }
                    if self.net.impairment.reorder_prob > 0.0
                        && self.net.imp_rng.gen::<f64>() < self.net.impairment.reorder_prob
                    {
                        // Held back long enough for later packets to pass it.
                        extra += self.net.impairment.reorder_extra;
                    }
                    let handle = self.net.arena.alloc(pkt);
                    self.events.schedule(
                        self.now + path.from_bottleneck + extra,
                        Event::Deliver(handle),
                    );
                    self.maybe_start_tx();
                    self.sample_queue();
                }
                Event::Deliver(handle) => {
                    let pkt = self.net.arena.take(handle);
                    let dst = pkt.dst;
                    self.dispatch_to_endpoint(dst, DispatchAction::Packet(pkt));
                }
                Event::Timer { endpoint, token } => {
                    self.dispatch_to_endpoint(endpoint, DispatchAction::Timer(token));
                }
            }
            if let Some(g) = self.invariants.as_mut() {
                g.check_queue(self.net.queue.as_ref());
            }
        }
        if self.now < until {
            self.now = until;
        }
        self.fold_depth_counts();
    }
}

enum DispatchAction {
    Packet(Packet),
    Timer(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends `n` back-to-back MTU packets at start; records ACK times.
    struct BlastSender {
        flow: FlowId,
        service: ServiceId,
        dst: EndpointId,
        n: u64,
        acks: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }

    impl Endpoint for BlastSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for seq in 0..self.n {
                let pkt = Packet::data(self.flow, self.service, self.dst, seq, 1500);
                ctx.send_data(pkt);
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            assert_eq!(pkt.kind, PacketKind::Ack);
            self.acks.borrow_mut().push((ctx.now(), pkt.seq));
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    /// ACKs every data packet straight back to the sender.
    struct Reflector {
        sender: EndpointId,
    }

    impl Endpoint for Reflector {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            let ack = Packet::ack(pkt.flow, pkt.service, self.sender, pkt.seq);
            ctx.send_reverse(ack);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    #[allow(clippy::type_complexity)]
    fn build(
        n: u64,
        rate_bps: f64,
        cap: usize,
    ) -> (Engine, Rc<RefCell<Vec<(SimTime, u64)>>>, FlowId) {
        let mut eng = Engine::new(
            BottleneckConfig {
                rate_bps,
                queue_capacity_pkts: cap,
            },
            42,
        );
        let flow = eng.register_flow(PathSpec::symmetric(SimDuration::from_millis(50)));
        let acks = Rc::new(RefCell::new(Vec::new()));
        // Ids are assigned in insertion order; sender is 0, receiver 1.
        let sender = Box::new(BlastSender {
            flow,
            service: ServiceId(0),
            dst: EndpointId(1),
            n,
            acks: Rc::clone(&acks),
        });
        let sender_id = eng.add_endpoint(sender);
        let recv = Box::new(Reflector { sender: sender_id });
        let recv_id = eng.add_endpoint(recv);
        assert_eq!(sender_id, EndpointId(0));
        assert_eq!(recv_id, EndpointId(1));
        (eng, acks, flow)
    }

    #[test]
    fn single_packet_rtt_is_base_rtt_plus_serialization() {
        let (mut eng, acks, _) = build(1, 8_000_000.0, 64);
        eng.run_until(SimTime::from_secs(2));
        let acks = acks.borrow();
        assert_eq!(acks.len(), 1);
        // base RTT 50ms + serialization 1.5ms at 8 Mbps.
        let expect = SimTime::from_micros(50_000 + 1_500);
        assert_eq!(acks[0].0, expect);
    }

    #[test]
    fn back_to_back_packets_pace_out_at_link_rate() {
        let (mut eng, acks, _) = build(10, 8_000_000.0, 64);
        eng.run_until(SimTime::from_secs(2));
        let acks = acks.borrow();
        assert_eq!(acks.len(), 10);
        // Consecutive ACKs separated by exactly one serialization time.
        for w in acks.windows(2) {
            assert_eq!(w[1].0 - w[0].0, SimDuration::from_micros(1500));
        }
    }

    #[test]
    fn queue_overflow_drops_excess() {
        // Capacity 4 but 10 packets blasted at once: 1 in service + 4 queued,
        // 5 dropped.
        let (mut eng, acks, _) = build(10, 8_000_000.0, 4);
        eng.run_until(SimTime::from_secs(2));
        assert_eq!(acks.borrow().len(), 5);
        assert_eq!(eng.queue_stats(ServiceId(0)).dropped_pkts, 5);
    }

    #[test]
    fn throughput_trace_counts_delivered_bytes() {
        let (mut eng, _acks, _) = build(10, 8_000_000.0, 64);
        eng.run_until(SimTime::from_secs(2));
        let tput = eng.trace().throughput(ServiceId(0)).unwrap();
        let total: u64 = tput.bins().iter().sum();
        assert_eq!(total, 10 * 1500);
    }

    #[test]
    fn external_loss_drops_fraction() {
        let mut eng = Engine::new(
            BottleneckConfig {
                rate_bps: 100e6,
                queue_capacity_pkts: 100_000,
            },
            7,
        );
        eng.set_external_loss(0.5);
        let flow = eng.register_flow(PathSpec::symmetric(SimDuration::from_millis(10)));
        let acks = Rc::new(RefCell::new(Vec::new()));
        let sender_id = eng.add_endpoint(Box::new(BlastSender {
            flow,
            service: ServiceId(0),
            dst: EndpointId(1),
            n: 1000,
            acks: Rc::clone(&acks),
        }));
        eng.add_endpoint(Box::new(Reflector { sender: sender_id }));
        eng.run_until(SimTime::from_secs(5));
        let (lost, total) = eng.external_loss_stats();
        assert_eq!(total, 1000);
        // With p = 0.5 over 1000 draws, falling outside 400..600 is ~1e-9.
        assert!((400..600).contains(&(lost as i64)), "lost={lost}");
        assert!((eng.external_loss_rate() - 0.5).abs() < 0.1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut eng = Engine::new(
                BottleneckConfig {
                    rate_bps: 10e6,
                    queue_capacity_pkts: 8,
                },
                seed,
            );
            eng.set_external_loss(0.1);
            let flow = eng.register_flow(PathSpec::symmetric(SimDuration::from_millis(20)));
            let acks = Rc::new(RefCell::new(Vec::new()));
            let sid = eng.add_endpoint(Box::new(BlastSender {
                flow,
                service: ServiceId(0),
                dst: EndpointId(1),
                n: 100,
                acks: Rc::clone(&acks),
            }));
            eng.add_endpoint(Box::new(Reflector { sender: sid }));
            eng.run_until(SimTime::from_secs(5));
            let out = acks.borrow().clone();
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    /// One packet blasted at an endpoint id nobody registered.
    fn miswired() -> Engine {
        let (mut eng, _acks, flow) = build(0, 8_000_000.0, 64);
        eng.add_endpoint(Box::new(BlastSender {
            flow,
            service: ServiceId(0),
            dst: EndpointId(7),
            n: 1,
            acks: Rc::new(RefCell::new(Vec::new())),
        }));
        eng
    }

    #[test]
    fn dispatch_to_a_missing_endpoint_is_counted() {
        let mut eng = miswired();
        eng.invariants = None; // the release-build default
        eng.run_until(SimTime::from_secs(2));
        assert_eq!(eng.dropped_dispatches(), 1);
        // A correctly wired run never drops one.
        let (mut ok, acks, _) = build(10, 8_000_000.0, 64);
        ok.run_until(SimTime::from_secs(2));
        assert_eq!(acks.borrow().len(), 10);
        assert_eq!(ok.dropped_dispatches(), 0);
    }

    #[test]
    #[should_panic(expected = "dropped dispatch: an event was addressed to EndpointId(7)")]
    fn dispatch_to_a_missing_endpoint_fails_the_guard() {
        let mut eng = miswired();
        eng.enable_invariants();
        eng.run_until(SimTime::from_secs(2));
    }

    #[test]
    fn clock_advances_to_run_until_bound() {
        let mut eng = Engine::new(
            BottleneckConfig {
                rate_bps: 1e6,
                queue_capacity_pkts: 4,
            },
            0,
        );
        eng.run_until(SimTime::from_secs(3));
        assert_eq!(eng.now(), SimTime::from_secs(3));
    }
}
