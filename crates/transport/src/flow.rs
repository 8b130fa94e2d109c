//! Reliable unidirectional flows: a [`Sender`] endpoint driven by a
//! pluggable [`CongestionControl`] and an acknowledging [`Receiver`].
//!
//! The sender implements the machinery every modern stack shares and which
//! the CCAs in `prudentia-cc` need to behave faithfully:
//! per-packet acknowledgements (QUIC-style), packet-threshold loss
//! detection with retransmission, RTO with exponential backoff (Karn's
//! rule for RTT samples), SRTT/RTTVAR estimation, Cheng-style delivery
//! rate samples, packet-timed round tracking, app-limited marking, and
//! pacing driven by the CCA's rate.

use crate::source::FlowSource;
use prudentia_cc::{AckSample, CongestionControl, EcnMode, EcnSample, LossSample, SentSample};
use prudentia_sim::{
    Ctx, EcnCodepoint, Endpoint, EndpointId, FlowId, Packet, PacketKind, ServiceId, SimDuration,
    SimTime,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Factory producing a fresh congestion controller, used by flows that
/// model per-request connection churn (`Sender::set_idle_restart`).
pub type CcFactory = Rc<dyn Fn(SimTime) -> Box<dyn CongestionControl>>;

/// Timer token: pacing gate released.
const TOKEN_PACER: u64 = 1;
/// Timer token: periodic poll for newly available application data.
const TOKEN_POLL: u64 = 2;
/// Timer token: external wake-up (applications poke senders with this).
pub const TOKEN_WAKE: u64 = 3;
/// RTO tokens carry a generation in the low bits.
const TOKEN_RTO_BASE: u64 = 1 << 32;

/// Packets acked this far above a hole declare the hole lost.
const REORDER_THRESHOLD: u64 = 3;
/// Lower bound on the retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Poll cadence while waiting for application data.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Counters exposed by a sender (shared handle, readable after the run).
#[derive(Debug, Default, Clone)]
pub struct FlowStats {
    /// Data packets sent, including retransmissions.
    pub packets_sent: u64,
    /// Bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Bytes newly acknowledged.
    pub bytes_acked: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Packets declared lost by reordering evidence.
    pub losses_marked: u64,
    /// Last observed congestion window (bytes).
    pub last_cwnd: u64,
    /// Last smoothed RTT.
    pub last_srtt: SimDuration,
    /// Minimum RTT observed.
    pub min_rtt: SimDuration,
    /// Fresh-connection restarts performed (idle-restart modelling).
    pub restarts: u64,
}

/// Counters exposed by a receiver (shared handle).
#[derive(Debug, Default, Clone)]
pub struct RecvStats {
    /// Bytes received on the wire (including duplicates).
    pub wire_bytes: u64,
    /// Unique application bytes received.
    pub unique_bytes: u64,
    /// Data packets received.
    pub packets: u64,
}

/// Receives application-level delivery notifications.
pub trait DeliverySink {
    /// A data packet of `bytes` arrived for `flow`. `is_new` is false for
    /// spuriously retransmitted duplicates.
    fn on_receive(&mut self, now: SimTime, flow: FlowId, seq: u64, bytes: u64, is_new: bool);
}

/// A sink that ignores all deliveries.
#[derive(Debug, Default)]
pub struct NullSink;

impl DeliverySink for NullSink {
    fn on_receive(&mut self, _: SimTime, _: FlowId, _: u64, _: u64, _: bool) {}
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SentInfo {
    pub(crate) data_seq: u64,
    pub(crate) size: u32,
    pub(crate) sent_at: SimTime,
    pub(crate) delivered_at_send: u64,
    pub(crate) delivered_time_at_send: SimTime,
    pub(crate) app_limited: bool,
    pub(crate) retransmitted: bool,
}

/// Outstanding transmissions, indexed by transmission number.
///
/// Transmission numbers are dense and monotone (the ring issues them
/// itself in [`SentRing::push`]), so slot `i` holds transmission
/// `base + i` and every operation is an index: no search, no
/// rebalancing, and no allocation once the deque has grown to the
/// flow's window. An acknowledged or lost transmission leaves a `None`
/// tombstone that is popped as soon as it reaches the front, so the
/// front slot is always live and "empty" means "no slots".
///
/// Draining from the front yields transmissions in ascending number ==
/// send order, exactly the key order of the `BTreeMap<u64, SentInfo>`
/// this replaced (the transport proptests drive both side by side).
/// Because the sender drains everything at or below `highest_acked −
/// REORDER_THRESHOLD` after every ACK, tombstones only ever sit among
/// the `REORDER_THRESHOLD` numbers ending at `highest_acked`, behind a
/// live front slot: the ring holds fewer than `outstanding +
/// REORDER_THRESHOLD` slots.
#[derive(Debug, Default)]
pub(crate) struct SentRing {
    /// Transmission number of `slots[0]`; when the ring is empty, the
    /// number the next `push` will issue.
    base: u64,
    slots: VecDeque<Option<SentInfo>>,
}

impl SentRing {
    /// Record a new transmission; returns the number issued to it.
    pub(crate) fn push(&mut self, info: SentInfo) -> u64 {
        let tx_seq = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(info));
        tx_seq
    }

    /// No transmission is outstanding.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots held, tombstones included (the memory bound's subject).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Take transmission `tx_seq` out, if it is still outstanding.
    pub(crate) fn remove(&mut self, tx_seq: u64) -> Option<SentInfo> {
        let idx = usize::try_from(tx_seq.checked_sub(self.base)?).ok()?;
        let info = self.slots.get_mut(idx)?.take()?;
        if idx == 0 {
            self.trim_front();
        }
        Some(info)
    }

    /// Take the oldest outstanding transmission if its number is at or
    /// below `horizon`. Repeated calls drain in ascending order.
    pub(crate) fn pop_front_through(&mut self, horizon: u64) -> Option<SentInfo> {
        if self.base > horizon {
            return None;
        }
        let info = self.slots.front_mut()?.take();
        debug_assert!(info.is_some(), "front slot of the sent ring is a tombstone");
        self.trim_front();
        info
    }

    /// Pop tombstones until the front slot is live again (or none remain).
    fn trim_front(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// The sending half of a flow.
pub struct Sender {
    flow: FlowId,
    service: ServiceId,
    receiver: EndpointId,
    cc: Box<dyn CongestionControl>,
    source: Box<dyn FlowSource>,
    mss: u32,
    /// Next application data sequence.
    next_data_seq: u64,
    /// Outstanding transmissions by transmission number (every send,
    /// including retransmissions, consumes one — QUIC-style, so loss
    /// detection is per transmission; ascending number == send order).
    sent: SentRing,
    /// Data segments awaiting retransmission: (data_seq, size).
    rtx_queue: VecDeque<(u64, u32)>,
    inflight_bytes: u64,
    delivered: u64,
    highest_acked: Option<u64>,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    rto_gen: u64,
    rto_backoff: u32,
    next_send_time: SimTime,
    pacer_armed: bool,
    round_end_delivered: u64,
    app_limited: bool,
    /// Model connection churn: after this much send-idle time, the next
    /// send replaces the congestion controller with a fresh one (new
    /// connection in slow start / STARTUP). Mega opens new connections
    /// per chunk batch; RFC 2861 cwnd-validation behaves similarly.
    idle_restart: Option<(SimDuration, CcFactory)>,
    last_send: Option<SimTime>,
    /// Number of idle restarts performed (instrumentation).
    restarts: u64,
    stats: Rc<RefCell<FlowStats>>,
}

impl Sender {
    /// Create a sender for `flow` towards `receiver`.
    pub fn new(
        flow: FlowId,
        service: ServiceId,
        receiver: EndpointId,
        cc: Box<dyn CongestionControl>,
        source: Box<dyn FlowSource>,
    ) -> (Self, Rc<RefCell<FlowStats>>) {
        let stats = Rc::new(RefCell::new(FlowStats::default()));
        (
            Sender {
                flow,
                service,
                receiver,
                cc,
                source,
                mss: prudentia_cc::MSS as u32,
                next_data_seq: 0,
                sent: SentRing::default(),
                rtx_queue: VecDeque::new(),
                inflight_bytes: 0,
                delivered: 0,
                highest_acked: None,
                srtt: None,
                rttvar: SimDuration::ZERO,
                min_rtt: SimDuration::MAX,
                rto_gen: 0,
                rto_backoff: 0,
                next_send_time: SimTime::ZERO,
                pacer_armed: false,
                round_end_delivered: 0,
                app_limited: false,
                idle_restart: None,
                last_send: None,
                restarts: 0,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }

    /// Enable connection-churn modelling: if the sender has been idle for
    /// `threshold`, the next transmission starts on a fresh controller.
    pub fn set_idle_restart(&mut self, threshold: SimDuration, factory: CcFactory) {
        self.idle_restart = Some((threshold, factory));
    }

    /// How many idle restarts have occurred.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        self.rto_gen += 1;
        let token = TOKEN_RTO_BASE | self.rto_gen;
        ctx.set_timer(
            rto_duration(self.srtt, self.rttvar, self.rto_backoff),
            token,
        );
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        self.min_rtt = self.min_rtt.min(sample);
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = SimDuration::from_nanos(
                    (self.rttvar.as_nanos() as f64 * 0.75 + diff.as_nanos() as f64 * 0.25) as u64,
                );
                self.srtt = Some(SimDuration::from_nanos(
                    (srtt.as_nanos() as f64 * 0.875 + sample.as_nanos() as f64 * 0.125) as u64,
                ));
            }
        }
    }

    /// Transport-side invariants, gated exactly like the engine's checks
    /// (see `prudentia_sim::invariant`): releasing `size` bytes must never
    /// underflow the in-flight ledger. O(1) per call.
    fn check_release(&self, size: u32, what: &str) {
        if prudentia_sim::invariant::runtime_enabled() {
            assert!(
                self.inflight_bytes >= size as u64,
                "flow {:?} ({}): {what} releases {size} bytes but only {} in flight",
                self.flow,
                self.cc.name(),
                self.inflight_bytes
            );
        }
    }

    /// With no outstanding transmissions the in-flight ledger must read
    /// exactly zero, and the CCA must still offer a sane window.
    fn check_drained(&self, what: &str) {
        if prudentia_sim::invariant::runtime_enabled() {
            assert!(
                !self.sent.is_empty() || self.inflight_bytes == 0,
                "flow {:?} ({}): after {what}, nothing outstanding but {} bytes in flight",
                self.flow,
                self.cc.name(),
                self.inflight_bytes
            );
            assert!(
                self.cc.cwnd_bytes() >= 1,
                "flow {:?}: {} reports a zero congestion window",
                self.flow,
                self.cc.name()
            );
            if let Some(rate) = self.cc.pacing_rate_bps() {
                assert!(
                    rate.is_finite() && rate >= 0.0,
                    "flow {:?}: {} reports pacing rate {rate}",
                    self.flow,
                    self.cc.name()
                );
            }
        }
    }

    fn detect_reorder_losses(&mut self, now: SimTime) -> u64 {
        let Some(high) = self.highest_acked else {
            return 0;
        };
        if high < REORDER_THRESHOLD {
            return 0;
        }
        // A transmission is lost once three later transmissions were acked.
        let horizon = high - REORDER_THRESHOLD;
        let mut newly_lost = 0u64;
        while let Some(info) = self.sent.pop_front_through(horizon) {
            self.check_release(info.size, "reorder loss");
            self.inflight_bytes = self.inflight_bytes.saturating_sub(info.size as u64);
            newly_lost += info.size as u64;
            self.rtx_queue.push_back((info.data_seq, info.size));
            self.stats.borrow_mut().losses_marked += 1;
        }
        if newly_lost > 0 {
            self.cc.on_loss(&LossSample {
                now,
                bytes_lost: newly_lost,
                inflight_bytes: self.inflight_bytes + newly_lost,
                is_rto: false,
            });
        }
        newly_lost
    }

    fn handle_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.sent.is_empty() {
            return;
        }
        let now = ctx.now();
        self.stats.borrow_mut().rtos += 1;
        self.rto_backoff += 1;
        let inflight_before = self.inflight_bytes;
        // Declare every outstanding transmission lost and rebuild.
        while let Some(info) = self.sent.pop_front_through(u64::MAX) {
            self.check_release(info.size, "RTO loss");
            self.inflight_bytes = self.inflight_bytes.saturating_sub(info.size as u64);
            self.rtx_queue.push_back((info.data_seq, info.size));
        }
        self.check_drained("RTO");
        self.cc.on_timeout(&LossSample {
            now,
            bytes_lost: inflight_before,
            inflight_bytes: inflight_before,
            is_rto: true,
        });
        self.arm_rto(ctx);
        self.try_send(ctx);
    }

    fn handle_ack(&mut self, tx_seq: u64, ce_echo: bool, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(info) = self.sent.remove(tx_seq) else {
            // ACK for a transmission already presumed lost (its data was
            // retransmitted) or already acknowledged: ignore.
            return;
        };
        self.check_release(info.size, "ACK");
        self.inflight_bytes = self.inflight_bytes.saturating_sub(info.size as u64);
        self.check_drained("ACK");
        self.delivered += info.size as u64;
        self.rto_backoff = 0;
        self.highest_acked = Some(self.highest_acked.map_or(tx_seq, |h| h.max(tx_seq)));

        // Karn's rule: never take RTT samples from retransmitted packets.
        if !info.retransmitted {
            self.update_rtt(now - info.sent_at);
        }

        let is_round_start = info.delivered_at_send >= self.round_end_delivered;
        if is_round_start {
            self.round_end_delivered = self.delivered;
        }

        let interval = now.saturating_since(info.delivered_time_at_send);
        let delivery_rate_bps = if interval > SimDuration::ZERO {
            (self.delivered - info.delivered_at_send) as f64 * 8.0 / interval.as_secs_f64()
        } else {
            0.0
        };

        let srtt = self.srtt.unwrap_or(SimDuration::from_millis(100));
        self.cc.on_ack(&AckSample {
            now,
            bytes_acked: info.size as u64,
            rtt: now - info.sent_at,
            min_rtt: if self.min_rtt == SimDuration::MAX {
                srtt
            } else {
                self.min_rtt
            },
            inflight_bytes: self.inflight_bytes,
            delivery_rate_bps,
            delivered_total: self.delivered,
            app_limited: info.app_limited,
            is_round_start,
        });
        if ce_echo {
            // The receiver echoed a CE mark for this transmission: the
            // marked bytes join the round the ACK itself was counted in.
            self.cc.on_ecn(&EcnSample {
                now,
                marked_bytes: info.size as u64,
                inflight_bytes: self.inflight_bytes,
            });
        }

        {
            let mut st = self.stats.borrow_mut();
            st.bytes_acked += info.size as u64;
            st.last_cwnd = self.cc.cwnd_bytes();
            st.last_srtt = srtt;
            st.min_rtt = if self.min_rtt == SimDuration::MAX {
                SimDuration::ZERO
            } else {
                self.min_rtt
            };
        }

        self.detect_reorder_losses(now);
        if !self.sent.is_empty() {
            self.arm_rto(ctx);
        }
        self.try_send(ctx);
    }

    fn send_packet(
        &mut self,
        data_seq: u64,
        size: u32,
        retransmit: bool,
        now: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        let tx_seq = self.sent.push(SentInfo {
            data_seq,
            size,
            sent_at: now,
            delivered_at_send: self.delivered,
            delivered_time_at_send: now,
            app_limited: self.app_limited,
            retransmitted: retransmit,
        });
        let mut pkt = Packet::data(self.flow, self.service, self.receiver, tx_seq, size);
        pkt.data_seq = data_seq;
        pkt.delivered_at_send = self.delivered;
        pkt.delivered_time_at_send = now;
        pkt.app_limited = self.app_limited;
        pkt.is_retransmit = retransmit;
        pkt.ecn = match self.cc.ecn_mode() {
            EcnMode::Disabled => EcnCodepoint::NotEct,
            EcnMode::Classic => EcnCodepoint::Ect0,
            EcnMode::L4s => EcnCodepoint::Ect1,
        };
        self.inflight_bytes += size as u64;
        {
            let mut st = self.stats.borrow_mut();
            st.packets_sent += 1;
            st.bytes_sent += size as u64;
            if retransmit {
                st.retransmits += 1;
            }
        }
        ctx.send_data(pkt);
        self.cc.on_packet_sent(&SentSample {
            now,
            bytes: size as u64,
            inflight_bytes: self.inflight_bytes,
            is_retransmit: retransmit,
        });
    }

    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let had_outstanding = !self.sent.is_empty();
        // Connection churn: a fresh controller for the first send after a
        // long idle period, if the application has data again.
        if let (Some((threshold, factory)), Some(last)) =
            (self.idle_restart.as_ref(), self.last_send)
        {
            if self.sent.is_empty()
                && now.saturating_since(last) >= *threshold
                && self.source.available(now) > 0
            {
                self.cc = factory(now);
                // A new connection has no RTT history: its minimum RTT will
                // be measured behind whatever standing queue exists, which
                // is what makes fresh flows so aggressive behind a filled
                // buffer (they over-estimate the BDP).
                self.srtt = None;
                self.rttvar = SimDuration::ZERO;
                self.min_rtt = SimDuration::MAX;
                self.next_send_time = now;
                self.restarts += 1;
                self.stats.borrow_mut().restarts += 1;
                self.last_send = None;
            }
        }
        loop {
            let cwnd = self.cc.cwnd_bytes();
            if self.inflight_bytes + 1 > cwnd {
                break; // cwnd-limited
            }
            // Pacing gate.
            if let Some(rate) = self.cc.pacing_rate_bps() {
                if rate > 0.0 && now < self.next_send_time {
                    if !self.pacer_armed {
                        self.pacer_armed = true;
                        ctx.set_timer(self.next_send_time - now, TOKEN_PACER);
                    }
                    break;
                }
            }
            // Retransmissions take priority over new data.
            let sent_size: u32;
            if let Some((data_seq, size)) = self.rtx_queue.pop_front() {
                sent_size = size;
                self.send_packet(data_seq, size, true, now, ctx);
            } else {
                let avail = self.source.available(now);
                if avail == 0 {
                    self.app_limited = true;
                    break;
                }
                self.app_limited = false;
                let size = (avail.min(self.mss as u64)) as u32;
                let data_seq = self.next_data_seq;
                self.next_data_seq += 1;
                self.source.consume(now, size as u64);
                // Re-check whether this send drained the source; BBR treats
                // the sample from a draining send as app-limited.
                if self.source.available(now) == 0 {
                    self.app_limited = true;
                }
                sent_size = size;
                self.send_packet(data_seq, size, false, now, ctx);
            }
            self.last_send = Some(now);
            // Advance the pacing clock.
            if let Some(rate) = self.cc.pacing_rate_bps() {
                if rate > 0.0 {
                    let gap = SimDuration::from_secs_f64(sent_size as f64 * 8.0 / rate);
                    let base = if self.next_send_time > now {
                        self.next_send_time
                    } else {
                        now
                    };
                    self.next_send_time = base + gap;
                }
            }
        }
        if !had_outstanding && !self.sent.is_empty() {
            self.arm_rto(ctx);
        }
    }

    /// The congestion controller's current window (for instrumentation).
    pub fn cwnd_bytes(&self) -> u64 {
        self.cc.cwnd_bytes()
    }
}

impl Endpoint for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.try_send(ctx);
        ctx.set_timer(POLL_INTERVAL, TOKEN_POLL);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind == PacketKind::Ack {
            self.handle_ack(pkt.seq, pkt.is_ce(), ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            TOKEN_PACER => {
                self.pacer_armed = false;
                self.try_send(ctx);
            }
            TOKEN_POLL => {
                self.try_send(ctx);
                ctx.set_timer(POLL_INTERVAL, TOKEN_POLL);
            }
            TOKEN_WAKE => self.try_send(ctx),
            t if t > TOKEN_RTO_BASE && (t & 0xFFFF_FFFF) == (self.rto_gen & 0xFFFF_FFFF) => {
                self.handle_rto(ctx);
            }
            _ => {}
        }
    }
}

/// The retransmission timeout: `srtt + 4·rttvar` (1 s before the first
/// RTT sample), doubled per backoff step up to 2^6, floored at
/// [`MIN_RTO`]. Integer and saturating; it equals the `f64` formula it
/// replaced for every srtt and rttvar below 2^50 ns, where each
/// intermediate of that formula is an exactly represented integer.
pub(crate) fn rto_duration(
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    backoff: u32,
) -> SimDuration {
    let base = match srtt {
        Some(srtt) => srtt + rttvar * 4,
        None => SimDuration::from_secs(1),
    };
    (base * (1u64 << backoff.min(6))).max(MIN_RTO)
}

/// Tracks which sequence numbers have been seen, compactly.
#[derive(Debug, Default)]
pub(crate) struct SeqTracker {
    /// All seqs below this are received.
    floor: u64,
    /// Out-of-order seqs at or above `floor`.
    pending: BTreeSet<u64>,
}

impl SeqTracker {
    /// Record `seq`; returns true if it was new.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        // In-order delivery, the common case, touches no tree node.
        if seq == self.floor && self.pending.is_empty() {
            self.floor += 1;
            return true;
        }
        if seq < self.floor || self.pending.contains(&seq) {
            return false;
        }
        self.pending.insert(seq);
        while self.pending.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }
}

/// The receiving half of a flow: per-packet ACKs plus app notifications.
pub struct Receiver {
    sender: EndpointId,
    sink: Box<dyn DeliverySink>,
    tracker: SeqTracker,
    stats: Rc<RefCell<RecvStats>>,
}

impl Receiver {
    /// Create a receiver that ACKs back to `sender`.
    pub fn new(sender: EndpointId, sink: Box<dyn DeliverySink>) -> (Self, Rc<RefCell<RecvStats>>) {
        let stats = Rc::new(RefCell::new(RecvStats::default()));
        (
            Receiver {
                sender,
                sink,
                tracker: SeqTracker::default(),
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl Endpoint for Receiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        let is_new = self.tracker.insert(pkt.data_seq);
        {
            let mut st = self.stats.borrow_mut();
            st.wire_bytes += pkt.size as u64;
            st.packets += 1;
            if is_new {
                st.unique_bytes += pkt.size as u64;
            }
        }
        self.sink
            .on_receive(ctx.now(), pkt.flow, pkt.data_seq, pkt.size as u64, is_new);
        let mut ack = Packet::ack(pkt.flow, pkt.service, self.sender, pkt.seq);
        if pkt.is_ce() {
            // Echo the congestion mark back to the sender (ECE / ACE).
            ack.ecn = EcnCodepoint::Ce;
        }
        ctx.send_reverse(ack);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FiniteSource;
    use prudentia_cc::CcaKind;
    use prudentia_sim::{BottleneckConfig, Engine, PathSpec};

    /// What [`AuditedSender`] saw of its sender's ring, shared with the test.
    #[derive(Debug, Default)]
    struct RingAudit {
        callbacks: u64,
        max_slots: usize,
        /// Largest `slots − outstanding` seen after any callback.
        max_tombstones: usize,
        final_slots: usize,
        final_inflight: u64,
    }

    /// A sender whose ring is audited after every engine callback.
    struct AuditedSender {
        inner: Sender,
        audit: Rc<RefCell<RingAudit>>,
    }

    impl AuditedSender {
        fn record(&self) {
            let ring = &self.inner.sent;
            let outstanding = ring.slots.iter().flatten().count();
            let mut a = self.audit.borrow_mut();
            a.callbacks += 1;
            a.max_slots = a.max_slots.max(ring.slots());
            a.max_tombstones = a.max_tombstones.max(ring.slots() - outstanding);
            a.final_slots = ring.slots();
            a.final_inflight = self.inner.inflight_bytes;
            assert_eq!(ring.is_empty(), outstanding == 0);
        }
    }

    impl Endpoint for AuditedSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.inner.on_start(ctx);
            self.record();
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.inner.on_packet(pkt, ctx);
            self.record();
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            self.inner.on_timer(token, ctx);
            self.record();
        }
    }

    #[test]
    fn sent_ring_stays_within_outstanding_plus_reorder_threshold() {
        // A tiny queue plus upstream loss: reorder losses, RTOs and ACKs
        // for transmissions already written off all occur.
        let mut eng = Engine::new(
            BottleneckConfig {
                rate_bps: 5e6,
                queue_capacity_pkts: 8,
            },
            10,
        );
        eng.set_external_loss(0.03);
        let flow = eng.register_flow_jittered(PathSpec::symmetric(SimDuration::from_millis(50)));
        let receiver_id = eng.next_endpoint_id();
        let sender_id = EndpointId(receiver_id.0 + 1);
        let (receiver, recv) = Receiver::new(sender_id, Box::new(NullSink));
        eng.add_endpoint(Box::new(receiver));
        let (inner, stats) = Sender::new(
            flow,
            ServiceId(0),
            receiver_id,
            CcaKind::NewReno.build(SimTime::ZERO),
            Box::new(FiniteSource::new(1_500_000)),
        );
        let audit = Rc::new(RefCell::new(RingAudit::default()));
        eng.add_endpoint(Box::new(AuditedSender {
            inner,
            audit: Rc::clone(&audit),
        }));
        eng.run_until(SimTime::from_secs(120));

        let a = audit.borrow();
        let st = stats.borrow();
        assert_eq!(recv.borrow().unique_bytes, 1_500_000, "transfer completes");
        assert!(
            st.losses_marked > 0 && st.rtos > 0,
            "test must see both loss paths: {st:?}"
        );
        assert!(a.callbacks > 1000 && a.max_slots > 8, "{a:?}");
        assert!(
            (a.max_tombstones as u64) < REORDER_THRESHOLD,
            "ring held {} tombstones; the bound is below REORDER_THRESHOLD",
            a.max_tombstones
        );
        assert_eq!(a.final_slots, 0, "ring must end empty");
        assert_eq!(a.final_inflight, 0);
    }

    #[test]
    fn seq_tracker_dedups_and_advances() {
        let mut t = SeqTracker::default();
        assert!(t.insert(0));
        assert!(t.insert(1));
        assert!(!t.insert(1));
        assert!(t.insert(3)); // gap at 2
        assert_eq!(t.floor, 2);
        assert!(t.insert(2));
        assert_eq!(t.floor, 4);
        assert!(!t.insert(0));
    }

    #[test]
    fn seq_tracker_handles_large_reordering() {
        let mut t = SeqTracker::default();
        for seq in (0..100).rev() {
            assert!(t.insert(seq), "seq {seq} should be new");
        }
        assert_eq!(t.floor, 100);
        assert!(t.pending.is_empty());
    }
}
