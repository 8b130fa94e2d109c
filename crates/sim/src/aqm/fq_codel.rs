//! FQ-CoDel — flow-queueing with CoDel (RFC 8290).
//!
//! Packets hash (by flow id) into one of `flows` sub-queues. A deficit
//! round-robin scheduler serves the sub-queues — giving each competing
//! flow an equal share of the link regardless of how aggressively it
//! sends — and each sub-queue runs its own CoDel state machine to keep
//! its standing delay near the target. New flows get one quantum of
//! priority (the RFC's new/old list split), which is what makes sparse
//! flows (ACK-clocked trickles, RTC audio) effectively latency-immune.
//!
//! On overflow the discipline drops from the head of the *fattest*
//! sub-queue (most bytes), so a flooding flow cannot evict a sparse one —
//! the per-flow isolation property the proptests pin down.

use super::codel::CoDelState;
use super::{QdiscStats, QueueDiscipline};
use crate::packet::{FlowId, Packet};
use crate::queue::EnqueueResult;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

#[derive(Debug)]
struct FlowQueue {
    queue: VecDeque<Packet>,
    bytes: u64,
    codel: CoDelState,
    deficit: i64,
    /// Which scheduling list this queue is on (None = inactive).
    list: Option<List>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    New,
    Old,
}

/// The FQ-CoDel discipline.
#[derive(Debug)]
pub struct FqCoDelQueue {
    queues: Vec<FlowQueue>,
    new_list: VecDeque<usize>,
    old_list: VecDeque<usize>,
    len_pkts: usize,
    bytes: u64,
    capacity_pkts: usize,
    quantum: i64,
    stats: QdiscStats,
}

impl FqCoDelQueue {
    /// An FQ-CoDel queue: `flows` buckets, `quantum_bytes` DRR quantum,
    /// CoDel `target`/`interval` per bucket, and a shared hard capacity of
    /// `capacity_pkts` packets.
    pub fn new(
        capacity_pkts: usize,
        flows: u32,
        quantum_bytes: u32,
        target: SimDuration,
        interval: SimDuration,
    ) -> Self {
        assert!(capacity_pkts >= 1, "queue must hold at least one packet");
        let flows = flows.max(1) as usize;
        FqCoDelQueue {
            queues: (0..flows)
                .map(|_| FlowQueue {
                    queue: VecDeque::new(),
                    bytes: 0,
                    codel: CoDelState::new(target, interval),
                    deficit: 0,
                    list: None,
                })
                .collect(),
            new_list: VecDeque::new(),
            old_list: VecDeque::new(),
            len_pkts: 0,
            bytes: 0,
            capacity_pkts,
            quantum: quantum_bytes.max(1) as i64,
            stats: QdiscStats::default(),
        }
    }

    /// Deterministic flow→bucket mapping (Fibonacci hash of the flow id).
    fn bucket(&self, flow: FlowId) -> usize {
        let h = (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.queues.len()
    }

    /// Drop one packet from the head of the fattest sub-queue; returns the
    /// victim's (flow, seq) identity.
    fn drop_from_fattest(&mut self) -> (FlowId, u64) {
        let fattest = (0..self.queues.len())
            .filter(|&i| !self.queues[i].queue.is_empty())
            .max_by_key(|&i| (self.queues[i].bytes, std::cmp::Reverse(i)))
            .expect("overflow implies a non-empty sub-queue");
        let q = &mut self.queues[fattest];
        let victim = q.queue.pop_front().expect("fattest queue is non-empty");
        q.bytes -= victim.size as u64;
        self.bytes -= victim.size as u64;
        self.len_pkts -= 1;
        self.stats.on_head_drop(&victim);
        (victim.flow, victim.seq)
    }
}

impl QueueDiscipline for FqCoDelQueue {
    fn kind(&self) -> &'static str {
        "fq_codel"
    }

    fn capacity(&self) -> usize {
        self.capacity_pkts
    }

    fn enqueue(&mut self, pkt: Packet, _now: SimTime) -> EnqueueResult {
        self.stats.on_arrival(&pkt);
        let identity = (pkt.flow, pkt.seq);
        let idx = self.bucket(pkt.flow);
        let size = pkt.size as u64;
        self.stats.on_enqueue(&pkt);
        let q = &mut self.queues[idx];
        q.queue.push_back(pkt);
        q.bytes += size;
        self.bytes += size;
        self.len_pkts += 1;
        if q.list.is_none() {
            q.deficit = self.quantum;
            q.list = Some(List::New);
            self.new_list.push_back(idx);
        }
        if self.len_pkts > self.capacity_pkts {
            // Shed from the head of the fattest sub-queue. The arriving
            // packet is the victim only when its own sub-queue is fattest
            // *and* the packet is also its head (i.e. it is alone in it).
            let victim = self.drop_from_fattest();
            if victim == identity {
                self.stats.note_occupancy(self.len_pkts);
                return EnqueueResult::Dropped;
            }
        }
        self.stats.note_occupancy(self.len_pkts);
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        loop {
            let (idx, from) = match self.new_list.front().copied() {
                Some(i) => (i, List::New),
                None => match self.old_list.front().copied() {
                    Some(i) => (i, List::Old),
                    None => return None,
                },
            };
            let q = &mut self.queues[idx];
            if q.deficit <= 0 {
                // Out of credit: recharge and rotate to the old list.
                q.deficit += self.quantum;
                match from {
                    List::New => {
                        self.new_list.pop_front();
                    }
                    List::Old => {
                        self.old_list.pop_front();
                    }
                }
                q.list = Some(List::Old);
                self.old_list.push_back(idx);
                continue;
            }
            let stats = &mut self.stats;
            let mut codel_drops = 0usize;
            let mut dropped_bytes = 0u64;
            let pkt = q.codel.dequeue(&mut q.queue, &mut q.bytes, now, &mut |p| {
                stats.on_head_drop(p);
                codel_drops += 1;
                dropped_bytes += p.size as u64;
            });
            self.len_pkts -= codel_drops;
            self.bytes -= dropped_bytes;
            match pkt {
                Some(p) => {
                    q.deficit -= p.size as i64;
                    self.len_pkts -= 1;
                    self.bytes -= p.size as u64;
                    self.stats.on_dequeue(&p);
                    return Some(p);
                }
                None => {
                    // Sub-queue emptied. A new queue gets one more round on
                    // the old list (RFC 8290 §5.1); an old queue deactivates.
                    match from {
                        List::New => {
                            self.new_list.pop_front();
                            q.list = Some(List::Old);
                            self.old_list.push_back(idx);
                        }
                        List::Old => {
                            self.old_list.pop_front();
                            q.list = None;
                        }
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len_pkts
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn stats(&self) -> &QdiscStats {
        &self.stats
    }

    #[cfg(test)]
    fn queued(&self) -> Vec<&Packet> {
        self.queues.iter().flat_map(|q| &q.queue).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{EndpointId, ServiceId};

    fn pkt(flow: u32, svc: u32, seq: u64, size: u32, at: SimTime) -> Packet {
        let mut p = Packet::data(FlowId(flow), ServiceId(svc), EndpointId(0), seq, size);
        p.enqueued_at = at;
        p
    }

    #[test]
    fn drr_interleaves_two_backlogged_flows() {
        let mut q = FqCoDelQueue::new(
            256,
            64,
            1500,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
        );
        let now = SimTime::ZERO;
        // Flow 0 enqueues 10 packets first, then flow 1 enqueues 10.
        for seq in 0..10 {
            q.enqueue(pkt(0, 0, seq, 1500, now), now);
        }
        for seq in 0..10 {
            q.enqueue(pkt(1, 1, seq, 1500, now), now);
        }
        // Service must alternate between the flows, not drain flow 0 first.
        let mut order = Vec::new();
        for _ in 0..6 {
            order.push(q.dequeue(now).unwrap().service.0);
        }
        assert!(
            order.windows(2).any(|w| w[0] != w[1]),
            "DRR must interleave flows, got {order:?}"
        );
        let a = order.iter().filter(|&&s| s == 0).count();
        let b = order.iter().filter(|&&s| s == 1).count();
        assert_eq!(a, b, "equal-size packets get equal service: {order:?}");
    }

    #[test]
    fn overflow_sheds_the_fattest_flow() {
        let mut q = FqCoDelQueue::new(
            8,
            64,
            1500,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
        );
        let now = SimTime::ZERO;
        // Flow 0 floods; flow 1 contributes a single sparse packet.
        for seq in 0..8 {
            q.enqueue(pkt(0, 0, seq, 1500, now), now);
        }
        q.enqueue(pkt(1, 1, 0, 200, now), now); // 9th packet: overflow
        assert_eq!(q.len(), 8, "capacity restored by shedding");
        let s0 = q.service_stats(ServiceId(0));
        let s1 = q.service_stats(ServiceId(1));
        assert_eq!(s0.dropped_pkts, 1, "the flooding flow pays for overflow");
        assert_eq!(s1.dropped_pkts, 0, "the sparse flow is isolated");
    }

    #[test]
    fn sparse_flow_is_served_promptly() {
        let mut q = FqCoDelQueue::new(
            512,
            64,
            1500,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
        );
        let now = SimTime::ZERO;
        for seq in 0..100 {
            q.enqueue(pkt(0, 0, seq, 1500, now), now);
        }
        // Drain a few so flow 0 is mid-rotation on the old list.
        q.dequeue(now);
        q.dequeue(now);
        // A sparse flow arrives: it must be served on the next dequeue
        // (new-flow priority), not after flow 0's 98-packet backlog.
        q.enqueue(pkt(7, 1, 0, 300, now), now);
        let next = q.dequeue(now).unwrap();
        assert_eq!(next.service, ServiceId(1), "new flows jump the line");
    }

    #[test]
    fn conservation_under_churn() {
        let mut q = FqCoDelQueue::new(
            32,
            8,
            1500,
            SimDuration::from_millis(5),
            SimDuration::from_millis(100),
        );
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        for round in 0..300u64 {
            let flow = (round % 5) as u32;
            q.enqueue(pkt(flow, flow, round, 1500, now), now);
            if round % 3 == 0 {
                now += SimDuration::from_millis(7);
                if q.dequeue(now).is_some() {
                    delivered += 1;
                }
            }
        }
        let arrived: u64 = (0..5)
            .map(|s| q.service_stats(ServiceId(s)).arrived_pkts)
            .sum();
        assert_eq!(arrived, 300);
        assert_eq!(arrived, delivered + q.total_drops() + q.len() as u64);
        assert!(q.len() <= q.capacity());
    }
}
