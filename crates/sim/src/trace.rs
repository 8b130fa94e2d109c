//! Experiment instrumentation.
//!
//! Prudentia exposes bottleneck queue logs and per-service throughput for
//! every experiment (§7). This module collects the same signals: binned
//! per-service delivered bytes (throughput timeseries), a decimated queue
//! occupancy timeline (total and per-service), and queueing-delay samples.

use crate::packet::ServiceId;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Delivered-bytes timeseries for one service, in fixed-width bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputSeries {
    bin: SimDuration,
    bytes: Vec<u64>,
}

impl ThroughputSeries {
    /// Create a series with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        ThroughputSeries {
            bin,
            bytes: Vec::new(),
        }
    }

    /// Record `bytes` delivered at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let idx = (now.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] += bytes;
    }

    /// Bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    /// Raw per-bin byte counts.
    pub fn bins(&self) -> &[u64] {
        &self.bytes
    }

    /// Total bytes delivered in `[from, to)`.
    pub fn bytes_between(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let bw = self.bin.as_nanos();
        let first = (from.as_nanos() / bw) as usize;
        let last = (to.as_nanos().saturating_sub(1) / bw) as usize;
        self.bytes
            .iter()
            .enumerate()
            .skip(first)
            .take_while(|(i, _)| *i <= last)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Mean throughput in bits/s over `[from, to)`.
    pub fn mean_bps(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from);
        if span == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes_between(from, to) as f64 * 8.0 / span.as_secs_f64()
    }

    /// Per-bin throughput samples in bits/s over `[from, to)`, for
    /// timeseries plots (Fig 4, Fig 8).
    pub fn series_bps(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        let bw = self.bin.as_nanos();
        let secs = self.bin.as_secs_f64();
        self.bytes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let t = SimTime::from_nanos(i as u64 * bw);
                if t >= from && t < to {
                    Some((t, *b as f64 * 8.0 / secs))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// One decimated queue-occupancy sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueueSample {
    /// Sample timestamp.
    pub at: SimTime,
    /// Total packets queued.
    pub total_pkts: u32,
    /// Packets queued belonging to the first service of the pair.
    pub svc_a_pkts: u32,
    /// Packets queued belonging to the second service of the pair.
    pub svc_b_pkts: u32,
}

/// Per-service accumulators, one dense entry per service id.
///
/// `on_delivered` runs for every data packet crossing the bottleneck —
/// one of the two hottest paths in the simulator — so per-service state
/// is a `Vec` indexed by `ServiceId.0` (service ids are small and dense
/// by construction: pair builders hand out 0 and 1) instead of the six
/// hash lookups per packet the `HashMap`-keyed layout cost.
#[derive(Debug)]
struct SvcStats {
    series: ThroughputSeries,
    qdelay_sum: SimDuration,
    qdelay_count: u64,
    qdelay_max: SimDuration,
    high_delay_pkts: u64,
    delivered_pkts: u64,
}

/// Collects all per-experiment instrumentation.
#[derive(Debug)]
pub struct Trace {
    bin: SimDuration,
    /// Per-service delivery accumulators, indexed by `ServiceId.0`.
    /// `None` until the service delivers its first packet, so "never
    /// delivered" stays distinguishable from "delivered zero bytes".
    per_svc: Vec<Option<SvcStats>>,
    /// Queueing-delay budget (ITU 190 ms RTT bound, §5.1) beyond which a
    /// delivered packet counts as high-delay.
    high_delay_threshold: SimDuration,
    /// Decimated queue occupancy timeline.
    queue_samples: Vec<QueueSample>,
    queue_sample_interval: SimDuration,
    last_queue_sample: Option<SimTime>,
}

impl Trace {
    /// Create a trace with 100 ms throughput bins and 10 ms queue sampling.
    pub fn new() -> Self {
        Self::with_resolution(SimDuration::from_millis(100), SimDuration::from_millis(10))
    }

    /// Create a trace with custom resolutions.
    pub fn with_resolution(bin: SimDuration, queue_sample_interval: SimDuration) -> Self {
        Trace {
            bin,
            per_svc: Vec::new(),
            // The ITU real-time bound is 190 ms RTT; with a 50 ms base RTT the
            // queueing-delay budget before a packet violates it is 140 ms.
            high_delay_threshold: SimDuration::from_millis(140),
            queue_samples: Vec::new(),
            queue_sample_interval,
            last_queue_sample: None,
        }
    }

    fn svc(&self, service: ServiceId) -> Option<&SvcStats> {
        self.per_svc
            .get(service.0 as usize)
            .and_then(Option::as_ref)
    }

    fn svc_mut(&mut self, service: ServiceId) -> &mut SvcStats {
        let idx = service.0 as usize;
        if idx >= self.per_svc.len() {
            self.per_svc.resize_with(idx + 1, || None);
        }
        let bin = self.bin;
        self.per_svc[idx].get_or_insert_with(|| SvcStats {
            series: ThroughputSeries::new(bin),
            qdelay_sum: SimDuration::ZERO,
            qdelay_count: 0,
            qdelay_max: SimDuration::ZERO,
            high_delay_pkts: 0,
            delivered_pkts: 0,
        })
    }

    /// Override the queueing-delay budget that counts as "high delay".
    pub fn set_high_delay_threshold(&mut self, t: SimDuration) {
        self.high_delay_threshold = t;
    }

    /// Record a data packet delivered downstream of the bottleneck.
    pub fn on_delivered(
        &mut self,
        now: SimTime,
        service: ServiceId,
        bytes: u64,
        queueing_delay: SimDuration,
    ) {
        let threshold = self.high_delay_threshold;
        let s = self.svc_mut(service);
        s.series.record(now, bytes);
        s.qdelay_sum += queueing_delay;
        s.qdelay_count += 1;
        s.qdelay_max = s.qdelay_max.max(queueing_delay);
        s.delivered_pkts += 1;
        if queueing_delay > threshold {
            s.high_delay_pkts += 1;
        }
    }

    /// Whether a queue sample taken at `now` would be kept rather than
    /// decimated away. The engine checks this before looking up the
    /// per-service occupancies, so the >99% of samples that
    /// `sample_queue` would discard cost one comparison.
    pub fn wants_queue_sample(&self, now: SimTime) -> bool {
        match self.last_queue_sample {
            Some(last) => now.saturating_since(last) >= self.queue_sample_interval,
            None => true,
        }
    }

    /// Record a queue occupancy sample, decimated to the sample interval.
    pub fn sample_queue(&mut self, now: SimTime, total: usize, svc_a: usize, svc_b: usize) {
        if !self.wants_queue_sample(now) {
            return;
        }
        self.last_queue_sample = Some(now);
        self.queue_samples.push(QueueSample {
            at: now,
            total_pkts: total as u32,
            svc_a_pkts: svc_a as u32,
            svc_b_pkts: svc_b as u32,
        });
    }

    /// Throughput series for `service` (`None` if never delivered).
    pub fn throughput(&self, service: ServiceId) -> Option<&ThroughputSeries> {
        self.svc(service).map(|s| &s.series)
    }

    /// Mean throughput of `service` in bits/s over `[from, to)`.
    pub fn mean_bps(&self, service: ServiceId, from: SimTime, to: SimTime) -> f64 {
        self.svc(service)
            .map(|s| s.series.mean_bps(from, to))
            .unwrap_or(0.0)
    }

    /// Mean queueing delay experienced by delivered packets of `service`.
    pub fn mean_queueing_delay(&self, service: ServiceId) -> SimDuration {
        match self.svc(service) {
            Some(s) if s.qdelay_count > 0 => s.qdelay_sum / s.qdelay_count,
            _ => SimDuration::ZERO,
        }
    }

    /// Maximum queueing delay seen by `service`.
    pub fn max_queueing_delay(&self, service: ServiceId) -> SimDuration {
        self.svc(service)
            .map(|s| s.qdelay_max)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Fraction of delivered packets of `service` exceeding the high-delay budget.
    pub fn high_delay_fraction(&self, service: ServiceId) -> f64 {
        match self.svc(service) {
            Some(s) if s.delivered_pkts > 0 => s.high_delay_pkts as f64 / s.delivered_pkts as f64,
            _ => 0.0,
        }
    }

    /// The decimated queue occupancy timeline.
    pub fn queue_samples(&self) -> &[QueueSample] {
        &self.queue_samples
    }

    /// Total data packets delivered for `service`.
    pub fn delivered_pkts(&self, service: ServiceId) -> u64 {
        self.svc(service).map(|s| s.delivered_pkts).unwrap_or(0)
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_bins_accumulate() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(100));
        s.record(SimTime::from_millis(10), 1000);
        s.record(SimTime::from_millis(90), 500);
        s.record(SimTime::from_millis(150), 2000);
        assert_eq!(s.bins(), &[1500, 2000]);
    }

    #[test]
    fn bytes_between_respects_bounds() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(100));
        for i in 0..10 {
            s.record(SimTime::from_millis(i * 100 + 50), 100);
        }
        assert_eq!(s.bytes_between(SimTime::ZERO, SimTime::from_secs(1)), 1000);
        assert_eq!(
            s.bytes_between(SimTime::from_millis(200), SimTime::from_millis(500)),
            300
        );
        assert_eq!(
            s.bytes_between(SimTime::from_secs(1), SimTime::from_secs(1)),
            0
        );
    }

    #[test]
    fn mean_bps_math() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(100));
        // 1 Mbit over 1 second = 1 Mbps.
        s.record(SimTime::from_millis(500), 125_000);
        let bps = s.mean_bps(SimTime::ZERO, SimTime::from_secs(1));
        assert!((bps - 1_000_000.0).abs() < 1.0, "{bps}");
    }

    #[test]
    fn queue_sampling_is_decimated() {
        let mut t =
            Trace::with_resolution(SimDuration::from_millis(100), SimDuration::from_millis(10));
        for i in 0..100 {
            // 1 ms apart: only every 10th should stick.
            t.sample_queue(SimTime::from_millis(i), i as usize, 0, 0);
        }
        assert_eq!(t.queue_samples().len(), 10);
    }

    #[test]
    fn high_delay_fraction_counts_threshold_violations() {
        let mut t = Trace::new();
        let svc = ServiceId(1);
        t.on_delivered(
            SimTime::from_millis(1),
            svc,
            1500,
            SimDuration::from_millis(10),
        );
        t.on_delivered(
            SimTime::from_millis(2),
            svc,
            1500,
            SimDuration::from_millis(200),
        );
        t.on_delivered(
            SimTime::from_millis(3),
            svc,
            1500,
            SimDuration::from_millis(300),
        );
        t.on_delivered(
            SimTime::from_millis(4),
            svc,
            1500,
            SimDuration::from_millis(139),
        );
        assert!((t.high_delay_fraction(svc) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queueing_delay_stats() {
        let mut t = Trace::new();
        let svc = ServiceId(2);
        t.on_delivered(
            SimTime::from_millis(1),
            svc,
            1500,
            SimDuration::from_millis(10),
        );
        t.on_delivered(
            SimTime::from_millis(2),
            svc,
            1500,
            SimDuration::from_millis(30),
        );
        assert_eq!(t.mean_queueing_delay(svc), SimDuration::from_millis(20));
        assert_eq!(t.max_queueing_delay(svc), SimDuration::from_millis(30));
        assert_eq!(t.mean_queueing_delay(ServiceId(9)), SimDuration::ZERO);
    }

    #[test]
    fn series_bps_filters_window() {
        let mut s = ThroughputSeries::new(SimDuration::from_millis(100));
        s.record(SimTime::from_millis(50), 1250); // bin 0: 100 kbps
        s.record(SimTime::from_millis(150), 2500); // bin 1: 200 kbps
        let pts = s.series_bps(SimTime::from_millis(100), SimTime::from_secs(1));
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - 200_000.0).abs() < 1.0);
    }
}
